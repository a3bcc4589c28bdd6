// OPT estimation front-end used by the competitive-ratio harness.
//
// Picks the strongest offline bound available for an instance:
//   1. exact generator certificate (adversarial instances know OPT);
//   2. exact single-point solver (Theorem 2 setting);
//   3. exhaustive exact solver when the instance fits its limits;
//   4. otherwise min(local search, inexact certificate) — an upper bound
//      on OPT, making measured ratios conservative *under*-estimates,
//      which is the safe direction when validating upper-bound theorems.
//
// Independently of the upper estimate, the bound layer (src/bound/)
// supplies a *certified lower bound*: when an exact value is known the
// lower equals it; otherwise the dual-ascent bounder runs and its
// certificate is verified before the value is trusted. cost/lower then
// brackets any measured ratio from the safe (over-estimating) side. On
// exactly-solved instances the dual bound is additionally cross-checked
// against OPT — a certificate exceeding the exact optimum is a soundness
// bug and throws.
#pragma once

#include <string>

#include "instance/instance.hpp"

namespace omflp {

struct OptEstimate {
  /// Upper estimate of OPT (exact value when `exact`).
  double cost = 0.0;
  bool exact = false;
  std::string method;
  /// Certified lower bound on OPT: `cost` itself when exact, else a
  /// verified dual-ascent / chunked bound, else 0 (trivially valid) when
  /// the bounder does not support the instance's cost structure.
  double lower = 0.0;
  /// True unless the bounder was unsupported AND no exact value exists
  /// (the 0 fallback is valid but vacuous).
  bool lower_certified = false;
  std::string lower_method = "none";
};

struct OptEstimateOptions {
  /// Skip the (possibly slow) heuristic solvers (local search, greedy
  /// star) and rely on certificates / exact solvers only; throws if
  /// neither applies.
  bool allow_local_search = true;
  /// Attach a certified lower bound (see OptEstimate::lower), chunked by
  /// WindowBoundOptions' default when the instance is too large to bound
  /// whole. Off by default: the dual ascent costs more than the
  /// heuristics it brackets, so only ratio-reporting paths opt in.
  bool compute_lower = false;
};

OptEstimate estimate_opt(const Instance& instance,
                         const OptEstimateOptions& options = {});

}  // namespace omflp
