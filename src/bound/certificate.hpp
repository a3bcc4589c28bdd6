// DualCertificate — a machine-checkable proof of an OPT lower bound.
//
// The LP relaxation of the offline problem (the one behind the paper's
// primal–dual analysis, Corollary 17) has one dual variable a_{r,e} ≥ 0
// per request r and demanded commodity e ∈ s_r, and one constraint per
// (point m, configuration σ ⊆ S):
//
//     Σ_r ( Σ_{e ∈ σ∩s_r} a_{r,e}  −  d(m, r) )₊  ≤  f^σ_m.          (D)
//
// Any feasible dual point certifies, by weak LP duality,
//
//     Σ_{r} Σ_{e ∈ s_r} a_{r,e}  ≤  LP-OPT  ≤  OPT,
//
// so the dual objective is a valid lower bound on the offline optimum —
// the quantity every measured competitive ratio should be divided by to
// get a *certified* (over-estimating, hence safe for validating upper
// bound theorems) ratio.
//
// A DualCertificate stores the duals, the claimed objective, and a
// per-point audit value (facility slack). verify_certificate() re-derives
// feasibility from the Instance alone — it shares no code with the
// bounder that produced the certificate, in the independent-verifier
// tradition of the solution and stream verifiers. A bound is trusted only
// if the checker passes.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "instance/instance.hpp"

namespace omflp {

struct DualCertificate {
  std::size_t num_requests = 0;
  CommodityId num_commodities = 0;
  std::size_t num_points = 0;

  /// Claimed dual objective Σ_{r,e} a_{r,e} — the certified lower bound.
  double objective = 0.0;

  /// duals[r][i] = a_{r,e_i} where e_0 < e_1 < ... enumerate s_r in
  /// increasing commodity order; duals[r].size() == |s_r|.
  std::vector<std::vector<double>> duals;

  /// Canonical audit slacks, one per point m: the minimum slack of the
  /// singleton constraints over *demanded* commodities and of the
  /// full-configuration constraint,
  ///   min( min_{e demanded} f^{{e}}_m − Σ_{r: e∈s_r} (a_{r,e} − d(m,r))₊,
  ///        f^S_m − Σ_r (A_r − d(m,r))₊ )      with A_r = Σ_{e∈s_r} a_{r,e}.
  /// Redundant with feasibility (any valid certificate has slack ≥ 0) but
  /// stored so tampering with either the duals or the slack vector is
  /// detected by recomputation.
  std::vector<double> facility_slack;

  std::string method = "dual-ascent";
};

// ---- serialization (OMFLP-CERT v1 text format, certificate_io.cpp) -------
//   OMFLP-CERT v1
//   method <name>
//   requests <n>
//   commodities <|S|>
//   points <|M|>
//   objective <value>
//   dual <k> <a_1> ... <a_k>        (n lines, k = |s_r|)
//   slack <v_1> ... <v_|M|>

void write_certificate(std::ostream& os, const DualCertificate& cert);
std::string certificate_to_string(const DualCertificate& cert);

/// Strict parser for the format write_certificate emits. Throws
/// std::invalid_argument on malformed input; never allocates
/// proportionally to a declared-but-absent count (fuzzed traces).
DualCertificate read_certificate(std::istream& is);
DualCertificate certificate_from_string(const std::string& text);

// ---- verification ----------------------------------------------------------

/// Re-derives dual feasibility of `cert` against `instance` from scratch.
/// Returns std::nullopt when the certificate is valid; otherwise a
/// human-readable description of the first violation found.
///
/// Constraints hold up to a relative tolerance of 1e-9. Verification
/// paths, in order of preference:
///   1. exhaustive — constraint (D) for every (m, σ) pair, the gold
///      standard independent of any cost-model structure claims; it runs
///      when 2^|S| · n · |M| ≤ 2^27;
///   2. structured — via the split decomposition: with
///      P_m(e) = Σ_{r: e∈s_r} (a_{r,e} − d(m,r)/|s_r|)₊ it holds that
///      Σ_{e∈σ∩s_r} d(m,r)/|s_r| ≤ d(m,r), hence
///      (Σ_{e∈σ∩s_r} a_{r,e} − d(m,r))₊ ≤ Σ_{e∈σ∩s_r} (a_{r,e} − d(m,r)/|s_r|)₊
///      and the lhs of (D) is at most Σ_{e∈σ} P_m(e). Feasibility then
///      follows from either of two spot-checked structural claims:
///        * additive costs (FacilityCostModel::additive_weights):
///          P_m(e) ≤ w_e(m) per commodity suffices since Σ_{e∈σ} w_e = f^σ;
///        * size-only costs (cost_by_size): the sum of the j largest
///          P_m(·) must be ≤ min_{k ≥ j} g_m(k) for every j (the suffix
///          minimum guards non-monotone g against configurations padded
///          with undemanded commodities).
///      Both claims are spot-checked against open_cost on concrete
///      configurations before being relied on.
/// Certificates whose instance is neither exhaustively checkable nor
/// structurally recognizable are rejected (soundness over completeness).
std::optional<std::string> verify_certificate(const Instance& instance,
                                              const DualCertificate& cert);

}  // namespace omflp
