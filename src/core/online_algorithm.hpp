// OnlineAlgorithm — the interface every OMFLP algorithm implements, plus
// the runner that replays an instance's request sequence through an
// algorithm into a SolutionLedger.
//
// The contract mirrors the paper's online model: reset() hands the
// algorithm everything known beforehand (the metric space, the cost
// oracle, |S|); serve() reveals one request and must leave it fully
// covered in the ledger; decisions recorded in the ledger are irrevocable.
#pragma once

#include <memory>
#include <string>

#include "instance/instance.hpp"
#include "solution/solution.hpp"

namespace omflp {

class CkptReader;
class CkptWriter;

struct ProblemContext {
  MetricPtr metric;
  CostModelPtr cost;

  CommodityId num_commodities() const { return cost->num_commodities(); }
};

class OnlineAlgorithm {
 public:
  virtual ~OnlineAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Prepare for a fresh instance. Called before the first serve();
  /// implementations must drop all state from previous runs.
  virtual void reset(const ProblemContext& context) = 0;

  /// Serve one request: open facilities / record assignments through the
  /// ledger. run_online() brackets this with begin_request /
  /// finish_request, so implementations only open and assign.
  virtual void serve(const Request& request, SolutionLedger& ledger) = 0;

  /// Dynamic streams (core/stream_runner.hpp): notification that the
  /// earlier arrival `id` has departed. Called between serve()s, after
  /// the ledger has already retired the request (active-interval cost
  /// re-accounting is ledger-level and applies to every algorithm). The
  /// default is the *frozen* deletion policy: internal state keeps the
  /// departed request's contributions — decisions stay irrevocable and
  /// past investment is treated as sunk, which is the right (and only
  /// possible) policy for the memoryless algorithms (RAND-OMFLP,
  /// Meyerson, the greedy family). Algorithms that maintain per-request
  /// potentials override this with bid rollback (PD-OMFLP, Fotakis).
  virtual void depart(RequestId id, const Request& request,
                      SolutionLedger& ledger);

  /// Checkpoint/restore (instance/checkpoint_io.hpp). serialize_state
  /// writes the algorithm's complete mutable state in canonical form —
  /// serialize → restore → serialize must be byte-identical, and a
  /// restored algorithm must continue the run *bitwise* identically to
  /// one that never stopped. restore_state is called on a freshly
  /// reset() algorithm (same options and seed, same ProblemContext);
  /// per-run caches that reset() rebuilds deterministically are not
  /// serialized. The defaults are no-ops for stateless algorithms
  /// (AlwaysOpen); everything stateful overrides both. `num_requests` is
  /// the request count the enclosing snapshot vouches for: request ids in
  /// the state lie below it, so one at or past it is refused before any
  /// id-indexed storage grows to it.
  virtual void serialize_state(CkptWriter& writer) const;
  virtual void restore_state(CkptReader& reader, RequestId num_requests);
};

/// Replay the instance through the algorithm; returns the priced ledger.
/// A capacitated instance (Instance::capacities()) gets a capacity-aware
/// ledger with `overflow` deciding what happens at a full facility.
SolutionLedger run_online(OnlineAlgorithm& algorithm,
                          const Instance& instance,
                          ConnectionChargePolicy policy =
                              ConnectionChargePolicy::kPerFacility,
                          OverflowPolicy overflow =
                              OverflowPolicy::kReassign);

}  // namespace omflp
