// ShardedEngine — the multi-tenant serving layer: K independent tenant
// stream sessions partitioned across worker shards.
//
// Every tenant is a fully self-contained session — its own EventStream
// (generated from the tenant's (scenario, overrides, seed) through
// StreamScenarioRegistry), its own algorithm instance (from
// AlgorithmRegistry, coin seed derived from the tenant seed), its own
// SolutionLedger and incremental StreamVerifier. Tenants never share
// mutable state, so the engine parallelizes across them freely.
//
// Scheduling model: tenants are placed on shards round-robin (tenant i →
// shard i mod K_shards; with Zipf-skewed mixes the low shards carry most
// of the traffic, which is the point of the workload). The engine then
// advances a **global clock** in rounds: each round runs one
// parallel_for over the shards, and every shard steps each of its live
// tenants by exactly one batch (StreamSession::step_batch). The round
// barrier is the global clock — after round R every live tenant has
// processed exactly R batches, which keeps cross-tenant progress aligned
// the way a production scheduler's fairness quantum would.
//
// Determinism contract: each tenant's ledger, costs and counters are a
// pure function of its (scenario, overrides, seed, algorithm) — bitwise
// identical to a sequential run_stream of the same tenant, and
// independent of shard count, OMFLP_THREADS, batch interleaving and the
// verifier flag (tests/test_engine.cpp enforces all of this
// differentially). Aggregates are summed in tenant order on the calling
// thread, so they are bitwise deterministic too. Only wall times and the
// latency histogram vary run to run.
//
// Work counters: when (and only when) the calling thread has a
// PerfCounters sink installed at run() entry — the bench suite's
// instrumented pass — each shard accumulates counters through a
// shard-local sink (installed per round, so the thread-local hook always
// points at the right shard), merged in shard order into
// EngineResult::counters: deterministic totals even though scheduling is
// not. Without an outer sink the engine runs with counting disabled,
// like every other timed path, so `serve --seq-baseline` compares the
// engine and the sequential loop under identical hook states.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stream_runner.hpp"
#include "perf/latency_histogram.hpp"
#include "perf/perf_counters.hpp"
#include "scenario/stream_registry.hpp"

namespace omflp {

class FaultPlan;
class MetricsSampler;
class TraceSink;

struct EngineOptions {
  /// Worker shards; 0 = min(tenants, threads). Clamped to the tenant
  /// count (an empty shard serves nobody).
  std::size_t shards = 0;
  /// Worker threads driving the shards; 0 = default_thread_count()
  /// (hardware concurrency / OMFLP_THREADS).
  std::size_t threads = 0;
  /// Events per tenant per round (and compaction cadence).
  std::size_t batch_size = 2048;
  /// Shadow every tenant with an incremental StreamVerifier.
  bool verify = true;
  /// Uniform per-point facility capacity applied to every tenant; 0 =
  /// off, keeping whatever capacities each tenant's scenario attached to
  /// its stream (if any). Nonzero builds a per-tenant map assigning this
  /// capacity to every point of the tenant's metric, overriding the
  /// scenario's.
  std::uint64_t capacity = 0;
  /// What a capacitated tenant's ledger does at a full facility.
  OverflowPolicy overflow = OverflowPolicy::kReassign;
  /// Live telemetry (borrowed, may be null): ticked on the calling
  /// thread after every round with cumulative per-shard stats. When
  /// installed the engine keeps per-shard latency histograms, gauge
  /// sums and work counters; when null none of that state exists.
  MetricsSampler* sampler = nullptr;
  /// Decision-trace output (borrowed, may be null). Each tenant records
  /// into a private TraceBuffer while being stepped; after every round
  /// the buffers are drained into this sink in tenant order on the
  /// calling thread — so the trace is bitwise independent of both the
  /// shard count and OMFLP_THREADS.
  TraceSink* trace_sink = nullptr;
  /// Checkpoint directory (recover/checkpoint_store.hpp). When set,
  /// run() first restores every tenant from the newest valid generation
  /// found there (resuming the round clock from the manifest) and, with
  /// checkpoint_every > 0, publishes a new generation every that many
  /// rounds. Empty = fault tolerance off.
  std::string checkpoint_dir;
  /// Rounds between checkpoint generations (0 = restore-only: never
  /// publish). Smaller values shorten the replay tail after a crash at
  /// the price of more IO per round, and more serialization while
  /// tenants are live: an exhausted tenant is serialized once per run()
  /// and its bytes are rewritten into later generations.
  std::uint64_t checkpoint_every = 0;
  /// Deterministic fault injection (borrowed, may be null). Consulted
  /// after each round's checkpoint publication; a scheduled crash
  /// corrupts the newest generation per the plan's torn/bitflip flags
  /// and throws EngineCrash. The plan is stateful across run() attempts
  /// so the driver's restart loop sees each crash once.
  FaultPlan* fault_plan = nullptr;
  /// Explicit tenant→shard placement (tenant i on shard placement[i]);
  /// empty = round-robin i mod shards. Because per-tenant results are
  /// bitwise independent of placement, restoring a checkpoint set under
  /// a different placement *is* tenant migration — the cross-check is
  /// that results match the never-migrated run exactly.
  std::vector<std::size_t> placement;
};

struct TenantResult {
  std::string name;
  std::string scenario;
  std::string algorithm;
  std::size_t shard = 0;
  StreamRunResult run;
};

struct EngineResult {
  std::vector<TenantResult> tenants;  // in spec order
  std::size_t shards = 0;
  std::size_t threads = 0;
  /// Global-clock rounds driven (== max over tenants of ceil(events /
  /// batch) + 1 exhaustion probe).
  std::uint64_t rounds = 0;
  std::uint64_t total_events = 0;
  /// Wall time of the round loop (sessions built before, finished after).
  double wall_ns = 0.0;
  /// Sum over tenants, in tenant order (bitwise deterministic).
  double aggregate_gross_cost = 0.0;
  double aggregate_active_cost = 0.0;
  /// Admission-control aggregates, summed in tenant order like the
  /// costs: requests shed (>= 1 rejected commodity) and assignments
  /// spilled to a non-nearest facility by capacity. Zero on
  /// uncapacitated runs. Per-tenant figures live on each
  /// TenantResult's ledger (num_shed_requests / num_spilled_assignments).
  std::uint64_t aggregate_shed_requests = 0;
  std::uint64_t aggregate_spilled_assignments = 0;
  /// Per-shard work counters merged in shard order; all-zero unless the
  /// calling thread had a PerfCounters sink installed at run() entry or
  /// a MetricsSampler was attached (the sampler needs the deltas).
  PerfCounters counters;
  /// Distribution of per-tenant step_batch() wall times across the run —
  /// the per-batch serving latency (p50/p95/p99). Zero-event exhaustion
  /// probes are excluded.
  LatencySnapshot batch_latency;
  /// Round the run resumed from (0 = fresh start, no checkpoint found).
  std::uint64_t restored_from_round = 0;
  /// Checkpoint generations published by this run() call.
  std::uint64_t checkpoints_published = 0;
  /// Tenant files among those generations written from retained bytes:
  /// the snapshot of a tenant already exhausted when it was last
  /// serialized, rewritten instead of re-serialized. Per run() call —
  /// a restarted run retains nothing until it serializes again.
  std::uint64_t checkpoint_snapshots_reused = 0;
  /// Trace events emitted to the sink over the whole logical run,
  /// including rounds replayed before a restore point (the manifest's
  /// trace_seq carries the count across restarts).
  std::uint64_t trace_seq = 0;

  double events_per_sec() const noexcept {
    return wall_ns > 0.0
               ? static_cast<double>(total_events) * 1e9 / wall_ns
               : 0.0;
  }
  /// First tenant (in spec order) whose verifier reported a violation;
  /// nullptr when every tenant is clean (or verification was off).
  const TenantResult* first_violation() const noexcept;
};

class ShardedEngine {
 public:
  /// Materializes and validates every tenant's stream up front (throws
  /// std::invalid_argument on an unknown scenario/algorithm or a
  /// malformed workload), so run() measures serving, not generation.
  explicit ShardedEngine(std::vector<TenantSpec> tenants,
                         EngineOptions options = {});

  const std::vector<TenantSpec>& tenants() const noexcept { return specs_; }
  /// Total events across all tenant streams (the denominator of the
  /// aggregate events/s).
  std::uint64_t total_events() const noexcept { return total_events_; }
  /// Wall time the constructor spent generating and validating the
  /// tenant streams (outside run()'s clock).
  double setup_ns() const noexcept { return setup_ns_; }

  /// Serve every tenant to completion. Reusable: each call builds fresh
  /// algorithm instances and sessions over the cached streams.
  EngineResult run() const;

 private:
  std::vector<TenantSpec> specs_;
  std::vector<EventStream> streams_;  // parallel to specs_
  EngineOptions options_;
  std::uint64_t total_events_ = 0;
  double setup_ns_ = 0.0;
};

}  // namespace omflp
