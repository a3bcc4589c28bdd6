#include "engine/sharded_engine.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "instance/checkpoint_io.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/trace_sink.hpp"
#include "recover/checkpoint_store.hpp"
#include "recover/fault_plan.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "support/clock.hpp"
#include "support/parallel.hpp"

namespace omflp {

namespace {

void write_snapshot(const StreamSession& session, std::ostream& os) {
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
}

}  // namespace

const TenantResult* EngineResult::first_violation() const noexcept {
  for (const TenantResult& tenant : tenants)
    if (tenant.run.violation) return &tenant;
  return nullptr;
}

ShardedEngine::ShardedEngine(std::vector<TenantSpec> tenants,
                             EngineOptions options)
    : specs_(std::move(tenants)), options_(options) {
  if (specs_.empty())
    throw std::invalid_argument("ShardedEngine: at least one tenant is "
                                "required");
  if (options_.batch_size == 0)
    throw std::invalid_argument("ShardedEngine: batch_size must be "
                                "positive");
  const StreamScenarioRegistry& scenarios =
      default_stream_scenario_registry();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();
  const std::uint64_t setup_start_ns = now_ns();
  streams_.reserve(specs_.size());
  for (const TenantSpec& spec : specs_) {
    // Resolve the algorithm eagerly so a typo fails at construction, not
    // mid-run on one shard.
    if (!algorithms.contains(spec.algorithm))
      throw std::invalid_argument(
          "ShardedEngine: tenant '" + spec.name +
          "' uses unknown algorithm '" + spec.algorithm + "'");
    streams_.push_back(
        scenarios.make(spec.scenario, spec.seed, spec.overrides));
    total_events_ += streams_.back().num_events();
  }
  setup_ns_ = static_cast<double>(now_ns() - setup_start_ns);
}

EngineResult ShardedEngine::run() const {
  const std::size_t num_tenants = specs_.size();
  const std::size_t threads =
      options_.threads > 0 ? options_.threads : default_thread_count();
  const std::size_t shards = std::min(
      num_tenants,
      options_.shards > 0 ? options_.shards : std::max<std::size_t>(
                                                  1, threads));

  StreamRunOptions run_options;
  run_options.batch_size = options_.batch_size;
  run_options.verify = options_.verify;
  run_options.overflow = options_.overflow;

  // Per-tenant state, heap-pinned so the session's borrowed references
  // stay valid. Sessions reset their algorithms at construction; the
  // restoring variant then overlays a checkpoint snapshot and
  // fast-forwards the source.
  struct TenantState {
    MaterializedEventSource source;
    std::unique_ptr<OnlineAlgorithm> algorithm;
    std::istringstream ckpt_in;       // holds a snapshot only while restoring
    std::optional<CkptReader> reader;
    StreamSession session;

    TenantState(const EventStream& stream,
                std::unique_ptr<OnlineAlgorithm> algo,
                const StreamRunOptions& options)
        : source(stream),
          algorithm(std::move(algo)),
          session(*algorithm, source, options) {}

    TenantState(const EventStream& stream,
                std::unique_ptr<OnlineAlgorithm> algo,
                const StreamRunOptions& options,
                std::string snapshot)
        : source(stream),
          algorithm(std::move(algo)),
          ckpt_in(std::move(snapshot)),
          reader(std::in_place, ckpt_in),
          session(*algorithm, source, options, *reader) {
      reader->finish();
      reader.reset();
      ckpt_in.str(std::string());
    }
  };

  // Recovery: with a checkpoint directory configured, resume from the
  // newest generation whose index and every tenant section validate —
  // torn or corrupted generations fall back to the previous one.
  std::optional<CheckpointStore> store;
  std::optional<CheckpointManifest> restored;
  if (!options_.checkpoint_dir.empty()) {
    store.emplace(options_.checkpoint_dir);
    restored = store->latest_valid();
    if (restored) {
      if (restored->tenants.size() != num_tenants)
        throw std::invalid_argument(
            "ShardedEngine: checkpoint set has " +
            std::to_string(restored->tenants.size()) + " tenants, run has " +
            std::to_string(num_tenants));
      for (std::size_t i = 0; i < num_tenants; ++i)
        if (restored->tenants[i] != specs_[i].name)
          throw std::invalid_argument(
              "ShardedEngine: checkpoint tenant '" + restored->tenants[i] +
              "' does not match spec tenant '" + specs_[i].name + "'");
    }
  }

  const AlgorithmRegistry& algorithms = default_algorithm_registry();
  std::vector<std::unique_ptr<TenantState>> states;
  states.reserve(num_tenants);
  for (std::size_t i = 0; i < num_tenants; ++i) {
    auto algorithm = algorithms.make(specs_[i].algorithm,
                                     derive_algorithm_seed(specs_[i].seed));
    // A uniform engine-level capacity is sized to each tenant's own
    // metric (tenants need not share one) and overrides the scenario's.
    StreamRunOptions tenant_options = run_options;
    if (options_.capacity > 0)
      tenant_options.capacities =
          std::make_shared<const std::vector<std::uint64_t>>(
              streams_[i].metric().num_points(), options_.capacity);
    states.push_back(
        restored ? std::make_unique<TenantState>(
                       streams_[i], std::move(algorithm), tenant_options,
                       store->read_tenant(*restored, i))
                 : std::make_unique<TenantState>(
                       streams_[i], std::move(algorithm), tenant_options));
  }

  // Shard placement: round-robin by default (with Zipf-skewed mixes
  // shard 0 gets the hottest tenant, so load is deliberately unbalanced
  // across shards), or the caller's explicit placement — the migration
  // path: restore a checkpoint set under a different placement.
  std::vector<std::size_t> placement(num_tenants);
  if (!options_.placement.empty()) {
    if (options_.placement.size() != num_tenants)
      throw std::invalid_argument(
          "ShardedEngine: placement names " +
          std::to_string(options_.placement.size()) + " tenants, run has " +
          std::to_string(num_tenants));
    for (const std::size_t s : options_.placement)
      if (s >= shards)
        throw std::invalid_argument(
            "ShardedEngine: placement shard " + std::to_string(s) +
            " out of range (shards=" + std::to_string(shards) + ")");
    placement = options_.placement;
  } else {
    for (std::size_t i = 0; i < num_tenants; ++i) placement[i] = i % shards;
  }
  std::vector<std::vector<std::size_t>> shard_tenants(shards);
  for (std::size_t i = 0; i < num_tenants; ++i)
    shard_tenants[placement[i]].push_back(i);

  EngineResult result;
  result.shards = shards;
  result.threads = threads;
  std::uint64_t trace_seq = 0;
  if (restored) {
    result.rounds = restored->round;
    result.restored_from_round = restored->round;
    trace_seq = restored->trace_seq;
  }

  LatencyHistogram histogram;
  std::vector<PerfCounters> shard_counters(shards);
  // Work counters are collected only when the caller is already
  // counting (a sink installed on the calling thread — the bench
  // suite's instrumented pass) or a metrics sampler wants the deltas.
  // Plain serving runs with counting disabled, exactly like every other
  // timed path, so `serve --seq-baseline` compares the engine and the
  // sequential loop under identical hook states.
  const bool collect_counters =
      perf::thread_sink() != nullptr || options_.sampler != nullptr;

  // Sampler-only state: per-shard histograms (the global `histogram`
  // stays the source of the final batch_latency) and non-empty batch
  // counts. Workers write only their own shard's slots; the calling
  // thread reads between rounds.
  std::vector<std::unique_ptr<LatencyHistogram>> shard_histograms;
  std::vector<std::uint64_t> shard_batches;
  if (options_.sampler != nullptr) {
    shard_histograms.resize(shards);
    for (auto& h : shard_histograms)
      h = std::make_unique<LatencyHistogram>();
    shard_batches.assign(shards, 0);
  }

  // Tracing: each tenant records into its own buffer while stepped (the
  // TraceScope travels with the tenant, not the shard), drained into the
  // caller's sink in tenant order after every round.
  std::vector<TraceBuffer> trace_buffers(
      options_.trace_sink != nullptr ? num_tenants : 0);

  // Final OMFLP-CKPT bytes of every tenant that was already exhausted
  // when last serialized (empty until then; a snapshot never is). An
  // exhausted session is never stepped again, so these are exactly what
  // checkpoint() would write, and later generations reuse them.
  std::vector<std::string> final_snapshots(num_tenants);

  // The global clock: one parallel_for over the shards per round, each
  // shard stepping every live tenant by one batch. The loop ends when a
  // full round finds no live tenant (each session needs one final
  // zero-batch probe to observe exhaustion, so rounds is at most
  // max ceil(events/batch) + 1).
  const std::uint64_t wall_start_ns = now_ns();
  // A restored session may already be exhausted (checkpoint taken on the
  // final cadence round), so count live tenants rather than assuming all.
  std::size_t live = 0;
  for (const auto& state : states)
    if (!state->session.exhausted()) ++live;
  while (live > 0) {
    ++result.rounds;
    parallel_for(
        shards,
        [&](std::size_t s) {
          std::optional<PerfScope> scope;
          if (collect_counters) scope.emplace(shard_counters[s]);
          for (const std::size_t tenant : shard_tenants[s]) {
            StreamSession& session = states[tenant]->session;
            if (session.exhausted()) continue;
            std::optional<TraceScope> trace_scope;
            if (options_.trace_sink != nullptr)
              trace_scope.emplace(trace_buffers[tenant]);
            const std::uint64_t batch_start_ns = now_ns();
            const std::size_t processed = session.step_batch();
            // Zero-event exhaustion probes are not serving work; letting
            // them into the histogram would drag p50 toward no-op time.
            if (processed > 0) {
              const double batch_ns =
                  static_cast<double>(now_ns() - batch_start_ns);
              histogram.record_ns(batch_ns);
              if (options_.sampler != nullptr) {
                shard_histograms[s]->record_ns(batch_ns);
                ++shard_batches[s];
              }
            }
          }
        },
        threads);
    live = 0;
    for (const auto& state : states)
      if (!state->session.exhausted()) ++live;

    // Drain per-tenant trace buffers in tenant order — the output order
    // depends only on the tenant list and the round structure, never on
    // shard placement or thread scheduling.
    if (options_.trace_sink != nullptr) {
      for (std::size_t i = 0; i < num_tenants; ++i) {
        for (const TraceEvent& event : trace_buffers[i].events()) {
          options_.trace_sink->on_event(event);
          ++trace_seq;
        }
        trace_buffers[i].clear();
      }
    }

    if (options_.sampler != nullptr) {
      std::vector<ShardRoundStats> stats(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        ShardRoundStats& stat = stats[s];
        for (const std::size_t tenant : shard_tenants[s]) {
          const StreamSession& session = states[tenant]->session;
          stat.events += session.events_processed();
          const SolutionLedger& ledger = session.ledger();
          stat.facilities_open += ledger.num_facilities();
          stat.active_requests += ledger.num_active_requests();
          stat.resident_records += ledger.num_resident_records();
        }
        stat.batches = shard_batches[s];
        stat.counters = shard_counters[s];
        stat.latency = shard_histograms[s].get();
      }
      options_.sampler->on_round(result.rounds, stats,
                                 /*final_round=*/live == 0);
    }

    // Periodic checkpoint generation: serialize every tenant on the
    // calling thread (sessions are between batches, so no request is in
    // flight), into one generation file committed by its rename. A live
    // tenant streams straight into the file; an exhausted one is
    // serialized once and its bytes rewritten from then on. The
    // generation number is the round, so restarts keep it increasing.
    if (store && options_.checkpoint_every > 0 &&
        result.rounds % options_.checkpoint_every == 0) {
      CheckpointManifest manifest;
      manifest.generation = result.rounds;
      manifest.round = result.rounds;
      manifest.trace_seq = trace_seq;
      for (const TenantSpec& spec : specs_)
        manifest.tenants.push_back(spec.name);
      store->publish(manifest, [&](std::size_t i, std::ostream& os) {
        const StreamSession& session = states[i]->session;
        if (!session.exhausted()) {
          write_snapshot(session, os);
          return;
        }
        std::string& snapshot = final_snapshots[i];
        if (snapshot.empty()) {
          std::ostringstream bytes;
          write_snapshot(session, bytes);
          // A copy, not a move: the stream's buffer carries growth slack
          // that would stay resident for the rest of the run.
          snapshot = bytes.str();
        } else {
          ++result.checkpoint_snapshots_reused;
        }
        os.write(snapshot.data(),
                 static_cast<std::streamsize>(snapshot.size()));
      });
      ++result.checkpoints_published;
    }

    // Injected faults fire after publication, so the damage lands on the
    // snapshot recovery would otherwise pick first.
    if (options_.fault_plan != nullptr &&
        options_.fault_plan->should_crash(result.rounds)) {
      if (store) options_.fault_plan->corrupt_latest(*store);
      throw EngineCrash(result.rounds);
    }
  }
  result.wall_ns = static_cast<double>(now_ns() - wall_start_ns);
  result.trace_seq = trace_seq;

  for (std::size_t s = 0; s < shards; ++s)
    result.counters += shard_counters[s];
  result.batch_latency = histogram.snapshot();

  result.tenants.reserve(num_tenants);
  for (std::size_t i = 0; i < num_tenants; ++i) {
    TenantResult tenant{specs_[i].name, specs_[i].scenario,
                        specs_[i].algorithm, placement[i],
                        states[i]->session.finish()};
    result.total_events += tenant.run.events;
    result.aggregate_gross_cost += tenant.run.ledger.total_cost();
    result.aggregate_active_cost += tenant.run.ledger.active_cost();
    result.aggregate_shed_requests += tenant.run.ledger.num_shed_requests();
    result.aggregate_spilled_assignments +=
        tenant.run.ledger.num_spilled_assignments();
    result.tenants.push_back(std::move(tenant));
  }
  return result;
}

}  // namespace omflp
