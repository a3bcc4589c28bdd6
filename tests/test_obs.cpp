// Observability subsystem tests: the TraceSink install/suppress contract,
// the OMFLP-TRACELOG v1 round trip (byte identity) and tamper rejection,
// thread-count trace determinism for both the single-stream path and the
// ShardedEngine, the trace_events_emitted counter, the MetricsSampler
// CSV/JSONL schema, and `explain` output on a hand-computed Theorem-2
// style instance where the opening chain is known.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/online_algorithm.hpp"
#include "core/pd_omflp.hpp"
#include "core/stream_runner.hpp"
#include "cost/cost_models.hpp"
#include "engine/sharded_engine.hpp"
#include "instance/tracelog_io.hpp"
#include "metric/line_metric.hpp"
#include "obs/explain.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "scenario/stream_registry.hpp"

namespace omflp {
namespace {

/// A churn stream traced through PD: covers every event kind the stream
/// path can produce (opens, assigns, dual raises, departs, rollbacks).
std::vector<TraceEvent> traced_churn_events(std::uint64_t seed = 1) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", seed, {{"events", 512}});
  PdOmflp pd;
  TraceBuffer buffer;
  {
    TraceScope scope(buffer);
    StreamRunOptions options;
    options.batch_size = 128;
    (void)run_stream(pd, stream, options);
  }
  return buffer.events();
}

std::size_t count_kind(const std::vector<TraceEvent>& events,
                       TraceEventKind kind) {
  std::size_t n = 0;
  for (const TraceEvent& ev : events)
    if (ev.kind == kind) ++n;
  return n;
}

// ------------------------------------------------------- sink contract ---

TEST(TraceSink, OffByDefaultAndScopeRestores) {
  ASSERT_FALSE(obs::tracing());
  TraceBuffer outer;
  {
    TraceScope scope(outer);
    EXPECT_TRUE(obs::tracing());
    TraceBuffer inner;
    {
      TraceScope nested(inner);
      TraceEvent ev;
      ev.kind = TraceEventKind::kDepart;
      obs::emit(ev);
    }
    EXPECT_EQ(obs::trace_sink(), &outer);  // nesting restored
    EXPECT_EQ(inner.events().size(), 1u);
    EXPECT_TRUE(outer.events().empty());
  }
  EXPECT_FALSE(obs::tracing());
}

TEST(TraceSink, ContributorsCanonicalizedAndCapped) {
  TraceEvent ev;
  std::vector<TraceContributor> all;
  for (RequestId r = 0; r < 20; ++r)
    all.push_back({r, static_cast<double>(1 + r % 5)});
  set_trace_contributors(ev, all);
  ASSERT_EQ(ev.contributors.size(), kMaxTraceContributors);
  for (std::size_t i = 1; i < ev.contributors.size(); ++i) {
    const TraceContributor& a = ev.contributors[i - 1];
    const TraceContributor& b = ev.contributors[i];
    EXPECT_TRUE(a.amount > b.amount ||
                (a.amount == b.amount && a.request < b.request));
  }
  double total = ev.residual;
  for (const TraceContributor& c : ev.contributors) total += c.amount;
  double expected = 0.0;
  for (const TraceContributor& c : all) expected += c.amount;
  EXPECT_DOUBLE_EQ(total, expected);  // the tail folds into residual
  EXPECT_GT(ev.residual, 0.0);
}

TEST(TraceCounter, EmittedOnlyWhenSinkInstalled) {
  const std::vector<TraceEvent> events = traced_churn_events();
  ASSERT_FALSE(events.empty());

  // Counted pass with a trace sink: the counter equals the buffer size.
  PerfCounters traced;
  {
    PerfScope count(traced);
    (void)traced_churn_events();
  }
  EXPECT_EQ(traced.trace_events_emitted, events.size());

  // Counted pass without one: nothing emitted.
  PerfCounters untraced;
  {
    PerfScope count(untraced);
    const EventStream stream = default_stream_scenario_registry().make(
        "churn-uniform", 1, {{"events", 512}});
    PdOmflp pd;
    (void)run_stream(pd, stream, {});
  }
  EXPECT_EQ(untraced.trace_events_emitted, 0u);
}

// ------------------------------------------------------------ tracelog ---

TEST(TraceLog, RoundTripIsByteIdentical) {
  const std::vector<TraceEvent> events = traced_churn_events();
  ASSERT_FALSE(events.empty());
  EXPECT_GT(count_kind(events, TraceEventKind::kFacilityOpen), 0u);
  EXPECT_GT(count_kind(events, TraceEventKind::kBidRollback), 0u);

  const std::string text = tracelog_to_string(events);
  const std::vector<TraceEvent> reread = tracelog_from_string(text);
  ASSERT_EQ(reread.size(), events.size());
  // read -> rewrite reproduces the input byte for byte: the property that
  // makes tracelogs usable as golden-trace differential artifacts.
  EXPECT_EQ(tracelog_to_string(reread), text);
}

TEST(TraceLog, SubnormalValuesRoundTrip) {
  // Regression: %.17g writes denorm_min as 4.9406564584124654e-324, which
  // the strtod-based number parser refused ("expected a finite number").
  TraceEvent rollback;
  rollback.kind = TraceEventKind::kBidRollback;
  rollback.request = 3;
  rollback.bid_mass = std::numeric_limits<double>::denorm_min();
  rollback.cost = -std::numeric_limits<double>::denorm_min();
  const std::string text = tracelog_to_string({rollback});
  ASSERT_NE(text.find("4.9406564584124654e-324"), std::string::npos);
  const std::vector<TraceEvent> reread = tracelog_from_string(text);
  ASSERT_EQ(reread.size(), 1u);
  EXPECT_EQ(reread[0].bid_mass, rollback.bid_mass);
  EXPECT_EQ(reread[0].cost, rollback.cost);
  EXPECT_EQ(tracelog_to_string(reread), text);
}

TEST(TraceLog, EmptyTraceRoundTrips) {
  const std::string text = tracelog_to_string({});
  EXPECT_TRUE(tracelog_from_string(text).empty());
}

TEST(TraceLog, WriterCountsAndRefusesEventsAfterFinish) {
  std::ostringstream os;
  TraceLogWriter writer(os);
  TraceEvent ev;
  writer.on_event(ev);
  writer.finish();
  writer.finish();  // idempotent
  EXPECT_EQ(writer.events_written(), 1u);
  EXPECT_THROW(writer.on_event(ev), std::logic_error);
}

TEST(TraceLog, TamperedLogsAreRejected) {
  const std::vector<TraceEvent> events = traced_churn_events();
  const std::string text = tracelog_to_string(events);

  // Baseline sanity: the untampered text parses.
  ASSERT_EQ(tracelog_from_string(text).size(), events.size());

  std::vector<std::string> lines;
  {
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 4u);
  const auto joined = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l + "\n";
    return out;
  };

  // Missing header.
  {
    std::vector<std::string> t(lines.begin() + 1, lines.end());
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Wrong version.
  {
    std::vector<std::string> t = lines;
    t[0] = "{\"format\":\"OMFLP-TRACELOG\",\"version\":2}";
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Deleted event line -> seq gap against the line index.
  {
    std::vector<std::string> t = lines;
    t.erase(t.begin() + 2);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Duplicated event line -> repeated seq.
  {
    std::vector<std::string> t = lines;
    t.insert(t.begin() + 2, t[1]);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Truncation: the end line is gone.
  {
    std::vector<std::string> t(lines.begin(), lines.end() - 1);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Understated event count in the end line.
  {
    std::vector<std::string> t = lines;
    t.back() = "{\"end\":true,\"events\":1}";
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Trailing content after the end line.
  {
    std::vector<std::string> t = lines;
    t.push_back(lines[1]);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Non-canonical spelling: the scanner accepts exactly the writer's
  // byte layout, so an inserted space is a malformation, not style.
  {
    std::vector<std::string> t = lines;
    const std::size_t colon = t[1].find(':');
    ASSERT_NE(colon, std::string::npos);
    t[1].insert(colon + 1, " ");
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
  }
  // Other spellings of the same values: each decodes to the same event,
  // but the writer would emit different bytes, so the reader rejects it.
  {
    TraceEvent flag;
    flag.kind = TraceEventKind::kVerifierFlag;
    flag.request = 1;
    flag.note = "a\nb";
    TraceEvent half;
    half.kind = TraceEventKind::kBidRollback;
    half.request = 2;
    half.bid_mass = 2.5;
    TraceEvent whole = half;
    whole.bid_mass = 1.0;
    const std::string canonical = tracelog_to_string({flag, half, whole});
    ASSERT_EQ(tracelog_to_string(tracelog_from_string(canonical)),
              canonical);
    const std::pair<const char*, const char*> mutations[] = {
        {"a\\nb", "a\\u000ab"},
        {"\"bid_mass\":2.5", "\"bid_mass\":2.50"},
        {"\"bid_mass\":2.5", "\"bid_mass\":+2.5"},
        {"\"bid_mass\":2.5", "\"bid_mass\":0.25e1"},
        {"\"bid_mass\":1,", "\"bid_mass\":1.0,"},
        {"\"request\":1,", "\"request\":01,"},
        {"\"request\":1,", "\"request\":0001,"},
    };
    for (const auto& [from, to] : mutations) {
      std::string t = canonical;
      const std::size_t at = t.find(from);
      ASSERT_NE(at, std::string::npos) << from;
      t.replace(at, std::string(from).size(), to);
      EXPECT_THROW(tracelog_from_string(t), std::invalid_argument) << to;
    }
  }
}

TEST(TraceLog, RecoverPrefixSalvagesTornAndCorruptLogs) {
  const std::vector<TraceEvent> events = traced_churn_events();
  ASSERT_GE(events.size(), 8u);
  const std::string text = tracelog_to_string(events);

  std::vector<std::string> lines;
  {
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  const auto joined = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l + "\n";
    return out;
  };
  const auto recover = [](const std::string& t) {
    std::istringstream is(t);
    TraceLogReader reader(is, TraceLogReadMode::kRecoverPrefix);
    std::vector<TraceEvent> out;
    TraceEvent ev;
    while (reader.next(ev)) out.push_back(ev);
    return std::pair<std::vector<TraceEvent>, bool>{std::move(out),
                                                    reader.truncated()};
  };

  // An intact log reads fully with truncated() == false.
  {
    const auto [prefix, truncated] = recover(text);
    EXPECT_EQ(prefix.size(), events.size());
    EXPECT_FALSE(truncated);
  }
  // Torn tail (crash mid-write): the end line and the last events are
  // gone. Strict throws; recover yields exactly the surviving prefix.
  {
    std::vector<std::string> t(lines.begin(), lines.end() - 4);
    EXPECT_THROW(tracelog_from_string(joined(t)), std::invalid_argument);
    const auto [prefix, truncated] = recover(joined(t));
    EXPECT_EQ(prefix.size(), events.size() - 3);
    EXPECT_TRUE(truncated);
    // The salvaged prefix re-serializes byte-identically to the
    // corresponding prefix of the clean log.
    EXPECT_EQ(tracelog_to_string(prefix),
              tracelog_to_string(std::vector<TraceEvent>(
                  events.begin(), events.end() - 3)));
  }
  // Half an event line at the tail — the classic torn write.
  {
    std::string t = joined({lines.begin(), lines.end() - 1});
    t += lines.back().substr(0, lines.back().size() / 2);
    const auto [prefix, truncated] = recover(t);
    EXPECT_EQ(prefix.size(), events.size());
    EXPECT_TRUE(truncated);  // end line never validated
  }
  // Corruption in the middle: recover stops just before the damage.
  {
    std::vector<std::string> t = lines;
    t[5] = t[5].substr(0, t[5].size() / 2);
    const auto [prefix, truncated] = recover(joined(t));
    EXPECT_EQ(prefix.size(), 4u);
    EXPECT_TRUE(truncated);
  }
  // A seq gap is damage too, even with a well-formed end line.
  {
    std::vector<std::string> t = lines;
    t.erase(t.begin() + 4);
    const auto [prefix, truncated] = recover(joined(t));
    EXPECT_EQ(prefix.size(), 3u);
    EXPECT_TRUE(truncated);
  }
  // The header stays strict: a file that is not a tracelog at all has no
  // prefix to recover.
  {
    std::istringstream is("not a tracelog\n");
    EXPECT_THROW(TraceLogReader(is, TraceLogReadMode::kRecoverPrefix),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------- determinism ---

TEST(TraceDeterminism, StreamTraceIndependentOfThreadCount) {
  std::string traces[2];
  int slot = 0;
  for (const char* threads : {"1", "4"}) {
    ::setenv("OMFLP_THREADS", threads, 1);
    traces[slot++] = tracelog_to_string(traced_churn_events(/*seed=*/7));
  }
  ::unsetenv("OMFLP_THREADS");
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(TraceDeterminism, EngineTraceIndependentOfShardsAndThreads) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "mixed", /*count=*/4, /*seed=*/11);
  for (TenantSpec& spec : specs) spec.overrides["events"] = 384;

  const auto run_traced = [&](std::size_t shards, const char* threads) {
    ::setenv("OMFLP_THREADS", threads, 1);
    TraceBuffer buffer;
    EngineOptions options;
    options.batch_size = 128;
    options.shards = shards;
    options.trace_sink = &buffer;
    ShardedEngine engine(specs, options);
    (void)engine.run();
    return tracelog_to_string(buffer.events());
  };
  const std::string reference = run_traced(1, "1");
  EXPECT_EQ(run_traced(4, "1"), reference);
  EXPECT_EQ(run_traced(2, "4"), reference);
  EXPECT_EQ(run_traced(4, "4"), reference);
  ::unsetenv("OMFLP_THREADS");
  EXPECT_FALSE(tracelog_from_string(reference).empty());
}

// -------------------------------------------------------------- sampler ---

TEST(MetricsSampler, ZeroCadenceThrows) {
  std::ostringstream os;
  EXPECT_THROW(MetricsSampler(os, MetricsSampler::Format::kCsv, 0),
               std::invalid_argument);
}

TEST(MetricsSampler, FormatFollowsTheFileSuffix) {
  // Regression: the CLI's rfind rule compared against size() - 6, which
  // wraps to npos for a 5-character name and matched a failed search, so
  // "m.csv" was written as JSONL.
  using Format = MetricsSampler::Format;
  EXPECT_EQ(MetricsSampler::format_for_path("m.csv"), Format::kCsv);
  EXPECT_EQ(MetricsSampler::format_for_path("a.json"), Format::kJsonl);
  EXPECT_EQ(MetricsSampler::format_for_path("a.jsonl"), Format::kJsonl);
  EXPECT_EQ(MetricsSampler::format_for_path("out/metrics.csv"),
            Format::kCsv);
  EXPECT_EQ(MetricsSampler::format_for_path("a.json.csv"), Format::kCsv);
  EXPECT_EQ(MetricsSampler::format_for_path("json"), Format::kCsv);
  EXPECT_EQ(MetricsSampler::format_for_path(""), Format::kCsv);
}

TEST(MetricsSampler, EngineEmitsCsvRowsPerShardPerRound) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "mixed", /*count=*/4, /*seed=*/3);
  for (TenantSpec& spec : specs) spec.overrides["events"] = 384;

  std::ostringstream os;
  MetricsSampler sampler(os, MetricsSampler::Format::kCsv);
  EngineOptions options;
  options.batch_size = 128;
  options.shards = 2;
  options.sampler = &sampler;
  ShardedEngine engine(specs, options);
  const EngineResult result = engine.run();

  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header.substr(0, 12), "round,shard,");
  // Sampler rows are interval deltas, but the histogram's max is
  // cumulative — the column says so.
  EXPECT_NE(header.find(",max_ns_cum,"), std::string::npos) << header;
  std::size_t rows = 0;
  for (std::string line; std::getline(is, line);) ++rows;
  EXPECT_EQ(rows, result.rounds * result.shards);
  // The sampler forces counter collection even without an outer sink.
  EXPECT_FALSE(result.counters.all_zero());
}

TEST(MetricsSampler, JsonlRowsCarryLatencyObjects) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "churn-heavy", /*count=*/2, /*seed=*/5);
  for (TenantSpec& spec : specs) spec.overrides["events"] = 256;

  std::ostringstream os;
  MetricsSampler sampler(os, MetricsSampler::Format::kJsonl);
  EngineOptions options;
  options.batch_size = 128;
  options.sampler = &sampler;
  ShardedEngine engine(specs, options);
  (void)engine.run();

  std::istringstream is(os.str());
  std::size_t rows = 0;
  for (std::string line; std::getline(is, line);) {
    ++rows;
    EXPECT_EQ(line.substr(0, 9), "{\"round\":") << line;
    EXPECT_NE(line.find("\"latency\":{\"count\":"), std::string::npos)
        << line;
    // Delta snapshots must label the cumulative max honestly: the field
    // is "max_ns_cum", never a plain "max_ns" masquerading as a delta.
    EXPECT_NE(line.find("\"max_ns_cum\":"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"max_ns\":"), std::string::npos) << line;
  }
  EXPECT_GT(rows, 0u);
}

// -------------------------------------------------------------- explain ---

/// The hand-computed instance: two co-located requests demanding the same
/// single commodity on a 2-point line, f(k) = 4k. PD must open exactly
/// one size-1 facility at the shared point — the first request raises its
/// dual until the joint-small constraint (3) for {e} goes tight at the
/// opening cost 4 and pays the entire bid itself; the second request
/// connects at distance 0 without opening anything.
Instance theorem2_hand_instance() {
  auto metric = std::make_shared<LineMetric>(std::vector<double>{0.0, 5.0});
  auto cost = std::make_shared<PolynomialCostModel>(
      /*num_commodities=*/2, /*exponent_x=*/2.0, /*scale=*/4.0);
  std::vector<Request> requests(2);
  requests[0].location = 0;
  requests[0].commodities = CommoditySet::singleton(2, 0);
  requests[1].location = 0;
  requests[1].commodities = CommoditySet::singleton(2, 0);
  return Instance(std::move(metric), std::move(cost), std::move(requests),
                  "theorem2-hand");
}

TEST(Explain, HandComputedOpeningChain) {
  PdOmflp pd;
  TraceBuffer buffer;
  {
    TraceScope scope(buffer);
    (void)run_online(pd, theorem2_hand_instance());
  }
  const std::vector<TraceEvent>& events = buffer.events();

  ASSERT_EQ(count_kind(events, TraceEventKind::kFacilityOpen), 1u);
  ASSERT_EQ(count_kind(events, TraceEventKind::kRequestAssign), 2u);
  EXPECT_GT(count_kind(events, TraceEventKind::kDualRaise), 0u);

  const TraceEvent* open = nullptr;
  for (const TraceEvent& ev : events)
    if (ev.kind == TraceEventKind::kFacilityOpen) open = &ev;
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->request, 0u);
  EXPECT_EQ(open->facility, 0u);
  EXPECT_EQ(open->point, 0u);
  EXPECT_EQ(open->config_size, 1u);
  EXPECT_EQ(open->constraint, 3);  // joint investment, small facility
  EXPECT_DOUBLE_EQ(open->cost, 4.0);  // f({e}) = 4·1
  ASSERT_EQ(open->contributors.size(), 1u);
  EXPECT_EQ(open->contributors[0].request, 0u);
  EXPECT_DOUBLE_EQ(open->contributors[0].amount, 4.0);

  // The rendered causal chain names the decision's ingredients.
  const std::string chain =
      explain_trace(events, {.facility = FacilityId{0}});
  EXPECT_NE(chain.find("facility 0 opened at point 0"), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("(3) joint investment in a small facility"),
            std::string::npos)
      << chain;
  EXPECT_NE(chain.find("request 0 contributed 4"), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("served 2 connections"), std::string::npos) << chain;
  EXPECT_NE(chain.find("rollback: none"), std::string::npos) << chain;

  const std::string summary = explain_trace(events, {});
  EXPECT_NE(summary.find("facility_open: 1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("request_assign: 2"), std::string::npos) << summary;
}

TEST(Explain, UnknownFacilityThrowsAndRollbacksAreReported) {
  const std::vector<TraceEvent> events = traced_churn_events();
  EXPECT_THROW(
      (void)explain_trace(events, {.facility = FacilityId{999999}}),
      std::invalid_argument);

  // Some churn opening eventually loses a contributor; the per-request
  // view renders without throwing for every request seen in the trace.
  const std::string summary = explain_trace(events, {});
  EXPECT_NE(summary.find("bid_rollback"), std::string::npos) << summary;
}

TEST(Explain, SpillAndRejectEventsAreRendered) {
  // Admission-control events as the ledger emits them: a spill carries
  // the redirected facility and the connection distance, a reject only
  // the shed commodity.
  TraceEvent spill;
  spill.kind = TraceEventKind::kRequestSpill;
  spill.request = 7;
  spill.commodity = 2;
  spill.facility = 5;
  spill.point = 9;
  spill.cost = 1.5;
  TraceEvent reject;
  reject.kind = TraceEventKind::kRequestReject;
  reject.request = 7;
  reject.commodity = 3;
  const std::vector<TraceEvent> events = {spill, reject};

  ExplainOptions by_request;
  by_request.request = 7;
  const std::string view = explain_trace(events, by_request);
  EXPECT_NE(view.find("[0] request_spill  request 7 -> facility 5 "
                      "(commodity 2, dist 1.5)"),
            std::string::npos)
      << view;
  EXPECT_NE(view.find("[1] request_reject  request 7 commodity 3"),
            std::string::npos)
      << view;

  // A spilled assignment is still a connection through its facility.
  TraceEvent open;
  open.kind = TraceEventKind::kFacilityOpen;
  open.request = 6;
  open.facility = 5;
  open.point = 9;
  ExplainOptions by_facility;
  by_facility.facility = 5;
  const std::string chain = explain_trace({open, spill, reject}, by_facility);
  EXPECT_NE(chain.find("served 1 connection in the trace"), std::string::npos)
      << chain;

  const std::string summary = explain_trace(events, {});
  EXPECT_NE(summary.find("request_spill: 1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("request_reject: 1"), std::string::npos) << summary;
}

}  // namespace
}  // namespace omflp
