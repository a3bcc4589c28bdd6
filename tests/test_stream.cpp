// Dynamic-stream subsystem tests: event-stream validation, the stream
// scenario families, ledger active-interval accounting, deletion
// policies (PD/Fotakis bid rollback vs frozen), offline and incremental
// verifier agreement, trace round-trips through stream IO, bounded-memory
// compaction, and bitwise determinism across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "baseline/meyerson_ofl.hpp"
#include "bound/window.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "core/stream_runner.hpp"
#include "cost/cost_models.hpp"
#include "instance/checkpoint_io.hpp"
#include "instance/event_stream.hpp"
#include "instance/stream_io.hpp"
#include "metric/line_metric.hpp"
#include "scenario/stream_registry.hpp"
#include "solution/verifier.hpp"
#include "support/rng.hpp"

namespace omflp {
namespace {

Request make_request(CommodityId universe, PointId location,
                     std::initializer_list<CommodityId> demand) {
  Request r;
  r.location = location;
  r.commodities = CommoditySet(universe, demand);
  return r;
}

/// A small two-commodity line world shared by the handcrafted tests.
struct SmallWorld {
  MetricPtr metric = LineMetric::uniform_grid(8, 7.0);  // points 0..7
  CostModelPtr cost = std::make_shared<PolynomialCostModel>(2, 1.0, 3.0);
};

// ------------------------------------------------------------ validation ---

TEST(EventStream, ValidateAcceptsWellFormedTimelines) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 1, {0}), 3));
  events.push_back(StreamEvent::arrival(make_request(2, 5, {0, 1})));
  events.push_back(StreamEvent::departure(1));
  events.push_back(StreamEvent::arrival(make_request(2, 2, {1})));
  const EventStream stream(w.metric, w.cost, events, "ok");
  EXPECT_NO_THROW(stream.validate());
  EXPECT_EQ(stream.num_events(), 4u);
  EXPECT_EQ(stream.num_arrivals(), 3u);
}

TEST(EventStream, ValidateRejectsMalformedEvents) {
  SmallWorld w;
  {
    // Departure of an arrival that never happened.
    const EventStream stream(
        w.metric, w.cost,
        {StreamEvent::arrival(make_request(2, 0, {0})),
         StreamEvent::departure(1)},
        "bad");
    EXPECT_THROW(stream.validate(), std::invalid_argument);
  }
  {
    // Double departure.
    const EventStream stream(w.metric, w.cost,
                             {StreamEvent::arrival(make_request(2, 0, {0})),
                              StreamEvent::departure(0),
                              StreamEvent::departure(0)},
                             "bad");
    EXPECT_THROW(stream.validate(), std::invalid_argument);
  }
  {
    // Departure after the lease already expired (lease 1 fires before
    // event 2).
    const EventStream stream(
        w.metric, w.cost,
        {StreamEvent::arrival(make_request(2, 0, {0}), /*lease=*/1),
         StreamEvent::arrival(make_request(2, 1, {1})),
         StreamEvent::departure(0)},
        "bad");
    EXPECT_THROW(stream.validate(), std::invalid_argument);
  }
  {
    // Location outside the metric.
    const EventStream stream(
        w.metric, w.cost, {StreamEvent::arrival(make_request(2, 99, {0}))},
        "bad");
    EXPECT_THROW(stream.validate(), std::invalid_argument);
  }
}

// A stream of leased arrivals and no departures skips the lease-expiry
// heap in validate(); every per-event check must still run there.
TEST(EventStream, LeaseOnlyStreamsStillRejectMalformedArrivals) {
  SmallWorld w;
  const auto leased = [&](Request bad) {
    return EventStream(
        w.metric, w.cost,
        {StreamEvent::arrival(make_request(2, 0, {0}), /*lease=*/2),
         StreamEvent::arrival(make_request(2, 3, {0, 1}), /*lease=*/1),
         StreamEvent::arrival(std::move(bad), /*lease=*/4)},
        "lease-only");
  };
  EXPECT_NO_THROW(leased(make_request(2, 7, {1})).validate());
  // Location outside the metric.
  EXPECT_THROW(leased(make_request(2, 8, {1})).validate(),
               std::invalid_argument);
  // Demand set over the wrong universe.
  EXPECT_THROW(leased(make_request(3, 1, {2})).validate(),
               std::invalid_argument);
  // Empty demand set.
  EXPECT_THROW(leased(Request{1, CommoditySet(2)}).validate(),
               std::invalid_argument);
}

TEST(EventStream, HugeLeasesSaturateInsteadOfWrapping) {
  // Regression: the deadline t + lease wrapped around uint64, so a lease
  // of 2^64−1 granted at event 1 "expired" at deadline 0 — before its
  // own arrival — in all three timeline implementations at once (which
  // is why the verifier could not catch it).
  SmallWorld w;
  const std::uint64_t huge = ~std::uint64_t{0};
  const EventStream stream(
      w.metric, w.cost,
      {StreamEvent::arrival(make_request(2, 0, {0})),
       StreamEvent::arrival(make_request(2, 1, {1}), huge),
       StreamEvent::arrival(make_request(2, 2, {0}))},
      "huge-lease");
  EXPECT_NO_THROW(stream.validate());
  EXPECT_EQ(stream.surviving_arrivals(),
            (std::vector<RequestId>{0, 1, 2}));

  AlwaysOpen algorithm;
  StreamRunOptions options;
  options.verify = true;
  const StreamRunResult result = run_stream(algorithm, stream, options);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.lease_expiries, 0u);
  EXPECT_EQ(result.ledger.num_active_requests(), 3u);
  EXPECT_FALSE(verify_stream(stream, result.ledger).has_value());
}

TEST(EventStream, SurvivingSetRespectsLeasesAndDepartures) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0}), 2));  // 0
  events.push_back(StreamEvent::arrival(make_request(2, 1, {1})));     // 1
  events.push_back(StreamEvent::arrival(make_request(2, 2, {0})));     // 2
  events.push_back(StreamEvent::departure(2));
  events.push_back(StreamEvent::arrival(make_request(2, 3, {1}), 50));  // 3
  const EventStream stream(w.metric, w.cost, events, "surv");
  stream.validate();
  // Arrival 0's lease expires before event 2; arrival 2 departs
  // explicitly; arrival 3's lease outlives the stream.
  EXPECT_EQ(stream.surviving_arrivals(),
            (std::vector<RequestId>{1, 3}));
  const Instance surviving = stream.surviving_instance();
  ASSERT_EQ(surviving.num_requests(), 2u);
  EXPECT_EQ(surviving.request(0).location, 1u);
  EXPECT_EQ(surviving.request(1).location, 3u);
}

// ------------------------------------------------------------ accounting ---

TEST(StreamRunner, ActiveIntervalAccountingByHand) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));  // id 0
  events.push_back(StreamEvent::arrival(make_request(2, 7, {0})));  // id 1
  events.push_back(StreamEvent::departure(0));
  const EventStream stream(w.metric, w.cost, events, "hand");
  stream.validate();

  // AlwaysOpen opens at the request location: zero connection cost,
  // opening 3.0 per singleton facility (scale 3, |σ|=1, exponent 1).
  AlwaysOpen algorithm;
  StreamRunOptions options;
  options.verify = true;
  options.compact = false;  // the test inspects retired records below
  const StreamRunResult result = run_stream(algorithm, stream, options);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.arrivals, 2u);
  EXPECT_EQ(result.departures, 1u);
  const SolutionLedger& ledger = result.ledger;
  EXPECT_DOUBLE_EQ(ledger.opening_cost(), 6.0);
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 0.0);
  // Openings are sunk: the departed request removes no opening cost.
  EXPECT_DOUBLE_EQ(ledger.active_cost(), 6.0);
  EXPECT_EQ(ledger.num_active_requests(), 1u);
  EXPECT_EQ(ledger.num_retired_requests(), 1u);
  EXPECT_EQ(ledger.request_record(0).retired_at, 2u);
  EXPECT_TRUE(ledger.request_record(1).active());

  EXPECT_FALSE(verify_stream(stream, ledger).has_value());
}

TEST(StreamRunner, ConnectionCostLeavesActiveTallyOnDeparture) {
  SmallWorld w;
  // NearestOrOpen: first request opens {0} at point 0; the second (same
  // commodity, distance 1 away, opening cost 3 > 1) connects instead.
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));  // id 0
  events.push_back(StreamEvent::arrival(make_request(2, 1, {0})));  // id 1
  events.push_back(StreamEvent::departure(1));
  const EventStream stream(w.metric, w.cost, events, "conn");
  stream.validate();

  NearestOrOpen algorithm;
  StreamRunOptions options;
  options.verify = true;
  options.compact = false;  // verify_stream needs every record resident
  const StreamRunResult result = run_stream(algorithm, stream, options);
  EXPECT_FALSE(result.violation.has_value());
  const SolutionLedger& ledger = result.ledger;
  EXPECT_DOUBLE_EQ(ledger.opening_cost(), 3.0);
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 1.0);   // gross keeps it
  EXPECT_DOUBLE_EQ(ledger.active_connection_cost(), 0.0);  // retired
  EXPECT_DOUBLE_EQ(ledger.active_cost(), 3.0);
  EXPECT_FALSE(verify_stream(stream, ledger).has_value());
}

TEST(StreamVerifier, CatchesActiveIntervalTampering) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));
  events.push_back(StreamEvent::arrival(make_request(2, 1, {0})));
  events.push_back(StreamEvent::departure(0));
  const EventStream stream(w.metric, w.cost, events, "tamper");
  stream.validate();

  // Drive a ledger by hand but retire the *wrong* request: the offline
  // stream verifier must flag the active-interval mismatch.
  SolutionLedger ledger(w.metric, w.cost);
  AlwaysOpen algorithm;
  algorithm.reset(ProblemContext{w.metric, w.cost});
  for (int i = 0; i < 2; ++i) {
    const Request& r = events[static_cast<std::size_t>(i)].request;
    ledger.begin_request(r);
    algorithm.serve(r, ledger);
    ledger.finish_request();
  }
  ledger.retire_request(1, 2);  // the stream departs id 0, not id 1
  const auto violation = verify_stream(stream, ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->what.find("active interval"), std::string::npos);
}

TEST(StreamVerifier, RejectsHandTamperedOverCapacityLedger) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0})));
  EventStream stream(w.metric, w.cost, events, "over-cap");
  stream.set_capacities(
      std::make_shared<const std::vector<std::uint64_t>>(8, 1));
  stream.validate();

  // An uncapacitated ledger happily stacks both active requests onto the
  // same facility; the capacitated stream says one slot per facility at
  // point 0 — the offline verifier must flag the over-subscription.
  SolutionLedger ledger(w.metric, w.cost);
  NearestOrOpen algorithm;
  algorithm.reset(ProblemContext{w.metric, w.cost});
  for (const StreamEvent& event : events) {
    ledger.begin_request(event.request);
    algorithm.serve(event.request, ledger);
    ledger.finish_request();
  }
  ASSERT_EQ(ledger.num_facilities(), 1u);  // second arrival reused it
  const auto violation = verify_stream(stream, ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->what.find("capacity"), std::string::npos)
      << violation->what;
}

/// A hand-driven ledger with a StreamVerifier shadowing it, for the
/// verifier's direct tests. NearestOrOpen serves every arrival.
struct ShadowedLedger {
  SmallWorld w;
  SolutionLedger ledger{w.metric, w.cost};
  StreamVerifier verifier;
  NearestOrOpen algorithm;

  explicit ShadowedLedger(CapacityMap capacities = nullptr)
      : verifier(w.metric, w.cost, 1e-6, std::move(capacities)) {
    algorithm.reset(ProblemContext{w.metric, w.cost});
  }

  RequestId arrive(PointId at, std::initializer_list<CommodityId> demand) {
    const Request r = make_request(2, at, demand);
    const RequestId id = ledger.num_requests();
    ledger.begin_request(r);
    algorithm.serve(r, ledger);
    ledger.finish_request();
    verifier.on_arrival(id, r, ledger);
    return id;
  }

  void retire(RequestId id, std::uint64_t event_index) {
    ledger.retire_request(id, event_index);
    verifier.on_retire(id, event_index, ledger);
  }

  std::string error() const {
    return verifier.error() ? verifier.error()->what : "";
  }
};

std::string checkpoint_text(const StreamVerifier& verifier,
                            const SolutionLedger& ledger) {
  std::ostringstream os;
  CkptWriter writer(os);
  verifier.serialize(writer, ledger);
  writer.finish();
  return os.str();
}

StreamVerifier restored_verifier(const std::string& text,
                                 const ShadowedLedger& s) {
  std::istringstream is(text);
  CkptReader reader(is);
  StreamVerifier verifier(s.w.metric, s.w.cost);
  verifier.restore(reader, s.ledger.num_requests());
  reader.finish();
  return verifier;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  for (std::string token; is >> token;) tokens.push_back(token);
  return tokens;
}

/// Re-seals a checkpoint after `edit` rewrote the tokens of its
/// 'verifier-active' line (count first, then per entry: id, connection,
/// facility count, facilities).
std::string with_active_line(
    const std::string& text,
    const std::function<void(std::vector<std::string>&)>& edit) {
  std::istringstream lines(text);
  std::ostringstream os;
  CkptWriter writer(os);
  std::string line;
  std::getline(lines, line);  // header, rewritten by the writer
  while (std::getline(lines, line)) {
    std::vector<std::string> tokens = split_tokens(line);
    if (tokens[0] == "checksum") break;
    if (tokens[0] == "verifier-active") {
      std::vector<std::string> values(tokens.begin() + 1, tokens.end());
      edit(values);
      tokens.resize(1);
      tokens.insert(tokens.end(), values.begin(), values.end());
    }
    writer.line(tokens[0]);
    for (std::size_t i = 1; i < tokens.size(); ++i) writer.tok(tokens[i]);
  }
  writer.finish();
  return os.str();
}

/// The active entries of a 'verifier-active' token list, each a token
/// group {id, connection, k, facility...}.
std::vector<std::vector<std::string>> active_entries(
    const std::vector<std::string>& values) {
  std::vector<std::vector<std::string>> entries;
  for (auto it = values.begin() + 1; it != values.end();) {
    const auto end = it + 3 + std::stoll(it[2]);
    entries.emplace_back(it, end);
    it = end;
  }
  return entries;
}

/// Replaces the entries of a 'verifier-active' token list, keeping its
/// count.
void set_active_entries(std::vector<std::string>& values,
                        const std::vector<std::vector<std::string>>& entries) {
  values.resize(1);
  for (const auto& entry : entries)
    values.insert(values.end(), entry.begin(), entry.end());
}

TEST(StreamVerifier, FlagsUnknownAndDoubleRetirement) {
  {
    ShadowedLedger s;
    s.arrive(0, {0});
    s.verifier.on_retire(5, 1, s.ledger);
    EXPECT_NE(s.error().find("unknown or already-retired"), std::string::npos)
        << s.error();
  }
  {
    ShadowedLedger s;
    const RequestId id = s.arrive(0, {0});
    s.retire(id, 1);
    EXPECT_EQ(s.error(), "");
    s.verifier.on_retire(id, 1, s.ledger);
    EXPECT_NE(s.error().find("unknown or already-retired"), std::string::npos)
        << s.error();
  }
}

TEST(StreamVerifier, FlagsRetiredAtMismatch) {
  ShadowedLedger s;
  const RequestId id = s.arrive(0, {0});
  s.ledger.retire_request(id, 3);
  s.verifier.on_retire(id, 2, s.ledger);
  EXPECT_EQ(s.error(), "request 0 retired_at 3 != runner event 2");
  // The error sticks: finish() reports it whatever the ledger says.
  ASSERT_TRUE(s.verifier.finish(s.ledger).has_value());
  EXPECT_EQ(s.verifier.finish(s.ledger)->what, s.error());
}

TEST(StreamVerifier, FinishFlagsActiveCountMismatch) {
  // A retirement the verifier never heard of, on a request that paid no
  // connection cost: every total still agrees, only the active count
  // exposes it.
  ShadowedLedger s;
  const RequestId id = s.arrive(3, {0, 1});
  ASSERT_EQ(s.ledger.connection_cost(), 0.0);
  s.ledger.retire_request(id, 1);
  const auto violation = s.verifier.finish(s.ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->what, "active request count mismatch");
}

TEST(StreamVerifier, RetirementReleasesOccupancy) {
  // The ledger is uncapacitated; only the verifier knows the one-slot
  // capacity, so it alone decides whether the facility is over-full.
  const auto one_slot =
      std::make_shared<const std::vector<std::uint64_t>>(8, 1);
  {
    ShadowedLedger s(one_slot);
    s.arrive(0, {0});
    s.arrive(0, {0});  // same facility, first request still active
    EXPECT_NE(s.error().find("over capacity"), std::string::npos)
        << s.error();
  }
  {
    ShadowedLedger s(one_slot);
    const RequestId first = s.arrive(0, {0});
    s.retire(first, 1);
    s.arrive(0, {0});  // the slot was released
    ASSERT_EQ(s.ledger.num_facilities(), 1u);
    EXPECT_EQ(s.error(), "");
    EXPECT_FALSE(s.verifier.finish(s.ledger).has_value());
  }
}

TEST(StreamVerifier, CheckpointIsCanonicalWhateverTheInsertionOrder) {
  ShadowedLedger s;
  for (PointId i = 0; i < 48; ++i)
    s.arrive(i % 8, {static_cast<CommodityId>(i % 2)});
  std::uint64_t clock = 48;
  for (const RequestId id : {31u, 2u, 17u, 40u, 0u, 9u, 25u, 46u})
    s.retire(id, clock++);
  ASSERT_EQ(s.error(), "");
  const std::string text = checkpoint_text(s.verifier, s.ledger);

  // Written in ascending id order, one entry per active request.
  std::vector<std::string> values;
  (void)with_active_line(text, [&](std::vector<std::string>& v) {
    values = v;
  });
  const auto entries = active_entries(values);
  ASSERT_EQ(entries.size(), s.ledger.num_active_requests());
  ASSERT_EQ(values[0], std::to_string(entries.size()));
  for (std::size_t i = 1; i < entries.size(); ++i)
    EXPECT_LT(std::stoull(entries[i - 1][0]), std::stoull(entries[i][0]));

  // A restore that inserts the entries in descending id order still
  // serializes to the same bytes.
  const std::string reversed =
      with_active_line(text, [](std::vector<std::string>& v) {
        auto entries = active_entries(v);
        std::reverse(entries.begin(), entries.end());
        set_active_entries(v, entries);
      });
  ASSERT_NE(reversed, text);
  StreamVerifier restored = restored_verifier(reversed, s);
  EXPECT_EQ(checkpoint_text(restored, s.ledger), text);
  EXPECT_EQ(checkpoint_text(restored_verifier(text, s), s.ledger), text);

  // The restored verifier keeps verifying where the original left off.
  s.ledger.retire_request(5, clock);
  restored.on_retire(5, clock, s.ledger);
  EXPECT_FALSE(restored.error().has_value());
  EXPECT_FALSE(restored.finish(s.ledger).has_value());
}

TEST(StreamVerifier, ActiveSetGrowsAndShrinks) {
  // Thousands of arrivals, then retirements in a scrambled order down to
  // a handful of survivors: every retirement must find its entry while
  // the active pool grows and its id map is trimmed underneath.
  ShadowedLedger s;
  constexpr RequestId kArrivals = 3000;
  for (RequestId i = 0; i < kArrivals; ++i)
    s.arrive(static_cast<PointId>(i % 8),
             {static_cast<CommodityId>(i % 2)});
  std::uint64_t clock = kArrivals;
  for (RequestId k = 0; k < kArrivals; ++k) {
    const RequestId id = (k * 1237) % kArrivals;  // a permutation
    if (id % 500 != 7) s.retire(id, clock++);
  }
  EXPECT_EQ(s.error(), "");
  EXPECT_EQ(s.ledger.num_active_requests(), 6u);
  EXPECT_FALSE(s.verifier.finish(s.ledger).has_value());
  const std::string text = checkpoint_text(s.verifier, s.ledger);
  EXPECT_EQ(checkpoint_text(restored_verifier(text, s), s.ledger), text);
}

TEST(StreamVerifier, RetirementChecksFacilitiesAgainstTheCheckpoint) {
  // Two facilities; a checkpoint that claims request 1 occupies the
  // other one must be caught when request 1 retires.
  ShadowedLedger s;
  s.arrive(0, {0});
  const RequestId moved = s.arrive(7, {0});
  ASSERT_EQ(s.ledger.num_facilities(), 2u);
  const FacilityId actual = s.ledger.request_record(moved).served.at(0).facility;
  const std::string tampered = with_active_line(
      checkpoint_text(s.verifier, s.ledger),
      [&](std::vector<std::string>& v) {
        auto entries = active_entries(v);
        ASSERT_EQ(entries.size(), 2u);
        entries[1][3] = std::to_string(1 - actual);  // the other facility
        set_active_entries(v, entries);
      });
  StreamVerifier restored = restored_verifier(tampered, s);
  s.ledger.retire_request(moved, 2);
  restored.on_retire(moved, 2, s.ledger);
  ASSERT_TRUE(restored.error().has_value());
  EXPECT_NE(restored.error()->what.find("facilities changed"),
            std::string::npos)
      << restored.error()->what;
}

// ------------------------------------------------------ deletion policies ---

TEST(PdDeletion, RollbackKeepsBidModesIdenticalAndAuditClean) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/5,
      {{"events", 512}, {"points", 24}, {"commodities", 6}});

  auto run = [&](PdOptions::BidMode mode) {
    PdOmflp pd(PdOptions{.bid_mode = mode});
    StreamRunOptions options;
    options.verify = true;
    options.compact = false;
    StreamRunResult result = run_stream(pd, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
    const auto issue = pd.audit_state();
    EXPECT_FALSE(issue.has_value()) << *issue;
    EXPECT_FALSE(verify_stream(stream, result.ledger).has_value());
    return std::tuple<double, double, std::size_t>{
        result.ledger.total_cost(), result.ledger.active_cost(),
        result.ledger.num_facilities()};
  };
  const auto incremental = run(PdOptions::BidMode::kIncremental);
  const auto reference = run(PdOptions::BidMode::kReference);
  EXPECT_EQ(std::get<0>(incremental), std::get<0>(reference));  // bitwise
  EXPECT_EQ(std::get<1>(incremental), std::get<1>(reference));
  EXPECT_EQ(std::get<2>(incremental), std::get<2>(reference));
}

TEST(PdDeletion, RollbackAndFrozenDiverge) {
  // The two policies must be distinguishable: rollback withdraws the
  // deleted requests' investment, frozen keeps bidding on top of it.
  // (Equality would mean depart() is not actually rolling anything
  // back.) A multi-point workload is needed — on a single point every
  // bid clips to zero once a facility opens, leaving nothing to roll
  // back.
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/3,
      {{"events", 512}, {"points", 32}, {"commodities", 6},
       {"churn", 0.5}});
  auto run = [&](PdOptions::DeletionPolicy policy) {
    PdOmflp pd(PdOptions{.deletion_policy = policy});
    StreamRunOptions options;
    options.verify = true;
    StreamRunResult result = run_stream(pd, stream, options);
    EXPECT_FALSE(result.violation.has_value());
    return result.ledger.total_cost();
  };
  const double rollback = run(PdOptions::DeletionPolicy::kRollback);
  const double frozen = run(PdOptions::DeletionPolicy::kFrozen);
  EXPECT_NE(rollback, frozen);
}

TEST(PdDeletion, RollbackWithdrawsTotalDual) {
  SmallWorld w;
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent::arrival(make_request(2, 0, {0, 1})));
  events.push_back(StreamEvent::arrival(make_request(2, 6, {0})));
  events.push_back(StreamEvent::departure(0));
  events.push_back(StreamEvent::departure(1));
  const EventStream stream(w.metric, w.cost, events, "duals");
  stream.validate();
  PdOmflp pd;
  const StreamRunResult result = run_stream(pd, stream, {});
  // Every archived request departed and was rolled back.
  EXPECT_DOUBLE_EQ(pd.total_dual(), 0.0);
  const auto issue = pd.audit_state();
  EXPECT_FALSE(issue.has_value()) << *issue;
  EXPECT_EQ(result.ledger.num_active_requests(), 0u);
}

TEST(BaselineDeletion, AllRosterAlgorithmsSurviveChurnVerified) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/7,
      {{"events", 384}, {"points", 16}, {"commodities", 5}});
  StreamRunOptions options;
  options.verify = true;

  {
    FotakisOfl fotakis;  // rollback per commodity
    const StreamRunResult result = run_stream(fotakis, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
  }
  {
    MeyersonOfl meyerson(11);  // frozen
    const StreamRunResult result = run_stream(meyerson, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
  }
  {
    RandOmflp rand(RandOptions{.seed = 13});
    const StreamRunResult result = run_stream(rand, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
  }
  {
    RentOrBuy rentbuy;
    const StreamRunResult result = run_stream(rentbuy, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
  }
}

// ---------------------------------------------------------------- trace IO ---

TEST(StreamIo, RoundTripIsByteIdentical) {
  for (const char* scenario :
       {"churn-uniform", "adversarial-churn", "lease-poisson"}) {
    const EventStream stream = default_stream_scenario_registry().make(
        scenario, /*seed=*/9, {});
    const std::string text = event_stream_to_string(stream);
    const EventStream reloaded = event_stream_from_string(text);
    EXPECT_EQ(event_stream_to_string(reloaded), text) << scenario;
    EXPECT_EQ(reloaded.num_events(), stream.num_events());
    EXPECT_EQ(reloaded.num_arrivals(), stream.num_arrivals());
    EXPECT_NO_THROW(reloaded.validate());
  }
}

TEST(StreamIo, CapacityMapRoundTripsAndStaysOptional) {
  const EventStream capped = default_stream_scenario_registry().make(
      "hotspot-grid-capped", /*seed=*/9, {{"events", 64}});
  ASSERT_NE(capped.capacities(), nullptr);
  const std::string text = event_stream_to_string(capped);
  EXPECT_NE(text.find("\ncapacities "), std::string::npos);
  const EventStream reloaded = event_stream_from_string(text);
  ASSERT_NE(reloaded.capacities(), nullptr);
  EXPECT_TRUE(*reloaded.capacities() == *capped.capacities());
  EXPECT_EQ(event_stream_to_string(reloaded), text);

  // The uncapped sibling (same generator, no cap) writes no capacities
  // section at all — existing uncapacitated files stay byte-stable.
  const EventStream uncapped = default_stream_scenario_registry().make(
      "hotspot-grid", /*seed=*/9, {{"events", 64}});
  EXPECT_EQ(uncapped.capacities(), nullptr);
  EXPECT_EQ(event_stream_to_string(uncapped).find("capacities"),
            std::string::npos);
}

TEST(StreamIo, ReplayThroughTraceReproducesCostsExactly) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/4, {{"events", 512}});
  PdOmflp direct;
  const StreamRunResult expected = run_stream(direct, stream, {});

  std::istringstream is(event_stream_to_string(stream));
  StreamTraceReader reader(is);
  EXPECT_EQ(reader.num_events(), stream.num_events());
  EXPECT_EQ(reader.num_arrivals(), stream.num_arrivals());
  PdOmflp replayed;
  StreamRunOptions options;
  options.batch_size = 61;  // odd batches: exercise the batched parser
  options.verify = true;
  const StreamRunResult result = run_stream(replayed, reader, options);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_EQ(result.ledger.total_cost(), expected.ledger.total_cost());
  EXPECT_EQ(result.ledger.active_cost(), expected.ledger.active_cost());
  EXPECT_EQ(result.events, expected.events);
  EXPECT_EQ(result.lease_expiries, expected.lease_expiries);
}

TEST(StreamIo, RejectsMalformedTraces) {
  EXPECT_THROW(event_stream_from_string("OMFLP-STREAM v2\n"),
               std::invalid_argument);
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/2, {{"events", 32}});
  std::string text = event_stream_to_string(stream);
  EXPECT_THROW(
      event_stream_from_string(text.substr(0, text.size() / 2)),
      std::invalid_argument);
}

TEST(StreamIo, EventLinesAreParsedStrictly) {
  // Regression: the first event parser truncated "d 3.5" to a departure
  // of 3, accepted trailing garbage, and silently collapsed duplicate
  // commodity ids — a corrupted trace was misread instead of rejected.
  SmallWorld w;
  const EventStream stream(
      w.metric, w.cost,
      {StreamEvent::arrival(make_request(2, 0, {0}), 4),
       StreamEvent::arrival(make_request(2, 1, {0, 1})),
       StreamEvent::departure(0)},
      "strict");
  const std::string text = event_stream_to_string(stream);
  auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string mutated = text;
    const auto at = mutated.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    mutated.replace(at, from.size(), to);
    EXPECT_THROW(event_stream_from_string(mutated), std::invalid_argument)
        << "accepted: " << to;
  };
  corrupt("d 0", "d 0.5");          // fractional departure target
  corrupt("d 0", "d 0 junk");       // trailing garbage on a departure
  corrupt("a 1 2 0 1", "a 1 2 0 0");     // duplicate commodity id
  corrupt("a 1 2 0 1", "a 1 2 0 1 junk");  // trailing garbage
  corrupt("L 4", "L 4 junk");       // trailing garbage after a lease
  corrupt("L 4", "L -4");           // negative lease
  // Header counts parse strictly too: "events -5" used to wrap through
  // istream's unsigned extraction and die in vector::reserve.
  corrupt("events 3 arrivals 2", "events -5 arrivals 2");
  corrupt("events 3 arrivals 2", "events 3 arrivals -1");
  corrupt("events 3 arrivals 2", "events 3 arrivals 9");  // k > n
  corrupt("commodities 2", "commodities -2");
  // Events beyond the declared count (e.g. a truncated 'events' header)
  // must be rejected, not silently replayed as a prefix workload — in
  // both the materializing and the batched reader.
  EXPECT_THROW(event_stream_from_string(text + "a 0 1 0\n"),
               std::invalid_argument);
  {
    std::istringstream is(text + "a 0 1 0\n");
    StreamTraceReader reader(is);
    std::vector<StreamEvent> out;
    EXPECT_THROW(reader.next_batch(out, 1024), std::invalid_argument);
  }
}

/// The events section of a trace: everything after the 'events' line.
std::size_t events_section(const std::string& text) {
  const std::size_t header = text.find("\nevents ");
  return text.find('\n', header + 1) + 1;
}

/// `text` with every event line rewritten by `edit`.
std::string with_event_lines(
    const std::string& text,
    const std::function<std::string(const std::string&)>& edit) {
  const std::size_t start = events_section(text);
  std::string out = text.substr(0, start);
  std::istringstream lines(text.substr(start));
  for (std::string line; std::getline(lines, line);) out += edit(line);
  return out;
}

std::string replace_all(std::string text, char from, const std::string& to) {
  std::string out;
  for (const char c : text) {
    if (c == from)
      out += to;
    else
      out += c;
  }
  return out;
}

/// The events both readers decode from `text`, re-serialized.
std::string decoded_events(const std::string& text) {
  const std::string materialized =
      event_stream_to_string(event_stream_from_string(text));
  std::istringstream is(text);
  StreamTraceReader reader(is);
  std::vector<StreamEvent> batched;
  while (reader.next_batch(batched, 2) > 0) {
  }
  const EventStream rebuilt(reader.metric(), reader.cost(), batched,
                            reader.name());
  EXPECT_EQ(event_stream_to_string(rebuilt), materialized);
  return materialized.substr(events_section(materialized));
}

/// The message both readers reject `text` with (they must agree).
std::string decode_error(const std::string& text) {
  std::string materialized, batched;
  try {
    (void)event_stream_from_string(text);
  } catch (const std::invalid_argument& e) {
    materialized = e.what();
  }
  try {
    std::istringstream is(text);
    StreamTraceReader reader(is);
    std::vector<StreamEvent> out;
    while (reader.next_batch(out, 2) > 0) {
    }
  } catch (const std::invalid_argument& e) {
    batched = e.what();
  }
  EXPECT_EQ(materialized, batched);
  return materialized;
}

TEST(StreamIo, EventTokensSplitOnEveryCLocaleSpace) {
  // The in-place tokenizer must draw the same token boundaries as
  // `istream >> std::string`: any of space, \t, \n, \v, \f, \r separates,
  // and leading or trailing whitespace is ignored.
  SmallWorld w;
  const EventStream stream(
      w.metric, w.cost,
      {StreamEvent::arrival(make_request(2, 0, {0}), 4),
       StreamEvent::arrival(make_request(2, 1, {0, 1})),
       StreamEvent::departure(0)},
      "parity");
  const std::string text = event_stream_to_string(stream);
  const std::string expected = text.substr(events_section(text));
  ASSERT_EQ(decoded_events(text), expected);
  for (const std::string separator : {"\t", "\v", "\f", " \t ", "\t\r"}) {
    const std::string mutated = with_event_lines(
        text, [&](const std::string& line) {
          return replace_all(line, ' ', separator) + "\n";
        });
    ASSERT_NE(mutated, text);
    EXPECT_EQ(decoded_events(mutated), expected)
        << "separator " << static_cast<int>(separator[0]);
  }
  const std::string crlf = with_event_lines(
      text, [](const std::string& line) { return line + "\r\n"; });
  EXPECT_EQ(decoded_events(crlf), expected);
  const std::string padded = with_event_lines(
      text, [](const std::string& line) {
        return " \t\v\f" + line + " \f\v\t\r\n";
      });
  EXPECT_EQ(decoded_events(padded), expected);
  // A leading '+' is part of the number, as parse_u64_strict allows.
  std::string plus = text;
  plus.replace(plus.find("d 0"), 3, "d +0");
  EXPECT_EQ(decoded_events(plus), expected);
}

TEST(StreamIo, EventLineRejectionsKeepTheirMessages) {
  SmallWorld w;
  const EventStream stream(
      w.metric, w.cost,
      {StreamEvent::arrival(make_request(2, 0, {0}), 4),
       StreamEvent::arrival(make_request(2, 1, {0, 1})),
       StreamEvent::departure(0)},
      "messages");
  const std::string text = event_stream_to_string(stream);
  // Event lines are the last three lines of the file.
  const auto lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
  auto rejected = [&](const std::string& from, const std::string& to) {
    std::string mutated = text;
    const std::size_t at = mutated.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    mutated.replace(at, from.size(), to);
    return decode_error(mutated);
  };
  auto on_line = [&](const std::string& msg, std::size_t line) {
    return "read_event_stream: " + msg + " (line " + std::to_string(line) +
           ")";
  };
  EXPECT_EQ(rejected("d 0", "d 3.5"),
            on_line("bad departure target '3.5'", lines));
  EXPECT_EQ(rejected("a 1 2 0 1", "a 1 2 1 1"),
            on_line("duplicate commodity id in arrival", lines - 1));
  EXPECT_EQ(rejected("L 4", "L 0"),
            on_line("lease must be positive", lines - 2));
  EXPECT_EQ(rejected("d 0", "x 0"), on_line("unknown event tag 'x'", lines));
  EXPECT_EQ(rejected("d 0", "d 0 junk"),
            on_line("trailing garbage 'junk' on event line", lines));
  EXPECT_EQ(rejected("L 4", "L 4\tjunk"),
            on_line("trailing garbage 'junk' on event line", lines - 2));
  EXPECT_EQ(rejected("a 1 2 0 1", "a 1 2 0 1 Q"),
            on_line("trailing garbage 'Q' on event line", lines - 1));
  EXPECT_EQ(rejected("a 1 2 0 1", "a 1 2 0"),
            on_line("missing commodity id", lines - 1));
  EXPECT_EQ(rejected("d 0", "\v"), on_line("empty event line", lines));
}

TEST(StreamIo, ZeroDeclaredEventsStillRejectTheEventLines) {
  // Regression: the batched reader checked for trailing content only
  // after producing an event, so a header declaring zero events replayed
  // nothing and exited cleanly over a file full of events.
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/3, {{"events", 64}});
  std::string text = event_stream_to_string(stream);
  const std::string declared = "events 64 arrivals " +
                               std::to_string(stream.num_arrivals());
  const std::size_t at = text.find(declared);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, declared.size(), "events 0 arrivals 0");
  const auto header_line = static_cast<std::size_t>(
      std::count(text.begin(), text.begin() + static_cast<long>(at), '\n'));
  EXPECT_EQ(decode_error(text),
            "read_event_stream: trailing content after the declared events "
            "(line " + std::to_string(header_line + 2) + ")");
  std::istringstream is(text);
  StreamTraceReader reader(is);
  std::vector<StreamEvent> out;
  EXPECT_THROW(reader.next_batch(out, 1024), std::invalid_argument);
  EXPECT_TRUE(out.empty());
}

TEST(StreamRunner, RejectsMalformedArrivals) {
  // run_stream's contract: the same conditions validate() rejects throw
  // from the runner too (a programmatically-built source can skip
  // validate(), and nothing malformed may reach the kernels).
  SmallWorld w;
  AlwaysOpen algorithm;
  {
    const EventStream stream(
        w.metric, w.cost, {StreamEvent::arrival(make_request(2, 99, {0}))},
        "bad-location");
    EXPECT_THROW(run_stream(algorithm, stream, {}), std::invalid_argument);
  }
  {
    const EventStream stream(
        w.metric, w.cost, {StreamEvent::arrival(make_request(5, 0, {0}))},
        "bad-universe");
    EXPECT_THROW(run_stream(algorithm, stream, {}), std::invalid_argument);
  }
}

// -------------------------------------------------------------- compaction ---

TEST(StreamRunner, CompactionBoundsResidentRecordsWithoutChangingCosts) {
  const EventStream stream = default_stream_scenario_registry().make(
      "lease-poisson", /*seed=*/6, {{"events", 2048}, {"mean_lease", 24}});

  NearestOrOpen uncompacted_algorithm;
  StreamRunOptions uncompacted_options;
  uncompacted_options.compact = false;
  uncompacted_options.verify = true;
  const StreamRunResult uncompacted =
      run_stream(uncompacted_algorithm, stream, uncompacted_options);
  EXPECT_FALSE(uncompacted.violation.has_value());
  EXPECT_EQ(uncompacted.ledger.first_record_id(), 0u);
  EXPECT_FALSE(verify_stream(stream, uncompacted.ledger).has_value());

  NearestOrOpen compacted_algorithm;
  StreamRunOptions compacted_options;
  compacted_options.compact = true;
  compacted_options.batch_size = 128;
  compacted_options.verify = true;
  const StreamRunResult compacted =
      run_stream(compacted_algorithm, stream, compacted_options);
  EXPECT_FALSE(compacted.violation.has_value());
  // Compaction really released retired records...
  EXPECT_GT(compacted.ledger.first_record_id(), 0u);
  EXPECT_LT(compacted.peak_resident_records, stream.num_arrivals());
  // ...without touching any accounting (bitwise).
  EXPECT_EQ(compacted.ledger.total_cost(), uncompacted.ledger.total_cost());
  EXPECT_EQ(compacted.ledger.active_cost(),
            uncompacted.ledger.active_cost());
  EXPECT_EQ(compacted.ledger.num_requests(),
            uncompacted.ledger.num_requests());
  EXPECT_EQ(compacted.ledger.num_active_requests(),
            uncompacted.ledger.num_active_requests());
}

/// A churn-uniform stream behind one extra arrival, request 0, that never
/// departs: every later arrival shifts up by one id.
EventStream pinned_churn_stream(std::size_t events) {
  const EventStream churn = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/12,
      {{"events", static_cast<double>(events)},
       {"points", 32},
       {"commodities", 4}});
  std::vector<StreamEvent> shifted;
  shifted.reserve(churn.num_events() + 1);
  shifted.push_back(StreamEvent::arrival(churn.events().front().request));
  for (StreamEvent event : churn.events()) {
    if (event.kind == StreamEvent::Kind::kDeparture) ++event.target;
    shifted.push_back(std::move(event));
  }
  return EventStream(churn.metric_ptr(), churn.cost_ptr(), std::move(shifted),
                     "pinned-churn");
}

// Regression: compaction used to drop only the all-retired prefix of the
// records, so one long-lived request kept every later record resident.
// Retired records are now released wherever they sit: at most the
// requests active when a batch began plus the batch's arrivals stay.
TEST(StreamRunner, PinnedRequestDoesNotPinRetiredRecords) {
  const EventStream stream = pinned_churn_stream(4096);
  stream.validate();

  NearestOrOpen compacted_algorithm;
  StreamRunOptions options;
  options.batch_size = 64;
  options.verify = true;
  const StreamRunResult compacted =
      run_stream(compacted_algorithm, stream, options);
  EXPECT_FALSE(compacted.violation.has_value());
  EXPECT_TRUE(compacted.ledger.request_record(0).active());
  EXPECT_EQ(compacted.ledger.first_record_id(), 0u);
  EXPECT_LE(compacted.peak_resident_records,
            compacted.peak_active + options.batch_size);

  // Same decisions and costs as a run that keeps every record.
  NearestOrOpen kept_algorithm;
  options.compact = false;
  const StreamRunResult kept = run_stream(kept_algorithm, stream, options);
  EXPECT_EQ(kept.peak_resident_records, stream.num_arrivals());
  EXPECT_EQ(compacted.ledger.total_cost(), kept.ledger.total_cost());
  EXPECT_EQ(compacted.ledger.active_cost(), kept.ledger.active_cost());
  EXPECT_EQ(compacted.ledger.num_facilities(), kept.ledger.num_facilities());
  EXPECT_EQ(compacted.ledger.num_active_requests(),
            kept.ledger.num_active_requests());
}

// verify_stream needs every record; a ledger with holes behind a pinned
// request 0 (first_record_id() still 0) must be refused, not misread.
TEST(StreamRunner, OfflineVerifierRefusesLedgersWithReleasedRecords) {
  const EventStream stream = pinned_churn_stream(1024);
  NearestOrOpen compacted_algorithm;
  StreamRunOptions options;
  options.batch_size = 64;
  const StreamRunResult compacted =
      run_stream(compacted_algorithm, stream, options);
  ASSERT_EQ(compacted.ledger.first_record_id(), 0u);
  ASSERT_LT(compacted.ledger.num_resident_records(),
            compacted.ledger.num_requests());
  const auto refused = verify_stream(stream, compacted.ledger);
  ASSERT_TRUE(refused.has_value());
  EXPECT_NE(refused->what.find("released records"), std::string::npos)
      << refused->what;

  NearestOrOpen kept_algorithm;
  options.compact = false;
  const StreamRunResult kept = run_stream(kept_algorithm, stream, options);
  EXPECT_FALSE(verify_stream(stream, kept.ledger).has_value());
}

// ------------------------------------------------------------- determinism ---

TEST(StreamRunner, ChurnRunIsBitIdenticalAcrossThreadCounts) {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/8,
      {{"events", 512}, {"points", 32}, {"commodities", 6}});

  auto run = [&](const char* threads) {
    ::setenv("OMFLP_THREADS", threads, 1);
    PdOmflp pd;
    const StreamRunResult result = run_stream(pd, stream, {});
    ::unsetenv("OMFLP_THREADS");
    return std::pair<double, double>{result.ledger.total_cost(),
                                     result.ledger.active_cost()};
  };
  const auto serial = run("1");
  const auto parallel = run("4");
  EXPECT_EQ(serial.first, parallel.first);    // bitwise, not NEAR
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(StreamRunner, CapacitatedRunIsBitIdenticalAcrossThreadCounts) {
  const EventStream stream = default_stream_scenario_registry().make(
      "hotspot-grid-capped", /*seed=*/6,
      {{"events", 256}, {"capacity", 2}});
  ASSERT_NE(stream.capacities(), nullptr);

  auto run = [&](const char* threads) {
    ::setenv("OMFLP_THREADS", threads, 1);
    PdOmflp pd;
    StreamRunOptions options;
    options.verify = true;  // shadow StreamVerifier sees the same caps
    const StreamRunResult result = run_stream(pd, stream, options);
    EXPECT_FALSE(result.violation.has_value()) << result.violation->what;
    ::unsetenv("OMFLP_THREADS");
    return std::tuple<double, double, std::size_t, std::size_t>{
        result.ledger.total_cost(), result.ledger.active_cost(),
        result.ledger.num_shed_requests(),
        result.ledger.num_spilled_assignments()};
  };
  const auto serial = run("1");
  const auto parallel = run("4");
  EXPECT_EQ(serial, parallel);  // costs AND admission counters, bitwise
  // The cap must actually bind, or this run never exercises admission.
  EXPECT_GT(std::get<2>(serial) + std::get<3>(serial), 0u);
}

TEST(StreamScenarios, GenerationIsDeterministicInSeed) {
  for (const char* scenario :
       {"churn-uniform", "adversarial-churn", "lease-poisson"}) {
    const EventStream a =
        default_stream_scenario_registry().make(scenario, 42, {});
    const EventStream b =
        default_stream_scenario_registry().make(scenario, 42, {});
    EXPECT_EQ(event_stream_to_string(a), event_stream_to_string(b))
        << scenario;
    const EventStream c =
        default_stream_scenario_registry().make(scenario, 43, {});
    EXPECT_NE(event_stream_to_string(a), event_stream_to_string(c))
        << scenario;
  }
}

// -------------------------------------------------------------- edge cases ---

TEST(StreamRunner, RejectsInvalidDepartures) {
  SmallWorld w;
  const EventStream stream(w.metric, w.cost,
                           {StreamEvent::arrival(make_request(2, 0, {0})),
                            StreamEvent::departure(5)},
                           "bad");
  AlwaysOpen algorithm;
  EXPECT_THROW(run_stream(algorithm, stream, {}), std::invalid_argument);
}

TEST(StreamRunner, LedgerRefusesDoubleRetirement) {
  SmallWorld w;
  SolutionLedger ledger(w.metric, w.cost);
  AlwaysOpen algorithm;
  algorithm.reset(ProblemContext{w.metric, w.cost});
  const Request r = make_request(2, 0, {0});
  ledger.begin_request(r);
  algorithm.serve(r, ledger);
  ledger.finish_request();
  ledger.retire_request(0, 1);
  EXPECT_THROW(ledger.retire_request(0, 2), std::invalid_argument);
}

// ------------------------------------------------- timeline bitmap ---

/// The timeline's checkpoint lines, and the same lines spelled from a
/// plain per-arrival flag vector.
std::string timeline_bytes(const StreamTimeline& timeline) {
  std::ostringstream os;
  CkptWriter writer(os);
  timeline.serialize(writer);
  writer.finish();
  return os.str();
}
std::string naive_timeline_bytes(const std::vector<bool>& active) {
  std::vector<std::uint64_t> words((active.size() + 63) / 64, 0);
  std::size_t count = 0;
  for (std::size_t id = 0; id < active.size(); ++id) {
    if (!active[id]) continue;
    words[id >> 6] |= 1ULL << (id & 63);
    ++count;
  }
  std::ostringstream os;
  CkptWriter writer(os);
  writer.line("active").u(active.size()).u(count);
  for (const std::uint64_t w : words) writer.u(w);
  writer.line("expiries").u(0);
  writer.finish();
  return os.str();
}

// The timeline keeps its activity bitmap from the lowest active arrival on,
// yet its checkpoint line spells every word from id 0, and a restore drops
// the leading zero words again.
TEST(StreamTimeline, BitmapFromTheLowestActiveIdKeepsTheCheckpointBytes) {
  StreamTimeline timeline("test", 8, 2);
  std::vector<bool> model;
  const auto arrive = [&] {
    timeline.apply(StreamEvent::arrival(make_request(2, 1, {0})));
    model.push_back(true);
  };
  const auto depart = [&](RequestId id) {
    timeline.apply(StreamEvent::departure(id));
    model[id] = false;
  };
  const auto agrees = [&] {
    EXPECT_EQ(timeline.arrivals(), model.size());
    for (RequestId id = 0; id < model.size(); ++id)
      ASSERT_EQ(timeline.active(id), model[id]) << id;
    EXPECT_EQ(timeline_bytes(timeline), naive_timeline_bytes(model));
  };
  for (int i = 0; i < 300; ++i) arrive();
  for (RequestId id = 0; id < 200; ++id)
    if (id != 70) depart(id);
  agrees();
  depart(70);  // words 0-2 hold no active id now
  agrees();
  for (RequestId id = 200; id < 300; ++id) depart(id);
  agrees();  // nothing active: only the newest arrival's word remains
  arrive();
  arrive();
  agrees();

  std::istringstream is(timeline_bytes(timeline));
  CkptReader reader(is);
  StreamTimeline restored("test", 8, 2);
  restored.restore(reader, timeline.clock());
  reader.finish();
  EXPECT_EQ(timeline_bytes(restored), timeline_bytes(timeline));
  for (RequestId id = 0; id < model.size(); ++id)
    EXPECT_EQ(restored.active(id), model[id]) << id;
  restored.apply(StreamEvent::departure(300));
  EXPECT_FALSE(restored.active(300));
  EXPECT_TRUE(restored.active(301));
}

// ---------------------------------------------------- timeline agreement ---

/// A random stream over SmallWorld plus the index of its first malformed
/// event (npos when it has none), judged by a naive model: arrival a is
/// alive at event t unless it departed before t or carries a lease
/// L <= t - a. No heap and no a + L sum (which can wrap), so it shares
/// nothing with StreamTimeline. About half of the streams carry one fault: a departure
/// of an unknown or retired id, a departure at the very index its
/// target's lease expires, or a malformed arrival.
struct RandomTimeline {
  std::vector<StreamEvent> events;
  std::size_t first_bad = std::string::npos;
};

RandomTimeline random_timeline(Rng& rng) {
  const std::uint64_t max = ~std::uint64_t{0};
  RandomTimeline out;
  std::vector<std::uint64_t> arrived_at, lease;
  std::vector<bool> departed;
  const auto alive = [&](std::size_t a, std::uint64_t t) {
    return !departed[a] && !(lease[a] > 0 && lease[a] <= t - arrived_at[a]);
  };
  const std::size_t n = 8 + rng.uniform_index(40);
  const bool faulty = rng.bernoulli(0.5);
  const std::size_t fault_at = rng.uniform_index(n);
  for (std::uint64_t t = 0; t < n; ++t) {
    std::vector<std::size_t> live, retired, expiring_now;
    for (std::size_t a = 0; a < arrived_at.size(); ++a) {
      if (alive(a, t)) {
        live.push_back(a);
      } else {
        retired.push_back(a);
        if (!departed[a] && lease[a] == t - arrived_at[a])
          expiring_now.push_back(a);
      }
    }
    const auto pick = [&](const std::vector<std::size_t>& ids) {
      return ids[rng.uniform_index(ids.size())];
    };
    if (faulty && t == fault_at && out.first_bad == std::string::npos) {
      out.first_bad = t;
      switch (rng.uniform_index(4)) {
        case 0:
          out.events.push_back(StreamEvent::departure(
              arrived_at.size() + rng.uniform_index(3)));
          break;
        case 1:
          if (!expiring_now.empty()) {
            out.events.push_back(StreamEvent::departure(pick(expiring_now)));
            break;
          }
          [[fallthrough]];
        case 2:
          if (!retired.empty()) {
            out.events.push_back(StreamEvent::departure(pick(retired)));
            break;
          }
          [[fallthrough]];
        default: {
          Request bad = make_request(2, 1, {0});
          const std::uint64_t kind = rng.uniform_index(3);
          if (kind == 0) bad.location = 8 + rng.uniform_index(4);
          if (kind == 1) bad = make_request(3, 1, {2});
          if (kind == 2) bad.commodities = CommoditySet(2);
          out.events.push_back(StreamEvent::arrival(bad));
        }
      }
      continue;  // nothing after the fault is judged
    }
    if (!live.empty() && rng.bernoulli(0.35)) {
      const std::size_t target = pick(live);
      departed[target] = true;
      out.events.push_back(StreamEvent::departure(target));
      continue;
    }
    std::uint64_t l = 0;
    const double u = rng.uniform();
    if (u < 0.4) l = 1 + rng.uniform_index(6);
    else if (u < 0.55) l = max - rng.uniform_index(3 * n);
    arrived_at.push_back(t);
    lease.push_back(l);
    departed.push_back(false);
    out.events.push_back(StreamEvent::arrival(
        make_request(2, static_cast<PointId>(rng.uniform_index(8)),
                     {static_cast<CommodityId>(rng.uniform_index(2))}),
        l));
  }
  return out;
}

/// The event index and reason of a rejection: "<who>: event <t>: <what>"
/// with the "<who>: " prefix dropped; empty when `run` accepted.
std::string rejection(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const std::size_t at = what.find(": event ");
    return at == std::string::npos ? what : what.substr(at + 2);
  }
  return "";
}

// validate, run_stream and bound_stream_windows share one timeline; the
// naive model above and verify_stream derive it independently.
TEST(StreamTimeline, ValidatorRunnerAndBounderAgreeOnRandomStreams) {
  SmallWorld w;
  Rng rng(20261019);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const RandomTimeline random = random_timeline(rng);
    const EventStream stream(w.metric, w.cost, random.events, "random");
    StreamRunOptions options;
    options.batch_size = 1 + rng.uniform_index(8);
    options.compact = false;
    options.verify = true;
    NearestOrOpen algorithm;
    std::optional<StreamRunResult> run;

    const std::string validated = rejection([&] { stream.validate(); });
    const std::string ran = rejection(
        [&] { run.emplace(run_stream(algorithm, stream, options)); });
    const std::string bounded = rejection([&] {
      MaterializedEventSource source(stream);
      WindowBoundOptions windows;
      windows.max_window_arrivals = 1 + rng.uniform_index(16);
      (void)bound_stream_windows(source, windows);
    });
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(validated, ran);
    EXPECT_EQ(validated, bounded);
    if (random.first_bad != std::string::npos) {
      EXPECT_EQ(validated.rfind("event " + std::to_string(random.first_bad) +
                                    ": ",
                                0),
                0u)
          << validated;
      continue;
    }
    ASSERT_EQ(validated, "");
    ++accepted;
    ASSERT_TRUE(run.has_value());
    EXPECT_FALSE(run->violation.has_value()) << run->violation->what;
    EXPECT_FALSE(verify_stream(stream, run->ledger).has_value());
    std::vector<RequestId> active;
    for (RequestId id = 0; id < run->ledger.num_requests(); ++id)
      if (run->ledger.request_record(id).active()) active.push_back(id);
    EXPECT_EQ(stream.surviving_arrivals(), active);
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 200u);
}

}  // namespace
}  // namespace omflp
