// Fault-tolerance tests: the OMFLP-CKPT container (v3, and v1/v2 session
// snapshots: v1 with its ledger ids implied, both with PD's archive of
// every arrival), per-algorithm
// session checkpoint/restore (crash → restore → drain must be bitwise
// identical to an uninterrupted run, for every roster algorithm), the
// checkpoint store's generation fallback, deterministic fault injection,
// and engine-level crash recovery including tenant migration and the
// reuse of exhausted tenants' snapshot bytes across generations.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pd_omflp.hpp"
#include "core/stream_runner.hpp"
#include "engine/sharded_engine.hpp"
#include "instance/checkpoint_io.hpp"
#include "obs/trace_sink.hpp"
#include "recover/checkpoint_store.hpp"
#include "recover/fault_plan.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/stream_registry.hpp"
#include "support/atomic_file.hpp"

namespace omflp {
namespace {

// The full roster: every algorithm the registry serves, each of which
// must survive checkpoint/restore bitwise.
const char* const kRoster[] = {"pd",       "pd-nopred", "pd-seenunion",
                               "rand",     "fotakis",   "meyerson",
                               "greedy",   "rentbuy",   "alwaysopen"};

// A stream with churn, leases and enough events to cross several
// batches: the checkpoint lands mid-run with active requests, pending
// expiries and compacted prefixes all in play.
EventStream test_stream(std::uint64_t seed) {
  return default_stream_scenario_registry().make(
      "churn-uniform", seed,
      {{"events", 600}, {"points", 40}, {"commodities", 4}});
}

StreamRunOptions test_options() {
  StreamRunOptions options;
  options.batch_size = 64;
  options.compact = true;
  options.verify = true;
  return options;
}

/// The resident records of `ledger` in ascending id order.
std::vector<std::pair<RequestId, const RequestRecord*>> resident_records(
    const SolutionLedger& ledger) {
  std::vector<std::pair<RequestId, const RequestRecord*>> records;
  ledger.for_each_resident([&](RequestId id, const RequestRecord& record) {
    records.emplace_back(id, &record);
  });
  return records;
}

/// `same_peak_resident` = false skips peak_resident_records, the one
/// statistic a snapshot written by another ledger layout may carry over.
void expect_results_identical(const StreamRunResult& a,
                              const StreamRunResult& b,
                              const std::string& label,
                              bool same_peak_resident = true) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.lease_expiries, b.lease_expiries);
  EXPECT_EQ(a.peak_active, b.peak_active);
  if (same_peak_resident)
    EXPECT_EQ(a.peak_resident_records, b.peak_resident_records);
  EXPECT_FALSE(a.violation.has_value())
      << (a.violation ? a.violation->what : "");
  EXPECT_FALSE(b.violation.has_value());

  EXPECT_EQ(a.ledger.total_cost(), b.ledger.total_cost());
  EXPECT_EQ(a.ledger.opening_cost(), b.ledger.opening_cost());
  EXPECT_EQ(a.ledger.connection_cost(), b.ledger.connection_cost());
  EXPECT_EQ(a.ledger.active_cost(), b.ledger.active_cost());
  EXPECT_EQ(a.ledger.num_requests(), b.ledger.num_requests());
  EXPECT_EQ(a.ledger.num_active_requests(), b.ledger.num_active_requests());
  EXPECT_EQ(a.ledger.first_record_id(), b.ledger.first_record_id());
  ASSERT_EQ(a.ledger.num_facilities(), b.ledger.num_facilities());
  for (std::size_t f = 0; f < a.ledger.num_facilities(); ++f) {
    const OpenFacilityRecord& fa = a.ledger.facilities()[f];
    const OpenFacilityRecord& fb = b.ledger.facilities()[f];
    EXPECT_EQ(fa.location, fb.location);
    EXPECT_EQ(fa.open_cost, fb.open_cost);
    EXPECT_EQ(fa.opened_during, fb.opened_during);
    EXPECT_TRUE(fa.config == fb.config);
  }
  const auto records_a = resident_records(a.ledger);
  const auto records_b = resident_records(b.ledger);
  ASSERT_EQ(records_a.size(), records_b.size());
  for (std::size_t r = 0; r < records_a.size(); ++r) {
    const auto& [id_a, ra] = records_a[r];
    const auto& [id_b, rb] = records_b[r];
    EXPECT_EQ(id_a, id_b);
    EXPECT_EQ(ra->connection_cost, rb->connection_cost);
    EXPECT_EQ(ra->retired_at, rb->retired_at);
    EXPECT_EQ(ra->connected, rb->connected);
  }
}

// ------------------------------------------------------- format basics ---

TEST(CheckpointIo, RoundTripsEveryTokenType) {
  std::ostringstream os;
  {
    CkptWriter w(os);
    w.line("mix")
        .u(0)
        .u(~std::uint64_t{0})
        .d(0.0)
        .d(-0.0)
        .d(1.0 / 3.0)
        .d(std::numeric_limits<double>::infinity())
        .b(true)
        .tok("a-token");
    w.line("raw").bytes(std::string("\x00\xff hi\n", 6));
    CommoditySet s(70);
    s.add(0);
    s.add(69);
    w.line("set").set(s);
    w.finish();
  }
  std::istringstream is(os.str());
  CkptReader r(is);
  r.expect("mix");
  EXPECT_EQ(r.u(), 0u);
  EXPECT_EQ(r.u(), ~std::uint64_t{0});
  EXPECT_EQ(r.d(), 0.0);
  const double neg_zero = r.d();
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.d(), 1.0 / 3.0);
  EXPECT_EQ(r.d(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.tok(), "a-token");
  r.expect("raw");
  EXPECT_EQ(r.bytes(), std::string("\x00\xff hi\n", 6));
  r.expect("set");
  const CommoditySet back = r.set();
  EXPECT_EQ(back.universe_size(), 70u);
  EXPECT_TRUE(back.contains(0));
  EXPECT_TRUE(back.contains(69));
  EXPECT_EQ(back.count(), 2u);
  r.finish();
}

TEST(CheckpointIo, RejectsTamperingTruncationAndBadHeader) {
  std::ostringstream os;
  {
    CkptWriter w(os);
    w.line("payload").u(42).d(3.25);
    w.finish();
  }
  const std::string good = os.str();
  {  // pristine file validates
    std::istringstream is(good);
    EXPECT_TRUE(checkpoint_payload_valid(is));
  }
  {  // bit flip in the payload
    std::string bad = good;
    bad[bad.find("42")] = '9';
    std::istringstream is(bad);
    EXPECT_FALSE(checkpoint_payload_valid(is));
    std::istringstream is2(bad);
    CkptReader r(is2);
    r.expect("payload");
    (void)r.u();
    (void)r.d();
    EXPECT_THROW(r.finish(), std::invalid_argument);
  }
  {  // truncation: drop the checksum line (a torn write)
    const std::string torn = good.substr(0, good.find("checksum"));
    std::istringstream is(torn);
    EXPECT_FALSE(checkpoint_payload_valid(is));
  }
  {  // trailing content after the checksum
    std::istringstream is(good + "extra\n");
    EXPECT_FALSE(checkpoint_payload_valid(is));
  }
  {  // wrong version header
    std::string bad = good;
    bad.replace(0, 12, "OMFLP-CKPT 4");
    std::istringstream is(bad);
    EXPECT_FALSE(checkpoint_payload_valid(is));
    std::istringstream is2(bad);
    EXPECT_THROW(CkptReader r(is2), std::invalid_argument);
  }
}

TEST(CheckpointIo, StrictReaderErrors) {
  std::ostringstream os;
  {
    CkptWriter w(os);
    w.line("key").u(7);
    w.finish();
  }
  {  // wrong key
    std::istringstream is(os.str());
    CkptReader r(is);
    EXPECT_THROW(r.expect("other"), std::invalid_argument);
  }
  {  // trailing token on the line
    std::istringstream is(os.str());
    CkptReader r(is);
    r.expect("key");
    EXPECT_THROW(r.finish(), std::invalid_argument);
  }
  {  // token type mismatch
    std::istringstream is(os.str());
    CkptReader r(is);
    r.expect("key");
    EXPECT_THROW((void)r.d(), std::invalid_argument);
  }
}

// ------------------------------------------------- session round trips ---

// Crash → restore → drain equals an uninterrupted run, bitwise, for
// every roster algorithm. The "crash" is simulated by checkpointing
// mid-run, destroying the session, and restoring into fresh objects.
TEST(SessionRecovery, CrashRestoreDrainIsBitwiseIdenticalForRoster) {
  const AlgorithmRegistry& algorithms = default_algorithm_registry();
  const std::uint64_t seed = 20260808;
  for (const char* algo : kRoster) {
    SCOPED_TRACE(algo);
    const EventStream stream = test_stream(seed);
    const StreamRunOptions options = test_options();

    // Uninterrupted reference.
    auto ref_algorithm =
        algorithms.make(algo, derive_algorithm_seed(seed));
    MaterializedEventSource ref_source(stream);
    StreamSession ref_session(*ref_algorithm, ref_source, options);
    while (ref_session.step_batch() != 0) {
    }
    StreamRunResult reference = ref_session.finish();

    // Interrupted run: advance a few batches, snapshot, drop everything.
    std::string snapshot;
    {
      auto algorithm = algorithms.make(algo, derive_algorithm_seed(seed));
      MaterializedEventSource source(stream);
      StreamSession session(*algorithm, source, options);
      for (int i = 0; i < 3; ++i) (void)session.step_batch();
      std::ostringstream os;
      CkptWriter writer(os);
      session.checkpoint(writer);
      writer.finish();
      snapshot = os.str();
    }

    // Restore into fresh objects and drain.
    auto algorithm = algorithms.make(algo, derive_algorithm_seed(seed));
    MaterializedEventSource source(stream);
    std::istringstream is(snapshot);
    CkptReader reader(is);
    StreamSession session(*algorithm, source, options, reader);
    reader.finish();
    while (session.step_batch() != 0) {
    }
    StreamRunResult restored = session.finish();

    expect_results_identical(restored, reference, "restored vs reference");
  }
}

// serialize → restore → serialize is byte-identical (the canonical-form
// contract the checkpoint store's bitwise cross-checks build on). The
// snapshot follows departures, so PD's rebuilt nearest-facility tables
// and still-bidding lists are exercised after rollbacks.
TEST(SessionRecovery, CheckpointOfRestoredSessionIsByteIdentical) {
  const AlgorithmRegistry& algorithms = default_algorithm_registry();
  const std::uint64_t seed = 99;
  for (const char* algo : kRoster) {
    SCOPED_TRACE(algo);
    const EventStream stream = test_stream(seed);
    const StreamRunOptions options = test_options();

    auto algorithm = algorithms.make(algo, derive_algorithm_seed(seed));
    MaterializedEventSource source(stream);
    StreamSession session(*algorithm, source, options);
    for (int i = 0; i < 4; ++i) (void)session.step_batch();
    ASSERT_LT(session.ledger().num_active_requests(),
              session.ledger().num_requests());
    std::ostringstream os;
    CkptWriter writer(os);
    session.checkpoint(writer);
    writer.finish();
    const std::string first = os.str();

    auto algorithm2 = algorithms.make(algo, derive_algorithm_seed(seed));
    MaterializedEventSource source2(stream);
    std::istringstream is(first);
    CkptReader reader(is);
    StreamSession restored(*algorithm2, source2, options, reader);
    reader.finish();
    std::ostringstream os2;
    CkptWriter writer2(os2);
    restored.checkpoint(writer2);
    writer2.finish();
    // run_ns is wall time; it is serialized verbatim, so the bytes still
    // match — the restored session has not stepped since restore.
    EXPECT_EQ(os2.str(), first);
  }
}

// A snapshot taken at one clock restores correctly even under the
// non-default charge policy and with verification off.
TEST(SessionRecovery, PolicyAndVerifyGuardsAreEnforced) {
  const std::uint64_t seed = 3;
  const EventStream stream = test_stream(seed);
  StreamRunOptions options = test_options();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();

  auto algorithm = algorithms.make("greedy", derive_algorithm_seed(seed));
  MaterializedEventSource source(stream);
  StreamSession session(*algorithm, source, options);
  (void)session.step_batch();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();

  {  // verify flag mismatch
    StreamRunOptions other = options;
    other.verify = false;
    auto a = algorithms.make("greedy", derive_algorithm_seed(seed));
    MaterializedEventSource s(stream);
    std::istringstream is(os.str());
    CkptReader reader(is);
    EXPECT_THROW(StreamSession(*a, s, other, reader),
                 std::invalid_argument);
  }
  {  // different algorithm
    auto a = algorithms.make("rentbuy", derive_algorithm_seed(seed));
    MaterializedEventSource s(stream);
    std::istringstream is(os.str());
    CkptReader reader(is);
    EXPECT_THROW(StreamSession(*a, s, options, reader),
                 std::invalid_argument);
  }
}

// A capacitated session (facility occupancy, shed/spill counters,
// rejected lanes) restores bitwise: occupancy is derived state, rebuilt
// from the resident active records, so the drained run must match an
// uninterrupted one exactly — and the overflow policy is guarded like
// the charge policy and verify flag.
TEST(SessionRecovery, CapacitatedRestoreIsBitwiseAndOverflowIsGuarded) {
  const std::uint64_t seed = 12;
  const EventStream stream = default_stream_scenario_registry().make(
      "hotspot-grid-capped", seed, {{"events", 256}, {"capacity", 2}});
  ASSERT_NE(stream.capacities(), nullptr);
  const AlgorithmRegistry& algorithms = default_algorithm_registry();

  for (const OverflowPolicy overflow :
       {OverflowPolicy::kReassign, OverflowPolicy::kReject}) {
    SCOPED_TRACE(overflow_policy_tag(overflow));
    StreamRunOptions options = test_options();
    options.overflow = overflow;

    auto ref_algorithm = algorithms.make("pd", derive_algorithm_seed(seed));
    MaterializedEventSource ref_source(stream);
    StreamSession ref_session(*ref_algorithm, ref_source, options);
    while (ref_session.step_batch() != 0) {
    }
    StreamRunResult reference = ref_session.finish();

    std::string snapshot;
    {
      auto algorithm = algorithms.make("pd", derive_algorithm_seed(seed));
      MaterializedEventSource source(stream);
      StreamSession session(*algorithm, source, options);
      for (int i = 0; i < 2; ++i) (void)session.step_batch();
      std::ostringstream os;
      CkptWriter writer(os);
      session.checkpoint(writer);
      writer.finish();
      snapshot = os.str();
    }

    auto algorithm = algorithms.make("pd", derive_algorithm_seed(seed));
    MaterializedEventSource source(stream);
    std::istringstream is(snapshot);
    CkptReader reader(is);
    StreamSession session(*algorithm, source, options, reader);
    reader.finish();
    while (session.step_batch() != 0) {
    }
    StreamRunResult restored = session.finish();

    expect_results_identical(restored, reference, "capacitated restore");
    EXPECT_EQ(restored.ledger.num_shed_requests(),
              reference.ledger.num_shed_requests());
    EXPECT_EQ(restored.ledger.num_spilled_assignments(),
              reference.ledger.num_spilled_assignments());
    EXPECT_EQ(restored.ledger.num_rejected_commodities(),
              reference.ledger.num_rejected_commodities());

    {  // overflow policy mismatch is refused, like the other guards
      StreamRunOptions other = options;
      other.overflow = overflow == OverflowPolicy::kReassign
                           ? OverflowPolicy::kReject
                           : OverflowPolicy::kReassign;
      auto a = algorithms.make("pd", derive_algorithm_seed(seed));
      MaterializedEventSource s(stream);
      std::istringstream guard_is(snapshot);
      CkptReader guard_reader(guard_is);
      EXPECT_THROW(StreamSession(*a, s, other, guard_reader),
                   std::invalid_argument);
    }
  }
}

// ------------------------------------------- ledger section versions ---

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  for (std::string token; is >> token;) tokens.push_back(token);
  return tokens;
}

/// Re-emits the body of a checkpoint (header and checksum lines dropped)
/// through a CkptWriter, so a tampered payload carries a valid checksum
/// and reaches the typed reader.
std::string rewritten(const std::vector<std::string>& lines) {
  std::ostringstream os;
  CkptWriter writer(os);
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const std::vector<std::string> tokens = tokens_of(lines[i]);
    writer.line(tokens.front());
    for (std::size_t t = 1; t < tokens.size(); ++t) writer.tok(tokens[t]);
  }
  writer.finish();
  return os.str();
}

/// A checkpoint after `batches` batches of test_stream(seed).
std::string session_snapshot(const char* algo, std::uint64_t seed,
                             const StreamRunOptions& options, int batches) {
  auto algorithm =
      default_algorithm_registry().make(algo, derive_algorithm_seed(seed));
  const EventStream stream = test_stream(seed);
  MaterializedEventSource source(stream);
  StreamSession session(*algorithm, source, options);
  for (int i = 0; i < batches; ++i) (void)session.step_batch();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
  return os.str();
}

// Session checkpoints in the older containers, written after four
// 64-event batches of test_stream(20260808). The version-1 files come
// from the ledger before slot reuse (commit 34d5971, which compacted only
// the retired prefix): greedy with the verifier on, pd with it off;
// records retired behind the first active one are still in them. The
// version-2 file comes from the PD archive before it dropped departed
// requests (commit 50485a6), pd with the verifier off: every arrival is
// in its PD section, departed ones included, plus a second copy of the
// duals. Each must restore, release what a current session no longer
// holds, drain to the uninterrupted run's results and re-checkpoint as
// version 3 with the bytes a session that never stopped writes.
TEST(SessionRecovery, Version1And2SnapshotsRestoreDrainAndRecheckpointAsV3) {
  const std::uint64_t seed = 20260808;
  const struct {
    const char* file;
    unsigned version;
    const char* algo;
    bool verify;
  } cases[] = {{"session_v1_greedy_verify.ckpt", 1, "greedy", true},
               {"session_v1_pd.ckpt", 1, "pd", false},
               {"session_v2_pd.ckpt", 2, "pd", false}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.file);
    StreamRunOptions options = test_options();
    options.verify = c.verify;
    std::ifstream file(std::string(OMFLP_SOURCE_DIR "/tests/data/") +
                       c.file);
    ASSERT_TRUE(file.good());
    std::stringstream old;
    old << file.rdbuf();
    const std::vector<std::string> old_lines = lines_of(old.str());
    ASSERT_EQ(old_lines.front(), "OMFLP-CKPT " + std::to_string(c.version));
    const auto line_keyed = [&](const std::string& key) {
      const auto line = std::find_if(
          old_lines.begin(), old_lines.end(),
          [&](const std::string& l) { return l.rfind(key + " ", 0) == 0; });
      EXPECT_NE(line, old_lines.end()) << key;
      return line == old_lines.end() ? std::vector<std::string>{}
                                     : tokens_of(*line);
    };

    const EventStream stream = test_stream(seed);
    auto ref_algorithm = default_algorithm_registry().make(
        c.algo, derive_algorithm_seed(seed));
    MaterializedEventSource ref_source(stream);
    StreamSession ref_session(*ref_algorithm, ref_source, options);
    while (ref_session.step_batch() != 0) {
    }
    const StreamRunResult reference = ref_session.finish();

    auto algorithm = default_algorithm_registry().make(
        c.algo, derive_algorithm_seed(seed));
    MaterializedEventSource source(stream);
    CkptReader reader(old);
    StreamSession session(*algorithm, source, options, reader);
    reader.finish();
    EXPECT_EQ(session.events_processed(), 256u);
    // The v1 ledger line declares every record from the first active one
    // on; the restored ledger keeps only the active ones.
    if (c.version == 1)
      EXPECT_GT(std::stoull(line_keyed("ledger").at(2)),
                session.ledger().num_active_requests());
    EXPECT_EQ(session.ledger().num_resident_records(),
              session.ledger().num_active_requests());
    // The older PD section archives every arrival; the restored archive
    // keeps only the requests that have not departed.
    if (const auto* pd = dynamic_cast<const PdOmflp*>(algorithm.get())) {
      EXPECT_EQ(std::stoull(line_keyed("past").at(1)),
                session.ledger().num_requests());
      EXPECT_LT(pd->num_archived(), session.ledger().num_requests());
      EXPECT_EQ(pd->num_archived(), session.ledger().num_active_requests());
    }

    std::ostringstream again;
    CkptWriter writer(again);
    session.checkpoint(writer);
    writer.finish();
    std::vector<std::string> v3_lines = lines_of(again.str());
    std::vector<std::string> fresh_lines =
        lines_of(session_snapshot(c.algo, seed, options, 4));
    EXPECT_EQ(v3_lines.front(), "OMFLP-CKPT 3");
    // session-stats holds the wall clock and, from a v1 file, the old
    // layout's resident high-water mark; the checksum covers them.
    ASSERT_EQ(v3_lines.size(), fresh_lines.size());
    for (std::size_t i = 0; i + 1 < v3_lines.size(); ++i) {
      if (v3_lines[i].rfind("session-stats ", 0) == 0) continue;
      EXPECT_EQ(v3_lines[i], fresh_lines[i]) << "line " << i;
    }

    while (session.step_batch() != 0) {
    }
    const StreamRunResult restored = session.finish();
    expect_results_identical(restored, reference, "older restore",
                             /*same_peak_resident=*/c.version >= 2);
    EXPECT_GE(restored.peak_resident_records,
              reference.peak_resident_records);
  }
}

// A v2 ledger names each resident record's id; ids that break the id map
// (out of order, duplicated, past the request count, below the first
// record id) and a missing or renamed active record are refused.
TEST(SessionRecovery, TamperedV2LedgerIdsAreRejected) {
  const std::uint64_t seed = 99;
  const StreamRunOptions options = test_options();
  const std::string snapshot = session_snapshot("greedy", seed, options, 4);
  const std::vector<std::string> lines = lines_of(snapshot);
  ASSERT_EQ(rewritten(lines), snapshot);

  std::size_t ledger_at = 0;
  std::vector<std::size_t> requests;  // line index of each request line
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("ledger ", 0) == 0) ledger_at = i;
    if (lines[i].rfind("request ", 0) == 0) requests.push_back(i);
  }
  ASSERT_GT(ledger_at, 0u);
  ASSERT_GE(requests.size(), 3u);
  const auto id_of = [&](std::size_t r) {
    return std::stoull(tokens_of(lines[requests[r]])[1]);
  };
  const std::uint64_t first = std::stoull(tokens_of(lines[ledger_at])[1]);
  ASSERT_GT(first, 0u);
  ASSERT_EQ(id_of(0), first);
  const std::uint64_t num_arrived = [&]() -> std::uint64_t {
    for (const std::string& l : lines)
      if (l.rfind("active ", 0) == 0) return std::stoull(tokens_of(l)[1]);
    return 0;
  }();
  // Released records leave holes: the snapshot holds fewer records than
  // the id range it spans.
  ASSERT_LT(requests.size(), num_arrived - first);

  const auto with_id = [&](std::vector<std::string> t, std::size_t r,
                           std::uint64_t id) {
    std::vector<std::string> tokens = tokens_of(t[requests[r]]);
    tokens[1] = std::to_string(id);
    std::string line = tokens[0];
    for (std::size_t k = 1; k < tokens.size(); ++k) line += ' ' + tokens[k];
    t[requests[r]] = line;
    return t;
  };
  const auto refusal = [&](const std::vector<std::string>& t) {
    const std::string mutant = rewritten(t);
    auto algorithm =
        default_algorithm_registry().make("greedy", derive_algorithm_seed(seed));
    const EventStream stream = test_stream(seed);
    MaterializedEventSource source(stream);
    std::istringstream is(mutant);
    CkptReader reader(is);
    try {
      StreamSession session(*algorithm, source, options, reader);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };

  {
    const std::vector<std::string> swapped =
        with_id(with_id(lines, 1, id_of(2)), 2, id_of(1));
    EXPECT_NE(refusal(swapped).find("out of order or duplicated"),
              std::string::npos);
  }
  EXPECT_NE(refusal(with_id(lines, 2, id_of(1))).find(
                "out of order or duplicated"),
            std::string::npos);
  EXPECT_NE(refusal(with_id(lines, requests.size() - 1, num_arrived))
                .find("beyond the ledger's request count"),
            std::string::npos);
  EXPECT_NE(refusal(with_id(lines, 0, first - 1))
                .find("below the ledger's first record id"),
            std::string::npos);
  const auto active = [&](std::size_t r) {
    const std::vector<std::string> tokens = tokens_of(lines[requests[r]]);
    return tokens[tokens.size() - 2] == std::to_string(kNeverRetired);
  };
  {
    // Move an active record into the released id just below it: the
    // ledger is well formed, but the session's active request is gone.
    std::size_t moved = 0;
    for (std::size_t r = 1; r < requests.size() && moved == 0; ++r)
      if (active(r) && id_of(r) > id_of(r - 1) + 1) moved = r;
    ASSERT_GT(moved, 0u);
    EXPECT_NE(refusal(with_id(lines, moved, id_of(moved) - 1))
                  .find("an active request is missing from the ledger"),
              std::string::npos);
  }
  {
    // Drop one active record after the first (its four lines) and
    // declare one record fewer.
    std::size_t victim = 0;
    for (std::size_t r = 1; r < requests.size() && victim == 0; ++r)
      if (active(r)) victim = r;
    ASSERT_GT(victim, 0u);
    std::vector<std::string> t = lines;
    t.erase(t.begin() + static_cast<std::ptrdiff_t>(requests[victim]),
            t.begin() + static_cast<std::ptrdiff_t>(requests[victim] + 4));
    std::vector<std::string> ledger = tokens_of(t[ledger_at]);
    ledger[2] = std::to_string(std::stoull(ledger[2]) - 1);
    t[ledger_at] = ledger[0] + ' ' + ledger[1] + ' ' + ledger[2] + ' ' +
                   ledger[3];
    EXPECT_NE(refusal(t).find("active count disagrees with its active records"),
              std::string::npos)
        << refusal(t);
  }
}

// ------------------------------------- PD nearest tables on restore ---

/// Checkpoint of a PD session after `batches` batches of the churn test
/// stream, by which point requests have departed and rolled back.
std::string pd_snapshot(const char* algo, std::uint64_t seed, int batches) {
  const EventStream stream = test_stream(seed);
  auto algorithm =
      default_algorithm_registry().make(algo, derive_algorithm_seed(seed));
  MaterializedEventSource source(stream);
  StreamSession session(*algorithm, source, test_options());
  for (int i = 0; i < batches; ++i) (void)session.step_batch();
  EXPECT_LT(session.ledger().num_active_requests(),
            session.ledger().num_requests());
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
  return os.str();
}

/// Restores `snapshot` into a fresh session and checkpoints it again.
std::string restore_and_reserialize(const char* algo, std::uint64_t seed,
                                    const std::string& snapshot) {
  const EventStream stream = test_stream(seed);
  auto algorithm =
      default_algorithm_registry().make(algo, derive_algorithm_seed(seed));
  MaterializedEventSource source(stream);
  std::istringstream is(snapshot);
  CkptReader reader(is);
  StreamSession session(*algorithm, source, test_options(), reader);
  reader.finish();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
  return os.str();
}

/// `text` with token `index` (0 is the key) of the `nth` line keyed `key`
/// replaced by `value`; fails the test when there is no such line.
std::string with_token(const std::string& text, const std::string& key,
                       std::size_t nth, std::size_t index,
                       const std::string& value) {
  std::size_t start = 0;
  std::size_t seen = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start);
    if (line.rfind(key + " ", 0) == 0 && seen++ == nth) {
      std::vector<std::string> tokens;
      std::istringstream is(line);
      for (std::string t; is >> t;) tokens.push_back(t);
      if (index >= tokens.size()) break;
      tokens[index] = value;
      std::string joined = tokens[0];
      for (std::size_t i = 1; i < tokens.size(); ++i) joined += " " + tokens[i];
      return text.substr(0, start) + joined + text.substr(end);
    }
    start = end + 1;
  }
  ADD_FAILURE() << "no line " << nth << " keyed '" << key << "' with token "
                << index;
  return text;
}

std::size_t count_lines(const std::string& text, const std::string& key) {
  std::size_t n = 0;
  for (std::size_t pos = 0; (pos = text.find("\n" + key + " ", pos)) !=
                            std::string::npos;
       ++pos)
    ++n;
  return n;
}

/// Expects restoring `snapshot` to be refused with a message containing
/// `reason`.
void expect_restore_refused(const char* algo, std::uint64_t seed,
                            const std::string& snapshot,
                            const std::string& reason) {
  try {
    (void)restore_and_reserialize(algo, seed, snapshot);
    ADD_FAILURE() << "restore accepted a checkpoint that should fail with '"
                  << reason << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

// The archived distances in a checkpoint are derived state. A value that
// disagrees with the tables rebuilt from the facility records, archive ids
// out of order or past the arrival count, or a large-facility list whose
// configurations are not nested, is refused.
TEST(SessionRecovery, PdRestoreRejectsDistancesTheTablesContradict) {
  const std::uint64_t seed = 41;
  const std::string snapshot = pd_snapshot("pd", seed, 6);
  ASSERT_EQ(restore_and_reserialize("pd", seed, snapshot), snapshot);
  const auto other = [](const std::string& token) {
    return token == "3fe0000000000000" ? std::string("4000000000000000")
                                       : std::string("3fe0000000000000");
  };
  const auto token_of = [&](const std::string& key, std::size_t index) {
    const std::size_t at = snapshot.find("\n" + key + " ") + 1;
    std::istringstream is(snapshot.substr(at, snapshot.find('\n', at) - at));
    std::string t;
    for (std::size_t i = 0; i <= index; ++i) is >> t;
    return t;
  };

  // past-small-dist <d(F(e), j) per slot>
  expect_restore_refused(
      "pd", seed,
      with_token(snapshot, "past-small-dist", 0, 1,
                 other(token_of("past-small-dist", 1))),
      "past-small-dist disagrees with the nearest-facility tables");
  // past-request <id> <location> <slots> <dual sum> <d(F̂, j)>, one line
  // per request still in the archive.
  ASSERT_GE(count_lines(snapshot, "past-request"), 2u);
  expect_restore_refused(
      "pd", seed,
      with_token(snapshot, "past-request", 0, 5,
                 other(token_of("past-request", 5))),
      "past large distance disagrees with the nearest-facility tables");
  // The ids index the archive: they ascend, and none reaches the arrival
  // count the session's bitmap vouches for.
  expect_restore_refused(
      "pd", seed,
      with_token(snapshot, "past-request", 1, 1, token_of("past-request", 1)),
      "past request ids out of order or duplicated");
  const std::string arrivals = [&] {
    const std::size_t at = snapshot.find("\nactive ") + 1;
    std::istringstream is(snapshot.substr(at, snapshot.find('\n', at) - at));
    std::string key, count;
    is >> key >> count;
    return count;
  }();
  expect_restore_refused(
      "pd", seed, with_token(snapshot, "past-request", 1, 1, arrivals),
      "past request id beyond the request count");

  // large <point> <id> <config>: a later large facility whose config
  // does not contain the earlier one's breaks the chain.
  ASSERT_GE(count_lines(snapshot, "large"), 2u);
  std::ostringstream singleton;
  {
    CkptWriter writer(singleton);
    writer.line("set").set(CommoditySet::singleton(4, 0));
    writer.finish();
  }
  const std::string set_line = singleton.str().substr(
      singleton.str().find("\nset ") + 1);
  std::istringstream set_tokens(set_line.substr(0, set_line.find('\n')));
  std::vector<std::string> set;
  for (std::string t; set_tokens >> t;) set.push_back(t);
  ASSERT_EQ(set.size(), 4u);  // key, universe, word count, one word
  std::string non_nested = snapshot;
  for (std::size_t i = 1; i < set.size(); ++i)
    non_nested = with_token(non_nested, "large", 1, 2 + i, set[i]);
  expect_restore_refused("pd", seed, non_nested,
                         "large facility configurations are not nested");
}

// A version-2 PD section carries a second copy of the duals, which
// restore reads only to check: a location outside the metric or a
// commodity outside S is refused, as in the past-request lines.
TEST(SessionRecovery, Version2DualRecordsAreRangeChecked) {
  const std::uint64_t seed = 20260808;
  std::ifstream file(OMFLP_SOURCE_DIR "/tests/data/session_v2_pd.ckpt");
  ASSERT_TRUE(file.good());
  std::stringstream v2;
  v2 << file.rdbuf();
  StreamRunOptions options = test_options();
  options.verify = false;
  const auto refusal = [&](const std::string& text) {
    auto algorithm =
        default_algorithm_registry().make("pd", derive_algorithm_seed(seed));
    const EventStream stream = test_stream(seed);
    MaterializedEventSource source(stream);
    std::istringstream is(text);
    CkptReader reader(is);
    try {
      StreamSession session(*algorithm, source, options, reader);
      reader.finish();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  ASSERT_EQ(refusal(v2.str()), "accepted");
  // dual-record <location> <slots> <commodity> <dual> ...; the stream has
  // |M| = 40 and |S| = 4. (The checksum is checked only after restore.)
  EXPECT_NE(refusal(with_token(v2.str(), "dual-record", 0, 1, "40"))
                .find("dual record out of range"),
            std::string::npos);
  EXPECT_NE(refusal(with_token(v2.str(), "dual-record", 1, 3, "4"))
                .find("dual record commodity out of range"),
            std::string::npos);
}

// A PD session over pure lease traffic keeps its active set near the
// mean lease, so its snapshot must stay near that size however long the
// stream has run: the ledger holds the active records, and the PD section
// only the requests that have not departed.
TEST(SessionRecovery, PdSnapshotSizeFollowsTheActiveSet) {
  const std::uint64_t seed = 20;
  const EventStream stream = default_stream_scenario_registry().make(
      "lease-poisson", seed, {{"events", 8192}});
  const auto snapshot_size = [&](int batches) {
    auto algorithm =
        default_algorithm_registry().make("pd", derive_algorithm_seed(seed));
    MaterializedEventSource source(stream);
    StreamSession session(*algorithm, source, test_options());
    for (int i = 0; i < batches; ++i) EXPECT_GT(session.step_batch(), 0u);
    std::ostringstream os;
    CkptWriter writer(os);
    session.checkpoint(writer);
    writer.finish();
    return os.str().size();
  };
  const std::size_t early = snapshot_size(16);
  const std::size_t late = snapshot_size(64);
  EXPECT_LE(static_cast<double>(late), 1.25 * static_cast<double>(early))
      << "after 16 batches: " << early << " bytes, after 64: " << late;
}

// ------------------------------------------------- checkpoint store ---

/// Fresh scratch directory under the system temp dir, removed on
/// destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("omflp-recover-" + tag + "-" +
              std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::string tiny_payload(std::uint64_t value) {
  std::ostringstream os;
  CkptWriter writer(os);
  writer.line("value").u(value);
  writer.finish();
  return os.str();
}

/// publish() with ready-made payloads: tenant i's file gets payloads[i].
void publish_payloads(CheckpointStore& store,
                      const CheckpointManifest& manifest,
                      const std::vector<std::string>& payloads) {
  ASSERT_EQ(manifest.tenants.size(), payloads.size());
  store.publish(manifest, [&](std::size_t i, std::ostream& os) {
    os << payloads[i];
  });
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(CheckpointStore, FallsBackPastCorruptTornAndUncommittedGenerations) {
  ScratchDir dir("store");
  CheckpointStore store(dir.str());
  EXPECT_FALSE(store.latest_valid().has_value());

  CheckpointManifest g1;
  g1.generation = 1;
  g1.round = 1;
  g1.trace_seq = 10;
  g1.tenants = {"a", "b"};
  publish_payloads(store, g1, {tiny_payload(1), tiny_payload(2)});
  CheckpointManifest g2 = g1;
  g2.generation = 2;
  g2.round = 2;
  g2.trace_seq = 20;
  publish_payloads(store, g2, {tiny_payload(3), tiny_payload(4)});

  auto latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 2u);
  EXPECT_EQ(latest->round, 2u);
  EXPECT_EQ(latest->trace_seq, 20u);
  EXPECT_EQ(latest->tenants, (std::vector<std::string>{"a", "b"}));

  // Tenant files without a manifest are not a generation: the manifest
  // is the commit point.
  spill(store.tenant_path(0, 3), tiny_payload(5));
  spill(store.tenant_path(1, 3), tiny_payload(6));
  latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 2u);

  // A flipped byte in one tenant file invalidates the whole generation.
  std::string corrupt = slurp(store.tenant_path(1, 2));
  corrupt[corrupt.size() / 2] ^= 0x01;
  spill(store.tenant_path(1, 2), corrupt);
  latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 1u) << "must fall back past the corrupt set";

  // A torn (truncated) file in the older generation too: nothing valid.
  const std::string torn = slurp(store.tenant_path(0, 1));
  spill(store.tenant_path(0, 1), torn.substr(0, torn.size() / 2));
  EXPECT_FALSE(store.latest_valid().has_value());
}

TEST(CheckpointStore, PrunesToTwoGenerations) {
  ScratchDir dir("prune");
  CheckpointStore store(dir.str());
  for (std::uint64_t g = 1; g <= 5; ++g) {
    CheckpointManifest manifest;
    manifest.generation = g;
    manifest.round = g;
    manifest.tenants = {"only"};
    publish_payloads(store, manifest, {tiny_payload(g)});
  }
  EXPECT_EQ(store.list_generations(),
            (std::vector<std::uint64_t>{4, 5}));
  EXPECT_FALSE(std::filesystem::exists(store.tenant_path(0, 3)));
  auto latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 5u);
}

// A tenant writer that throws mid-generation leaves no manifest and no
// staging file behind: the previous generation stays the newest valid.
TEST(CheckpointStore, FailedPublishLeavesPreviousGenerationAuthoritative) {
  ScratchDir dir("failed-publish");
  CheckpointStore store(dir.str());
  CheckpointManifest g1;
  g1.generation = 1;
  g1.round = 1;
  g1.tenants = {"a", "b"};
  publish_payloads(store, g1, {tiny_payload(1), tiny_payload(2)});

  CheckpointManifest g2 = g1;
  g2.generation = 2;
  g2.round = 2;
  EXPECT_THROW(store.publish(g2,
                             [](std::size_t i, std::ostream& os) {
                               os << tiny_payload(i);
                               if (i == 1) throw std::runtime_error("disk");
                             }),
               std::runtime_error);
  EXPECT_EQ(store.list_generations(), (std::vector<std::uint64_t>{1}));
  EXPECT_FALSE(std::filesystem::exists(store.manifest_path(2)));
  EXPECT_FALSE(
      std::filesystem::exists(atomic_temp_path(store.tenant_path(1, 2))));
  const auto latest = store.latest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 1u);
}

// ----------------------------------------------------- fault plan ---

TEST(FaultPlanTest, ScheduleIsDeterministicAndSpecIsValidated) {
  const FaultPlan a = FaultPlan::parse("crashes=3,seed=9,gap=8,torn=1");
  const FaultPlan b = FaultPlan::parse("crashes=3,seed=9,gap=8,torn=1");
  EXPECT_EQ(a.crash_rounds(), b.crash_rounds());
  EXPECT_EQ(a.crash_rounds().size(), 3u);
  EXPECT_TRUE(a.torn());
  EXPECT_FALSE(a.bitflip());
  // Gaps are draws from [1, gap]: strictly increasing rounds.
  for (std::size_t i = 1; i < a.crash_rounds().size(); ++i) {
    EXPECT_GT(a.crash_rounds()[i], a.crash_rounds()[i - 1]);
    EXPECT_LE(a.crash_rounds()[i] - a.crash_rounds()[i - 1], 8u);
  }
  const FaultPlan other = FaultPlan::parse("crashes=3,seed=10,gap=8");
  EXPECT_NE(a.crash_rounds(), other.crash_rounds());

  FaultPlan consume = FaultPlan::parse("crashes=1,seed=2,gap=4");
  const std::uint64_t when = consume.crash_rounds()[0];
  EXPECT_FALSE(consume.should_crash(when - 1));
  EXPECT_TRUE(consume.should_crash(when));
  EXPECT_FALSE(consume.should_crash(when)) << "each crash fires once";
  EXPECT_EQ(consume.crashes_remaining(), 0u);

  EXPECT_THROW(FaultPlan::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crashes"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("gap=0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crashes=x"), std::invalid_argument);
}

// ------------------------------------------------- engine recovery ---

std::vector<TenantSpec> engine_tenants(const std::string& algorithm) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "mixed", 4, 7, 0.25);
  for (TenantSpec& spec : specs) spec.algorithm = algorithm;
  return specs;
}

void expect_engine_results_identical(const EngineResult& a,
                                     const EngineResult& b,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].name, b.tenants[i].name);
    expect_results_identical(a.tenants[i].run, b.tenants[i].run,
                             label + "/" + a.tenants[i].name);
  }
  EXPECT_EQ(a.aggregate_gross_cost, b.aggregate_gross_cost);
  EXPECT_EQ(a.aggregate_active_cost, b.aggregate_active_cost);
  EXPECT_EQ(a.total_events, b.total_events);
}

/// Drive an engine through every injected crash to completion, exactly
/// like the CLI restart loop: tear down, rebuild, restore.
EngineResult run_with_restarts(const std::vector<TenantSpec>& specs,
                               const EngineOptions& options,
                               std::uint64_t* restarts_out = nullptr) {
  std::uint64_t restarts = 0;
  for (;;) {
    try {
      const ShardedEngine engine(specs, options);
      EngineResult result = engine.run();
      if (restarts_out != nullptr) *restarts_out = restarts;
      return result;
    } catch (const EngineCrash&) {
      ++restarts;
    }
  }
}

TEST(EngineRecovery, CrashCorruptRestoreIsBitwiseIdenticalAcrossShards) {
  const std::vector<TenantSpec> specs = engine_tenants("pd");

  EngineOptions plain;
  plain.batch_size = 256;
  plain.shards = 1;
  plain.threads = 1;
  const EngineResult reference = ShardedEngine(specs, plain).run();

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ScratchDir dir("engine-s" + std::to_string(shards));
    EngineOptions faulty = plain;
    faulty.shards = shards;
    faulty.threads = shards;
    faulty.checkpoint_dir = dir.str();
    faulty.checkpoint_every = 2;
    // Torn + bit-flip corruption on every crash: recovery must reject
    // the newest generation and replay from the previous one.
    FaultPlan plan = FaultPlan::parse("crashes=2,seed=5,gap=4,torn=1,bitflip=1");
    faulty.fault_plan = &plan;

    std::uint64_t restarts = 0;
    const EngineResult recovered =
        run_with_restarts(specs, faulty, &restarts);
    EXPECT_EQ(restarts, 2u);
    EXPECT_EQ(recovered.shards, shards);
    expect_engine_results_identical(
        recovered, reference, "shards=" + std::to_string(shards));
    EXPECT_FALSE(recovered.first_violation() != nullptr);
  }
}

// Four tenants of different lengths (90, 300, 520 and 700 events) and
// algorithms: with batch 64 they run out of events in rounds 2, 5, 9 and
// 11 and observe exhaustion one round later, so every later generation
// holds a growing set of finished tenants.
constexpr std::size_t kReuseBatch = 64;

std::vector<TenantSpec> staggered_tenants() {
  const std::pair<double, const char*> shapes[] = {
      {90, "greedy"}, {300, "pd"}, {520, "rand"}, {700, "rentbuy"}};
  std::vector<TenantSpec> specs;
  for (const auto& [events, algorithm] : shapes) {
    TenantSpec spec;
    spec.name = "t" + std::to_string(specs.size());
    spec.scenario = "churn-uniform";
    spec.overrides = {
        {"events", events}, {"points", 40}, {"commodities", 4}};
    spec.seed = 11 + specs.size();
    spec.algorithm = algorithm;
    specs.push_back(spec);
  }
  return specs;
}

std::uint64_t tenant_events(const TenantSpec& spec) {
  return default_stream_scenario_registry()
      .make(spec.scenario, spec.seed, spec.overrides)
      .num_events();
}

/// The round in which an engine with batch kReuseBatch finds `spec`'s
/// session exhausted: one past the round of its last events.
std::uint64_t exhaustion_round(const TenantSpec& spec) {
  return (tenant_events(spec) + kReuseBatch - 1) / kReuseBatch + 1;
}

/// Copies every generation that appears in `store` while an engine
/// runs. The engine drains trace events after stepping a round and
/// publishes after that, so generation G is on disk, and not yet
/// pruned, while rounds G+1 and G+2 drain: one event in either captures
/// it. Call capture() once more after run() for the last two.
struct GenerationCapture final : TraceSink {
  GenerationCapture(const CheckpointStore& s, std::size_t tenants)
      : store(s), num_tenants(tenants) {}

  void on_event(const TraceEvent&) override { capture(); }

  void capture() {
    for (const std::uint64_t g : store.list_generations()) {
      if (files.count(g) != 0) continue;
      std::vector<std::string>& generation = files[g];
      for (std::size_t i = 0; i < num_tenants; ++i)
        generation.push_back(slurp(store.tenant_path(i, g)));
    }
  }

  const CheckpointStore& store;
  std::size_t num_tenants;
  std::map<std::uint64_t, std::vector<std::string>> files;
};

struct Reloaded {
  std::uint64_t events = 0;
  bool exhausted = false;
  std::string reserialized;
};

/// Restores a tenant snapshot the way the engine does and serializes the
/// restored session again.
Reloaded reload(const TenantSpec& spec, const std::string& snapshot) {
  const EventStream stream = default_stream_scenario_registry().make(
      spec.scenario, spec.seed, spec.overrides);
  auto algorithm = default_algorithm_registry().make(
      spec.algorithm, derive_algorithm_seed(spec.seed));
  StreamRunOptions options;  // as EngineOptions' defaults set them
  options.batch_size = kReuseBatch;
  options.verify = true;
  options.compact = true;
  MaterializedEventSource source(stream);
  std::istringstream is(snapshot);
  CkptReader reader(is);
  StreamSession session(*algorithm, source, options, reader);
  reader.finish();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
  return {session.events_processed(), session.exhausted(), os.str()};
}

// Reuse exactness: a generation's file for an exhausted tenant is its
// previous file, byte for byte, and every file — reused or freshly
// serialized — restores to the tenant's state at that round: a stale
// snapshot would restore to fewer events than the round implies.
TEST(EngineRecovery, ExhaustedTenantSnapshotsAreReusedExactly) {
  const std::vector<TenantSpec> specs = staggered_tenants();
  ScratchDir dir("reuse");
  CheckpointStore store(dir.str());
  GenerationCapture capture(store, specs.size());

  EngineOptions options;
  options.batch_size = kReuseBatch;
  options.shards = 2;
  options.threads = 2;
  options.checkpoint_dir = dir.str();
  options.checkpoint_every = 1;
  options.trace_sink = &capture;
  const EngineResult result = ShardedEngine(specs, options).run();
  capture.capture();

  std::uint64_t last_exhaustion = 0;
  for (const TenantSpec& spec : specs)
    last_exhaustion = std::max(last_exhaustion, exhaustion_round(spec));
  ASSERT_EQ(result.rounds, last_exhaustion);
  EXPECT_EQ(result.checkpoints_published, result.rounds);
  ASSERT_EQ(capture.files.size(), result.rounds)
      << "a generation was pruned before it was captured";

  std::uint64_t reused = 0;
  for (const auto& [generation, files] : capture.files) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("generation " + std::to_string(generation) +
                   ", tenant " + specs[i].name);
      const Reloaded restored = reload(specs[i], files[i]);
      EXPECT_EQ(restored.events,
                std::min<std::uint64_t>(tenant_events(specs[i]),
                                        generation * kReuseBatch));
      EXPECT_EQ(restored.exhausted,
                generation >= exhaustion_round(specs[i]));
      EXPECT_EQ(restored.reserialized, files[i]);
      if (generation > exhaustion_round(specs[i])) {
        EXPECT_EQ(files[i], capture.files.at(generation - 1)[i]);
        ++reused;
      }
    }
  }
  EXPECT_GT(reused, 0u);
  EXPECT_EQ(result.checkpoint_snapshots_reused, reused);

  EngineOptions plain;
  plain.batch_size = kReuseBatch;
  expect_engine_results_identical(result, ShardedEngine(specs, plain).run(),
                                  "checkpointed vs plain");
}

// Crash after some tenants are exhausted, with both crashes corrupting
// the generation they follow: recovery restores exhausted sessions from
// their (once reused) snapshots and must still drain bitwise identically.
// The restarted run() retains nothing, so it re-serializes each
// exhausted tenant once before reusing it again.
TEST(EngineRecovery, CrashAfterExhaustionRestoresBitwise) {
  const std::vector<TenantSpec> specs = staggered_tenants();
  EngineOptions plain;
  plain.batch_size = kReuseBatch;
  plain.capacity = 3;
  const EngineResult reference = ShardedEngine(specs, plain).run();

  ScratchDir dir("reuse-crash");
  EngineOptions faulty = plain;
  faulty.shards = 2;
  faulty.threads = 2;
  faulty.checkpoint_dir = dir.str();
  faulty.checkpoint_every = 1;
  FaultPlan plan =
      FaultPlan::parse("crashes=2,seed=2,gap=6,torn=1,bitflip=1");
  faulty.fault_plan = &plan;
  // The first crash lands after tenant t0 is exhausted, the second
  // after t2 is; each corrupts its own generation, so recovery falls
  // back one round.
  ASSERT_EQ(plan.crash_rounds(), (std::vector<std::uint64_t>{6, 11}));
  ASSERT_LT(exhaustion_round(specs[0]), 5u);

  std::uint64_t restarts = 0;
  const EngineResult recovered = run_with_restarts(specs, faulty, &restarts);
  EXPECT_EQ(restarts, 2u);
  EXPECT_EQ(recovered.restored_from_round, 10u);
  expect_engine_results_identical(recovered, reference, "crash after exhaustion");
  EXPECT_EQ(recovered.aggregate_spilled_assignments,
            reference.aggregate_spilled_assignments);

  // Generations 11 and 12 in the last run(): a tenant exhausted by round
  // 10 is serialized in 11 and reused in 12, one exhausted in round 12
  // is only serialized.
  std::uint64_t expected_reused = 0;
  for (const TenantSpec& spec : specs)
    if (exhaustion_round(spec) <= recovered.restored_from_round)
      ++expected_reused;
  EXPECT_EQ(recovered.rounds, 12u);
  EXPECT_EQ(recovered.checkpoints_published, 2u);
  EXPECT_EQ(recovered.checkpoint_snapshots_reused, expected_reused);
}

TEST(EngineRecovery, MigrationRestoreUnderNewPlacementIsBitwiseIdentical) {
  const std::vector<TenantSpec> specs = engine_tenants("rand");

  EngineOptions plain;
  plain.batch_size = 256;
  plain.shards = 2;
  plain.threads = 2;
  const EngineResult reference = ShardedEngine(specs, plain).run();

  // Phase 1: serve on 2 shards with periodic checkpoints, crash mid-run.
  ScratchDir dir("migrate");
  EngineOptions before = plain;
  before.checkpoint_dir = dir.str();
  before.checkpoint_every = 2;
  FaultPlan plan = FaultPlan::parse("crashes=1,seed=3,gap=3");
  before.fault_plan = &plan;
  EXPECT_THROW(ShardedEngine(specs, before).run(), EngineCrash);

  // Phase 2: "migrate" every tenant — restore the same checkpoint set on
  // 4 shards under a reversed placement and drain. Per-tenant results
  // must be bitwise identical to the never-crashed, never-migrated run.
  EngineOptions after = plain;
  after.checkpoint_dir = dir.str();
  after.checkpoint_every = 2;
  after.shards = 4;
  after.threads = 4;
  after.placement = {3, 2, 1, 0};
  const EngineResult migrated = ShardedEngine(specs, after).run();
  EXPECT_GT(migrated.restored_from_round, 0u);
  ASSERT_EQ(migrated.tenants.size(), 4u);
  EXPECT_EQ(migrated.tenants[0].shard, 3u);
  EXPECT_EQ(migrated.tenants[3].shard, 0u);
  expect_engine_results_identical(migrated, reference, "migrated");
}

TEST(EngineRecovery, RestoreGuardsRosterAndPlacement) {
  const std::vector<TenantSpec> specs = engine_tenants("greedy");
  ScratchDir dir("guards");

  EngineOptions options;
  options.batch_size = 256;
  options.shards = 1;
  options.threads = 1;
  options.checkpoint_dir = dir.str();
  options.checkpoint_every = 2;
  FaultPlan plan = FaultPlan::parse("crashes=1,seed=4,gap=3");
  options.fault_plan = &plan;
  EXPECT_THROW(ShardedEngine(specs, options).run(), EngineCrash);

  // A different tenant roster must not restore from this checkpoint set.
  std::vector<TenantSpec> renamed = specs;
  renamed[1].name = "impostor";
  EngineOptions restore = options;
  restore.fault_plan = nullptr;
  EXPECT_THROW(ShardedEngine(renamed, restore).run(),
               std::invalid_argument);

  // Placement validation is independent of recovery.
  EngineOptions bad_placement = restore;
  bad_placement.placement = {0, 0, 0};  // wrong size
  EXPECT_THROW(ShardedEngine(specs, bad_placement).run(),
               std::invalid_argument);
  bad_placement.placement = {0, 0, 0, 9};  // shard out of range
  EXPECT_THROW(ShardedEngine(specs, bad_placement).run(),
               std::invalid_argument);
}

}  // namespace
}  // namespace omflp
