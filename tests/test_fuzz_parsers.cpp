// Fuzz-ish parser robustness: a deterministic corpus of mutated
// OMFLP-STREAM, OMFLP-INSTANCE, OMFLP-CERT and OMFLP-TRACELOG bytes,
// BENCH_*.json reports and omflp-lint JSON reports — truncations,
// flipped signs, duplicated/deleted lines, absurd declared counts,
// random byte corruption — fed through every reader. The contract: a
// mutant either parses (some mutations are harmless) or is rejected with
// an ordinary exception (for the JSON readers: only the reader's
// documented exception type); nothing may crash, read out of bounds, or
// allocate proportionally to a *declared* (rather than actually present)
// count.
// CI runs this suite under ASan/UBSan (the sanitize job), which is where
// the "no crashes" half of the contract gets teeth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bound/certificate.hpp"
#include "bound/dual_ascent.hpp"
#include "core/pd_omflp.hpp"
#include "core/stream_runner.hpp"
#include "instance/checkpoint_io.hpp"
#include "instance/event_stream.hpp"
#include "instance/io.hpp"
#include "instance/stream_io.hpp"
#include "instance/tracelog_io.hpp"
#include "lint.hpp"
#include "obs/trace_sink.hpp"
#include "perf/bench_compare.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/stream_registry.hpp"
#include "support/rng.hpp"

namespace omflp {
namespace {

enum class ParseOutcome { kAccepted, kRejected };

/// Every stream reader over one input: the materializing parser (plus
/// semantic validation) and the bounded-memory batch reader, drained.
/// Returns whether the text was accepted; throws only on non-exception
/// failures (which the test harness / sanitizers turn into failures).
ParseOutcome feed_stream_readers(const std::string& text) {
  ParseOutcome outcome = ParseOutcome::kAccepted;
  try {
    const EventStream stream = event_stream_from_string(text);
    stream.validate();
  } catch (const std::exception&) {
    outcome = ParseOutcome::kRejected;
  }
  try {
    std::istringstream is(text);
    StreamTraceReader reader(is);
    std::vector<StreamEvent> batch;
    while (reader.next_batch(batch, 256) > 0) batch.clear();
  } catch (const std::exception&) {
    outcome = ParseOutcome::kRejected;
  }
  return outcome;
}

ParseOutcome feed_instance_reader(const std::string& text) {
  try {
    std::istringstream is(text);
    const Instance instance = read_instance(is);
    instance.validate();
    return ParseOutcome::kAccepted;
  } catch (const std::exception&) {
    return ParseOutcome::kRejected;
  }
}

std::string valid_stream_trace() {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/3,
      {{"events", 96}, {"points", 12}, {"commodities", 4}});
  return event_stream_to_string(stream);
}

std::string valid_instance_trace() {
  std::ostringstream os;
  write_instance(os, default_scenario_registry().make(
                         "uniform-line", /*seed=*/2, {{"requests", 48}}));
  return os.str();
}

ParseOutcome feed_certificate_reader(const std::string& text) {
  try {
    (void)certificate_from_string(text);
    return ParseOutcome::kAccepted;
  } catch (const std::exception&) {
    return ParseOutcome::kRejected;
  }
}

std::string valid_certificate() {
  const Instance instance = default_scenario_registry().make(
      "uniform-line", /*seed=*/4, {{"requests", 32}});
  return certificate_to_string(
      dual_ascent_lower_bound(instance).certificate);
}

ParseOutcome feed_tracelog_reader(const std::string& text) {
  try {
    (void)tracelog_from_string(text);
    return ParseOutcome::kAccepted;
  } catch (const std::exception&) {
    return ParseOutcome::kRejected;
  }
}

/// A real decision trace: PD over a small churn stream, so the corpus
/// covers every event kind (opens with contributor lists, assigns, dual
/// raises, departs, rollbacks).
std::string valid_tracelog() {
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/5, {{"events", 160}});
  PdOmflp pd;
  TraceBuffer buffer;
  {
    TraceScope scope(buffer);
    (void)run_stream(pd, stream, {});
  }
  return tracelog_to_string(buffer.events());
}

/// BENCH reader: only std::runtime_error counts as a rejection; any other
/// exception escapes and fails the test.
ParseOutcome feed_bench_reader(const std::string& text) {
  try {
    std::istringstream is(text);
    (void)read_bench_report(is);
    return ParseOutcome::kAccepted;
  } catch (const std::runtime_error&) {
    return ParseOutcome::kRejected;
  }
}

/// A fixed report covering both case shapes: with and without the
/// optional latency object.
std::string valid_bench_report() {
  BenchReport report;
  report.suite = "fuzz \"suite\"";
  report.git_sha = "0123456789ab";
  report.build_type = "Release";
  report.compiler = "gcc";
  report.build_flags = "-O3 -DNDEBUG";
  report.trials = 7;
  report.warmup = 2;
  BenchCaseResult one;
  one.name = "case/one";
  one.requests_per_op = 96;
  one.trials = 7;
  one.ns_per_op = 37713.5;
  one.ns_per_op_mean = 39036.857142857145;
  one.ns_per_op_min = 34973;
  one.ns_per_op_max = 4.25e7;
  one.requests_per_sec = 2545541.3252724526;
  one.counters.distance_lookups = 14704;
  one.counters.requests_served = 96;
  one.latency.count = 17;
  one.latency.total_ns = 6948291;
  one.latency.p50_ns = 155648;
  one.latency.max_ns = 1353001;
  BenchCaseResult two = one;
  two.name = "case/two";
  two.latency = {};
  report.cases = {one, two};
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

std::string committed_bench_baseline() {
  std::ifstream file(OMFLP_SOURCE_DIR "/benchmarks/BENCH_baseline.json");
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

/// omflp-lint reader: only std::invalid_argument counts as a rejection.
ParseOutcome feed_lint_reader(const std::string& text) {
  try {
    (void)lint::from_json(text);
    return ParseOutcome::kAccepted;
  } catch (const std::invalid_argument&) {
    return ParseOutcome::kRejected;
  }
}

std::string valid_lint_report() {
  return lint::to_json({
      {"raw-parse", "src/core/f.cpp", 3, "raw \"strtod\" call", false},
      {"raw-reserve", "src/instance/io.cpp", 41, "tab\there", true},
      {"rule-x", "tools/a\\b.cpp", 1234567, "line\nbreak \x01", false},
  });
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Replace the first numeric token on every line starting with `prefix`.
std::string with_count(const std::string& text, const std::string& prefix,
                       const std::string& replacement) {
  std::vector<std::string> lines = split_lines(text);
  for (std::string& line : lines) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t digit = line.find_first_of("0123456789", prefix.size());
    if (digit == std::string::npos) continue;
    std::size_t end = digit;
    while (end < line.size() && std::isdigit(static_cast<unsigned char>(
                                    line[end])))
      ++end;
    line = line.substr(0, digit) + replacement + line.substr(end);
    break;
  }
  return join_lines(lines);
}

template <typename Feed>
void run_corpus(const std::string& base, Feed feed) {
  ASSERT_EQ(feed(base), ParseOutcome::kAccepted)
      << "the unmutated trace must parse";

  std::size_t rejected = 0;
  std::size_t trials = 0;
  const auto check = [&](const std::string& mutant) {
    ++trials;
    if (feed(mutant) == ParseOutcome::kRejected) ++rejected;
  };

  // Truncations at ~64 byte positions, including mid-line cuts.
  for (std::size_t cut = 0; cut < base.size();
       cut += std::max<std::size_t>(1, base.size() / 64))
    check(base.substr(0, cut));

  // Duplicated and deleted lines (headers and early sections).
  const std::vector<std::string> lines = split_lines(base);
  for (std::size_t i = 0; i < std::min<std::size_t>(lines.size(), 24);
       ++i) {
    std::vector<std::string> duplicated = lines;
    duplicated.insert(duplicated.begin() + static_cast<long>(i), lines[i]);
    check(join_lines(duplicated));
    std::vector<std::string> deleted = lines;
    deleted.erase(deleted.begin() + static_cast<long>(i));
    check(join_lines(deleted));
  }

  // Random byte corruption: overwrite one byte with a hostile pick.
  Rng rng(0xf422ed);
  const std::string pool = "-+0123456789aLd. \t\n\"#";
  for (std::size_t trial = 0; trial < 256; ++trial) {
    std::string mutant = base;
    mutant[rng.uniform_index(mutant.size())] =
        pool[rng.uniform_index(pool.size())];
    check(mutant);
  }

  // Sign flips in front of random digits.
  for (std::size_t trial = 0; trial < 64; ++trial) {
    std::string mutant = base;
    const std::size_t pos = rng.uniform_index(mutant.size());
    if (std::isdigit(static_cast<unsigned char>(mutant[pos])))
      mutant.insert(pos, 1, '-');
    check(mutant);
  }

  // The corpus must actually exercise the error paths.
  EXPECT_GT(rejected, trials / 4) << "suspiciously tolerant parser";
}

TEST(FuzzParsers, StreamTraceMutationsNeverCrash) {
  run_corpus(valid_stream_trace(), feed_stream_readers);
}

TEST(FuzzParsers, InstanceTraceMutationsNeverCrash) {
  run_corpus(valid_instance_trace(), feed_instance_reader);
}

std::string valid_capacitated_instance() {
  Instance instance = default_scenario_registry().make(
      "uniform-line", /*seed=*/2, {{"requests", 16}});
  auto caps = std::make_shared<std::vector<std::uint64_t>>(
      instance.metric().num_points(), kUncapacitated);
  (*caps)[0] = 3;
  (*caps)[2] = 1;
  instance.set_capacities(std::move(caps));
  std::ostringstream os;
  write_instance(os, instance);
  return os.str();
}

TEST(FuzzParsers, CapacitatedInstanceMutationsNeverCrash) {
  run_corpus(valid_capacitated_instance(), feed_instance_reader);
}

// Targeted mutations of the capacities section itself: every malformed
// variant must be rejected with an ordinary exception, never accepted
// with a silently-wrong capacity map.
TEST(FuzzParsers, InstanceCapacityLineTamperingIsRejected) {
  const std::string base = valid_capacitated_instance();
  ASSERT_EQ(feed_instance_reader(base), ParseOutcome::kAccepted);
  const std::string section = "capacities 2\n0 3\n2 1\n";
  const std::size_t at = base.find(section);
  ASSERT_NE(at, std::string::npos) << base;
  const auto with_section = [&](const std::string& replacement) {
    return base.substr(0, at) + replacement +
           base.substr(at + section.size());
  };

  const char* const kBadSections[] = {
      "capacities 3\n0 3\n2 1\n",   // count overruns the rows present
      "capacities 99\n0 3\n2 1\n",  // count exceeds the point count
      "capacities 2\n2 1\n0 3\n",   // rows not strictly ascending
      "capacities 2\n0 3\n0 1\n",   // duplicate point
      // a stored cap equal to the in-memory infinity sentinel
      "capacities 2\n0 3\n2 18446744073709551615\n",
      "capacities 2\n0 3\n2 1 junk\n",  // trailing garbage on a row
      "capacities 2\n0 3\n999 1\n",     // point outside the metric
      "capacities 2\n0 3\n2 -1\n",      // negative capacity
      "capacities two\n0 3\n2 1\n",     // non-numeric count
      "capacities 2 extra\n0 3\n2 1\n",  // trailing garbage on header
  };
  for (const char* bad : kBadSections)
    EXPECT_EQ(feed_instance_reader(with_section(bad)),
              ParseOutcome::kRejected)
        << bad;

  // Truncation mid-section: header plus one of two declared rows.
  EXPECT_EQ(feed_instance_reader(base.substr(0, at + section.find("\n2"))),
            ParseOutcome::kRejected);
  // Dropping the whole section is fine — capacities are optional.
  EXPECT_EQ(feed_instance_reader(with_section("")),
            ParseOutcome::kAccepted);
}

TEST(FuzzParsers, CertificateMutationsNeverCrash) {
  run_corpus(valid_certificate(), feed_certificate_reader);
}

TEST(FuzzParsers, TracelogMutationsNeverCrash) {
  run_corpus(valid_tracelog(), feed_tracelog_reader);
}

TEST(FuzzParsers, BenchReportMutationsNeverCrash) {
  run_corpus(valid_bench_report(), feed_bench_reader);
  const std::string baseline = committed_bench_baseline();
  ASSERT_FALSE(baseline.empty());
  run_corpus(baseline, feed_bench_reader);
}

TEST(FuzzParsers, LintReportMutationsNeverCrash) {
  run_corpus(valid_lint_report(), feed_lint_reader);
}

TEST(FuzzParsers, TracelogCountTamperingIsRejected) {
  const std::string trace = valid_tracelog();

  // Overstated/absurd totals on the end line: the reader must fail on
  // the count mismatch, never trust it for allocation.
  for (const char* huge :
       {"18446744073709551615", "1099511627776",
        "99999999999999999999999", "0", "-5"}) {
    EXPECT_EQ(
        feed_tracelog_reader(with_count(trace, "{\"end\"", huge)),
        ParseOutcome::kRejected)
        << huge;
  }

  // Re-sequencing: bump the first event's seq so it no longer equals its
  // line index.
  {
    std::vector<std::string> lines = split_lines(trace);
    ASSERT_GE(lines.size(), 3u);
    ASSERT_EQ(lines[1].rfind("{\"seq\":0,", 0), 0u);
    std::string resequenced = lines[1];
    resequenced.replace(8, 1, "7");
    lines[1] = resequenced;
    EXPECT_EQ(feed_tracelog_reader(join_lines(lines)),
              ParseOutcome::kRejected);
  }
}

TEST(FuzzParsers, HugeDeclaredCountsAreRejectedNotAllocated) {
  const std::string stream = valid_stream_trace();
  const std::string instance = valid_instance_trace();
  const std::string certificate = valid_certificate();

  // Declared counts far beyond the bytes actually present must fail at
  // "unexpected end of input" (or a parse error), never by attempting
  // the corresponding allocation.
  for (const char* huge :
       {"18446744073709551615", "4294967295", "1099511627776",
        "99999999999999999999999"}) {
    EXPECT_EQ(feed_stream_readers(with_count(stream, "events", huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(feed_stream_readers(with_count(stream, "metric matrix",
                                             huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(feed_stream_readers(with_count(stream, "commodities", huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(feed_instance_reader(with_count(instance, "requests", huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(feed_instance_reader(with_count(instance, "metric matrix",
                                              huge)),
              ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(
        feed_certificate_reader(with_count(certificate, "requests", huge)),
        ParseOutcome::kRejected)
        << huge;
    EXPECT_EQ(
        feed_certificate_reader(with_count(certificate, "points", huge)),
        ParseOutcome::kRejected)
        << huge;
  }

  // Negative counts must be rejected, not wrapped.
  EXPECT_EQ(feed_stream_readers(with_count(stream, "events", "-5")),
            ParseOutcome::kRejected);
  EXPECT_EQ(feed_instance_reader(with_count(instance, "requests", "-5")),
            ParseOutcome::kRejected);

  // A dual row's k is bounded only by the declared |S|: with |S| near
  // 2^32 the row must fail at its missing values, not at a 32 GB
  // reservation (std::bad_alloc under a memory limit).
  std::vector<std::string> lines =
      split_lines(with_count(certificate, "commodities", "4000000000"));
  const auto dual = std::find_if(
      lines.begin(), lines.end(),
      [](const std::string& line) { return line.rfind("dual ", 0) == 0; });
  ASSERT_NE(dual, lines.end());
  *dual = "dual 3999999999 0.5";
  EXPECT_THROW((void)certificate_from_string(join_lines(lines)),
               std::invalid_argument);
}

void drain_stream_trace(const std::string& text) {
  std::istringstream is(text);
  StreamTraceReader reader(is);
  std::vector<StreamEvent> batch;
  while (reader.next_batch(batch, 64) > 0) batch.clear();
}

/// Every reader of the whitespace text format `text` declares in its
/// header must reject it with std::invalid_argument, the error type of
/// the strict record reader. `label` names the mutant in failures.
void expect_invalid(const std::string& text, const std::string& label) {
  if (text.starts_with("OMFLP-STREAM v1\n")) {
    EXPECT_THROW((void)event_stream_from_string(text), std::invalid_argument)
        << label;
    EXPECT_THROW(drain_stream_trace(text), std::invalid_argument) << label;
  } else if (text.starts_with("OMFLP-INSTANCE v1\n")) {
    EXPECT_THROW((void)instance_from_string(text), std::invalid_argument)
        << label;
  } else {
    EXPECT_THROW((void)certificate_from_string(text), std::invalid_argument)
        << label;
  }
}

// One strictness rule for INSTANCE, STREAM and CERT: a line's fields are
// read in full, so a value appended to any line is an error. Only the
// free-text name and opt-note lines take the rest of their line.
TEST(FuzzParsers, EveryRecordLineRejectsAnExtraToken) {
  const std::string leased = event_stream_to_string(
      default_stream_scenario_registry().make(
          "lease-poisson", /*seed=*/3, {{"events", 48}, {"points", 8}}));
  const std::string capped = event_stream_to_string(
      default_stream_scenario_registry().make(
          "hotspot-grid-capped", /*seed=*/3, {{"events", 48}, {"side", 3}}));
  ASSERT_NE(leased.find(" L "), std::string::npos);
  ASSERT_NE(capped.find("\ncapacities "), std::string::npos);
  const Instance with_opt =
      default_scenario_registry().make("theorem2", /*seed=*/2, {});
  ASSERT_TRUE(with_opt.opt_certificate().has_value());

  std::size_t lines_checked = 0;
  for (const std::string& base :
       {valid_stream_trace(), leased, capped, valid_capacitated_instance(),
        instance_to_string(with_opt), valid_certificate()}) {
    ASSERT_TRUE(feed_stream_readers(base) == ParseOutcome::kAccepted ||
                feed_instance_reader(base) == ParseOutcome::kAccepted ||
                feed_certificate_reader(base) == ParseOutcome::kAccepted);
    const std::vector<std::string> lines = split_lines(base);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].starts_with("name ") || lines[i].starts_with("opt "))
        continue;
      std::vector<std::string> mutant = lines;
      mutant[i] += " 0";
      expect_invalid(join_lines(mutant), mutant[i]);
      ++lines_checked;
    }
  }
  EXPECT_GT(lines_checked, 200u);
}

// Field-level mutants each reader used to misread instead of rejecting.
TEST(FuzzParsers, MisreadRecordFieldsAreRejected) {
  // A request line's ids are whole, distinct and alone on the line.
  std::string instance =
      "OMFLP-INSTANCE v1\nname fields\ncommodities 24\nmetric matrix 1\n"
      "0\ncost sizeonly 0";
  for (int k = 1; k <= 24; ++k) instance += " 1";
  instance += "\nrequests 1\n0 2 20 21\nopt 1 1 note\n";
  ASSERT_EQ(instance_from_string(instance).request(0).commodities.count(),
            2u);
  const auto replaced = [](std::string text, const std::string& from,
                           const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  expect_invalid(replaced(instance, "0 2 20 21", "0 2 20 20"), "dup id");
  expect_invalid(replaced(instance, "0 2 20 21", "0 1 3.5"), "id 3.5");
  expect_invalid(replaced(instance, "opt 1 1 note", "opt 1 7 note"),
                 "exact flag 7");
  expect_invalid(instance + "requests 1\n", "content after the opt line");

  const std::string cert = valid_certificate();
  const std::vector<std::string> lines = split_lines(cert);
  const auto line_starting = [&](const std::string& prefix) {
    for (const std::string& line : lines)
      if (line.rfind(prefix, 0) == 0) return line;
    ADD_FAILURE() << "no line starts with " << prefix;
    return std::string();
  };
  const std::string objective = line_starting("objective ");
  expect_invalid(replaced(cert, objective, objective + "x"), objective);
  // Read as k = 1 and the dual value .9 by a stream extractor.
  const std::string dual = line_starting("dual 1 ");
  expect_invalid(replaced(cert, dual, "dual 1.9"), dual);
  const std::string requests = line_starting("requests ");
  expect_invalid(replaced(cert, requests, requests + " junk"), requests);
}

// --------------------------------------------------------- OMFLP-CKPT ---

/// The stream behind the checkpoint corpus; the restore path needs a
/// fresh source of the same stream.
const EventStream& checkpoint_stream() {
  static const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/6,
      {{"events", 192}, {"points", 16}, {"commodities", 4}});
  return stream;
}

StreamRunOptions checkpoint_options() {
  StreamRunOptions options;
  options.batch_size = 64;
  return options;
}

/// A real OMFLP-CKPT payload: a PD session snapshotted mid-stream,
/// exactly as the serving engine checkpoints tenants.
std::string valid_checkpoint() {
  PdOmflp pd;
  MaterializedEventSource source(checkpoint_stream());
  StreamSession session(pd, source, checkpoint_options());
  (void)session.step_batch();
  (void)session.step_batch();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
  return os.str();
}

/// Both consumers of a checkpoint payload: the non-throwing structural
/// validator recovery trusts, and the full CkptReader restore path (a
/// fresh PD session rebuilt from the bytes). A mutant is accepted only
/// if both accept it; neither may crash or allocate from hostile counts
/// (the sanitizer job turns either into a failure).
ParseOutcome feed_checkpoint_readers(const std::string& text) {
  ParseOutcome outcome = ParseOutcome::kAccepted;
  {
    std::istringstream is(text);
    if (!checkpoint_payload_valid(is)) outcome = ParseOutcome::kRejected;
  }
  try {
    PdOmflp pd;
    MaterializedEventSource source(checkpoint_stream());
    std::istringstream is(text);
    CkptReader reader(is);
    StreamSession session(pd, source, checkpoint_options(), reader);
    reader.finish();
  } catch (const std::exception&) {
    outcome = ParseOutcome::kRejected;
  }
  return outcome;
}

/// FNV-1a 64, matching the writer's checksum; lets mutations re-seal a
/// tampered payload so they reach the parse paths *behind* the checksum.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Replace the trailing checksum line with a freshly computed one.
std::string resealed(const std::string& text) {
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) return text;
  lines.pop_back();  // the checksum line
  std::string body = join_lines(lines);
  std::ostringstream os;
  os << body << "checksum " << std::hex;
  os.fill('0');
  os.width(16);
  os << fnv1a64(body) << "\n";
  return os.str();
}

TEST(FuzzParsers, CheckpointMutationsNeverCrash) {
  run_corpus(valid_checkpoint(), feed_checkpoint_readers);
}

TEST(FuzzParsers, CheckpointChecksumAndVersionTamperingIsRejected) {
  const std::string base = valid_checkpoint();
  ASSERT_EQ(feed_checkpoint_readers(base), ParseOutcome::kAccepted);
  // Sanity for resealed(): recomputing the checksum of an untampered
  // body reproduces an accepted payload (pins the test's own FNV).
  ASSERT_EQ(resealed(base), base);

  std::vector<std::string> lines = split_lines(base);
  ASSERT_GE(lines.size(), 3u);

  // Version bump: an OMFLP-CKPT 4 file is from the future, not ours;
  // a v3 body under a v1 or v2 header has ids where they have none.
  for (const char* header : {"OMFLP-CKPT 4", "OMFLP-CKPT 2", "OMFLP-CKPT 1"}) {
    std::vector<std::string> t = lines;
    t[0] = header;
    EXPECT_EQ(feed_checkpoint_readers(resealed(join_lines(t))),
              ParseOutcome::kRejected)
        << header;
  }
  // Flipped checksum digit: the classic bit-rot signature.
  {
    std::vector<std::string> t = lines;
    std::string& check = t.back();
    check.back() = check.back() == '0' ? '1' : '0';
    EXPECT_EQ(feed_checkpoint_readers(join_lines(t)),
              ParseOutcome::kRejected);
  }
  // Missing checksum line entirely: a torn write.
  {
    std::vector<std::string> t(lines.begin(), lines.end() - 1);
    EXPECT_EQ(feed_checkpoint_readers(join_lines(t)),
              ParseOutcome::kRejected);
  }
  // Content tampering behind a *valid* checksum: swap two interior
  // lines and re-seal — structural validation passes, the typed reader
  // must still reject on the key sequence.
  {
    std::vector<std::string> t = lines;
    std::swap(t[1], t[2]);
    const std::string mutant = resealed(join_lines(t));
    std::istringstream is(mutant);
    EXPECT_TRUE(checkpoint_payload_valid(is));
    EXPECT_EQ(feed_checkpoint_readers(mutant), ParseOutcome::kRejected);
  }
}

TEST(FuzzParsers, CheckpointHugeCountsAreRejectedNotAllocated) {
  const std::string base = valid_checkpoint();
  const std::vector<std::string> lines = split_lines(base);

  // The count-bearing header lines of a PD session snapshot: each
  // declares how many record lines follow. (Per-record lines carry
  // unconstrained ids and values; a huge *id* is legal, a huge *count*
  // must fail against the lines actually present.)
  const std::set<std::string> count_keys = {
      "active", "larges",         "expiries", "past",           "bid-rows",
      "offering-index", "ledger", "seen",     "verifier-active"};

  // Re-seal each tampered payload so the hostile count is reached with
  // a passing checksum: the declared count must then fail at parse
  // ("unexpected end of input" / key mismatch), never be trusted for
  // allocation (capped_reserve bounds the first reservation; growth is
  // paid per input line).
  std::size_t tampered = 0;
  for (const char* huge :
       {"18446744073709551615", "1099511627776",
        "99999999999999999999999"}) {
    for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
      const std::size_t space = lines[i].find(' ');
      if (space == std::string::npos) continue;
      if (count_keys.count(lines[i].substr(0, space)) == 0) continue;
      const std::size_t digit =
          lines[i].find_first_of("0123456789", space);
      if (digit == std::string::npos) continue;
      std::size_t end = digit;
      while (end < lines[i].size() &&
             std::isdigit(static_cast<unsigned char>(lines[i][end])))
        ++end;
      std::vector<std::string> t = lines;
      t[i] = lines[i].substr(0, digit) + huge + lines[i].substr(end);
      EXPECT_EQ(feed_checkpoint_readers(resealed(join_lines(t))),
                ParseOutcome::kRejected)
          << "line " << i << " [" << lines[i] << "] count -> " << huge;
      ++tampered;
    }
  }
  EXPECT_GT(tampered, 10u) << "corpus barely exercised the count paths";
}

/// A session of `algorithm` on the checkpoint stream, snapshotted after
/// two batches.
std::string algorithm_checkpoint(const std::string& algorithm) {
  const auto alg = default_algorithm_registry().make(algorithm);
  MaterializedEventSource source(checkpoint_stream());
  StreamSession session(*alg, source, checkpoint_options());
  (void)session.step_batch();
  (void)session.step_batch();
  std::ostringstream os;
  CkptWriter writer(os);
  session.checkpoint(writer);
  writer.finish();
  return os.str();
}

void restore_algorithm_checkpoint(const std::string& algorithm,
                                  const std::string& text) {
  const auto alg = default_algorithm_registry().make(algorithm);
  MaterializedEventSource source(checkpoint_stream());
  std::istringstream is(text);
  CkptReader reader(is);
  StreamSession session(*alg, source, checkpoint_options(), reader);
  reader.finish();
}

// A facility point equal to |M| behind a valid checksum: every baseline's
// restore must refuse it rather than hand the next serve() a distance
// row index past the metric. Fotakis' past-request locations index the
// same rows.
TEST(FuzzParsers, CheckpointPointsBeyondTheMetricAreRejected) {
  const std::string outside = "16";  // checkpoint_stream() has 16 points
  struct Case {
    const char* algorithm;
    const char* key;
    std::size_t token;  // index of the point token on the line
  };
  for (const Case& c : {Case{"greedy", "offering", 2},
                        Case{"rentbuy", "offering", 2},
                        Case{"rand", "offering", 2},
                        Case{"fotakis", "facilities", 2},
                        Case{"fotakis", "past-request", 1},
                        Case{"meyerson", "facilities", 2}}) {
    const std::string base = algorithm_checkpoint(c.algorithm);
    ASSERT_NO_THROW(restore_algorithm_checkpoint(c.algorithm, base))
        << c.algorithm;
    std::vector<std::string> lines = split_lines(base);
    bool tampered = false;
    for (std::string& line : lines) {
      std::vector<std::string> tokens;
      std::istringstream words(line);
      for (std::string w; words >> w;) tokens.push_back(w);
      if (tokens.size() <= c.token || tokens[0] != c.key) continue;
      tokens[c.token] = outside;
      line = tokens[0];
      for (std::size_t i = 1; i < tokens.size(); ++i) line += " " + tokens[i];
      tampered = true;
      break;
    }
    ASSERT_TRUE(tampered) << c.algorithm << ": no non-empty " << c.key;
    EXPECT_THROW(restore_algorithm_checkpoint(
                     c.algorithm, resealed(join_lines(lines))),
                 std::invalid_argument)
        << c.algorithm << " " << c.key;
  }
}

}  // namespace
}  // namespace omflp
