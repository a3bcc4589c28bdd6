// omflp-lint fixture tests: per rule, a violating snippet is flagged, a
// suppressed one is reported-but-suppressed, and a clean/conforming one
// passes. Plus the machinery itself: comment/string stripping, the
// next-line suppression form, path scoping, and the JSON round trip.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace omflp::lint {
namespace {

std::vector<Diagnostic> lint(const std::string& path,
                             const std::string& content) {
  static const Linter linter;
  return linter.lint_source(path, content);
}

std::size_t count_rule(const std::vector<Diagnostic>& diags,
                       const std::string& rule, bool suppressed = false) {
  return static_cast<std::size_t>(std::count_if(
      diags.begin(), diags.end(), [&](const Diagnostic& d) {
        return d.rule == rule && d.suppressed == suppressed;
      }));
}

TEST(LintRegistry, ShipsAtLeastSixRules) {
  Linter linter;
  EXPECT_GE(linter.rules().size(), 6u);
  std::vector<std::string> names;
  for (const auto& rule : linter.rules()) names.push_back(rule.name);
  for (const char* required :
       {"raw-reserve", "nondet-iteration", "raw-parse",
        "raw-artifact-write", "kernel-purity", "seed-hygiene"})
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
}

// ------------------------------------------------------------ raw-reserve ---

TEST(RawReserve, FlagsUncappedReserveOnParsePath) {
  const auto diags = lint("src/instance/stream_io.cpp",
                          "void read() {\n"
                          "  events.reserve(header.num_events);\n"
                          "}\n");
  ASSERT_EQ(count_rule(diags, "raw-reserve"), 1u);
  EXPECT_EQ(diags[0].line, 2u);
}

TEST(RawReserve, FlagsResizeToo) {
  const auto diags = lint("src/instance/io.cpp",
                          "void read() { rows.resize(declared); }\n");
  EXPECT_EQ(count_rule(diags, "raw-reserve"), 1u);
}

TEST(RawReserve, CappedReserveIsClean) {
  const auto diags =
      lint("src/instance/stream_io.cpp",
           "void read() {\n"
           "  events.reserve(capped_reserve(header.num_events));\n"
           "  rows.reserve(capped_reserve(n, std::size_t{1} << 20));\n"
           "}\n");
  EXPECT_EQ(count_rule(diags, "raw-reserve"), 0u);
}

TEST(RawReserve, MultiLineArgumentsAreGathered) {
  const auto diags = lint("src/instance/io_detail.cpp",
                          "void read() {\n"
                          "  table.reserve(\n"
                          "      capped_reserve(universe + 1,\n"
                          "                     kReserveCap));\n"
                          "}\n");
  EXPECT_EQ(count_rule(diags, "raw-reserve"), 0u);
}

TEST(RawReserve, OnlyAppliesToParsePaths) {
  // generators.cpp builds instances from trusted config, not from input.
  const auto diags = lint("src/instance/generators.cpp",
                          "void gen() { requests.reserve(n); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(RawReserve, ParsePathClassifier) {
  EXPECT_TRUE(is_parse_path("src/instance/io.cpp"));
  EXPECT_TRUE(is_parse_path("src/instance/io_detail.cpp"));
  EXPECT_TRUE(is_parse_path("src/instance/stream_io.cpp"));
  EXPECT_TRUE(is_parse_path("src/instance/tracelog_io.cpp"));
  EXPECT_TRUE(is_parse_path("src/instance/checkpoint_io.cpp"));
  EXPECT_TRUE(is_parse_path("src/recover/checkpoint_store.cpp"));
  EXPECT_TRUE(is_parse_path("src/support/parse.cpp"));
  EXPECT_TRUE(is_parse_path("src/support/record_io.cpp"));
  EXPECT_TRUE(is_parse_path("src/bound/certificate_io.cpp"));
  // "io" must match as a whole token, not as a substring.
  EXPECT_FALSE(is_parse_path("src/solution/solution.cpp"));
  EXPECT_FALSE(is_parse_path("src/instance/generators.cpp"));
  EXPECT_FALSE(is_parse_path("src/instance/transforms.cpp"));
}

TEST(RawReserve, SuppressionOnSameLine) {
  const auto diags = lint(
      "src/instance/checkpoint_io.cpp",
      "void f() {\n"
      "  out.reserve(token.size() / 2);"
      "  // omflp-lint: allow(raw-reserve) sized by actual bytes\n"
      "}\n");
  EXPECT_EQ(count_rule(diags, "raw-reserve", /*suppressed=*/true), 1u);
  EXPECT_EQ(count_rule(diags, "raw-reserve", /*suppressed=*/false), 0u);
}

// ------------------------------------------------------- nondet-iteration ---

TEST(NondetIteration, FlagsRangeForOverUnorderedMap) {
  const auto diags =
      lint("src/obs/emit.cpp",
           "void emit() {\n"
           "  std::unordered_map<int, double> totals;\n"
           "  for (const auto& [id, total] : totals) os << id << total;\n"
           "}\n");
  ASSERT_EQ(count_rule(diags, "nondet-iteration"), 1u);
  EXPECT_EQ(diags[0].line, 3u);
}

TEST(NondetIteration, FlagsMemberAndUnorderedSet) {
  const auto diags = lint("src/solution/verifier.cpp",
                          "class V {\n"
                          "  std::unordered_set<int> seen_;\n"
                          "  void dump() {\n"
                          "    for (int id : seen_) write(id);\n"
                          "    for (int id : this->seen_) write(id);\n"
                          "  }\n"
                          "};\n");
  EXPECT_EQ(count_rule(diags, "nondet-iteration"), 2u);
}

TEST(NondetIteration, SortedCopyAndOrderedMapAreClean) {
  const auto diags =
      lint("src/obs/emit.cpp",
           "void emit() {\n"
           "  std::unordered_map<int, double> totals;\n"
           "  std::vector<std::pair<int, double>> sorted(totals.begin(),\n"
           "                                             totals.end());\n"
           "  std::sort(sorted.begin(), sorted.end());\n"
           "  for (const auto& [id, total] : sorted) os << id;\n"
           "  std::map<int, double> by_id;\n"
           "  for (const auto& [id, total] : by_id) os << id;\n"
           "}\n");
  EXPECT_EQ(count_rule(diags, "nondet-iteration"), 0u);
}

TEST(NondetIteration, SuppressedWithJustification) {
  const auto diags = lint(
      "src/core/scratch.cpp",
      "void f() {\n"
      "  std::unordered_set<int> pool;\n"
      "  // omflp-lint: allow(nondet-iteration) accumulated then sorted\n"
      "  for (int id : pool) sum += id;\n"
      "}\n");
  EXPECT_EQ(count_rule(diags, "nondet-iteration", /*suppressed=*/true), 1u);
  EXPECT_EQ(count_rule(diags, "nondet-iteration", /*suppressed=*/false), 0u);
}

// -------------------------------------------------------------- raw-parse ---

TEST(RawParse, FlagsEachRawParser) {
  for (const char* snippet :
       {"long v = strtol(s, &end, 10);", "int v = atoi(s);",
        "int v = std::stoi(text);", "auto v = std::stoull(text);",
        "double v = std::strtod(s, &end);"}) {
    const auto diags = lint("src/core/parse_args.cpp",
                            std::string("void f() { ") + snippet + " }\n");
    EXPECT_EQ(count_rule(diags, "raw-parse"), 1u) << snippet;
  }
}

TEST(RawParse, StrictParsersAndProseAreClean) {
  const auto diags = lint(
      "src/core/parse_args.cpp",
      "// strtod accepts trailing garbage; parse_double_strict does not.\n"
      "void f() {\n"
      "  auto v = parse_u64_strict(text);\n"
      "  auto d = parse_double_strict(text);\n"
      "  log(\"strtod(\");  // the mention in a string is not a call\n"
      "}\n");
  EXPECT_EQ(count_rule(diags, "raw-parse"), 0u);
}

TEST(RawParse, IdentifiersContainingNamesAreClean) {
  // my_atoi / stoi_count are different identifiers; only calls of the
  // raw functions themselves count.
  const auto diags = lint("src/core/parse_args.cpp",
                          "void f() {\n"
                          "  int v = my_atoi(s);\n"
                          "  ++stoi_count;\n"
                          "}\n");
  EXPECT_EQ(count_rule(diags, "raw-parse"), 0u);
}

// ----------------------------------------------------- raw-artifact-write ---

TEST(RawArtifactWrite, FlagsOfstream) {
  const auto diags = lint("tools/report.cpp",
                          "void save() {\n"
                          "  std::ofstream out(path);\n"
                          "  out << body;\n"
                          "}\n");
  ASSERT_EQ(count_rule(diags, "raw-artifact-write"), 1u);
  EXPECT_EQ(diags[0].line, 2u);
}

TEST(RawArtifactWrite, AtomicWriterIsClean) {
  const auto diags = lint("tools/report.cpp",
                          "void save() {\n"
                          "  write_file_atomic(path, body);\n"
                          "  AtomicFileWriter writer(other);\n"
                          "}\n");
  EXPECT_EQ(count_rule(diags, "raw-artifact-write"), 0u);
}

TEST(RawArtifactWrite, ImplementationFileIsExempt) {
  const auto diags = lint("src/support/atomic_file.cpp",
                          "void impl() { std::ofstream out(tmp); }\n");
  EXPECT_EQ(count_rule(diags, "raw-artifact-write"), 0u);
}

// ---------------------------------------------------------- kernel-purity ---

TEST(KernelPurity, FlagsCounterTicksAndAllocation) {
  const auto diags = lint("src/kernel/kernels.cpp",
                          "void sweep() {\n"
                          "  OMFLP_PERF_TICK(bids_evaluated);\n"
                          "  scratch.push_back(x);\n"
                          "  buffer.resize(n);\n"
                          "  std::vector<double> tmp(n);\n"
                          "}\n");
  EXPECT_EQ(count_rule(diags, "kernel-purity"), 4u);
}

TEST(KernelPurity, PureKernelAndOtherDirsAreClean) {
  const std::string pure =
      "void accumulate(double* row, const double* dist, double v,\n"
      "                std::size_t n) {\n"
      "  for (std::size_t m = 0; m < n; ++m)\n"
      "    row[m] += positive_part(v - dist[m]);\n"
      "}\n";
  EXPECT_TRUE(lint("src/kernel/kernels.cpp", pure).empty());
  // The same allocation outside src/kernel/ is not this rule's business.
  EXPECT_TRUE(lint("src/core/pd_omflp.cpp",
                   "void f() { scratch.push_back(x); }\n")
                  .empty());
}

TEST(KernelPurity, SuppressedScratchIsReportedNotFailing) {
  const auto diags = lint(
      "src/kernel/kernels.cpp",
      "void split() {\n"
      "  // omflp-lint: allow(kernel-purity) per-chunk partials, amortized\n"
      "  std::vector<SpanMin> partial(chunks);\n"
      "}\n");
  EXPECT_EQ(count_rule(diags, "kernel-purity", /*suppressed=*/true), 1u);
  EXPECT_EQ(count_rule(diags, "kernel-purity", /*suppressed=*/false), 0u);
}

// ----------------------------------------------------------- seed-hygiene ---

TEST(SeedHygiene, FlagsRawWorkloadSeed) {
  const auto diags = lint(
      "src/engine/engine.cpp",
      "void build() {\n"
      "  auto algo = default_algorithm_registry().make(name, spec.seed);\n"
      "}\n");
  ASSERT_EQ(count_rule(diags, "seed-hygiene"), 1u);
  EXPECT_EQ(diags[0].line, 2u);
}

TEST(SeedHygiene, DerivedSeedIsClean) {
  const auto diags = lint(
      "src/engine/engine.cpp",
      "void build() {\n"
      "  auto a = default_algorithm_registry().make(\n"
      "      name, derive_algorithm_seed(spec.seed));\n"
      "  auto b = algorithms.make(algo,\n"
      "                           derive_algorithm_seed(seed));\n"
      "}\n");
  EXPECT_EQ(count_rule(diags, "seed-hygiene"), 0u);
}

TEST(SeedHygiene, ScenarioRegistriesTakeRawSeeds) {
  // Workload generation is *supposed* to consume the raw seed.
  const auto diags = lint(
      "src/engine/engine.cpp",
      "void build() {\n"
      "  auto scen = default_scenario_registry().make(name, spec.seed);\n"
      "  auto stream = scenarios.make(family, seed, overrides);\n"
      "}\n");
  EXPECT_EQ(count_rule(diags, "seed-hygiene"), 0u);
}

TEST(SeedHygiene, LiteralSeedsAreClean) {
  const auto diags = lint(
      "src/perf/bench_suite.cpp",
      "void bench() { auto a = default_algorithm_registry().make(name, 7); }\n");
  EXPECT_EQ(count_rule(diags, "seed-hygiene"), 0u);
}

// ---------------------------------------------------------------- scoping ---

TEST(Scoping, TestsDirectoryIsExemptFromCodeRules) {
  const auto diags = lint("tests/test_fuzz_parsers.cpp",
                          "void fixture() {\n"
                          "  corpus.reserve(cases);\n"
                          "  std::ofstream out(tmp);\n"
                          "  int v = atoi(s);\n"
                          "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Scoping, PathInDirMatchesWholeComponents) {
  EXPECT_TRUE(path_in_dir("tests/test_lint.cpp", "tests"));
  EXPECT_TRUE(path_in_dir("src/kernel/kernels.cpp", "kernel"));
  EXPECT_FALSE(path_in_dir("src/kernel_utils/misc.cpp", "kernel"));
  EXPECT_FALSE(path_in_dir("contests/foo.cpp", "tests"));
  // The basename itself is not a directory component.
  EXPECT_FALSE(path_in_dir("src/kernel", "kernel"));
}

// ------------------------------------------------------------ suppression ---

TEST(Suppression, StandaloneLineCoversNextCodeLine) {
  const auto diags = lint(
      "src/core/f.cpp",
      "void f() {\n"
      "  // omflp-lint: allow(raw-parse) vendor text, validated upstream\n"
      "  int v = atoi(s);\n"
      "  int w = atoi(t);\n"  // NOT covered: suppression is one line
      "}\n");
  EXPECT_EQ(count_rule(diags, "raw-parse", /*suppressed=*/true), 1u);
  EXPECT_EQ(count_rule(diags, "raw-parse", /*suppressed=*/false), 1u);
}

TEST(Suppression, AllCoversEveryRule) {
  const auto diags = lint("src/core/f.cpp",
                          "void f() {\n"
                          "  int v = atoi(s);  // omflp-lint: allow(all)\n"
                          "}\n");
  EXPECT_EQ(count_rule(diags, "raw-parse", /*suppressed=*/true), 1u);
}

TEST(Suppression, WrongRuleNameDoesNotSuppress) {
  const auto diags = lint(
      "src/core/f.cpp",
      "void f() {\n"
      "  int v = atoi(s);  // omflp-lint: allow(raw-reserve) wrong rule\n"
      "}\n");
  EXPECT_EQ(count_rule(diags, "raw-parse", /*suppressed=*/false), 1u);
}

// -------------------------------------------------------------- stripping ---

TEST(Stripping, CommentsAndStringsNeverMatch) {
  const auto diags = lint(
      "src/core/f.cpp",
      "// atoi(x) in a comment\n"
      "/* strtod(y) in a block comment\n"
      "   spanning lines: atoi(z) */\n"
      "const char* kMsg = \"use atoi(n) they said\";\n"
      "const char* kRaw = R\"(strtod(raw) text)\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Stripping, CodeAfterBlockCommentStillMatches) {
  const auto diags =
      lint("src/core/f.cpp", "int v = /* checked */ atoi(s);\n");
  EXPECT_EQ(count_rule(diags, "raw-parse"), 1u);
}

// ------------------------------------------------------------------- json ---

TEST(Json, EmptyReportIsPinned) {
  EXPECT_EQ(to_json({}),
            "{\"format\":\"omflp-lint\",\"version\":1,\"findings\":[],"
            "\"suppressed\":0,\"failing\":0}\n");
}

TEST(Json, FindingsAndEscapingArePinned) {
  const std::vector<Diagnostic> diags = {
      {"rule-x", "src/a\\b.cpp", 3,
       "quote \" backslash \\ newline \n return \r tab \t byte \x01", true},
      {"raw-parse", "src/core/f.cpp", 18446744073709551615u, "plain", false},
  };
  EXPECT_EQ(to_json(diags), R"json({"format":"omflp-lint","version":1,"findings":[
  {"rule":"rule-x","path":"src/a\\b.cpp","line":3,"message":"quote \" backslash \\ newline \n return \r tab \t byte \u0001","suppressed":true},
  {"rule":"raw-parse","path":"src/core/f.cpp","line":18446744073709551615,"message":"plain","suppressed":false}
],"suppressed":1,"failing":1}
)json");
}

// ------------------------------------------------------------ text report ---

TEST(Text, ReportsPathLineRuleAndSummary) {
  const auto diags =
      lint("src/core/f.cpp", "void f() { int v = atoi(s); }\n");
  const std::string text = to_text(diags);
  EXPECT_NE(text.find("src/core/f.cpp:1: [raw-parse]"), std::string::npos);
  EXPECT_NE(text.find("1 finding (0 suppressed, 1 failing)"),
            std::string::npos);
  EXPECT_TRUE(has_unsuppressed(diags));
}

}  // namespace
}  // namespace omflp::lint
