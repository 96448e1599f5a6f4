// Unit tests for the dbs_lint rule engine: each rule gets a positive case
// (violation found), a negative case (idiomatic code passes), plus the two
// suppression channels — `dbs-lint: allow(...)` markers and the baseline.
//
// Banned tokens appear here only inside test-input string literals; the
// scanner strips literals before matching, so this file itself lints clean.

#include "tools/lint/lint.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace dbs::lint {
namespace {

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

// --- comment/literal stripping ---------------------------------------------

TEST(StripComments, RemovesLineAndBlockComments) {
  const std::vector<CodeLine> lines =
      StripComments("int a;  // trailing new int\n"
                    "/* new delete */ int b;\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].code.find("new"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int a;"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("delete"), std::string::npos);
  EXPECT_NE(lines[1].code.find("int b;"), std::string::npos);
}

TEST(StripComments, BlanksStringAndCharLiterals) {
  const std::vector<CodeLine> lines =
      StripComments("auto s = \"new delete rand()\"; char c = 'x';\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].code.find("auto s ="), std::string::npos);
}

TEST(StripComments, MultiLineBlockCommentPreservesLineNumbers) {
  const std::vector<CodeLine> lines =
      StripComments("int a;\n/* spans\nseveral\nlines */\nint b;\n");
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[4].code.find("int b;"), std::string::npos);
  EXPECT_TRUE(lines[2].code.find("several") == std::string::npos);
}

TEST(StripComments, RawStringLiteralBodyIsBlanked) {
  const std::vector<CodeLine> lines =
      StripComments("auto s = R\"(new delete)\"; int a;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("delete"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int a;"), std::string::npos);
}

TEST(StripComments, AllowMarkerSurvivesInRawText) {
  const std::vector<CodeLine> lines =
      StripComments("int* p = q;  // dbs-lint: allow(raw-alloc)\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].raw.find("dbs-lint: allow(raw-alloc)"),
            std::string::npos);
  EXPECT_EQ(lines[0].code.find("dbs-lint"), std::string::npos);
}

// --- nondet-seed ------------------------------------------------------------

TEST(NondetSeed, FlagsRandomDeviceAndRandAndTime) {
  const std::string bad =
      "std::random_device rd;\n"
      "int a = rand();\n"
      "srand(42);\n"
      "auto t = time(nullptr);\n";
  const std::vector<Finding> findings = LintSource("src/core/sample.cc", bad);
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "nondet-seed");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[3].line, 4);
}

TEST(NondetSeed, IgnoresTokenLookalikes) {
  const std::string good =
      "double operand = 1.0;\n"          // `rand` inside an identifier
      "int64_t runtime_ms = Elapsed();\n"
      "double latency = wall_time(0);\n"  // `time` inside an identifier
      "rng.NextBounded(7);\n";
  EXPECT_TRUE(LintSource("src/core/sample.cc", good).empty());
}

// --- library-print ----------------------------------------------------------

TEST(LibraryPrint, FlagsStdioInLibraryCode) {
  const std::string bad =
      "std::cout << x;\n"
      "std::fprintf(stderr, \"x\");\n";
  const std::vector<Finding> findings =
      LintSource("src/density/kde.cc", bad);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "library-print");
}

TEST(LibraryPrint, ExemptsReportCheckAndNonLibraryCode) {
  // The leading #pragma once keeps the .h cases clear of header-guard.
  const std::string printing = "#pragma once\nstd::printf(\"table\\n\");\n";
  EXPECT_TRUE(LintSource("src/eval/report.cc", printing).empty());
  EXPECT_TRUE(LintSource("src/eval/report.h", printing).empty());
  EXPECT_TRUE(LintSource("src/util/check.h", printing).empty());
  EXPECT_TRUE(LintSource("tools/dbs_gen.cc", printing).empty());
  EXPECT_TRUE(LintSource("bench/micro_kde.cc", printing).empty());
}

// --- raw-alloc --------------------------------------------------------------

TEST(RawAlloc, FlagsNewDeleteAndMallocFamily) {
  const std::string bad =
      "int* p = new int[3];\n"
      "delete[] p;\n"
      "void* q = malloc(8);\n"
      "free(q);\n";
  const std::vector<Finding> findings = LintSource("bench/foo.cc", bad);
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "raw-alloc");
}

TEST(RawAlloc, IgnoresDeletedFunctionsAndMakeUnique) {
  const std::string good =
      "Executor(const Executor&) = delete;\n"
      "Executor& operator=(const Executor&) = delete;\n"
      "auto p = std::make_unique<int>(3);\n"
      "bool renewed = freestanding;\n";
  EXPECT_TRUE(LintSource("src/parallel/batch_executor.cc", good).empty());
}

// --- unordered-container ----------------------------------------------------

TEST(UnorderedContainer, FlagsOnlyInDensityCoreAndShard) {
  const std::string bad = "std::unordered_map<uint64_t, int> cells;\n";
  EXPECT_EQ(Rules(LintSource("src/density/kde.cc", bad)),
            std::vector<std::string>{"unordered-container"});
  EXPECT_EQ(Rules(LintSource("src/core/sample.cc", bad)),
            std::vector<std::string>{"unordered-container"});
  // The shard merge paths are order-sensitive by contract: the tree-reduce
  // must produce identical bytes for every merge order.
  EXPECT_EQ(Rules(LintSource("src/shard/coordinator.cc", bad)),
            std::vector<std::string>{"unordered-container"});
  // The exact detectors promise byte-identical reports across algorithms
  // and worker counts; the cell-list grid must keep deterministic order.
  EXPECT_EQ(Rules(LintSource("src/outlier/cell_list.cc", bad)),
            std::vector<std::string>{"unordered-container"});
  // The registry keyed by model name is outside the numeric core.
  EXPECT_TRUE(LintSource("src/serve/model_registry.cc", bad).empty());
  EXPECT_TRUE(LintSource("tests/foo_test.cc", bad).empty());
}

// --- serve-throw ------------------------------------------------------------

TEST(ServeThrow, FlagsThrowOnlyInServe) {
  const std::string bad = "if (x) throw std::runtime_error(\"boom\");\n";
  EXPECT_EQ(Rules(LintSource("src/serve/service.cc", bad)),
            std::vector<std::string>{"serve-throw"});
  EXPECT_TRUE(LintSource("src/cluster/kmeans.cc", bad).empty());
}

// --- shared-temp-path -------------------------------------------------------

TEST(SharedTempPath, FlagsFixedNamesUnderTempDirInTests) {
  const std::string direct =
      "std::string p = ::testing::TempDir() + \"x.dbsf\";\n";
  EXPECT_EQ(Rules(LintSource("tests/foo_test.cc", direct)),
            std::vector<std::string>{"shared-temp-path"});
  // Wrapped in a std::string(...) conversion.
  EXPECT_EQ(Rules(LintSource(
                "tests/foo_test.cc",
                "auto p = std::string(::testing::TempDir()) + \"/x\";\n")),
            std::vector<std::string>{"shared-temp-path"});
  // The literal on the line after the `+`; the finding sits on the call.
  const auto split = LintSource("tests/foo_test.cc",
                                "auto p = ::testing::TempDir() +\n"
                                "         \"x.dbsk\";\n");
  ASSERT_EQ(Rules(split), std::vector<std::string>{"shared-temp-path"});
  EXPECT_EQ(split[0].line, 1);
}

TEST(SharedTempPath, IgnoresPerProcessPathsAndNonTestCode) {
  EXPECT_TRUE(LintSource("tests/foo_test.cc",
                         "auto p = test::TempPath(\"x.dbsf\");\n")
                  .empty());
  // Building the per-process directory itself is not a shared name.
  EXPECT_TRUE(LintSource("tests/foo_test.cc",
                         "std::string d = ::testing::TempDir();\n"
                         "d += \"dbs_test_XXXXXX\";\n")
                  .empty());
  EXPECT_TRUE(LintSource("tests/foo_test.cc",
                         "auto p = ::testing::TempDir() + name;\n")
                  .empty());
  const std::string direct =
      "std::string p = ::testing::TempDir() + \"x.dbsf\";\n";
  EXPECT_TRUE(LintSource("bench/foo.cc", direct).empty());
  EXPECT_TRUE(LintSource("tests/foo_test.cc",
                         "// dbs-lint: allow(shared-temp-path): one process\n" +
                             direct)
                  .empty());
}

// --- header rules -----------------------------------------------------------

TEST(HeaderGuard, AcceptsIfndefAndPragmaOnceAfterComments) {
  const std::string guarded =
      "// A long preamble comment\n"
      "// spanning several lines.\n"
      "\n"
      "#ifndef DBS_FOO_H_\n"
      "#define DBS_FOO_H_\n"
      "#endif\n";
  EXPECT_TRUE(LintSource("src/data/foo.h", guarded).empty());
  EXPECT_TRUE(LintSource("src/data/foo.h",
                         "// comment\n#pragma once\nint x;\n")
                  .empty());
}

TEST(HeaderGuard, FlagsUnguardedHeaderAtFirstCodeLine) {
  const std::vector<Finding> findings =
      LintSource("src/data/foo.h", "// comment\n\nint x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "header-guard");
  EXPECT_EQ(findings[0].line, 3);
  // Guards are a header concern only.
  EXPECT_TRUE(LintSource("src/data/foo.cc", "int x;\n").empty());
}

TEST(UsingNamespaceHeader, FlagsHeadersOnly) {
  const std::string source =
      "#pragma once\nusing namespace std;\n";
  EXPECT_EQ(Rules(LintSource("src/data/foo.h", source)),
            std::vector<std::string>{"using-namespace-header"});
  EXPECT_TRUE(
      LintSource("tests/foo_test.cc", "using namespace std;\n").empty());
}

// --- suppression: allow(...) markers ----------------------------------------

TEST(AllowMarker, SameLineSuppressesNamedRuleOnly) {
  const std::string same_line =
      "int* p = new int;  // dbs-lint: allow(raw-alloc)\n";
  EXPECT_TRUE(LintSource("src/data/foo.cc", same_line).empty());
  // A marker for a different rule does not suppress.
  const std::string wrong_rule =
      "int* p = new int;  // dbs-lint: allow(serve-throw)\n";
  EXPECT_EQ(Rules(LintSource("src/data/foo.cc", wrong_rule)),
            std::vector<std::string>{"raw-alloc"});
}

TEST(AllowMarker, CommentOnlyLineAppliesToNextLine) {
  const std::string above =
      "// dbs-lint: allow(raw-alloc)\n"
      "int* p = new int;\n";
  EXPECT_TRUE(LintSource("src/data/foo.cc", above).empty());
  // ...but only to the immediately following line.
  const std::string gap =
      "// dbs-lint: allow(raw-alloc)\n"
      "int a;\n"
      "int* p = new int;\n";
  EXPECT_EQ(LintSource("src/data/foo.cc", gap).size(), 1u);
}

TEST(AllowMarker, CommaListSuppressesMultipleRules) {
  const std::string source =
      "std::cout << rand();  // dbs-lint: allow(library-print, nondet-seed)\n";
  EXPECT_TRUE(LintSource("src/data/foo.cc", source).empty());
}

// --- suppression: baseline --------------------------------------------------

TEST(Baseline, RoundTripsThroughFormatAndFiltersExactFindings) {
  const std::string source = "int* p = new int;\nint* q = new int;\n";
  const std::vector<Finding> findings =
      LintSource("src/data/foo.cc", source);
  ASSERT_EQ(findings.size(), 2u);

  const std::string text = FormatBaseline(findings);
  const std::vector<std::string> baseline = ParseBaseline(text);
  EXPECT_EQ(baseline.size(), 2u);  // comment lines dropped
  EXPECT_TRUE(ApplyBaseline(findings, baseline).empty());
}

TEST(Baseline, EntryMultiplicityIsRespected) {
  const std::string source = "int* p = new int;\nint* p = new int;\n";
  const std::vector<Finding> findings =
      LintSource("src/data/foo.cc", source);
  ASSERT_EQ(findings.size(), 2u);
  // One baseline entry suppresses one of the two identical findings.
  const std::vector<std::string> baseline = {
      "raw-alloc|src/data/foo.cc|int* p = new int;"};
  EXPECT_EQ(ApplyBaseline(findings, baseline).size(), 1u);
}

TEST(Baseline, DoesNotSuppressNewlyIntroducedFindings) {
  const std::vector<Finding> old_findings =
      LintSource("src/data/foo.cc", "int* p = new int;\n");
  const std::vector<std::string> baseline =
      ParseBaseline(FormatBaseline(old_findings));
  // A different violation in the same file is still reported.
  const std::vector<Finding> now =
      LintSource("src/data/foo.cc", "int* p = new int;\ndelete p;\n");
  const std::vector<Finding> fresh = ApplyBaseline(now, baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].line, 2);
}

// --- output formats ---------------------------------------------------------

TEST(Output, JsonEscapesAndGithubAnnotates) {
  Finding f;
  f.rule = "raw-alloc";
  f.file = "src/a.cc";
  f.line = 7;
  f.code = "say \"hi\"";
  f.message = "msg";
  const std::string json = FormatJson({f});
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
  const std::string gh = FormatGithub({f});
  EXPECT_NE(gh.find("::error file=src/a.cc,line=7"), std::string::npos);
  EXPECT_TRUE(FormatGithub({}).empty());
}

}  // namespace
}  // namespace dbs::lint
