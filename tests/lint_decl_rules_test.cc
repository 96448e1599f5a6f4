// Unit tests for the declaration/statement pass: each rule gets a positive
// case, a negative case, and an allow-marker suppression case, plus the
// scope-tracker and name-collision machinery they rest on.
//
// Banned idioms appear here only inside fixture string literals.

#include "tools/lint/decl_rules.h"

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lint/lexer.h"
#include "tools/lint/lint.h"

namespace dbs::lint {
namespace {

std::vector<Finding> RunRules(const std::string& path, const std::string& content,
                         const std::set<std::string>* fns = nullptr) {
  DeclRuleOptions options;
  options.status_functions = fns;
  const std::vector<Finding> findings =
      CheckDeclRules(path, Lex(content), options);
  return ApplyAllowMarkers(StripComments(content), findings);
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

// ---------------------------------------------------------------- nodiscard

TEST(NodiscardStatusTest, BareStatusDeclarationFlagged) {
  const auto findings = RunRules("src/data/x.h", "Status Build();\n");
  ASSERT_EQ(Rules(findings), std::vector<std::string>{"nodiscard-status"});
  EXPECT_EQ(findings[0].line, 1);
}

TEST(NodiscardStatusTest, AnnotatedDeclarationPasses) {
  EXPECT_TRUE(RunRules("src/data/x.h", "[[nodiscard]] Status Build();\n").empty());
}

TEST(NodiscardStatusTest, ResultAndQualifiedReturnTypesFlagged) {
  EXPECT_EQ(Rules(RunRules("src/data/x.h", "Result<int> Parse();\n")),
            std::vector<std::string>{"nodiscard-status"});
  EXPECT_EQ(Rules(RunRules("src/data/x.h", "dbs::Status Open();\n")),
            std::vector<std::string>{"nodiscard-status"});
}

TEST(NodiscardStatusTest, ClassScopeAndSpecifiersFlagged) {
  const auto findings = RunRules("src/data/x.h",
                            "class Foo {\n"
                            " public:\n"
                            "  static Status Init();\n"
                            "};\n");
  ASSERT_EQ(Rules(findings), std::vector<std::string>{"nodiscard-status"});
  EXPECT_EQ(findings[0].line, 3);
}

TEST(NodiscardStatusTest, TemplateDeclarationFlagged) {
  EXPECT_EQ(Rules(RunRules("src/data/x.h",
                      "template <typename T>\nResult<T> Make();\n")),
            std::vector<std::string>{"nodiscard-status"});
}

TEST(NodiscardStatusTest, ExemptShapesPass) {
  // Out-of-line member definitions: the attribute belongs in-class.
  EXPECT_TRUE(
      RunRules("src/data/x.cc", "Status Foo::Build() { return Status(); }\n")
          .empty());
  // void, pointers and references are not discardable-error signatures.
  EXPECT_TRUE(RunRules("src/data/x.h", "void RunRules();\n").empty());
  EXPECT_TRUE(RunRules("src/data/x.h", "Status* Borrow();\n").empty());
  EXPECT_TRUE(RunRules("src/data/x.h", "const Status& Peek();\n").empty());
  // Variables of type Status are not function declarations.
  EXPECT_TRUE(RunRules("src/data/x.cc", "Status g_last;\n").empty());
}

TEST(NodiscardStatusTest, AllowMarkerSuppresses) {
  EXPECT_TRUE(RunRules("src/data/x.h",
                  "// dbs-lint: allow(nodiscard-status): C ABI shim\n"
                  "Status Build();\n")
                  .empty());
}

// ---------------------------------------------------------- unchecked-status

TEST(UncheckedStatusTest, BareCallStatementFlagged) {
  const std::set<std::string> fns = {"Build"};
  const auto findings = RunRules("src/data/x.cc",
                            "void F() {\n"
                            "  Build();\n"
                            "}\n",
                            &fns);
  ASSERT_EQ(Rules(findings), std::vector<std::string>{"unchecked-status"});
  EXPECT_EQ(findings[0].line, 2);
}

TEST(UncheckedStatusTest, MemberAndQualifiedCallsFlagged) {
  const std::set<std::string> fns = {"Build"};
  EXPECT_EQ(Rules(RunRules("src/data/x.cc", "void F() { obj.Build(); }\n", &fns)),
            std::vector<std::string>{"unchecked-status"});
  EXPECT_EQ(
      Rules(RunRules("src/data/x.cc", "void F() { foo::Bar::Build(1, 2); }\n",
                &fns)),
      std::vector<std::string>{"unchecked-status"});
}

TEST(UncheckedStatusTest, ConsumedCallsPass) {
  const std::set<std::string> fns = {"Build"};
  EXPECT_TRUE(
      RunRules("src/data/x.cc", "void F() { Status s = Build(); (void)s; }\n", &fns)
          .empty());
  EXPECT_TRUE(RunRules("src/data/x.cc",
                  "[[nodiscard]] Status F() { return Build(); }\n", &fns)
                  .empty());
  EXPECT_TRUE(RunRules("src/data/x.cc",
                  "[[nodiscard]] Status F() { "
                  "DBS_RETURN_IF_ERROR(Build()); return {}; }\n",
                  &fns)
                  .empty());
  EXPECT_TRUE(
      RunRules("src/data/x.cc", "void F() { if (!Build().ok()) {} }\n", &fns)
          .empty());
  // Calls to functions outside the Status set are not this rule's business.
  EXPECT_TRUE(RunRules("src/data/x.cc", "void F() { Log(); }\n", &fns).empty());
}

TEST(UncheckedStatusTest, AllowMarkerSuppresses) {
  const std::set<std::string> fns = {"Build"};
  EXPECT_TRUE(
      RunRules("src/data/x.cc",
          "void F() {\n"
          "  Build();  // dbs-lint: allow(unchecked-status): best-effort\n"
          "}\n",
          &fns)
          .empty());
}

TEST(CollectStatusFunctionsTest, SeparatesStatusAndVoidNames) {
  const auto sets = CollectStatusFunctions(
      Lex("Status Make();\n"
          "void Make();\n"
          "Result<int> Parse();\n"
          "Status Foo::Bind() { return Status(); }\n"));
  EXPECT_EQ(sets.status_returning,
            (std::set<std::string>{"Make", "Parse", "Bind"}));
  EXPECT_EQ(sets.void_returning, (std::set<std::string>{"Make"}));
}

// A name declared void anywhere in the tree cannot be flagged reliably
// without overload resolution, so LintTree subtracts it — the shape of the
// Server::RequestShutdown/void vs Client::RequestShutdown/Status collision.
TEST(LintTreeTest, VoidCollisionSubtractedFromStatusSet) {
  const std::vector<SourceFile> files = {
      {"src/data/a.cc",
       "[[nodiscard]] Status Ping();\n"
       "void Ping();\n"
       "void Caller() {\n"
       "  Ping();\n"
       "}\n"}};
  const TreeResult result = LintTree(files, TreeOptions{});
  EXPECT_TRUE(result.findings.empty());
}

TEST(LintTreeTest, StatusFunctionSetCrossesFiles) {
  const std::vector<SourceFile> files = {
      {"src/data/a.h", "#ifndef A_H\n[[nodiscard]] Status Ping();\n#endif\n"},
      {"src/data/b.cc", "void Caller() {\n  Ping();\n}\n"}};
  const TreeResult result = LintTree(files, TreeOptions{});
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "unchecked-status");
  EXPECT_EQ(result.findings[0].file, "src/data/b.cc");
  EXPECT_EQ(result.findings[0].line, 2);
}

// ------------------------------------------------------------------ fp-accum

TEST(FpAccumTest, StdReduceInLibraryFlagged) {
  EXPECT_EQ(
      Rules(RunRules("src/data/x.cc",
                "double F(const std::vector<double>& v) {\n"
                "  return std::reduce(v.begin(), v.end());\n"
                "}\n")),
      std::vector<std::string>{"fp-accum"});
  // Outside src/ the idiom is fine (tests may exercise it on purpose).
  EXPECT_TRUE(RunRules("tests/x.cc",
                  "double F(const std::vector<double>& v) {\n"
                  "  return std::reduce(v.begin(), v.end());\n"
                  "}\n")
                  .empty());
}

TEST(FpAccumTest, ExecutionPolicyAccumulateFlagged) {
  EXPECT_EQ(Rules(RunRules("src/data/x.cc",
                      "double F(std::vector<double>& v) {\n"
                      "  return std::accumulate(std::execution::par, "
                      "v.begin(), v.end(), 0.0);\n"
                      "}\n")),
            std::vector<std::string>{"fp-accum"});
  // The sequential overload is the blessed idiom.
  EXPECT_TRUE(RunRules("src/data/x.cc",
                  "double F(const std::vector<double>& v) {\n"
                  "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
                  "}\n")
                  .empty());
}

TEST(FpAccumTest, RangeForOverUnorderedInPinnedDirsFlagged) {
  const std::string body =
      "void F() {\n"
      "  for (const auto& kv : unordered_counts) {\n"
      "    Use(kv);\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(Rules(RunRules("src/density/x.cc", body)),
            std::vector<std::string>{"fp-accum"});
  EXPECT_EQ(Rules(RunRules("src/shard/x.cc", body)),
            std::vector<std::string>{"fp-accum"});
  // Outside the bitwise-pinned directories the idiom is allowed.
  EXPECT_TRUE(RunRules("src/sampling/x.cc", body).empty());
  // Ordered containers iterate deterministically.
  EXPECT_TRUE(RunRules("src/density/x.cc",
                  "void F() {\n"
                  "  for (const auto& kv : sorted_counts) {\n"
                  "    Use(kv);\n"
                  "  }\n"
                  "}\n")
                  .empty());
}

TEST(FpAccumTest, AllowMarkerSuppresses) {
  EXPECT_TRUE(RunRules("src/data/x.cc",
                  "double F(const std::vector<double>& v) {\n"
                  "  // dbs-lint: allow(fp-accum): integer sum, associative\n"
                  "  return std::reduce(v.begin(), v.end());\n"
                  "}\n")
                  .empty());
}

// ----------------------------------------------------------------- clock-now

TEST(ClockNowTest, WallClockReadInLibraryFlagged) {
  const std::string body =
      "void F() {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "}\n";
  EXPECT_EQ(Rules(RunRules("src/data/x.cc", body)),
            std::vector<std::string>{"clock-now"});
  EXPECT_EQ(Rules(RunRules("tools/dbs_x.cc", body)),
            std::vector<std::string>{"clock-now"});
  // bench/ exists to measure time; the audited Timer is exempt.
  EXPECT_TRUE(RunRules("bench/x.cc", body).empty());
  EXPECT_TRUE(RunRules("src/eval/experiment.h", body).empty());
  // The serving stack has no audited timer of its own.
  EXPECT_EQ(Rules(RunRules("src/serve/server.cc", body)),
            std::vector<std::string>{"clock-now"});
}

TEST(ClockNowTest, BareClockCallFlaggedButMembersAreNot) {
  EXPECT_EQ(Rules(RunRules("src/data/x.cc", "void F() { long t = clock(); }\n")),
            std::vector<std::string>{"clock-now"});
  // A member or namespaced `clock()` is someone else's clock.
  EXPECT_TRUE(
      RunRules("src/data/x.cc", "void F() { long t = timer.clock(); }\n").empty());
}

TEST(ClockNowTest, AllowMarkerSuppresses) {
  EXPECT_TRUE(RunRules("src/data/x.cc",
                  "void F() {\n"
                  "  // dbs-lint: allow(clock-now): log timestamp only\n"
                  "  auto t = std::chrono::steady_clock::now();\n"
                  "}\n")
                  .empty());
}

// ------------------------------------------------------------- relaxed-atomic

TEST(RelaxedAtomicTest, RelaxedOrderOutsideAuditedFilesFlagged) {
  const std::string body =
      "void F() {\n"
      "  auto v = flag.load(std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_EQ(Rules(RunRules("src/data/x.cc", body)),
            std::vector<std::string>{"relaxed-atomic"});
  // The C++20 nested spelling counts too.
  EXPECT_EQ(Rules(RunRules("src/data/x.cc",
                      "void F() {\n"
                      "  auto v = flag.load(std::memory_order::relaxed);\n"
                      "}\n")),
            std::vector<std::string>{"relaxed-atomic"});
  // No file is exempt: the serving stack needs the argument too.
  EXPECT_EQ(Rules(RunRules("src/serve/server.cc", body)),
            std::vector<std::string>{"relaxed-atomic"});
  // Stronger orderings are always fine.
  EXPECT_TRUE(RunRules("src/data/x.cc",
                  "void F() {\n"
                  "  auto v = flag.load(std::memory_order_acquire);\n"
                  "}\n")
                  .empty());
}

TEST(RelaxedAtomicTest, AllowMarkerSuppresses) {
  EXPECT_TRUE(RunRules("src/data/x.cc",
                  "void F() {\n"
                  "  // dbs-lint: allow(relaxed-atomic): pure counter\n"
                  "  count.fetch_add(1, std::memory_order_relaxed);\n"
                  "}\n")
                  .empty());
}

// ------------------------------------------------------------ detached-thread

TEST(DetachedThreadTest, DetachFlaggedJoinPasses) {
  EXPECT_EQ(Rules(RunRules("src/data/x.cc", "void F() { worker.detach(); }\n")),
            std::vector<std::string>{"detached-thread"});
  EXPECT_EQ(Rules(RunRules("src/data/x.cc", "void F() { worker->detach(); }\n")),
            std::vector<std::string>{"detached-thread"});
  EXPECT_TRUE(RunRules("src/data/x.cc", "void F() { worker.join(); }\n").empty());
  // `detach` as a plain identifier (a local, a parameter) is not a call.
  EXPECT_TRUE(
      RunRules("src/data/x.cc", "void F(bool detach) { Use(detach); }\n").empty());
}

TEST(DetachedThreadTest, AllowMarkerSuppresses) {
  EXPECT_TRUE(
      RunRules("src/data/x.cc",
          "void F() {\n"
          "  worker.detach();  // dbs-lint: allow(detached-thread): daemon\n"
          "}\n")
          .empty());
}

// -------------------------------------------------------------- mutex-comment

TEST(MutexCommentTest, UncommentedMutexMemberFlagged) {
  const auto findings = RunRules("src/data/x.h",
                            "class Foo {\n"
                            " private:\n"
                            "  std::mutex mu_;\n"
                            "};\n");
  ASSERT_EQ(Rules(findings), std::vector<std::string>{"mutex-comment"});
  EXPECT_EQ(findings[0].line, 3);
}

TEST(MutexCommentTest, CommentAboveOrTrailingPasses) {
  EXPECT_TRUE(RunRules("src/data/x.h",
                  "class Foo {\n"
                  " private:\n"
                  "  // Guards counts_. Leaf lock.\n"
                  "  std::mutex mu_;\n"
                  "};\n")
                  .empty());
  EXPECT_TRUE(RunRules("src/data/x.h",
                  "class Foo {\n"
                  " private:\n"
                  "  std::mutex mu_;  // Guards counts_. Leaf lock.\n"
                  "};\n")
                  .empty());
}

TEST(MutexCommentTest, OtherMutexTypesCoveredAndLocalsExempt) {
  EXPECT_EQ(Rules(RunRules("src/data/x.h",
                      "class Foo {\n"
                      "  std::shared_mutex table_mu_;\n"
                      "};\n")),
            std::vector<std::string>{"mutex-comment"});
  // A mutex parameter or local inside a function body is not a member.
  EXPECT_TRUE(
      RunRules("src/data/x.cc", "void F() { std::mutex local; Use(local); }\n")
          .empty());
}

TEST(MutexCommentTest, AllowMarkerSuppresses) {
  EXPECT_TRUE(
      RunRules("src/data/x.h",
          "class Foo {\n"
          "  std::mutex mu_;  // dbs-lint: allow(mutex-comment): fixture\n"
          "};\n")
          .empty());
}

// The scope tracker must not let macro-body braces corrupt the stack: a
// declaration after an unbalanced-looking #define is still namespace scope.
TEST(ScopeTrackerTest, DirectiveBracesDoNotCorruptScopes) {
  const auto findings = RunRules("src/data/x.h",
                            "#define OPEN {\n"
                            "Status Build();\n");
  EXPECT_EQ(Rules(findings), std::vector<std::string>{"nodiscard-status"});
}

TEST(ScopeTrackerTest, LambdaBodyIsFunctionScope) {
  const std::set<std::string> fns = {"Build"};
  const auto findings = RunRules("src/data/x.cc",
                            "void F() {\n"
                            "  RunRules([&] {\n"
                            "    Build();\n"
                            "  });\n"
                            "}\n",
                            &fns);
  ASSERT_EQ(Rules(findings), std::vector<std::string>{"unchecked-status"});
  EXPECT_EQ(findings[0].line, 3);
}

}  // namespace
}  // namespace dbs::lint
