// dbs_lint: project-invariant checks that generic linters cannot express.
//
// The repo's headline guarantees are determinism guarantees — bitwise
// identical densities at any worker count, byte-identical samples for a
// fixed seed. Those rest on coding invariants (deterministic seeding, no
// unordered-container iteration feeding results, Status-based error
// handling, a silent library) that nothing in the type system enforces.
// This library is a single-pass line/token scanner over the tree that
// makes each invariant mechanical:
//
//   nondet-seed        no std::random_device / rand / srand / time(...)
//                      seeding anywhere; all randomness flows through
//                      util/rng.h with an explicit seed.
//   library-print      no std::cout / std::cerr / printf-family in src/
//                      outside src/util/check.h and src/eval/report.* —
//                      the library reports through Status, not stdio.
//   raw-alloc          no raw new / delete / malloc-family; ownership is
//                      expressed with containers and smart pointers.
//                      (`= delete` declarations are not allocations and
//                      are ignored.)
//   unordered-container no std::unordered_map / std::unordered_set in
//                      src/density/, src/core/, src/shard/ and
//                      src/outlier/ — hash-order iteration is what broke
//                      bitwise reproducibility before the flat sorted
//                      table; keep it out of the numeric core and the
//                      shard merge/fan-out paths, whose tree-reduce must
//                      be invariant to merge order.
//   serve-throw        no `throw` in src/serve/ — the serving stack's
//                      error contract is Status codes on the wire.
//   shared-temp-path   no `TempDir() + "literal"` in tests/ — ctest -j
//                      runs every TEST as its own concurrent process, so
//                      a fixed temp name is shared between them; use
//                      test::TempPath (tests/test_temp.h).
//   header-guard       every header opens with #ifndef or #pragma once.
//   using-namespace-header  no `using namespace` at header scope.
//
// Comments and string/char literals are stripped before matching, so prose
// about `new` or "printf" never trips a rule. Two suppression channels:
//
//   // dbs-lint: allow(rule-a, rule-b)   on the offending line, or alone
//                                        on the line above it.
//   a baseline file                      pre-existing findings listed as
//                                        `rule|path|normalized code` fail
//                                        the run only when newly introduced.
//
// The scanner is deliberately textual: it runs in milliseconds with no
// compile database, and every rule is a token pattern a reviewer can grep
// for by hand to double-check a finding.
//
// Since PR 8 the line scanner is the first of three passes. A real lexer
// (tools/lint/lexer.h) feeds two semantic passes that line scanning
// cannot express: the include-graph layering pass (include_graph.h:
// layer-violation, include-cycle, frozen-include) and the declaration/
// statement pass (decl_rules.h: nodiscard-status, unchecked-status,
// fp-accum, clock-now, relaxed-atomic, detached-thread, mutex-comment).
// LintTree below runs all three over a whole file set; LintSource keeps
// its original meaning — the per-file line rules — so existing callers
// and the baseline format are unchanged. `ExplainRule` documents every
// rule for the CLI's explain= flag.

#ifndef DBS_TOOLS_LINT_LINT_H_
#define DBS_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

namespace dbs::lint {

struct LayerMatrix;  // include_graph.h

struct Finding {
  std::string rule;
  std::string file;   // path as supplied, '/'-separated, repo-relative
  int line = 0;       // 1-based
  std::string code;   // offending code line, whitespace-normalized
  std::string message;
};

// One source line after comment/literal stripping.
struct CodeLine {
  std::string code;  // comments and literal contents blanked out
  std::string raw;   // original text (where allow() markers live)
};

// Splits `content` into lines with comments and string/char literal bodies
// replaced by spaces. Handles //, /* */, and raw string literals; line
// numbering is preserved (a multi-line /* */ blanks every covered line).
std::vector<CodeLine> StripComments(const std::string& content);

// Runs every line rule applicable to `path` over `content`. `path` must be
// repo-relative with '/' separators (rules dispatch on its prefix).
// Findings suppressed by a `dbs-lint: allow(...)` marker are dropped here.
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& content);

// Drops findings whose line carries a `dbs-lint: allow(rule)` marker (on
// the finding's line, or alone on the line above). Exposed so the token
// passes share the line rules' suppression semantics.
std::vector<Finding> ApplyAllowMarkers(const std::vector<CodeLine>& lines,
                                       const std::vector<Finding>& findings);

// One file handed to the tree-level passes.
struct SourceFile {
  std::string path;     // repo-relative, '/'-separated
  std::string content;
};

struct TreeOptions {
  // Layering matrix for the include-graph pass; the pass is skipped when
  // null (unit tests drive it directly, the CLI always supplies one).
  const LayerMatrix* layers = nullptr;
};

struct TreeResult {
  std::vector<Finding> findings;  // sorted by (file, line, rule)
  std::vector<std::string> notes; // informational: skipped includes, etc.
};

// Runs all three passes — line rules, decl/statement rules (with the
// tree-wide Status-function set), and the include-graph pass — over the
// whole file set. Allow-marker suppression applies to every pass.
TreeResult LintTree(const std::vector<SourceFile>& files,
                    const TreeOptions& options);

// One-paragraph rationale for a rule name (the CLI's explain= flag), or
// nullptr for unknown rules.
const char* ExplainRule(const std::string& rule);

// Every rule name the analyzer can emit, sorted.
std::vector<std::string> AllRules();

// Baseline entries are `rule|path|normalized code` lines; duplicates mean
// multiplicity. '#' lines and blank lines are ignored.
std::vector<std::string> ParseBaseline(const std::string& text);

// Removes findings matched by baseline entries (each entry consumes one
// occurrence). Returns the findings that remain — the newly introduced ones.
std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::vector<std::string>& baseline);

// Renders findings in the baseline file format, one line each, sorted.
std::string FormatBaseline(const std::vector<Finding>& findings);

// Human-readable `path:line: [rule] message` lines plus a summary line.
std::string FormatText(const std::vector<Finding>& findings);

// JSON array of {rule, file, line, code, message} objects.
std::string FormatJson(const std::vector<Finding>& findings);

// GitHub workflow annotations: `::error file=...,line=...::message` — CI
// emits these so findings appear inline on pull requests.
std::string FormatGithub(const std::vector<Finding>& findings);

}  // namespace dbs::lint

#endif  // DBS_TOOLS_LINT_LINT_H_
