// Declaration- and statement-level rules over the token stream.
//
// These rules need structure the line scanner in lint.cc cannot see:
// where declarations start, where statements end, and which scope (class
// body, namespace, function body) a token lives in. A lightweight scope
// tracker over the lexer's token stream provides that — it is not a
// parser, but it classifies every brace as namespace / class / enum /
// function-body / initializer, which is exactly enough for:
//
//   nodiscard-status   a function declared to return Status or Result<T>
//                      at namespace or class scope must carry
//                      [[nodiscard]]. Dropping a Status on the floor is
//                      how a failed Build() turns into a bitwise
//                      mismatch three layers later. Out-of-line member
//                      definitions are exempt (the attribute belongs on
//                      the in-class declaration).
//   unchecked-status   an expression statement that is exactly a call to
//                      a known Status/Result-returning function discards
//                      the error. Assign it, return it, wrap it in
//                      DBS_RETURN_IF_ERROR, or allow-annotate with the
//                      reason it cannot fail.
//   fp-accum           accumulation idioms whose evaluation order the
//                      standard leaves open: std::reduce anywhere in the
//                      library, std::accumulate with an execution
//                      policy, and range-for over an unordered_*
//                      container inside src/density|core|shard. The
//                      bitwise pins assume left-to-right scalar sums.
//   clock-now          `..._clock::now()` / `clock()` outside bench/ and
//                      the audited timing files; wall-clock reads feed
//                      timeouts and timings only, never results.
//   relaxed-atomic     std::memory_order_relaxed anywhere. Relaxed
//                      ordering is correct only with a written
//                      happens-before argument, which each use carries in
//                      its allow marker (a pure counter read after join,
//                      a stop flag that publishes no data).
//   detached-thread    std::thread::detach() — a detached thread
//                      outlives scope tracking, sanitizers and shutdown
//                      ordering; every thread in this codebase joins.
//   mutex-comment      a mutex member without an adjacent comment. The
//                      comment must say what the mutex guards and where
//                      it sits in the lock order; unannotated mutexes
//                      are how lock-order inversions get written.

#ifndef DBS_TOOLS_LINT_DECL_RULES_H_
#define DBS_TOOLS_LINT_DECL_RULES_H_

#include <set>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"
#include "tools/lint/lint.h"

namespace dbs::lint {

// Names of functions declared (anywhere in `tokens`) with a Status or
// Result<...> return type, including out-of-line member definitions —
// plus the names declared returning void, so the caller can subtract
// collisions (a name declared void somewhere cannot be flagged reliably
// from a token stream without overload resolution).
struct StatusFunctionSets {
  std::set<std::string> status_returning;
  std::set<std::string> void_returning;
};
StatusFunctionSets CollectStatusFunctions(const std::vector<Token>& tokens);

struct DeclRuleOptions {
  // Enables unchecked-status when non-null (the tree-wide name set).
  const std::set<std::string>* status_functions = nullptr;
};

// Runs every decl/statement rule applicable to `path` over `tokens`.
// Findings are NOT yet filtered through `dbs-lint: allow(...)` markers;
// the caller owns suppression (see LintTree).
std::vector<Finding> CheckDeclRules(const std::string& path,
                                    const std::vector<Token>& tokens,
                                    const DeclRuleOptions& options);

}  // namespace dbs::lint

#endif  // DBS_TOOLS_LINT_DECL_RULES_H_
