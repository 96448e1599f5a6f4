#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "tools/lint/decl_rules.h"
#include "tools/lint/include_graph.h"
#include "tools/lint/lexer.h"

namespace dbs::lint {
namespace {

bool IsIdent(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True when code[pos, pos+token.size()) equals `token` with identifier
// boundaries on both sides.
bool TokenAt(const std::string& code, size_t pos, const std::string& token) {
  if (code.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && IsIdent(code[pos - 1])) return false;
  const size_t after = pos + token.size();
  if (after < code.size() && IsIdent(code[after])) return false;
  return true;
}

// Positions of token-bounded occurrences of `token` in `code`.
std::vector<size_t> FindToken(const std::string& code,
                              const std::string& token) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    if (TokenAt(code, pos, token)) hits.push_back(pos);
    pos += 1;
  }
  return hits;
}

// First non-space character at or after `pos`, or '\0'.
char NextNonSpace(const std::string& s, size_t pos) {
  while (pos < s.size()) {
    if (!std::isspace(static_cast<unsigned char>(s[pos]))) return s[pos];
    ++pos;
  }
  return '\0';
}

// Last non-space character strictly before `pos`, or '\0'.
char PrevNonSpace(const std::string& s, size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(s[pos]))) return s[pos];
  }
  return '\0';
}

// The identifier token ending immediately before the non-space run that
// precedes `pos` ("operator" in "operator delete"), or "".
std::string PrevToken(const std::string& s, size_t pos) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(s[pos - 1]))) {
    --pos;
  }
  size_t end = pos;
  while (pos > 0 && IsIdent(s[pos - 1])) --pos;
  return s.substr(pos, end - pos);
}

std::string Normalize(const std::string& line) {
  std::string out;
  bool in_space = true;  // leading whitespace is dropped
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out.push_back(' ');
    in_space = false;
    out.push_back(c);
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsBlank(const std::string& s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// Parses every `dbs-lint: allow(a, b)` marker in `raw` into rule names.
std::vector<std::string> ParseAllowMarker(const std::string& raw) {
  std::vector<std::string> rules;
  const std::string marker = "dbs-lint: allow(";
  size_t pos = 0;
  while ((pos = raw.find(marker, pos)) != std::string::npos) {
    size_t cursor = pos + marker.size();
    const size_t close = raw.find(')', cursor);
    if (close == std::string::npos) break;
    std::string inside = raw.substr(cursor, close - cursor);
    std::string rule;
    std::istringstream list(inside);
    while (std::getline(list, rule, ',')) {
      rule = Normalize(rule);
      if (!rule.empty()) rules.push_back(rule);
    }
    pos = close;
  }
  return rules;
}

struct RuleContext {
  const std::string& path;
  const std::vector<CodeLine>& lines;
  std::vector<Finding>* findings;

  void Add(const std::string& rule, int line, const std::string& message) {
    Finding f;
    f.rule = rule;
    f.file = path;
    f.line = line;
    f.code = Normalize(lines[static_cast<size_t>(line - 1)].code);
    f.message = message;
    findings->push_back(std::move(f));
  }
};

// --- nondet-seed ------------------------------------------------------------

void CheckNondetSeed(RuleContext& ctx) {
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const int line = static_cast<int>(i) + 1;
    if (!FindToken(code, "random_device").empty()) {
      ctx.Add("nondet-seed", line,
              "std::random_device is nondeterministic; seed util/rng.h "
              "Rng explicitly");
      continue;
    }
    for (const char* fn : {"rand", "srand", "drand48", "random"}) {
      bool hit = false;
      for (size_t pos : FindToken(code, fn)) {
        if (NextNonSpace(code, pos + std::string(fn).size()) == '(') {
          ctx.Add("nondet-seed", line,
                  std::string(fn) +
                      "() draws from hidden global state; use util/rng.h "
                      "Rng with an explicit seed");
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    for (size_t pos : FindToken(code, "time")) {
      if (NextNonSpace(code, pos + 4) == '(') {
        ctx.Add("nondet-seed", line,
                "time() makes runs time-dependent; determinism requires "
                "explicit seeds");
        break;
      }
    }
  }
}

// --- library-print ----------------------------------------------------------

void CheckLibraryPrint(RuleContext& ctx) {
  if (!StartsWith(ctx.path, "src/")) return;
  if (ctx.path == "src/util/check.h") return;
  if (StartsWith(ctx.path, "src/eval/report.")) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const int line = static_cast<int>(i) + 1;
    for (const char* name : {"cout", "cerr", "printf", "fprintf", "puts",
                             "fputs", "putchar"}) {
      if (!FindToken(code, name).empty()) {
        ctx.Add("library-print", line,
                "the library must not print; report errors through Status "
                "and leave output to src/eval/report and the tools");
        break;
      }
    }
  }
}

// --- raw-alloc --------------------------------------------------------------

void CheckRawAlloc(RuleContext& ctx) {
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const int line = static_cast<int>(i) + 1;
    bool flagged = false;
    for (size_t pos : FindToken(code, "new")) {
      if (PrevToken(code, pos) == "operator") continue;
      ctx.Add("raw-alloc", line,
              "raw new; express ownership with containers or "
              "std::make_unique");
      flagged = true;
      break;
    }
    if (flagged) continue;
    for (size_t pos : FindToken(code, "delete")) {
      if (PrevNonSpace(code, pos) == '=') continue;  // `= delete` declaration
      if (PrevToken(code, pos) == "operator") continue;
      ctx.Add("raw-alloc", line,
              "raw delete; express ownership with containers or smart "
              "pointers");
      flagged = true;
      break;
    }
    if (flagged) continue;
    for (const char* fn : {"malloc", "calloc", "realloc", "free"}) {
      bool hit = false;
      for (size_t pos : FindToken(code, fn)) {
        if (NextNonSpace(code, pos + std::string(fn).size()) == '(') {
          ctx.Add("raw-alloc", line,
                  std::string(fn) + "() bypasses RAII; use containers or "
                                    "smart pointers");
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
  }
}

// --- unordered-container ----------------------------------------------------

void CheckUnorderedContainer(RuleContext& ctx) {
  // src/serve/ stays exempt — the model registry legitimately keys models
  // by hash. src/outlier/ is in scope because the exact detectors promise
  // byte-identical reports across algorithms and worker counts — the
  // cell-list grid in particular must keep cells and residents in
  // deterministic order.
  if (!StartsWith(ctx.path, "src/density/") &&
      !StartsWith(ctx.path, "src/core/") &&
      !StartsWith(ctx.path, "src/shard/") &&
      !StartsWith(ctx.path, "src/outlier/")) {
    return;
  }
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const int line = static_cast<int>(i) + 1;
    for (const char* name : {"unordered_map", "unordered_set",
                             "unordered_multimap", "unordered_multiset"}) {
      if (!FindToken(code, name).empty()) {
        ctx.Add("unordered-container", line,
                "hash-order iteration breaks the bitwise-reproducibility "
                "contract in the numeric core and the shard merge paths; "
                "use a sorted structure (see Kde::BuildIndex)");
        break;
      }
    }
  }
}

// --- serve-throw ------------------------------------------------------------

void CheckServeThrow(RuleContext& ctx) {
  if (!StartsWith(ctx.path, "src/serve/")) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    const int line = static_cast<int>(i) + 1;
    if (!FindToken(code, "throw").empty()) {
      ctx.Add("serve-throw", line,
              "the serving stack's error contract is Status codes on the "
              "wire; exceptions cannot cross it");
    }
  }
}

// --- shared-temp-path -------------------------------------------------------

// Index of the first non-space character at or after `pos`, or npos.
size_t SkipSpace(const std::string& s, size_t pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos < s.size() ? pos : std::string::npos;
}

void CheckSharedTempPath(RuleContext& ctx) {
  if (!StartsWith(ctx.path, "tests/")) return;
  const std::string call = "TempDir";
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    for (size_t pos : FindToken(code, call)) {
      // `TempDir()`, any closing parens of a wrapping call such as
      // std::string(...), then `+` and a string literal, possibly on the
      // next line.
      size_t k = SkipSpace(code, pos + call.size());
      if (k == std::string::npos || code[k] != '(') continue;
      k = SkipSpace(code, k + 1);
      if (k == std::string::npos || code[k] != ')') continue;
      k = SkipSpace(code, k + 1);
      while (k != std::string::npos && code[k] == ')') {
        k = SkipSpace(code, k + 1);
      }
      if (k == std::string::npos || code[k] != '+') continue;
      k = SkipSpace(code, k + 1);
      char next = '\0';
      if (k != std::string::npos) {
        next = code[k];
      } else if (i + 1 < ctx.lines.size()) {
        next = NextNonSpace(ctx.lines[i + 1].code, 0);
      }
      if (next == '"') {
        ctx.Add("shared-temp-path", static_cast<int>(i) + 1,
                "a fixed name under TempDir() is shared by every test "
                "process ctest -j runs at once; use test::TempPath from "
                "tests/test_temp.h");
        break;
      }
    }
  }
}

// --- header rules -----------------------------------------------------------

void CheckHeaderRules(RuleContext& ctx) {
  if (!EndsWith(ctx.path, ".h")) return;
  int first_code_line = 0;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    if (!IsBlank(ctx.lines[i].code)) {
      first_code_line = static_cast<int>(i) + 1;
      break;
    }
  }
  if (first_code_line > 0) {
    std::string first =
        Normalize(ctx.lines[static_cast<size_t>(first_code_line - 1)].code);
    if (!StartsWith(first, "#ifndef") && !StartsWith(first, "#pragma once")) {
      ctx.Add("header-guard", first_code_line,
              "headers must open with an include guard (#ifndef or "
              "#pragma once)");
    }
  }
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    if (ctx.lines[i].code.find("using namespace") != std::string::npos) {
      ctx.Add("using-namespace-header", static_cast<int>(i) + 1,
              "`using namespace` in a header leaks into every includer");
    }
  }
}

}  // namespace

std::vector<CodeLine> StripComments(const std::string& content) {
  std::vector<CodeLine> lines;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string code;
  std::string raw;
  std::string raw_delim;  // `)delim"` terminator for raw string literals
  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    if (c == '\n') {
      lines.push_back({code, raw});
      code.clear();
      raw.clear();
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    raw.push_back(c);
    switch (state) {
      case State::kCode: {
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          state = State::kLineComment;
          raw.push_back('/');
          ++i;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          state = State::kBlockComment;
          raw.push_back('*');
          ++i;
          code.append("  ");
        } else if (c == '"' &&
                   (i == 0 || content[i - 1] != 'R' ||
                    (i >= 2 && IsIdent(content[i - 2])))) {
          state = State::kString;
          code.push_back('"');
        } else if (c == '"') {  // R"delim( raw string opener
          size_t close = content.find('(', i + 1);
          if (close == std::string::npos) {
            code.push_back('"');
            state = State::kString;
          } else {
            raw_delim = ")";
            raw_delim.append(content, i + 1, close - i - 1);
            raw_delim.push_back('"');
            state = State::kRawString;
            code.push_back('"');
            for (size_t k = i + 1; k <= close; ++k) raw.push_back(content[k]);
            i = close;
          }
        } else if (c == '\'') {
          state = State::kChar;
          code.push_back('\'');
        } else {
          code.push_back(c);
        }
        break;
      }
      case State::kLineComment:
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          state = State::kCode;
          raw.push_back('/');
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n && content[i + 1] != '\n') {
          raw.push_back(content[i + 1]);
          code.append("  ");
          ++i;
        } else if (c == '"') {
          code.push_back('"');
          state = State::kCode;
        } else {
          code.push_back(' ');
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n && content[i + 1] != '\n') {
          raw.push_back(content[i + 1]);
          code.append("  ");
          ++i;
        } else if (c == '\'') {
          code.push_back('\'');
          state = State::kCode;
        } else {
          code.push_back(' ');
        }
        break;
      case State::kRawString:
        if (c == ')' &&
            content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = i + 1; k < i + raw_delim.size(); ++k) {
            raw.push_back(content[k]);
          }
          i += raw_delim.size() - 1;
          code.push_back('"');
          state = State::kCode;
        } else {
          code.push_back(' ');
        }
        break;
    }
  }
  if (!raw.empty() || !code.empty()) lines.push_back({code, raw});
  return lines;
}

std::vector<Finding> LintSource(const std::string& path,
                                const std::string& content) {
  const std::vector<CodeLine> lines = StripComments(content);
  std::vector<Finding> findings;
  RuleContext ctx{path, lines, &findings};
  CheckNondetSeed(ctx);
  CheckLibraryPrint(ctx);
  CheckRawAlloc(ctx);
  CheckUnorderedContainer(ctx);
  CheckServeThrow(ctx);
  CheckSharedTempPath(ctx);
  CheckHeaderRules(ctx);

  std::vector<Finding> kept = ApplyAllowMarkers(lines, findings);
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return kept;
}

std::vector<Finding> ApplyAllowMarkers(const std::vector<CodeLine>& lines,
                                       const std::vector<Finding>& findings) {
  // Suppressions: a marker on the offending line, or alone on the line
  // above it (a comment-only line applies downward).
  std::vector<Finding> kept;
  for (const Finding& f : findings) {
    const size_t idx = static_cast<size_t>(f.line - 1);
    if (idx >= lines.size()) {
      kept.push_back(f);
      continue;
    }
    std::vector<std::string> allowed = ParseAllowMarker(lines[idx].raw);
    if (idx > 0 && IsBlank(lines[idx - 1].code)) {
      std::vector<std::string> above = ParseAllowMarker(lines[idx - 1].raw);
      allowed.insert(allowed.end(), above.begin(), above.end());
    }
    if (std::find(allowed.begin(), allowed.end(), f.rule) != allowed.end()) {
      continue;
    }
    kept.push_back(f);
  }
  return kept;
}

TreeResult LintTree(const std::vector<SourceFile>& files,
                    const TreeOptions& options) {
  TreeResult result;

  // Lex every file once; the decl pass and the include pass share the
  // token streams, and the stripped lines serve marker suppression and
  // the normalized `code` field of token-pass findings.
  struct Prepared {
    std::vector<Token> tokens;
    std::vector<CodeLine> lines;
  };
  std::map<std::string, Prepared> prepared;
  std::set<std::string> status_functions;
  std::set<std::string> void_functions;
  for (const SourceFile& file : files) {
    Prepared p;
    std::vector<LexNote> notes;
    p.tokens = Lex(file.content, &notes);
    p.lines = StripComments(file.content);
    for (const LexNote& n : notes) {
      result.notes.push_back(file.path + ":" + std::to_string(n.line) + ": " +
                             n.message);
    }
    const StatusFunctionSets local = CollectStatusFunctions(p.tokens);
    status_functions.insert(local.status_returning.begin(),
                            local.status_returning.end());
    void_functions.insert(local.void_returning.begin(),
                          local.void_returning.end());
    prepared.emplace(file.path, std::move(p));
  }
  // A name also declared void anywhere is ambiguous without overload
  // resolution; drop it rather than flag the wrong overload.
  for (const std::string& name : void_functions) {
    status_functions.erase(name);
  }

  auto fill_code_and_suppress = [](const Prepared& p,
                                   std::vector<Finding> raw) {
    for (Finding& f : raw) {
      const size_t idx = static_cast<size_t>(f.line - 1);
      if (f.code.empty() && idx < p.lines.size()) {
        f.code = Normalize(p.lines[idx].code);
      }
    }
    return ApplyAllowMarkers(p.lines, raw);
  };

  std::map<std::string, IncludeScan> scans;
  for (const SourceFile& file : files) {
    const Prepared& p = prepared.at(file.path);

    std::vector<Finding> file_findings = LintSource(file.path, file.content);

    DeclRuleOptions decl_options;
    decl_options.status_functions = &status_functions;
    std::vector<Finding> decl = fill_code_and_suppress(
        p, CheckDeclRules(file.path, p.tokens, decl_options));
    file_findings.insert(file_findings.end(), decl.begin(), decl.end());

    std::stable_sort(file_findings.begin(), file_findings.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.line != b.line) return a.line < b.line;
                       return a.rule < b.rule;
                     });
    result.findings.insert(result.findings.end(), file_findings.begin(),
                           file_findings.end());

    IncludeScan scan = ScanIncludes(p.tokens);
    for (const LexNote& n : scan.skipped) {
      result.notes.push_back(file.path + ":" + std::to_string(n.line) + ": " +
                             n.message);
    }
    scans.emplace(file.path, std::move(scan));
  }

  if (options.layers != nullptr) {
    for (Finding& f : CheckIncludeGraph(scans, *options.layers)) {
      const auto it = prepared.find(f.file);
      std::vector<Finding> one =
          it == prepared.end()
              ? std::vector<Finding>{f}
              : ApplyAllowMarkers(it->second.lines, {f});
      result.findings.insert(result.findings.end(), one.begin(), one.end());
    }
  }

  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return result;
}

namespace {

struct RuleDoc {
  const char* name;
  const char* rationale;
};

constexpr RuleDoc kRuleDocs[] = {
    {"nondet-seed",
     "All randomness flows through util/rng.h with an explicit seed. "
     "std::random_device, rand()/srand(), drand48() and time()-derived "
     "seeds make runs irreproducible, which breaks the byte-identity "
     "pins every optimized path is proven against."},
    {"library-print",
     "The library reports through Status, never stdio; printing belongs "
     "to src/eval/report and the tools. A library that prints cannot be "
     "embedded in the serving stack without corrupting its protocol."},
    {"raw-alloc",
     "Ownership is expressed with containers and smart pointers; raw "
     "new/delete/malloc bypass RAII and leak on early Status returns."},
    {"unordered-container",
     "Hash-order iteration is what broke bitwise reproducibility before "
     "the flat sorted KDE table. std::unordered_* stays out of "
     "src/density, src/core, src/shard and src/outlier, whose "
     "merge/report paths must be order-invariant."},
    {"serve-throw",
     "The serving stack's error contract is Status codes on the wire; "
     "an exception cannot cross a socket."},
    {"shared-temp-path",
     "In tests/, `TempDir() + \"literal\"` names one file for every test "
     "process. gtest_discover_tests makes each TEST its own process and "
     "ctest -j runs them at once, so they overwrite each other's files. "
     "tests/test_temp.h's test::TempPath gives each process its own "
     "mkdtemp directory."},
    {"header-guard",
     "Every header opens with #ifndef or #pragma once."},
    {"using-namespace-header",
     "`using namespace` at header scope leaks into every includer."},
    {"nodiscard-status",
     "Every function returning Status or Result<T> is declared "
     "[[nodiscard]] (the types themselves are nodiscard too, so the "
     "compiler backs the rule). An ignorable error return is how a "
     "failed Build() turns into a bitwise mismatch three layers later."},
    {"unchecked-status",
     "An expression statement that is exactly a call to a "
     "Status/Result-returning function drops the error on the floor. "
     "Assign it, return it, wrap it in DBS_RETURN_IF_ERROR, or "
     "allow-annotate the call with the reason it cannot fail."},
    {"fp-accum",
     "The bitwise pins (batched KDE, sharded merge, QMC tiling) assume "
     "left-to-right scalar accumulation. std::reduce, execution-policy "
     "std::accumulate and range-for accumulation over unordered_* "
     "containers all let the implementation reorder floating-point sums, "
     "which is exactly the nondeterminism the paper's equivalence "
     "contract forbids."},
    {"clock-now",
     "Wall-clock reads (std::chrono::*_clock::now, clock()) outside "
     "bench/ and the audited timing code (eval/experiment.h Timer) make "
     "library behavior time-dependent."},
    {"relaxed-atomic",
     "memory_order_relaxed is correct only where a written "
     "happens-before argument exists. No file is exempt: start from "
     "seq_cst and argue down, and put the argument in the allow "
     "marker of each relaxed use."},
    {"detached-thread",
     "Detached threads outlive shutdown ordering and escape TSan's "
     "leak-at-exit checks; every thread in this codebase is owned and "
     "joined (see FileScan and BatchExecutor)."},
    {"mutex-comment",
     "A mutex member must carry an adjacent comment naming what it "
     "guards and its place in the lock order; unannotated mutexes are "
     "how lock-order inversions get written."},
    {"layer-violation",
     "Include edges must respect the allowed-layers matrix in "
     "tools/lint/layers.txt: util → data → {density, sampling} "
     "→ {core, outlier} → {cluster, shard, serve, eval}. serve "
     "appears in no library module's allow list, so the serving stack "
     "can never be pulled under the library. Amend the matrix only with "
     "a reviewed edge, never by inverting a layer."},
    {"include-cycle",
     "The include graph must stay a DAG; a cycle means two headers each "
     "need the other and the layering has already been lost."},
    {"frozen-include",
     "Frozen oracle files (the do-not-improve reference implementations "
     "every optimized path is pinned against) may include nothing new; "
     "their include lists are pinned in tools/lint/layers.txt. An oracle "
     "that gains dependencies stops being an oracle."},
};

}  // namespace

const char* ExplainRule(const std::string& rule) {
  for (const RuleDoc& doc : kRuleDocs) {
    if (rule == doc.name) return doc.rationale;
  }
  return nullptr;
}

std::vector<std::string> AllRules() {
  std::vector<std::string> names;
  for (const RuleDoc& doc : kRuleDocs) names.push_back(doc.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> ParseBaseline(const std::string& text) {
  std::vector<std::string> entries;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (IsBlank(line) || line[0] == '#') continue;
    entries.push_back(line);
  }
  return entries;
}

namespace {

std::string BaselineKey(const Finding& f) {
  return f.rule + "|" + f.file + "|" + f.code;
}

}  // namespace

std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::vector<std::string>& baseline) {
  std::map<std::string, int> budget;
  for (const std::string& entry : baseline) ++budget[entry];
  std::vector<Finding> fresh;
  for (const Finding& f : findings) {
    auto it = budget.find(BaselineKey(f));
    if (it != budget.end() && it->second > 0) {
      --it->second;
      continue;
    }
    fresh.push_back(f);
  }
  return fresh;
}

std::string FormatBaseline(const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(BaselineKey(f));
  std::sort(keys.begin(), keys.end());
  std::string out =
      "# dbs_lint baseline: pre-existing findings grandfathered in.\n"
      "# Regenerate with: dbs_lint update_baseline=1\n"
      "# Format: rule|path|normalized code (duplicates = multiplicity)\n";
  for (const std::string& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n    " + f.code + "\n";
  }
  out += std::to_string(findings.size()) + " finding(s)\n";
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatJson(const std::vector<Finding>& findings) {
  std::string out = "[\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "  {\"rule\": \"" + JsonEscape(f.rule) + "\", \"file\": \"" +
           JsonEscape(f.file) + "\", \"line\": " + std::to_string(f.line) +
           ", \"code\": \"" + JsonEscape(f.code) + "\", \"message\": \"" +
           JsonEscape(f.message) + "\"}";
    out += (i + 1 < findings.size()) ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

std::string FormatGithub(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += "::error file=" + f.file + ",line=" + std::to_string(f.line) +
           ",title=dbs_lint " + f.rule + "::" + f.message + "\n";
  }
  return out;
}

}  // namespace dbs::lint
