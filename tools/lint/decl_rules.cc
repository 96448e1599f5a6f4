#include "tools/lint/decl_rules.h"

#include <algorithm>
#include <optional>

namespace dbs::lint {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

// Scope classification for each brace the tracker meets.
enum class Scope { kNamespace, kClass, kEnum, kFunction, kInit };

const std::set<std::string>& DeclSpecifiers() {
  static const std::set<std::string> kSpecs = {
      "static",   "virtual",   "inline", "constexpr", "consteval",
      "constinit", "explicit", "friend", "extern",    "mutable",
  };
  return kSpecs;
}

const std::set<std::string>& StatementKeywords() {
  static const std::set<std::string> kWords = {
      "return", "if",    "else",     "do",       "while",     "for",
      "switch", "case",  "goto",     "break",    "continue",  "delete",
      "throw",  "new",   "using",    "typedef",  "co_await",  "co_return",
      "co_yield", "static_assert", "sizeof", "default",
  };
  return kWords;
}

// Skips a balanced <...> starting at `k` (which must be '<'); ">>" closes
// two levels. Returns the index just past the closing '>', or `end` if
// unbalanced.
size_t SkipAngles(const std::vector<Token>& toks, size_t k, size_t end) {
  int depth = 0;
  for (; k < end; ++k) {
    if (IsPunct(toks[k], "<")) {
      ++depth;
    } else if (IsPunct(toks[k], ">")) {
      if (--depth == 0) return k + 1;
    } else if (IsPunct(toks[k], ">>")) {
      depth -= 2;
      if (depth <= 0) return k + 1;
    } else if (IsPunct(toks[k], ";") || IsPunct(toks[k], "{")) {
      break;  // clearly not template arguments
    }
  }
  return end;
}

// A function declarator parsed out of one declaration-scope statement.
// Only the return types the rules care about are recognized: Status,
// Result<...> (the nodiscard contract) and void (to disambiguate name
// collisions like Server::RequestShutdown/void vs
// Client::RequestShutdown/Status in the unchecked-status name set).
struct StatusFnDecl {
  std::string name;      // unqualified function name
  bool returns_void = false;
  bool qualified = false;  // out-of-line definition (Foo::Bar)
  bool has_nodiscard = false;
  int line = 0;
};

// Tries to parse `toks[begin, end)` as a declaration of a function whose
// return type is Status, Result<...> or void (optionally qualified).
std::optional<StatusFnDecl> ParseStatusFnDecl(const std::vector<Token>& toks,
                                              size_t begin, size_t end) {
  size_t k = begin;
  bool has_nodiscard = false;
  // Leading attributes, specifiers and template introducers.
  while (k < end) {
    if (k + 1 < end && IsPunct(toks[k], "[") && IsPunct(toks[k + 1], "[")) {
      k += 2;
      while (k < end && !(k + 1 < end && IsPunct(toks[k], "]") &&
                          IsPunct(toks[k + 1], "]"))) {
        if (IsIdent(toks[k], "nodiscard")) has_nodiscard = true;
        ++k;
      }
      k = std::min(end, k + 2);
      continue;
    }
    if (toks[k].kind == TokKind::kIdent &&
        DeclSpecifiers().count(toks[k].text) != 0) {
      ++k;
      continue;
    }
    if (k + 1 < end && IsIdent(toks[k], "template") &&
        IsPunct(toks[k + 1], "<")) {
      k = SkipAngles(toks, k + 1, end);
      continue;
    }
    break;
  }
  // Return type: (:: )?(ident ::)* ident, ending in Status or Result<...>.
  if (k < end && IsPunct(toks[k], "::")) ++k;
  std::string type_name;
  while (k < end && toks[k].kind == TokKind::kIdent) {
    type_name = toks[k].text;
    if (k + 1 < end && IsPunct(toks[k + 1], "::")) {
      k += 2;
      continue;
    }
    ++k;
    break;
  }
  if (type_name == "Result") {
    if (k >= end || !IsPunct(toks[k], "<")) return std::nullopt;
    k = SkipAngles(toks, k, end);
  } else if (type_name != "Status" && type_name != "void") {
    return std::nullopt;
  }
  // Returning Status*/Status& is not a discardable-error signature.
  if (k < end && (IsPunct(toks[k], "*") || IsPunct(toks[k], "&") ||
                  IsPunct(toks[k], "&&"))) {
    return std::nullopt;
  }
  // Declarator name: (ident ::)* ident directly followed by '('.
  StatusFnDecl decl;
  decl.returns_void = type_name == "void";
  decl.has_nodiscard = has_nodiscard;
  decl.line = toks[begin].line;
  while (k < end && toks[k].kind == TokKind::kIdent) {
    if (toks[k].text == "operator") return std::nullopt;
    decl.name = toks[k].text;
    if (k + 2 < end && IsPunct(toks[k + 1], "::")) {
      decl.qualified = true;
      k += 2;
      continue;
    }
    ++k;
    break;
  }
  if (decl.name.empty() || k >= end || !IsPunct(toks[k], "(")) {
    return std::nullopt;
  }
  return decl;
}

// The scope tracker: walks the comment-free token stream classifying every
// brace, and hands each completed declaration/statement span to `on_decl`
// (namespace/class scope) or `on_stmt` (function scope). Spans are indices
// into `code`, which itself indexes into the full token stream.
template <typename DeclFn, typename StmtFn, typename ClassMemberFn>
void WalkScopes(const std::vector<Token>& all,
                const std::vector<size_t>& code, DeclFn on_decl,
                StmtFn on_stmt, ClassMemberFn on_class_member) {
  struct Frame {
    Scope scope;
    int saved_paren_depth;
  };
  std::vector<Frame> frames{{Scope::kNamespace, 0}};
  int paren_depth = 0;
  size_t stmt_start = 0;  // index into `code`
  bool seen_question = false;

  auto tok = [&](size_t j) -> const Token& { return all[code[j]]; };
  const size_t m = code.size();

  for (size_t j = 0; j < m; ++j) {
    const Token& t = tok(j);
    const Scope scope = frames.back().scope;
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[") {
        ++paren_depth;
        continue;
      }
      if (t.text == ")" || t.text == "]") {
        if (paren_depth > 0) --paren_depth;
        continue;
      }
      if (t.text == "?") {
        seen_question = true;
        continue;
      }
      if (t.text == "{") {
        Scope entered = Scope::kInit;
        if (paren_depth > 0) {
          entered = Scope::kFunction;  // lambda body in an argument list
        } else if (scope == Scope::kFunction) {
          entered = Scope::kFunction;  // nested block
        } else if (scope == Scope::kInit || scope == Scope::kEnum) {
          entered = Scope::kInit;
        } else {
          // Namespace or class scope: classify from the statement prefix.
          bool is_function = false;
          for (size_t b = j; b > stmt_start;) {
            --b;
            const Token& p = tok(b);
            if (p.kind == TokKind::kIdent) continue;
            if (p.kind == TokKind::kPunct &&
                (p.text == "::" || p.text == "<" || p.text == ">" ||
                 p.text == ">>" || p.text == "&" || p.text == "&&" ||
                 p.text == "*" || p.text == "->" || p.text == "...")) {
              continue;
            }
            is_function = p.kind == TokKind::kPunct && p.text == ")";
            break;
          }
          bool has_class = false, has_namespace = false, has_enum = false,
               prev_eq = false, extern_lang = false;
          for (size_t b = stmt_start; b < j; ++b) {
            const Token& p = tok(b);
            if (IsIdent(p, "class") || IsIdent(p, "struct") ||
                IsIdent(p, "union")) {
              has_class = true;
            } else if (IsIdent(p, "namespace")) {
              has_namespace = true;
            } else if (IsIdent(p, "enum")) {
              has_enum = true;
            }
          }
          if (j > stmt_start) {
            prev_eq = IsPunct(tok(j - 1), "=");
            extern_lang = tok(j - 1).kind == TokKind::kString &&
                          j >= 2 && IsIdent(tok(j - 2), "extern");
          }
          if (has_namespace || extern_lang) {
            entered = Scope::kNamespace;
          } else if (is_function) {
            // A function definition is also a declaration — surface it
            // before entering the body.
            on_decl(scope, stmt_start, j);
            entered = Scope::kFunction;
          } else if (prev_eq) {
            entered = Scope::kInit;
          } else if (has_enum) {
            entered = Scope::kEnum;
          } else if (has_class) {
            entered = Scope::kClass;
          } else {
            entered = Scope::kFunction;
          }
        }
        frames.push_back({entered, paren_depth});
        paren_depth = 0;
        stmt_start = j + 1;
        seen_question = false;
        continue;
      }
      if (t.text == "}") {
        if (frames.size() > 1) {
          paren_depth = frames.back().saved_paren_depth;
          frames.pop_back();
        }
        stmt_start = j + 1;
        seen_question = false;
        continue;
      }
      if (t.text == ";" && paren_depth == 0) {
        if (scope == Scope::kNamespace || scope == Scope::kClass) {
          on_decl(scope, stmt_start, j);
          if (scope == Scope::kClass) on_class_member(stmt_start, j);
        } else if (scope == Scope::kFunction) {
          on_stmt(stmt_start, j);
        }
        stmt_start = j + 1;
        seen_question = false;
        continue;
      }
      if (t.text == ":" && paren_depth == 0 && !seen_question) {
        // Access specifiers and labels start a fresh statement; ctor
        // initializer lists do not reach here (their ':' follows ')').
        const bool access =
            j == stmt_start + 1 &&
            (IsIdent(tok(stmt_start), "public") ||
             IsIdent(tok(stmt_start), "private") ||
             IsIdent(tok(stmt_start), "protected"));
        const bool label =
            scope == Scope::kFunction && j == stmt_start + 1 &&
            tok(stmt_start).kind == TokKind::kIdent;
        if (access || label) stmt_start = j + 1;
        continue;
      }
    }
  }
}

// Indices of non-comment, non-directive tokens. Directive tokens are
// excluded so braces inside macro bodies cannot corrupt the scope stack.
std::vector<size_t> CodeTokens(const std::vector<Token>& all) {
  std::vector<size_t> code;
  code.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].kind != TokKind::kComment && !all[i].in_directive) {
      code.push_back(i);
    }
  }
  return code;
}

}  // namespace

StatusFunctionSets CollectStatusFunctions(const std::vector<Token>& tokens) {
  StatusFunctionSets sets;
  const std::vector<size_t> code = CodeTokens(tokens);
  std::vector<Token> view;
  view.reserve(code.size());
  for (size_t i : code) view.push_back(tokens[i]);
  WalkScopes(
      tokens, code,
      [&](Scope, size_t begin, size_t end) {
        if (auto decl = ParseStatusFnDecl(view, begin, end)) {
          (decl->returns_void ? sets.void_returning : sets.status_returning)
              .insert(decl->name);
        }
      },
      [](size_t, size_t) {}, [](size_t, size_t) {});
  return sets;
}

std::vector<Finding> CheckDeclRules(const std::string& path,
                                    const std::vector<Token>& tokens,
                                    const DeclRuleOptions& options) {
  std::vector<Finding> findings;
  auto add = [&](const std::string& rule, int line, std::string message) {
    Finding f;
    f.rule = rule;
    f.file = path;
    f.line = line;
    f.message = std::move(message);
    findings.push_back(std::move(f));
  };

  const std::vector<size_t> code = CodeTokens(tokens);
  std::vector<Token> view;  // the code tokens themselves, for span parsing
  view.reserve(code.size());
  for (size_t i : code) view.push_back(tokens[i]);

  const bool in_src = StartsWith(path, "src/");
  const bool fp_scope = StartsWith(path, "src/density/") ||
                        StartsWith(path, "src/core/") ||
                        StartsWith(path, "src/shard/");

  // --- declaration / statement rules via the scope tracker ------------------
  auto on_decl = [&](Scope, size_t begin, size_t end) {
    auto decl = ParseStatusFnDecl(view, begin, end);
    if (!decl || decl->returns_void || decl->has_nodiscard ||
        decl->qualified) {
      return;
    }
    add("nodiscard-status", decl->line,
        "function returning Status/Result must be [[nodiscard]]; a "
        "silently dropped error Status is how a failed build turns into "
        "a wrong answer downstream");
  };

  auto on_stmt = [&](size_t begin, size_t end) {
    if (options.status_functions == nullptr || begin >= end) return;
    if (view[begin].kind != TokKind::kIdent ||
        StatementKeywords().count(view[begin].text) != 0) {
      return;
    }
    // The statement must be a pure postfix call chain: identifiers,
    // scope/member accessors and call groups only, ending in ');'.
    int depth = 0;
    bool pure = true;
    bool prev_ident = false;
    size_t final_open = end;  // '(' whose match is the last token
    for (size_t k = begin; k < end && pure; ++k) {
      const Token& t = view[k];
      if (IsPunct(t, "(") || IsPunct(t, "[")) {
        if (depth == 0 && t.text == "(") final_open = k;
        ++depth;
        prev_ident = false;
      } else if (IsPunct(t, ")") || IsPunct(t, "]")) {
        --depth;
        prev_ident = false;
      } else if (depth > 0) {
        // Arguments may contain anything.
      } else if (t.kind == TokKind::kIdent) {
        if (prev_ident || StatementKeywords().count(t.text) != 0) {
          pure = false;  // two adjacent identifiers = a declaration
        }
        prev_ident = true;
      } else if (IsPunct(t, "::") || IsPunct(t, ".") || IsPunct(t, "->")) {
        prev_ident = false;
      } else {
        pure = false;  // assignment, comparison, stream op, ternary, ...
      }
    }
    if (!pure || depth != 0 || final_open == end || final_open == begin ||
        !IsPunct(view[end - 1], ")")) {
      return;
    }
    const Token& callee = view[final_open - 1];
    if (callee.kind != TokKind::kIdent ||
        options.status_functions->count(callee.text) == 0) {
      return;
    }
    add("unchecked-status", view[begin].line,
        "expression-statement call to Status/Result-returning `" +
            callee.text +
            "` discards the error; assign it, DBS_RETURN_IF_ERROR it, or "
            "allow-annotate why it cannot fail");
  };

  auto on_class_member = [&](size_t begin, size_t end) {
    static const std::set<std::string> kMutexTypes = {
        "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
        "shared_timed_mutex"};
    size_t hit = end;
    for (size_t k = begin; k < end; ++k) {
      if (IsPunct(view[k], "(")) return;  // parameter list, not a member
      if (view[k].kind == TokKind::kIdent &&
          kMutexTypes.count(view[k].text) != 0) {
        hit = k;
        break;
      }
    }
    if (hit == end) return;
    // Adjacent comment: one ending on the line above the declaration, or
    // trailing on the declaration's own line.
    const int first_line = view[begin].line;
    const int last_line = view[end - 1].line;
    const size_t first_all = code[begin];
    bool commented = false;
    if (first_all > 0 && tokens[first_all - 1].kind == TokKind::kComment &&
        tokens[first_all - 1].end_line + 1 >= first_line) {
      commented = true;
    }
    for (size_t i = code[end - 1] + 1;
         !commented && i < tokens.size() && tokens[i].line <= last_line; ++i) {
      if (tokens[i].kind == TokKind::kComment) commented = true;
    }
    if (!commented) {
      add("mutex-comment", first_line,
          "mutex member needs an adjacent comment stating what it guards "
          "and its place in the lock order");
    }
  };

  WalkScopes(tokens, code, on_decl, on_stmt, on_class_member);

  // --- token-pattern rules ---------------------------------------------------
  const size_t m = view.size();
  for (size_t k = 0; k < m; ++k) {
    const Token& t = view[k];
    if (t.kind != TokKind::kIdent) continue;

    // fp-accum: order-unspecified accumulation in the library.
    if (in_src && t.text == "reduce" && k >= 2 && IsPunct(view[k - 1], "::") &&
        IsIdent(view[k - 2], "std")) {
      add("fp-accum", t.line,
          "std::reduce may reassociate the sum; the bitwise pins assume "
          "left-to-right scalar accumulation (std::accumulate or a plain "
          "loop)");
    }
    if (in_src && t.text == "accumulate" && k + 1 < m &&
        IsPunct(view[k + 1], "(")) {
      int depth = 0;
      for (size_t j = k + 1; j < m; ++j) {
        if (IsPunct(view[j], "(")) ++depth;
        if (IsPunct(view[j], ")") && --depth == 0) break;
        if (IsIdent(view[j], "execution")) {
          add("fp-accum", t.line,
              "std::accumulate with an execution policy may reorder the "
              "sum; bitwise determinism requires the sequential overload");
          break;
        }
      }
    }
    if (fp_scope && t.text == "for" && k + 1 < m && IsPunct(view[k + 1], "(")) {
      int depth = 0;
      bool ranged = false, unordered = false;
      for (size_t j = k + 1; j < m; ++j) {
        if (IsPunct(view[j], "(")) ++depth;
        if (IsPunct(view[j], ")") && --depth == 0) break;
        if (depth == 1 && IsPunct(view[j], ":")) ranged = true;
        if (view[j].kind == TokKind::kIdent &&
            StartsWith(view[j].text, "unordered_")) {
          unordered = true;
        }
      }
      if (ranged && unordered) {
        add("fp-accum", t.line,
            "range-for over an unordered_* container iterates in hash "
            "order; accumulating through it breaks bitwise "
            "reproducibility");
      }
    }

    // clock-now: wall-clock reads outside bench/ and the audited timers.
    if ((in_src || StartsWith(path, "tools/")) &&
        path != "src/eval/experiment.h") {
      if (EndsWith(t.text, "_clock") && k + 2 < m &&
          IsPunct(view[k + 1], "::") && IsIdent(view[k + 2], "now")) {
        add("clock-now", t.line,
            "wall-clock reads outside bench/ and the audited timing code "
            "(eval/experiment.h Timer) make runs time-dependent");
      }
      if (t.text == "clock" && k + 1 < m && IsPunct(view[k + 1], "(") &&
          !(k >= 1 && (IsPunct(view[k - 1], "::") || IsPunct(view[k - 1], ".") ||
                       IsPunct(view[k - 1], "->")))) {
        add("clock-now", t.line,
            "clock() makes runs time-dependent; timing belongs in bench/ "
            "or eval/experiment.h Timer");
      }
    }

    // relaxed-atomic: relaxed ordering needs a written argument per use.
    if (t.text == "memory_order_relaxed" ||
        (t.text == "relaxed" && k >= 2 && IsPunct(view[k - 1], "::") &&
         IsIdent(view[k - 2], "memory_order"))) {
      add("relaxed-atomic", t.line,
          "memory_order_relaxed needs a written happens-before argument; "
          "use the default seq_cst ordering, or allow-annotate this use "
          "with the argument");
    }

    // detached-thread: every thread in this codebase joins.
    if (t.text == "detach" && k >= 1 &&
        (IsPunct(view[k - 1], ".") || IsPunct(view[k - 1], "->")) &&
        k + 1 < m && IsPunct(view[k + 1], "(")) {
      add("detached-thread", t.line,
          "detached threads outlive shutdown ordering and escape TSan; "
          "own the thread and join it (see FileScan::prefetch_thread_)");
    }
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return findings;
}

}  // namespace dbs::lint
