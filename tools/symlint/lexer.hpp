// tools/symlint/lexer.hpp
//
// Shared lexical layer for both symlint passes. Pass 0 (per-TU scanning,
// lint.cpp) and pass 1 (cross-TU indexing, index.cpp) both consume the same
// token stream: identifiers and punctuation with comments, strings and
// numbers stripped, "::" and "->" kept as single tokens, plus the
// "allow(<rule>) reason=..." annotations parsed out of marked comments.
//
// Keeping one lexer means an annotation suppresses a finding identically
// whether the finding came from a lexical rule (D1-D4) or an
// interprocedural one (L1/E1/T1).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace symlint {

struct Token {
  enum Kind { kIdent, kPunct } kind;
  std::string_view text;
  int line;
};

/// True when tokens[i] is a *call* of a free (or std::/global-qualified)
/// function: followed by "(" and not a member access or a name qualified by
/// some other namespace or class ("Foo::time(" is not libc's time()).
[[nodiscard]] bool is_free_call(const std::vector<Token>& tokens,
                                std::size_t i);

/// True when tokens[i] is qualified as std::<ident>.
[[nodiscard]] bool is_std_qualified(const std::vector<Token>& tokens,
                                    std::size_t i);

struct AllowNote {
  std::string rule;  ///< annotation rule name, e.g. "unordered-iter"
  bool has_reason;
};

struct AnnotationError {
  int line;
  std::string message;
};

/// Lexed view of one TU: identifier/punctuation tokens plus the allow()
/// annotations found in comments. Annotation *errors* (missing reason=,
/// unknown rule) are collected here and turned into A0 findings by the
/// scanner.
struct Lexed {
  std::vector<Token> tokens;
  std::map<int, std::vector<AllowNote>> allows;  ///< line -> notes
  std::vector<AnnotationError> annotation_errors;
};

/// Tokenize one TU. `src` must outlive the returned view (tokens are
/// string_views into it).
[[nodiscard]] Lexed lex(std::string_view src);

/// A call whose first argument starts with a string literal:
/// `func("lit"...)` or aggregate-init `func({"lit"...)`. The main lexer
/// strips string literals, so the P1 pvar-contract rule uses this separate
/// comment-aware raw-text scan to see registration names.
struct StringCallSite {
  std::string func;     ///< identifier immediately before the '('
  std::string literal;  ///< the first string literal's content
  int line = 0;
  bool brace_init = false;  ///< literal was opened with "({"
  bool concat = false;      ///< literal is followed by '+' (runtime-built
                            ///< name; the literal is only a prefix)
};
[[nodiscard]] std::vector<StringCallSite> extract_string_calls(
    std::string_view src);

/// The set of rule names accepted in allow(<rule>) annotations.
[[nodiscard]] bool is_known_allow_rule(std::string_view rule) noexcept;

}  // namespace symlint
