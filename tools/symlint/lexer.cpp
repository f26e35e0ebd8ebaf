#include "lexer.hpp"

#include <algorithm>
#include <cctype>
#include <set>

#include "lint.hpp"

namespace symlint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parse "allow(<rule>) reason=<text>" annotations out of comments carrying
/// the marker token ("symlint" followed by a colon). Comments without the
/// marker are ignored entirely, as is namespace qualification ("symlint" and
/// two colons, which closing-namespace comments produce).
void parse_annotation(std::string_view comment, int line, Lexed& out) {
  auto marker = std::string_view::npos;
  for (auto at = comment.find("symlint:"); at != std::string_view::npos;
       at = comment.find("symlint:", at + 8)) {
    if (comment.size() > at + 8 && comment[at + 8] == ':') continue;
    marker = at;
    break;
  }
  if (marker == std::string_view::npos) return;
  std::string_view rest = comment.substr(marker + 8);

  const auto open = rest.find("allow(");
  if (open == std::string_view::npos) {
    out.annotation_errors.push_back(
        {line, "symlint: marker without allow(<rule>)"});
    return;
  }
  const auto close = rest.find(')', open);
  if (close == std::string_view::npos) {
    out.annotation_errors.push_back({line, "unterminated allow("});
    return;
  }
  std::string rule(rest.substr(open + 6, close - open - 6));

  bool has_reason = false;
  const auto reason = rest.find("reason=", close);
  if (reason != std::string_view::npos) {
    std::string_view text = rest.substr(reason + 7);
    // Reason must contain at least one non-space character.
    has_reason = std::any_of(text.begin(), text.end(), [](char c) {
      return !std::isspace(static_cast<unsigned char>(c));
    });
  }
  if (!has_reason) {
    out.annotation_errors.push_back(
        {line, "allow(" + rule + ") annotation missing reason="});
    return;
  }
  if (!is_known_allow_rule(rule)) {
    out.annotation_errors.push_back(
        {line, "allow() with unknown rule '" + rule + "'"});
    return;
  }
  out.allows[line].push_back({std::move(rule), true});
}

}  // namespace

bool is_free_call(const std::vector<Token>& tokens, std::size_t i) {
  if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") return false;
  if (i == 0) return true;
  const Token& pv = tokens[i - 1];
  if (pv.text == "." || pv.text == "->") return false;
  if (pv.text != "::") return true;
  // "::time(" (global) and "std::time(" are the libc call; any other
  // qualifier ("Foo::time") is a different function. Keywords before "::"
  // ("return ::time(...)") are not qualifiers.
  static const std::set<std::string_view> kNonQualifiers = {
      "return", "co_return", "co_await", "co_yield", "throw",
      "else",   "do",        "case",     "default",
  };
  if (i < 2) return true;
  const Token& qual = tokens[i - 2];
  return qual.kind != Token::kIdent || qual.text == "std" ||
         kNonQualifiers.count(qual.text) != 0;
}

bool is_std_qualified(const std::vector<Token>& tokens, std::size_t i) {
  return i >= 2 && tokens[i - 1].text == "::" &&
         tokens[i - 2].kind == Token::kIdent && tokens[i - 2].text == "std";
}

bool is_known_allow_rule(std::string_view rule) noexcept {
  for (const auto& info : kRules) {
    if (info.rule != Rule::kAnnotation && info.name == rule) return true;
  }
  return false;
}

Lexed lex(std::string_view src) {
  Lexed out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto advance_over = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i) {
      if (src[i] == '\n') ++line;
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const auto end = src.find('\n', i);
      const auto text =
          src.substr(i, end == std::string_view::npos ? n - i : end - i);
      parse_annotation(text, line, out);
      i += text.size();
      continue;
    }
    // Block comment (annotation applies to the line where it starts).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const auto end = src.find("*/", i + 2);
      const auto stop = end == std::string_view::npos ? n : end + 2;
      parse_annotation(src.substr(i, stop - i), line, out);
      advance_over(stop - i);
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t d = i + 2;
      while (d < n && src[d] != '(') ++d;
      const std::string closer =
          ")" + std::string(src.substr(i + 2, d - i - 2)) + "\"";
      const auto end = src.find(closer, d);
      const auto stop =
          end == std::string_view::npos ? n : end + closer.size();
      advance_over(stop - i);
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != c) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      advance_over(std::min(j + 1, n) - i);
      continue;
    }
    // Number (skip; digit separators and exponent signs included).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < n && (ident_char(src[j]) || src[j] == '\'' ||
                       src[j] == '.' ||
                       ((src[j] == '+' || src[j] == '-') &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      i = j;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back({Token::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation; "::" and "->" matter to the rules, keep them whole.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({Token::kPunct, src.substr(i, 2), line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({Token::kPunct, src.substr(i, 2), line});
      i += 2;
      continue;
    }
    out.tokens.push_back({Token::kPunct, src.substr(i, 1), line});
    ++i;
  }
  return out;
}

std::vector<StringCallSite> extract_string_calls(std::string_view src) {
  std::vector<StringCallSite> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;

  // Pending pattern state: ident seen, then '(' (state 1), then optionally
  // '{' (state 2). A string literal arriving in state 1/2 is a capture; any
  // other token resets.
  int state = 0;
  std::string ident;
  std::string pending_func;
  int pending_line = 0;

  auto advance_over = [&](std::size_t stop) {
    for (; i < stop && i < n; ++i) {
      if (src[i] == '\n') ++line;
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments may sit between the '(' and the literal; skip, keep state.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const auto end = src.find('\n', i);
      i = end == std::string_view::npos ? n : end;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const auto end = src.find("*/", i + 2);
      advance_over(end == std::string_view::npos ? n : end + 2);
      continue;
    }
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '"') {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      if (state == 1 || state == 2) {
        StringCallSite sc;
        sc.func = pending_func;
        sc.literal = std::string(src.substr(i + 1, j - i - 1));
        sc.line = pending_line;
        sc.brace_init = state == 2;
        // Peek past the closing quote for '+' (runtime concatenation).
        std::size_t k = j + 1;
        while (k < n && std::isspace(static_cast<unsigned char>(src[k]))) ++k;
        sc.concat = k < n && src[k] == '+';
        out.push_back(std::move(sc));
      }
      state = 0;
      ident.clear();
      advance_over(std::min(j + 1, n));
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '\'') {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      state = 0;
      ident.clear();
      advance_over(std::min(j + 1, n));
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      ident = std::string(src.substr(i, j - i));
      state = 0;
      i = j;
      continue;
    }
    if (c == '(') {
      if (!ident.empty()) {
        state = 1;
        pending_func = ident;
        pending_line = line;
      } else {
        state = 0;
      }
      ident.clear();
      ++i;
      continue;
    }
    if (c == '{' && state == 1) {
      state = 2;
      ++i;
      continue;
    }
    state = 0;
    ident.clear();
    ++i;
  }
  return out;
}

}  // namespace symlint
