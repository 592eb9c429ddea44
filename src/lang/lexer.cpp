#include "lang/lexer.hpp"

#include <charconv>
#include <cstring>
#include <memory>
#include <string_view>

namespace sdl::lang {
namespace {

// Keywords by length, then spelling: a word costs a switch and at most
// four short compares, no hashing.
Tok keyword_or_ident(std::string_view w) {
  switch (w.size()) {
    case 2:
      if (w == "or") return Tok::KwOr;
      break;
    case 3:
      if (w == "end") return Tok::KwEnd;
      if (w == "let") return Tok::KwLet;
      if (w == "and") return Tok::KwAnd;
      if (w == "not") return Tok::KwNot;
      break;
    case 4:
      if (w == "when") return Tok::KwWhen;
      if (w == "exit") return Tok::KwExit;
      if (w == "skip") return Tok::KwSkip;
      if (w == "init") return Tok::KwInit;
      if (w == "true") return Tok::KwTrue;
      break;
    case 5:
      if (w == "where") return Tok::KwWhere;
      if (w == "spawn") return Tok::KwSpawn;
      if (w == "abort") return Tok::KwAbort;
      if (w == "false") return Tok::KwFalse;
      break;
    case 6:
      if (w == "import") return Tok::KwImport;
      if (w == "export") return Tok::KwExport;
      if (w == "exists") return Tok::KwExists;
      if (w == "forall") return Tok::KwForall;
      break;
    case 7:
      if (w == "process") return Tok::KwProcess;
      break;
    case 8:
      if (w == "behavior") return Tok::KwBehavior;
      break;
    default:
      break;
  }
  return Tok::Ident;
}

// SDL source is ASCII: plain range checks, not the locale-aware <cctype>
// calls, which cost a function call per character.
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
constexpr bool is_word(char c) { return is_alpha(c) || is_digit(c) || c == '_'; }

}  // namespace

const char* tok_name(Tok t) {
  switch (t) {
    case Tok::End: return "end of input";
    case Tok::Ident: return "identifier";
    case Tok::Int: return "integer";
    case Tok::Float: return "float";
    case Tok::Str: return "string";
    case Tok::KwProcess: return "'process'";
    case Tok::KwImport: return "'import'";
    case Tok::KwExport: return "'export'";
    case Tok::KwBehavior: return "'behavior'";
    case Tok::KwEnd: return "'end'";
    case Tok::KwExists: return "'exists'";
    case Tok::KwForall: return "'forall'";
    case Tok::KwWhen: return "'when'";
    case Tok::KwWhere: return "'where'";
    case Tok::KwLet: return "'let'";
    case Tok::KwSpawn: return "'spawn'";
    case Tok::KwExit: return "'exit'";
    case Tok::KwAbort: return "'abort'";
    case Tok::KwSkip: return "'skip'";
    case Tok::KwInit: return "'init'";
    case Tok::KwTrue: return "'true'";
    case Tok::KwFalse: return "'false'";
    case Tok::KwAnd: return "'and'";
    case Tok::KwOr: return "'or'";
    case Tok::KwNot: return "'not'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::Comma: return "','";
    case Tok::Semi: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Pipe: return "'|'";
    case Tok::PipePipe: return "'||'";
    case Tok::Bang: return "'!'";
    case Tok::Star: return "'*'";
    case Tok::StarStar: return "'**'";
    case Tok::Arrow: return "'->'";
    case Tok::FatArrow: return "'=>'";
    case Tok::Caret: return "'^'";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::Eq: return "'='";
    case Tok::Ne: return "'!='";
    case Tok::Lt: return "'<'";
    case Tok::Le: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::Ge: return "'>='";
    case Tok::Assign: return "'='";
  }
  return "?";
}

// A string literal without escapes is a view of the source between its
// quotes; one with escapes is resolved into a string the token owns.
// Called with i_ on the opening quote.
void Lexer::lex_string(Token& out) {
  const std::size_t n = src_.size();
  const std::size_t start = i_ + 1;
  std::size_t j = start;
  for (; j < n && src_[j] != '"' && src_[j] != '\\'; ++j) {
    if (src_[j] == '\n') {
      ++line_;
      line_start_ = j + 1;
    }
  }
  out.kind = Tok::Str;
  if (j < n && src_[j] == '"') {
    out.text = src_.substr(start, j - start);
    i_ = j + 1;
    return;
  }
  auto unescaped = std::make_shared<std::string>(src_.substr(start, j - start));
  for (; j < n && src_[j] != '"'; ++j) {
    char c = src_[j];
    if (c == '\\' && j + 1 < n) {
      c = src_[++j];
      if (c == 'n') c = '\n';
      else if (c == 't') c = '\t';
    }
    if (src_[j] == '\n') {
      ++line_;
      line_start_ = j + 1;
    }
    *unescaped += c;
  }
  if (j >= n) throw ParseError("unterminated string literal", out.line, out.column);
  out.text = *unescaped;
  out.unescaped_ = std::move(unescaped);
  i_ = j + 1;
}

void Lexer::next(Token& out) {
  const std::size_t n = src_.size();
  const char* const s = src_.data();
  std::size_t i = i_;
  for (; i < n; ++i) {
    const char c = s[i];
    if (c == '\n') {
      ++line_;
      line_start_ = i + 1;
    } else if (c == ' ' || c == '\t' || c == '\r') {
      continue;
    } else if (c == '#' || (c == '/' && i + 1 < n && s[i + 1] == '/')) {
      const void* nl = std::memchr(s + i, '\n', n - i);
      if (nl == nullptr) {
        i = n;
        break;
      }
      i = static_cast<std::size_t>(static_cast<const char*>(nl) - s) - 1;  // ++i: the '\n'
    } else {
      break;
    }
  }
  i_ = i;
  out.text = {};
  out.int_value = 0;
  out.float_value = 0;
  out.line = line_;
  out.column = static_cast<int>(i - line_start_) + 1;
  if (i >= n) {
    out.kind = Tok::End;
    return;
  }
  const char c = s[i];

  if (is_alpha(c) || c == '_') {
    std::size_t j = i + 1;
    while (j < n && is_word(s[j])) ++j;
    const std::string_view word(s + i, j - i);
    i_ = j;
    out.kind = keyword_or_ident(word);
    if (out.kind == Tok::Ident) out.text = word;
    return;
  }

  if (is_digit(c)) {
    std::size_t j = i + 1;
    while (j < n && is_digit(s[j])) ++j;
    const bool is_float = j + 1 < n && s[j] == '.' && is_digit(s[j + 1]);
    if (is_float) {
      j += 2;
      while (j < n && is_digit(s[j])) ++j;
    }
    i_ = j;
    const std::string_view num(s + i, j - i);
    if (is_float) {
      out.kind = Tok::Float;
      try {
        out.float_value = std::stod(std::string(num));
      } catch (const std::out_of_range&) {
        throw ParseError("numeric literal out of range", out.line, out.column);
      }
    } else {
      out.kind = Tok::Int;
      if (std::from_chars(num.data(), num.data() + num.size(), out.int_value).ec !=
          std::errc()) {
        throw ParseError("numeric literal out of range", out.line, out.column);
      }
    }
    return;
  }

  if (c == '"') {
    lex_string(out);
    return;
  }

  // Punctuation: one character, or two when `second` follows `c`.
  i_ = i + 1;
  auto two = [&](char second, Tok yes, Tok no) {
    if (peek() != second) return no;
    ++i_;
    return yes;
  };
  switch (c) {
    case '[': out.kind = Tok::LBracket; break;
    case ']': out.kind = Tok::RBracket; break;
    case '(': out.kind = Tok::LParen; break;
    case ')': out.kind = Tok::RParen; break;
    case '{': out.kind = Tok::LBrace; break;
    case '}': out.kind = Tok::RBrace; break;
    case ',': out.kind = Tok::Comma; break;
    case ';': out.kind = Tok::Semi; break;
    case ':': out.kind = Tok::Colon; break;
    case '^': out.kind = Tok::Caret; break;
    case '+': out.kind = Tok::Plus; break;
    case '/': out.kind = Tok::Slash; break;
    case '%': out.kind = Tok::Percent; break;
    case '|': out.kind = two('|', Tok::PipePipe, Tok::Pipe); break;
    case '!': out.kind = two('=', Tok::Ne, Tok::Bang); break;
    case '*': out.kind = two('*', Tok::StarStar, Tok::Star); break;
    case '<': out.kind = two('=', Tok::Le, Tok::Lt); break;
    case '>': out.kind = two('=', Tok::Ge, Tok::Gt); break;
    case '-': out.kind = two('>', Tok::Arrow, Tok::Minus); break;
    case '=': out.kind = two('>', Tok::FatArrow, Tok::Eq); break;
    default:
      throw ParseError(std::string("unexpected character '") + c + "'", out.line,
                       out.column);
  }
}

std::vector<Token> lex(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> out;
  do {
    lexer.next(out.emplace_back());
  } while (out.back().kind != Tok::End);
  return out;
}

}  // namespace sdl::lang
