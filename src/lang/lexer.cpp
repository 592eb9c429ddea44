#include "lang/lexer.hpp"

#include <charconv>
#include <string_view>
#include <unordered_map>

namespace sdl::lang {
namespace {

const std::unordered_map<std::string_view, Tok>& keywords() {
  static const std::unordered_map<std::string_view, Tok> kw = {
      {"process", Tok::KwProcess}, {"import", Tok::KwImport},
      {"export", Tok::KwExport},   {"behavior", Tok::KwBehavior},
      {"end", Tok::KwEnd},         {"exists", Tok::KwExists},
      {"forall", Tok::KwForall},   {"when", Tok::KwWhen},
      {"where", Tok::KwWhere},     {"let", Tok::KwLet},
      {"spawn", Tok::KwSpawn},     {"exit", Tok::KwExit},
      {"abort", Tok::KwAbort},     {"skip", Tok::KwSkip},
      {"init", Tok::KwInit},       {"true", Tok::KwTrue},
      {"false", Tok::KwFalse},     {"and", Tok::KwAnd},
      {"or", Tok::KwOr},           {"not", Tok::KwNot},
  };
  return kw;
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

void Lexer::advance() {
  if (src_[i_] == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  ++i_;
}

// Words and digit runs never span a newline: slice them out of the source
// and advance the column by their length.
template <typename Pred>
std::string_view Lexer::take_while(Pred pred) {
  const std::size_t start = i_;
  while (i_ < src_.size() && pred(src_[i_])) ++i_;
  col_ += static_cast<int>(i_ - start);
  return src_.substr(start, i_ - start);
}

void Lexer::next(Token& out) {
  const std::size_t n = src_.size();
  while (i_ < n) {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '#' || (c == '/' && peek(1) == '/')) {
      while (i_ < n && peek() != '\n') advance();
    } else {
      break;
    }
  }
  out.text.clear();
  out.int_value = 0;
  out.float_value = 0;
  out.line = line_;
  out.column = col_;
  if (i_ >= n) {
    out.kind = Tok::End;
    return;
  }
  const char c = peek();

  if (is_alpha(c) || c == '_') {
    const std::string_view word = take_while(is_word);
    auto it = keywords().find(word);
    if (it != keywords().end()) {
      out.kind = it->second;
    } else {
      out.kind = Tok::Ident;
      out.text = word;
    }
    return;
  }

  if (is_digit(c)) {
    const std::size_t start = i_;
    take_while(is_digit);
    const bool is_float = peek() == '.' && is_digit(peek(1));
    if (is_float) {
      advance();  // '.'
      take_while(is_digit);
    }
    const std::string_view num = src_.substr(start, i_ - start);
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
    advance();
    while (i_ < n && peek() != '"') {
      if (peek() == '\\' && i_ + 1 < n) {
        advance();
        switch (peek()) {
          case 'n': out.text += '\n'; break;
          case 't': out.text += '\t'; break;
          default: out.text += peek();
        }
        advance();
      } else {
        out.text += peek();
        advance();
      }
    }
    if (i_ >= n) throw ParseError("unterminated string literal", out.line, out.column);
    advance();  // closing quote
    out.kind = Tok::Str;
    return;
  }

  // Punctuation: one character, or two when `second` follows `c`.
  advance();
  auto two = [&](char second, Tok yes, Tok no) {
    if (peek() != second) return no;
    advance();
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

std::vector<Token> lex(const std::string& source) {
  Lexer lexer(source);
  std::vector<Token> out;
  do {
    lexer.next(out.emplace_back());
  } while (out.back().kind != Tok::End);
  return out;
}

}  // namespace sdl::lang
