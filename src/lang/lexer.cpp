#include "lang/lexer.hpp"

#include <cctype>
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

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }
bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

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

std::vector<Token> lex(const std::string& source) {
  std::vector<Token> out;
  // Init blocks, the bulk of large sources, run about 2.6 bytes per
  // token. The vector lives only until the parser has consumed it.
  out.reserve(source.size() / 2 + 1);
  int line = 1;
  int col = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto peek = [&](std::size_t off = 0) -> char {
    return i + off < n ? source[i + off] : '\0';
  };
  auto advance = [&] {
    if (source[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
    ++i;
  };
  // Words and digit runs never span a newline: slice them out of the
  // source and advance the column by their length.
  auto take = [&](auto pred) {
    const std::size_t start = i;
    while (i < n && pred(source[i])) ++i;
    col += static_cast<int>(i - start);
    return std::string_view(source).substr(start, i - start);
  };
  auto push = [&](Tok kind, int l, int c) {
    Token t;
    t.kind = kind;
    t.line = l;
    t.column = c;
    out.push_back(std::move(t));
  };

  while (i < n) {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }
    if (c == '#' || (c == '/' && peek(1) == '/')) {
      while (i < n && peek() != '\n') advance();
      continue;
    }
    const int tl = line;
    const int tc = col;

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::string_view word = take(is_word);
      auto it = keywords().find(word);
      if (it != keywords().end()) {
        push(it->second, tl, tc);
      } else {
        Token t;
        t.kind = Tok::Ident;
        t.text = word;
        t.line = tl;
        t.column = tc;
        out.push_back(std::move(t));
      }
      continue;
    }

    if (is_digit(c)) {
      const std::size_t start = i;
      take(is_digit);
      const bool is_float = peek() == '.' && is_digit(peek(1));
      if (is_float) {
        advance();  // '.'
        take(is_digit);
      }
      const std::string_view num = std::string_view(source).substr(start, i - start);
      Token t;
      t.line = tl;
      t.column = tc;
      if (is_float) {
        t.kind = Tok::Float;
        try {
          t.float_value = std::stod(std::string(num));
        } catch (const std::out_of_range&) {
          throw ParseError("numeric literal out of range", tl, tc);
        }
      } else {
        t.kind = Tok::Int;
        if (std::from_chars(num.data(), num.data() + num.size(), t.int_value).ec !=
            std::errc()) {
          throw ParseError("numeric literal out of range", tl, tc);
        }
      }
      out.push_back(std::move(t));
      continue;
    }

    if (c == '"') {
      advance();
      std::string s;
      while (i < n && peek() != '"') {
        if (peek() == '\\' && i + 1 < n) {
          advance();
          switch (peek()) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            default: s += peek();
          }
          advance();
        } else {
          s += peek();
          advance();
        }
      }
      if (i >= n) throw ParseError("unterminated string literal", tl, tc);
      advance();  // closing quote
      Token t;
      t.kind = Tok::Str;
      t.text = std::move(s);
      t.line = tl;
      t.column = tc;
      out.push_back(std::move(t));
      continue;
    }

    auto two = [&](char second, Tok yes, Tok no) {
      advance();
      if (peek() == second) {
        advance();
        push(yes, tl, tc);
      } else {
        push(no, tl, tc);
      }
    };

    switch (c) {
      case '[': advance(); push(Tok::LBracket, tl, tc); break;
      case ']': advance(); push(Tok::RBracket, tl, tc); break;
      case '(': advance(); push(Tok::LParen, tl, tc); break;
      case ')': advance(); push(Tok::RParen, tl, tc); break;
      case '{': advance(); push(Tok::LBrace, tl, tc); break;
      case '}': advance(); push(Tok::RBrace, tl, tc); break;
      case ',': advance(); push(Tok::Comma, tl, tc); break;
      case ';': advance(); push(Tok::Semi, tl, tc); break;
      case ':': advance(); push(Tok::Colon, tl, tc); break;
      case '^': advance(); push(Tok::Caret, tl, tc); break;
      case '+': advance(); push(Tok::Plus, tl, tc); break;
      case '/': advance(); push(Tok::Slash, tl, tc); break;
      case '%': advance(); push(Tok::Percent, tl, tc); break;
      case '|': two('|', Tok::PipePipe, Tok::Pipe); break;
      case '!': two('=', Tok::Ne, Tok::Bang); break;
      case '*': two('*', Tok::StarStar, Tok::Star); break;
      case '<': two('=', Tok::Le, Tok::Lt); break;
      case '>': two('=', Tok::Ge, Tok::Gt); break;
      case '-':
        advance();
        if (peek() == '>') {
          advance();
          push(Tok::Arrow, tl, tc);
        } else {
          push(Tok::Minus, tl, tc);
        }
        break;
      case '=':
        advance();
        if (peek() == '>') {
          advance();
          push(Tok::FatArrow, tl, tc);
        } else {
          push(Tok::Eq, tl, tc);
        }
        break;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", tl, tc);
    }
  }
  push(Tok::End, line, col);
  return out;
}

}  // namespace sdl::lang
