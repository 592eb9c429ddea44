// Lexer for the ASCII rendition of SDL's notation.
//
// Paper notation → ASCII source:
//   ⟨year, 87⟩      →  [year, 87]
//   α, β (vars)     →  identifiers declared by exists/forall/params
//   ↑ (retract tag) →  !   after a pattern
//   →  (immediate)  →  ->
//   ⇒  (delayed)    →  =>
//   ⇑  (consensus)  →  ^
//   ¬∃(...)         →  not (...)
//   test_query      →  when <expr>
//   selection       →  { g -> ... | g -> ... }
//   repetition      →  *{ ... }
//   replication     →  ||{ ... }
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sdl::lang {

enum class Tok {
  End,
  Ident, Int, Float, Str,
  // keywords
  KwProcess, KwImport, KwExport, KwBehavior, KwEnd, KwExists, KwForall,
  KwWhen, KwWhere, KwLet, KwSpawn, KwExit, KwAbort, KwSkip, KwInit,
  KwTrue, KwFalse, KwAnd, KwOr, KwNot,
  // punctuation / operators
  LBracket, RBracket, LParen, RParen, LBrace, RBrace,
  Comma, Semi, Colon, Pipe, PipePipe, Bang, Star, StarStar,
  Arrow,        // ->
  FatArrow,     // =>
  Caret,        // ^
  Plus, Minus, Slash, Percent,
  Eq, Ne, Lt, Le, Gt, Ge,
  Assign,       // = (in let)
};

struct Token {
  Tok kind = Tok::End;
  std::string text;       // Ident / Str spelling
  std::int64_t int_value = 0;
  double float_value = 0;
  int line = 0;
  int column = 0;
};

/// Thrown on lexical and syntactic errors; carries position info.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, int line, int column)
      : std::runtime_error(message + " at line " + std::to_string(line) +
                           ", column " + std::to_string(column)),
        line_(line),
        column_(column) {}
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// The tokenizer as a cursor over `source`: each next() scans exactly one
/// token, so the parser pulls tokens on demand and no token vector is
/// built. '#' and '//' start line comments. Throws ParseError on bad
/// input; once the source is exhausted every call yields Tok::End. The
/// source must outlive the lexer.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// Scans the next token into `out`, reusing its string buffer.
  void next(Token& out);

 private:
  char peek(std::size_t off = 0) const {
    return i_ + off < src_.size() ? src_[i_ + off] : '\0';
  }
  void advance();
  template <typename Pred>
  std::string_view take_while(Pred pred);

  std::string_view src_;
  std::size_t i_ = 0;
  int line_ = 1;
  int col_ = 1;
};

/// Tokenizes all of `source` with a Lexer. Throws ParseError on bad input.
/// Always ends with a Tok::End token.
std::vector<Token> lex(const std::string& source);

/// Token kind name for diagnostics.
const char* tok_name(Tok t);

}  // namespace sdl::lang
