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
#include <memory>
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

/// One token. `text` is the spelling of an Ident or Str: a view into the
/// lexed source, except for a string literal with escapes, whose resolved
/// spelling sits on the heap, shared by the token and its copies. So a
/// token's `text` is valid while the source and the token (or a copy) live.
struct Token {
  Tok kind = Tok::End;
  std::string_view text;
  std::int64_t int_value = 0;
  double float_value = 0;
  int line = 0;
  int column = 0;

 private:
  friend class Lexer;
  std::shared_ptr<const std::string> unescaped_;  // a Str's spelling with escapes
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

  /// Scans the next token into `out`.
  void next(Token& out);

 private:
  char peek(std::size_t off = 0) const {
    return i_ + off < src_.size() ? src_[i_ + off] : '\0';
  }
  void lex_string(Token& out);

  std::string_view src_;
  std::size_t i_ = 0;
  int line_ = 1;
  std::size_t line_start_ = 0;  // offset of the current line's first char
};

/// Tokenizes all of `source` with a Lexer. Throws ParseError on bad input.
/// Always ends with a Tok::End token. The tokens' spellings view `source`.
std::vector<Token> lex(std::string_view source);

/// Token kind name for diagnostics.
const char* tok_name(Tok t);

}  // namespace sdl::lang
