#include "lang/lexer.hpp"

#include <gtest/gtest.h>

namespace sdl::lang {
namespace {

std::vector<Tok> kinds(const std::string& src) {
  std::vector<Tok> out;
  for (const Token& t : lex(src)) out.push_back(t.kind);
  return out;
}

TEST(LexerTest, PunctuationAndTags) {
  EXPECT_EQ(kinds("-> => ^ | || ! != * ** [ ] ( ) { } , ; :"),
            (std::vector<Tok>{Tok::Arrow, Tok::FatArrow, Tok::Caret, Tok::Pipe,
                              Tok::PipePipe, Tok::Bang, Tok::Ne, Tok::Star,
                              Tok::StarStar, Tok::LBracket, Tok::RBracket,
                              Tok::LParen, Tok::RParen, Tok::LBrace, Tok::RBrace,
                              Tok::Comma, Tok::Semi, Tok::Colon, Tok::End}));
}

TEST(LexerTest, ComparisonOperators) {
  EXPECT_EQ(kinds("= != < <= > >="),
            (std::vector<Tok>{Tok::Eq, Tok::Ne, Tok::Lt, Tok::Le, Tok::Gt,
                              Tok::Ge, Tok::End}));
}

TEST(LexerTest, KeywordsVersusIdentifiers) {
  const auto toks = lex("process exists year forall behavior banana");
  EXPECT_EQ(toks[0].kind, Tok::KwProcess);
  EXPECT_EQ(toks[1].kind, Tok::KwExists);
  EXPECT_EQ(toks[2].kind, Tok::Ident);
  EXPECT_EQ(toks[2].text, "year");
  EXPECT_EQ(toks[3].kind, Tok::KwForall);
  EXPECT_EQ(toks[4].kind, Tok::KwBehavior);
  EXPECT_EQ(toks[5].text, "banana");
}

TEST(LexerTest, Numbers) {
  const auto toks = lex("42 3.5 0");
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 3.5);
  EXPECT_EQ(toks[2].int_value, 0);
}

TEST(LexerTest, MinusIsNotPartOfNumber) {
  // '-1' lexes as Minus, Int — negation is the parser's job.
  EXPECT_EQ(kinds("-1"), (std::vector<Tok>{Tok::Minus, Tok::Int, Tok::End}));
}

TEST(LexerTest, Strings) {
  const auto toks = lex("\"hello world\" \"a\\\"b\" \"line\\n\"");
  EXPECT_EQ(toks[0].text, "hello world");
  EXPECT_EQ(toks[1].text, "a\"b");
  EXPECT_EQ(toks[2].text, "line\n");
}

TEST(LexerTest, Comments) {
  EXPECT_EQ(kinds("a # comment -> => \n b // another\n c"),
            (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::Ident, Tok::End}));
}

TEST(LexerTest, LineAndColumnTracking) {
  const auto toks = lex("a\n  bb");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].column, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].column, 3);
}

TEST(LexerTest, ColumnsAdvancePastWordsAndNumbers) {
  const auto toks = lex("abc 12.5 x_1 7\n  end9 0042");
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_EQ(toks[0].column, 1);
  EXPECT_EQ(toks[1].column, 5);
  EXPECT_EQ(toks[2].column, 10);
  EXPECT_EQ(toks[2].text, "x_1");
  EXPECT_EQ(toks[3].column, 14);
  EXPECT_EQ(toks[4].kind, Tok::Ident) << "a keyword prefix is not a keyword";
  EXPECT_EQ(toks[4].text, "end9");
  EXPECT_EQ(toks[4].line, 2);
  EXPECT_EQ(toks[4].column, 3);
  EXPECT_EQ(toks[5].int_value, 42);
  EXPECT_EQ(toks[5].column, 8);
  EXPECT_EQ(toks[6].kind, Tok::End);
  EXPECT_EQ(toks[6].column, 12);
}

TEST(LexerTest, IntegerLimits) {
  EXPECT_EQ(lex("9223372036854775807")[0].int_value, INT64_MAX);
  try {
    lex("x\n  9223372036854775808");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "numeric literal out of range at line 2, column 3");
  }
  try {
    lex("1" + std::string(400, '0') + ".5");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "numeric literal out of range at line 1, column 1");
  }
}

TEST(LexerTest, UnterminatedStringThrows) {
  EXPECT_THROW(lex("\"oops"), ParseError);
}

TEST(LexerTest, UnexpectedCharacterThrows) {
  EXPECT_THROW(lex("@"), ParseError);
}

TEST(LexerTest, ArrowVersusMinus) {
  EXPECT_EQ(kinds("a - b -> c"),
            (std::vector<Tok>{Tok::Ident, Tok::Minus, Tok::Ident, Tok::Arrow,
                              Tok::Ident, Tok::End}));
}

TEST(LexerTest, FatArrowVersusEq) {
  EXPECT_EQ(kinds("a = b => c"),
            (std::vector<Tok>{Tok::Ident, Tok::Eq, Tok::Ident, Tok::FatArrow,
                              Tok::Ident, Tok::End}));
}

}  // namespace
}  // namespace sdl::lang
