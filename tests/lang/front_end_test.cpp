// The one-pass front end: constant init/spawn fields read straight to
// Values, error order when the parser pulls tokens on demand, print/parse
// round trips over every example, and truncated sources.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "lang/parser.hpp"
#include "lang/printer.hpp"

namespace sdl::lang {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct ConstCase {
  const char* spelling;
  Value expected;
};

const ConstCase kConstCases[] = {
    {"42", Value(42)},
    {"-7", Value(-7)},
    {"3.5", Value(3.5)},
    {"\"s\"", Value(std::string("s"))},
    {"year", Value::atom("year")},
    {"true", Value(true)},
    {"false", Value(false)},
    {"2**3", Value(8)},
    {"(4)", Value(4)},
    {"9223372036854775807", Value(std::int64_t{INT64_MAX})},
};

TEST(FrontEndTest, InitFieldSpellingsReadToValues) {
  for (const ConstCase& c : kConstCases) {
    const std::string s = c.spelling;
    // Last field (followed by ']'), and a middle field (followed by ',').
    const Program p = parse_program("init { [" + s + "]; [x, " + s + ", y] }");
    ASSERT_EQ(p.seeds.size(), 2u) << s;
    EXPECT_EQ(p.seeds[0], Tuple({c.expected})) << s;
    EXPECT_EQ(p.seeds[1], Tuple({Value::atom("x"), c.expected, Value::atom("y")})) << s;
    // A parenthesized field always takes the expression path: both agree.
    EXPECT_EQ(parse_program("init { [(" + s + ")] }").seeds[0], p.seeds[0]) << s;
  }
}

TEST(FrontEndTest, SpawnArgumentSpellingsReadToValues) {
  for (const ConstCase& c : kConstCases) {
    const std::string s = c.spelling;
    const Program p = parse_program("spawn P(" + s + ")\nspawn P(" + s + ", 1)");
    ASSERT_EQ(p.spawns.size(), 2u) << s;
    EXPECT_EQ(p.spawns[0].second, std::vector<Value>{c.expected}) << s;
    EXPECT_EQ(p.spawns[1].second, (std::vector<Value>{c.expected, Value(1)})) << s;
  }
}

TEST(FrontEndTest, NameDeclaredByAProcessIsAnAtomInInitAndSpawn) {
  const Program p = parse_program(R"(
    process P(k)
    behavior
      exists v : [k, v]! -> [k, v + 1]
    end
    init { [k, 1] }
    spawn P(k)
  )");
  ASSERT_EQ(p.seeds.size(), 1u);
  EXPECT_EQ(p.seeds[0], Tuple({Value::atom("k"), Value(1)}));
  ASSERT_EQ(p.spawns.size(), 1u);
  EXPECT_EQ(p.spawns[0].second, std::vector<Value>{Value::atom("k")});
}

TEST(FrontEndTest, NonConstantFieldsKeepTheirErrors) {
  try {
    parse_program("init { [f(1)] }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot evaluate constant"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_program("init { [1 / 0] }"), ParseError);
  EXPECT_THROW(parse_program("spawn P(1 2)"), ParseError);
}

// The parser pulls tokens as it goes, so a syntax error is reported before
// the lexer ever reaches a bad character further on.
TEST(FrontEndTest, ParseErrorBeforeLaterLexicalErrorWins) {
  try {
    parse_program("init { [1 2] }\nspawn @");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "expected ']', found integer at line 1, column 11");
  }
  try {
    parse_program("process P\nimport a b\nbehavior -> skip end \"open");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "expected '[', found identifier at line 2, column 8");
  }
}

TEST(FrontEndTest, LoneLexicalErrorKeepsMessageAndPosition) {
  try {
    parse_program("init { [1, 2] }\nspawn @");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "unexpected character '@' at line 2, column 7");
  }
  try {
    parse_program("init {\n  [x, \"open] }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "unterminated string literal at line 2, column 7");
  }
}

/// print(parse(src)) re-parses, and printing that gives the same text.
void expect_print_parse_fixpoint(const std::string& src, const std::string& what) {
  const std::string printed = print_program(parse_program(src));
  std::string reprinted;
  ASSERT_NO_THROW(reprinted = print_program(parse_program(printed))) << what;
  EXPECT_EQ(printed, reprinted) << what;
}

TEST(FrontEndTest, EveryExampleRoundTrips) {
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(SDL_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".sdl") continue;
    ++files;
    expect_print_parse_fixpoint(read_file(entry.path()), entry.path().string());
  }
  EXPECT_GE(files, 10);
}

TEST(FrontEndTest, LargeSum1ShapedSourceRoundTrips) {
  std::ostringstream src;
  src << "process Sum1(k, j)\nbehavior\n"
         "  exists a, b : [k - 2**(j-1), a]!, [k, b]! => [k, a + b];\n"
         "  { when k % 2**(j+1) = 0 ^ spawn Sum1(k, j + 1)\n"
         "  | when k % 2**(j+1) != 0 ^ skip\n"
         "  }\n"
         "end\ninit {\n";
  for (int k = 1; k <= 4096; ++k) {
    src << "  [" << k << ", " << (k * 37) % 1000 << "];\n";
  }
  for (int k = 0; k < 4096; ++k) src << "  [probe, " << k << ", " << 100 + k % 900 << "];\n";
  src << "}\n";
  for (int k = 2; k <= 4096; k += 2) src << "spawn Sum1(" << k << ", 1)\n";
  const Program p = parse_program(src.str());
  EXPECT_EQ(p.seeds.size(), 8192u);
  EXPECT_EQ(p.spawns.size(), 2048u);
  EXPECT_EQ(p.seeds[4096], Tuple({Value::atom("probe"), Value(0), Value(100)}));
  expect_print_parse_fixpoint(src.str(), "generated Sum1 source");
}

TEST(FrontEndTest, TruncatedPrefixesParseOrFailInsideTheInput) {
  const std::string full =
      read_file(std::filesystem::path(SDL_EXAMPLES_DIR) / "sum1.sdl");
  ASSERT_FALSE(full.empty());
  for (std::size_t n = 0; n <= full.size(); ++n) {
    // An exact-size heap copy, so a read past the end is a heap overflow
    // under AddressSanitizer.
    auto buf = std::make_unique<char[]>(n);
    std::memcpy(buf.get(), full.data(), n);
    Lexer lexer(std::string_view(buf.get(), n));
    Token end;
    try {
      do {
        lexer.next(end);
      } while (end.kind != Tok::End);
    } catch (const ParseError&) {
      continue;  // cut inside a string literal
    }
    // End is sticky and stays where the input ends.
    Token again;
    lexer.next(again);
    EXPECT_EQ(again.kind, Tok::End);
    EXPECT_EQ(again.line, end.line);
    EXPECT_EQ(again.column, end.column);

    const std::string prefix = full.substr(0, n);
    try {
      (void)parse_program(prefix);
    } catch (const ParseError& e) {
      EXPECT_TRUE(e.line() < end.line ||
                  (e.line() == end.line && e.column() <= end.column))
          << "prefix of " << n << " bytes: " << e.what();
    }
  }
}

}  // namespace
}  // namespace sdl::lang
