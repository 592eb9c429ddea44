// Golden token streams: every token's kind, spelling, numeric value, line
// and column, for the ten example programs and a generated §3.1 Sum1 source
// of sdlbench's shape (4,096 values, 4,096 probe tuples, 2,048 spawns).
// The examples and a few edge cases are compared line by line against lexer_golden.txt; the
// Sum1 stream (about 72k tokens) is pinned by its token count and an
// FNV-1a digest of its rendering.
//
// On a mismatch the test writes the stream it saw next to the test's temp
// directory and names the file, so an intended lexer change can be
// reviewed with diff and copied over the golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lang/lexer.hpp"

namespace sdl::lang {
namespace {

const char* const kExamples[] = {
    "bounded_buffer.sdl", "dining.sdl", "find.sdl",   "pairing.sdl",
    "readers_writers.sdl", "region_label.sdl", "sort.sdl", "sum1.sdl",
    "sum2.sdl",           "sum3.sdl",
};

/// What the examples lack: string escapes, a string spanning lines,
/// floats, tabs, CRLF line ends and both comment styles.
constexpr const char* kEdgeCases =
    "init { [msg, \"a\\\"b\\n\", \"two\nlines\"] }  # trailing\r\n"
    "\t[pi, 3.25, 0.5e, 10.0]; // the 'e' is an identifier\n"
    "  x_1 ** -2 != <= >= || => -> ^ % \"\" \"tab\\t\" end9 _u\n";

std::string escaped(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\\': out += "\\\\"; break;
      default: out += c;
    }
  }
  return out;
}

/// One line per token: "line:column kind" plus its spelling or value.
std::string render(const std::string& source) {
  std::string out;
  Lexer lexer(source);
  Token t;
  char buf[64];
  do {
    lexer.next(t);
    std::snprintf(buf, sizeof buf, "%d:%d ", t.line, t.column);
    out += buf;
    out += tok_name(t.kind);
    switch (t.kind) {
      case Tok::Ident:
      case Tok::Str:
        out += ' ';
        out += escaped(t.text);
        break;
      case Tok::Int:
        out += ' ' + std::to_string(t.int_value);
        break;
      case Tok::Float:
        std::snprintf(buf, sizeof buf, " %.17g", t.float_value);
        out += buf;
        break;
      default:
        break;
    }
    out += '\n';
  } while (t.kind != Tok::End);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string dump(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

/// sdlbench's sum1_society source shape, with its own fixed values.
std::string sum1_source() {
  std::ostringstream src;
  src << "process Sum1(k, j)\nbehavior\n"
         "  exists a, b : [k - 2**(j-1), a]!, [k, b]! => [k, a + b];\n"
         "  { when k % 2**(j+1) = 0 ^ spawn Sum1(k, j + 1)\n"
         "  | when k % 2**(j+1) != 0 ^ skip\n"
         "  }\n"
         "end\n";
  src << "init {\n";
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int k = 1; k <= 4096; ++k) src << "  [" << k << ", " << 1 + next() % 1000 << "];\n";
  for (int k = 0; k < 4096; ++k) {
    src << "  [probe, " << k << ", " << 100 + next() % 900 << "];\n";
  }
  src << "}\n";
  for (int k = 2; k <= 4096; k += 2) src << "spawn Sum1(" << k << ", 1)\n";
  return src.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(LexerGoldenTest, ExampleProgramsTokenStreams) {
  std::string actual;
  for (const char* name : kExamples) {
    actual += std::string("== ") + name + '\n';
    actual += render(read_file(std::string(SDL_EXAMPLES_DIR) + "/" + name));
  }
  actual += "== edge cases\n";
  actual += render(kEdgeCases);
  const std::string golden = read_file(SDL_LEXER_GOLDEN);
  if (actual == golden) return;
  std::istringstream a(actual);
  std::istringstream g(golden);
  std::string al;
  std::string gl;
  int line = 1;
  while (std::getline(a, al) && std::getline(g, gl) && al == gl) ++line;
  ADD_FAILURE() << "token stream differs from " << SDL_LEXER_GOLDEN << " at line "
                << line << ": expected '" << gl << "', got '" << al
                << "'; the full stream is in "
                << dump("lexer_golden.actual.txt", actual);
}

TEST(LexerGoldenTest, GeneratedSum1TokenStream) {
  const std::string rendered = render(sum1_source());
  const auto tokens =
      static_cast<std::size_t>(std::count(rendered.begin(), rendered.end(), '\n'));
  EXPECT_EQ(tokens, 71767u);
  EXPECT_EQ(fnv1a(rendered), 0xdbc87ec30ac44b88ull)
      << "the full stream is in " << dump("sum1_tokens.actual.txt", rendered);
}

}  // namespace
}  // namespace sdl::lang
