#include "core/value.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sdl {
namespace {

TEST(ValueTest, KindsAreDetected) {
  EXPECT_TRUE(Value().is_nil());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value::atom("x").is_atom());
  EXPECT_TRUE(Value(std::string("s")).is_string());
}

TEST(ValueTest, IntAndDoubleAreDistinctValuesButNumericallyEqual) {
  const Value i(3);
  const Value d(3.0);
  EXPECT_NE(i, d);  // structural: content addressing is exact
  EXPECT_EQ(Value::numeric_compare(i, d), 0);
}

TEST(ValueTest, NumericCompareOrdersMixedNumbers) {
  EXPECT_LT(Value::numeric_compare(Value(2), Value(2.5)), 0);
  EXPECT_GT(Value::numeric_compare(Value(3.5), Value(3)), 0);
}

TEST(ValueTest, NumericCompareAtomsLexicographic) {
  EXPECT_LT(Value::numeric_compare(Value::atom("apple"), Value::atom("banana")), 0);
  EXPECT_EQ(Value::numeric_compare(Value::atom("x"), Value::atom("x")), 0);
}

TEST(ValueTest, NumericCompareAcrossKindsThrows) {
  EXPECT_THROW((void)Value::numeric_compare(Value(1), Value::atom("one")),
               std::invalid_argument);
  EXPECT_THROW((void)Value::numeric_compare(Value(std::string("a")), Value::atom("a")),
               std::invalid_argument);
}

TEST(ValueTest, TruthyOnlyForBool) {
  EXPECT_TRUE(Value(true).truthy());
  EXPECT_FALSE(Value(false).truthy());
  EXPECT_THROW((void)Value(1).truthy(), std::invalid_argument);
}

TEST(ValueTest, CanonicalOrderIsKindFirst) {
  EXPECT_LT(Value(true), Value(0));          // Bool < Int
  EXPECT_LT(Value(99), Value(0.5));          // Int < Double
  EXPECT_LT(Value(1.5), Value::atom("a"));   // Double < Atom
  EXPECT_LT(Value::atom("z"), Value(std::string("a")));  // Atom < String
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(42).to_string(), "42");
  EXPECT_EQ(Value(true).to_string(), "true");
  EXPECT_EQ(Value::atom("year").to_string(), "year");
  EXPECT_EQ(Value(std::string("hi")).to_string(), "\"hi\"");
  EXPECT_EQ(Value(2.0).to_string(), "2.0");
}

TEST(ValueTest, StringEscaping) {
  EXPECT_EQ(Value(std::string("a\"b")).to_string(), "\"a\\\"b\"");
  EXPECT_EQ(Value(std::string("a\\b")).to_string(), "\"a\\\\b\"");
}

TEST(ValueTest, HashEqualValuesEqualHashes) {
  EXPECT_EQ(Value(7).hash(), Value(7).hash());
  EXPECT_EQ(Value::atom("k").hash(), Value::atom("k").hash());
  EXPECT_NE(Value(7).hash(), Value(8).hash());
}

TEST(ValueTest, AsNumberWidensInt) {
  EXPECT_DOUBLE_EQ(Value(5).as_number(), 5.0);
  EXPECT_DOUBLE_EQ(Value(5.5).as_number(), 5.5);
  EXPECT_THROW((void)Value::atom("x").as_number(), std::invalid_argument);
}

}  // namespace
}  // namespace sdl
