#include "core/tuple.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/small_vector.hpp"

namespace sdl {
namespace {

TEST(TupleIdTest, PacksOwnerAndSequence) {
  const TupleId id(7, 123456);
  EXPECT_EQ(id.owner(), 7u);
  EXPECT_EQ(id.sequence(), 123456u);
  EXPECT_TRUE(id.valid());
}

TEST(TupleIdTest, DefaultIsInvalid) {
  EXPECT_FALSE(TupleId().valid());
}

TEST(TupleIdTest, ToStringShowsOwnerDotSequence) {
  EXPECT_EQ(TupleId(3, 17).to_string(), "#3.17");
}

TEST(TupleIdTest, LargeSequencePreserved) {
  const std::uint64_t seq = (1ull << 40) - 1;
  const TupleId id(0xFFFFFF, seq);
  EXPECT_EQ(id.owner(), 0xFFFFFFu);
  EXPECT_EQ(id.sequence(), seq);
}

TEST(TupleTest, TupFactoryInternsBareStringsAsAtoms) {
  const Tuple t = tup("year", 87);
  ASSERT_EQ(t.arity(), 2u);
  EXPECT_TRUE(t[0].is_atom());
  EXPECT_EQ(t[0].as_atom().text(), "year");
  EXPECT_EQ(t[1].as_int(), 87);
}

TEST(TupleTest, StringValuesStayStrings) {
  const Tuple t = tup("name", std::string("smith"));
  EXPECT_TRUE(t[1].is_string());
}

TEST(TupleTest, StructuralEquality) {
  EXPECT_EQ(tup("year", 87), tup("year", 87));
  EXPECT_NE(tup("year", 87), tup("year", 88));
  EXPECT_NE(tup("year", 87), tup("year", 87, 1));
}

TEST(TupleTest, LexicographicOrder) {
  EXPECT_LT(tup(1, 2), tup(1, 3));
  EXPECT_LT(tup(1), tup(1, 0));  // prefix before extension
}

TEST(TupleTest, HashMatchesForEqualTuples) {
  EXPECT_EQ(tup("k", 1, 2).hash(), tup("k", 1, 2).hash());
  EXPECT_NE(tup("k", 1, 2).hash(), tup("k", 2, 1).hash());
}

TEST(TupleTest, ToStringIsSdlLiteral) {
  EXPECT_EQ(tup("year", 87).to_string(), "[year, 87]");
  EXPECT_EQ(Tuple{}.to_string(), "[]");
}

TEST(TupleTest, EmptyTuple) {
  const Tuple t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.arity(), 0u);
}

TEST(TupleTest, MixedFieldKinds) {
  const Tuple t = tup("node", 1, std::string("color"), Value::atom("red"), 2.5, true);
  EXPECT_EQ(t.arity(), 6u);
  EXPECT_TRUE(t[2].is_string());
  EXPECT_TRUE(t[3].is_atom());
  EXPECT_TRUE(t[4].is_double());
  EXPECT_TRUE(t[5].is_bool());
}

// Tuples past kInlineFields spill to the heap; copies and moves of both
// shapes keep every field.
TEST(TupleTest, WideAndNarrowTuplesCopyAndMove) {
  const Tuple narrow = tup("acct", 7, std::string(64, 'n'));
  const Tuple wide = tup("w", 1, 2, 3, std::string(64, 'w'), 5.5);
  ASSERT_EQ(wide.arity(), 6u);
  for (const Tuple& t : {narrow, wide}) {
    Tuple copy = t;
    EXPECT_EQ(copy, t);
    Tuple moved = std::move(copy);
    EXPECT_EQ(moved, t);
    Tuple assigned;
    assigned = moved;
    EXPECT_EQ(assigned, t);
    assigned = Tuple{};
    EXPECT_TRUE(assigned.empty());
    assigned = std::move(moved);
    EXPECT_EQ(assigned, t);
  }
  EXPECT_EQ(wide[4], Value(std::string(64, 'w')));
  EXPECT_THROW((void)narrow.at(3), std::out_of_range);
}

TEST(SmallVectorTest, GrowsPastInlineCapacityAndMovesBothShapes) {
  SmallVector<std::string, 2> v;
  EXPECT_EQ(v.capacity(), 2u);
  for (int i = 0; i < 5; ++i) {
    v.push_back(std::string(40, static_cast<char>('a' + i)));
  }
  ASSERT_EQ(v.size(), 5u);
  EXPECT_GE(v.capacity(), 5u);
  EXPECT_EQ(v[4], std::string(40, 'e'));

  SmallVector<std::string, 2> heap_copy = v;
  EXPECT_EQ(heap_copy, v);
  SmallVector<std::string, 2> heap_moved = std::move(heap_copy);
  EXPECT_EQ(heap_moved, v);
  EXPECT_TRUE(heap_copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(heap_copy.capacity(), 2u);

  SmallVector<std::string, 2> small;
  small.emplace_back("x");
  SmallVector<std::string, 2> small_moved = std::move(small);
  ASSERT_EQ(small_moved.size(), 1u);
  EXPECT_EQ(small_moved[0], "x");
  EXPECT_TRUE(small.empty());  // NOLINT(bugprone-use-after-move)

  small_moved = v;  // inline -> heap by copy-assignment
  EXPECT_EQ(small_moved, v);
  small_moved = std::move(heap_moved);  // steals the heap block
  EXPECT_EQ(small_moved, v);
  small_moved.clear();
  EXPECT_TRUE(small_moved.empty());
}

}  // namespace
}  // namespace sdl
