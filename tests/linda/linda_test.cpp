#include "linda.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace sdl {
namespace {

class LindaTest : public ::testing::Test {
 protected:
  Dataspace space{16};
  WaitSet waits;
  FunctionRegistry fns;
  GlobalLockEngine engine{space, waits, &fns};
  Linda linda{engine};
};

TEST_F(LindaTest, OutThenInpRoundTrips) {
  linda.out(tup("point", 3, 4));
  const std::optional<Tuple> t = linda.inp(pat({A("point"), W(), W()}));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, tup("point", 3, 4));
  EXPECT_EQ(space.size(), 0u) << "inp retracts";
}

TEST_F(LindaTest, RdpLeavesTuple) {
  linda.out(tup("point", 3, 4));
  const std::optional<Tuple> t = linda.rdp(pat({A("point"), W(), W()}));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, tup("point", 3, 4));
  EXPECT_EQ(space.size(), 1u) << "rdp copies";
}

TEST_F(LindaTest, InpMissReturnsNullopt) {
  EXPECT_EQ(linda.inp(pat({A("ghost")})), std::nullopt);
  EXPECT_EQ(linda.rdp(pat({A("ghost")})), std::nullopt);
}

TEST_F(LindaTest, ConstantsConstrain) {
  linda.out(tup("kv", 1, 10));
  linda.out(tup("kv", 2, 20));
  const std::optional<Tuple> t = linda.inp(pat({A("kv"), C(2), W()}));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, tup("kv", 2, 20));
}

TEST_F(LindaTest, RepeatedFormalRequiresEqualFields) {
  linda.out(tup("pair", 1, 2));
  EXPECT_EQ(linda.inp(pat({A("pair"), V("x"), V("x")})), std::nullopt);
  linda.out(tup("pair", 3, 3));
  const std::optional<Tuple> t = linda.inp(pat({A("pair"), V("x"), V("x")}));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, tup("pair", 3, 3));
}

TEST_F(LindaTest, InBlocksUntilOut) {
  std::optional<Tuple> got;
  std::jthread consumer([&] { got = linda.in(pat({A("msg"), W()})); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  linda.out(tup("msg", 42));
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, tup("msg", 42));
}

TEST_F(LindaTest, RdBlocksUntilOut) {
  std::optional<Tuple> got;
  std::jthread reader([&] { got = linda.rd(pat({A("cfg"), W()})); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  linda.out(tup("cfg", 7));
  reader.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(space.size(), 1u);
}

TEST_F(LindaTest, ConcurrentInsEachGetOneTuple) {
  constexpr int kItems = 100;
  constexpr int kThreads = 4;
  std::vector<std::vector<std::int64_t>> got(kThreads);
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < kItems / kThreads; ++i) {
          const Tuple t = linda.in(pat({A("item"), W()}));
          got[static_cast<std::size_t>(w)].push_back(t[1].as_int());
        }
      });
    }
    for (int i = 0; i < kItems; ++i) linda.out(tup("item", i));
  }
  std::vector<std::int64_t> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i) << "tuple lost or duplicated";
  }
  EXPECT_EQ(space.size(), 0u);
}

TEST_F(LindaTest, OwnerRecordedOnOut) {
  const TupleId id = linda.out(tup("owned", 1), 9);
  EXPECT_EQ(id.owner(), 9u);
}

TEST_F(LindaTest, SemaphoreIdiom) {
  // The classic Linda lock: a token tuple implements mutual exclusion.
  linda.out(tup("lock"));
  int counter = 0;
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          linda.in(pat({A("lock")}));
          ++counter;  // critical section
          linda.out(tup("lock"));
        }
      });
    }
  }
  EXPECT_EQ(counter, 200);
}

}  // namespace
}  // namespace sdl
