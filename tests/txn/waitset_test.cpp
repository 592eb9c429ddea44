#include "txn/waitset.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace sdl {
namespace {

IndexKey key_of(const char* head, std::size_t arity) {
  return IndexKey::of_head(arity, Value::atom(head));
}

TEST(WaitSetTest, TargetedWakeOnExactKey) {
  WaitSet ws;
  int woken = 0;
  WaitSet::Interest interest;
  interest.keys = {key_of("year", 2)};
  const auto ticket = ws.subscribe(interest, [&] { ++woken; });
  ws.publish({key_of("year", 2)});
  EXPECT_EQ(woken, 1);
  ws.publish({key_of("month", 2)});
  EXPECT_EQ(woken, 1) << "unrelated key must not wake";
  ws.unsubscribe(ticket);
}

TEST(WaitSetTest, ArityInterestMatchesAnyKeyOfArity) {
  WaitSet ws;
  int woken = 0;
  WaitSet::Interest interest;
  interest.arities = {3};
  const auto ticket = ws.subscribe(interest, [&] { ++woken; });
  ws.publish({IndexKey::of(tup("a", 1, 2))});
  EXPECT_EQ(woken, 1);
  ws.publish({IndexKey::of(tup("a", 1))});
  EXPECT_EQ(woken, 1);
  ws.unsubscribe(ticket);
}

TEST(WaitSetTest, EverythingInterest) {
  WaitSet ws;
  int woken = 0;
  WaitSet::Interest interest;
  interest.everything = true;
  const auto ticket = ws.subscribe(interest, [&] { ++woken; });
  ws.publish({key_of("anything", 1)});
  EXPECT_EQ(woken, 1);
  ws.unsubscribe(ticket);
}

TEST(WaitSetTest, OnePublishOneWakeEvenWithMultipleMatchingKeys) {
  WaitSet ws;
  int woken = 0;
  WaitSet::Interest interest;
  interest.keys = {key_of("a", 1), key_of("b", 1)};
  const auto ticket = ws.subscribe(interest, [&] { ++woken; });
  ws.publish({key_of("a", 1), key_of("b", 1)});
  EXPECT_EQ(woken, 1) << "wakes must be deduped per publish";
  ws.unsubscribe(ticket);
}

TEST(WaitSetTest, UnsubscribeStopsWakes) {
  WaitSet ws;
  int woken = 0;
  WaitSet::Interest interest;
  interest.keys = {key_of("k", 1)};
  const auto ticket = ws.subscribe(interest, [&] { ++woken; });
  ws.unsubscribe(ticket);
  ws.publish({key_of("k", 1)});
  EXPECT_EQ(woken, 0);
  EXPECT_EQ(ws.subscriber_count(), 0u);
}

TEST(WaitSetTest, UnsubscribeInvalidTicketIsNoop) {
  WaitSet ws;
  ws.unsubscribe(WaitSet::kInvalidTicket);
  ws.unsubscribe(999);
}

TEST(WaitSetTest, VersionAdvancesPerPublish) {
  WaitSet ws;
  const auto v0 = ws.version();
  ws.publish({key_of("k", 1)});
  ws.publish({key_of("k", 1)});
  EXPECT_EQ(ws.version(), v0 + 2);
}

TEST(WaitSetTest, WakeAllPolicyWakesUnrelatedWaiters) {
  WaitSet ws(WaitSet::WakePolicy::WakeAll);
  int woken_a = 0;
  int woken_b = 0;
  WaitSet::Interest ia;
  ia.keys = {key_of("a", 1)};
  WaitSet::Interest ib;
  ib.keys = {key_of("b", 1)};
  const auto ta = ws.subscribe(ia, [&] { ++woken_a; });
  const auto tb = ws.subscribe(ib, [&] { ++woken_b; });
  ws.publish({key_of("a", 1)});
  EXPECT_EQ(woken_a, 1);
  EXPECT_EQ(woken_b, 1) << "WakeAll ignores interests";
  EXPECT_EQ(ws.wakes_delivered(), 2u);
  ws.unsubscribe(ta);
  ws.unsubscribe(tb);
}

// Wake-all skips the key dedupe; each subscriber is still woken exactly
// once per publish, however often the touched list repeats its key, and
// whether the subscriber named that key, another key or an arity.
TEST(WaitSetTest, WakeAllWithRepeatedKeysWakesEachSubscriberOnce) {
  WaitSet ws(WaitSet::WakePolicy::WakeAll);
  int woken_a = 0;
  int woken_b = 0;
  int woken_arity = 0;
  WaitSet::Interest ia;
  ia.keys = {key_of("a", 1), key_of("a", 2)};
  WaitSet::Interest ib;
  ib.keys = {key_of("b", 1)};
  WaitSet::Interest iarity;
  iarity.arities = {2};
  const auto ta = ws.subscribe(ia, [&] { ++woken_a; });
  const auto tb = ws.subscribe(ib, [&] { ++woken_b; });
  const auto tc = ws.subscribe(iarity, [&] { ++woken_arity; });
  ws.publish_batch({key_of("a", 1), key_of("a", 1), key_of("a", 2),
                    key_of("a", 1), key_of("b", 1), key_of("b", 1)});
  EXPECT_EQ(woken_a, 1);
  EXPECT_EQ(woken_b, 1);
  EXPECT_EQ(woken_arity, 1);
  EXPECT_EQ(ws.wakes_delivered(), 3u);
  ws.unsubscribe(ta);
  ws.unsubscribe(tb);
  ws.unsubscribe(tc);
}

TEST(WaitSetTest, BlockingWaiterWakesAcrossThreads) {
  WaitSet ws;
  BlockingWaiter waiter;
  WaitSet::Interest interest;
  interest.keys = {key_of("go", 1)};
  const auto ticket = ws.subscribe(interest, waiter.wake_fn());
  std::jthread publisher([&] { ws.publish({key_of("go", 1)}); });
  waiter.wait();  // must not hang
  ws.unsubscribe(ticket);
  SUCCEED();
}

TEST(WaitSetTest, ManySubscribersOnlyMatchingWake) {
  WaitSet ws;
  std::vector<int> woken(100, 0);
  std::vector<WaitSet::Ticket> tickets;
  for (int i = 0; i < 100; ++i) {
    WaitSet::Interest interest;
    interest.keys = {IndexKey::of(tup(i, 0))};
    tickets.push_back(ws.subscribe(interest, [&woken, i] { ++woken[static_cast<std::size_t>(i)]; }));
  }
  ws.publish({IndexKey::of(tup(42, 0))});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(woken[static_cast<std::size_t>(i)], i == 42 ? 1 : 0);
  }
  EXPECT_EQ(ws.wakes_delivered(), 1u);
  for (const auto t : tickets) ws.unsubscribe(t);
}

}  // namespace
}  // namespace sdl
