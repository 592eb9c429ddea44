#include "txn/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <unordered_map>

#include "persist/wal.hpp"

namespace sdl {
namespace {

/// Parameterized over the two engines: everything semantic must hold for
/// both (E6 only measures performance differences).
enum class EngineKind { Global, Sharded };

class EngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  Dataspace space{16};
  WaitSet waits;
  FunctionRegistry fns;
  SymbolTable st;
  Env env;
  std::unique_ptr<Engine> engine;

  void SetUp() override {
    if (GetParam() == EngineKind::Global) {
      engine = std::make_unique<GlobalLockEngine>(space, waits, &fns);
    } else {
      engine = std::make_unique<ShardedEngine>(space, waits, &fns);
    }
  }

  Transaction prep(TxnBuilder b) {
    Transaction t = b.build();
    t.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
    return t;
  }
  Value slot(const std::string& name) {
    return env[static_cast<std::size_t>(*st.lookup(name))];
  }
};

TEST_P(EngineTest, AssertOnly) {
  Transaction t = prep(TxnBuilder().assert_tuple({lit(Value::atom("year")), lit(87)}));
  const TxnResult r = engine->execute(t, env, 1);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.asserted.size(), 1u);
  EXPECT_EQ(r.asserted[0].owner(), 1u);
  EXPECT_EQ(space.count(tup("year", 87)), 1u);
}

TEST_P(EngineTest, PaperImmediateTransaction) {
  // ∃a : <year,a>! : a > 87 → let N=a, (found, a)
  space.insert(tup("year", 90), 0);
  Transaction t = prep(TxnBuilder()
                           .exists({"a"})
                           .match(pat({A("year"), V("a")}), true)
                           .where(gt(evar("a"), lit(87)))
                           .assert_tuple({lit(Value::atom("found")), evar("a")}));
  const TxnResult r = engine->execute(t, env, 1);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(space.count(tup("year", 90)), 0u) << "retracted";
  EXPECT_EQ(space.count(tup("found", 90)), 1u) << "asserted";
  EXPECT_EQ(slot("a"), Value(90)) << "binding visible for actions";
}

TEST_P(EngineTest, FailureHasNoEffect) {
  space.insert(tup("year", 80), 0);
  Transaction t = prep(TxnBuilder()
                           .exists({"a"})
                           .match(pat({A("year"), V("a")}), true)
                           .where(gt(evar("a"), lit(87)))
                           .assert_tuple({lit(Value::atom("found")), evar("a")}));
  const TxnResult r = engine->execute(t, env, 1);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(space.count(tup("year", 80)), 1u);
  EXPECT_EQ(space.size(), 1u) << "failed transaction must not change D";
}

TEST_P(EngineTest, RetractOneInstanceLeavesOthers) {
  space.insert(tup("year", 87), 0);
  space.insert(tup("year", 87), 0);
  Transaction t = prep(TxnBuilder().match(pat({A("year"), C(87)}), true));
  ASSERT_TRUE(engine->execute(t, env, 1).success);
  EXPECT_EQ(space.count(tup("year", 87)), 1u);
}

TEST_P(EngineTest, ForAllRetractsAllMatches) {
  for (int i = 0; i < 4; ++i) space.insert(tup("threshold", i, 0), 0);
  space.insert(tup("other", 9), 0);
  Transaction t = prep(TxnBuilder()
                           .forall({"p"})
                           .match(pat({A("threshold"), V("p"), W()}), true));
  const TxnResult r = engine->execute(t, env, 1);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.matches.size(), 4u);
  EXPECT_EQ(space.size(), 1u);
}

TEST_P(EngineTest, ForAllAssertsPerMatch) {
  space.insert(tup("n", 1), 0);
  space.insert(tup("n", 2), 0);
  Transaction t = prep(TxnBuilder()
                           .forall({"x"})
                           .match(pat({A("n"), V("x")}))
                           .assert_tuple({lit(Value::atom("double")),
                                          mul(evar("x"), lit(2))}));
  ASSERT_TRUE(engine->execute(t, env, 1).success);
  EXPECT_EQ(space.count(tup("double", 2)), 1u);
  EXPECT_EQ(space.count(tup("double", 4)), 1u);
}

TEST_P(EngineTest, SwapTransactionIsAtomic) {
  // The §2.3 replication body: exchange values of two index/value pairs.
  space.insert(tup(1, 30), 0);
  space.insert(tup(2, 10), 0);
  Transaction t = prep(TxnBuilder()
                           .exists({"i", "j", "v1", "v2"})
                           .match(pat({V("i"), V("v1")}), true)
                           .match(pat({V("j"), V("v2")}), true)
                           .where(land(lt(evar("i"), evar("j")),
                                       gt(evar("v1"), evar("v2"))))
                           .assert_tuple({evar("i"), evar("v2")})
                           .assert_tuple({evar("j"), evar("v1")}));
  ASSERT_TRUE(engine->execute(t, env, 1).success);
  EXPECT_EQ(space.count(tup(1, 10)), 1u);
  EXPECT_EQ(space.count(tup(2, 30)), 1u);
  EXPECT_EQ(space.size(), 2u);
  // No more out-of-order pair: the same transaction must now fail.
  EXPECT_FALSE(engine->execute(t, env, 1).success);
}

TEST_P(EngineTest, ViewWindowRestrictsQuery) {
  space.insert(tup("year", 90), 0);
  ViewSpec spec;
  spec.import(pat({A("year"), V("vy")}), le(evar("vy"), lit(87)));
  spec.resolve(st);
  const View view(spec);
  Transaction t = prep(TxnBuilder()
                           .exists({"a"})
                           .match(pat({A("year"), V("a")})));
  EXPECT_FALSE(engine->execute(t, env, 1, &view).success)
      << "year 90 is outside the import window";
  space.insert(tup("year", 80), 0);
  const TxnResult r = engine->execute(t, env, 1, &view);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(slot("a"), Value(80));
}

TEST_P(EngineTest, ExportFilterDropsForeignAssertions) {
  ViewSpec spec;
  spec.import(pat({A("year"), W()}));
  spec.export_(pat({A("year"), W()}));
  spec.resolve(st);
  const View view(spec);
  Transaction t = prep(TxnBuilder()
                           .assert_tuple({lit(Value::atom("year")), lit(1)})
                           .assert_tuple({lit(Value::atom("month")), lit(2)}));
  const TxnResult r = engine->execute(t, env, 1, &view);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(space.count(tup("year", 1)), 1u);
  EXPECT_EQ(space.count(tup("month", 2)), 0u) << "outside Export(p)";
  EXPECT_EQ(r.asserted.size(), 1u);
}

TEST_P(EngineTest, CommitPublishesTouchedKeys) {
  int woken = 0;
  WaitSet::Interest interest;
  interest.keys = {IndexKey::of(tup("found", 0))};
  const auto ticket = waits.subscribe(interest, [&] { ++woken; });
  Transaction t = prep(TxnBuilder().assert_tuple({lit(Value::atom("found")), lit(0)}));
  ASSERT_TRUE(engine->execute(t, env, 1).success);
  EXPECT_EQ(woken, 1);
  waits.unsubscribe(ticket);
}

TEST_P(EngineTest, MembershipTestPublishesNothing) {
  space.insert(tup("year", 87), 0);
  int woken = 0;
  WaitSet::Interest interest;
  interest.everything = true;
  const auto ticket = waits.subscribe(interest, [&] { ++woken; });
  Transaction t = prep(TxnBuilder().match(pat({A("year"), C(87)})));
  ASSERT_TRUE(engine->execute(t, env, 1).success);
  EXPECT_EQ(woken, 0) << "pure membership tests do not change D";
  waits.unsubscribe(ticket);
}

TEST_P(EngineTest, ExecuteBlockingWaitsForProducer) {
  Transaction consume = prep(TxnBuilder(TxnType::Delayed)
                                 .exists({"v"})
                                 .match(pat({A("item"), V("v")}), true));
  std::jthread producer([&] {
    Dataspace& d = engine->space();
    // Simulate another process committing via the engine.
    SymbolTable st2;
    Env env2;
    Transaction produce =
        TxnBuilder().assert_tuple({lit(Value::atom("item")), lit(42)}).build();
    produce.resolve(st2);
    env2.resize(static_cast<std::size_t>(st2.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine->execute(produce, env2, 2);
    (void)d;
  });
  const TxnResult r = execute_blocking(*engine, consume, env, 1);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(slot("v"), Value(42));
  EXPECT_EQ(space.size(), 0u);
}

TEST_P(EngineTest, ConcurrentDisjointCommitsAllLand) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        SymbolTable lst;
        Transaction t = TxnBuilder()
                            .assert_tuple({lit(Value(w)), lit(Value::atom("x"))})
                            .build();
        t.resolve(lst);
        Env lenv(static_cast<std::size_t>(lst.size()));
        for (int i = 0; i < kPerThread; ++i) {
          ASSERT_TRUE(engine->execute(t, lenv, static_cast<ProcessId>(w + 1)).success);
        }
      });
    }
  }
  EXPECT_EQ(space.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_P(EngineTest, ConcurrentCountersAreSerializable) {
  // Counter increment: retract <c,n>, assert <c,n+1>. Atomicity means no
  // lost updates even under maximal contention on one bucket.
  space.insert(tup("c", 0), 0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        SymbolTable lst;
        Transaction t = TxnBuilder(TxnType::Delayed)
                            .exists({"n"})
                            .match(pat({A("c"), V("n")}), true)
                            .assert_tuple({lit(Value::atom("c")),
                                           add(evar("n"), lit(1))})
                            .build();
        t.resolve(lst);
        Env lenv(static_cast<std::size_t>(lst.size()));
        for (int i = 0; i < kPerThread; ++i) {
          const TxnResult r =
              execute_blocking(*engine, t, lenv, static_cast<ProcessId>(w + 1));
          ASSERT_TRUE(r.success);
        }
      });
    }
  }
  EXPECT_EQ(space.count(tup("c", kThreads * kPerThread)), 1u)
      << "lost update detected";
  EXPECT_EQ(space.size(), 1u);
}

TEST_P(EngineTest, ExclusiveComposesRawEffects) {
  space.insert(tup("a", 1), 0);
  engine->exclusive([&]() -> std::vector<IndexKey> {
    std::vector<Record> snap = space.snapshot();
    space.erase(IndexKey::of(snap[0].tuple), snap[0].id);
    space.insert(tup("b", 2), 9);
    return {IndexKey::of(tup("a", 1)), IndexKey::of(tup("b", 2))};
  });
  EXPECT_EQ(space.count(tup("a", 1)), 0u);
  EXPECT_EQ(space.count(tup("b", 2)), 1u);
}

TEST_P(EngineTest, StatsTrackAttemptsCommitsFailures) {
  Transaction ok = prep(TxnBuilder().assert_tuple({lit(Value::atom("s")), lit(1)}));
  Transaction bad = prep(TxnBuilder().match(pat({A("missing")})));
  engine->execute(ok, env, 1);
  engine->execute(bad, env, 1);
  EXPECT_EQ(engine->stats().attempts(), 2u);
  EXPECT_EQ(engine->stats().commits(), 1u);
  EXPECT_EQ(engine->stats().failures(), 1u);
}

TEST_P(EngineTest, ReplicatedApplyRestoresIdsAndRetractsThroughTheIndex) {
  // A follower applies leader frames by id: asserts restore the leader's
  // TupleIds, retracts find their record through the id index, and a
  // retract of an id the follower never had is counted as divergence.
  std::vector<Engine::ReplFrame> batch(3);
  batch[0].commit.seq = 1;
  batch[0].commit.asserts = {{TupleId(1, 1), tup("job", 1)},
                             {TupleId(1, 2), tup("job", 2)}};
  batch[1].commit.seq = 2;
  batch[1].commit.retracts = {TupleId(1, 1)};
  batch[1].commit.asserts = {{TupleId(1, 3), tup("done", 1)}};
  batch[2].commit.seq = 3;
  batch[2].commit.retracts = {TupleId(7, 7)};

  Engine::IdIndex ids;
  const Engine::ReplApplyOutcome out = engine->apply_replicated(batch, &ids);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.applied_commits, 3u);
  EXPECT_EQ(out.missing_retracts, 1u) << "id 7:7 was never resident";

  EXPECT_EQ(space.size(), 2u);
  EXPECT_EQ(space.count(tup("job", 1)), 0u);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids.at(TupleId(1, 2))->tuple, tup("job", 2));
  EXPECT_EQ(ids.at(TupleId(1, 3))->tuple, tup("done", 1));
  EXPECT_EQ(ids.count(TupleId(1, 1)), 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest,
                         ::testing::Values(EngineKind::Global, EngineKind::Sharded),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return info.param == EngineKind::Global ? "Global"
                                                                   : "Sharded";
                         });

}  // namespace
}  // namespace sdl
