// The reader–writer sharded engine: read-only fast path, probe(), and
// mixed shared/exclusive lock plans. Companion to engine_test.cpp; the
// concurrency cases here are the ones the TSan CI job exists for.
#include "txn/engine.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace sdl {
namespace {

Transaction prep(TxnBuilder b, SymbolTable& st, Env& env) {
  Transaction t = b.build();
  t.resolve(st);
  env.resize(static_cast<std::size_t>(st.size()));
  return t;
}

TEST(ReadOnlyClassification, FollowsEffectTemplates) {
  SymbolTable st;
  Env env;
  // Pure membership test: read-only.
  EXPECT_TRUE(prep(TxnBuilder().match(pat({A("k"), W()})), st, env)
                  .is_read_only());
  // Negations only test absence: still read-only.
  EXPECT_TRUE(prep(TxnBuilder().none({pat({A("k"), W()})}), st, env)
                  .is_read_only());
  // Lets, spawns and control are process-local, not dataspace effects.
  EXPECT_TRUE(prep(TxnBuilder()
                       .exists({"v"})
                       .match(pat({A("k"), V("v")}))
                       .let_("X", evar("v"))
                       .exit_(),
                   st, env)
                  .is_read_only());
  // A retract tag is a write.
  EXPECT_FALSE(prep(TxnBuilder().match(pat({A("k"), W()}), /*retract=*/true),
                    st, env)
                   .is_read_only());
  // An assert template is a write.
  EXPECT_FALSE(prep(TxnBuilder().assert_tuple({lit(Value::atom("k")), lit(1)}),
                    st, env)
                   .is_read_only());
}

enum class EngineKind { Global, Sharded };

class ReadOnlyFastPathTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  // One shard: every key shares it, so shared-vs-exclusive discrimination
  // is maximally observable (and maximally racy if it were wrong).
  Dataspace space{1};
  WaitSet waits;
  FunctionRegistry fns;
  std::unique_ptr<Engine> engine;

  void SetUp() override {
    if (GetParam() == EngineKind::Global) {
      engine = std::make_unique<GlobalLockEngine>(space, waits, &fns);
    } else {
      engine = std::make_unique<ShardedEngine>(space, waits, &fns);
    }
  }
};

TEST_P(ReadOnlyFastPathTest, NoPublicationAcrossManyExecutes) {
  space.insert(tup("a", 42), 0);
  int woken = 0;
  WaitSet::Interest everything;
  everything.everything = true;
  const auto ticket = waits.subscribe(everything, [&] { ++woken; });

  const std::uint64_t version_before = waits.version();
  const std::uint64_t wakes_before = waits.wakes_delivered();
  SymbolTable st;
  Env env;
  Transaction read = prep(
      TxnBuilder().exists({"v"}).match(pat({A("a"), V("v")})), st, env);
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    const TxnResult r = engine->execute(read, env, 1);
    ASSERT_TRUE(r.success);
  }
  EXPECT_EQ(waits.version(), version_before)
      << "read-only execution must not bump the commit version";
  EXPECT_EQ(waits.wakes_delivered(), wakes_before);
  EXPECT_EQ(woken, 0);
  waits.unsubscribe(ticket);
}

TEST_P(ReadOnlyFastPathTest, ConcurrentReadersOnOneShardStayConsistent) {
  // Readers share the single shard with a writer mutating a different
  // bucket. Readers must never block each other's correctness: every
  // execute succeeds and observes the immutable tuple unchanged. Under
  // ThreadSanitizer this is the shared-lock evaluation path.
  space.insert(tup("a", 42), 0);
  space.insert(tup("b", 0), 0);
  constexpr int kReaders = 6;
  constexpr int kOps = 400;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kReaders; ++t) {
      workers.emplace_back([&, t] {
        SymbolTable st;
        Env env;
        Transaction read = prep(
            TxnBuilder().exists({"v"}).match(pat({A("a"), V("v")})), st, env);
        const int slot = *st.lookup("v");
        for (int i = 0; i < kOps; ++i) {
          const TxnResult r =
              engine->execute(read, env, static_cast<ProcessId>(t + 1));
          ASSERT_TRUE(r.success);
          ASSERT_EQ(env[static_cast<std::size_t>(slot)], Value(42));
        }
      });
    }
    workers.emplace_back([&] {
      SymbolTable st;
      Env env;
      Transaction incr = prep(TxnBuilder(TxnType::Delayed)
                                  .exists({"n"})
                                  .match(pat({A("b"), V("n")}), true)
                                  .assert_tuple({lit(Value::atom("b")),
                                                 add(evar("n"), lit(1))}),
                              st, env);
      for (int i = 0; i < kOps; ++i) {
        ASSERT_TRUE(execute_blocking(*engine, incr, env, 99).success);
      }
    });
  }
  EXPECT_EQ(space.count(tup("a", 42)), 1u);
  EXPECT_EQ(space.count(tup("b", kOps)), 1u);
}

TEST_P(ReadOnlyFastPathTest, MixedReadWritePlansCommitSerializably) {
  // E6-shape stress with readers mixed in: writers increment one shared
  // counter (exclusive lock on the shard), readers watch it read-only
  // (shared lock on the same shard). Serializability means no lost
  // updates AND every reader sees a monotonically non-decreasing value.
  space.insert(tup("c", 0), 0);
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kPerWriter = 250;
  constexpr int kPerReader = 500;
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kWriters; ++w) {
      workers.emplace_back([&, w] {
        SymbolTable st;
        Env env;
        Transaction incr = prep(TxnBuilder(TxnType::Delayed)
                                    .exists({"n"})
                                    .match(pat({A("c"), V("n")}), true)
                                    .assert_tuple({lit(Value::atom("c")),
                                                   add(evar("n"), lit(1))}),
                                st, env);
        for (int i = 0; i < kPerWriter; ++i) {
          ASSERT_TRUE(
              execute_blocking(*engine, incr, env, static_cast<ProcessId>(w + 1))
                  .success);
        }
      });
    }
    for (int t = 0; t < kReaders; ++t) {
      workers.emplace_back([&, t] {
        SymbolTable st;
        Env env;
        Transaction read = prep(
            TxnBuilder().exists({"v"}).match(pat({A("c"), V("v")})), st, env);
        const int slot = *st.lookup("v");
        std::int64_t last = -1;
        for (int i = 0; i < kPerReader; ++i) {
          const TxnResult r = engine->execute(
              read, env, static_cast<ProcessId>(kWriters + t + 1));
          ASSERT_TRUE(r.success);
          const std::int64_t seen =
              env[static_cast<std::size_t>(slot)].as_int();
          ASSERT_GE(seen, last) << "reader observed a rollback";
          ASSERT_LE(seen, kWriters * kPerWriter);
          last = seen;
        }
      });
    }
  }
  EXPECT_EQ(space.count(tup("c", kWriters * kPerWriter)), 1u)
      << "lost update detected";
}

TEST_P(ReadOnlyFastPathTest, ProbeIsEffectFreeAndCountsSeparately) {
  space.insert(tup("year", 90), 0);
  SymbolTable st;
  Env env;
  Transaction take = prep(TxnBuilder(TxnType::Delayed)
                              .exists({"a"})
                              .match(pat({A("year"), V("a")}), true)
                              .assert_tuple({lit(Value::atom("found")),
                                             evar("a")}),
                          st, env);
  const std::uint64_t version_before = waits.version();
  EXPECT_TRUE(engine->probe(take, env, nullptr));
  EXPECT_TRUE(engine->probe(take, env, nullptr)) << "probe retracted nothing";
  EXPECT_EQ(space.count(tup("year", 90)), 1u);
  EXPECT_EQ(space.count(tup("found", 90)), 0u);
  EXPECT_EQ(waits.version(), version_before);
  EXPECT_EQ(engine->stats().probes.load(), 2u);
  EXPECT_EQ(engine->stats().attempts(), 0u)
      << "probes are pre-checks, not transaction attempts";

  // After the real commit the probe target is gone.
  ASSERT_TRUE(engine->execute(take, env, 1).success);
  EXPECT_FALSE(engine->probe(take, env, nullptr));
}

INSTANTIATE_TEST_SUITE_P(Engines, ReadOnlyFastPathTest,
                         ::testing::Values(EngineKind::Global,
                                           EngineKind::Sharded),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return info.param == EngineKind::Global ? "Global"
                                                                   : "Sharded";
                         });

}  // namespace
}  // namespace sdl
