// Scheduler lifecycle and edge cases: repeated runs, seeding between
// runs, spawning during runs, quantum fairness, replicant accounting.
#include <gtest/gtest.h>

#include "process/runtime.hpp"

namespace sdl {
namespace {

RuntimeOptions small_opts() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return o;
}

TEST(SchedulerEdgeTest, RunWithNoWorkReturnsImmediately) {
  Runtime rt(small_opts());
  const RunReport report = rt.run();
  EXPECT_EQ(report.completed, 0u);
  EXPECT_FALSE(report.deadlocked());
}

TEST(SchedulerEdgeTest, SecondRunResumesParkedProcesses) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Waiter";
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("go")}), true)
                           .assert_tuple({lit(Value::atom("done"))})
                           .build())});
  rt.define(std::move(def));
  rt.spawn("Waiter");

  const RunReport first = rt.run();
  EXPECT_TRUE(first.deadlocked()) << "nothing can wake the waiter yet";

  rt.seed(tup("go"));  // seeding publishes: the parked process wakes
  const RunReport second = rt.run();
  EXPECT_TRUE(second.clean());
  EXPECT_EQ(rt.space().count(tup("done")), 1u);
}

TEST(SchedulerEdgeTest, SpawnBetweenRuns) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Emit";
  def.params = {"k"};
  def.body = seq({stmt(
      TxnBuilder().assert_tuple({lit(Value::atom("e")), evar("k")}).build())});
  rt.define(std::move(def));
  rt.spawn("Emit", {Value(1)});
  EXPECT_EQ(rt.run().completed, 1u);
  rt.spawn("Emit", {Value(2)});
  rt.spawn("Emit", {Value(3)});
  EXPECT_EQ(rt.run().completed, 2u);
  EXPECT_EQ(rt.space().size(), 3u);
}

TEST(SchedulerEdgeTest, DeepSpawnChainsComplete) {
  // Spawn-during-run at depth: each process spawns the next.
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Chain";
  def.params = {"n"};
  def.body = seq({select({
      branch(TxnBuilder()
                 .where(gt(evar("n"), lit(0)))
                 .spawn("Chain", {sub(evar("n"), lit(1))})
                 .build()),
      branch(TxnBuilder()
                 .where(eq(evar("n"), lit(0)))
                 .assert_tuple({lit(Value::atom("bottom"))})
                 .build()),
  })});
  rt.define(std::move(def));
  rt.spawn("Chain", {Value(500)});
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.completed, 501u);
  EXPECT_EQ(rt.space().count(tup("bottom")), 1u);
}

TEST(SchedulerEdgeTest, TinyQuantumStillCorrect) {
  RuntimeOptions o = small_opts();
  o.scheduler.quantum = 1;  // yield after every statement
  Runtime rt(o);
  rt.seed(tup("n", 20));
  ProcessDef def;
  def.name = "Countdown";
  def.body = seq({repeat({branch(TxnBuilder()
                                     .exists({"x"})
                                     .match(pat({A("n"), V("x")}), true)
                                     .where(gt(evar("x"), lit(0)))
                                     .assert_tuple({lit(Value::atom("n")),
                                                    sub(evar("x"), lit(1))})
                                     .build())})});
  rt.define(std::move(def));
  rt.spawn("Countdown");
  EXPECT_TRUE(rt.run().clean());
  EXPECT_EQ(rt.space().count(tup("n", 0)), 1u);
}

TEST(SchedulerEdgeTest, SingleWorkerRunsEverything) {
  RuntimeOptions o = small_opts();
  o.scheduler.workers = 1;
  o.scheduler.replication_width = 1;
  Runtime rt(o);
  ProcessDef def;
  def.name = "Pair";
  def.params = {"k"};
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({E(evar("k"))}), true)
                           .assert_tuple({lit(Value::atom("got")), evar("k")})
                           .build())});
  rt.define(std::move(def));
  for (int k = 0; k < 20; ++k) rt.spawn("Pair", {Value(k)});
  for (int k = 19; k >= 0; --k) rt.seed(tup(k));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().size(), 20u);
}

TEST(SchedulerEdgeTest, CompletedCountsExcludeParked) {
  Runtime rt(small_opts());
  ProcessDef done;
  done.name = "Done";
  done.body = seq({});
  rt.define(std::move(done));
  ProcessDef stuck;
  stuck.name = "Stuck";
  stuck.body = seq({stmt(TxnBuilder(TxnType::Delayed).match(pat({A("never")})).build())});
  rt.define(std::move(stuck));
  rt.spawn("Done");
  rt.spawn("Stuck");
  const RunReport report = rt.run();
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.still_parked, 1u);
  EXPECT_EQ(rt.scheduler().live_count(), 1u);
}

TEST(SchedulerEdgeTest, DuplicateDefinitionThrows) {
  Runtime rt(small_opts());
  ProcessDef a;
  a.name = "Same";
  a.body = seq({});
  rt.define(std::move(a));
  ProcessDef b;
  b.name = "Same";
  b.body = seq({});
  EXPECT_THROW(rt.define(std::move(b)), std::invalid_argument);
}

TEST(SchedulerEdgeTest, SpawnUnknownTypeThrows) {
  Runtime rt(small_opts());
  EXPECT_THROW(rt.spawn("Nope"), std::invalid_argument);
}

TEST(SchedulerEdgeTest, EmptyBodyProcessTerminates) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Empty";
  def.body = seq({});
  rt.define(std::move(def));
  rt.spawn("Empty");
  const RunReport report = rt.run();
  EXPECT_EQ(report.completed, 1u);
}

TEST(SchedulerEdgeTest, StatsCountSpawnsAndCompletions) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "E";
  def.body = seq({});
  rt.define(std::move(def));
  for (int i = 0; i < 7; ++i) rt.spawn("E");
  rt.run();
  EXPECT_EQ(rt.scheduler().total_spawned(), 7u);
  EXPECT_EQ(rt.scheduler().total_completed(), 7u);
}

TEST(SchedulerEdgeTest, ReplicationWidthOneAccounting) {
  // Replicant spawn/termination accounting must hold at width 1 too.
  RuntimeOptions o = small_opts();
  o.scheduler.replication_width = 1;
  Runtime rt(o);
  rt.seed(tup("job", 1));
  ProcessDef def;
  def.name = "W";
  def.body = seq({replicate({branch(
      TxnBuilder().exists({"j"}).match(pat({A("job"), V("j")}), true).build())})});
  rt.define(std::move(def));
  rt.spawn("W");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.completed, 2u);  // parent + one replicant
}

TEST(SchedulerEdgeTest, NonEnablingWakeIsAnsweredByTheProbe) {
  // A parked delayed transaction re-checks on every wake through one path:
  // the effect-free Engine::probe first, execute only when the probe says
  // the query may now hold. A wake that does not enable the query must
  // therefore cost a probe and no transaction attempt.
  Runtime rt(small_opts());
  ProcessDef waiter;
  waiter.name = "Waiter";
  waiter.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                              .exists({"x"})
                              .match(pat({A("a"), V("x")}), true)
                              .match(pat({A("go")}))
                              .assert_tuple({lit(Value::atom("got")), evar("x")})
                              .build())});
  const auto feeder = [](const char* name, std::vector<ExprPtr> fields) {
    ProcessDef def;
    def.name = name;
    def.body = seq({stmt(TxnBuilder().assert_tuple(std::move(fields)).build())});
    return def;
  };
  rt.define(std::move(waiter));
  rt.define(feeder("FeedA", {lit(Value::atom("a")), lit(1)}));
  rt.define(feeder("FeedGo", {lit(Value::atom("go"))}));
  rt.spawn("Waiter");
  ASSERT_EQ(rt.run().still_parked, 1u) << "the waiter must park first";

  // [a, 1] matches the waiter's first pattern, so the commit wakes it, but
  // [go] is still missing: the probe fails and the waiter parks again.
  EngineStats& es = rt.engine().stats();
  const std::uint64_t probes0 = es.probes.load();
  const std::uint64_t attempts0 = es.locked_attempts.load();
  const std::uint64_t failures0 = es.failures();
  const std::uint64_t wakes0 = rt.stats().wakes_delivered;
  rt.spawn("FeedA");
  ASSERT_EQ(rt.run().still_parked, 1u);
  EXPECT_GT(rt.stats().wakes_delivered, wakes0) << "the feeder never woke it";
  EXPECT_EQ(es.probes.load(), probes0 + 1) << "the wake skipped the probe";
  EXPECT_EQ(es.locked_attempts.load(), attempts0 + 1)
      << "only the feeder's own commit may count as an attempt";
  EXPECT_EQ(es.failures(), failures0)
      << "a non-enabling wake must not run a failing execute";
  EXPECT_EQ(rt.space().count(tup("got", 1)), 0u);

  // [go] enables it: the probe passes and the waiter commits exactly once.
  const std::uint64_t commits0 = es.commits();
  rt.spawn("FeedGo");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.completed, 2u);  // the feeder and the waiter
  EXPECT_EQ(es.commits(), commits0 + 2);
  EXPECT_EQ(rt.space().count(tup("got", 1)), 1u);
  EXPECT_EQ(rt.space().count(tup("a", 1)), 0u);
  EXPECT_EQ(rt.waits().subscriber_count(), 0u);
}

}  // namespace
}  // namespace sdl
