// Seed sweeps over the deterministic scheduler (ISSUE 3): the shipped
// paper programs must produce their documented results and replay
// serializably under (by default) 64 different schedules each, and a
// failing sweep must hand back the reproducing seed plus a minimized
// schedule. SDL_SIM_SEEDS overrides the sweep width (CI's TSan job runs
// a longer sweep).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "lang/compile.hpp"
#include "sim/explore.hpp"

namespace sdl {
namespace {

std::size_t sweep_width() {
  if (const char* env = std::getenv("SDL_SIM_SEEDS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 64;
}

sim::BuildFn script_build(const char* name) {
  const std::string path = std::string(SDL_EXAMPLES_DIR) + "/" + name;
  return [path](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    lang::load_path(*rt, path);
    rt->enable_history();
    return rt;
  };
}

std::string require_clean(const RunReport& report) {
  if (report.clean()) return {};
  if (!report.errors.empty()) return "error: " + report.errors[0];
  if (!report.timed_out.empty()) return "timeout: " + report.timed_out[0];
  if (!report.parked.empty()) return "parked: " + report.parked[0];
  return "unclean report";
}

TEST(SimSweepTest, DiningSweepStaysCorrectAndSerializable) {
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (std::string bad = require_clean(report); !bad.empty()) return bad;
    for (int i = 0; i < 5; ++i) {
      if (rt.space().count(tup("sated", i)) != 1) {
        return "philosopher " + std::to_string(i) + " not sated";
      }
      if (rt.space().count(tup("chopstick", i)) != 1) {
        return "chopstick " + std::to_string(i) + " not returned";
      }
    }
    if (rt.waits().subscriber_count() != 0) return std::string("leaked subscription");
    return std::string();
  };
  sim::SweepOptions opts;
  opts.seeds = sweep_width();
  const sim::SweepResult r =
      sim::sweep_seeds(script_build("dining.sdl"), opts, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_EQ(r.runs, opts.seeds);
  EXPECT_GT(r.distinct_traces, 1u)
      << "64 seeds explored a single interleaving";
}

TEST(SimSweepTest, BoundedBufferSweepStaysCorrectAndSerializable) {
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (std::string bad = require_clean(report); !bad.empty()) return bad;
    for (int i = 1; i <= 10; ++i) {
      if (rt.space().count(tup("consumed", i)) != 1) {
        return "item " + std::to_string(i) + " not consumed exactly once";
      }
    }
    if (rt.space().count(tup("slot")) != 3) return std::string("capacity lost");
    return std::string();
  };
  sim::SweepOptions opts;
  opts.seeds = sweep_width();
  const sim::SweepResult r =
      sim::sweep_seeds(script_build("bounded_buffer.sdl"), opts, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
}

TEST(SimSweepTest, ConsensusSum1SweepStaysCorrectAndSerializable) {
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (std::string bad = require_clean(report); !bad.empty()) return bad;
    if (rt.space().count(tup(8, 11 + 22 + 33 + 44 + 55 + 66 + 77 + 88)) != 1) {
      return std::string("wrong sum");
    }
    if (rt.consensus().fires() < 3) return std::string("too few fires");
    return std::string();
  };
  sim::SweepOptions opts;
  opts.seeds = sweep_width();
  const sim::SweepResult r =
      sim::sweep_seeds(script_build("sum1.sdl"), opts, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
}

TEST(SimSweepTest, ContendedCounterSweepConservesTotal) {
  // Props-style society: 10 one-shot incrementers hammer a single
  // counter instance; every schedule must end at exactly 10.
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    rt->seed(tup("c", 0));
    ProcessDef def;
    def.name = "Inc";
    def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                             .exists({"x"})
                             .match(pat({A("c"), V("x")}), true)
                             .assert_tuple({lit(Value::atom("c")),
                                            add(evar("x"), lit(1))})
                             .build())});
    rt->define(std::move(def));
    for (int i = 0; i < 10; ++i) rt->spawn("Inc");
    rt->enable_history();
    return rt;
  };
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (std::string bad = require_clean(report); !bad.empty()) return bad;
    if (rt.space().count(tup("c", 10)) != 1) return std::string("count lost");
    return std::string();
  };
  sim::SweepOptions opts;
  opts.seeds = sweep_width();
  const sim::SweepResult r = sim::sweep_seeds(build, opts, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
}

TEST(SimSweepTest, ReadHeavyFallbackSweepStaysSerializable) {
  // Read-only txns normally take the optimistic lock-free path, but with
  // history armed (as every sim run is) the engine falls back to the
  // shared-lock path so reads land in the commit log. This sweep pins
  // down that the fallback stays serializable: writers keep a==b as a
  // two-shard atomic invariant, readers observe both counters under a
  // guard that only a torn read could falsify, and the checker replays
  // every recorded read against the serial order.
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    rt->seed(tup("a", 0));
    rt->seed(tup("b", 0));
    ProcessDef w;
    w.name = "Inc2";
    w.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .exists({"x", "y"})
                           .match(pat({A("a"), V("x")}), true)
                           .match(pat({A("b"), V("y")}), true)
                           .assert_tuple({lit(Value::atom("a")),
                                          add(evar("x"), lit(1))})
                           .assert_tuple({lit(Value::atom("b")),
                                          add(evar("y"), lit(1))})
                           .build())});
    ProcessDef r;
    r.name = "ReadBoth";
    r.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .exists({"x", "y"})
                           .match(pat({A("a"), V("x")}))
                           .match(pat({A("b"), V("y")}))
                           .where(eq(evar("x"), evar("y")))
                           .build())});
    rt->define(std::move(w));
    rt->define(std::move(r));
    for (int i = 0; i < 4; ++i) {
      rt->spawn("Inc2");
      rt->spawn("ReadBoth");
    }
    rt->enable_history();
    return rt;
  };
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    // A torn read would fail the x==y guard and park the reader forever:
    // require_clean turns that into a named complaint.
    if (std::string bad = require_clean(report); !bad.empty()) return bad;
    if (rt.space().count(tup("a", 4)) != 1) return std::string("a lost");
    if (rt.space().count(tup("b", 4)) != 1) return std::string("b lost");
    return std::string();
  };
  sim::SweepOptions opts;
  opts.seeds = sweep_width();
  const sim::SweepResult r = sim::sweep_seeds(build, opts, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
}

TEST(SimSweepTest, WakeAllTokenRingSweepStaysSerializable) {
  // The WakeAll ablation inside the deterministic sim, so every commit
  // wakes every parked process: a token ring whose workers park until the
  // token reaches their index (each hop wakes the whole ring, and all but
  // one worker re-check to failure), plus noise writers whose irrelevant
  // commits spuriously wake everyone. Every one of those re-checks goes
  // through the one wakeup path, probe then execute. The schedules must
  // finish the ring and replay serializably.
  struct WakeTotals {
    std::uint64_t wakes = 0, commits = 0, probes = 0;
  };
  auto totals = std::make_shared<WakeTotals>();
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    o.wake_policy = WaitSet::WakePolicy::WakeAll;
    auto rt = std::make_unique<Runtime>(o);
    rt->seed(tup("t", 0));
    ProcessDef w;
    w.name = "Step";
    w.params = {"i"};
    w.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("t"), E(evar("i"))}), true)
                           .assert_tuple({lit(Value::atom("t")),
                                          add(evar("i"), lit(1))})
                           .build())});
    ProcessDef n;
    n.name = "Noise";
    n.params = {"k"};
    n.body = seq({stmt(TxnBuilder()
                           .assert_tuple({lit(Value::atom("noise")),
                                          evar("k")})
                           .build())});
    rt->define(std::move(w));
    rt->define(std::move(n));
    // Spawn the ring out of order so early schedules park most workers.
    for (int i = 5; i >= 0; --i) rt->spawn("Step", {Value(i)});
    for (int k = 0; k < 3; ++k) rt->spawn("Noise", {Value(k)});
    rt->enable_history();
    return rt;
  };
  const sim::CheckFn check = [totals](Runtime& rt, const RunReport& report) {
    if (std::string bad = require_clean(report); !bad.empty()) return bad;
    if (rt.space().count(tup("t", 6)) != 1) return std::string("ring broke");
    for (int k = 0; k < 3; ++k) {
      if (rt.space().count(tup("noise", k)) != 1) {
        return std::string("noise lost");
      }
    }
    const Runtime::Stats s = rt.stats();
    totals->wakes += s.wakes_delivered;
    totals->commits += s.txn_commits;
    totals->probes += rt.engine().stats().probes.load();
    return std::string();
  };
  sim::SweepOptions opts;
  opts.seeds = sweep_width();
  const sim::SweepResult r = sim::sweep_seeds(build, opts, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
  // Vacuity guards: more wakes than commits means spurious wakes happened,
  // and the probe count shows they were re-checked through the probe.
  EXPECT_GT(totals->wakes, totals->commits) << "no spurious wake ever happened";
  EXPECT_GT(totals->probes, 0u) << "no wake ever re-checked through the probe";
}

TEST(SimSweepTest, FailingSweepNamesSeedAndMinimizesSchedule) {
  // Drive the machinery through a deliberate schedule-dependent
  // "failure" (a race invariant that only one schedule order satisfies):
  // the sweep must name the reproducing seed, emit a minimized decision
  // prefix, and that prefix must replay to the same complaint.
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    rt->seed(tup("token"));
    ProcessDef a;
    a.name = "TakerA";
    a.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("token")}), true)
                           .assert_tuple({lit(Value::atom("a_won"))})
                           .build())});
    ProcessDef b;
    b.name = "TakerB";
    b.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("token")}), true)
                           .assert_tuple({lit(Value::atom("b_won"))})
                           .build())});
    rt->define(std::move(a));
    rt->define(std::move(b));
    rt->spawn("TakerA");
    rt->spawn("TakerB");
    rt->enable_history();
    return rt;
  };
  const sim::CheckFn a_must_win = [](Runtime& rt, const RunReport&) {
    if (rt.space().count(tup("b_won")) != 0) return std::string("B took the token");
    return std::string();
  };
  sim::SweepOptions opts;
  opts.seeds = 64;
  const sim::SweepResult r = sim::sweep_seeds(build, opts, a_must_win);
  ASSERT_FALSE(r.ok()) << "64 seeds never let TakerB win a symmetric race";
  EXPECT_GE(r.first_failing_seed, 0);
  EXPECT_NE(r.first_failure.find("reproduce with"), std::string::npos)
      << r.first_failure;
  EXPECT_NE(r.first_failure.find("minimized schedule"), std::string::npos)
      << r.first_failure;

  // The minimized prefix (with default continuation — the minimizer's
  // replay semantics) must reproduce the exact complaint.
  std::unique_ptr<Runtime> rt = build(r.first_failing_seed);
  sim::RecordingDecisionSource replay(r.minimized_choices, nullptr);
  rt->scheduler().set_decision_source(&replay);
  const RunReport report = rt->run();
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(a_must_win(*rt, report), "B took the token")
      << "minimized schedule did not reproduce the failure";
}

}  // namespace
}  // namespace sdl
