// Scheduler::kill racing a park-deadline storm and consensus sweeps:
// killed workers with pending watchdog wakeups must tear down exactly
// once, leak no WaitSet subscriptions, and never fire a deadline after
// teardown; kills and wakes aimed at consensus members must never let a
// sweep fire a set one of them has left. Run under TSan/ASan in CI — the
// interesting failures here are races and use-after-frees, not assertion
// misses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "process/runtime.hpp"

namespace sdl {
namespace {

RuntimeOptions storm_opts() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return o;
}

/// Parks on a tuple nobody asserts, with a deadline short enough that the
/// watchdog is constantly expiring parks while the killer runs.
ProcessDef parker_def(std::int64_t timeout_ms) {
  ProcessDef def;
  def.name = "Parker";
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("never")}), true)
                           .timeout(timeout_ms)
                           .build())});
  return def;
}

TEST(KillStorm, KillRacingDeadlineExpiryTearsDownExactlyOnce) {
  constexpr int kProcs = 48;
  Runtime rt(storm_opts());
  rt.define(parker_def(/*timeout_ms=*/5));
  std::vector<ProcessId> pids;
  pids.reserve(kProcs);
  for (int i = 0; i < kProcs; ++i) pids.push_back(rt.spawn("Parker"));

  // The killer sweeps every pid while the watchdog is expiring the same
  // processes: each teardown must be claimed by exactly one side.
  std::thread killer([&] {
    for (ProcessId pid : pids) {
      rt.scheduler().kill(pid);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const RunReport report = rt.run();
  killer.join();

  EXPECT_EQ(report.still_parked, 0u);
  EXPECT_TRUE(report.errors.empty());
  // Every process went down exactly one path — kill or deadline — never
  // both (double teardown) and never neither (leak).
  EXPECT_EQ(report.killed.size() + report.timed_out.size(),
            static_cast<std::size_t>(kProcs));
  EXPECT_EQ(rt.scheduler().total_killed() + rt.scheduler().total_timed_out(),
            static_cast<std::uint64_t>(kProcs));
  EXPECT_EQ(rt.scheduler().live_count(), 0u);
  EXPECT_EQ(rt.waits().subscriber_count(), 0u)
      << "killed parker leaked its WaitSet subscription";

  // No deadline fires after teardown: the scheduler stays healthy for a
  // fresh society on the same runtime.
  rt.seed(tup("never"));
  rt.define([&] {
    ProcessDef def;
    def.name = "Taker";
    def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                             .match(pat({A("never")}), true)
                             .build())});
    return def;
  }());
  rt.spawn("Taker");
  const RunReport second = rt.run();
  EXPECT_TRUE(second.clean()) << "scheduler wedged after the kill storm";
  EXPECT_EQ(rt.waits().subscriber_count(), 0u);
}

TEST(KillStorm, RepeatedStormsDoNotAccumulateState) {
  // Deadline-vs-kill races are timing-dependent; several short rounds
  // catch interleavings one long round misses. Subscription and teardown
  // accounting must hold after every round.
  Runtime rt(storm_opts());
  rt.define(parker_def(/*timeout_ms=*/3));
  std::uint64_t torn_down = 0;
  for (int round = 0; round < 5; ++round) {
    constexpr int kProcs = 16;
    std::vector<ProcessId> pids;
    for (int i = 0; i < kProcs; ++i) pids.push_back(rt.spawn("Parker"));
    std::thread killer([&] {
      // Sweep back-to-front so the youngest parks — the ones whose
      // deadlines are furthest out — are killed first, and the oldest are
      // killed right as their deadlines fire.
      for (auto it = pids.rbegin(); it != pids.rend(); ++it) {
        rt.scheduler().kill(*it);
      }
    });
    const RunReport report = rt.run();
    killer.join();
    torn_down += report.killed.size() + report.timed_out.size();
    EXPECT_EQ(report.still_parked, 0u) << "round " << round;
    EXPECT_EQ(rt.waits().subscriber_count(), 0u) << "round " << round;
    EXPECT_EQ(rt.scheduler().live_count(), 0u) << "round " << round;
  }
  EXPECT_EQ(torn_down, 5u * 16u);
  EXPECT_EQ(rt.scheduler().total_killed() + rt.scheduler().total_timed_out(),
            5u * 16u);
}

TEST(KillStorm, KillAndWakeRacingConsensusSweeps) {
  // Victims park on a `^` offer that can never hold, in one consensus set
  // with the survivors' barrier (all import everything), so the barrier
  // fires only once every victim is torn down. Host threads kill the
  // victims and wake everyone while parks, re-parks and teardowns keep
  // the sweeps running on 4 workers. A process leaves Parked only under
  // the society mutex a sweep holds throughout, so no sweep can fire a
  // set whose member is being killed or woken. The victims' long deadline
  // never expires; it keeps run() from declaring quiescence before the
  // killer reaches the last victim.
  constexpr int kVictims = 24;
  constexpr int kSurvivors = 4;
  for (int round = 0; round < 5; ++round) {
    Runtime rt(storm_opts());
    rt.seed(tup("shared", 0));
    ProcessDef victim;
    victim.name = "Victim";
    victim.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                                .match(pat({A("never")}))
                                .timeout(60'000)
                                .build())});
    rt.define(std::move(victim));
    ProcessDef survivor;
    survivor.name = "Survivor";
    survivor.params = {"k"};
    survivor.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                                  .match(pat({A("shared"), W()}))
                                  .assert_tuple({lit(Value::atom("arrived")),
                                                 evar("k")})
                                  .build())});
    rt.define(std::move(survivor));
    std::vector<ProcessId> victims;
    std::vector<ProcessId> everyone;
    for (int i = 0; i < kVictims; ++i) {
      victims.push_back(rt.spawn("Victim"));
      everyone.push_back(victims.back());
    }
    for (int k = 0; k < kSurvivors; ++k) {
      everyone.push_back(rt.spawn("Survivor", {Value(k)}));
    }

    std::atomic<bool> killing{true};
    std::thread killer([&] {
      for (ProcessId pid : victims) {
        std::this_thread::sleep_for(std::chrono::microseconds(150));
        rt.scheduler().kill(pid);
      }
      killing.store(false);
    });
    std::vector<std::thread> wakers;
    for (int w = 0; w < 2; ++w) {
      wakers.emplace_back([&, w] {
        while (killing.load()) {
          for (std::size_t i = static_cast<std::size_t>(w); i < everyone.size();
               i += 2) {
            rt.scheduler().wake(everyone[i]);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      });
    }
    const RunReport report = rt.run();
    killer.join();
    for (std::thread& t : wakers) t.join();

    std::vector<std::string> expected;
    for (ProcessId pid : victims) {
      expected.push_back("Victim#" + std::to_string(pid) + " killed");
    }
    std::vector<std::string> killed = report.killed;
    std::sort(expected.begin(), expected.end());
    std::sort(killed.begin(), killed.end());
    EXPECT_EQ(killed, expected) << "round " << round;
    EXPECT_EQ(rt.scheduler().total_killed(),
              static_cast<std::uint64_t>(kVictims))
        << "round " << round;
    EXPECT_EQ(rt.consensus().fires(), 1u) << "round " << round;
    for (int k = 0; k < kSurvivors; ++k) {
      EXPECT_EQ(rt.space().count(tup("arrived", k)), 1u)
          << "round " << round << " survivor " << k;
    }
    EXPECT_EQ(report.still_parked, 0u) << "round " << round;
    EXPECT_TRUE(report.timed_out.empty()) << "round " << round;
    EXPECT_TRUE(report.errors.empty()) << "round " << round;
    EXPECT_EQ(rt.scheduler().live_count(), 0u) << "round " << round;
    EXPECT_EQ(rt.waits().subscriber_count(), 0u) << "round " << round;
  }
}

TEST(KillStorm, KillWhileQuiescentDrainsBeforeNextRun) {
  // kill() between runs (no workers live) must be honored at the next
  // run()'s pre-run drain, through the same single-teardown path.
  Runtime rt(storm_opts());
  rt.define(parker_def(/*timeout_ms=*/-1));
  const ProcessId a = rt.spawn("Parker");
  const ProcessId b = rt.spawn("Parker");
  EXPECT_TRUE(rt.scheduler().kill(a));
  EXPECT_FALSE(rt.scheduler().kill(static_cast<ProcessId>(9999)));
  std::thread killer([&] { rt.scheduler().kill(b); });
  const RunReport report = rt.run();
  killer.join();
  EXPECT_EQ(report.killed.size() + report.timed_out.size() +
                report.still_parked,
            2u);
  EXPECT_EQ(rt.scheduler().live_count(), report.still_parked);
}

}  // namespace
}  // namespace sdl
