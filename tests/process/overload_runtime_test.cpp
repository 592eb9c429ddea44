// End-to-end overload protection through the Runtime: admission sheds
// host transactions with a RetryAfter hint, saturated WaitSet buckets
// convert would-be-forever parks into watchdog-shed timeouts, the retry
// budget bounds the scheduler's transient-commit retries, and every
// decision is visible in the unified obs export.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "process/runtime.hpp"

namespace sdl {
namespace {

RuntimeOptions small_opts() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return o;
}

TEST(OverloadRuntime, DisabledByDefaultAndGaugesAbsent) {
  Runtime rt(small_opts());
  EXPECT_EQ(rt.overload(), nullptr);
  const std::string json = rt.metrics().to_json();
  EXPECT_EQ(json.find("sdl_admission_shed_total"), std::string::npos)
      << "overload gauges must not register when the layer is off";
}

TEST(OverloadRuntime, AdmissionShedsPastInflightLimit) {
  RuntimeOptions o = small_opts();
  o.overload.max_inflight = 1;
  o.overload.retry_after_us = 150;
  Runtime rt(o);
  ASSERT_NE(rt.overload(), nullptr);
  rt.seed(tup("c", 0));

  // Occupy the single in-flight slot: a delayed transaction blocked on a
  // tuple nobody has asserted yet.
  std::atomic<bool> blocked_done{false};
  std::thread blocker([&] {
    SymbolTable st;
    Transaction wait = TxnBuilder(TxnType::Delayed)
                           .match(pat({A("go")}), true)
                           .build();
    wait.resolve(st);
    Env env(static_cast<std::size_t>(st.size()));
    const TxnResult r = rt.execute(wait, env);
    EXPECT_TRUE(r.success);
    blocked_done.store(true);
  });
  while (rt.overload()->inflight() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Second host transaction: shed at the gate, nothing evaluated.
  SymbolTable st;
  Transaction read = TxnBuilder()
                         .exists({"v"})
                         .match(pat({A("c"), V("v")}))
                         .build();
  read.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const TxnResult shed = rt.execute(read, env);
  EXPECT_FALSE(shed.success);
  EXPECT_TRUE(shed.shed);
  EXPECT_GE(shed.retry_after_us, 150);
  EXPECT_TRUE(shed.matches.empty());
  EXPECT_GE(rt.overload()->stats().sheds.load(), 1u);

  // Unblock, then the gate admits again.
  rt.seed(tup("go"));
  blocker.join();
  EXPECT_TRUE(blocked_done.load());
  const TxnResult ok = rt.execute(read, env);
  EXPECT_TRUE(ok.success);
  EXPECT_FALSE(ok.shed);
  EXPECT_EQ(rt.overload()->inflight(), 0u) << "admission slot leaked";
}

TEST(OverloadRuntime, SaturatedParkBucketIsShedByWatchdog) {
  RuntimeOptions o = small_opts();
  o.overload.max_parked_per_bucket = 1;
  o.overload.saturated_park_timeout_ms = 20;
  Runtime rt(o);
  // Three waiters on the same bucket, each pinned to "park forever": only
  // the first fits under the cap; the overflow parks get a forced short
  // deadline and the watchdog sheds them as timeouts instead of letting
  // the bucket queue grow without bound.
  ProcessDef def;
  def.name = "Lonely";
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("never")}), true)
                           .timeout(-1)
                           .build())});
  rt.define(std::move(def));
  const ProcessId a = rt.spawn("Lonely");
  const ProcessId b = rt.spawn("Lonely");
  const ProcessId c = rt.spawn("Lonely");
  const RunReport report = rt.run();
  EXPECT_EQ(report.timed_out.size(), 2u)
      << "overflow parks must be shed, the under-cap park kept";
  EXPECT_EQ(report.still_parked, 1u);
  EXPECT_GE(rt.overload()->stats().park_saturated.load(), 2u);
  // The shed parks' subscriptions die with them.
  EXPECT_EQ(rt.waits().subscriber_count(), 1u);
  // Tear down the survivor too (killing the already-shed ones is a no-op):
  // kill + run drains every subscription.
  rt.scheduler().kill(a);
  rt.scheduler().kill(b);
  rt.scheduler().kill(c);
  rt.run();
  EXPECT_EQ(rt.waits().subscriber_count(), 0u);
}

TEST(OverloadRuntime, RetryBudgetBoundsTransientCommitRetries) {
  RuntimeOptions o = small_opts();
  o.overload.retry_budget_cap = 2;
  o.overload.retry_deposit_millitokens = 0;  // no refill: the bucket only drains
  Runtime rt(o);
  FaultInjector& faults = rt.enable_faults(/*seed=*/11);
  // Every commit fails transiently for the first 40 crossings, then the
  // storm ends and the society completes.
  faults.arm(FaultPoint::EngineCommit, FaultAction::FailCommit, 1000,
             /*max_fires=*/40);
  ProcessDef def;
  def.name = "Writer";
  def.body = seq({stmt(
      TxnBuilder().assert_tuple({lit(Value::atom("done"))}).build())});
  rt.define(std::move(def));
  rt.spawn("Writer");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean()) << "storm ends -> society must still finish";
  EXPECT_EQ(rt.space().count(tup("done")), 1u);
  // The budget paid for at most cap retries; every further in-dispatch
  // retry was denied and decayed to a requeue instead.
  EXPECT_LE(rt.overload()->stats().retry_spent.load(), 2u);
  EXPECT_GT(rt.overload()->stats().retry_denied.load(), 0u);
  EXPECT_LE(rt.scheduler().commit_retries(),
            rt.overload()->stats().retry_spent.load());
}

TEST(OverloadRuntime, OverloadGaugesInUnifiedExport) {
  RuntimeOptions o = small_opts();
  o.overload.max_inflight = 8;
  o.overload.retry_budget_cap = 4;
  o.overload.breaker_failure_threshold = 3;
  Runtime rt(o);
  const std::string json = rt.metrics().to_json();
  for (const char* name :
       {"sdl_admission_inflight", "sdl_admitted_total",
        "sdl_admission_shed_total", "sdl_retry_budget_tokens",
        "sdl_retry_spent_total", "sdl_retry_denied_total",
        "sdl_breaker_state", "sdl_breaker_trips_total",
        "sdl_wal_backpressure_waits_total", "sdl_park_saturated_total",
        "sdl_epoch_forced_drains_total"}) {
    EXPECT_NE(json.find(name), std::string::npos)
        << name << " missing from obs export";
  }
  // And the prometheus rendering carries them too.
  EXPECT_NE(rt.metrics().to_prometheus().find("sdl_retry_budget_tokens"),
            std::string::npos);
}

TEST(OverloadRuntime, FaultForcedShedIsDeterministicPerSeed) {
  const auto shed_pattern = [](std::uint64_t seed) {
    RuntimeOptions o = small_opts();
    o.overload.max_inflight = 64;  // never organically shed
    Runtime rt(o);
    rt.seed(tup("c", 0));
    FaultInjector& faults = rt.enable_faults(seed);
    faults.arm(FaultPoint::AdmissionShed, FaultAction::FailCommit, 250);
    SymbolTable st;
    Transaction read = TxnBuilder()
                           .exists({"v"})
                           .match(pat({A("c"), V("v")}))
                           .build();
    read.resolve(st);
    Env env(static_cast<std::size_t>(st.size()));
    std::string pattern;
    for (int i = 0; i < 100; ++i) {
      pattern += rt.execute(read, env).shed ? '1' : '0';
    }
    return pattern;
  };
  EXPECT_EQ(shed_pattern(99), shed_pattern(99));
  EXPECT_NE(shed_pattern(99), shed_pattern(100));
}

}  // namespace
}  // namespace sdl
