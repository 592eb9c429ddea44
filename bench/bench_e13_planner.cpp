// E13 (ablation): the join planner — greedy ready/exact-first pattern
// ordering vs strict textual order.
//
// Workload: a *failing* two-pattern join written selective-pattern-LAST.
// Failing guard evaluations are SDL's hot path — every repetition retries
// its guards to failure before blocking — so their cost matters most.
// Naive order scans all of D before discovering the empty pinned bucket;
// the planner probes the empty bucket first and fails in O(1). Sweep |D|.
//
// The wakeup-check column: the guard-heavy parked shape re-checked on
// every commit through the engine probe under read locks (O(window) per
// wakeup) — the one re-check path a parked delayed transaction takes.
//
// ISSUE 10 adds the compiled-tier columns: the same query executed
// through the bytecode match program (Query::evaluate) vs the test
// reference evaluator (tests/query/reference_eval.hpp, a tree-walking join
// interpreter), on a guard-heavy all-reject sweep — the shape where
// per-candidate expression-tree walking dominates. run_benches.sh --check
// gates BM_GuardHeavyInterpreted / BM_GuardHeavyCompiled at
// >= SDL_E13_GATE (2x) on the largest shape, again self-relative.
#include <benchmark/benchmark.h>

#include "query/reference_eval.hpp"
#include "workloads.hpp"

namespace {

using namespace sdl;
using namespace sdl::bench;

struct Setup {
  Dataspace space{64};
  SymbolTable st;
  Query query;
  Env env;

  Setup(std::int64_t size, bool planner) {
    for (std::int64_t i = 0; i < size; ++i) {
      space.insert(tup(i, i), kEnvironmentProcess);
    }
    // No <pinned, _> tuple exists: the join must fail. Written
    // selective-last: [h, v] (arity-wide), [pinned, v] (empty bucket).
    query.use_planner = planner;
    query.local_vars = {"h", "v"};
    query.patterns = {pat({V("h"), V("v")}), pat({A("pinned"), V("v")})};
    query.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
  }
};

void BM_NaiveOrder(benchmark::State& state) {
  Setup s(state.range(0), /*planner=*/false);
  const DataspaceSource src(s.space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.query.evaluate(src, s.env, nullptr).success);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PlannedOrder(benchmark::State& state) {
  Setup s(state.range(0), /*planner=*/true);
  const DataspaceSource src(s.space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.query.evaluate(src, s.env, nullptr).success);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_NaiveOrder)->RangeMultiplier(4)->Range(64, 16384)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PlannedOrder)->RangeMultiplier(4)->Range(64, 16384)->Unit(benchmark::kMicrosecond);

// ---- Wakeup check ----

/// The guard-heavy parked shape: ∃v: <w,v> : v < 0 over a window of
/// `size` candidates, none of which pass the guard. Every wakeup of a
/// process parked on this pays a full enumeration; the planner cannot
/// help (one pattern, the bucket is hot).
struct WakeSetup {
  Dataspace space{64};
  WaitSet waits;
  FunctionRegistry fns;
  SymbolTable st;
  Transaction txn;
  Env env;
  ShardedEngine engine{space, waits, &fns};

  explicit WakeSetup(std::int64_t size) {
    for (std::int64_t i = 0; i < size; ++i) {
      space.insert(tup("w", i), kEnvironmentProcess);
    }
    txn = TxnBuilder(TxnType::Delayed)
              .exists({"v"})
              .match(pat({A("w"), V("v")}))
              .where(lt(evar("v"), lit(0)))
              .build();
    txn.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
  }
};

/// Wakeup check: engine probe (optimistic, else read locks), O(window).
void BM_WakeupFullProbe(benchmark::State& state) {
  WakeSetup s(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.engine.probe(s.txn, s.env));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_WakeupFullProbe)->RangeMultiplier(4)->Range(64, 16384)->Unit(benchmark::kMicrosecond);

// ---- Compiled-tier ablation (ISSUE 10) ----

/// Guard-heavy all-reject sweep: ∃v: <g,v> : ((v*3 + v/7 - v%11) * 2)
/// mod 5 == 9 — eight operators per candidate, never true (a mod-5
/// residue is 0..4 for numeric v), so every evaluation walks the whole
/// window and pays the guard on every candidate. The bucket is
/// heterogeneous, half numeric and half atom payloads — the realistic
/// worst case: on atom candidates the reference evaluator uses a C++
/// throw/catch round-trip (std::invalid_argument out of arith, caught by
/// its guard check) as its reject path, while the compiled tier returns a
/// Trap code from the same flat bytecode pass. Numeric candidates isolate
/// plain per-candidate expression cost: shared_ptr tree re-walk vs
/// pre-resolved bytecode.
struct GuardHeavySetup {
  Dataspace space{64};
  SymbolTable st;
  Query query;
  Env env;

  explicit GuardHeavySetup(std::int64_t size) {
    for (std::int64_t i = 0; i < size; ++i) {
      space.insert(i % 2 == 0 ? tup("g", i) : tup("g", Value::atom("opaque")),
                   kEnvironmentProcess);
    }
    query.local_vars = {"v"};
    query.patterns = {pat({A("g"), V("v")})};
    query.guard =
        eq(mod(mul(add(mul(evar("v"), lit(3)),
                       sub(div_(evar("v"), lit(7)), mod(evar("v"), lit(11)))),
                   lit(2)),
               lit(5)),
           lit(9));
    query.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
  }
};

/// The reference evaluator (the name predates its move out of src/).
void BM_GuardHeavyInterpreted(benchmark::State& state) {
  GuardHeavySetup s(state.range(0));
  const DataspaceSource src(s.space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reference_evaluate(s.query, src, s.env, nullptr).success);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_GuardHeavyCompiled(benchmark::State& state) {
  GuardHeavySetup s(state.range(0));
  const DataspaceSource src(s.space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.query.evaluate(src, s.env, nullptr).success);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_GuardHeavyInterpreted)->RangeMultiplier(4)->Range(64, 16384)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GuardHeavyCompiled)->RangeMultiplier(4)->Range(64, 16384)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
