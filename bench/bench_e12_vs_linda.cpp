// E12 (§1): SDL's multi-tuple atomic transactions vs Linda's
// one-tuple-at-a-time primitives on an atomic transfer workload.
//
// Transfer between accounts <acct, id, balance>: SDL does it in ONE
// transaction (retract both, assert both). Linda must compose in/out
// operations and, to stay atomic, bracket them with a lock tuple — the
// paper's §1 point that Linda "provides processes with very simple
// dataspace access primitives" while SDL's transactions are richer.
//
// Sweep: threads × {high contention: 2 accounts, low: 2*T accounts}.
#include <benchmark/benchmark.h>

#include <thread>

#include "linda.hpp"
#include "workloads.hpp"

namespace {

using namespace sdl;
using namespace sdl::bench;

constexpr int kOpsPerThread = 2000;
constexpr std::int64_t kInitialBalance = 1000000;

void verify_total(benchmark::State& state, Dataspace& space, int accounts) {
  std::int64_t total = 0;
  std::size_t n = 0;
  space.scan_key(IndexKey::of_head(3, Value::atom("acct")), [&](const Record& r) {
    total += r.tuple[2].as_int();
    ++n;
    return true;
  });
  if (n != static_cast<std::size_t>(accounts) ||
      total != kInitialBalance * accounts) {
    state.SkipWithError("balance invariant violated");
  }
}

void BM_SdlTransfer(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool contended = state.range(1) != 0;
  const int accounts = contended ? 2 : 2 * threads;
  for (auto _ : state) {
    state.PauseTiming();
    Dataspace space(64);
    WaitSet waits;
    FunctionRegistry fns;
    ShardedEngine engine(space, waits, &fns);
    for (int a = 0; a < accounts; ++a) {
      space.insert(tup("acct", a, kInitialBalance), kEnvironmentProcess);
    }
    state.ResumeTiming();
    {
      std::vector<std::jthread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          const int from = contended ? 0 : 2 * t;
          const int to = contended ? 1 : 2 * t + 1;
          Transaction txn =
              TxnBuilder(TxnType::Delayed)
                  .exists({"x", "y"})
                  .match(pat({A("acct"), C(from), V("x")}), true)
                  .match(pat({A("acct"), C(to), V("y")}), true)
                  .assert_tuple({lit(Value::atom("acct")), lit(from),
                                 sub(evar("x"), lit(1))})
                  .assert_tuple({lit(Value::atom("acct")), lit(to),
                                 add(evar("y"), lit(1))})
                  .build();
          SymbolTable st;
          txn.resolve(st);
          Env env(static_cast<std::size_t>(st.size()));
          for (int i = 0; i < kOpsPerThread; ++i) {
            execute_blocking(engine, txn, env, static_cast<ProcessId>(t + 1));
          }
        });
      }
    }
    state.PauseTiming();
    verify_total(state, space, accounts);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * threads * kOpsPerThread);
}

void BM_LindaTransfer(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool contended = state.range(1) != 0;
  const int accounts = contended ? 2 : 2 * threads;
  for (auto _ : state) {
    state.PauseTiming();
    Dataspace space(64);
    WaitSet waits;
    FunctionRegistry fns;
    ShardedEngine engine(space, waits, &fns);
    Linda linda(engine);
    for (int a = 0; a < accounts; ++a) {
      linda.out(tup("acct", a, kInitialBalance));
    }
    linda.out(tup("xferlock"));
    state.ResumeTiming();
    {
      std::vector<std::jthread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          const int from = contended ? 0 : 2 * t;
          const int to = contended ? 1 : 2 * t + 1;
          for (int i = 0; i < kOpsPerThread; ++i) {
            // Atomicity requires the global lock tuple: in/out pairs are
            // not atomic on their own.
            linda.in(pat({A("xferlock")}));
            const Tuple f = linda.in(pat({A("acct"), C(from), W()}));
            const Tuple g = linda.in(pat({A("acct"), C(to), W()}));
            linda.out(tup("acct", from, f[2].as_int() - 1));
            linda.out(tup("acct", to, g[2].as_int() + 1));
            linda.out(tup("xferlock"));
          }
        });
      }
    }
    state.PauseTiming();
    verify_total(state, space, accounts);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * threads * kOpsPerThread);
}

BENCHMARK(BM_SdlTransfer)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_LindaTransfer)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
