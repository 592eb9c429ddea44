// E1 (§3.1): array summation — Sum1 (synchronous/consensus) vs Sum2
// (asynchronous/phase-tagged) vs Sum3 (replication) vs a Linda-style
// worker baseline, over array size N.
//
// Claim under test: the replication solution expresses the computation
// with "minimal control constraints"; the consensus-barrier solution pays
// for synchrony; the Linda baseline pays for one-tuple-at-a-time access
// plus an explicit combine-permit tuple.
#include <benchmark/benchmark.h>

#include <thread>

#include "linda.hpp"
#include "workloads.hpp"

namespace {

using namespace sdl;
using namespace sdl::bench;

constexpr std::int64_t kValueRange = 1000;

std::vector<std::int64_t> make_values(int n) {
  Rng rng(42);
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.below(kValueRange);
  return v;
}

std::int64_t expected_sum(const std::vector<std::int64_t>& v) {
  std::int64_t s = 0;
  for (const std::int64_t x : v) s += x;
  return s;
}

RuntimeOptions opts() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return o;
}

void BM_Sum1_Consensus(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto values = make_values(n);
  const std::int64_t want = expected_sum(values);
  for (auto _ : state) {
    Runtime rt(opts());
    rt.define(sum1_def());
    for (int k = 1; k <= n; ++k) rt.seed(tup(k, values[static_cast<std::size_t>(k - 1)]));
    for (int k = 2; k <= n; k += 2) rt.spawn("Sum1", {Value(k), Value(1)});
    rt.run();
    std::int64_t got = -1;
    rt.space().scan_key(IndexKey::of_head(2, Value(n)), [&](const Record& r) {
      got = r.tuple[1].as_int();
      return true;
    });
    if (got != want) state.SkipWithError("Sum1 wrong result");
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

void BM_Sum2_Async(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto values = make_values(n);
  const std::int64_t want = expected_sum(values);
  for (auto _ : state) {
    Runtime rt(opts());
    rt.define(sum2_def());
    for (int k = 1; k <= n; ++k) {
      rt.seed(tup(k, values[static_cast<std::size_t>(k - 1)], 1));
    }
    for (int j = 1; (1 << j) <= n; ++j) {
      for (int k = 1 << j; k <= n; k += 1 << j) {
        rt.spawn("Sum2", {Value(k), Value(j)});
      }
    }
    rt.run();
    std::int64_t got = -1;
    rt.space().scan_key(IndexKey::of_head(3, Value(n)), [&](const Record& r) {
      got = r.tuple[1].as_int();
      return true;
    });
    if (got != want) state.SkipWithError("Sum2 wrong result");
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

void BM_Sum3_Replication(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto values = make_values(n);
  const std::int64_t want = expected_sum(values);
  for (auto _ : state) {
    Runtime rt(opts());
    rt.define(sum3_def());
    for (int k = 1; k <= n; ++k) rt.seed(tup(k, values[static_cast<std::size_t>(k - 1)]));
    rt.spawn("Sum3");
    rt.run();
    std::int64_t got = -1;
    rt.space().scan_arity(2, [&](const Record& r) {
      got = r.tuple[1].as_int();
      return true;
    });
    if (got != want) state.SkipWithError("Sum3 wrong result");
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

/// Linda baseline: data tuples <data, k, v>, a <count, n> permit tuple.
/// Workers take the permit, decrement it, combine two data tuples.
void BM_LindaWorkers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto values = make_values(n);
  const std::int64_t want = expected_sum(values);
  constexpr int kWorkers = 4;
  for (auto _ : state) {
    Dataspace space(64);
    WaitSet waits;
    FunctionRegistry fns;
    GlobalLockEngine engine(space, waits, &fns);
    Linda linda(engine);
    for (int k = 1; k <= n; ++k) {
      linda.out(tup("data", k, values[static_cast<std::size_t>(k - 1)]));
    }
    linda.out(tup("count", n));
    {
      std::vector<std::jthread> workers;
      for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&] {
          for (;;) {
            const Tuple c = linda.in(pat({A("count"), V("n")}));
            const std::int64_t left = c[1].as_int();
            if (left <= 1) {
              linda.out(c);  // put the permit back for the other workers
              return;
            }
            linda.out(tup("count", left - 1));
            const Tuple t1 = linda.in(pat({A("data"), W(), W()}));
            const Tuple t2 = linda.in(pat({A("data"), W(), W()}));
            linda.out(tup("data", t1[1], t1[2].as_int() + t2[2].as_int()));
          }
        });
      }
    }
    const std::optional<Tuple> result = linda.rdp(pat({A("data"), W(), W()}));
    if (!result.has_value() || (*result)[2].as_int() != want) {
      state.SkipWithError("Linda wrong result");
    }
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

BENCHMARK(BM_Sum1_Consensus)->RangeMultiplier(2)->Range(16, 256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sum2_Async)->RangeMultiplier(2)->Range(16, 256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sum3_Replication)->RangeMultiplier(2)->Range(16, 256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LindaWorkers)->RangeMultiplier(2)->Range(16, 256)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
