// E5 (§2): dataspace primitive costs — assert/retract and matching, as a
// function of dataspace size and head diversity.
//
// Claim under test: (arity, head) bucketing makes a constant-headed match
// O(bucket), not O(|D|); head-blind (arity-wide) matching degrades to a
// full scan — this is the raw machinery views and patterns rely on.
#include <benchmark/benchmark.h>

#include "workloads.hpp"

namespace {

using namespace sdl;
using namespace sdl::bench;

/// Fills a space with `size` tuples spread over `heads` distinct heads.
void fill(Dataspace& space, std::int64_t size, std::int64_t heads) {
  for (std::int64_t i = 0; i < size; ++i) {
    space.insert(tup(i % heads, i), kEnvironmentProcess);
  }
}

void BM_AssertRetract(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  Dataspace space(64);
  fill(space, size, 64);
  std::int64_t i = 0;
  for (auto _ : state) {
    const Tuple t = tup(9999999, i++);
    const IndexKey key = IndexKey::of(t);
    const TupleId id = space.insert(t, kEnvironmentProcess);
    benchmark::DoNotOptimize(space.erase(key, id));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MatchByHead(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  const std::int64_t heads = state.range(1);
  Dataspace space(64);
  fill(space, size, heads);
  std::int64_t probe = 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    space.scan_key(IndexKey::of_head(2, Value(probe++ % heads)),
                   [&](const Record&) {
                     ++hits;
                     return true;
                   });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * (size / heads));
}

void BM_MatchArityWide(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  Dataspace space(64);
  fill(space, size, 64);
  for (auto _ : state) {
    std::size_t hits = 0;
    space.scan_arity(2, [&](const Record&) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * size);
}

/// A full pattern match through the query engine over one bucket.
void BM_QueryIndexedJoin(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  Dataspace space(64);
  fill(space, size, 64);
  // Join: [7, x], [8, y] with y = x + shift — exercises binding + join.
  Query q;
  q.quantifier = Quantifier::Exists;
  q.local_vars = {"x", "y"};
  q.patterns = {pat({C(7), V("x")}), pat({C(8), V("y")})};
  q.guard = eq(evar("y"), add(evar("x"), lit(1)));
  SymbolTable st;
  q.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const DataspaceSource src(space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.evaluate(src, env, nullptr).success);
  }
  state.SetItemsProcessed(state.iterations());
}

/// Secondary-index probe: join patterns with a bound second field.
void BM_MatchBySecond(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  Dataspace space(64);
  // One big bucket (same head), distinct second fields — the §3.3 label
  // bucket shape.
  for (std::int64_t i = 0; i < size; ++i) {
    space.insert(tup("label", i, i), kEnvironmentProcess);
  }
  const IndexKey key = IndexKey::of_head(3, Value::atom("label"));
  std::int64_t probe = 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    space.scan_key_second(key, Value(probe++ % size), [&](const Record&) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}

/// The lock-free point read end to end: ShardedEngine::execute of
/// `exists b : [h, k, b]` with `k` bound, over one bucket of `size`
/// tuples. The optimistic path probes the field-1 index, so the time per
/// read should not depend on the bucket size (run_benches.sh gates the
/// 100000 row against the 1000 row).
void BM_PointReadOptimistic(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  Dataspace space(64);
  WaitSet waits;
  FunctionRegistry fns;
  ShardedEngine engine(space, waits, &fns);
  for (std::int64_t i = 0; i < size; ++i) {
    space.insert(tup("h", i, i), kEnvironmentProcess);
  }
  SymbolTable st;
  Transaction read = TxnBuilder()
                         .exists({"b"})
                         .match(pat({A("h"), V("k"), V("b")}))
                         .build();
  read.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const auto k_slot = static_cast<std::size_t>(*st.lookup("k"));
  std::int64_t probe = 0;
  for (auto _ : state) {
    env[k_slot] = Value(probe++ % size);
    benchmark::DoNotOptimize(engine.execute(read, env, ProcessId{1}).success);
  }
  if (engine.stats().read_optimistic.load() !=
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a point read left the optimistic path");
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_AssertRetract)->RangeMultiplier(10)->Range(1000, 1000000);
BENCHMARK(BM_MatchBySecond)->RangeMultiplier(10)->Range(1000, 100000);
BENCHMARK(BM_PointReadOptimistic)->Arg(1000)->Arg(100000);
BENCHMARK(BM_MatchByHead)
    ->ArgsProduct({{100000}, {1, 16, 256, 4096}});
BENCHMARK(BM_MatchArityWide)->RangeMultiplier(10)->Range(1000, 100000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_QueryIndexedJoin)->RangeMultiplier(10)->Range(1000, 100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
