// Property-based suites: invariants checked across randomized inputs and
// runtime configurations (engines × shard counts × worker counts), using
// parameterized gtest sweeps.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "sim/explore.hpp"

namespace sdl {
namespace {

// --------------------------------------------------------------- helpers

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 11;
  }
  std::int64_t below(std::int64_t m) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(m));
  }

 private:
  std::uint64_t state_;
};

// ------------------------------------------------- conservation property

struct ConservationParam {
  EngineKind engine;
  std::size_t shards;
  int threads;
};

/// Token conservation: concurrent transfers between K cells must preserve
/// the total — the fundamental serializability witness.
class ConservationTest : public ::testing::TestWithParam<ConservationParam> {};

TEST_P(ConservationTest, ConcurrentTransfersPreserveTotal) {
  const ConservationParam p = GetParam();
  Dataspace space(p.shards);
  WaitSet waits;
  FunctionRegistry fns;
  std::unique_ptr<Engine> engine;
  if (p.engine == EngineKind::GlobalLock) {
    engine = std::make_unique<GlobalLockEngine>(space, waits, &fns);
  } else {
    engine = std::make_unique<ShardedEngine>(space, waits, &fns);
  }

  constexpr int kCells = 6;
  constexpr std::int64_t kInitial = 1000;
  for (int c = 0; c < kCells; ++c) {
    space.insert(tup("cell", c, kInitial), kEnvironmentProcess);
  }

  constexpr int kOpsPerThread = 150;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < p.threads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(t) + 17);
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::int64_t from = rng.below(kCells);
          std::int64_t to = rng.below(kCells - 1);
          if (to >= from) ++to;
          Transaction txn =
              TxnBuilder(TxnType::Delayed)
                  .exists({"x", "y"})
                  .match(pat({A("cell"), C(Value(from)), V("x")}), true)
                  .match(pat({A("cell"), C(Value(to)), V("y")}), true)
                  .assert_tuple({lit(Value::atom("cell")), lit(Value(from)),
                                 sub(evar("x"), lit(1))})
                  .assert_tuple({lit(Value::atom("cell")), lit(Value(to)),
                                 add(evar("y"), lit(1))})
                  .build();
          SymbolTable st;
          txn.resolve(st);
          Env env(static_cast<std::size_t>(st.size()));
          ASSERT_TRUE(
              execute_blocking(*engine, txn, env, static_cast<ProcessId>(t + 1))
                  .success);
        }
      });
    }
  }

  std::int64_t total = 0;
  std::size_t cells = 0;
  space.scan_key(IndexKey::of_head(3, Value::atom("cell")), [&](const Record& r) {
    total += r.tuple[2].as_int();
    ++cells;
    return true;
  });
  EXPECT_EQ(cells, static_cast<std::size_t>(kCells));
  EXPECT_EQ(total, kInitial * kCells) << "serializability violated";
}

INSTANTIATE_TEST_SUITE_P(
    EnginesShardsThreads, ConservationTest,
    ::testing::Values(
        ConservationParam{EngineKind::GlobalLock, 1, 4},
        ConservationParam{EngineKind::GlobalLock, 64, 8},
        ConservationParam{EngineKind::Sharded, 1, 4},
        ConservationParam{EngineKind::Sharded, 16, 4},
        ConservationParam{EngineKind::Sharded, 64, 8},
        ConservationParam{EngineKind::Sharded, 256, 8}),
    [](const ::testing::TestParamInfo<ConservationParam>& info) {
      return std::string(info.param.engine == EngineKind::GlobalLock ? "Global"
                                                                     : "Sharded") +
             "_s" + std::to_string(info.param.shards) + "_t" +
             std::to_string(info.param.threads);
    });

// ----------------------------------------------- replication sort sweeps

/// The §2.3 exchange sort must fix any permutation.
class ReplicationSortTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicationSortTest, SortsRandomPermutation) {
  Rng rng(GetParam());
  const int n = 6 + static_cast<int>(rng.below(20));
  std::vector<int> values(static_cast<std::size_t>(n));
  std::iota(values.begin(), values.end(), 1);
  for (int i = n - 1; i > 0; --i) {
    std::swap(values[static_cast<std::size_t>(i)],
              values[static_cast<std::size_t>(rng.below(i + 1))]);
  }

  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 2 + static_cast<std::size_t>(GetParam() % 3);
  Runtime rt(o);
  for (int i = 1; i <= n; ++i) {
    rt.seed(tup(i, values[static_cast<std::size_t>(i - 1)]));
  }
  ProcessDef def;
  def.name = "SortRep";
  def.body = seq({replicate({branch(
      TxnBuilder()
          .exists({"i", "j", "v1", "v2"})
          .match(pat({V("i"), V("v1")}), true)
          .match(pat({V("j"), V("v2")}), true)
          .where(land(lt(evar("i"), evar("j")), gt(evar("v1"), evar("v2"))))
          .assert_tuple({evar("i"), evar("v2")})
          .assert_tuple({evar("j"), evar("v1")})
          .build())})});
  rt.define(std::move(def));
  rt.spawn("SortRep");
  const RunReport report = rt.run();
  ASSERT_TRUE(report.clean());
  for (int i = 1; i <= n; ++i) {
    EXPECT_EQ(rt.space().count(tup(i, i)), 1u) << "position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationSortTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ReplicationSortDeterministic, SweepSortsSeededPermutations) {
  // ISSUE 3 satellite: the same property under the deterministic
  // scheduler, 64 seeds. Each seed derives both the permutation and the
  // schedule; a failure prints the reproducing seed and minimized trace.
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
    const int n = 5 + static_cast<int>(rng.below(8));
    std::vector<int> values(static_cast<std::size_t>(n));
    std::iota(values.begin(), values.end(), 1);
    for (int i = n - 1; i > 0; --i) {
      std::swap(values[static_cast<std::size_t>(i)],
                values[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    for (int i = 1; i <= n; ++i) {
      rt->seed(tup(i, values[static_cast<std::size_t>(i - 1)]));
    }
    rt->seed(tup("n", n));  // lets the check recover the size
    ProcessDef def;
    def.name = "SortRep";
    def.body = seq({replicate({branch(
        TxnBuilder()
            .exists({"i", "j", "v1", "v2"})
            .match(pat({V("i"), V("v1")}), true)
            .match(pat({V("j"), V("v2")}), true)
            .where(land(lt(evar("i"), evar("j")), gt(evar("v1"), evar("v2"))))
            .assert_tuple({evar("i"), evar("v2")})
            .assert_tuple({evar("j"), evar("v1")})
            .build())})});
    rt->define(std::move(def));
    rt->spawn("SortRep");
    rt->enable_history();
    return rt;
  };
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (!report.clean()) return std::string("unclean report");
    std::int64_t n = 0;
    rt.space().scan_key(IndexKey::of_head(2, Value::atom("n")),
                        [&](const Record& r) {
                          n = r.tuple[1].as_int();
                          return true;
                        });
    for (std::int64_t i = 1; i <= n; ++i) {
      if (rt.space().count(tup(i, i)) != 1) {
        return "position " + std::to_string(i) + " unsorted";
      }
    }
    return std::string();
  };
  const sim::SweepResult r = sim::sweep_seeds(build, {.seeds = 64}, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
}

// ------------------------------------------------------- Sum3 any input

class Sum3Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Sum3Test, SumsRandomArrays) {
  Rng rng(GetParam() * 31);
  const int n = 1 + static_cast<int>(rng.below(64));
  std::int64_t want = 0;

  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  Runtime rt(o);
  for (int k = 1; k <= n; ++k) {
    const std::int64_t v = rng.below(2000) - 1000;  // negatives too
    want += v;
    rt.seed(tup(k, v));
  }
  ProcessDef def;
  def.name = "Sum3";
  def.body = seq({replicate({branch(TxnBuilder()
                                        .exists({"v", "a", "u", "b"})
                                        .match(pat({V("v"), V("a")}), true)
                                        .match(pat({V("u"), V("b")}), true)
                                        .where(ne(evar("v"), evar("u")))
                                        .assert_tuple({evar("u"),
                                                       add(evar("a"), evar("b"))})
                                        .build())})});
  rt.define(std::move(def));
  rt.spawn("Sum3");
  ASSERT_TRUE(rt.run().clean());
  ASSERT_EQ(rt.space().size(), 1u);
  EXPECT_EQ(rt.space().snapshot()[0].tuple[1], Value(want));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sum3Test, ::testing::Range<std::uint64_t>(1, 11));

TEST(Sum3Deterministic, SweepSumsFixedArrayUnderAnySchedule) {
  // Fixed input, 64 different schedules: the §2.4 pairwise folding must
  // reach the same total no matter which pairs the scheduler picks.
  constexpr int kN = 12;
  constexpr std::int64_t kWant = kN * (kN + 1) / 2;
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    for (int k = 1; k <= kN; ++k) rt->seed(tup(k, k));
    ProcessDef def;
    def.name = "Sum3";
    def.body = seq({replicate({branch(
        TxnBuilder()
            .exists({"v", "a", "u", "b"})
            .match(pat({V("v"), V("a")}), true)
            .match(pat({V("u"), V("b")}), true)
            .where(ne(evar("v"), evar("u")))
            .assert_tuple({evar("u"), add(evar("a"), evar("b"))})
            .build())})});
    rt->define(std::move(def));
    rt->spawn("Sum3");
    rt->enable_history();
    return rt;
  };
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (!report.clean()) return std::string("unclean report");
    if (rt.space().size() != 1) return std::string("fold incomplete");
    if (rt.space().snapshot()[0].tuple[1] != Value(kWant)) {
      return std::string("wrong total");
    }
    return std::string();
  };
  const sim::SweepResult r = sim::sweep_seeds(build, {.seeds = 64}, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
}

// ---------------------------------------------- query evaluator algebra

class QueryAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {};

/// On any dataspace: (1) Exists succeeds iff ForAll over the negated
/// guard fails or has a witness — here we check the simpler duals:
/// Exists(q) fails ⇔ the negation-as-subquery of q succeeds; and ForAll
/// collects exactly the matches Exists can reach one-by-one (drain
/// equivalence).
TEST_P(QueryAlgebraTest, ExistsFailsIffNegationHolds) {
  Rng rng(GetParam() * 97 + 5);
  Dataspace space(16);
  const int tuples = static_cast<int>(rng.below(30));
  for (int i = 0; i < tuples; ++i) {
    space.insert(tup("n", rng.below(10)), kEnvironmentProcess);
  }
  const std::int64_t bound = rng.below(10);

  Query exists_q;
  exists_q.local_vars = {"x"};
  exists_q.patterns = {pat({A("n"), V("x")})};
  exists_q.guard = gt(evar("x"), lit(bound));
  SymbolTable st1;
  exists_q.resolve(st1);
  Env env1(static_cast<std::size_t>(st1.size()));

  Query neg_q;
  neg_q.negations.push_back(
      NegatedGroup{{pat({A("n"), V("nx")})}, gt(evar("nx"), lit(bound))});
  SymbolTable st2;
  neg_q.resolve(st2);
  Env env2(static_cast<std::size_t>(st2.size()));

  const DataspaceSource src(space);
  const bool found = exists_q.evaluate(src, env1, nullptr).success;
  const bool none = neg_q.evaluate(src, env2, nullptr).success;
  EXPECT_NE(found, none) << "∃q and ¬∃q must disagree";
}

TEST_P(QueryAlgebraTest, ForAllMatchesEqualExistsDrain) {
  Rng rng(GetParam() * 131 + 7);
  Dataspace space(16);
  const int tuples = 1 + static_cast<int>(rng.below(20));
  for (int i = 0; i < tuples; ++i) {
    space.insert(tup("m", rng.below(6)), kEnvironmentProcess);
  }

  // ForAll with retract tags: counts all matches.
  Query all;
  all.quantifier = Quantifier::ForAll;
  all.local_vars = {"x"};
  TuplePattern pa = pat({A("m"), V("x")});
  pa.set_retract(true);
  all.patterns = {pa};
  SymbolTable st;
  all.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const DataspaceSource src(space);
  const QueryOutcome out = all.evaluate(src, env, nullptr);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.matches.size(), static_cast<std::size_t>(tuples));

  // Draining with Exists one at a time reaches the same count.
  Query one;
  one.local_vars = {"y"};
  TuplePattern pb = pat({A("m"), V("y")});
  pb.set_retract(true);
  one.patterns = {pb};
  SymbolTable st2;
  one.resolve(st2);
  Env env2(static_cast<std::size_t>(st2.size()));
  int drained = 0;
  for (;;) {
    const QueryOutcome o = one.evaluate(src, env2, nullptr);
    if (!o.success) break;
    ASSERT_EQ(o.matches[0].retract.size(), 1u);
    ASSERT_TRUE(space.retract(*o.matches[0].retract[0]));
    ++drained;
  }
  EXPECT_EQ(drained, tuples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryAlgebraTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ----------------------------------------- dataspace multiset invariant

class MultisetTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultisetTest, RandomInsertEraseKeepsCounts) {
  Rng rng(GetParam() * 7919);
  Dataspace space(8);
  std::unordered_map<std::int64_t, std::vector<TupleId>> live;
  std::size_t expected = 0;
  for (int op = 0; op < 400; ++op) {
    const std::int64_t head = rng.below(5);
    if (rng.below(2) == 0 || live[head].empty()) {
      live[head].push_back(space.insert(tup(head, 0), kEnvironmentProcess));
      ++expected;
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.below(static_cast<std::int64_t>(live[head].size())));
      ASSERT_TRUE(space.erase(IndexKey::of(tup(head, 0)), live[head][pick]));
      live[head].erase(live[head].begin() + static_cast<std::ptrdiff_t>(pick));
      --expected;
    }
    ASSERT_EQ(space.size(), expected);
  }
  for (const auto& [head, ids] : live) {
    EXPECT_EQ(space.count(tup(head, 0)), ids.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultisetTest, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace sdl
