// Differential harness for the compiled query tier.
//
// The compiler's correctness claim is total equivalence: for every query,
// the bytecode match program must produce the SAME QueryOutcome — success
// bit, match order, bindings, read sets, retract sets — and the same final
// env as the test reference evaluator (reference_eval.hpp, the tree-walking
// join interpreter with its dynamic planner), under every binding
// signature. This file discharges that claim two ways:
//
//   * a shape sweep: every execution feature the compiler lowers
//     (exact/arity/secondary scans, joins, wildcards, retract tags,
//     negations, ForAll, guard traps, pre-bound signatures, computed
//     terms and their traps, not-ready patterns, wide signatures)
//     evaluated compiled-vs-reference on the same data;
//   * a seeded property test over random expression trees: the VM's
//     value-or-trap must agree with Expr::eval's value-or-throw on every
//     tree. Runs under the ASan+UBSan and TSan CI jobs, so the checked
//     arithmetic is exercised with sanitizers watching.
#include "query/compile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "query/reference_eval.hpp"

namespace sdl {
namespace {

/// Evaluates structurally identical queries compiled and through the
/// reference over one dataspace and asserts outcome + env equivalence.
struct DiffFixture {
  Dataspace space{16};
  FunctionRegistry fns;
  /// The compiled side's env after the last diff(): where an Exists
  /// winner's binding lives (QueryMatch::binding is ForAll-only).
  Env last_env;

  /// `make` builds the query fresh per evaluator (resolve() is once-only);
  /// `pre` seeds process-persistent bindings after resolve, before
  /// evaluation — the binding-signature dimension of the cache key.
  QueryOutcome diff(const std::function<Query()>& make,
                    const std::function<void(SymbolTable&, Env&)>& pre = {}) {
    SymbolTable st_c;
    SymbolTable st_r;
    Query qc = make();
    Query qr = make();
    qc.resolve(st_c);
    qr.resolve(st_r);
    Env env_c(static_cast<std::size_t>(st_c.size()));
    Env env_r(static_cast<std::size_t>(st_r.size()));
    if (pre) {
      pre(st_c, env_c);
      pre(st_r, env_r);
    }
    const DataspaceSource src(space);
    const QueryOutcome oc = evaluate_compiled(qc, src, env_c, fns);
    const QueryOutcome orf = reference_evaluate(qr, src, env_r, &fns);
    expect_equiv(oc, orf, env_c, env_r);
    last_env = env_c;
    return oc;
  }

  /// Query::evaluate, asserting that it went through the plan cache.
  static QueryOutcome evaluate_compiled(const Query& q, const TupleSource& src,
                                        Env& env, const FunctionRegistry& fns) {
    const auto& stats = plan_cache_stats();
    const std::uint64_t lookups0 = stats.hits.load() + stats.misses.load();
    QueryOutcome out = q.evaluate(src, env, &fns);
    EXPECT_GT(stats.hits.load() + stats.misses.load(), lookups0)
        << "compiled tier never engaged — the comparison is vacuous";
    return out;
  }

  static void expect_equiv(const QueryOutcome& oc, const QueryOutcome& oi,
                           const Env& env_c, const Env& env_i) {
    EXPECT_EQ(oc.success, oi.success);
    ASSERT_EQ(oc.matches.size(), oi.matches.size());
    for (std::size_t m = 0; m < oc.matches.size(); ++m) {
      const QueryMatch& a = oc.matches[m];
      const QueryMatch& b = oi.matches[m];
      // ForAll matches carry their env; Exists ones carry none (the
      // winner's binding is compared through the final envs below).
      EXPECT_EQ(a.binding, b.binding) << "match " << m << " binding";
      EXPECT_EQ(a.reads, b.reads) << "match " << m << " read set";
      ASSERT_EQ(a.retract.size(), b.retract.size()) << "match " << m;
      for (std::size_t r = 0; r < a.retract.size(); ++r) {
        EXPECT_EQ(a.retract[r], b.retract[r]) << "match " << m << " retract " << r;
      }
    }
    EXPECT_EQ(env_c, env_i) << "final environments diverged";
  }
};

TEST(VmEquivTest, ExistsShapesAgree) {
  DiffFixture f;
  f.space.insert(tup("year", 90), 0);
  f.space.insert(tup("year", 80), 0);
  f.space.insert(tup("index", 3), 0);
  f.space.insert(tup("value", 3), 0);
  f.space.insert(tup("value", 4), 0);

  // Membership (all-const pattern).
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.patterns = {pat({A("year"), C(90)})};
                  return q;
                }).success);
  // Binding + guard.
  const QueryOutcome bound = f.diff([] {
    Query q;
    q.local_vars = {"a"};
    q.patterns = {pat({A("year"), V("a")})};
    q.guard = gt(evar("a"), lit(87));
    return q;
  });
  ASSERT_TRUE(bound.success);
  // Guard filters everything.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"a"};
                   q.patterns = {pat({A("year"), V("a")})};
                   q.guard = gt(evar("a"), lit(95));
                   return q;
                 }).success);
  // Join across two patterns with a shared variable, plus a wildcard.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.local_vars = {"p"};
                  q.patterns = {pat({A("index"), V("p")}),
                                pat({A("value"), V("p")}), pat({W(), W()})};
                  return q;
                }).success);
}

TEST(VmEquivTest, RetractTagsAndDistinctnessAgree) {
  DiffFixture f;
  f.space.insert(tup("t", 1), 0);
  f.space.insert(tup("t", 1), 0);
  f.space.insert(tup("t", 2), 0);
  const QueryOutcome out = f.diff([] {
    Query q;
    q.local_vars = {"x", "y"};
    TuplePattern p1 = pat({A("t"), V("x")});
    p1.set_retract(true);
    TuplePattern p2 = pat({A("t"), V("y")});
    p2.set_retract(true);
    q.patterns = {p1, p2};
    q.guard = eq(evar("x"), evar("y"));
    return q;
  });
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.matches[0].retract.size(), 2u);
  EXPECT_NE(out.matches[0].retract[0]->id, out.matches[0].retract[1]->id)
      << "distinctness: the two patterns must bind two instances";
}

TEST(VmEquivTest, NegationsAgree) {
  DiffFixture f;
  f.space.insert(tup("job", 1), 0);
  f.space.insert(tup("job", 2), 0);
  f.space.insert(tup("done", 1), 0);
  // ∃x: <job,x> with no <done,x> — negation joined on an outer variable.
  const QueryOutcome out = f.diff([] {
    Query q;
    q.local_vars = {"x"};
    q.patterns = {pat({A("job"), V("x")})};
    NegatedGroup g;
    g.patterns = {pat({A("done"), V("x")})};
    q.negations = {g};
    return q;
  });
  ASSERT_TRUE(out.success);
  // Negation with its own local witness + guard.
  f.space.insert(tup("cap", 10), 0);
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"x"};
                   q.patterns = {pat({A("job"), V("x")})};
                   NegatedGroup g;
                   g.patterns = {pat({A("cap"), V("c")})};
                   g.guard = gt(evar("c"), lit(0));
                   q.negations = {g};
                   return q;
                 }).success)
      << "a cap witness blocks every candidate";
}

TEST(VmEquivTest, ForAllAgrees) {
  DiffFixture f;
  // Vacuous.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.quantifier = Quantifier::ForAll;
                  q.local_vars = {"x"};
                  q.patterns = {pat({A("none"), V("x")})};
                  return q;
                }).success);
  f.space.insert(tup("n", 1), 0);
  f.space.insert(tup("n", 2), 0);
  f.space.insert(tup("n", 3), 0);
  // Satisfied: one match per binding, in identical order.
  const QueryOutcome all = f.diff([] {
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.local_vars = {"x"};
    TuplePattern p = pat({A("n"), V("x")});
    p.set_retract(true);
    q.patterns = {p};
    q.guard = gt(evar("x"), lit(0));
    return q;
  });
  ASSERT_TRUE(all.success);
  EXPECT_EQ(all.matches.size(), 3u);
  // Violated.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.quantifier = Quantifier::ForAll;
                   q.local_vars = {"x"};
                   q.patterns = {pat({A("n"), V("x")})};
                   q.guard = lt(evar("x"), lit(3));
                   return q;
                 }).success);
}

TEST(VmEquivTest, SecondaryProbesAgree) {
  DiffFixture f;
  for (int i = 0; i < 8; ++i) f.space.insert(tup("edge", i, i * 10), 0);
  // Constant second field: ExactConst scan + Second::Const.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.local_vars = {"w"};
                  q.patterns = {pat({A("edge"), C(3), V("w")})};
                  q.guard = eq(evar("w"), lit(30));
                  return q;
                }).success);
  // Second field bound by an earlier pattern: Second::Slot.
  f.space.insert(tup("pick", 5), 0);
  const QueryOutcome out = f.diff([] {
    Query q;
    q.local_vars = {"x", "w"};
    q.patterns = {pat({A("pick"), V("x")}), pat({A("edge"), V("x"), V("w")})};
    return q;
  });
  ASSERT_TRUE(out.success);
}

TEST(VmEquivTest, PlannerOffAndTextualOrderAgree) {
  DiffFixture f;
  for (int i = 0; i < 6; ++i) f.space.insert(tup("wide", i), 0);
  f.space.insert(tup("pin", 4), 0);
  for (const bool planner : {true, false}) {
    const QueryOutcome out = f.diff([planner] {
      Query q;
      q.use_planner = planner;
      q.local_vars = {"x"};
      q.patterns = {pat({A("wide"), V("x")}), pat({A("pin"), V("x")})};
      return q;
    });
    ASSERT_TRUE(out.success) << "planner=" << planner;
  }
}

TEST(VmEquivTest, GuardTrapsRejectInsteadOfCrashing) {
  DiffFixture f;
  f.space.insert(tup("d", 0), 0);
  f.space.insert(tup("d", 2), 0);
  // 10 / x traps on the x=0 candidate; both tiers must skip it and accept
  // x=2.
  const QueryOutcome out = f.diff([] {
    Query q;
    q.local_vars = {"x"};
    q.patterns = {pat({A("d"), V("x")})};
    q.guard = eq(div_(lit(10), evar("x")), lit(5));
    return q;
  });
  ASSERT_TRUE(out.success);
  // INT64_MIN / -1 in a guard: overflow trap, not SIGFPE (satellite 1).
  const Value min_v(std::numeric_limits<std::int64_t>::min());
  f.space.insert(tup("m", -1), 0);
  EXPECT_FALSE(f.diff([min_v] {
                   Query q;
                   q.local_vars = {"x"};
                   q.patterns = {pat({A("m"), V("x")})};
                   q.guard = eq(div_(lit(min_v), evar("x")), lit(0));
                   return q;
                 }).success);
  // Host function throwing std::invalid_argument rejects, both tiers.
  f.fns.register_function("picky", [](std::span<const Value> args) -> Value {
    if (args[0].as_int() < 0) throw std::invalid_argument("negative");
    return args[0];
  });
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"x"};
                   q.patterns = {pat({A("m"), V("x")})};
                   q.guard = eq(call_fn("picky", {evar("x")}), lit(-1));
                   return q;
                 }).success);
}

TEST(VmEquivTest, PreBoundSignaturesGetDistinctPlans) {
  DiffFixture f;
  f.space.insert(tup("kv", 1, 10), 0);
  f.space.insert(tup("kv", 2, 20), 0);
  const auto make = [] {
    Query q;
    q.local_vars = {"v"};  // k is process-persistent
    q.patterns = {pat({A("kv"), V("k"), V("v")})};
    return q;
  };
  // Unbound k: k and v both bind.
  const QueryOutcome free_k = f.diff(make);
  ASSERT_TRUE(free_k.success);
  // Pre-bound k: the pattern constrains on it (different cache signature,
  // secondary probe on the bound slot).
  const QueryOutcome pinned = f.diff(make, [](SymbolTable& st, Env& env) {
    env[static_cast<std::size_t>(*st.lookup("k"))] = Value(2);
  });
  ASSERT_TRUE(pinned.success);
}

TEST(VmEquivTest, ComputedTermShapesCompile) {
  DiffFixture f;
  f.space.insert(tup("s", 4), 0);
  // <s, 2+2>: a computed term with no variables — compiled (the plan
  // cache engages) with results identical to the reference.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.patterns = {pat({A("s"), E(add(lit(2), lit(2)))})};
                  return q;
                }).success);
}

/// Sum1's selection (§3.1): [k - 2**(j-1), a]!, [k, b]! with k, j
/// process parameters — the computed head is an exact probe keyed at scan
/// time.
Query sum1_query() {
  Query q;
  q.local_vars = {"a", "b"};
  TuplePattern left =
      pat({E(sub(evar("k"), pow_(lit(2), sub(evar("j"), lit(1))))), V("a")});
  left.set_retract(true);
  TuplePattern right = pat({V("k"), V("b")});
  right.set_retract(true);
  q.patterns = {left, right};
  return q;
}

TEST(VmEquivTest, Sum1ComputedHeadAgrees) {
  DiffFixture f;
  for (int k = 1; k <= 8; ++k) f.space.insert(tup(k, k * 11), 0);
  for (const auto& [k, j, want_a] :
       {std::tuple{4, 1, 33}, std::tuple{4, 2, 22}, std::tuple{8, 3, 44}}) {
    const QueryOutcome out =
        f.diff(sum1_query, [k = k, j = j](SymbolTable& st, Env& env) {
          env[static_cast<std::size_t>(*st.lookup("k"))] = Value(k);
          env[static_cast<std::size_t>(*st.lookup("j"))] = Value(j);
        });
    ASSERT_TRUE(out.success) << "k=" << k << " j=" << j;
    const Env& b = f.last_env;
    EXPECT_NE(std::find(b.begin(), b.end(), Value(want_a)), b.end())
        << "k=" << k << " j=" << j << " bound the wrong left partner";
    EXPECT_EQ(out.matches[0].retract.size(), 2u);
  }
  // The left partner is gone: no match, both evaluators.
  EXPECT_FALSE(f.diff(sum1_query, [](SymbolTable& st, Env& env) {
                  env[static_cast<std::size_t>(*st.lookup("k"))] = Value(20);
                  env[static_cast<std::size_t>(*st.lookup("j"))] = Value(1);
                }).success);
}

TEST(VmEquivTest, ComputedSecondFieldProbesAgree) {
  DiffFixture f;
  for (int i = 0; i < 8; ++i) f.space.insert(tup("edge", i, i * 10), 0);
  f.space.insert(tup("pick", 4), 0);
  // Field 1 computed from a variable bound by an earlier pattern: a
  // secondary probe keyed by x+1 at scan time.
  const auto make = [] {
    Query q;
    q.local_vars = {"x", "w"};
    q.patterns = {pat({A("pick"), V("x")}),
                  pat({A("edge"), E(add(evar("x"), lit(1))), V("w")})};
    return q;
  };
  const QueryOutcome out = f.diff(make);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(f.last_env.back(), Value(50));
  {
    // The probe offers one <edge, 5, _> record, not the whole bucket.
    SymbolTable st;
    Query q = make();
    q.resolve(st);
    Env env(static_cast<std::size_t>(st.size()));
    const DataspaceSource src(f.space);
    const std::uint64_t before = f.space.stats().records_scanned;
    ASSERT_TRUE(q.evaluate(src, env, &f.fns).success);
    EXPECT_EQ(f.space.stats().records_scanned - before, 2u)
        << "one <pick> record plus one probed <edge> record";
  }
  // Field 1 computed from a pre-bound process variable, ForAll.
  const QueryOutcome all = f.diff(
      [] {
        Query q;
        q.quantifier = Quantifier::ForAll;
        q.local_vars = {"w"};
        q.patterns = {pat({A("edge"), E(mul(evar("n"), lit(2))), V("w")})};
        return q;
      },
      [](SymbolTable& st, Env& env) {
        env[static_cast<std::size_t>(*st.lookup("n"))] = Value(3);
      });
  ASSERT_TRUE(all.success);
  EXPECT_EQ(all.matches.size(), 1u);
}

TEST(VmEquivTest, SelfReferentialComputedFieldAgrees) {
  DiffFixture f;
  f.space.insert(tup(1, 2), 0);
  f.space.insert(tup(3, 5), 0);
  f.space.insert(tup(4, 5), 0);
  // [x, x+1]: not ready before it matches (x+1 reads x), yet matchable —
  // field 0 binds x, field 1 then checks x+1.
  const QueryOutcome out = f.diff([] {
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.local_vars = {"x"};
    q.patterns = {pat({V("x"), E(add(evar("x"), lit(1)))})};
    return q;
  });
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.matches.size(), 2u);  // <1,2> and <4,5>
  // Reversed, [x+1, x] can never match: field 0 reads x before field 1
  // binds it.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"x"};
                   q.patterns = {pat({E(add(evar("x"), lit(1))), V("x")})};
                   return q;
                 }).success);
}

TEST(VmEquivTest, NotReadyFirstPatternAgrees) {
  DiffFixture f;
  f.space.insert(tup("head", 4), 0);
  f.space.insert(tup(5, 50), 0);
  // [x+1, b] is textually first but not ready: the planner defers it
  // behind [head, x]; with the planner off textual order fails. Both
  // modes agree with the reference.
  for (const bool planner : {true, false}) {
    const QueryOutcome out = f.diff([planner] {
      Query q;
      q.use_planner = planner;
      q.local_vars = {"x", "b"};
      q.patterns = {pat({E(add(evar("x"), lit(1))), V("b")}),
                    pat({A("head"), V("x")})};
      return q;
    });
    EXPECT_EQ(out.success, planner);
  }
  // [a, x+1] has an exact head but is not ready: it must wait behind the
  // arity sweep [x, q] that binds x, not run first and trap.
  f.space.insert(tup("a", 5), 0);
  f.space.insert(tup(4, "q"), 0);
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.local_vars = {"x"};
                  q.patterns = {pat({A("a"), E(add(evar("x"), lit(1)))}),
                                pat({V("x"), A("q")})};
                  return q;
                }).success);
  // No order makes either pattern ready.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"x", "y"};
                   q.patterns = {pat({E(add(evar("x"), lit(1))), V("y")}),
                                 pat({E(add(evar("y"), lit(1))), V("x")})};
                   return q;
                 }).success);
}

TEST(VmEquivTest, ComputedTermTrapsAgree) {
  DiffFixture f;
  f.space.insert(tup("src", 0), 0);
  f.space.insert(tup("src", 2), 0);
  f.space.insert(tup("d", 5, 1), 0);
  f.space.insert(tup(5, 7), 0);
  for (int i = 0; i < 4; ++i) f.space.insert(tup("h", i), 0);
  // Computed head: 10 / z with z pre-bound to 0 traps, so the pattern
  // has no candidates — the reference defers it as not ready and fails
  // the same subtree later.
  const auto head_trap = [] {
    Query q;
    q.local_vars = {"y", "v"};
    q.patterns = {pat({E(div_(lit(10), evar("z"))), V("y")}),
                  pat({A("h"), V("v")})};
    return q;
  };
  EXPECT_FALSE(f.diff(head_trap, [](SymbolTable& st, Env& env) {
                  env[static_cast<std::size_t>(*st.lookup("z"))] = Value(0);
                }).success);
  EXPECT_TRUE(f.diff(head_trap, [](SymbolTable& st, Env& env) {
                 env[static_cast<std::size_t>(*st.lookup("z"))] = Value(2);
               }).success);
  // Computed field 1 (secondary probe): 10 / v traps on the v=0
  // candidate and matches <d, 5, _> on v=2.
  const QueryOutcome probe = f.diff([] {
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.local_vars = {"v", "w"};
    q.patterns = {pat({A("src"), V("v")}),
                  pat({A("d"), E(div_(lit(10), evar("v"))), V("w")})};
    return q;
  });
  ASSERT_TRUE(probe.success);
  EXPECT_EQ(probe.matches.size(), 1u);
  // Computed field 2 (a per-candidate check, not a probe): w*0 traps on
  // the atom-valued w and is rejected; <d, 6, 0> passes.
  f.space.insert(tup("d", Value::atom("x"), 0), 0);
  f.space.insert(tup("d", 6, 0), 0);
  const QueryOutcome check = f.diff([] {
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.local_vars = {"w"};
    q.patterns = {pat({A("d"), W(), E(sub(lit(2), lit(1)))}),
                  pat({A("d"), V("w"), E(mul(evar("w"), lit(0)))})};
    return q;
  });
  ASSERT_TRUE(check.success);
  EXPECT_EQ(check.matches.size(), 1u);
}

TEST(VmEquivTest, ExpressionOnlyProcessVariableGetsDistinctPlans) {
  // n appears only inside [n+1, b]: its boundness still decides the plan
  // (arity sweep behind [h, a] vs an exact probe first), so it is part of
  // the binding signature. A stale plan would enumerate in a different
  // order; the reference pins the order.
  DiffFixture f;
  f.space.insert(tup(5, 1), 0);
  f.space.insert(tup(5, 2), 0);
  f.space.insert(tup(7, 3), 0);
  const auto make = [] {
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.local_vars = {"h", "a", "b"};
    q.patterns = {pat({V("h"), V("a")}),
                  pat({E(add(evar("n"), lit(1))), V("b")})};
    return q;
  };
  SymbolTable st_c;
  SymbolTable st_r;
  Query qc = make();
  Query qr = make();
  qc.resolve(st_c);
  qr.resolve(st_r);
  Env env_c(static_cast<std::size_t>(st_c.size()));
  Env env_r(static_cast<std::size_t>(st_r.size()));
  const DataspaceSource src(f.space);
  const auto& stats = plan_cache_stats();

  // n unbound: [n+1, b] is never ready; ForAll is vacuously true.
  const std::uint64_t compiles0 = stats.compiles.load();
  QueryOutcome oc = DiffFixture::evaluate_compiled(qc, src, env_c, f.fns);
  QueryOutcome orf = reference_evaluate(qr, src, env_r, &f.fns);
  DiffFixture::expect_equiv(oc, orf, env_c, env_r);
  EXPECT_TRUE(oc.success);
  EXPECT_TRUE(oc.matches.empty());
  EXPECT_EQ(stats.compiles.load(), compiles0 + 1);

  // n bound: a new signature, a new plan, and the probe-first order.
  env_c[static_cast<std::size_t>(*st_c.lookup("n"))] = Value(4);
  env_r[static_cast<std::size_t>(*st_r.lookup("n"))] = Value(4);
  oc = DiffFixture::evaluate_compiled(qc, src, env_c, f.fns);
  orf = reference_evaluate(qr, src, env_r, &f.fns);
  DiffFixture::expect_equiv(oc, orf, env_c, env_r);
  ASSERT_TRUE(oc.success);
  EXPECT_EQ(oc.matches.size(), 4u);
  EXPECT_EQ(stats.compiles.load(), compiles0 + 2)
      << "binding n must select a different plan";

  // Same signature again: a cache hit, no compile.
  const std::uint64_t hits0 = stats.hits.load();
  oc = DiffFixture::evaluate_compiled(qc, src, env_c, f.fns);
  EXPECT_EQ(stats.compiles.load(), compiles0 + 2);
  EXPECT_GT(stats.hits.load(), hits0);
}

TEST(VmEquivTest, SixtyFiveVariablesCompile) {
  // 65 distinct pattern variables need a second signature word; binding
  // the 65th must select its own plan.
  DiffFixture f;
  constexpr int kVars = 65;
  std::vector<Value> fields{Value::atom("wide")};
  for (int i = 0; i < kVars; ++i) fields.emplace_back(i);
  f.space.insert(Tuple(fields), 0);
  const auto make = [] {
    Query q;
    std::vector<Term> terms{A("wide")};
    for (int i = 0; i < kVars; ++i) terms.push_back(V("v" + std::to_string(i)));
    q.patterns = {pat(terms)};
    return q;
  };
  const QueryOutcome free_vars = f.diff(make);
  ASSERT_TRUE(free_vars.success);
  const auto pin_last = [](int value) {
    return [value](SymbolTable& st, Env& env) {
      env[static_cast<std::size_t>(*st.lookup("v64"))] = Value(value);
    };
  };
  EXPECT_TRUE(f.diff(make, pin_last(64)).success);
  EXPECT_FALSE(f.diff(make, pin_last(63)).success);

  // One query, one cache: the bit-64 signature gets its own entry, so a
  // pinned v64 is checked, not re-bound.
  SymbolTable st;
  Query q = make();
  q.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const DataspaceSource src(f.space);
  ASSERT_TRUE(q.evaluate(src, env, &f.fns).success);
  for (Value& v : env) v = Value();
  env[static_cast<std::size_t>(*st.lookup("v64"))] = Value(63);
  EXPECT_FALSE(q.evaluate(src, env, &f.fns).success);
}

TEST(VmEquivTest, PlanCacheInvalidatesOnIndexGrowth) {
  DiffFixture f;
  f.space.insert(tup("g", 0), 0);
  SymbolTable st;
  Query q;
  q.local_vars = {"x"};
  q.patterns = {pat({A("g"), V("x")})};
  q.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const auto& stats = plan_cache_stats();
  {
    const DataspaceSource src(f.space);
    ASSERT_TRUE(q.evaluate(src, env, &f.fns).success);
  }
  q.clear_locals(env);
  const std::uint64_t inval0 = stats.invalidations.load();
  const std::uint64_t epoch0 = f.space.stats_epoch();
  // Grow the space until a bucket table resizes (epoch bump = the index
  // statistics the plan was built against have drifted). Distinct integer
  // heads create distinct buckets, which is what forces the resize.
  for (int i = 1; f.space.stats_epoch() == epoch0 && i < 4096; ++i) {
    f.space.insert(tup(i, i, i), 0);
  }
  ASSERT_GT(f.space.stats_epoch(), epoch0) << "growth never resized the index";
  {
    const DataspaceSource src(f.space);
    ASSERT_TRUE(q.evaluate(src, env, &f.fns).success);
  }
  EXPECT_GT(stats.invalidations.load(), inval0)
      << "stale plan survived an index-statistics epoch bump";
}

TEST(VmEquivTest, UnresolvedQueryHasNoFallback) {
  // The plan cache resolve() creates is the only way to evaluate: an
  // unresolved query fails loudly instead of taking another path.
  DiffFixture f;
  f.space.insert(tup("k", 1), 0);
  Query q;
  q.local_vars = {"x"};
  q.patterns = {pat({A("k"), V("x")})};
  Env env(4);
  const DataspaceSource src(f.space);
  EXPECT_THROW((void)q.evaluate(src, env, &f.fns), std::logic_error);
}

// ---- Seeded expression property test (runs under ASan+UBSan in CI) ----

/// Random expression trees: every operator the language has, over int,
/// double, bool, atom and variable leaves (some variables unbound). The
/// contract: the VM returns exactly the interpreter's value, or traps
/// exactly when Expr::eval throws std::invalid_argument.
class ExprGen {
 public:
  explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

  ExprPtr gen(int depth) {
    if (depth <= 0 || pick(4) == 0) return leaf();
    switch (pick(16)) {
      case 0: return neg(gen(depth - 1));
      case 1: return lnot(gen(depth - 1));
      case 2: return add(gen(depth - 1), gen(depth - 1));
      case 3: return sub(gen(depth - 1), gen(depth - 1));
      case 4: return mul(gen(depth - 1), gen(depth - 1));
      case 5: return div_(gen(depth - 1), gen(depth - 1));
      case 6: return mod(gen(depth - 1), gen(depth - 1));
      case 7: return pow_(gen(depth - 1), gen(depth - 1));
      case 8: return eq(gen(depth - 1), gen(depth - 1));
      case 9: return ne(gen(depth - 1), gen(depth - 1));
      case 10: return lt(gen(depth - 1), gen(depth - 1));
      case 11: return le(gen(depth - 1), gen(depth - 1));
      case 12: return gt(gen(depth - 1), gen(depth - 1));
      case 13: return ge(gen(depth - 1), gen(depth - 1));
      case 14: return land(gen(depth - 1), gen(depth - 1));
      default: return lor(gen(depth - 1), gen(depth - 1));
    }
  }

 private:
  ExprPtr leaf() {
    switch (pick(8)) {
      case 0: return lit(Value(static_cast<std::int64_t>(rng_())));
      case 1: return lit(Value(std::numeric_limits<std::int64_t>::min() +
                               static_cast<std::int64_t>(pick(3))));
      case 2: return lit(Value(std::numeric_limits<std::int64_t>::max() -
                               static_cast<std::int64_t>(pick(3))));
      case 3: return lit(Value(static_cast<std::int64_t>(pick(5)) - 2));
      case 4: return lit(Value(0.5 * static_cast<double>(pick(9)) - 2.0));
      case 5: return lit(Value(pick(2) == 0));
      case 6: return lit(Value::atom(pick(2) == 0 ? "red" : "blue"));
      default:
        // b0/b1 bound, ghost unbound — the Trap::Unbound axis.
        switch (pick(3)) {
          case 0: return evar("b0");
          case 1: return evar("b1");
          default: return evar("ghost");
        }
    }
  }

  std::uint32_t pick(std::uint32_t n) {
    return static_cast<std::uint32_t>(rng_() % n);
  }
  std::mt19937_64 rng_;
};

TEST(VmEquivTest, RandomExpressionsValueOrTrapParity) {
  FunctionRegistry fns;
  fns.register_function("half", [](std::span<const Value> args) -> Value {
    if (!args[0].is_int()) throw std::invalid_argument("half: want int");
    return args[0].as_int() / 2;
  });
  std::size_t trapped = 0;
  std::size_t valued = 0;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    ExprGen gen(seed);
    const ExprPtr e = call_fn("half", {gen.gen(4)});  // exercise Call too
    SymbolTable st;
    e->resolve(st);
    Env env(static_cast<std::size_t>(st.size()));
    if (const auto s = st.lookup("b0")) {
      env[static_cast<std::size_t>(*s)] = Value(std::int64_t{7});
    }
    if (const auto s = st.lookup("b1")) {
      env[static_cast<std::size_t>(*s)] = Value(2.5);
    }
    bool threw = false;
    Value want;
    try {
      want = e->eval(env, &fns);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    vm::ExprProgram prog;
    compile_expr(e, prog);
    std::vector<Value> regs(static_cast<std::size_t>(prog.num_regs));
    const vm::EvalResult got = vm::run(prog, env, &fns, regs);
    if (threw) {
      ++trapped;
      EXPECT_NE(got.trap, vm::Trap::None)
          << "seed " << seed << ": interpreter threw on " << e->to_string()
          << " but the VM produced " << got.value.to_string();
    } else {
      ++valued;
      ASSERT_EQ(got.trap, vm::Trap::None)
          << "seed " << seed << ": VM trapped (" << vm::trap_message(got.trap)
          << ") on " << e->to_string() << " = " << want.to_string();
      const bool both_nan = want.is_double() && got.value.is_double() &&
                            std::isnan(want.as_double()) &&
                            std::isnan(got.value.as_double());
      EXPECT_TRUE(both_nan || want == got.value)
          << "seed " << seed << ": " << e->to_string() << " interpreter="
          << want.to_string() << " vm=" << got.value.to_string();
    }
  }
  // Vacuity guard: the sweep must exercise both result classes.
  EXPECT_GT(trapped, 0u);
  EXPECT_GT(valued, 0u);
}

}  // namespace
}  // namespace sdl
