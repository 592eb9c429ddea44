#include "query/query.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "query/reference_eval.hpp"

namespace sdl {
namespace {

/// Builds, resolves and evaluates a query against a dataspace.
struct QueryFixture {
  Dataspace space{16};
  SymbolTable st;
  Env env;
  FunctionRegistry fns;

  /// `compiled` false evaluates through the test reference evaluator.
  QueryOutcome run(Query& q, bool compiled = true) {
    q.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
    const DataspaceSource src(space);
    return compiled ? q.evaluate(src, env, &fns)
                    : reference_evaluate(q, src, env, &fns);
  }
  Value slot(const std::string& name) {
    return env[static_cast<std::size_t>(*st.lookup(name))];
  }
};

TEST(QueryTest, MembershipTestSucceeds) {
  QueryFixture f;
  f.space.insert(tup("year", 87), 0);
  Query q;
  q.patterns = {pat({A("year"), C(87)})};
  EXPECT_TRUE(f.run(q).success);
}

TEST(QueryTest, MembershipTestFails) {
  QueryFixture f;
  f.space.insert(tup("year", 86), 0);
  Query q;
  q.patterns = {pat({A("year"), C(87)})};
  EXPECT_FALSE(f.run(q).success);
}

TEST(QueryTest, PaperImmediateExample) {
  // ∃a : <year, a> : a > 87 — binds a to 90 and tags the tuple (§2.2).
  QueryFixture f;
  f.space.insert(tup("year", 90), 0);
  f.space.insert(tup("year", 80), 0);
  Query q;
  q.local_vars = {"a"};
  TuplePattern p = pat({A("year"), V("a")});
  p.set_retract(true);
  q.patterns = {p};
  q.guard = gt(evar("a"), lit(87));
  const QueryOutcome out = f.run(q);
  ASSERT_TRUE(out.success);
  ASSERT_EQ(out.matches.size(), 1u);
  EXPECT_EQ(f.slot("a"), Value(90));
  ASSERT_EQ(out.matches[0].retract.size(), 1u);
}

TEST(QueryTest, GuardFiltersAllCandidates) {
  QueryFixture f;
  f.space.insert(tup("year", 80), 0);
  f.space.insert(tup("year", 85), 0);
  Query q;
  q.local_vars = {"a"};
  q.patterns = {pat({A("year"), V("a")})};
  q.guard = gt(evar("a"), lit(87));
  EXPECT_FALSE(f.run(q).success);
  EXPECT_TRUE(f.slot("a").is_nil()) << "failure leaves locals unbound";
}

TEST(QueryTest, JoinAcrossTwoPatterns) {
  // ∃p : <index, p>, <value, p> — join on shared variable.
  QueryFixture f;
  f.space.insert(tup("index", 3), 0);
  f.space.insert(tup("value", 4), 0);
  f.space.insert(tup("value", 3), 0);
  Query q;
  q.local_vars = {"p"};
  q.patterns = {pat({A("index"), V("p")}), pat({A("value"), V("p")})};
  ASSERT_TRUE(f.run(q).success);
  EXPECT_EQ(f.slot("p"), Value(3));
}

TEST(QueryTest, DistinctInstancesRequired) {
  // Two identical patterns must bind two different tuple instances.
  QueryFixture f;
  f.space.insert(tup("t", 1), 0);
  Query q;
  q.local_vars = {"x", "y"};
  q.patterns = {pat({A("t"), V("x")}), pat({A("t"), V("y")})};
  EXPECT_FALSE(f.run(q).success) << "single instance cannot satisfy two patterns";
  f.space.insert(tup("t", 1), 0);
  Query q2;
  q2.local_vars = {"x", "y"};
  q2.patterns = {pat({A("t"), V("x")}), pat({A("t"), V("y")})};
  EXPECT_TRUE(f.run(q2).success) << "two equal instances are two instances";
}

TEST(QueryTest, Sum3StylePairJoin) {
  // ∃ v,a,u,b : [v,a]!, [u,b]! : v != u → one combining step (§3.1 Sum3).
  QueryFixture f;
  f.space.insert(tup(1, 10), 0);
  f.space.insert(tup(2, 20), 0);
  Query q;
  q.local_vars = {"v", "a", "u", "b"};
  TuplePattern p1 = pat({V("v"), V("a")});
  p1.set_retract(true);
  TuplePattern p2 = pat({V("u"), V("b")});
  p2.set_retract(true);
  q.patterns = {p1, p2};
  q.guard = ne(evar("v"), evar("u"));
  const QueryOutcome out = f.run(q);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.matches[0].retract.size(), 2u);
  const std::int64_t sum = f.slot("a").as_int() + f.slot("b").as_int();
  EXPECT_EQ(sum, 30);
}

TEST(QueryTest, NegationBlocksWhenWitnessExists) {
  // ¬∃ <index,*> — succeeds only when no index tuple remains (§2.3).
  QueryFixture f;
  f.space.insert(tup("index", 1), 0);
  Query q;
  q.negations.push_back(NegatedGroup{{pat({A("index"), W()})}, nullptr});
  EXPECT_FALSE(f.run(q).success);
}

TEST(QueryTest, NegationSucceedsWhenNoWitness) {
  QueryFixture f;
  f.space.insert(tup("other", 1), 0);
  Query q;
  q.negations.push_back(NegatedGroup{{pat({A("index"), W()})}, nullptr});
  EXPECT_TRUE(f.run(q).success);
}

TEST(QueryTest, NegationWithGuard) {
  // ¬∃a : <year,a> : a > 87 — no year beyond 87.
  QueryFixture f;
  f.space.insert(tup("year", 80), 0);
  Query q1;
  q1.negations.push_back(
      NegatedGroup{{pat({A("year"), V("ny")})}, gt(evar("ny"), lit(87))});
  EXPECT_TRUE(f.run(q1).success);

  f.space.insert(tup("year", 92), 0);
  Query q2;
  q2.negations.push_back(
      NegatedGroup{{pat({A("year"), V("ny")})}, gt(evar("ny"), lit(87))});
  EXPECT_FALSE(f.run(q2).success);
}

TEST(QueryTest, NegationSeesOuterBindings) {
  // ∃m : <max,m>, ¬∃v : <val,v> : v > m — m is the maximum.
  QueryFixture f;
  f.space.insert(tup("max", 10), 0);
  f.space.insert(tup("val", 5), 0);
  f.space.insert(tup("val", 10), 0);
  Query q;
  q.local_vars = {"m"};
  q.patterns = {pat({A("max"), V("m")})};
  q.negations.push_back(
      NegatedGroup{{pat({A("val"), V("nv")})}, gt(evar("nv"), evar("m"))});
  EXPECT_TRUE(f.run(q).success);

  f.space.insert(tup("val", 11), 0);
  Query q2;
  q2.local_vars = {"m"};
  q2.patterns = {pat({A("max"), V("m")})};
  q2.negations.push_back(
      NegatedGroup{{pat({A("val"), V("nv")})}, gt(evar("nv"), evar("m"))});
  EXPECT_FALSE(f.run(q2).success);
}

TEST(QueryTest, ForAllVacuouslyTrue) {
  QueryFixture f;
  Query q;
  q.quantifier = Quantifier::ForAll;
  q.local_vars = {"x"};
  q.patterns = {pat({A("none"), V("x")})};
  const QueryOutcome out = f.run(q);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.matches.empty());
}

TEST(QueryTest, ForAllChecksEveryBinding) {
  QueryFixture f;
  f.space.insert(tup("n", 2), 0);
  f.space.insert(tup("n", 4), 0);
  Query q;
  q.quantifier = Quantifier::ForAll;
  q.local_vars = {"x"};
  q.patterns = {pat({A("n"), V("x")})};
  q.guard = eq(mod(evar("x"), lit(2)), lit(0));
  const QueryOutcome out = f.run(q);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.matches.size(), 2u);

  f.space.insert(tup("n", 3), 0);
  Query q2;
  q2.quantifier = Quantifier::ForAll;
  q2.local_vars = {"x"};
  q2.patterns = {pat({A("n"), V("x")})};
  q2.guard = eq(mod(evar("x"), lit(2)), lit(0));
  const QueryOutcome out2 = f.run(q2);
  EXPECT_FALSE(out2.success);
  EXPECT_TRUE(out2.matches.empty());
}

TEST(QueryTest, ViolatedForAllUnbindsPatternVars) {
  // Regression: a violated ForAll used to return without unwinding the
  // violating candidate's bindings, so pattern variables not declared
  // local stayed bound in env and acted as equality constraints on every
  // later evaluation. Exercise the compiled tier and the reference.
  for (const bool compiled : {true, false}) {
    QueryFixture f;
    f.space.insert(tup("t", 1), 0);
    f.space.insert(tup("t", 2), 0);
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.patterns = {pat({A("t"), V("x")})};
    q.guard = lt(evar("x"), lit(2));  // violated by <t, 2>
    EXPECT_FALSE(f.run(q, compiled).success);
    EXPECT_TRUE(f.slot("x").is_nil())
        << "violated ForAll leaked a binding (compiled=" << compiled << ")";
    // Re-evaluation must see a fresh slot: with the leak, x was pinned to
    // the violating value and this Exists could only match <t, 2>.
    Query q2;
    q2.patterns = {pat({A("t"), V("x")})};
    q2.guard = eq(evar("x"), lit(1));
    EXPECT_TRUE(f.run(q2, compiled).success)
        << "stale ForAll binding constrained a later query (compiled="
        << compiled << ")";
  }
}

TEST(QueryTest, ForAllCollectsRetractionsPerMatch) {
  // ∀p : <threshold,p,*>! — retract all thresholds (§3.3 Label).
  QueryFixture f;
  f.space.insert(tup("threshold", 1, 0), 0);
  f.space.insert(tup("threshold", 2, 0), 0);
  f.space.insert(tup("threshold", 3, 1), 0);
  Query q;
  q.quantifier = Quantifier::ForAll;
  q.local_vars = {"p"};
  TuplePattern p = pat({A("threshold"), V("p"), W()});
  p.set_retract(true);
  q.patterns = {p};
  const QueryOutcome out = f.run(q);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.matches.size(), 3u);
  for (const QueryMatch& m : out.matches) {
    EXPECT_EQ(m.retract.size(), 1u);
  }
}

TEST(QueryTest, TypeMismatchedGuardRejectsCandidateNotCrashes) {
  QueryFixture f;
  f.space.insert(tup("v", Value::atom("oops")), 0);
  f.space.insert(tup("v", 99), 0);
  Query q;
  q.local_vars = {"x"};
  q.patterns = {pat({A("v"), V("x")})};
  q.guard = gt(evar("x"), lit(87));  // atom candidate would not type-check
  ASSERT_TRUE(f.run(q).success);
  EXPECT_EQ(f.slot("x"), Value(99));
}

TEST(QueryTest, ReadSetExactAndArity) {
  QueryFixture f;
  Query q;
  q.local_vars = {"x", "y"};
  q.patterns = {pat({A("head"), V("x")}), pat({V("y"), W(), W()})};
  q.resolve(f.st);
  f.env.resize(static_cast<std::size_t>(f.st.size()));
  const std::vector<KeySpec> keys = q.read_set(f.env, nullptr);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].kind, KeySpec::Kind::Exact);
  EXPECT_EQ(keys[1].kind, KeySpec::Kind::Arity);
  EXPECT_EQ(keys[1].arity, 3u);
}

TEST(QueryTest, PureGuardQuery) {
  QueryFixture f;
  Query q;
  q.guard = eq(mod(lit(8), lit(4)), lit(0));
  EXPECT_TRUE(q.pure_guard());
  EXPECT_TRUE(f.run(q).success);
}

TEST(QueryTest, StaleLocalBindingsClearedBetweenEvaluations) {
  QueryFixture f;
  f.space.insert(tup("k", 1), 0);
  Query q;
  q.local_vars = {"x"};
  q.patterns = {pat({A("k"), V("x")})};
  q.resolve(f.st);
  f.env.resize(static_cast<std::size_t>(f.st.size()));
  const DataspaceSource src(f.space);
  ASSERT_TRUE(q.evaluate(src, f.env, &f.fns).success);
  EXPECT_EQ(f.slot("x"), Value(1));
  // Change the dataspace so only <k,2> remains; the stale x=1 binding must
  // not prevent rebinding.
  const std::vector<Record> snap = f.space.snapshot();
  f.space.erase(IndexKey::of(snap[0].tuple), snap[0].id);
  f.space.insert(tup("k", 2), 0);
  ASSERT_TRUE(q.evaluate(src, f.env, &f.fns).success);
  EXPECT_EQ(f.slot("x"), Value(2));
}

TEST(QueryTest, ExistsPicksOnlyOneMatch) {
  QueryFixture f;
  for (int i = 0; i < 5; ++i) f.space.insert(tup("m", i), 0);
  Query q;
  q.local_vars = {"x"};
  q.patterns = {pat({A("m"), V("x")})};
  const QueryOutcome out = f.run(q);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.matches.size(), 1u);
}

TEST(QueryTest, PropertyListContentAddressing) {
  // Find(P): ∃v : [*, P, v, *] → content addressing into a linked list
  // without traversal (§3.2).
  QueryFixture f;
  f.space.insert(tup(1, Value::atom("color"), Value::atom("red"), 2), 0);
  f.space.insert(tup(2, Value::atom("size"), 42, 3), 0);
  f.space.insert(tup(3, Value::atom("weight"), 7, Value::atom("nil")), 0);
  Query q;
  q.local_vars = {"v"};
  q.patterns = {pat({W(), A("size"), V("v"), W()})};
  ASSERT_TRUE(f.run(q).success);
  EXPECT_EQ(f.slot("v"), Value(42));
}

}  // namespace
}  // namespace sdl
