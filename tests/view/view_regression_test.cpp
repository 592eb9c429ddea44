// Regression tests for two window-correctness bugs (PR 5):
//
//  1. WindowSource::scan_arity used to dedupe visited pinned buckets by
//     IndexKey::hash() instead of by the key itself — two distinct keys
//     with colliding hashes would silently drop the second bucket from
//     the window. HashCollidingPinnedBuckets constructs a real collision
//     and exercises the dedupe path.
//
//  2. entry_admits used to run its binding-undo loop inline after the
//     guard evaluation, catching only std::invalid_argument; any other
//     exception from a guard's host function escaped BEFORE the undo ran,
//     leaving stale bindings in the thread-local Env that poisoned every
//     later membership test on the thread. The undo now runs from a scope
//     guard on every exit path.
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "view/view.hpp"

namespace sdl {
namespace {

struct ViewFixture {
  Dataspace space{16};
  SymbolTable st;
  Env env;
  FunctionRegistry fns;

  View make(ViewSpec& spec) {
    spec.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
    return View(spec);
  }
  void bind(const std::string& name, Value v) {
    const int slot = st.intern(name);
    if (static_cast<std::size_t>(slot) >= env.size()) {
      env.resize(static_cast<std::size_t>(slot) + 1);
    }
    env[static_cast<std::size_t>(slot)] = std::move(v);
  }
};

// Two DISTINCT IndexKeys whose hash() values are equal. Same-arity
// collisions are impossible (hash = head_hash * K + arity with K odd,
// hence bijective mod 2^64), so the collision must be cross-arity:
//   h1*K + a1 == h2*K + a2  (mod 2^64)   <=>   h1 - h2 == (a2 - a1) * K^-1
// The head Values producing those head_hashes are recovered by inverting
// Value::hash for Int (kind ^ (x + K + (kind<<6) + (kind>>2)) over the
// identity std::hash<int64_t>). The construction is white-box; the
// ASSERTs below fail loudly if either hash function changes, rather than
// letting the test silently stop exercising the collision path.
struct CollidingKeys {
  std::int64_t head2 = 0;  // head value of the arity-2 bucket
  std::int64_t head3 = 0;  // head value of the arity-3 bucket
  IndexKey k2;
  IndexKey k3;
};

CollidingKeys make_colliding_keys() {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  // Modular inverse of kMul via Newton iteration (5 steps double the
  // correct low bits from 5 to 64+).
  std::uint64_t inv = kMul;
  for (int i = 0; i < 6; ++i) inv *= 2ull - kMul * inv;

  CollidingKeys c;
  c.head2 = 7;
  const std::uint64_t h2 = Value(c.head2).hash();
  const std::uint64_t h3 = h2 - inv;  // {2,h2} and {3,h3} now hash-collide
  // Invert Value::hash for Kind::Int to find the integer hashing to h3.
  const auto kind = static_cast<std::uint64_t>(Value::Kind::Int);
  const std::uint64_t x = (kind ^ h3) - kMul - (kind << 6) - (kind >> 2);
  c.head3 = static_cast<std::int64_t>(x);

  c.k2 = IndexKey::of_head(2, Value(c.head2));
  c.k3 = IndexKey::of_head(3, Value(c.head3));
  return c;
}

TEST(ViewRegressionTest, CollidingKeyConstructionHolds) {
  const CollidingKeys c = make_colliding_keys();
  ASSERT_EQ(Value(c.head3).hash(), c.k3.head_hash);
  ASSERT_FALSE(c.k2 == c.k3);         // distinct buckets...
  ASSERT_EQ(c.k2.hash(), c.k3.hash());  // ...equal hashes

  // Dedupe by key keeps both buckets; the pre-fix dedupe-by-hash
  // collapsed them to one, dropping a bucket from the window.
  const std::unordered_set<IndexKey, IndexKeyHash> by_key{c.k2, c.k3};
  EXPECT_EQ(by_key.size(), 2u);
  const std::unordered_set<std::uint64_t> by_hash{c.k2.hash(), c.k3.hash()};
  EXPECT_EQ(by_hash.size(), 1u);
}

TEST(ViewRegressionTest, HashCollidingPinnedBuckets) {
  const CollidingKeys c = make_colliding_keys();
  ASSERT_EQ(c.k2.hash(), c.k3.hash());

  ViewFixture f;
  const TupleId id2 = f.space.insert(tup(c.head2, 100), 0);
  const TupleId id3 = f.space.insert(tup(c.head3, 200, 300), 0);

  // Both import entries pin exactly (bound-variable heads), one per
  // colliding bucket.
  f.bind("p2", Value(c.head2));
  f.bind("p3", Value(c.head3));
  ViewSpec spec;
  spec.import(pat({V("p2"), W()}));
  spec.import(pat({V("p3"), W(), W()}));
  const View v = f.make(spec);

  const WindowSource ws(f.space, v, f.env, &f.fns);
  std::vector<TupleId> got2;
  ws.scan_arity(2, [&](const Record& r) {
    got2.push_back(r.id);
    return true;
  });
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_EQ(got2[0], id2);

  std::vector<TupleId> got3;
  ws.scan_arity(3, [&](const Record& r) {
    got3.push_back(r.id);
    return true;
  });
  ASSERT_EQ(got3.size(), 1u);
  EXPECT_EQ(got3[0], id3);
}

TEST(ViewRegressionTest, DuplicatePinnedBucketsScannedOnce) {
  ViewFixture f;
  f.space.insert(tup(5, 1), 0);
  f.space.insert(tup(5, 2), 0);
  f.space.insert(tup(5, 3), 0);

  // Two entries pinned to the SAME bucket: the scan must visit the bucket
  // once and deliver each record once, not once per entry.
  f.bind("p", Value(5));
  ViewSpec spec;
  spec.import(pat({V("p"), V("x")}), gt(evar("x"), lit(1)));
  spec.import(pat({V("p"), W()}));
  const View v = f.make(spec);

  const WindowSource ws(f.space, v, f.env, &f.fns);
  const std::uint64_t scanned_before = f.space.stats().records_scanned;
  std::size_t delivered = 0;
  ws.scan_arity(2, [&](const Record&) {
    ++delivered;
    return true;
  });
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(f.space.stats().records_scanned - scanned_before, 3u);
}

TEST(ViewRegressionTest, GuardThrowingNonInvalidArgumentRestoresBindings) {
  ViewFixture f;
  f.fns.register_function("boom", [](std::span<const Value>) -> Value {
    throw std::runtime_error("host function failure");
  });
  ViewSpec spec;
  spec.import(pat({A("k"), V("x")}), call_fn("boom", {evar("x")}));
  const View v = f.make(spec);

  // Only std::invalid_argument means "candidate not admitted"; everything
  // else must propagate to the caller...
  EXPECT_THROW((void)v.imports_tuple(tup("k", 5), f.env, &f.fns),
               std::runtime_error);
  // ...but the candidate binding for x must be undone regardless. Before
  // the scope-guard fix the slot kept Value(5) here.
  const int slot = f.st.intern("x");
  EXPECT_TRUE(f.env[static_cast<std::size_t>(slot)].is_nil());

  // And later membership tests on this thread still work (the shared
  // thread-local machinery is not poisoned).
  ViewSpec spec2;
  spec2.import(pat({A("k"), V("y")}), gt(evar("y"), lit(0)));
  const View v2 = f.make(spec2);
  EXPECT_TRUE(v2.imports_tuple(tup("k", 7), f.env, &f.fns));
  EXPECT_FALSE(v2.imports_tuple(tup("k", -7), f.env, &f.fns));
}

TEST(ViewRegressionTest, GuardInvalidArgumentStillRejectsQuietly) {
  // The pre-existing contract: a type-mismatch (std::invalid_argument)
  // from a guard means the candidate is not admitted, with no throw and
  // no residual bindings.
  ViewFixture f;
  ViewSpec spec;
  spec.import(pat({A("k"), V("x")}), gt(evar("x"), lit(0)));
  const View v = f.make(spec);
  EXPECT_FALSE(v.imports_tuple(tup("k", "not-a-number"), f.env, &f.fns));
  const int slot = f.st.intern("x");
  EXPECT_TRUE(f.env[static_cast<std::size_t>(slot)].is_nil());
  EXPECT_TRUE(v.imports_tuple(tup("k", 9), f.env, &f.fns));
}

}  // namespace
}  // namespace sdl
