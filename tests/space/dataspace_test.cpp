#include "space/dataspace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace sdl {
namespace {

TEST(IndexKeyTest, SameHeadSameKey) {
  EXPECT_EQ(IndexKey::of(tup("year", 87)), IndexKey::of(tup("year", 99)));
}

TEST(IndexKeyTest, DifferentArityDifferentKey) {
  const IndexKey a = IndexKey::of(tup("year", 87));
  const IndexKey b = IndexKey::of(tup("year", 87, 1));
  EXPECT_FALSE(a == b);
}

TEST(IndexKeyTest, IntegerHeadsIndexToo) {
  // Array-summation tuples <k, A(k)> have integer heads (§3.1).
  EXPECT_EQ(IndexKey::of(tup(4, 100)), IndexKey::of_head(2, Value(4)));
}

TEST(IndexKeyTest, EmptyTupleKey) {
  const IndexKey k = IndexKey::of(Tuple{});
  EXPECT_EQ(k.arity, 0u);
  EXPECT_EQ(k.head_hash, 0u);
}

TEST(DataspaceTest, RequiresPowerOfTwoShards) {
  EXPECT_THROW(Dataspace(3), std::invalid_argument);
  EXPECT_THROW(Dataspace(0), std::invalid_argument);
  EXPECT_NO_THROW(Dataspace(1));
  EXPECT_NO_THROW(Dataspace(128));
}

TEST(DataspaceTest, InsertAssignsFreshIdsWithOwner) {
  Dataspace d(8);
  const TupleId a = d.insert(tup("year", 87), 5);
  const TupleId b = d.insert(tup("year", 87), 5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.owner(), 5u);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DataspaceTest, MultisetKeepsDuplicates) {
  Dataspace d(8);
  d.insert(tup("x", 1), 0);
  d.insert(tup("x", 1), 0);
  d.insert(tup("x", 1), 0);
  EXPECT_EQ(d.count(tup("x", 1)), 3u);
}

TEST(DataspaceTest, EraseRemovesExactlyOneInstance) {
  Dataspace d(8);
  d.insert(tup("x", 1), 0);
  const TupleId victim = d.insert(tup("x", 1), 0);
  EXPECT_TRUE(d.erase(IndexKey::of(tup("x", 1)), victim));
  EXPECT_EQ(d.count(tup("x", 1)), 1u);
  EXPECT_FALSE(d.erase(IndexKey::of(tup("x", 1)), victim)) << "double erase";
}

TEST(DataspaceTest, EraseUnknownKeyReturnsFalse) {
  Dataspace d(8);
  EXPECT_FALSE(d.erase(IndexKey::of(tup("ghost")), TupleId(0, 999)));
}

TEST(DataspaceTest, ScanKeyVisitsOnlyThatBucket) {
  Dataspace d(8);
  d.insert(tup("a", 1), 0);
  d.insert(tup("a", 2), 0);
  d.insert(tup("b", 1), 0);
  d.insert(tup("a", 1, 1), 0);  // same head, different arity
  int seen = 0;
  d.scan_key(IndexKey::of_head(2, Value::atom("a")), [&](const Record&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 2);
}

TEST(DataspaceTest, ScanArityCrossesHeads) {
  Dataspace d(8);
  d.insert(tup("a", 1), 0);
  d.insert(tup("b", 2), 0);
  d.insert(tup("c"), 0);
  int seen = 0;
  d.scan_arity(2, [&](const Record&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 2);
}

TEST(DataspaceTest, ScanEarlyStop) {
  Dataspace d(8);
  for (int i = 0; i < 10; ++i) d.insert(tup("k", i), 0);
  int seen = 0;
  d.scan_key(IndexKey::of_head(2, Value::atom("k")), [&](const Record&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(DataspaceTest, SnapshotIsSortedAndComplete) {
  Dataspace d(4);
  d.insert(tup("b", 2), 1);
  d.insert(tup("a", 1), 1);
  d.insert(tup("a", 1), 2);
  const std::vector<Record> snap = d.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].tuple, tup("a", 1));
  EXPECT_EQ(snap[1].tuple, tup("a", 1));
  EXPECT_EQ(snap[2].tuple, tup("b", 2));
  EXPECT_LT(snap[0].id, snap[1].id);
}

TEST(DataspaceTest, EmptyBucketIsReclaimed) {
  Dataspace d(8);
  const TupleId id = d.insert(tup("once", 1), 0);
  EXPECT_TRUE(d.erase(IndexKey::of(tup("once", 1)), id));
  int seen = 0;
  d.scan_all([&](const Record&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 0);
  EXPECT_EQ(d.size(), 0u);
}

TEST(DataspaceTest, StatsCountAssertsAndRetracts) {
  Dataspace d(8);
  const TupleId id = d.insert(tup("s", 1), 0);
  d.insert(tup("s", 2), 0);
  d.erase(IndexKey::of(tup("s", 1)), id);
  EXPECT_EQ(d.stats().asserts, 2u);
  EXPECT_EQ(d.stats().retracts, 1u);
}

TEST(DataspaceTest, ShardOfIsStable) {
  Dataspace d(16);
  const IndexKey k = IndexKey::of(tup("year", 87));
  EXPECT_EQ(d.shard_of(k), d.shard_of(k));
  EXPECT_LT(d.shard_of(k), d.shard_count());
}

TEST(DataspaceTest, SecondIndexProbesOnlyMatchingRecords) {
  Dataspace d(8);
  for (int i = 0; i < 100; ++i) d.insert(tup("label", i, i * 2), 0);
  const std::uint64_t before = d.stats().records_scanned;
  int seen = 0;
  d.scan_key_second(IndexKey::of_head(3, Value::atom("label")), Value(42),
                    [&](const Record& r) {
                      EXPECT_EQ(r.tuple, tup("label", 42, 84));
                      ++seen;
                      return true;
                    });
  EXPECT_EQ(seen, 1);
  EXPECT_LE(d.stats().records_scanned - before, 2u)
      << "probe must not scan the bucket";
}

TEST(DataspaceTest, SecondIndexTracksErase) {
  Dataspace d(8);
  d.insert(tup("k", 5, 0), 0);
  const TupleId victim = d.insert(tup("k", 5, 1), 0);
  d.insert(tup("k", 6, 2), 0);
  EXPECT_TRUE(d.erase(IndexKey::of(tup("k", 5, 0)), victim));
  int seen = 0;
  d.scan_key_second(IndexKey::of_head(3, Value::atom("k")), Value(5),
                    [&](const Record& r) {
                      EXPECT_EQ(r.tuple, tup("k", 5, 0));
                      ++seen;
                      return true;
                    });
  EXPECT_EQ(seen, 1);
}

TEST(DataspaceTest, SecondIndexDuplicateSecondFields) {
  Dataspace d(8);
  d.insert(tup("k", 7, 1), 0);
  d.insert(tup("k", 7, 2), 0);
  d.insert(tup("k", 8, 3), 0);
  int seen = 0;
  d.scan_key_second(IndexKey::of_head(3, Value::atom("k")), Value(7),
                    [&](const Record&) {
                      ++seen;
                      return true;
                    });
  EXPECT_EQ(seen, 2);
}

TEST(DataspaceTest, SecondIndexMissIsEmpty) {
  Dataspace d(8);
  d.insert(tup("k", 1), 0);
  int seen = 0;
  d.scan_key_second(IndexKey::of_head(2, Value::atom("k")), Value(99),
                    [&](const Record&) {
                      ++seen;
                      return true;
                    });
  EXPECT_EQ(seen, 0);
}

TEST(DataspaceTest, SecondIndexSurvivesSwapRemoveChurn) {
  Dataspace d(8);
  std::vector<TupleId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(d.insert(tup("c", i % 5, i), 0));
  // Remove every other instance (exercises position fixups).
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(d.erase(IndexKey::of_head(3, Value::atom("c")), ids[i]));
  }
  for (int s = 0; s < 5; ++s) {
    int seen = 0;
    d.scan_key_second(IndexKey::of_head(3, Value::atom("c")), Value(s),
                      [&](const Record& r) {
                        EXPECT_EQ(r.tuple[1], Value(s));
                        ++seen;
                        return true;
                      });
    EXPECT_EQ(seen, 5) << "second=" << s;
  }
}

/// Records in bucket `key` whose field 1 equals `second`, via the index.
std::vector<Tuple> probe(const Dataspace& d, const IndexKey& key,
                         const Value& second) {
  std::vector<Tuple> out;
  d.scan_key_second(key, second, [&](const Record& r) {
    out.push_back(r.tuple);
    return true;
  });
  return out;
}

TEST(DataspaceTest, SecondIndexExactAcrossGrowthEraseAllAndReinsert) {
  // One shard, so every record shares one field-1 table: 3,000 records
  // double it from 8 slots past 2,048 — nine rebuilds.
  Dataspace d(1);
  const IndexKey key = IndexKey::of_head(3, Value::atom("g"));
  constexpr int kN = 3000;
  std::vector<TupleId> ids;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(d.insert(tup("g", i % 1000, i), 0));
  }
  EXPECT_EQ(d.indexed_size(), static_cast<std::size_t>(kN));
  for (int s = 0; s < 1000; s += 37) {
    const std::vector<Tuple> got = probe(d, key, Value(s));
    ASSERT_EQ(got.size(), 3u) << "second=" << s;
    for (const Tuple& t : got) EXPECT_EQ(t[1], Value(s));
  }
  const std::uint64_t before = d.stats().records_scanned;
  EXPECT_EQ(probe(d, key, Value(kN)).size(), 0u);
  EXPECT_EQ(d.stats().records_scanned, before) << "a miss resolves nothing";

  for (const TupleId id : ids) ASSERT_TRUE(d.erase(key, id));
  EXPECT_EQ(d.indexed_size(), 0u);
  for (int s = 0; s < 1000; s += 37) {
    EXPECT_TRUE(probe(d, key, Value(s)).empty()) << "second=" << s;
  }

  for (int i = 0; i < kN; ++i) d.insert(tup("g", i, -i), 0);
  for (int s = 0; s < kN; s += 101) {
    const std::vector<Tuple> got = probe(d, key, Value(s));
    ASSERT_EQ(got.size(), 1u) << "second=" << s;
    EXPECT_EQ(got[0], tup("g", s, -s));
  }
}

TEST(DataspaceTest, SecondIndexKeepsBucketsApartWithinAShard) {
  // One shard, 64 heads at two arities, every record with field 1 = 7:
  // 128 (bucket, field-1) pairs in a 128-slot table must share chains, and
  // each probe must still see only its own bucket's record.
  Dataspace d(1);
  constexpr int kHeads = 64;
  for (int h = 0; h < kHeads; ++h) {
    d.insert(tup(h, 7, h), 0);
    d.insert(tup(h, 7), 0);
  }
  for (int h = 0; h < kHeads; ++h) {
    const std::vector<Tuple> three =
        probe(d, IndexKey::of_head(3, Value(h)), Value(7));
    ASSERT_EQ(three.size(), 1u) << "head=" << h;
    EXPECT_EQ(three[0], tup(h, 7, h));
    const std::vector<Tuple> two =
        probe(d, IndexKey::of_head(2, Value(h)), Value(7));
    ASSERT_EQ(two.size(), 1u) << "head=" << h;
    EXPECT_EQ(two[0], tup(h, 7));
    EXPECT_TRUE(probe(d, IndexKey::of_head(3, Value(h)), Value(8)).empty());
  }
  EXPECT_TRUE(probe(d, IndexKey::of_head(3, Value(kHeads)), Value(7)).empty());
}

TEST(DataspaceTest, RestoreFillsSecondIndex) {
  Dataspace d(4);
  for (int i = 0; i < 100; ++i) {
    d.restore(tup("r", i, i * 3),
              TupleId(/*owner=*/1, static_cast<std::uint64_t>(i) * 4));
  }
  EXPECT_EQ(d.indexed_size(), 100u);
  const std::vector<Tuple> got =
      probe(d, IndexKey::of_head(3, Value::atom("r")), Value(42));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], tup("r", 42, 126));
}

TEST(DataspaceTest, ArityOneTuplesStayOutOfSecondIndex) {
  Dataspace d(2);
  std::vector<TupleId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(d.insert(tup(i), 0));
  d.insert(tup(), 0);
  EXPECT_EQ(d.indexed_size(), 0u);
  d.insert(tup("two", 1), 0);
  EXPECT_EQ(d.indexed_size(), 1u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(d.erase(IndexKey::of(tup(static_cast<int>(i))), ids[i]));
  }
  EXPECT_EQ(d.indexed_size(), 1u);
  EXPECT_TRUE(probe(d, IndexKey::of_head(1, Value(3)), Value(3)).empty());
}

TEST(DataspaceTest, RestoreAdvancesOriginatingShardNotBucketShard) {
  // Across a real process restart atoms re-intern in replay order, so the
  // same tuple can hash into a DIFFERENT bucket shard than the one that
  // minted its id. The id itself encodes its minting shard
  // (sequence % shard_count); restore must advance THAT shard's counter —
  // advancing the bucket shard's would let a fresh insert re-mint the
  // restored id. Simulate the restart by restoring under an id whose
  // originating shard differs from the tuple's current bucket shard.
  constexpr std::size_t kShards = 8;
  Dataspace d(kShards);
  const Tuple t = tup("job", 1);
  const std::size_t bucket = d.shard_of(IndexKey::of(t));
  const std::size_t origin = (bucket + 1) % kShards;
  const TupleId restored(/*owner=*/3, /*sequence=*/origin);  // local 0
  d.restore(t, restored);

  // The first insert landing in the origin shard would re-mint sequence
  // `origin` if restore had advanced the wrong counter.
  for (int i = 0; i < 4096; ++i) {
    const Tuple fresh = tup(i, i);
    if (d.shard_of(IndexKey::of(fresh)) != origin) continue;
    const TupleId id = d.insert(fresh, /*owner=*/3);
    ASSERT_NE(id, restored) << "fresh insert re-minted a restored id";
    break;
  }
  EXPECT_EQ(d.count(t), 1u);
}

TEST(DataspaceTest, ManyDistinctHeadsSpreadOverShards) {
  Dataspace d(16);
  std::unordered_set<std::size_t> shards;
  for (int i = 0; i < 256; ++i) {
    shards.insert(d.shard_of(IndexKey::of(tup(i, 0))));
  }
  EXPECT_GT(shards.size(), 4u) << "shard distribution is degenerate";
}

}  // namespace
}  // namespace sdl
