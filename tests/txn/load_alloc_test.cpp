// Heap-allocation budget of program load: parse, seed, and the warm
// durable read-modify-write that pays for every insert and retract. Its
// own executable: alloc_budget.hpp replaces the global operator new with
// one that counts the calling thread's allocations.
#include <algorithm>
#include <sstream>
#include <vector>

#include "alloc_budget.hpp"

namespace sdl {
namespace {

/// An init block of `n` value pairs and `n` probe triples (sdlbench's
/// Sum1 shape: integer heads, and one atom head repeated n times).
std::string init_source(int n) {
  std::ostringstream src;
  src << "init {\n";
  for (int k = 1; k <= n; ++k) src << "  [" << k << ", " << k % 997 << "];\n";
  for (int k = 0; k < n; ++k) src << "  [probe, " << k << ", " << 100 + k << "];\n";
  src << "}\n";
  return src.str();
}

std::uint64_t parse_allocs(const std::string& source) {
  const std::uint64_t before = alloc_count::t_allocs;
  const lang::Program program = lang::parse_program(source);
  const std::uint64_t n = alloc_count::t_allocs - before;
  EXPECT_FALSE(program.seeds.empty());
  return n;
}

// The seeds vector is reserved once; every tuple, field and atom after
// that is built in place, so 16x more tuples cost no more allocations.
TEST(LoadAllocTest, ParsingInitTuplesAllocatesIndependentlyOfTheirCount) {
  const std::string small = init_source(64);
  const std::string large = init_source(1024);
  (void)parse_allocs(small);  // first use of the atom: intern-table growth
  EXPECT_EQ(parse_allocs(large), parse_allocs(small));
}

// A tuple inserted into a bucket that exists, with room on its shard's
// field-1 table, is one block: its record node.
TEST(LoadAllocTest, InsertIntoAnExistingBucketAllocatesOneNode) {
  Dataspace space(1);
  // 2,049 indexed records grow the field-1 table to 4,096 slots.
  for (int i = 0; i < 2049; ++i) space.insert(tup("warm", i), 0);
  space.insert(tup("probe", 0, 0), 0);
  const IndexKey key = IndexKey::of_head(3, Value::atom("probe"));
  std::vector<Tuple> batch;
  for (int i = 1; i <= 1000; ++i) batch.push_back(tup("probe", i, i));
  const std::uint64_t before = alloc_count::t_allocs;
  for (Tuple& t : batch) space.insert(key, std::move(t), 0);
  EXPECT_EQ(alloc_count::t_allocs - before, 1000u);
}

// Runtime::seed adds per-batch bookkeeping (the id list, the touched
// keys, the exclusive section) but nothing more per tuple.
TEST(LoadAllocTest, SeedingAnExistingBucketCostsOneBlockPerTuple) {
  RuntimeOptions opts;
  opts.scheduler.workers = 1;
  Runtime rt(opts);
  auto probes = [](int from, int count) {
    std::vector<Tuple> batch;
    for (int i = from; i < from + count; ++i) batch.push_back(tup("probe", i, i));
    return batch;
  };
  // Create the bucket and grow its shard's field-1 table to 8,192 slots.
  rt.seed(probes(0, 4097));
  auto seed_allocs = [&](std::vector<Tuple> batch) {
    const std::uint64_t before = alloc_count::t_allocs;
    rt.seed(std::move(batch));
    return alloc_count::t_allocs - before;
  };
  const std::uint64_t hundred = seed_allocs(probes(10000, 100));
  const std::uint64_t thousand = seed_allocs(probes(20000, 1000));
  EXPECT_EQ(thousand - hundred, 900u);
}

// A durable seed logs its WAL frame straight from the records it linked,
// so a tuple whose fields spill past Tuple::kInlineFields still costs one
// block, its record node: a WAL copy of each tuple would be a second.
TEST(LoadAllocTest, DurableSeedingOfWideTuplesCostsOneBlockPerTuple) {
  const std::string dir = ::testing::TempDir() + "sdl_durable_seed_alloc";
  std::filesystem::remove_all(dir);
  {
    RuntimeOptions opts;
    opts.scheduler.workers = 1;
    opts.persist.dir = dir;
    Runtime rt(opts);
    auto wide = [](int from, int count) {
      std::vector<Tuple> batch;
      for (int i = from; i < from + count; ++i) {
        batch.push_back(tup("wide", i, i, i));
      }
      return batch;
    };
    ASSERT_GT(wide(0, 1).front().arity(), Tuple::kInlineFields);
    // Create the bucket, grow its shard's field-1 table to 8,192 slots,
    // and grow the WAL's frame buffer past every batch below.
    rt.seed(wide(0, 4097));
    auto seed_allocs = [&](std::vector<Tuple> batch) {
      const std::uint64_t before = alloc_count::t_allocs;
      rt.seed(std::move(batch));
      return alloc_count::t_allocs - before;
    };
    const std::uint64_t hundred = seed_allocs(wide(10000, 100));
    const std::uint64_t thousand = seed_allocs(wide(20000, 1000));
    EXPECT_EQ(thousand - hundred, 900u);
    EXPECT_EQ(rt.space().size(), 5197u);
  }
  std::filesystem::remove_all(dir);
}

// A spawn costs two blocks: the society map node, which holds the Process
// itself, and the environment. The frame stack is inline. The difference
// of two batches cancels first-use costs; what stays besides the two
// blocks per spawn is the ready queue's deque blocks (64 pids each, so
// about 16 per 1,000 spawns, plus its block map) and a map rehash or two.
TEST(LoadAllocTest, SpawnCostsTheMapNodeAndTheEnvironment) {
  RuntimeOptions opts;
  opts.scheduler.workers = 1;
  Runtime rt(opts);
  ProcessDef def;
  def.name = "Cell";
  def.params = {"k", "v"};
  def.body = seq({stmt(TxnBuilder()
                           .assert_tuple({lit(Value::atom("cell")), evar("k"),
                                          evar("v")})
                           .build())});
  const ProcessDef& cell = rt.define(std::move(def));
  auto spawn_allocs = [&](int count) {
    std::vector<std::vector<Value>> args(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) args[i] = {Value(i), Value(i % 7)};
    const std::uint64_t before = alloc_count::t_allocs;
    for (std::vector<Value>& a : args) rt.spawn(cell, std::move(a));
    return alloc_count::t_allocs - before;
  };
  const std::uint64_t thousand = spawn_allocs(1000);
  const std::uint64_t two_thousand = spawn_allocs(2000);
  constexpr std::uint64_t kSlack = 40;
  EXPECT_LE(two_thousand - thousand, 2u * 1000u + kSlack)
      << "1,000 spawns: " << thousand << ", 2,000 spawns: " << two_thousand;
  EXPECT_EQ(rt.scheduler().live_count(), 3000u);
}

using DurableWriteAllocTest = DurableAccountsTest;

// A warm read-modify-write on the durable leader costs what its commit
// builds: the lock plan, the materialized assertion, the record node, the
// asserted-id and touched-key lists, and the WAL append. The retract goes
// through the match's record handle, so it allocates nothing, and its key
// is the assert's, so the touched-key list holds one key and never grows.
TEST_F(DurableWriteAllocTest, WarmReadModifyWriteIsPinned) {
  for (std::int64_t k = 0; k < kAccounts; ++k) (void)write_allocs(k, 1);
  std::vector<std::uint64_t> counts;
  for (int i = 0; i < 400; ++i) {
    counts.push_back(write_allocs((i * 37) % kAccounts, i % 2 == 0 ? -1 : 1));
  }
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts[counts.size() / 2], 9u) << "median";
}

}  // namespace
}  // namespace sdl
