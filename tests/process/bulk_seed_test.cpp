// Bulk seeding: Runtime::seed(std::vector<Tuple>) and lang::load_program
// load a whole init block as ONE commit — one exclusive section, one WAL
// record, one publish — so recovery restores the block all-or-nothing and
// a waiter on a repeated key wakes once.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "lang/compile.hpp"
#include "persist/recovery.hpp"
#include "process/runtime.hpp"

namespace sdl {
namespace {

namespace fs = std::filesystem;

std::string init_block(int n) {
  std::string src = "init {\n";
  for (int k = 1; k <= n; ++k) {
    src += "  [" + std::to_string(k) + ", " + std::to_string(10 * k) + "];\n";
  }
  return src + "}\n";
}

class BulkSeedTest : public ::testing::Test {
 protected:
  std::string dir;

  void SetUp() override {
    dir = ::testing::TempDir() + "sdl_bulk_seed_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }
};

TEST_F(BulkSeedTest, BatchReturnsIdsInInputOrder) {
  Runtime rt;
  const std::vector<Tuple> input{tup("a", 1), tup("b", 2), tup("a", 3)};
  const std::vector<TupleId> ids = rt.seed(input);
  ASSERT_EQ(ids.size(), input.size());
  const std::vector<Record> snap = rt.space().snapshot();
  ASSERT_EQ(snap.size(), input.size());
  for (const Record& r : snap) {
    const auto at = std::find(input.begin(), input.end(), r.tuple) - input.begin();
    EXPECT_EQ(r.id, ids[static_cast<std::size_t>(at)]) << r.tuple.to_string();
  }
  EXPECT_TRUE(rt.seed(std::vector<Tuple>{}).empty());
  EXPECT_EQ(rt.space().size(), 3u);
}

TEST_F(BulkSeedTest, LoadProgramAppendsOneWalRecord) {
  constexpr int kN = 500;
  {
    RuntimeOptions o;
    o.persist.dir = dir;
    Runtime rt(o);
    const std::uint64_t before = rt.persist()->stats().logged_commits;
    lang::load_source(rt, init_block(kN));
    EXPECT_EQ(rt.persist()->stats().logged_commits - before, 1u);
    EXPECT_EQ(rt.space().size(), static_cast<std::size_t>(kN));
  }
  const persist::RecoveredState state = persist::replay(dir);
  ASSERT_EQ(state.commits.size(), 1u);
  EXPECT_EQ(state.commits[0].asserts.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(state.live.size(), static_cast<std::size_t>(kN));
  EXPECT_TRUE(persist::verify_recovery(state).ok());
}

TEST_F(BulkSeedTest, LoadCountsAsOneCommitTowardSnapshots) {
  RuntimeOptions o;
  o.persist.dir = dir;
  o.persist.snapshot_every = 4;
  Runtime rt(o);
  lang::load_source(rt, init_block(64));
  EXPECT_EQ(rt.persist()->stats().snapshots_written, 0u)
      << "snapshot_every counts records, not tuples";
}

TEST_F(BulkSeedTest, WaiterOnARepeatedKeyWakesOnce) {
  Runtime rt;
  lang::load_source(rt, R"(
    process Waiter
    behavior
      exists a : [go, a] => [seen, a]
    end
    spawn Waiter()
  )");
  const RunReport parked = rt.run();
  ASSERT_EQ(parked.still_parked, 1u);

  const std::uint64_t before = rt.waits().wakes_delivered();
  rt.seed(std::vector<Tuple>{tup("go", 1), tup("go", 2), tup("go", 3)});
  EXPECT_EQ(rt.waits().wakes_delivered() - before, 1u)
      << "one publish for the batch, one wake for its subscriber";

  const RunReport done = rt.run();
  EXPECT_TRUE(done.clean());
  EXPECT_EQ(rt.space().size(), 4u) << "three go tuples and one seen";
}

TEST_F(BulkSeedTest, UnpromotedFollowerRefusesBatchSeed) {
  RuntimeOptions o;
  o.repl.role = repl::Role::Follower;
  o.repl.node_id = 2;
  Runtime follower(o);
  EXPECT_THROW(follower.seed(std::vector<Tuple>{tup("job", 1), tup("job", 2)}),
               std::logic_error);
  EXPECT_THROW(follower.seed(std::vector<Tuple>{}), std::logic_error);
  EXPECT_EQ(follower.space().size(), 0u);
}

TEST_F(BulkSeedTest, LoadedProgramRunsCleanUnderTheChecker) {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  Runtime rt(o);
  rt.enable_history();
  lang::load_source(rt, R"(
    process Sum3
    behavior
      ||{ exists v, a, u, b : [v, a]!, [u, b]! when v != u -> [u, a + b] }
    end
  )" + init_block(64) + "spawn Sum3()\n");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(rt.space().size(), 1u);
  EXPECT_EQ(rt.space().snapshot()[0].tuple[1], Value(10 * 64 * 65 / 2));
  const CheckReport check = rt.check_history();
  EXPECT_TRUE(check.ok()) << check.to_string();
  EXPECT_GT(check.commits_checked, 0u);
}

TEST_F(BulkSeedTest, RepeatedInitTupleKeepsBothInstances) {
  Runtime rt;
  lang::load_source(rt, "init { [a, 1]; [a, 1]; [b, 2] }\n");
  EXPECT_EQ(rt.space().count(tup("a", 1)), 2u);
  EXPECT_EQ(rt.space().size(), 3u);
}

}  // namespace
}  // namespace sdl
