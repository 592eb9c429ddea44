// Leader/follower replication end-to-end on two Runtimes joined by a
// loopback transport pair: streaming, restart-stable ids, the follower
// write gate, snapshot-seeded catch-up behind a pruned WAL window,
// follower recoverability from its own re-logged WAL, and promotion.
#include "repl/repl.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <set>
#include <thread>

#include "persist/recovery.hpp"
#include "process/runtime.hpp"
#include "repl/net_transport.hpp"

namespace sdl {
namespace {

namespace fs = std::filesystem;

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class ReplRuntimeTest : public ::testing::Test {
 protected:
  std::string leader_dir;
  std::string follower_dir;
  SymbolTable st;
  Env env;

  void SetUp() override {
    const std::string base =
        ::testing::TempDir() + "sdl_repl_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    leader_dir = base + "_leader";
    follower_dir = base + "_follower";
    fs::remove_all(leader_dir);
    fs::remove_all(follower_dir);
  }
  void TearDown() override {
    fs::remove_all(leader_dir);
    fs::remove_all(follower_dir);
  }

  RuntimeOptions leader_opts(std::uint64_t fsync_every = 1,
                             std::uint64_t snapshot_every = 0) {
    RuntimeOptions o;
    o.persist.dir = leader_dir;
    o.persist.fsync_every = fsync_every;
    o.persist.snapshot_every = snapshot_every;
    o.repl.role = repl::Role::Leader;
    o.repl.node_id = 1;
    o.repl.poll_interval_ms = 5;
    return o;
  }

  RuntimeOptions follower_opts(bool with_persist = true) {
    RuntimeOptions o;
    if (with_persist) {
      o.persist.dir = follower_dir;
      o.persist.fsync_every = 1;
    }
    o.repl.role = repl::Role::Follower;
    o.repl.node_id = 2;
    o.repl.poll_interval_ms = 5;
    return o;
  }

  static void connect(Runtime& leader, Runtime& follower) {
    auto [a, b] = repl::make_loopback_pair();
    leader.repl_leader()->add_follower(std::move(a));
    follower.repl_follower()->attach(std::move(b));
  }

  static bool converged(Runtime& leader, Runtime& follower) {
    return follower.repl_follower()->applied_seq() >=
           leader.persist()->shippable_seq();
  }

  static void expect_same_state(Runtime& a, Runtime& b) {
    const std::vector<Record> sa = a.space().snapshot();
    const std::vector<Record> sb = b.space().snapshot();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].id, sb[i].id) << "restart-stable id, instance " << i;
      EXPECT_EQ(sa[i].tuple, sb[i].tuple) << "instance " << i;
    }
  }

  Transaction prep(TxnBuilder b) {
    Transaction t = b.build();
    t.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
    return t;
  }

  Transaction consume_job() {
    return prep(TxnBuilder()
                    .exists({"a"})
                    .match(pat({A("job"), V("a")}), true)
                    .assert_tuple({lit(Value::atom("done")), evar("a")}));
  }

  Transaction read_any_job() {
    return prep(TxnBuilder().exists({"a"}).match(pat({A("job"), V("a")}),
                                                 false));
  }
};

TEST_F(ReplRuntimeTest, LeaderRequiresDurability) {
  RuntimeOptions o;
  o.repl.role = repl::Role::Leader;
  EXPECT_THROW(Runtime rt(o), std::invalid_argument);
}

TEST_F(ReplRuntimeTest, StreamsCommitsWithRestartStableIds) {
  Runtime leader(leader_opts());
  Runtime follower(follower_opts());
  connect(leader, follower);

  for (int i = 0; i < 16; ++i) leader.seed(tup("job", i));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(leader.execute(consume_job(), env).success);
  }
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
  expect_same_state(leader, follower);

  const repl::ReplFollowerStats fs = follower.repl_follower()->stats();
  EXPECT_EQ(fs.missing_retracts, 0u);
  EXPECT_GE(fs.batches_applied, 1u);
  EXPECT_EQ(fs.applied_seq, leader.persist()->shippable_seq());
}

TEST_F(ReplRuntimeTest, GroupCommitShipsOnlyDurableRecords) {
  Runtime leader(leader_opts(/*fsync_every=*/8));
  Runtime follower(follower_opts(/*with_persist=*/false));
  connect(leader, follower);

  for (int i = 0; i < 20; ++i) leader.seed(tup("job", i));
  // Whatever is durable must arrive; the unflushed tail must not.
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
  EXPECT_LE(follower.repl_follower()->applied_seq(),
            leader.persist()->shippable_seq());
  // Force the tail durable; the stream catches up to all 20 seeds.
  leader.persist()->sync();
  ASSERT_TRUE(wait_until([&] {
    return follower.repl_follower()->applied_seq() >= 20;
  }));
  expect_same_state(leader, follower);
}

TEST_F(ReplRuntimeTest, FollowerRefusesWritesButServesReads) {
  Runtime leader(leader_opts());
  Runtime follower(follower_opts());
  connect(leader, follower);
  leader.seed(tup("job", 1));
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));

  const TxnResult w = follower.execute(consume_job(), env);
  EXPECT_FALSE(w.success);
  EXPECT_TRUE(w.not_leader);
  EXPECT_THROW(follower.seed(tup("job", 2)), std::logic_error);

  const TxnResult r = follower.execute(read_any_job(), env);
  EXPECT_TRUE(r.success) << "reads are local and eventually consistent";
  EXPECT_EQ(follower.space().count(tup("job", 1)), 1u);
}

TEST_F(ReplRuntimeTest, LateFollowerCatchesUpViaSnapshotBehindPrunedWal) {
  Runtime leader(leader_opts());
  for (int i = 0; i < 12; ++i) leader.seed(tup("job", i));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(leader.execute(consume_job(), env).success);
  }
  // Snapshot + prune: the WAL below the barrier is gone; a fresh follower
  // cannot be served by tailing alone.
  ASSERT_TRUE(leader.snapshot());
  ASSERT_GT(leader.persist()->last_snapshot_barrier(), 0u);
  for (int i = 12; i < 15; ++i) leader.seed(tup("job", i));  // post-barrier tail

  Runtime follower(follower_opts());
  connect(leader, follower);
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
  expect_same_state(leader, follower);
  const repl::ReplFollowerStats fs = follower.repl_follower()->stats();
  EXPECT_GE(fs.snapshots_loaded, 1u) << "must have been seeded, not tailed";
  EXPECT_EQ(fs.missing_retracts, 0u);
  EXPECT_GE(leader.repl_leader()->stats().snapshots_sent, 1u);
}

TEST_F(ReplRuntimeTest, FollowerIsIndependentlyRecoverable) {
  std::vector<Record> streamed;
  {
    Runtime leader(leader_opts());
    Runtime follower(follower_opts(/*with_persist=*/true));
    connect(leader, follower);
    for (int i = 0; i < 10; ++i) leader.seed(tup("job", i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(leader.execute(consume_job(), env).success);
    }
    ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
    streamed = follower.space().snapshot();
  }
  // Both runtimes are gone. The follower re-logged the stream to its own
  // WAL, so a plain durable reopen reconstructs the replicated state.
  const persist::RecoveredState state = persist::replay(follower_dir);
  EXPECT_TRUE(persist::verify_recovery(state).ok());
  RuntimeOptions o;
  o.persist.dir = follower_dir;
  Runtime reopened(o);
  const std::vector<Record> recovered = reopened.space().snapshot();
  ASSERT_EQ(recovered.size(), streamed.size());
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].id, streamed[i].id);
    EXPECT_EQ(recovered[i].tuple, streamed[i].tuple);
  }
}

TEST_F(ReplRuntimeTest, RestartedFollowerReattachesAtDurableWatermark) {
  Runtime leader(leader_opts());
  std::uint64_t watermark_at_death = 0;
  {
    Runtime follower(follower_opts(/*with_persist=*/true));
    connect(leader, follower);
    for (int i = 0; i < 10; ++i) leader.seed(tup("job", i));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(leader.execute(consume_job(), env).success);
    }
    ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
    watermark_at_death = follower.repl_follower()->applied_seq();
  }  // follower process dies; the leader keeps running

  for (int i = 10; i < 14; ++i) leader.seed(tup("job", i));

  // Reopen the follower from its own directory. The re-logged repl_mark
  // records prove how far the old incarnation durably applied, so the
  // reattach Hello resumes the stream instead of replaying from seq 1 —
  // and even a conservative (under-reported) watermark is safe because
  // redelivered asserts of resident tuples are skipped, not fatal.
  Runtime follower(follower_opts(/*with_persist=*/true));
  EXPECT_EQ(follower.repl_follower()->applied_seq(), watermark_at_death)
      << "recovery must reconstruct the applied watermark from the WAL";
  connect(leader, follower);
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
  expect_same_state(leader, follower);

  const repl::ReplFollowerStats fs = follower.repl_follower()->stats();
  EXPECT_EQ(fs.missing_retracts, 0u);
  EXPECT_EQ(fs.batches_rejected, 0u);
  EXPECT_EQ(fs.applied_seq, leader.persist()->shippable_seq());

  // And the restarted incarnation's own WAL still recovers cleanly.
  const persist::RecoveredState state = persist::replay(follower_dir);
  EXPECT_TRUE(persist::verify_recovery(state).ok());
  EXPECT_EQ(state.repl_applied_seq, fs.applied_seq);
}

TEST_F(ReplRuntimeTest, PromotionFencesRotatesAndResumesWritable) {
  auto leader = std::make_unique<Runtime>(leader_opts());
  Runtime follower(follower_opts());
  connect(*leader, follower);
  for (int i = 0; i < 8; ++i) leader->seed(tup("job", i));
  ASSERT_TRUE(wait_until([&] { return converged(*leader, follower); }));
  const std::uint64_t watermark = follower.repl_follower()->applied_seq();

  leader.reset();  // leader death: sessions tear down

  const auto promotion = follower.promote_to_leader();
  EXPECT_EQ(promotion.fence, watermark)
      << "fence = last contiguously applied record";
  EXPECT_TRUE(promotion.wal_rotated)
      << "epoch-boundary WAL rotation must succeed on a healthy disk";
  EXPECT_TRUE(follower.repl_follower()->writable());
  EXPECT_EQ(follower.repl_follower()->stats().promotions, 1u);

  // Writable again: the promoted node accepts seeds and transactions.
  follower.seed(tup("job", 100));
  ASSERT_TRUE(follower.execute(consume_job(), env).success);
  EXPECT_EQ(follower.space().size(), 9u);

  // The promotion snapshot rotated the local WAL: a fresh segment exists
  // above the barrier, and the whole directory still recovers cleanly.
  ASSERT_NE(follower.persist(), nullptr);
  EXPECT_GT(follower.persist()->last_snapshot_barrier(), 0u);
  const persist::RecoveredState state = persist::replay(follower_dir);
  EXPECT_TRUE(persist::verify_recovery(state).ok());
}

TEST_F(ReplRuntimeTest, ReconnectResumesFromWatermark) {
  Runtime leader(leader_opts());
  Runtime follower(follower_opts());
  connect(leader, follower);
  for (int i = 0; i < 6; ++i) leader.seed(tup("job", i));
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));

  // Tear the session down mid-run, write more, reconnect.
  follower.repl_follower()->detach();
  for (int i = 6; i < 12; ++i) leader.seed(tup("job", i));
  connect(leader, follower);
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
  expect_same_state(leader, follower);
  EXPECT_EQ(follower.repl_follower()->stats().reconnects, 1u);
}

// A WAL frame larger than the streamer's read window (max_batch_bytes plus
// one read chunk, 512 KiB by default) must still ship, as a batch of one,
// instead of parsing as a torn tail forever.
TEST_F(ReplRuntimeTest, FrameLargerThanTheReadWindowShips) {
  Runtime leader(leader_opts(/*fsync_every=*/8));
  Runtime follower(follower_opts(/*with_persist=*/false));
  connect(leader, follower);

  leader.seed(tup("job", 0));
  leader.seed(tup("blob", std::string(std::size_t{1} << 20, 'x')));
  leader.seed(tup("job", 1));
  leader.persist()->sync();
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }, 10000))
      << "follower stuck at applied seq "
      << follower.repl_follower()->applied_seq();
  EXPECT_EQ(follower.repl_follower()->applied_seq(), 3u);
  expect_same_state(leader, follower);
  EXPECT_EQ(follower.repl_follower()->stats().missing_retracts, 0u);
}

// A 50,000-tuple init block is one WAL record of about a megabyte: it
// streams like any other frame, and the leader's history stays clean.
TEST_F(ReplRuntimeTest, BulkSeedOfFiftyThousandTuplesDrains) {
  Runtime leader(leader_opts(/*fsync_every=*/8));
  Runtime follower(follower_opts(/*with_persist=*/false));
  connect(leader, follower);
  leader.enable_history();

  std::vector<Tuple> block;
  block.reserve(50000);
  for (int i = 0; i < 50000; ++i) block.push_back(tup("job", i));
  leader.seed(std::move(block));
  EXPECT_EQ(leader.persist()->stats().logged_commits, 1u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(leader.execute(consume_job(), env).success);
  }
  leader.persist()->sync();
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }, 10000))
      << "follower stuck at applied seq "
      << follower.repl_follower()->applied_seq();
  EXPECT_EQ(follower.repl_follower()->applied_seq(), 6u);
  expect_same_state(leader, follower);
  EXPECT_EQ(follower.repl_follower()->stats().missing_retracts, 0u);
  const CheckReport check = leader.check_history();
  EXPECT_TRUE(check.ok()) << check.to_string();
}

TEST_F(ReplRuntimeTest, TcpTransportStreamsEndToEnd) {
  // Leader listens on a kernel-assigned port... which we cannot know ahead
  // of RuntimeOptions. Bind a listener manually instead and bridge it.
  Runtime leader(leader_opts());
  Runtime follower(follower_opts(/*with_persist=*/false));
  auto listener = repl::NetListener::bind(0);
  ASSERT_NE(listener, nullptr);
  std::thread dial([&] {
    auto t = repl::net_connect(listener->port(), 1000);
    ASSERT_NE(t, nullptr);
    follower.repl_follower()->attach(std::move(t));
  });
  auto server_side = listener->accept(2000);
  ASSERT_NE(server_side, nullptr);
  leader.repl_leader()->add_follower(std::move(server_side));
  dial.join();

  for (int i = 0; i < 10; ++i) leader.seed(tup("job", i));
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
  expect_same_state(leader, follower);
}

}  // namespace
}  // namespace sdl
