// Leader/follower replication end-to-end on two Runtimes joined by a
// loopback transport pair: streaming, restart-stable ids, the follower
// write gate, snapshot-seeded catch-up behind a pruned WAL window,
// follower recoverability from its own WAL (which holds the leader's
// frames byte for byte), and promotion.
#include "repl/repl.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
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

// Every frame, keyed by seq, across the WAL segments in `dir`.
std::map<std::uint64_t, std::string> frames_by_seq(const std::string& dir) {
  std::map<std::uint64_t, std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".wal") continue;
    const persist::WalReadResult seg =
        persist::read_wal_segment(entry.path().string());
    EXPECT_TRUE(seg.header_ok && !seg.corrupt) << entry.path();
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    for (std::size_t i = 0; i < seg.commits.size(); ++i) {
      const std::uint64_t end =
          i + 1 < seg.offsets.size() ? seg.offsets[i + 1] : seg.valid_bytes;
      const bool fresh =
          out.emplace(seg.commits[i].seq,
                      data.substr(seg.offsets[i], end - seg.offsets[i]))
              .second;
      EXPECT_TRUE(fresh) << "seq " << seg.commits[i].seq << " logged twice";
    }
  }
  return out;
}

// One sequence space: a follower that caught up through a snapshot logs
// the leader's frames as they are — an engine commit, a blind assert and
// a consensus composite alike — holds the leader's snapshot file as its
// own, recovers on its own, and once promoted continues at fence + 1.
TEST_F(ReplRuntimeTest, FollowerLogHoldsTheLeadersFramesByteForByte) {
  auto leader = std::make_unique<Runtime>(leader_opts());
  for (int i = 0; i < 8; ++i) leader->seed(tup("job", i));
  ASSERT_TRUE(leader->execute(consume_job(), env).success);
  ASSERT_TRUE(leader->snapshot());
  const std::uint64_t barrier = leader->persist()->last_snapshot_barrier();
  ASSERT_EQ(barrier, 9u);

  // Past the barrier: an engine commit, a blind assert, a composite.
  ASSERT_TRUE(leader->execute(consume_job(), env).success);
  const Transaction blind = prep(TxnBuilder().where(lit(true)).assert_tuple(
      {lit(Value::atom("log")), lit(1)}));
  ASSERT_TRUE(leader->execute(blind, env).success);
  leader->seed(tup("shared", 0));
  ProcessDef member;
  member.name = "Member";
  member.params = {"k"};
  member.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                              .match(pat({A("shared"), W()}))
                              .assert_tuple({lit(Value::atom("arrived")),
                                             evar("k")})
                              .build())});
  leader->define(std::move(member));
  leader->spawn("Member", {Value(1)});
  leader->spawn("Member", {Value(2)});
  ASSERT_TRUE(leader->run().clean());
  ASSERT_EQ(leader->consensus().fires(), 1u);

  Runtime follower(follower_opts());
  connect(*leader, follower);
  ASSERT_TRUE(wait_until([&] { return converged(*leader, follower); }));
  expect_same_state(*leader, follower);
  EXPECT_EQ(follower.repl_follower()->stats().snapshots_loaded, 1u);

  const std::map<std::uint64_t, std::string> ours = frames_by_seq(leader_dir);
  const std::map<std::uint64_t, std::string> theirs =
      frames_by_seq(follower_dir);
  ASSERT_EQ(ours.size(), 4u) << "commit, blind assert, seed, composite";
  EXPECT_EQ(ours.begin()->first, barrier + 1);
  EXPECT_TRUE(theirs == ours) << "the follower's frames differ from the leader's";
  bool composite = false;
  for (const persist::WalCommit& c :
       persist::read_wal_segment(leader_dir + "/" +
                                 persist::wal_segment_name(barrier + 1))
           .commits) {
    composite = composite || c.fire != 0;
  }
  EXPECT_TRUE(composite) << "a consensus composite is among the frames";

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string snap = "/" + persist::snapshot_file_name(barrier);
  EXPECT_EQ(slurp(follower_dir + snap), slurp(leader_dir + snap))
      << "the follower installs the leader's snapshot file as it arrived";
  const persist::RecoveredState state = persist::replay(follower_dir);
  EXPECT_TRUE(persist::verify_recovery(state).ok());
  EXPECT_EQ(state.snapshot_barrier, barrier);
  EXPECT_EQ(state.last_seq, leader->persist()->shippable_seq());

  const std::uint64_t last = state.last_seq;
  leader.reset();
  const auto promotion = follower.promote_to_leader();
  EXPECT_EQ(promotion.fence, last);
  follower.seed(tup("job", 100));
  EXPECT_EQ(follower.persist()->stats().last_seq, last + 1)
      << "the first local commit after promotion takes fence + 1";
  const persist::RecoveredState promoted = persist::replay(follower_dir);
  EXPECT_TRUE(persist::verify_recovery(promoted).ok());
  ASSERT_FALSE(promoted.commits.empty());
  EXPECT_EQ(promoted.commits.back().seq, last + 1);
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
  // Both runtimes are gone. The follower logged the stream to its own
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

  // Reopen the follower from its own directory. Its log holds the
  // leader's frames under the leader's sequence numbers, so the last seq
  // recovery restores is exactly how far the old incarnation durably
  // applied, and the reattach Hello resumes the stream there instead of
  // replaying from seq 1.
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
  EXPECT_EQ(state.last_seq, fs.applied_seq);
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

// ReplOptions::max_lag_bytes, the leader's backpressure: while a live
// session's unacked bytes exceed the cap, writes are shed (RetryAfter, one
// poll interval) and reads still commit; once the follower drains, writes
// commit again. The cap sits below the in-flight window, so the tailer
// ships past it instead of stalling first.
TEST_F(ReplRuntimeTest, LagCapShedsWritesUntilTheFollowerDrains) {
  RuntimeOptions lo = leader_opts();
  lo.repl.max_lag_bytes = 1024;
  ASSERT_LT(lo.repl.max_lag_bytes, lo.repl.max_inflight_bytes);
  Runtime leader(lo);
  // A backlog past the cap, logged before any follower exists: one frame.
  std::vector<Tuple> backlog;
  for (int i = 0; i < 200; ++i) backlog.push_back(tup("job", i));
  leader.seed(std::move(backlog));
  ASSERT_TRUE(leader.execute(consume_job(), env).success) << "no session, no lag";

  // The follower attaches late and holds each batch it receives unapplied,
  // and so unacked, until the hold is released.
  Runtime follower(follower_opts());
  FaultInjector& hold = follower.enable_faults(/*seed=*/1);
  hold.arm(FaultPoint::ReplApply, FaultAction::FailCommit, 1000);
  connect(leader, follower);
  ASSERT_TRUE(wait_until([&] {
    return leader.repl_leader()->stats().lag_bytes > lo.repl.max_lag_bytes;
  }));

  const TxnResult shed = leader.execute(consume_job(), env);
  EXPECT_FALSE(shed.success);
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.retry_after_us, lo.repl.poll_interval_ms * 1000);
  EXPECT_TRUE(leader.execute(read_any_job(), env).success)
      << "reads are never shed";
  EXPECT_GT(leader.repl_leader()->stats().backpressure_hits, 0u);

  hold.disarm(FaultPoint::ReplApply);
  ASSERT_TRUE(wait_until([&] {
    return converged(leader, follower) &&
           leader.repl_leader()->stats().lag_bytes <= lo.repl.max_lag_bytes;
  }));
  EXPECT_TRUE(leader.execute(consume_job(), env).success);
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }));
  expect_same_state(leader, follower);
  EXPECT_EQ(follower.repl_follower()->stats().missing_retracts, 0u);
}

// A WAL frame larger than the streamer's read window (sized from the
// frames it expects) must still ship, as a batch of one, instead of
// parsing as a torn tail forever.
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

// The tailer reads about what the leader wrote: each wake-up fetches the
// durable frames past its cursor, not the segment's preallocated zero
// padding behind them.
TEST_F(ReplRuntimeTest, TailerReadsWhatWasWrittenNotThePadding) {
  Runtime leader(leader_opts());
  Runtime follower(follower_opts(/*with_persist=*/false));
  connect(leader, follower);

  constexpr std::uint64_t kCommits = 1000;
  for (std::uint64_t i = 0; i < kCommits; ++i) {
    leader.seed(tup("job", static_cast<std::int64_t>(i)));
  }
  ASSERT_TRUE(wait_until([&] { return converged(leader, follower); }, 20000));
  EXPECT_EQ(follower.repl_follower()->applied_seq(), kCommits);
  expect_same_state(leader, follower);

  // bytes_sent is the frame bytes shipped, i.e. the WAL bytes written.
  const repl::ReplLeaderStats ls = leader.repl_leader()->stats();
  EXPECT_GE(ls.tail_bytes_read, ls.bytes_sent);
  EXPECT_LE(ls.tail_bytes_read, 3 * ls.bytes_sent)
      << ls.batches_sent << " batches of " << ls.bytes_sent << " bytes";
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
