// Crash recovery end-to-end: a Runtime with durability on, killed and
// reopened, must come back with EXACTLY the committed dataspace — across
// plain restarts, snapshots, torn WAL tails, and crashed snapshot writes.
// Every scenario also closes the loop with the ISSUE 3 checker:
// verify_recovery replays the surviving WAL prefix and proves the
// recovered state is its serial replay.
#include "persist/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "core/codec.hpp"

#include "persist/persist.hpp"
#include "process/runtime.hpp"
#include "wal_records.hpp"

namespace sdl {
namespace {

namespace fs = std::filesystem;

class RecoveryTest : public ::testing::Test {
 protected:
  std::string dir;
  SymbolTable st;
  Env env;

  void SetUp() override {
    dir = ::testing::TempDir() + "sdl_recovery_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  RuntimeOptions opts(std::uint64_t fsync_every = 1,
                      std::uint64_t snapshot_every = 0) {
    RuntimeOptions o;
    o.persist.dir = dir;
    o.persist.fsync_every = fsync_every;
    o.persist.snapshot_every = snapshot_every;
    return o;
  }

  Transaction prep(TxnBuilder b) {
    Transaction t = b.build();
    t.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
    return t;
  }

  /// Moves a job tuple to done: ∃a : <job,a>! → (done, a).
  Transaction consume_job() {
    return prep(TxnBuilder()
                    .exists({"a"})
                    .match(pat({A("job"), V("a")}), true)
                    .assert_tuple({lit(Value::atom("done")), evar("a")}));
  }

  static std::vector<Record> sorted_state(Runtime& rt) {
    return rt.space().snapshot();  // sorted by (tuple, id)
  }

  static void expect_same_state(const std::vector<Record>& a,
                                const std::vector<Record>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "instance " << i;
      EXPECT_EQ(a[i].tuple, b[i].tuple) << "instance " << i;
    }
  }
};

TEST_F(RecoveryTest, EmptyDirectoryIsAFreshStart) {
  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_EQ(state.shard_count, 0u);
  EXPECT_TRUE(state.live.empty());
  EXPECT_TRUE(persist::verify_recovery(state).ok());
}

TEST_F(RecoveryTest, RestartRecoversExactCommittedState) {
  std::vector<Record> before;
  {
    Runtime rt(opts());
    for (int i = 0; i < 8; ++i) rt.seed(tup("job", i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(rt.execute(consume_job(), env).success);
    }
    before = sorted_state(rt);
    ASSERT_EQ(before.size(), 8u);
  }
  // The "crash": the runtime is gone; only the directory remains.
  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_EQ(state.shard_count, 64u);
  EXPECT_EQ(state.commits.size(), 11u) << "8 seeds + 3 transactions";
  EXPECT_TRUE(persist::verify_recovery(state).ok());

  Runtime rt2(opts());
  expect_same_state(sorted_state(rt2), before);
  // Which of the 8 jobs the 3 consumes picked is schedule-defined, but the
  // recovered tallies must match: 5 jobs left, 3 done markers.
  std::size_t jobs = 0, dones = 0;
  for (int i = 0; i < 8; ++i) {
    jobs += rt2.space().count(tup("job", i));
    dones += rt2.space().count(tup("done", i));
  }
  EXPECT_EQ(jobs, 5u);
  EXPECT_EQ(dones, 3u);
}

TEST_F(RecoveryTest, RecoveredIdsNeverCollideWithFreshOnes) {
  {
    Runtime rt(opts());
    for (int i = 0; i < 50; ++i) rt.seed(tup("job", i));
  }
  Runtime rt2(opts());
  for (int i = 50; i < 100; ++i) rt2.seed(tup("job", i));
  const std::vector<Record> all = sorted_state(rt2);
  ASSERT_EQ(all.size(), 100u);
  std::set<std::uint64_t> ids;
  for (const Record& r : all) ids.insert(r.id.bits());
  EXPECT_EQ(ids.size(), 100u) << "restored and fresh TupleIds must be disjoint";
}

TEST_F(RecoveryTest, SnapshotTruncatesLogAndRecoversThroughIt) {
  std::vector<Record> before;
  {
    Runtime rt(opts());
    for (int i = 0; i < 6; ++i) rt.seed(tup("job", i));
    ASSERT_TRUE(rt.snapshot());
    // Commits after the barrier land in the fresh segment and must be
    // replayed ON TOP of the snapshot at recovery.
    ASSERT_TRUE(rt.execute(consume_job(), env).success);
    rt.seed(tup("late", 1));
    before = sorted_state(rt);
    ASSERT_EQ(rt.persist()->stats().snapshots_written, 1u);
  }
  // Exactly one snapshot and one (post-barrier) segment remain on disk.
  std::size_t snaps = 0, wals = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    snaps += name.ends_with(".snap");
    wals += name.ends_with(".wal");
  }
  EXPECT_EQ(snaps, 1u);
  EXPECT_EQ(wals, 1u) << "pre-barrier segments must be gone";

  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_TRUE(state.used_snapshot);
  EXPECT_EQ(state.snapshot_barrier, 6u);
  EXPECT_EQ(state.commits.size(), 2u) << "only post-barrier commits replay";
  EXPECT_TRUE(persist::verify_recovery(state).ok());

  Runtime rt2(opts());
  expect_same_state(sorted_state(rt2), before);
}

TEST_F(RecoveryTest, AutomaticSnapshotsTriggerOnCommitInterval) {
  {
    Runtime rt(opts(/*fsync_every=*/1, /*snapshot_every=*/4));
    for (int i = 0; i < 10; ++i) rt.seed(tup("job", i));
    EXPECT_GE(rt.persist()->stats().snapshots_written, 2u);
  }
  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_TRUE(state.used_snapshot);
  EXPECT_TRUE(persist::verify_recovery(state).ok());
  Runtime rt2(opts());
  EXPECT_EQ(rt2.space().size(), 10u);
}

TEST_F(RecoveryTest, TornWalTailLosesOnlyTheUnacknowledgedCommit) {
  std::vector<Record> acked;
  {
    Runtime rt(opts());
    for (int i = 0; i < 5; ++i) rt.seed(tup("job", i));
    ASSERT_TRUE(rt.execute(consume_job(), env).success);
    acked = sorted_state(rt);

    // Crash mid-append: the next commit applies in memory but tears on
    // disk and is never acknowledged.
    rt.enable_faults(42).arm(FaultPoint::WalAppend, FaultAction::Kill, 1000, 1);
    ASSERT_TRUE(rt.execute(consume_job(), env).success)
        << "in-memory society continues past the dead disk";
    EXPECT_FALSE(rt.persist()->wal_alive());
    EXPECT_NE(sorted_state(rt).size(), 0u);
  }
  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_EQ(state.commits.size(), 6u) << "the torn commit must not replay";
  EXPECT_TRUE(persist::verify_recovery(state).ok());

  Runtime rt2(opts());
  expect_same_state(sorted_state(rt2), acked);
  EXPECT_EQ(rt2.space().count(tup("done", 0)) + rt2.space().count(tup("done", 1)) +
                rt2.space().count(tup("done", 2)) + rt2.space().count(tup("done", 3)) +
                rt2.space().count(tup("done", 4)),
            1u)
      << "exactly the one acknowledged consume survives";
}

// A bulk seed is one WAL record: cut the log at EVERY byte offset and
// recovery yields the whole init block or none of it, never a part.
TEST_F(RecoveryTest, TornBulkSeedRecoversAllOrNothing) {
  constexpr int kBlock = 12;
  std::string seg;
  {
    Runtime rt(opts());
    rt.seed(tup("before", 0));
    std::vector<Tuple> block;
    for (int k = 0; k < kBlock; ++k) block.push_back(tup("seed", k));
    rt.seed(std::move(block));
    rt.seed(tup("after", 0));
  }
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".wal") seg = e.path().string();
  }
  ASSERT_FALSE(seg.empty());
  std::string whole;
  {
    std::ifstream in(seg, std::ios::binary);
    whole.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::string cut_dir = dir + "_cut";
  std::size_t saw_none = 0;
  std::size_t saw_all = 0;
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    fs::remove_all(cut_dir);
    fs::create_directories(cut_dir);
    std::ofstream(cut_dir + "/" + fs::path(seg).filename().string(),
                  std::ios::binary)
        << whole.substr(0, cut);
    const persist::RecoveredState state = persist::replay(cut_dir);
    std::size_t seeded = 0;
    for (const auto& [id, t] : state.live) {
      if (t.arity() == 2 && t[0] == Value::atom("seed")) ++seeded;
    }
    ASSERT_TRUE(seeded == 0 || seeded == static_cast<std::size_t>(kBlock))
        << "offset " << cut << " recovered " << seeded << " of the block";
    (seeded == 0 ? saw_none : saw_all) += 1;
  }
  fs::remove_all(cut_dir);
  EXPECT_GT(saw_none, 0u);
  EXPECT_GT(saw_all, 0u);
}

TEST_F(RecoveryTest, CrashedSnapshotFallsBackToOlderChain) {
  std::vector<Record> before;
  {
    Runtime rt(opts());
    for (int i = 0; i < 4; ++i) rt.seed(tup("job", i));
    rt.enable_faults(7).arm(FaultPoint::SnapshotWrite, FaultAction::Kill, 1000, 1);
    EXPECT_FALSE(rt.snapshot()) << "killed snapshot must not report success";
    rt.disable_faults();
    // The WAL stayed alive: later commits are still durable.
    rt.seed(tup("late", 9));
    before = sorted_state(rt);
    EXPECT_EQ(rt.persist()->stats().snapshot_failures, 1u);
  }
  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_FALSE(state.used_snapshot) << "no durable snapshot exists";
  EXPECT_EQ(state.commits.size(), 5u);
  EXPECT_TRUE(persist::verify_recovery(state).ok());

  Runtime rt2(opts());
  expect_same_state(sorted_state(rt2), before);
  // The orphan .tmp from the crashed write was cleaned at reopen.
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_FALSE(e.path().string().ends_with(".tmp"));
  }
}

TEST_F(RecoveryTest, SnapshotAbortsWhenCommitterKillsWalBeforeBarrier) {
  // TOCTOU race: a committer crashes the WAL after snapshot_now's entry
  // alive() check but before the exclusive barrier. The dead append was
  // never acknowledged, yet its effects are in memory — a snapshot taken
  // now would resurrect them. snapshot_now must re-check under the
  // barrier, abort, and leave every durable file frozen at the crash.
  persist::PersistOptions po;
  po.dir = dir;
  po.fsync_every = 1;
  persist::PersistManager pm(po, /*shard_count=*/16);
  Dataspace space(16);
  const TupleId acked = space.insert(tup("job", 1), 1);
  ASSERT_NE(pm.log_commit(1, 0, {}, persist::Asserts{{acked, tup("job", 1)}}), 0u);

  FaultInjector faults(99);
  pm.set_fault_injector(&faults);
  auto racy_exclusive = [&](const std::function<void()>& fn) {
    // The racing committer lands just before exclusion takes effect.
    faults.arm(FaultPoint::WalAppend, FaultAction::Kill, 1000, 1);
    const TupleId torn = space.insert(tup("torn", 2), 1);
    EXPECT_EQ(pm.log_commit(1, 0, {}, persist::Asserts{{torn, tup("torn", 2)}}), 0u);
    EXPECT_FALSE(pm.wal_alive());
    fn();
  };
  EXPECT_FALSE(pm.snapshot_now(space, racy_exclusive))
      << "snapshot over a writer that died before the barrier must abort";

  // Frozen at the crash point: no snapshot written, the WAL chain intact,
  // and recovery sees exactly the acknowledged commit.
  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_FALSE(state.used_snapshot);
  EXPECT_EQ(state.commits.size(), 1u);
  ASSERT_EQ(state.live.size(), 1u);
  EXPECT_EQ(state.live[0].second, tup("job", 1));
  EXPECT_TRUE(persist::verify_recovery(state).ok());
}

TEST_F(RecoveryTest, GeometryMismatchRefusesToOpen) {
  { Runtime rt(opts()); rt.seed(tup("job", 1)); }  // shards = 64 (default)
  RuntimeOptions o = opts();
  o.shards = 16;
  EXPECT_THROW(Runtime{o}, std::invalid_argument);
}

TEST_F(RecoveryTest, ReadOnlyTransactionsAreNotLogged) {
  Runtime rt(opts());
  rt.seed(tup("job", 1));
  const std::uint64_t logged = rt.persist()->stats().logged_commits;
  Transaction peek = prep(TxnBuilder().exists({"x"}).match(
      pat({A("job"), V("x")}), /*retract=*/false));
  ASSERT_TRUE(rt.execute(peek, env).success);
  EXPECT_EQ(rt.persist()->stats().logged_commits, logged)
      << "a read-only commit has no effect set to log";
}

TEST_F(RecoveryTest, GroupCommitAcksSurviveRestart) {
  // fsync_every=64 batches the syncs; on a CLEAN shutdown the writer
  // flushes, so nothing may be lost.
  std::vector<Record> before;
  {
    Runtime rt(opts(/*fsync_every=*/64));
    for (int i = 0; i < 20; ++i) rt.seed(tup("job", i));
    before = sorted_state(rt);
    EXPECT_LT(rt.persist()->stats().syncs, 20u) << "syncs must be batched";
  }
  Runtime rt2(opts());
  expect_same_state(sorted_state(rt2), before);
}

TEST_F(RecoveryTest, OldFormatSegmentIsPreservedByteForByte) {
  // An old-format (v1) segment in the directory — say, shipped over from a
  // node that never upgraded — must stop recovery's chaining at that point
  // but NEVER be truncated or deleted by the reopening writer's directory
  // cleanup: the bytes are intact data in a layout this binary refuses to
  // decode, which is format_mismatch, not corruption.
  std::vector<Record> before;
  {
    Runtime rt(opts());
    for (int i = 0; i < 6; ++i) rt.seed(tup("job", i));
    before = sorted_state(rt);
  }
  // Byte-exact v1 fixture: "SDLWAL1\n" + {u32 shards, u64 start_seq} + crc.
  std::string v1("SDLWAL1\n", 8);
  std::string payload;
  codec::put_u32(payload, 64);
  codec::put_u64(payload, 100);
  v1 += payload;
  codec::put_u32(v1, codec::crc32(payload.data(), payload.size()));
  const std::string fixture = dir + "/wal-00000000000000000100.wal";
  std::ofstream(fixture, std::ios::binary) << v1;

  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_EQ(state.last_seq, 6u) << "the v2 prefix still recovers";
  bool noted = false;
  for (const std::string& n : state.notes) {
    if (n.find("format mismatch") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "recovery must say WHY it stopped chaining";

  // Reopen for writing: clean_directory trims torn tails and deletes
  // unreachable segments — but must leave the v1 file untouched.
  {
    Runtime rt2(opts());
    expect_same_state(sorted_state(rt2), before);
  }
  std::ifstream in(fixture, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, v1) << "v1 segment was modified on reopen";
}

TEST_F(RecoveryTest, OldFollowerDirectoryIsRefusedByteForByte) {
  // A follower used to log each shipped batch under its own sequence
  // numbers, followed by a kind-2 watermark frame. Its log cannot be
  // mixed with the leader-numbered frames a follower writes now, so such
  // a directory is refused as another format: nothing is truncated at the
  // marker as if it were damage, and no file is touched.
  fs::create_directories(dir);
  const auto marker = [](std::uint64_t seq, std::uint64_t mark) {
    std::string payload;
    codec::put_u8(payload, 2);
    codec::put_varint(payload, seq);
    codec::put_varint(payload, mark);
    std::string frame;
    codec::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
    codec::put_u32(frame, codec::crc32(payload.data(), payload.size()));
    return frame + payload;
  };
  {
    persist::WalWriter w(dir, 64, 1, 1, /*origin_node=*/2);
    ASSERT_EQ(w.append(1, 0, {}, persist::Asserts{{TupleId(1, 1), tup("job", 1)}}),
              1u);
    ASSERT_EQ(w.append_frame(2, marker(2, 1)), 2u);
    ASSERT_EQ(w.append(1, 0, persist::Retracts{TupleId(1, 1)}, {}), 3u);
    ASSERT_EQ(w.append_frame(4, marker(4, 2)), 4u);
  }
  const std::string segment = dir + "/" + persist::wal_segment_name(1);
  const persist::WalReadResult seg = persist::read_wal_segment(segment);
  EXPECT_TRUE(seg.format_mismatch);
  EXPECT_FALSE(seg.corrupt);
  EXPECT_TRUE(seg.commits.empty());

  const auto files = [&] {
    std::map<std::string, std::string> out;
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      out[entry.path().filename().string()] =
          std::string((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    }
    return out;
  };
  const std::map<std::string, std::string> before = files();

  const persist::RecoveredState state = persist::replay(dir);
  EXPECT_TRUE(state.format_mismatch);
  EXPECT_EQ(state.last_seq, 0u);
  bool noted = false;
  for (const std::string& n : state.notes) {
    if (n.find("format mismatch") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "recovery must say WHY it stopped chaining";

  EXPECT_THROW(Runtime rt(opts()), std::invalid_argument);
  EXPECT_EQ(files(), before) << "a refused directory must not change";
}

}  // namespace
}  // namespace sdl
