// WalWriter/read_wal_segment: append/read roundtrips, group commit
// accounting, rotation, the WalAppend crash fault — and the torn-write
// property test: a valid WAL truncated at EVERY byte offset must parse
// without crashing to a sequence-prefix of the original commits.
#include "persist/wal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/codec.hpp"
#include "wal_records.hpp"

namespace sdl::persist {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  std::string dir;

  void SetUp() override {
    dir = ::testing::TempDir() + "sdl_wal_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
};

TEST_F(WalTest, AppendReadRoundtrip) {
  std::string seg;
  {
    WalWriter w(dir, /*shard_count=*/16, /*next_seq=*/1, /*fsync_every=*/1);
    seg = w.segment_path();
    EXPECT_EQ(w.append(3, 0, {}, Asserts{{TupleId(3, 7), tup("job", 1)}}), 1u);
    EXPECT_EQ(w.append(4, 0, Retracts{TupleId(3, 7)},
                       Asserts{{TupleId(4, 8), tup("done", 1)},
                        {TupleId(4, 9), tup("log", std::string("x"), 2.5)}}),
              2u);
    EXPECT_EQ(w.append(5, 11, Retracts{TupleId(4, 8)}, {}), 3u);  // consensus record
    EXPECT_EQ(w.last_appended(), 3u);
    EXPECT_EQ(w.last_synced(), 3u);  // fsync_every=1: every append synced
  }
  const WalReadResult r = read_wal_segment(seg);
  ASSERT_TRUE(r.header_ok);
  EXPECT_FALSE(r.corrupt);
  EXPECT_EQ(r.shard_count, 16u);
  EXPECT_EQ(r.start_seq, 1u);
  ASSERT_EQ(r.commits.size(), 3u);
  EXPECT_EQ(r.commits[0].seq, 1u);
  EXPECT_EQ(r.commits[0].owner, 3u);
  ASSERT_EQ(r.commits[0].asserts.size(), 1u);
  EXPECT_EQ(r.commits[0].asserts[0].first, TupleId(3, 7));
  EXPECT_EQ(r.commits[0].asserts[0].second, tup("job", 1));
  EXPECT_EQ(r.commits[1].retracts, (std::vector<TupleId>{TupleId(3, 7)}));
  EXPECT_EQ(r.commits[1].asserts[1].second, tup("log", std::string("x"), 2.5));
  EXPECT_EQ(r.commits[2].fire, 11u);
  EXPECT_EQ(r.commits[2].retracts[0], TupleId(4, 8));
}

// A follower's log takes a leader's frames as they are: under group
// commit and write-through alike, the segment holds the same bytes, and
// a frame out of sequence kills the writer instead of leaving a gap. A
// rotation to a later seq (a snapshot install) moves both watermarks.
TEST_F(WalTest, AppendFrameLogsAnotherLogsBytesAsTheyAre) {
  const std::string leader_dir = dir + "/leader";
  fs::create_directories(leader_dir);
  std::string leader_seg;
  {
    WalWriter w(leader_dir, 16, 1, 1);
    leader_seg = w.segment_path();
    w.append(3, 0, {}, Asserts{{TupleId(3, 7), tup("job", 1)}});
    w.append(4, 9, Retracts{TupleId(3, 7)}, Asserts{{TupleId(4, 8), tup("done", 1)}});
  }
  const WalReadResult lr = read_wal_segment(leader_seg);
  ASSERT_EQ(lr.commits.size(), 2u);
  const std::string leader_bytes = slurp(leader_seg);
  const std::string_view frames =
      std::string_view(leader_bytes).substr(kWalHeaderSize);

  for (const std::uint64_t fsync_every : {1u, 4u}) {
    const std::string follower_dir =
        dir + "/follower" + std::to_string(fsync_every);
    fs::create_directories(follower_dir);
    std::string seg;
    {
      WalWriter w(follower_dir, 16, 1, fsync_every);
      seg = w.segment_path();
      EXPECT_EQ(w.append_frame(1, frames.substr(0, lr.offsets[1] - kWalHeaderSize)), 1u);
      EXPECT_EQ(w.append_frame(2, frames.substr(lr.offsets[1] - kWalHeaderSize)), 2u);
    }
    EXPECT_EQ(slurp(seg).substr(kWalHeaderSize), frames);

    WalWriter w(follower_dir, 16, 3, fsync_every);
    EXPECT_EQ(w.rotate(10), 2u);
    EXPECT_EQ(w.last_appended(), 9u);
    EXPECT_EQ(w.last_synced(), 9u);
    EXPECT_EQ(w.segment_path(), follower_dir + "/" + wal_segment_name(10));
    EXPECT_EQ(w.append_frame(11, frames), 0u) << "seq 10 comes first";
    EXPECT_FALSE(w.alive());
  }
}

TEST_F(WalTest, GroupCommitBatchesFsyncs) {
  WalWriter w(dir, 16, 1, /*fsync_every=*/8);
  for (int i = 0; i < 20; ++i) {
    w.append(1, 0, {}, Asserts{{TupleId(1, static_cast<std::uint64_t>(i)), tup("t", i)}});
  }
  EXPECT_EQ(w.last_appended(), 20u);
  // Batches completed at 8 and 16 and were handed to the background
  // flusher; an inline sync() flushes the parked tail and fences them.
  w.sync();
  EXPECT_EQ(w.last_synced(), 20u);
  // 20 appends cost at most 3 fsyncs (two batch flushes, one inline; the
  // flusher may coalesce them further) — never one per append.
  EXPECT_GE(w.syncs(), 1u);
  EXPECT_LE(w.syncs(), 3u);
}

TEST_F(WalTest, FsyncNeverStillAppendsEverything) {
  std::string seg;
  {
    WalWriter w(dir, 16, 1, /*fsync_every=*/0);
    seg = w.segment_path();
    for (int i = 0; i < 5; ++i) w.append(1, 0, {}, Asserts{{TupleId(1, 100u + i), tup("t", i)}});
    EXPECT_EQ(w.syncs(), 0u);
  }
  EXPECT_EQ(read_wal_segment(seg).commits.size(), 5u);
}

TEST_F(WalTest, RotateStartsFreshSegmentAtBarrierPlusOne) {
  WalWriter w(dir, 16, 1, 1);
  const std::string first = w.segment_path();
  w.append(1, 0, {}, Asserts{{TupleId(1, 1), tup("a")}});
  w.append(1, 0, {}, Asserts{{TupleId(1, 2), tup("b")}});
  const std::uint64_t barrier = w.rotate();
  EXPECT_EQ(barrier, 2u);
  EXPECT_NE(w.segment_path(), first);
  w.append(1, 0, {}, Asserts{{TupleId(1, 3), tup("c")}});

  const WalReadResult old_seg = read_wal_segment(first);
  EXPECT_EQ(old_seg.commits.size(), 2u);
  const WalReadResult new_seg = read_wal_segment(w.segment_path());
  ASSERT_TRUE(new_seg.header_ok);
  EXPECT_EQ(new_seg.start_seq, 3u);
  ASSERT_EQ(new_seg.commits.size(), 1u);
  EXPECT_EQ(new_seg.commits[0].seq, 3u);
}

TEST_F(WalTest, WalAppendKillTearsRecordAndDeadensWriter) {
  FaultInjector faults(1234);
  WalWriter w(dir, 16, 1, 1);
  w.set_fault_injector(&faults);
  EXPECT_EQ(w.append(1, 0, {}, Asserts{{TupleId(1, 1), tup("kept")}}), 1u);

  faults.arm(FaultPoint::WalAppend, FaultAction::Kill, 1000, 1);
  EXPECT_EQ(w.append(1, 0, {}, Asserts{{TupleId(1, 2), tup("torn")}}), 0u)
      << "killed append must not be acknowledged";
  EXPECT_FALSE(w.alive());
  EXPECT_EQ(w.append(1, 0, {}, Asserts{{TupleId(1, 3), tup("after")}}), 0u)
      << "a dead writer stays dead";

  const WalReadResult r = read_wal_segment(w.segment_path());
  ASSERT_TRUE(r.header_ok);
  ASSERT_EQ(r.commits.size(), 1u) << "only the acked prefix survives";
  EXPECT_EQ(r.commits[0].asserts[0].second, tup("kept"));
}

TEST_F(WalTest, RejectsForeignAndDamagedHeaders) {
  const std::string bogus = dir + "/wal-00000000000000000001.wal";
  std::ofstream(bogus, std::ios::binary) << "not a wal file at all........";
  const WalReadResult r = read_wal_segment(bogus);
  EXPECT_FALSE(r.header_ok);
  EXPECT_TRUE(r.corrupt);

  std::ofstream(bogus, std::ios::binary | std::ios::trunc) << "";
  const WalReadResult empty = read_wal_segment(bogus);
  EXPECT_FALSE(empty.header_ok);
  EXPECT_FALSE(empty.corrupt) << "an empty stub is benign, not corrupt";
}

TEST_F(WalTest, DetectsBitrotInsideRecord) {
  std::string seg;
  {
    WalWriter w(dir, 16, 1, 1);
    seg = w.segment_path();
    for (int i = 0; i < 4; ++i) w.append(1, 0, {}, Asserts{{TupleId(1, 10u + i), tup("r", i)}});
  }
  std::string data = slurp(seg);
  data[data.size() - 3] ^= 0x40;  // flip one bit inside the last record
  std::ofstream(seg, std::ios::binary | std::ios::trunc) << data;
  const WalReadResult r = read_wal_segment(seg);
  ASSERT_TRUE(r.header_ok);
  EXPECT_TRUE(r.corrupt);
  EXPECT_EQ(r.commits.size(), 3u) << "clean prefix survives the flip";
}

TEST_F(WalTest, ShortZeroTailIsCleanPaddingNotCorruption) {
  // A crash can leave the file size anywhere inside the preallocated
  // region, including 1-7 zero bytes past the last frame — too short for
  // the [0][0] end-of-log marker. That tail is padding, not a torn write:
  // the reader must report a clean log with every commit intact.
  std::string seg;
  {
    WalWriter w(dir, 16, 1, 1);
    seg = w.segment_path();
    for (int i = 0; i < 3; ++i) w.append(1, 0, {}, Asserts{{TupleId(1, 60u + i), tup("p", i)}});
  }
  const std::string whole = slurp(seg);
  const std::string padded = dir + "/padded.bin";
  for (std::size_t pad = 1; pad <= 7; ++pad) {
    std::ofstream(padded, std::ios::binary | std::ios::trunc)
        << whole << std::string(pad, '\0');
    const WalReadResult r = read_wal_segment(padded);
    ASSERT_TRUE(r.header_ok) << "pad " << pad;
    EXPECT_FALSE(r.corrupt) << "pad " << pad
                            << ": zero padding mislabeled as torn";
    EXPECT_EQ(r.commits.size(), 3u) << "pad " << pad;
    EXPECT_EQ(r.valid_bytes, whole.size()) << "pad " << pad;

    // A NONZERO partial header of the same length IS a torn write.
    std::string torn_tail(pad, '\0');
    torn_tail[0] = '\x2a';
    std::ofstream(padded, std::ios::binary | std::ios::trunc)
        << whole << torn_tail;
    const WalReadResult torn = read_wal_segment(padded);
    EXPECT_TRUE(torn.corrupt) << "pad " << pad;
    EXPECT_EQ(torn.commits.size(), 3u) << "pad " << pad;
  }
}

TEST_F(WalTest, RejectsV1SegmentAsFormatMismatchNotCorruption) {
  // Byte-exact v1 fixture (the pre-format-version header layout this repo
  // shipped before the v2 header): magic "SDLWAL1\n", then a 12-byte
  // payload {u32 shard_count, u64 start_seq}, then crc32 of that payload.
  std::string v1("SDLWAL1\n", 8);
  std::string payload;
  codec::put_u32(payload, 16);
  codec::put_u64(payload, 1);
  v1 += payload;
  codec::put_u32(v1, codec::crc32(payload.data(), payload.size()));

  const std::string path = dir + "/wal-00000000000000000001.wal";
  std::ofstream(path, std::ios::binary) << v1;

  const WalReadResult r = read_wal_segment(path);
  EXPECT_TRUE(r.format_mismatch) << "v1 must be a DISTINCT rejection";
  EXPECT_EQ(r.format_version, 1u);
  EXPECT_FALSE(r.corrupt) << "old format is intact data, not damage";
  EXPECT_FALSE(r.header_ok);
  EXPECT_TRUE(r.commits.empty());
  EXPECT_NE(r.detail.find("format version 1"), std::string::npos) << r.detail;
}

TEST_F(WalTest, RejectsNewerFormatVersionAsMismatch) {
  // A CRC-clean v2-magic header stamping a future format version: the
  // header parses but the payload layout beyond it is unknown.
  std::string seg;
  {
    WalWriter w(dir, 16, 1, 1);
    seg = w.segment_path();
    w.append(1, 0, {}, Asserts{{TupleId(1, 1), tup("x")}});
  }
  std::string data = slurp(seg);
  std::string payload;
  codec::put_u32(payload, 99);  // future version
  codec::put_u32(payload, 16);
  codec::put_u64(payload, 1);
  codec::put_u64(payload, 0);
  std::string patched(data.data(), 8);
  patched += payload;
  codec::put_u32(patched, codec::crc32(payload.data(), payload.size()));
  patched += data.substr(kWalHeaderSize);
  std::ofstream(seg, std::ios::binary | std::ios::trunc) << patched;

  const WalReadResult r = read_wal_segment(seg);
  EXPECT_TRUE(r.format_mismatch);
  EXPECT_EQ(r.format_version, 99u);
  EXPECT_FALSE(r.corrupt);
  EXPECT_FALSE(r.header_ok);
}

TEST_F(WalTest, HeaderStampsOriginNode) {
  std::string seg;
  {
    WalWriter w(dir, 16, 1, 1, /*origin_node=*/7);
    seg = w.segment_path();
    w.append(1, 0, {}, Asserts{{TupleId(1, 1), tup("x")}});
  }
  const WalReadResult r = read_wal_segment(seg);
  ASSERT_TRUE(r.header_ok);
  EXPECT_EQ(r.origin_node, 7u);
  EXPECT_EQ(r.format_version, kWalFormatVersion);
}

// ---- the torn-write property (ISSUE 4 satellite) ----
//
// For EVERY byte offset of a valid multi-record segment, the truncated
// file must parse without crashing, yield commits that are exactly a
// prefix of the original sequence, and report a valid_bytes boundary no
// larger than the truncation point. Record 4 is a bulk seed (one record,
// many asserts): every cut yields all of its tuples or none.
TEST_F(WalTest, TruncationAtEveryByteOffsetYieldsCleanPrefix) {
  std::string seg;
  {
    WalWriter w(dir, 16, 1, 1);
    seg = w.segment_path();
    for (int i = 0; i < 6; ++i) {
      if (i == 3) {
        std::vector<std::pair<TupleId, Tuple>> block;
        for (int k = 0; k < 8; ++k) {
          block.emplace_back(TupleId(0, 100u + k), tup("seed", k));
        }
        w.append(0, 0, {}, Asserts(block));
        continue;
      }
      w.append(static_cast<ProcessId>(i + 1), i % 2 == 0 ? 0u : 5u,
               i > 0 ? std::vector<TupleId>{TupleId(i, 40u + i)}
                     : std::vector<TupleId>{},
               Asserts{{TupleId(i + 1, 41u + i), tup("payload", i, std::string("s"))}});
    }
  }
  const std::string whole = slurp(seg);
  const WalReadResult full = read_wal_segment(seg);
  ASSERT_EQ(full.commits.size(), 6u);
  ASSERT_EQ(full.commits[3].asserts.size(), 8u);
  ASSERT_FALSE(full.corrupt);

  const std::string torn = dir + "/torn.bin";
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    std::ofstream(torn, std::ios::binary | std::ios::trunc)
        << whole.substr(0, cut);
    const WalReadResult r = read_wal_segment(torn);
    ASSERT_LE(r.valid_bytes, cut) << "offset " << cut;
    ASSERT_LE(r.commits.size(), full.commits.size()) << "offset " << cut;
    for (std::size_t i = 0; i < r.commits.size(); ++i) {
      ASSERT_EQ(r.commits[i].seq, full.commits[i].seq) << "offset " << cut;
      ASSERT_EQ(r.commits[i].retracts, full.commits[i].retracts)
          << "offset " << cut;
      ASSERT_EQ(r.commits[i].asserts.size(), full.commits[i].asserts.size())
          << "offset " << cut;
    }
    // Only the exact original is corruption-free (shorter cuts tear either
    // the header or the record stream).
    if (cut == whole.size()) {
      ASSERT_FALSE(r.corrupt);
      ASSERT_EQ(r.commits.size(), 6u);
    } else if (r.header_ok) {
      // A cut exactly at a frame boundary (including right after the
      // header) parses clean but short; any other cut must be flagged.
      if (r.valid_bytes != cut) {
        ASSERT_TRUE(r.corrupt) << "offset " << cut;
      }
    }
  }
}

}  // namespace
}  // namespace sdl::persist
