// WAL group-commit backpressure: when the overload layer caps the batch
// at wal_max_batch_bytes, committers block on the flusher instead of
// growing the batch without bound — and every blocked append still lands
// durably and in order (backpressure throttles, it never drops).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "control/overload.hpp"
#include "persist/wal.hpp"
#include "wal_records.hpp"

namespace sdl::persist {
namespace {

namespace fs = std::filesystem;

class WalBackpressureTest : public ::testing::Test {
 protected:
  std::string dir;

  void SetUp() override {
    dir = ::testing::TempDir() + "sdl_walbp_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override { fs::remove_all(dir); }
};

TEST_F(WalBackpressureTest, CapBlocksCommittersAndLosesNothing) {
  control::OverloadOptions opts;
  opts.wal_max_batch_bytes = 256;  // tiny: committers hit the cap constantly
  control::OverloadControl ctl(opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::string seg;
  {
    // Large fsync_every so the flusher only runs when the cap forces a
    // flush request — the worst case for batch growth.
    WalWriter w(dir, /*shard_count=*/8, /*next_seq=*/1,
                /*fsync_every=*/1'000'000);
    w.set_overload(&ctl);
    seg = w.segment_path();
    std::atomic<std::uint64_t> acked{0};
    {
      std::vector<std::jthread> committers;
      for (int t = 0; t < kThreads; ++t) {
        committers.emplace_back([&, t] {
          for (int i = 0; i < kPerThread; ++i) {
            const auto seq = w.append(
                static_cast<ProcessId>(t + 1), 0, {},
                Asserts{{TupleId(static_cast<std::uint32_t>(t + 1),
                          static_cast<std::uint64_t>(i)),
                  tup("payload", t, i, std::string(64, 'x'))}});
            if (seq != 0) acked.fetch_add(1);
          }
        });
      }
    }
    EXPECT_EQ(acked.load(),
              static_cast<std::uint64_t>(kThreads * kPerThread))
        << "backpressure must throttle, never drop";
    EXPECT_EQ(w.last_appended(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    // With records ~4x the cap's worth per flush, committers must have
    // actually waited — otherwise the cap was never enforced.
    EXPECT_GT(ctl.stats().wal_waits.load(), 0u);
    w.sync();
  }
  // Every acked append is recoverable, as a gap-free sequence.
  const WalReadResult r = read_wal_segment(seg);
  ASSERT_TRUE(r.header_ok);
  EXPECT_FALSE(r.corrupt);
  ASSERT_EQ(r.commits.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < r.commits.size(); ++i) {
    EXPECT_EQ(r.commits[i].seq, i + 1);
  }
}

TEST_F(WalBackpressureTest, CapIgnoredInSynchronousMode) {
  // fsync_every <= 1 means every append syncs inline — there is no batch
  // to bound, so the cap must not add waits to the synchronous path.
  control::OverloadOptions opts;
  opts.wal_max_batch_bytes = 1;  // absurdly small: would block everything
  control::OverloadControl ctl(opts);
  WalWriter w(dir, 8, 1, /*fsync_every=*/1);
  w.set_overload(&ctl);
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(w.append(1, 0, {},
                       Asserts{{TupleId(1, static_cast<std::uint64_t>(i)),
                         tup("t", i)}}),
              0u);
  }
  EXPECT_EQ(ctl.stats().wal_waits.load(), 0u);
}

TEST_F(WalBackpressureTest, DeadWalReleasesBlockedCommitters) {
  // A committer blocked on the cap while the WAL dies (injected crash)
  // must unblock with the unacknowledged-append result, not hang.
  control::OverloadOptions opts;
  opts.wal_max_batch_bytes = 128;
  control::OverloadControl ctl(opts);
  FaultInjector faults(7);
  WalWriter w(dir, 8, 1, /*fsync_every=*/1'000'000);
  w.set_overload(&ctl);
  w.set_fault_injector(&faults);
  // Fill past the cap once so the batch is non-trivial.
  for (int i = 0; i < 4; ++i) {
    w.append(1, 0, {},
             Asserts{{TupleId(1, static_cast<std::uint64_t>(i)),
               tup("fill", i, std::string(64, 'y'))}});
  }
  // Kill the WAL: the next sync/flush dies, and appends — blocked or new —
  // return 0 instead of wedging.
  faults.arm(FaultPoint::WalAppend, FaultAction::Kill, 1000, /*max_fires=*/1);
  std::atomic<bool> done{false};
  std::thread t([&] {
    for (int i = 0; i < 64 && w.alive(); ++i) {
      w.append(2, 0, {},
               Asserts{{TupleId(2, static_cast<std::uint64_t>(i)),
                 tup("after", i, std::string(64, 'z'))}});
    }
    done.store(true);
  });
  t.join();
  EXPECT_TRUE(done.load());
  EXPECT_FALSE(w.alive());
  EXPECT_EQ(w.append(3, 0, {}, Asserts{{TupleId(3, 1), tup("dead")}}), 0u);
}

}  // namespace
}  // namespace sdl::persist
