// Hot-copy recovery: a byte-level copy of the durable directory taken
// WHILE a group-commit writer is appending (rsync-style backup, no
// quiescing) must recover to a checker-clean prefix. The copy legally
// captures a torn frame mid-write — truncate-at-first-corrupt turns that
// into a clean prefix, never a crash or a divergent state.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>

#include "persist/recovery.hpp"
#include "process/runtime.hpp"

namespace sdl::persist {
namespace {

namespace fs = std::filesystem;

TEST(HotCopyTest, MidGroupCommitCopyRecoversCheckerCleanPrefix) {
  const std::string dir = ::testing::TempDir() + "sdl_hot_copy_src";
  const std::string copy_base = ::testing::TempDir() + "sdl_hot_copy_dst_";
  fs::remove_all(dir);

  RuntimeOptions o;
  o.persist.dir = dir;
  o.persist.fsync_every = 4;  // group commit: the tail is often in flight
  Runtime rt(o);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    SymbolTable st;
    Env env;
    Transaction consume = TxnBuilder()
                              .exists({"a"})
                              .match(pat({A("job"), V("a")}), true)
                              .assert_tuple({lit(Value::atom("done")),
                                             evar("a")})
                              .build();
    consume.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      rt.seed(tup("job", i));
      if (i % 2 == 1) {
        ASSERT_TRUE(rt.execute(consume, env).success);
      }
    }
  });

  // Take several live copies while the writer runs flat out. Each one is
  // an independent crash-image; every one must recover cleanly.
  int verified = 0;
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::string copy = copy_base + std::to_string(round);
    fs::remove_all(copy);
    std::error_code ec;
    fs::copy(dir, copy, fs::copy_options::recursive, ec);
    if (ec) continue;  // a file vanished mid-copy; not this test's concern

    const RecoveredState state = replay(copy);
    const CheckReport report = verify_recovery(state);
    EXPECT_TRUE(report.ok()) << "round " << round << ": " << report.to_string();
    // The copy is a prefix: it can never hold MORE than the writer has
    // appended by now, and recovery only keeps acknowledged commits.
    EXPECT_LE(state.last_seq, rt.persist()->stats().last_seq);
    ++verified;
    fs::remove_all(copy);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(verified, 3) << "hot copies kept failing at the filesystem level";

  fs::remove_all(dir);
}

}  // namespace
}  // namespace sdl::persist
