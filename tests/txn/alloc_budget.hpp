// Shared by the allocation-budget executables (test_read_alloc,
// test_load_alloc): a replaced global operator new that counts, per
// thread, the allocations the calling thread makes, and the
// durable_accounts fixture both measure. Include it from exactly one
// source file per executable — it defines the replacement operators.
//
// The counter is per thread: the WAL flusher, the replication sessions
// and the follower's applier allocate on their own threads and are not
// counted. The fixture mirrors the durable_accounts workload: [acct, k,
// bal] tuples on a WAL leader (fsync_every=8) with one loopback follower,
// and the same SDL-text point read and read-modify-write.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <set>
#include <sstream>
#include <string>

#include "lang/compile.hpp"
#include "lang/parser.hpp"
#include "process/runtime.hpp"
#include "repl/repl.hpp"
#include "repl/transport.hpp"

namespace alloc_count {

inline thread_local std::uint64_t t_allocs = 0;

inline void* counted_alloc(std::size_t n, std::size_t align) {
  ++t_allocs;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace alloc_count

// The array and nothrow forms of the standard library forward to these.
void* operator new(std::size_t n) { return alloc_count::counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return alloc_count::counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sdl {

constexpr std::int64_t kAccounts = 256;

class DurableAccountsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests of test_read_alloc
    // and test_load_alloc that share this fixture concurrently.
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "sdl_alloc_budget_" +
           test->test_suite_name() + "_" + test->name();
    std::filesystem::remove_all(dir_);
    std::ostringstream src;
    src << "init {\n";
    for (std::int64_t k = 0; k < kAccounts; ++k) {
      src << "  [acct, " << k << ", " << 100 + k << "];\n";
    }
    src << "}\n";

    RuntimeOptions lo;
    lo.persist.dir = dir_;
    lo.persist.fsync_every = 8;
    lo.repl.role = repl::Role::Leader;
    lo.repl.node_id = 1;
    lo.repl.poll_interval_ms = 1;
    leader_ = std::make_unique<Runtime>(lo);
    lang::load_program(*leader_, lang::parse_program(src.str()));
    RuntimeOptions fo;
    fo.repl.role = repl::Role::Follower;
    fo.repl.node_id = 2;
    fo.repl.poll_interval_ms = 1;
    follower_ = std::make_unique<Runtime>(fo);
    auto [to_follower, to_leader] = repl::make_loopback_pair();
    leader_->repl_leader()->add_follower(std::move(to_follower));
    follower_->repl_follower()->attach(std::move(to_leader));

    std::set<std::string> scope{"k", "d"};
    read_ = lang::parse_transaction("exists b : [acct, k, b] -> let r = b",
                                    scope);
    write_ = lang::parse_transaction(
        "exists b : [acct, k, b]! -> [acct, k, b + d]", scope);
    k_slot_ = static_cast<std::size_t>(symbols_.intern("k"));
    d_slot_ = static_cast<std::size_t>(symbols_.intern("d"));
    read_.resolve(symbols_);
    write_.resolve(symbols_);
    r_slot_ = static_cast<std::size_t>(*symbols_.lookup("r"));
    env_.resize(static_cast<std::size_t>(symbols_.size()));
  }

  void TearDown() override {
    follower_.reset();
    leader_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Allocations the calling thread makes during one read of key `k`.
  std::uint64_t read_allocs(std::int64_t k) {
    env_[k_slot_] = Value(k);
    env_[r_slot_] = Value();
    const std::uint64_t before = alloc_count::t_allocs;
    const bool ok = leader_->execute(read_, env_).success;
    const std::uint64_t n = alloc_count::t_allocs - before;
    EXPECT_TRUE(ok) << "k=" << k;
    EXPECT_EQ(env_[r_slot_], Value(100 + k)) << "k=" << k;
    return n;
  }

  /// Allocations the calling thread makes during one +1/-1 write of `k`.
  std::uint64_t write_allocs(std::int64_t k, std::int64_t d) {
    env_[k_slot_] = Value(k);
    env_[d_slot_] = Value(d);
    const std::uint64_t before = alloc_count::t_allocs;
    const bool ok = leader_->execute(write_, env_).success;
    const std::uint64_t n = alloc_count::t_allocs - before;
    EXPECT_TRUE(ok) << "k=" << k;
    return n;
  }

  std::string dir_;
  std::unique_ptr<Runtime> leader_;
  std::unique_ptr<Runtime> follower_;
  SymbolTable symbols_;
  Transaction read_;
  Transaction write_;
  Env env_;
  std::size_t k_slot_ = 0;
  std::size_t d_slot_ = 0;
  std::size_t r_slot_ = 0;
};

}  // namespace sdl
