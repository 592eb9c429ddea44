// Heap-allocation budget of the optimistic point read, end to end through
// Runtime::execute. Its own executable: alloc_budget.hpp replaces the
// global operator new with one that counts the calling thread's
// allocations.
#include <algorithm>
#include <vector>

#include "alloc_budget.hpp"

namespace sdl {
namespace {

using ReadAllocTest = DurableAccountsTest;

// Plan lookup, VM scratch, scan callback, shard samples, the winning
// binding, the match and its read set: none of them allocates.
TEST_F(ReadAllocTest, WarmPointReadDoesNotAllocate) {
  for (std::int64_t k = 0; k < kAccounts; ++k) (void)read_allocs(k);  // warm
  std::uint64_t worst = 0;
  for (int i = 0; i < 2000; ++i) {
    worst = std::max(worst, read_allocs((i * 37) % kAccounts));
  }
  EXPECT_EQ(worst, 0u);
}

// The read-modify-write pays for what it commits (the asserted tuple, its
// WAL copy, the retract and read sets) on top of the same evaluation.
TEST_F(ReadAllocTest, WarmWriteStaysWithinItsBudget) {
  for (std::int64_t k = 0; k < kAccounts; ++k) (void)write_allocs(k, 1);
  std::vector<std::uint64_t> counts;
  for (int i = 0; i < 400; ++i) {
    counts.push_back(write_allocs((i * 37) % kAccounts, i % 2 == 0 ? -1 : 1));
  }
  std::sort(counts.begin(), counts.end());
  EXPECT_LE(counts[counts.size() / 2], 21u) << "median";
  EXPECT_LE(counts.back(), 21u) << "worst";
}

}  // namespace
}  // namespace sdl
