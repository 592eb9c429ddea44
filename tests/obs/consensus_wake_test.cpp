// Consensus resumes are wakes too: a member the consensus manager resumes
// is stamped like a scheduler wake, so sdl_wake_to_dispatch_ns sees the
// time it waits for a worker.
#include <gtest/gtest.h>

#include "lang/compile.hpp"
#include "obs/metrics.hpp"
#include "process/runtime.hpp"

namespace sdl {
namespace {

struct ObsFlagGuard {
  bool saved = obs::enabled();
  ~ObsFlagGuard() { obs::set_enabled(saved); }
};

TEST(ConsensusWakeTest, ResumedMembersRecordWakeToDispatch) {
  ObsFlagGuard guard;
  obs::set_enabled(true);
  Runtime rt;
  // Members park only on their consensus offer: no data wake can reach
  // them, so every wake-to-dispatch sample comes from a consensus resume.
  lang::load_source(rt, R"(
    process Member(k)
    behavior
      when true ^ [done, k]
    end
    spawn Member(1)
    spawn Member(2)
    spawn Member(3)
  )");
  const RunReport report = rt.run();
  ASSERT_TRUE(report.clean());
  ASSERT_GE(rt.stats().consensus_fires, 1u);
  EXPECT_EQ(rt.space().size(), 3u);
  const obs::LatencyHistogram::Snapshot h =
      rt.metrics().histogram("sdl_wake_to_dispatch_ns").snapshot();
  EXPECT_EQ(h.count, 3u) << "one sample per resumed member";
}

}  // namespace
}  // namespace sdl
