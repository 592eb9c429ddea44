// Deterministic fault injection (robustness layer).
//
// The runtime's qualitative guarantees — delayed transactions never lose
// wakeups, consensus sets commit as one atomic transformation, replication
// terminates under total exclusion — are exactly the properties that break
// silently under adverse schedules. The FaultInjector makes those schedules
// reproducible: named injection points are threaded through the engine
// commit path, WaitSet publish/wake delivery, scheduler dispatch, and the
// consensus claim/commit sequence, and each crossing asks the injector for
// a decision that is a pure function of (seed, point, crossing ordinal).
// Thread interleaving stays nondeterministic, but the decision *stream* per
// point does not — rerunning with the same seed re-fires the same subset of
// crossings.
//
// Disabled cost: every call site guards with `if (faults_ != nullptr)`, so
// a runtime that never arms the injector pays one predicted-not-taken
// branch on a null pointer per crossing (measured in E16).
//
// Actions a point can inject (call sites honor the subset that is
// meaningful there and ignore the rest — see docs/IMPLEMENTATION.md for
// the point/action catalog):
//   * Delay        — a forced yield plus a short deterministic-length sleep,
//                    widening the race window the point sits in;
//   * SpuriousWake — an extra wakeup nobody asked for (parked processes
//                    must tolerate it by re-checking and re-parking);
//   * FailCommit   — a transient commit failure: the transaction's query
//                    succeeded but its effects are NOT applied and the
//                    caller sees failure with `injected_fault` set; the
//                    scheduler retries with bounded, jittered backoff;
//   * Kill         — crash the process at the point (scheduler dispatch
//                    only): exercises the crash-safe teardown path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace sdl {

/// Where a fault can be injected. Values index the injector's per-point
/// state; keep kFaultPointCount in sync.
enum class FaultPoint : std::uint8_t {
  EngineCommit = 0,   // engine execute(): query succeeded, effects not yet applied
  WaitSetPublish,     // publish_batch(): before the subscriber maps are probed
  WakeDeliver,        // publish_batch(): callbacks collected, not yet invoked
  SchedulerDispatch,  // worker popped a pid and owns the process
  ConsensusClaim,     // consensus component fireable, offers not yet evaluated
  ConsensusCommit,    // offers evaluated, composite effects not yet applied
  WalAppend,          // WAL writer framed the record, bytes not yet durable
  SnapshotWrite,      // snapshot payload serialized, file not yet renamed
  AdmissionShed,      // overload gate consulted; any armed action forces a shed
  RetryBudgetExhausted,  // retry budget consulted; any armed action denies it
  ReplSend,           // leader tailer: batch framed, not yet handed to the
                      // transport (Delay stalls the stream, Kill drops the
                      // session mid-stream — the follower must reconnect)
  ReplApply,          // follower applier: batch decoded, not yet applied
                      // (FailCommit rejects it for redelivery, Kill tears
                      // the session down mid-apply)
};
inline constexpr std::size_t kFaultPointCount = 12;

enum class FaultAction : std::uint8_t {
  None = 0,
  Delay,
  SpuriousWake,
  FailCommit,
  Kill,
};

[[nodiscard]] const char* fault_point_name(FaultPoint p);
[[nodiscard]] const char* fault_action_name(FaultAction a);

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : seed_(seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `point`: each crossing fires `action` with probability
  /// permille/1000, at most `max_fires` times in total (0 = unlimited).
  /// Re-arming a point replaces its configuration and resets its counters.
  void arm(FaultPoint point, FaultAction action, std::uint32_t permille,
           std::uint64_t max_fires = 0);

  /// Disarms one point (subsequent decisions return None).
  void disarm(FaultPoint point);

  /// One crossing of `point`. Returns the action to inject, or None.
  /// Deterministic in (seed, point, per-point crossing ordinal); lock-free.
  [[nodiscard]] FaultAction decide(FaultPoint point);

  /// Performs the Delay action: an OS yield plus a deterministic-length
  /// sleep in [0, 100) microseconds drawn from the decision stream.
  void delay();

  /// Deterministic jitter in [0, max_us] for retry backoff.
  [[nodiscard]] std::uint64_t jitter_us(std::uint64_t max_us);

  /// Crossings seen / faults fired at `point` since it was last armed.
  [[nodiscard]] std::uint64_t crossings(FaultPoint point) const;
  [[nodiscard]] std::uint64_t fired(FaultPoint point) const;
  /// Faults fired across every point.
  [[nodiscard]] std::uint64_t total_fired() const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  struct Point {
    std::atomic<std::uint8_t> action{0};       // FaultAction
    std::atomic<std::uint32_t> permille{0};
    std::atomic<std::int64_t> remaining{-1};   // fires left; -1 = unlimited
    std::atomic<std::uint64_t> ordinal{0};     // crossings since arm()
    std::atomic<std::uint64_t> fired{0};
  };

  const std::uint64_t seed_;
  std::array<Point, kFaultPointCount> points_;
  std::atomic<std::uint64_t> jitter_ordinal_{0};
};

}  // namespace sdl
