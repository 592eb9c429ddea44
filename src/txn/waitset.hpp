// Wakeup machinery for delayed transactions (§2.2).
//
// "Delayed transactions ... block the process until a successful
//  evaluation is possible." A parked transaction subscribes to the index
//  keys its query may read; every commit publishes the keys it touched and
//  wakes exactly the subscribers that could now be enabled. A WakeAll mode
//  (every commit wakes every waiter) exists for the E9 ablation.
//
// Discipline to avoid lost wakeups: subscribe FIRST, then evaluate; a
// publish that races the evaluation still invokes the wake callback, so
// the waiter re-checks. Callbacks run after the internal lock is released
// (CP.22) and must be cheap (set a flag / enqueue a process).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "control/overload.hpp"
#include "fault/fault.hpp"
#include "space/dataspace.hpp"

namespace sdl {

class WaitSet {
 public:
  enum class WakePolicy { Targeted, WakeAll };

  using Ticket = std::uint64_t;
  static constexpr Ticket kInvalidTicket = 0;

  /// What a waiter listens for. A commit touching key K wakes waiters
  /// subscribed to K exactly, to K.arity, or to everything.
  struct Interest {
    std::vector<IndexKey> keys;
    std::vector<std::uint32_t> arities;
    bool everything = false;
  };

  explicit WaitSet(WakePolicy policy = WakePolicy::Targeted) : policy_(policy) {}

  /// Registers `wake` to be invoked (possibly concurrently, possibly
  /// spuriously) whenever a matching commit is published.
  ///
  /// Backpressure: when the overload layer is armed with a per-bucket
  /// park cap, `*saturated` (if non-null) is set true when any exact key
  /// in `interest` already holds at least the cap's worth of subscribers.
  /// The subscription is still registered — wakeup correctness is not
  /// negotiable — but the caller is expected to bound its park (the
  /// scheduler forces a short deadline so the watchdog sheds it).
  Ticket subscribe(Interest interest, std::function<void()> wake,
                   bool* saturated = nullptr);

  void unsubscribe(Ticket ticket);

  /// Announces a committed change touching `touched`; bumps the version
  /// and invokes matching wake callbacks (outside the internal lock).
  /// Convenience forwarder to publish_batch.
  void publish(const std::vector<IndexKey>& touched);

  /// Batched publication: one version bump and one subscriber-map lock
  /// acquisition for an entire commit's touched-key list, however many
  /// keys it holds. Keys are deduplicated before probing the subscriber
  /// maps and wake targets are deduplicated across keys, so a waiter
  /// subscribed to several touched keys (or a composite consensus commit
  /// retracting N tuples from one bucket) wakes each subscriber once, not
  /// once per key. Engines and the consensus manager publish through this.
  void publish_batch(std::vector<IndexKey> touched);

  /// Monotonic commit counter.
  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// The wake policy is an ablation switch (E9) that may be flipped while
  /// publishes run concurrently — hence atomic, relaxed: any publish
  /// observes either policy, both of which are correct.
  [[nodiscard]] WakePolicy policy() const {
    return policy_.load(std::memory_order_relaxed);
  }
  void set_policy(WakePolicy p) { policy_.store(p, std::memory_order_relaxed); }

  /// Number of live subscriptions (diagnostics).
  [[nodiscard]] std::size_t subscriber_count() const;

  /// Total wake callbacks invoked (E9 instrumentation).
  [[nodiscard]] std::uint64_t wakes_delivered() const {
    return wakes_.load(std::memory_order_relaxed);
  }

  /// Arms the WaitSetPublish / WakeDeliver injection points (null
  /// disables). SpuriousWake at WaitSetPublish escalates one publish to
  /// wake-all — every subscriber gets a (correct but mostly spurious)
  /// wakeup; Delay widens the commit→publish and collect→invoke windows.
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  /// Arms the overload layer's per-bucket park-set cap (null disables).
  /// Set while no subscribers churn (Runtime wiring time).
  void set_overload(control::OverloadControl* c) { overload_ = c; }

 private:
  struct Entry {
    Interest interest;
    std::function<void()> wake;
  };

  std::atomic<WakePolicy> policy_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> wakes_{0};
  FaultInjector* faults_ = nullptr;
  control::OverloadControl* overload_ = nullptr;
  /// Lock-free publish fast path: commits with nobody subscribed skip the
  /// mutex entirely (otherwise every commit in the system serializes on
  /// it — measured as the scaling ceiling in experiment E6).
  std::atomic<std::size_t> live_subscribers_{0};

  mutable std::mutex mutex_;  // guards the three maps below
  std::unordered_map<Ticket, Entry> entries_;
  std::unordered_map<IndexKey, std::vector<Ticket>, IndexKeyHash> by_key_;
  std::unordered_map<std::uint32_t, std::vector<Ticket>> by_arity_;
  std::vector<Ticket> all_;
  Ticket next_ticket_ = 1;
};

/// A self-contained blocking waiter built on WaitSet — used by the raw
/// (schedulerless) API and by Linda's `in`/`rd`. Condition-variable wait
/// with a predicate per CP.42.
///
/// Lifetime: publish() invokes wake callbacks AFTER releasing the WaitSet
/// lock (CP.22), so a wake may still be in flight when the subscriber has
/// already unsubscribed and returned. The waiter state is therefore
/// heap-allocated and shared into the callback: a stale wake signals an
/// orphaned state block instead of scribbling on a dead stack frame.
class BlockingWaiter {
 public:
  BlockingWaiter() : state_(std::make_shared<State>()) {}

  /// The wake callback to pass to WaitSet::subscribe. Safe to invoke at
  /// any time, even after this BlockingWaiter is destroyed.
  [[nodiscard]] std::function<void()> wake_fn() const {
    return [state = state_] {
      {
        std::scoped_lock lock(state->m);
        state->signaled = true;
      }
      state->cv.notify_one();
    };
  }

  /// Blocks until a wake arrives (consumes it).
  void wait() {
    std::unique_lock lock(state_->m);
    state_->cv.wait(lock, [this] { return state_->signaled; });
    state_->signaled = false;
  }

 private:
  struct State {
    std::mutex m;  // guards signaled
    std::condition_variable cv;
    bool signaled = false;
  };
  std::shared_ptr<State> state_;
};

}  // namespace sdl
