// Consensus transactions (§2.2, "Consensus Transactions").
//
// "A consensus set is defined as a set of processes closed under the
//  transitive closure of the relation
//      p needs q ≡ (Import(p) ∩ Import(q) ∩ D ≠ ∅).
//  A consensus transaction is executed whenever all processes in the
//  consensus set are ready to execute consensus transactions.
//  Determination that consensus has been reached is very similar to the
//  quiescence detection problem. The composite effect on the dataspace is
//  computed by first performing the retractions associated with each of
//  the participating transactions and then the corresponding additions."
//
// Implementation: on every relevant event (a process parks with consensus
// offers, any park, a termination) the manager sweeps the society under
// total exclusion, computes the needs-graph's connected components with
// union-find, and fires every component all of whose members are parked
// at consensus offers with satisfiable queries.
//
// Import sets: for parked processes (stable environments) the overlap is
// exact — tuple-level, per the paper. For runnable processes (whose
// environments cannot be read safely) a frozen bucket-level summary
// over-approximates the import set; an over-approximation can only delay
// a fire, never produce a wrong one.
#pragma once

#include <atomic>
#include <cstdint>

#include "process/scheduler.hpp"

namespace sdl {

class ConsensusManager {
 public:
  ConsensusManager(Engine& engine, Scheduler& scheduler)
      : engine_(engine), scheduler_(scheduler) {}

  ConsensusManager(const ConsensusManager&) = delete;
  ConsensusManager& operator=(const ConsensusManager&) = delete;

  /// Something consensus-relevant happened; sweep until no component
  /// fires. Reentrant and thread-safe: concurrent callers collapse into
  /// one sweeping thread.
  void notify();

  /// Arms the ConsensusClaim / ConsensusCommit injection points (null
  /// disables). FailCommit at either point skips the fire the way a
  /// failed evaluation does — every member stays Parked with its offers
  /// intact and the sweep retries, so an injected abort can delay a
  /// consensus but never wedge or corrupt it. (Arming FailCommit at
  /// permille 1000 with unlimited fires is a livelock by construction —
  /// chaos tests bound the fire budget instead.)
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  /// Arms the fire latency instrument (null disables; also
  /// re-gated on the SDL_OBS runtime flag, once per fired component).
  void set_metrics(obs::RuntimeMetrics* m) { metrics_ = m; }

  /// Consensus sets fired so far.
  [[nodiscard]] std::uint64_t fires() const {
    return fires_.load(std::memory_order_relaxed);
  }
  /// Sweeps performed (E8 instrumentation: detection work vs fires).
  [[nodiscard]] std::uint64_t sweeps() const {
    return sweeps_.load(std::memory_order_relaxed);
  }
  /// Fire attempts aborted by an injected claim/commit fault (E16).
  [[nodiscard]] std::uint64_t injected_aborts() const {
    return injected_aborts_.load(std::memory_order_relaxed);
  }

 private:
  /// One full sweep; returns true if at least one component fired (or an
  /// injected fault aborted a fireable one — the caller must re-sweep).
  bool sweep_once();

  Engine& engine_;
  Scheduler& scheduler_;
  FaultInjector* faults_ = nullptr;
  obs::RuntimeMetrics* metrics_ = nullptr;
  std::atomic<bool> dirty_{false};
  std::atomic<bool> sweeping_{false};
  std::atomic<std::uint64_t> fires_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> injected_aborts_{0};
};

}  // namespace sdl
