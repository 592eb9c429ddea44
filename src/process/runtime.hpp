// The SDL runtime: one object wiring together the dataspace, an engine,
// the wait set, the scheduler, the consensus manager and tracing — the
// "language implementation" the paper's §3.1 alludes to when it says the
// replication style "requires a sophisticated language implementation".
//
// Typical host-program use:
//
//   Runtime rt;
//   rt.define(sum3_def());               // process definitions (§2.4)
//   rt.seed(tup(1, 10));                 // initial dataspace
//   rt.seed(tup(2, 32));
//   rt.spawn("Sum3", {});                // initial process society
//   RunReport report = rt.run();         // drive to quiescence
//   rt.space().snapshot();               // inspect results
#pragma once

#include <memory>

#include "check/check.hpp"
#include "consensus/consensus.hpp"
#include "obs/metrics.hpp"
#include "persist/persist.hpp"
#include "process/scheduler.hpp"
#include "repl/repl.hpp"

namespace sdl {

enum class EngineKind { GlobalLock, Sharded };

struct RuntimeOptions {
  std::size_t shards = 64;
  EngineKind engine = EngineKind::Sharded;
  WaitSet::WakePolicy wake_policy = WaitSet::WakePolicy::Targeted;
  SchedulerOptions scheduler;
  bool tracing = false;
  std::size_t trace_capacity = 65536;
  /// Durability (WAL + snapshots + crash recovery). Off unless
  /// persist.dir is set; when on, the constructor recovers any committed
  /// state already in the directory into the dataspace before the first
  /// process runs, and every subsequent commit is logged. Process
  /// continuations are NOT durable — only the dataspace is shared state
  /// (§2.1); hosts re-spawn the society after recovery.
  persist::PersistOptions persist;
  /// Overload protection (admission control, retry budgets, circuit
  /// breaker, backpressure caps). Off by default — the control layer is
  /// only instantiated when any limit is set (overload.enabled()), so a
  /// default-constructed Runtime pays nothing, and deterministic-sim runs
  /// stay bit-identical unless a test arms it deliberately.
  control::OverloadOptions overload;
  /// Leader/follower replication (src/repl). Off unless repl.role is set.
  /// A Leader requires persist.dir (the WAL is the replication stream) and
  /// streams durable records to attached followers; a Follower applies the
  /// leader's stream, refuses local writes until promoted, and serves
  /// eventually-consistent local reads with an applied-seq watermark.
  repl::ReplOptions repl;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Host functions callable from guards and fields (register before
  /// defining processes that use them).
  [[nodiscard]] FunctionRegistry& functions() { return functions_; }

  /// Registers a process definition; finalizes it if needed.
  const ProcessDef& define(ProcessDef def) { return scheduler_->define(std::move(def)); }

  /// Asserts `tuples` as the environment (process id 0) in ONE commit: one
  /// exclusive section inserts them all, one WAL record logs them (so
  /// recovery restores the whole batch or none of it), one publish wakes
  /// any waiters. Seeding may also happen between run() calls. Returns the
  /// new ids in input order. Throws on an unpromoted follower.
  std::vector<TupleId> seed(std::vector<Tuple> tuples);
  /// A one-tuple batch.
  TupleId seed(Tuple t);

  /// Creates a process; it runs at the next run().
  ProcessId spawn(const std::string& def_name, std::vector<Value> args = {}) {
    return scheduler_->spawn(def_name, std::move(args));
  }
  /// Same, for a definition this runtime's define() returned.
  ProcessId spawn(const ProcessDef& def, std::vector<Value> args = {}) {
    return scheduler_->spawn(def, std::move(args));
  }
  /// The registered definition named `name`, or null.
  [[nodiscard]] const ProcessDef* find_def(const std::string& name) const {
    return scheduler_->find_def(name);
  }

  /// Drives the society to quiescence. When the SDL_OBS flag is on, the
  /// report's `metrics` field carries the registry's human summary.
  RunReport run();

  /// Creates (or returns the existing) deterministic fault injector and
  /// threads it through every injection point — engine commit, WaitSet
  /// publish/wake delivery, scheduler dispatch, consensus claim/commit.
  /// Arm points on the returned injector; call disable_faults() to detach
  /// (the runtime then pays only a null-pointer branch per crossing).
  FaultInjector& enable_faults(std::uint64_t seed);
  void disable_faults();
  /// Null when faults are disabled.
  [[nodiscard]] FaultInjector* faults() { return faults_.get(); }

  /// Starts commit-history recording for the serializability checker: the
  /// recorder snapshots the current dataspace as the initial state and
  /// every subsequent commit (engine and consensus) is logged with its
  /// read/retract/assert instance sets. Call while quiescent.
  HistoryRecorder& enable_history();
  void disable_history();
  /// Null when history recording is disabled.
  [[nodiscard]] HistoryRecorder* history() { return history_.get(); }
  /// Replays the recorded history against the reference model and the
  /// current dataspace. Call while quiescent (after run()).
  [[nodiscard]] CheckReport check_history() const;

  /// Executes one transaction on behalf of the environment (blocking for
  /// delayed transactions) — the host-program escape hatch.
  ///
  /// Admission-controlled when the overload layer is armed with an
  /// in-flight limit: past the limit the call returns immediately with
  /// `TxnResult::shed` set and `retry_after_us` carrying a load-scaled
  /// backoff hint — the RetryAfter outcome. Nothing is evaluated or
  /// applied for a shed transaction; the caller resubmits after backing
  /// off (or drops the request, its deadline permitting).
  TxnResult execute(const Transaction& txn, Env& env,
                    ProcessId owner = kEnvironmentProcess);

  /// Null when overload protection is off (no limit set in
  /// options.overload). Shed/throttle/breaker counters live here and are
  /// mirrored into metrics() as sdl_admission_*/sdl_retry_*/sdl_breaker_*
  /// gauges.
  [[nodiscard]] control::OverloadControl* overload() {
    return overload_.get();
  }

  /// One-struct summary of runtime counters — what an operator dashboard
  /// (or the paper's envisioned environment) would display after a run.
  struct Stats {
    std::size_t tuples_resident = 0;
    std::uint64_t tuples_asserted = 0;
    std::uint64_t tuples_retracted = 0;
    std::uint64_t txn_attempts = 0;
    std::uint64_t txn_commits = 0;
    std::uint64_t txn_failures = 0;
    std::uint64_t wakes_delivered = 0;
    std::uint64_t processes_spawned = 0;
    std::uint64_t processes_completed = 0;
    std::uint64_t consensus_sweeps = 0;
    std::uint64_t consensus_fires = 0;

    /// Multi-line human-readable rendering.
    [[nodiscard]] std::string to_string() const;
  };
  [[nodiscard]] Stats stats() const;

  /// The observability registry (tentpole of this PR): always wired, but
  /// instruments only record while the SDL_OBS runtime flag is on
  /// (obs::enabled() / obs::set_enabled()). Pre-existing stat pockets
  /// (engine, waits, scheduler, consensus, persist, space) are exposed as
  /// gauges, so metrics().to_prometheus() / to_json() / summary() render
  /// one unified export.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_registry_; }

  /// Null when durability is off (options.persist.dir empty). Use for
  /// explicit snapshots (persist()->snapshot_now via snapshot()), stats,
  /// and what recovery reconstructed at startup.
  [[nodiscard]] persist::PersistManager* persist() { return persist_mgr_.get(); }
  /// Explicit snapshot barrier (no-op returning false when durability is
  /// off). True when the snapshot became durable.
  bool snapshot();

  /// Null unless options.repl.role selected that side. The leader accepts
  /// followers (repl_leader()->add_follower for loopback, listen_port for
  /// TCP); the follower exposes the applied watermark and attach().
  [[nodiscard]] repl::ReplLeader* repl_leader() { return repl_leader_.get(); }
  [[nodiscard]] repl::ReplFollower* repl_follower() {
    return repl_follower_.get();
  }

  /// Result of promote_to_leader(). `fence` is the last contiguously
  /// applied leader sequence (0 when this node is not a follower);
  /// `wal_rotated` reports whether the epoch-boundary snapshot barrier
  /// actually moved the WAL onto a fresh segment. A false rotation does
  /// NOT void the promotion — the node is writable and its old WAL keeps
  /// it recoverable — but callers that rely on the new epoch living on
  /// its own segment (e.g. before truncating old segments) must check it.
  struct Promotion {
    std::uint64_t fence = 0;
    bool wal_rotated = false;
  };

  /// Failover: promotes this FOLLOWER to a writable leader. Fences at the
  /// last contiguously applied record, rotates the local WAL onto a fresh
  /// segment via an immediate snapshot barrier (the new leader epoch
  /// starts on its own segment), and lifts the write gate.
  Promotion promote_to_leader();

  [[nodiscard]] Dataspace& space() { return space_; }
  [[nodiscard]] Engine& engine() { return *engine_; }
  [[nodiscard]] WaitSet& waits() { return waits_; }
  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] ConsensusManager& consensus() { return *consensus_; }
  [[nodiscard]] TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }

 private:
  /// Registers the legacy stat-pocket gauges with metrics_registry_.
  void register_gauges();
  /// Registers the sdl_repl_* gauges (called once repl components exist).
  void register_repl_gauges();

  RuntimeOptions options_;
  FunctionRegistry functions_;
  // Declared before the components that hold RuntimeMetrics pointers, so
  // the instruments outlive every hot path that might still flush into
  // them during teardown.
  obs::MetricsRegistry metrics_registry_;
  obs::RuntimeMetrics metrics_{metrics_registry_};
  // Declared before waits_/engine_/scheduler_/persist_mgr_, which hold raw
  // pointers into it: the control block must outlive every component that
  // might consult it during teardown.
  std::unique_ptr<control::OverloadControl> overload_;
  Dataspace space_;
  WaitSet waits_;
  TraceRecorder trace_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<ConsensusManager> consensus_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<HistoryRecorder> history_;
  std::unique_ptr<persist::PersistManager> persist_mgr_;
  // Declared after persist_mgr_: the leader registers a durable listener
  // with the WAL and must detach it (its destructor does) before the
  // PersistManager dies — reverse destruction order guarantees that.
  std::unique_ptr<repl::ReplLeader> repl_leader_;
  std::unique_ptr<repl::ReplFollower> repl_follower_;
};

}  // namespace sdl
