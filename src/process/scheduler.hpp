// The process-society scheduler: multiplexes logical SDL processes onto a
// fixed pool of worker threads and interprets their statement trees.
//
// Core mechanics:
//  * Each process is driven until it blocks, terminates, or exhausts its
//    step quantum (fairness).
//  * Delayed transactions subscribe to their read set before evaluating
//    (no lost wakeups), then park; commits wake exactly the interested
//    parked processes (WaitSet policy permitting).
//  * Consensus transactions park with registered offers; the
//    ConsensusManager finds, evaluates and commits entire consensus sets
//    (src/consensus).
//  * Replication spawns `replication_width` replicant tasks that sweep the
//    guards concurrently; the last replicant to fail every guard verifies
//    termination under total exclusion.
//
// Lock hierarchy (outer to inner): engine locks > society_mutex_ >
// Process::state_mutex > queue_mutex_. Wake callbacks from WaitSet run
// after the engine releases its locks.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "process/process.hpp"
#include "sim/decision.hpp"
#include "trace/trace.hpp"

namespace sdl {

class ConsensusManager;

struct SchedulerOptions {
  /// Worker threads. 0 = hardware_concurrency (min 2).
  std::size_t workers = 0;
  /// Transactions a process may run before yielding the worker.
  std::size_t quantum = 32;
  /// Replicant tasks per replication construct. 0 = worker count.
  std::size_t replication_width = 0;
  /// Default park deadline for delayed ('=>') transactions and blocking
  /// selections, in ms; 0 = never time out. A per-statement
  /// Transaction::timeout_ms overrides this.
  std::int64_t delayed_txn_timeout_ms = 0;
  /// Default park deadline for consensus offers, in ms; 0 = never.
  std::int64_t consensus_timeout_ms = 0;
  /// Watchdog scan granularity — deadlines expire within one tick.
  std::int64_t watchdog_tick_ms = 5;
  /// Retries of a fault-injected transient commit failure before the
  /// worker gives the process back to the queue (see FaultInjector).
  std::size_t commit_retry_limit = 8;
  /// Base backoff between those retries, in µs, doubled per attempt and
  /// jittered by the injector so contending retriers desynchronize.
  std::int64_t commit_backoff_us = 20;
  /// >= 0 switches run() to deterministic simulation mode: no worker
  /// threads, no watchdog — a single coordinator picks the next ready
  /// process from a SplitMix64 walk seeded here (or from an explicit
  /// DecisionSource) at every dispatch point, and park deadlines expire on
  /// a virtual clock that jumps to the earliest armed deadline whenever
  /// the ready queue drains. Same seed ⇒ bit-identical schedule and trace
  /// event sequence. Forces workers=1 and quantum=1 (every interpreter
  /// step is a separate decision point) and defaults replication_width to
  /// 4 instead of the machine's core count, so schedules replay across
  /// machines. -1 (default) = normal threaded execution.
  std::int64_t deterministic_seed = -1;
};

/// What run() reports when the society goes quiescent.
///
/// Parked processes are classified by what they wait for: a consensus
/// offer awaiting peers is a liveness *hand-off* (more spawns or a later
/// run may complete the consensus set), while a delayed transaction or
/// blocked selection waits on data no one is going to produce — the
/// classic deadlock shape. `parked` carries a wait-for explanation per
/// process: the blocking query, the index keys subscribed, and which live
/// processes could still export a matching tuple.
struct RunReport {
  std::size_t completed = 0;       // processes terminated during this run
  std::size_t still_parked = 0;    // processes left blocked
  std::vector<std::string> parked; // wait-for explanation per parked process
  std::vector<std::string> errors; // processes torn down by exceptions
  std::vector<std::string> timed_out; // park deadlines expired (diagnosed)
  std::vector<std::string> killed;    // kill()/fault-injected teardowns
  std::size_t parked_on_data = 0;        // delayed txn / selection guards
  std::size_t parked_on_consensus = 0;   // consensus offers awaiting peers
  std::size_t parked_on_replication = 0; // replication parent or sweeper
  /// Human-readable metrics digest (Runtime fills it when SDL_OBS is on;
  /// empty otherwise).
  std::string metrics;
  [[nodiscard]] bool deadlocked() const { return still_parked > 0; }
  /// Every parked process is a consensus offer awaiting peers — the run
  /// is incomplete but not data-deadlocked; spawning the missing peers
  /// (or a later run) can still fire the sets.
  [[nodiscard]] bool awaiting_consensus() const {
    return parked_on_consensus > 0 && parked_on_data == 0 &&
           parked_on_replication == 0;
  }
  [[nodiscard]] bool clean() const {
    return still_parked == 0 && errors.empty() && timed_out.empty() &&
           killed.empty();
  }
};

class Scheduler {
 public:
  Scheduler(Engine& engine, SchedulerOptions opts);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void set_consensus_manager(ConsensusManager* mgr) { consensus_ = mgr; }
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  /// Arms the SchedulerDispatch injection point and the jittered backoff
  /// source for transient-commit retries (null disables).
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  /// Arms the overload-protection layer (null disables). The scheduler
  /// draws transient-commit retries from the shared retry budget (a dry
  /// budget ends the in-place retry loop early — the process yields back
  /// to the queue), converts parks into saturated WaitSet buckets into
  /// short-deadline parks the watchdog sheds, and runs the epoch-backlog
  /// watchdog check each tick. Set between runs, never during.
  void set_overload(control::OverloadControl* c) { overload_ = c; }

  /// Arms the park/wake observability instruments (null disables). The
  /// park paths additionally re-gate on the SDL_OBS runtime flag, once
  /// per park/dispatch. Set between runs, never during.
  void set_metrics(obs::RuntimeMetrics* m) { metrics_ = m; }

  /// Deterministic mode only: overrides the seeded random walk with an
  /// explicit schedule chooser (the explorer's recording/replaying
  /// sources). Null reverts to the seed. Set between runs, never during.
  void set_decision_source(sim::DecisionSource* src) { decision_source_ = src; }
  [[nodiscard]] bool deterministic() const {
    return options_.deterministic_seed >= 0;
  }

  /// Registers a process definition (takes ownership; finalizes if the
  /// caller has not).
  const ProcessDef& define(ProcessDef def);
  [[nodiscard]] const ProcessDef* find_def(const std::string& name) const;

  /// Creates a process instance in Ready state. Thread-safe; may be called
  /// from action lists (dynamic creation, §2.4) or the host program.
  ProcessId spawn(const std::string& def_name, std::vector<Value> args);
  /// Same, for a definition already looked up (one registered here).
  ProcessId spawn(const ProcessDef& def, std::vector<Value> args);

  /// Applies a committed transaction's action list — lets into `env`,
  /// spawns — once per match: an Exists match reads `env` (it keeps the
  /// winning binding), a ForAll match its own binding. Returns the control
  /// action. Society processes pass their env; Runtime::execute passes
  /// the host's.
  ControlAction apply_actions(Env& env, const Transaction& txn,
                              const TxnResult& result);

  /// Runs until the society is quiescent: every process terminated or
  /// irrecoverably parked. Starts workers on entry, stops them on exit.
  RunReport run();

  /// Wake a parked process (used by WaitSet subscriptions and the
  /// consensus manager; harmless for non-parked pids).
  void wake(ProcessId pid);

  /// Requests crash-safe teardown of `pid`: its WaitSet subscription is
  /// unsubscribed, pending consensus offers are withdrawn (without
  /// wedging the rest of its consensus set), replication accounting is
  /// settled, and the process is released. Asynchronous — the teardown
  /// runs on the worker that next owns the process (a parked victim is
  /// woken for it; during quiescence kill() may be issued before run() and
  /// takes effect as the run starts). The teardown is recorded in
  /// RunReport::killed. Returns false for an unknown pid.
  bool kill(ProcessId pid);

  /// Executes `fn` with the society locked; `live` spans every process
  /// not yet erased. Used by the consensus manager inside the engine's
  /// exclusive section.
  void with_live(const std::function<void(const std::vector<Process*>&)>& fn);

  /// Consensus manager resume path, called inside with_live: hands the
  /// parked member `p` its fired offer's result and makes it Ready.
  void resume(Process& p, ConsensusResult result);

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] std::size_t worker_count() const { return options_.workers; }
  [[nodiscard]] std::size_t live_count() const;
  [[nodiscard]] std::uint64_t total_spawned() const {
    return spawned_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// Processes torn down by kill()/fault injection, and by park-deadline
  /// expiry, across the scheduler's lifetime (operator counters).
  [[nodiscard]] std::uint64_t total_killed() const {
    return killed_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_timed_out() const {
    return timeouts_total_.load(std::memory_order_relaxed);
  }
  /// Retries of injected transient commit failures (E16 instrumentation).
  [[nodiscard]] std::uint64_t commit_retries() const {
    return commit_retries_.load(std::memory_order_relaxed);
  }

 private:
  enum class StepOutcome { Continue, Yield, Parked, Done };
  /// Why a process is leaving the society (one teardown path for all).
  enum class RetireKind { Completed, Errored, Killed, TimedOut };

  // --- interpretation (worker-thread context, process owned) ---
  StepOutcome run_process(Process& p);
  StepOutcome do_transaction(Process& p, const Transaction& txn);
  StepOutcome do_selection(Process& p, Frame& f);
  StepOutcome do_replicate_parent(Process& p, Frame& f);
  StepOutcome do_sweep(Process& p, Frame& f);
  /// Unwinds frames for `exit`; returns Done if the stack emptied.
  StepOutcome handle_exit(Process& p);
  StepOutcome handle_abort(Process& p);
  void ensure_subscription(Process& p, WaitSet::Interest interest);
  void drop_subscription(Process& p);
  TxnResult execute_engine(Process& p, const Transaction& txn);
  /// Guard sweep shared by Sweep frames: attempts every non-consensus
  /// guard once; returns the branch index or -1. `saw_injected` is set
  /// when a guard failed only because of an injected transient commit
  /// fault (the sweep must retry, not count itself parked).
  int try_guards(Process& p, const std::vector<Branch>& branches,
                 TxnResult& result, bool& saw_injected);

  // --- scheduling plumbing ---
  void worker_loop();
  /// One full dispatch of `pid`: teardown checks, fault injection, a
  /// quantum of interpretation, and the outcome transition. The body of
  /// worker_loop's iteration, shared with the deterministic coordinator.
  void dispatch_one(ProcessId pid);
  /// The deterministic-mode run(): single-threaded coordinator loop.
  RunReport run_deterministic();
  /// Report assembly shared by run() and run_deterministic(); call only
  /// when no worker owns a process (states stable).
  RunReport build_report(std::uint64_t completed_before);
  /// Deterministic mode: advance the virtual clock to the earliest armed
  /// park deadline and expire it. Returns false when nothing was armed.
  bool det_advance_clock();
  /// steady_clock::now(), or the virtual clock in deterministic mode.
  [[nodiscard]] std::chrono::steady_clock::time_point park_clock_now() const;
  /// Deterministic mode: fold a transaction's bucket footprint into the
  /// step the DecisionSource will observe. No-op while not recording.
  void sim_note_txn(const Transaction& txn, Env& env);
  Process* begin_running(ProcessId pid);
  /// Returns false when a pending wake cancels the park; the process stays
  /// Running and the caller requeues it.
  bool finalize_park(Process& p, ParkReason reason);
  /// The one Parked -> Ready edge, shared by wake, kill, deadline expiry
  /// and consensus resume. Caller holds society_mutex_ (so no consensus
  /// sweep is in flight) and p.state_mutex. Stamps woke_at_ns when obs is
  /// armed; returns true when `p` was parked and the caller must enqueue
  /// it, false (and changes nothing) otherwise.
  bool unpark(Process& p);
  /// Releases what a park holds once the process stops being parked
  /// (dispatch or teardown): its consensus offers and their waiter-gate
  /// count, an armed deadline, and a replicant's place in its group's
  /// parked count. Caller holds p.state_mutex.
  void release_park(Process& p);
  /// The single teardown path: unsubscribes the WaitSet entry, withdraws
  /// consensus offers under the state lock, settles replication-group
  /// accounting, erases the process, and records the outcome under `kind`.
  /// Caller owns the process (worker context, state Running).
  void retire(Process& p, RetireKind kind, std::string note);
  void complete(Process& p) { retire(p, RetireKind::Completed, {}); }
  void requeue(ProcessId pid);
  void enqueue_new(ProcessId pid);
  void work_finished();  // decrement inflight, maybe declare quiescence
  void notify_consensus();
  void wake_group(ReplicationGroup& group, ProcessId except);
  ProcessId spawn_replicant(const Process& parent,
                            const std::shared_ptr<ReplicationGroup>& group);
  /// SpuriousWake injection helper: wakes one parked process (any one),
  /// chosen by `salt` so the victim varies deterministically.
  void wake_one_parked(std::uint64_t salt);

  // --- deadlines ---
  /// Watchdog body: scans for expired park deadlines every tick while any
  /// are armed; expired parkers are woken with `timed_out` set.
  void watchdog_loop(const std::stop_token& st);
  /// One scan; wakes every parked process whose deadline passed `now`
  /// (wall time from the watchdog, virtual time in deterministic mode).
  void expire_deadlines(std::chrono::steady_clock::time_point now);

  // --- diagnosis ---
  /// Wait-for explanation for a parked process: the blocking query, the
  /// subscribed index keys, and which live processes could export a
  /// matching tuple. Caller holds society_mutex_.
  [[nodiscard]] std::string explain_park_locked(const Process& p) const;

  /// The armed instrument set when observability is wired AND enabled,
  /// else null (the per-operation gate, same shape as Engine's).
  [[nodiscard]] obs::RuntimeMetrics* obs_metrics() const {
    return (metrics_ != nullptr && obs::enabled()) ? metrics_ : nullptr;
  }
  /// Park-duration histogram for `reason`, from the armed set `m`.
  static obs::LatencyHistogram* park_histogram(obs::RuntimeMetrics* m,
                                               ParkReason reason);

  Engine& engine_;
  SchedulerOptions options_;
  ConsensusManager* consensus_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  FaultInjector* faults_ = nullptr;
  control::OverloadControl* overload_ = nullptr;
  obs::RuntimeMetrics* metrics_ = nullptr;

  mutable std::mutex defs_mutex_;  // guards defs_
  std::unordered_map<std::string, std::unique_ptr<ProcessDef>> defs_;

  mutable std::mutex society_mutex_;  // guards society_ and next_pid_
  /// Each Process lives in its map node: a spawn allocates the node and
  /// the environment, nothing else. Nodes never move, so the pointers
  /// with_live hands out stay valid until the process is erased.
  std::unordered_map<ProcessId, Process> society_;
  ProcessId next_pid_ = 1;

  std::mutex queue_mutex_;  // guards ready_, inflight_, stop_, running_
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<ProcessId> ready_;
  std::size_t inflight_ = 0;  // queued + being handled by a worker
  bool stop_ = false;
  bool running_ = false;  // run() in progress

  std::vector<std::jthread> workers_;
  std::mutex report_mutex_;  // guards errors_, timed_out_, killed_
  std::vector<std::string> errors_;
  std::vector<std::string> timed_out_;
  std::vector<std::string> killed_;
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> killed_total_{0};
  std::atomic<std::uint64_t> timeouts_total_{0};
  std::atomic<std::uint64_t> commit_retries_{0};
  std::atomic<int> consensus_waiters_{0};

  // Watchdog: runs only during run(), only scans while deadlines are
  // armed. deadlines_armed_ counts parked processes with a deadline; the
  // quiescence check treats an armed deadline as pending work, so run()
  // cannot report "parked forever" about a process about to time out.
  std::jthread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable_any watchdog_cv_;
  std::atomic<int> deadlines_armed_{0};

  // Deterministic mode. The virtual clock starts at the epoch and only
  // moves forward when the coordinator has nothing runnable; the step
  // under construction is coordinator-thread-only state.
  sim::DecisionSource* decision_source_ = nullptr;
  std::chrono::steady_clock::time_point det_now_{};
  sim::SimStep sim_step_;
  bool sim_recording_ = false;
};

}  // namespace sdl
