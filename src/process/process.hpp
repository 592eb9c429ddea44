// Process definitions and process instances (§2.4).
//
// "SDL supports the definition of parameterized process types ... processes
//  may be created dynamically ... Process termination occurs when the last
//  statement is executed or upon execution of the abort action."
//
// A Process here is a *logical* process: its execution state is an explicit
// frame stack interpreted by scheduler workers, so a parked process costs a
// few hundred bytes, not an OS thread — this is what lets a society reach
// the paper's "many thousands of concurrent processes" (experiment E11).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/small_vector.hpp"
#include "process/statement.hpp"
#include "txn/engine.hpp"

namespace sdl {

/// A parameterized process type. Build the body with the statement
/// factories, then finalize() once; definitions are immutable afterwards
/// and shared by all instances.
class ProcessDef {
 public:
  std::string name;
  std::vector<std::string> params;
  ViewSpec view;
  StmtPtr body;

  /// Resolves the body and view against a fresh symbol table; params take
  /// the first slots. Call exactly once, before registering with a Runtime.
  void finalize();

  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] const SymbolTable& symbols() const { return symtab_; }
  [[nodiscard]] int param_slot(std::size_t i) const { return param_slots_[i]; }
  [[nodiscard]] std::size_t env_size() const {
    return static_cast<std::size_t>(symtab_.size());
  }

 private:
  SymbolTable symtab_;
  std::vector<int> param_slots_;
  bool finalized_ = false;
};

/// Scheduling state of a logical process. Transitions are guarded by the
/// process's own mutex (Process::state_mutex):
///   Ready --(worker pops)--> Running
///   Running --(blocks)-->    Parked --(wake, kill, deadline, fire)--> Ready
///   Running --(yields, or a pending wake cancels its park)--> Ready
///   Running --(final statement, abort or teardown)--> Done
/// A process leaves Parked only under the scheduler's society mutex, which
/// a consensus sweep holds throughout, so a sweep's view of who is parked
/// cannot change under it.
enum class RunState { Ready, Running, Parked, Done };

/// Why a parked process is parked (diagnostics / deadlock reports).
enum class ParkReason { None, DelayedTxn, Selection, Consensus, Replication };

/// One consensus offer: a consensus-tagged transaction this process is
/// ready to commit as part of an n-way consensus (§2.2). `branch` is the
/// selection branch index it corresponds to (-1 for a standalone
/// transaction statement).
struct ConsensusOffer {
  const Transaction* txn = nullptr;
  int branch = -1;
};

/// Result delivered to a process by the consensus manager when its offer
/// fired: which offer, and the committed transaction's matches.
struct ConsensusResult {
  int branch = -1;
  TxnResult result;
};

/// A bucket-level over-approximation of a process's import set, frozen at
/// spawn time (it depends only on parameters, which never change). The
/// consensus manager uses it for processes that are currently runnable —
/// their environments cannot be read safely, but the summary can, and an
/// over-approximation only delays consensus, never fires it wrongly.
struct ImportSummary {
  bool everything = false;
  std::vector<IndexKey> keys;
  std::vector<std::uint32_t> arities;

  /// Could a tuple in bucket `key` be in the import set?
  [[nodiscard]] bool may_cover(const IndexKey& key) const {
    if (everything) return true;
    for (const IndexKey& k : keys) {
      if (k == key) return true;
    }
    for (std::uint32_t a : arities) {
      if (a == key.arity) return true;
    }
    return false;
  }
};

class Process;

/// Shared coordination state of one replication construct (§2.3). The
/// parent parks; `width` replicant processes sweep the guards; the group
/// is done when no guard is enabled and every replicant is parked (the
/// last parker verifies under total exclusion).
struct ReplicationGroup {
  const Statement* stmt = nullptr;
  ProcessId parent = 0;
  /// Members the termination check must account for. Atomic because a
  /// replicant torn down abnormally (killed / crashed) is subtracted —
  /// the dead member can never park, so leaving it counted would wedge
  /// the construct's "every member parked" check forever.
  std::atomic<int> width{0};
  std::atomic<int> active{0};   // replicants not yet Done
  std::atomic<int> parked{0};   // replicants parked in guard-sweep failure
  std::atomic<bool> done{false};
  std::atomic<bool> abort{false};
  std::vector<ProcessId> members;  // fixed at creation; replicant pids
};

/// One interpreter frame.
struct Frame {
  enum class Type {
    Seq,        // executing stmt->children, pc = next child
    Txn,        // executing a single transaction statement
    Select,     // selection: choosing a branch
    Repeat,     // repetition: pc 0 = selecting, 1 = running branch body
    Replicate,  // parent side of a replication (parked until group done)
    Sweep,      // replicant side: sweep guards of stmt (a Replication)
  };
  Type type = Type::Seq;
  const Statement* stmt = nullptr;
  std::size_t pc = 0;
};

/// A logical process instance. Held in place by the scheduler's society
/// map; touched by scheduler workers (one at a time — the state machine
/// guarantees single ownership while Running) and by the wake/consensus
/// paths under state_mutex.
class Process {
 public:
  Process(ProcessId pid, const ProcessDef& def, std::vector<Value> args);

  /// Replicant constructor: clones `parent`'s environment. The group is
  /// held by shared_ptr so it outlives a parent torn down early (killed or
  /// crashed) — replicants never observe a dangling group.
  Process(ProcessId pid, const Process& parent,
          std::shared_ptr<ReplicationGroup> group);

  const ProcessId pid;
  const ProcessDef& def;

  // --- interpreter state: owned by the worker while Running ---
  Env env;
  /// The interpreter's frame stack. The example programs nest at most four
  /// frames deep, so a spawn allocates no stack of its own.
  SmallVector<Frame, 4> frames;
  std::optional<View> view;           // engaged when def.view is non-trivial
  std::shared_ptr<ReplicationGroup> group;        // non-null for replicants
  std::shared_ptr<ReplicationGroup> owned_group;  // parent's group
  WaitSet::Ticket ticket = WaitSet::kInvalidTicket;  // live subscription
  /// Copy of the live subscription's interest — what the WaitSet would
  /// have to publish to wake this process. Kept for deadlock diagnosis
  /// (the wait-for report matches it against other processes' write sets).
  WaitSet::Interest interest;
  std::uint64_t txns_committed = 0;
  /// This replicant is counted in group->parked (exactly-once accounting;
  /// set before parking, cleared when the scheduler resumes it).
  bool counted_parked = false;
  /// This process is counted in the scheduler's consensus-waiter gate.
  bool counted_waiter = false;
  /// Frozen bucket-level import over-approximation (see ImportSummary).
  ImportSummary static_imports;
  /// Deadline the interpreter stages for the park it is about to enter:
  /// 0 = scheduler default for the park reason, < 0 = never, > 0 = that
  /// many ms. Consumed (and reset) by finalize_park.
  std::int64_t park_timeout_ms = 0;
  /// The live subscription landed in a WaitSet bucket past the overload
  /// layer's park cap: finalize_park forces a short deadline so the
  /// watchdog sheds this park instead of letting the bucket queue grow.
  /// Set by ensure_subscription, cleared with the subscription.
  bool park_saturated = false;

  // --- teardown flags: set by kill()/watchdog, consumed by the worker
  //     that owns the process next (atomic so the interpreter can poll
  //     them promptly without taking state_mutex) ---
  std::atomic<bool> pending_kill{false};
  std::atomic<bool> timed_out{false};
  /// Wait-for diagnosis built by the watchdog at expiry time (while the
  /// park state is still intact); consumed by the retiring worker.
  std::string timeout_note;

  // --- scheduling state: guarded by state_mutex ---
  mutable std::mutex state_mutex;
  RunState state = RunState::Ready;
  bool pending_wake = false;
  ParkReason park_reason = ParkReason::None;
  std::vector<ConsensusOffer> offers;            // valid while Parked
  std::optional<ConsensusResult> consensus_result;
  /// Armed park deadline (the watchdog expires it). Valid while Parked.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  // --- observability stamps (guarded by state_mutex; written only while
  //     the SDL_OBS instruments are armed, 0 = unstamped) ---
  /// When finalize_park made the park effective, obs::now_ns().
  std::uint64_t park_started_ns = 0;
  /// When a wake, kill, deadline expiry or consensus resume made the
  /// process Ready again (0 unless obs is on).
  std::uint64_t woke_at_ns = 0;

  [[nodiscard]] const View* view_ptr() const {
    return view.has_value() ? &*view : nullptr;
  }

  /// Human-readable "Name#pid" label.
  [[nodiscard]] std::string label() const;

 private:
  void compute_static_imports();
};

/// Pushes onto `p.frames` the frame type appropriate to `s`'s kind.
void push_statement(Process& p, const Statement* s);

}  // namespace sdl
