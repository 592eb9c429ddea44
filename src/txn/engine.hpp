// Transaction engines: the atomicity layer.
//
// Engine is the locking policy; the Dataspace is the data. Two
// implementations exist (experiment E6 compares them):
//   * GlobalLockEngine — one exclusive mutex, the semantic reference;
//   * ShardedEngine    — strict two-phase locking over the dataspace's
//     shards via reader–writer locks, acquired in canonical order
//     (deadlock-free, serializable). Shards a transaction only reads are
//     taken shared; shards an effect may land on are taken exclusive, so
//     read-only transactions on the same shard run concurrently (E15).
//
// Engines apply a transaction's dataspace effects (retract, then assert,
// §2.2) atomically and publish the touched index keys to the WaitSet.
// Every mutation of the dataspace — an engine commit, a blind assert, a
// consensus composite, a seed — goes through one routine, Engine::commit,
// which also hands the commit to the WAL (encoded from the records it
// just linked) and to the history checker. Only the follower's
// apply_replicated, which restores by id, logs on its own: the leader's
// frames, as they arrived.
// Process-local actions (lets, spawns, control) are applied by the caller
// (scheduler or host program) from the returned matches — they do not
// touch the dataspace, so post-commit application preserves atomicity.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>

#include "check/history.hpp"
#include "control/overload.hpp"
#include "persist/wal.hpp"
#include "core/striped_counter.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "txn/transaction.hpp"
#include "txn/waitset.hpp"
#include "view/view.hpp"

namespace sdl {

namespace persist {
class PersistManager;
}

/// Test-only correctness sabotage, for the mutation self-test that proves
/// the serializability checker actually detects broken isolation (ISSUE 3
/// satellite). Honored by ShardedEngine only; both mutations keep the
/// implementation memory-safe (every dataspace access still happens under
/// proper locks) while breaking the atomicity contract the checker
/// verifies:
///   * split_2pl — release all locks between query evaluation and effect
///     application (with a sleep in the gap), breaking strict 2PL: racing
///     commits can consume this transaction's matches first.
///   * drop_effects — report success and record the commit but apply
///     nothing: a torn/lost commit, caught by the final-state check and
///     by later reads of the "retracted" instances.
struct EngineSabotage {
  std::atomic<bool> split_2pl{false};
  std::atomic<bool> drop_effects{false};
};

/// Outcome of one execution attempt.
struct TxnResult {
  bool success = false;
  /// The failure was injected by the FaultInjector's EngineCommit point:
  /// the query succeeded but the effects were withheld before touching the
  /// dataspace. Retrying is safe (nothing was applied) and expected — the
  /// scheduler retries with bounded, jittered backoff.
  bool injected_fault = false;
  /// The transaction was SHED by the overload layer before any evaluation:
  /// the admission gate was at its in-flight limit (or the AdmissionShed
  /// fault point forced a shed). Nothing ran, nothing was applied; the
  /// caller should back off for ~retry_after_us and resubmit — the
  /// RetryAfter outcome, distinct from a query failure.
  bool shed = false;
  /// Backoff hint accompanying `shed`, in µs (load-scaled).
  std::int64_t retry_after_us = 0;
  /// The write was refused because this node is a replication FOLLOWER
  /// that has not been promoted: followers apply the leader's stream only
  /// (local reads are fine — they go through, eventually consistent).
  /// Nothing ran; resubmit to the leader, or after promotion.
  bool not_leader = false;
  /// Query matches (Exists: one; ForAll: zero or more). Callers run
  /// action lists against the env passed to execute() for Exists (it
  /// keeps the winning binding) and against each match's binding for
  /// ForAll.
  QueryMatches matches;
  /// Ids of tuples asserted by this commit (export-filtered).
  std::vector<TupleId> asserted;
};

/// Cumulative engine counters (striped; statistics only — otherwise the
/// per-transaction increments serialize all cores on one cache line and
/// become the E6 scaling ceiling). Every execute() outcome lands in
/// exactly one of the outcome counters, so an optimistic read bumps one
/// stripe; the totals attempts()/commits()/failures() are derived when
/// read.
struct EngineStats {
  /// execute() calls that took the locked or the blind-assert path (an
  /// optimistic read that fell back is one of them), by outcome.
  StripedCounter locked_attempts;
  StripedCounter locked_commits;
  StripedCounter locked_failures;
  /// Effect-free probe() evaluations (never counted as attempts/commits/
  /// failures — they are pre-checks, not transactions). Optimistic probes
  /// count here too; only their locked fallback takes read locks.
  StripedCounter probes;
  /// Lock-free read path (ShardedEngine, ISSUE 6). These are engine-level
  /// ground truth, always on (the obs registry mirrors them, null-gated):
  /// optimistic evaluations NEVER touch a shard lock, so they must never
  /// appear in lock-acquire instrumentation — these counters are where
  /// they show up instead. Validated read transactions, by outcome:
  StripedCounter read_optimistic_hits;    // query succeeded (a commit)
  StripedCounter read_optimistic_misses;  // query failed (a failure)
  StripedCounter probe_optimistic;  // probes answered by a validated read
  StripedCounter read_retries;      // validations that failed, retried in place
  StripedCounter read_fallbacks;    // attempts exhausted -> shared-lock path
  /// Commutative blind-assert commits (pure-guard, assert-only txns that
  /// skipped lock planning and locked only their target shards).
  StripedCounter blind_asserts;

  [[nodiscard]] std::uint64_t attempts() const {
    return locked_attempts.load() + read_optimistic_hits.load() +
           read_optimistic_misses.load();
  }
  [[nodiscard]] std::uint64_t commits() const {
    return locked_commits.load() + read_optimistic_hits.load();
  }
  [[nodiscard]] std::uint64_t failures() const {
    return locked_failures.load() + read_optimistic_misses.load();
  }
  /// Optimistic validations that passed (read transactions and probes).
  [[nodiscard]] std::uint64_t read_optimistic() const {
    return read_optimistic_hits.load() + read_optimistic_misses.load() +
           probe_optimistic.load();
  }
};

class Engine {
 public:
  Engine(Dataspace& space, WaitSet& waits, const FunctionRegistry* fns)
      : space_(space), waits_(waits), fns_(fns) {}
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// One atomic attempt: evaluate the query (through `view`'s window if
  /// non-null), and on success apply retractions then assertions. `env`
  /// is the issuing process's environment; on Exists-success it retains
  /// the winning binding. Publishes touched keys on commit.
  virtual TxnResult execute(const Transaction& txn, Env& env, ProcessId owner,
                            const View* view = nullptr) = 0;

  /// Effect-free pre-check: evaluates `txn`'s query under READ locks only
  /// and reports whether it is currently satisfiable. Never applies
  /// effects, never publishes, never bumps the commit version. Callers
  /// that retry transactions whose guards usually fail (parked delayed
  /// transactions re-checking on wake, replication sweeps) probe first so
  /// a disabled guard costs a shared lock instead of exclusive ones; a
  /// true probe is only a hint — the follow-up execute() may still fail
  /// because the world moved between the two.
  virtual bool probe(const Transaction& txn, Env& env,
                     const View* view = nullptr) = 0;

  /// Runs `fn` under total mutual exclusion (every shard locked). `fn`
  /// may read and mutate space() directly and returns the touched keys,
  /// which are published after the locks are released. Used by the
  /// consensus manager's composite commit.
  virtual void exclusive(const std::function<std::vector<IndexKey>()>& fn) = 0;

  [[nodiscard]] Dataspace& space() { return space_; }
  [[nodiscard]] WaitSet& waits() { return waits_; }
  [[nodiscard]] const FunctionRegistry* functions() const { return fns_; }
  [[nodiscard]] EngineStats& stats() { return stats_; }

  /// Arms the EngineCommit injection point (null disables — the only cost
  /// is then a branch on this pointer per execute). Call while no
  /// transactions are in flight.
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  /// Arms commit-history recording for the serializability checker (null
  /// disables). Call while no transactions are in flight.
  void set_history(HistoryRecorder* h) { history_ = h; }

  /// Arms the mutation self-test hooks (null disables). ShardedEngine
  /// only; the reference GlobalLockEngine stays unbroken by construction.
  void set_sabotage(EngineSabotage* s) { sabotage_ = s; }

  /// Arms the observability instruments (null disables). Call while no
  /// transactions are in flight. Instrumented paths additionally re-gate
  /// on the SDL_OBS runtime flag through obs_metrics(), once per
  /// operation.
  void set_metrics(obs::RuntimeMetrics* m) { metrics_ = m; }
  /// The armed instrument set when observability is wired AND enabled,
  /// else null. This is the once-per-txn gate: callers hoist the returned
  /// pointer into a local and branch on it, so the disabled path costs
  /// one relaxed load + branch. Public because the scheduler and the
  /// consensus manager pass it to the WindowSources they build.
  [[nodiscard]] obs::RuntimeMetrics* obs_metrics() const {
    return (metrics_ != nullptr && obs::enabled()) ? metrics_ : nullptr;
  }

  /// One transaction's share of a commit (see commit()). A consensus
  /// composite has one part per member; every other commit has one.
  struct CommitPart {
    ProcessId owner = 0;                    // owns the linked instances
    const Transaction* txn = nullptr;       // history label; null: a seed
    const QueryOutcome* outcome = nullptr;  // retract handles; null: none
    std::vector<Tuple>* tuples = nullptr;   // materialized asserts, moved in
    std::vector<TupleId>* asserted = nullptr;  // out: the ids it linked
  };

  /// The one commit path: every mutation of the dataspace — an engine
  /// commit, a blind assert, a consensus composite, a seed — goes through
  /// here, with the commit's locks held and an epoch::Guard pinned. In
  /// order, it
  ///   1. retracts every part's match handles (an instance leaves D once,
  ///      however many matches or members name it);
  ///   2. links every part's materialized tuples, owned by the part;
  ///   3. appends the touched keys to `touched` and the linked ids to each
  ///      part's `asserted`;
  ///   4. logs ONE WAL frame (owner `log_owner`, consensus ordinal `fire`)
  ///      encoded from the records it just linked, when durability is armed
  ///      and the commit changed D;
  /// then records each part with the history checker when it is armed (a
  /// part without a transaction records its ids as seeds).
  /// `tolerate_missing_retract` is for the split_2pl sabotage path only:
  /// with the 2PL window broken a retraction target may legitimately have
  /// been consumed by a racing commit, and the point of the exercise is to
  /// let the checker (not a throw) report the violation.
  void commit(std::span<CommitPart> parts, ProcessId log_owner,
              std::uint64_t fire, std::vector<IndexKey>& touched,
              bool tolerate_missing_retract = false);

  /// Arms the overload-protection layer (null disables). The ShardedEngine
  /// consults it on the optimistic read path: a tripped circuit breaker
  /// routes reads straight to the shared-lock path, and validation
  /// retries draw from the shared retry budget (a dry budget means an
  /// immediate fallback instead of re-evaluating). Call while no
  /// transactions are in flight.
  void set_overload(control::OverloadControl* c) { overload_ = c; }
  [[nodiscard]] control::OverloadControl* overload() const { return overload_; }

  /// Arms the durability subsystem (null disables). When armed, every
  /// effectful commit logs its effect set to the WAL while the commit's
  /// locks are held, and a snapshot runs when one falls due. Call while
  /// no transactions are in flight.
  void set_persist(persist::PersistManager* p) { persist_ = p; }

  /// Builds the WaitSet interest for a transaction's read set (call with
  /// locals cleared — done internally).
  [[nodiscard]] WaitSet::Interest interest_of(const Transaction& txn, Env& env) const;

  /// Replication apply path (src/repl): applies a batch of leader WAL
  /// frames on a follower under total exclusion, preserving the leader's
  /// restart-stable TupleIds via Dataspace::restore (each tuple moves
  /// into its record node) — the same id discipline recovery's replay()
  /// uses, so a promoted follower is byte-equivalent to a recovered
  /// leader. `id_index` is the follower's id → record-handle map (WAL
  /// retracts carry only ids and the dataspace keeps no id index): every
  /// resident record, seeded from the follower's recovered dataspace and
  /// maintained here across batches, so a retract is one lookup and one
  /// unlink. Touched keys are published on release, so parked local
  /// readers (the follower serves the optimistic read path) wake exactly
  /// as they would on a local commit. When the follower's own durability
  /// is armed, each frame's bytes are logged to its local WAL inside the
  /// same exclusion, under the leader's sequence number; a frame with no
  /// bytes (a snapshot install's reset) is not logged. The caller applies
  /// each frame once (its watermark filters redelivery). Any exception a
  /// commit raises is caught INSIDE the exclusive section
  /// (ShardedEngine::exclusive does not unwind its shard locks), recorded
  /// in `ok`/`error`, and stops the batch after the last fully applied
  /// commit.
  struct ReplFrame {
    std::string_view bytes;     // the frame as the leader logged it
    persist::WalCommit commit;  // its decoded effect set
  };
  struct ReplApplyOutcome {
    std::uint64_t applied_commits = 0;
    std::uint64_t missing_retracts = 0;   // divergence signal: id not found
    bool ok = true;                       // false: a commit threw mid-batch
    std::string error;                    // what() of the failing commit
  };
  /// The follower's id -> record-handle index (see apply_replicated).
  using IdIndex = std::unordered_map<TupleId, const Record*>;
  ReplApplyOutcome apply_replicated(std::span<ReplFrame> batch,
                                    IdIndex* id_index);

 protected:
  /// Evaluates `txn`'s query against the dataspace, through `view`'s
  /// window when one is active. Must be called with sufficient locks held
  /// (shared suffices: evaluation only reads).
  [[nodiscard]] QueryOutcome evaluate_query(const Transaction& txn, Env& env,
                                            const View* view) const;

  /// Records one transaction's share of a commit with the history
  /// checker, when armed. MUST be called with the commit's locks still held
  /// (the sequence number is the serialization witness). Records the
  /// *intended* retract set from the matches — under sabotage that intent
  /// is exactly what convicts. `fire` is the consensus ordinal (0: an
  /// independent commit); the label is `txn` rendered, only when armed.
  void record_history(ProcessId owner, std::uint64_t fire,
                      const QueryOutcome& outcome,
                      const std::vector<TupleId>& asserted,
                      const Transaction& txn);

  /// FaultInjector decision at the commit point, called with the engine's
  /// locks held and the query outcome known. Returns true when the commit
  /// must be withheld (transient injected failure); may also inject a
  /// delay to widen the evaluate→apply race window.
  [[nodiscard]] bool inject_commit_fault(const Transaction& txn,
                                         bool query_succeeded);

  /// Post-publish hook (no locks held): runs the snapshot barrier
  /// protocol when the configured snapshot interval has elapsed.
  void maybe_snapshot_after_commit();

  Dataspace& space_;
  WaitSet& waits_;
  const FunctionRegistry* fns_;
  EngineStats stats_;
  FaultInjector* faults_ = nullptr;
  HistoryRecorder* history_ = nullptr;
  EngineSabotage* sabotage_ = nullptr;
  control::OverloadControl* overload_ = nullptr;
  persist::PersistManager* persist_ = nullptr;
  obs::RuntimeMetrics* metrics_ = nullptr;
};

/// Evaluates `txn`'s assertion templates for every match of `outcome`
/// into `out`, dropping tuples outside `view`'s export set (D' keeps only
/// Export(p) ∩ Wa). Templates read `env` for an Exists query (the env it
/// was evaluated with keeps the winning binding) and each match's binding
/// for ForAll. Throws what a field expression throws; `out` may then hold
/// a prefix, which callers discard before touching the dataspace.
void materialize_asserts(const Transaction& txn, const QueryOutcome& outcome,
                         const Env& env, const View* view,
                         const FunctionRegistry* fns, std::vector<Tuple>& out);

/// Blocks the calling OS thread until `txn` commits — the delayed ('=>')
/// semantics for host-program callers that are not scheduler processes.
/// (Scheduler processes park instead; see src/process/scheduler.hpp.)
TxnResult execute_blocking(Engine& engine, const Transaction& txn, Env& env,
                           ProcessId owner, const View* view = nullptr);

/// GlobalLockEngine: one mutex serializes every transaction. Trivially
/// serializable; the correctness baseline for E6 and E15 — deliberately
/// untouched by the reader–writer optimization so it stays the semantic
/// reference the sharded engine is checked against.
class GlobalLockEngine final : public Engine {
 public:
  using Engine::Engine;

  TxnResult execute(const Transaction& txn, Env& env, ProcessId owner,
                    const View* view = nullptr) override;
  bool probe(const Transaction& txn, Env& env,
             const View* view = nullptr) override;
  void exclusive(const std::function<std::vector<IndexKey>()>& fn) override;

 private:
  std::mutex mutex_;  // guards space_ entirely
};

/// ShardedEngine: strict 2PL over the dataspace's shards with
/// reader–writer discrimination. A transaction locks, in ascending shard
/// order, every shard its read and write sets may touch — shared for
/// shards it can only read, exclusive for shards an effect (retraction or
/// assertion) can land on. Arity-wide patterns widen the read set to all
/// shards (shared); retract-tagged arity-wide patterns and unresolvable
/// assertion heads widen the write set to all shards (exclusive), exactly
/// as the pre-r/w planner widened to `all`. Locks are held through commit
/// (strict 2PL), and the single canonical acquisition order across both
/// modes keeps the engine deadlock-free.
///
/// Two commute-exploiting fast paths bypass that machinery (ISSUE 6):
///
///   * OPTIMISTIC READS — a read-only transaction takes NO locks: inside
///     an epoch::Guard it samples per-shard seqlock versions lazily,
///     evaluates against the live buckets, and revalidates the samples
///     (OptimisticSource, query.hpp). Valid ⇒ the result is a consistent
///     snapshot, serialized where every sampled shard was quiet; invalid ⇒
///     retry in place, then fall back to the shared-lock path after
///     kOptimisticAttempts so write-heavy mixes cannot livelock. Gated off
///     when a view window, the history recorder, or the fault injector is
///     armed — those need the locked path's witnesses and injection
///     points, and the locked path is always semantically correct.
///   * BLIND ASSERTS — a pure-guard, assert-only transaction reads nothing
///     from the dataspace, so it commutes with everything except asserts
///     into its own target buckets. Its guard and field expressions are
///     evaluated OUTSIDE any lock; only the resolved target shards are
///     then locked (exclusive, ascending), shrinking the writer critical
///     section optimistic readers must validate against.
///
/// Exclusive critical sections are bracketed with the dataspace's
/// begin/end_shard_write so the whole commit is one odd-version window —
/// never per mutation, or a reader could validate a half-applied commit.
/// Writers hold an epoch::Guard across mutation (erase retires nodes; see
/// epoch.hpp "Why writers pin too"). GlobalLockEngine skips all of this:
/// a dataspace driven by it has no lock-free readers by construction.
class ShardedEngine final : public Engine {
 public:
  ShardedEngine(Dataspace& space, WaitSet& waits, const FunctionRegistry* fns);

  /// Optimistic read attempts per transaction before falling back to the
  /// shared-lock path (tuned low: validation failures are contention
  /// signals, and the fallback is cheap and always correct).
  static constexpr int kOptimisticAttempts = 3;

  TxnResult execute(const Transaction& txn, Env& env, ProcessId owner,
                    const View* view = nullptr) override;
  bool probe(const Transaction& txn, Env& env,
             const View* view = nullptr) override;
  void exclusive(const std::function<std::vector<IndexKey>()>& fn) override;

 private:
  /// Which shards to lock and in which mode. `read_shards`/`write_shards`
  /// are sorted, deduped, and disjoint (write wins on overlap). The `all`
  /// flags widen one mode to every shard.
  struct LockPlan {
    std::vector<std::size_t> read_shards;   // shared mode
    std::vector<std::size_t> write_shards;  // exclusive mode
    bool read_all = false;   // unresolvable read head: share-lock all
    bool write_all = false;  // unresolvable effect target: lock all exclusive
  };
  LockPlan plan_locks(const Transaction& txn, Env& env) const;

  /// Read-only plan covering the query's whole read set (probes): every
  /// bucket the query scans, shared mode — even retract-tagged patterns
  /// contribute only read locks, because nothing gets applied.
  LockPlan read_plan(const Transaction& txn, Env& env) const;

  /// One execute()'s lock set; locks are acquired in ascending shard
  /// order regardless of mode. `exclusive_shards` remembers which shards
  /// are write-bracketed (seqlock odd) so the version windows close
  /// BEFORE the locks drop — including when an effect expression throws
  /// (the destructor body runs before the lock members unwind), or an
  /// aborted transaction would leave a shard permanently odd and
  /// optimistic readers falling back forever.
  struct HeldLocks {
    HeldLocks() = default;
    HeldLocks(const HeldLocks&) = delete;
    HeldLocks& operator=(const HeldLocks&) = delete;
    ~HeldLocks() { end_writes(); }
    /// Closes the seqlock write brackets (idempotent; locks still held).
    void end_writes() {
      if (space != nullptr) {
        for (const std::size_t si : exclusive_shards) {
          space->end_shard_write(si);
        }
      }
      exclusive_shards.clear();
    }
    Dataspace* space = nullptr;  // set by acquire()
    std::vector<std::shared_lock<std::shared_mutex>> shared;
    std::vector<std::unique_lock<std::shared_mutex>> exclusive;
    std::vector<std::size_t> exclusive_shards;
  };
  /// With a non-null `m`, each lock is try-locked first to count
  /// contention (shared/exclusive separately) before blocking. Every
  /// exclusively-locked shard is begin_shard_write-bracketed on acquire.
  void acquire(const LockPlan& plan, HeldLocks& held,
               obs::RuntimeMetrics* m = nullptr);
  /// Ends the write brackets, then releases every lock.
  void release(HeldLocks& held);

  /// The optimistic read path: up to kOptimisticAttempts lock-free
  /// evaluations. Returns true when `result` is settled (validation
  /// passed); false = fall back to the locked path.
  bool try_optimistic_read(const Transaction& txn, Env& env, TxnResult& result,
                           obs::RuntimeMetrics* armed);

  /// The commutative blind-assert path: evaluates the guard and
  /// materializes the assert tuples outside any lock, then takes only the
  /// target shards' exclusive locks to link them in.
  TxnResult execute_blind_assert(const Transaction& txn, Env& env,
                                 ProcessId owner, const View* view,
                                 obs::RuntimeMetrics* m,
                                 std::uint64_t t_start);

  std::unique_ptr<std::shared_mutex[]> locks_;  // one per dataspace shard
  std::size_t lock_count_;
};

}  // namespace sdl
