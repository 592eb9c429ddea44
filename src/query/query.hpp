// Conjunctive queries (§2.2): the binding_query (a join over positive
// tuple patterns), the test_query (a guard expression), negated subqueries
// ('~' composition), and the existential/universal quantifier.
//
// Evaluation is against a TupleSource — either the raw dataspace or a
// process's view window (src/view) — always under the issuing engine's
// locks, so sources may hand out stable references.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "query/pattern.hpp"

namespace sdl {

class PlanCache;  // src/query/compile.hpp

/// Where candidate tuples come from. Implementations: DataspaceSource
/// (below) and WindowSource (src/view/view.hpp).
class TupleSource {
 public:
  virtual ~TupleSource() = default;

  /// Index-statistics epoch of the backing store (see
  /// Dataspace::stats_epoch). Part of the compiled-plan cache key: a
  /// bumped epoch invalidates plans built against the old statistics.
  /// Sources with no meaningful statistics report a constant.
  [[nodiscard]] virtual std::uint64_t stats_epoch() const { return 0; }

  /// Visit records in the bucket `key`; stop early if fn returns false.
  virtual void scan_key(const IndexKey& key, const Dataspace::RecordFn& fn) const = 0;

  /// Visit records of the given arity across all buckets.
  virtual void scan_arity(std::uint32_t arity, const Dataspace::RecordFn& fn) const = 0;

  /// Visit records in bucket `key` whose second field equals `second`.
  /// Default: filtered scan_key; sources backed by the dataspace override
  /// with the secondary-index probe.
  virtual void scan_key_second(const IndexKey& key, const Value& second,
                               const Dataspace::RecordFn& fn) const {
    scan_key(key, [&](const Record& r) {
      if (r.tuple.arity() < 2 || r.tuple[1] != second) return true;
      return fn(r);
    });
  }
};

/// The whole dataspace, unabstracted (a process with no view).
class DataspaceSource final : public TupleSource {
 public:
  explicit DataspaceSource(const Dataspace& space) : space_(space) {}
  [[nodiscard]] std::uint64_t stats_epoch() const override {
    return space_.stats_epoch();
  }
  void scan_key(const IndexKey& key, const Dataspace::RecordFn& fn) const override {
    space_.scan_key(key, fn);
  }
  void scan_arity(std::uint32_t arity, const Dataspace::RecordFn& fn) const override {
    space_.scan_arity(arity, fn);
  }
  void scan_key_second(const IndexKey& key, const Value& second,
                       const Dataspace::RecordFn& fn) const override {
    space_.scan_key_second(key, second, fn);
  }

 private:
  const Dataspace& space_;
};

/// The dataspace traversed WITHOUT locks — the optimistic read path
/// (ISSUE 6). The caller must hold an epoch::Guard for this source's whole
/// lifetime (retracted nodes it can still reach are EBR-protected, not
/// freed) and must treat any evaluation result as provisional until
/// validate() says the snapshot was consistent.
///
/// Protocol (per-shard seqlock, see dataspace.hpp):
///   1. On the first scan touching a shard, SAMPLE its version (acquire).
///      An odd version means a writer is mid-commit: poison the attempt
///      (scans go empty) rather than traverse a half-applied state.
///   2. Scans traverse live bucket chains with no lock.
///   3. validate(): one acquire fence orders every traversal load before a
///      relaxed re-read of each sampled version. All unchanged ⇒ every
///      touched shard was mutation-free from its sample to the fence, so
///      the reads form a consistent snapshot (serialized at the instant of
///      the first re-read — samples all precede re-reads, so one instant
///      lies in every shard's stable window). Any change ⇒ retry.
///
/// scan_key_second is NOT overridden: the secondary index is a writer-side
/// plain container, so this source inherits the filtered-scan fallback.
class OptimisticSource final : public TupleSource {
 public:
  explicit OptimisticSource(const Dataspace& space) : space_(space) {}

  [[nodiscard]] std::uint64_t stats_epoch() const override {
    return space_.stats_epoch();
  }

  void scan_key(const IndexKey& key, const Dataspace::RecordFn& fn) const override {
    if (!touch(space_.shard_of(key))) return;
    space_.scan_key(key, fn);
  }
  void scan_arity(std::uint32_t arity, const Dataspace::RecordFn& fn) const override {
    // Arity-wide scans cross every shard; sample them all.
    for (std::size_t si = 0; si < space_.shard_count(); ++si) {
      if (!touch(si)) return;
    }
    space_.scan_arity(arity, fn);
  }

  /// True once any touched shard had a writer mid-commit — the attempt is
  /// already doomed and scans have gone empty; retry without evaluating
  /// further. (Evaluation results under a poisoned source are bogus but
  /// memory-safe.)
  [[nodiscard]] bool failed() const { return failed_; }

  /// Final validation; call after evaluation, before trusting its result.
  [[nodiscard]] bool validate() const {
    if (failed_) return false;
    std::atomic_thread_fence(std::memory_order_acquire);
    for (const auto& [si, v] : sampled_) {
      if (space_.shard_version_validate(si) != v) return false;
    }
    return true;
  }

  /// Shards this attempt sampled (stats/tests).
  [[nodiscard]] std::size_t shards_touched() const { return sampled_.size(); }

 private:
  bool touch(std::size_t si) const {
    if (failed_) return false;
    for (const auto& [s, v] : sampled_) {
      if (s == si) return true;  // already sampled
    }
    const std::uint64_t v = space_.shard_version(si);
    if ((v & 1) != 0) {
      failed_ = true;
      return false;
    }
    sampled_.emplace_back(si, v);
    return true;
  }

  const Dataspace& space_;
  /// (shard, sampled version); linear-searched — read txns touch few
  /// shards, and a map would cost more than it saves.
  mutable std::vector<std::pair<std::size_t, std::uint64_t>> sampled_;
  mutable bool failed_ = false;
};

/// A negated subquery: succeeds when NO binding of `patterns` satisfying
/// `guard` exists. Variables appearing only here are locally existential.
struct NegatedGroup {
  std::vector<TuplePattern> patterns;
  ExprPtr guard;  // may be null (= true)
};

enum class Quantifier { Exists, ForAll };

/// One satisfying assignment of a query: the environment at match time
/// (parameters, lets, and quantified variables all bound) plus the tuple
/// instances tagged for retraction.
struct QueryMatch {
  Env binding;
  std::vector<std::pair<IndexKey, TupleId>> retract;
  /// Every instance the match bound (retract-tagged or not) — the read
  /// set the serializability checker validates a commit against.
  std::vector<TupleId> reads;
};

/// Result of evaluating a query. For Exists: success implies exactly one
/// match. For ForAll: success with zero or more matches (zero = vacuous);
/// effects are applied per match (§3.3 Label retracts *all* thresholds).
struct QueryOutcome {
  bool success = false;
  std::vector<QueryMatch> matches;
};

/// A complete SDL query. Build, then resolve() once against the owning
/// symbol table, then evaluate any number of times.
class Query {
 public:
  Quantifier quantifier = Quantifier::Exists;
  /// Names declared by the quantifier list (transaction-local variables,
  /// the paper's Greek letters). Their slots are cleared before every
  /// evaluation; all other referenced names are process-persistent.
  std::vector<std::string> local_vars;
  std::vector<TuplePattern> patterns;
  ExprPtr guard;  // may be null (= true)
  std::vector<NegatedGroup> negations;
  /// Join planning: when true (default) the compiled join order greedily
  /// picks, at each depth, an unmatched pattern that is *ready* (every
  /// variable its computed fields read is bound) with the narrowest index
  /// probe (exact bucket before arity-wide). This is purely an
  /// execution-order choice — conjunction is symmetric — but it turns e.g.
  /// "[*-head], [pinned-head]" from a full scan into a probe, and makes
  /// patterns with computed fields order-independent for the programmer.
  /// Disable for the E13 ablation or to get strict textual-order
  /// evaluation.
  bool use_planner = true;

  /// Interns names and resolves expressions. Call exactly once.
  void resolve(SymbolTable& symtab);

  /// Evaluates against `source` with the process environment `env`, by
  /// running the cached match program for env's binding signature
  /// (src/query/compile.hpp). Throws std::logic_error before resolve().
  /// `env` is used as working storage: local slots are cleared on entry;
  /// on Exists-success, env retains the successful binding (so subsequent
  /// action expressions can read the quantified variables). On failure and
  /// for ForAll, env's local slots are left cleared.
  [[nodiscard]] QueryOutcome evaluate(const TupleSource& source, Env& env,
                                      const FunctionRegistry* fns) const;

  /// Conservative set of index constraints this query may read, used for
  /// shard locking and delayed-transaction subscriptions. Computed with
  /// only process-persistent bindings available.
  [[nodiscard]] std::vector<KeySpec> read_set(const Env& env,
                                              const FunctionRegistry* fns) const;

  [[nodiscard]] std::string to_string() const;

  /// Seeded satisfiability check — the delta-driven wakeup path
  /// (src/query/incremental.hpp). Behaves like `evaluate(...).success`
  /// for a monotone Exists query except that pattern `seed_idx` draws its
  /// candidates from `seeds` (live records from the accumulated commit
  /// delta) instead of scanning the source; every other pattern scans the
  /// full window, so assignments combining several new tuples are still
  /// found via whichever of them seeds. Bindings never escape (`env`'s
  /// local slots are left cleared) — a positive answer falls through to
  /// the full execute(), which rebinds identically. Conservatively
  /// returns true (= take the full path) outside the monotone fragment.
  /// Throws std::logic_error before resolve().
  /// Caller must hold the engine's read locks covering the query's read
  /// set; `seeds` must point into live index nodes under those locks.
  [[nodiscard]] bool satisfiable_seeded(
      const TupleSource& source, Env& env, const FunctionRegistry* fns,
      std::size_t seed_idx, const std::vector<const Record*>& seeds) const;

  /// True when the query has no patterns and no negations (a pure guard,
  /// like Sum1's "k mod 2^(j+1) = 0" consensus conditions).
  [[nodiscard]] bool pure_guard() const {
    return patterns.empty() && negations.empty();
  }

  /// Resets this query's quantified-variable slots in `env` to unbound.
  /// Engines call this before computing read_set so that stale bindings
  /// from a previous evaluation cannot narrow the lock/subscription set.
  void clear_locals(Env& env) const;

 private:
  std::vector<int> local_slots_;  // filled by resolve()
  /// Compiled-plan cache, created by resolve(); shared by copies of this
  /// query (copies have the identical resolved shape). Null before
  /// resolve().
  std::shared_ptr<PlanCache> plan_cache_;
};

}  // namespace sdl
