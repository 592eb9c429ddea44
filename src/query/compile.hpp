// Query compilation (ROADMAP item 5): lowering a resolved Query into a
// flat match program executed by the register VM (src/query/vm.hpp),
// behind a per-query plan cache.
//
// The interpreter (query.cpp) re-derives everything per evaluation: the
// greedy planner calls key_spec/try_eval per join depth, pattern matching
// re-dispatches on Term kinds per candidate, and guards walk shared_ptr
// expression trees with exceptions as the reject path. For the shapes that
// dominate SDL workloads — patterns whose terms are literal constants,
// variables, and wildcards — all of those decisions depend only on WHICH
// slots are bound at evaluation entry, never on the bound values. So we
// compile once per (binding signature, seed index, index epoch): simulate
// the planner's pick loop to fix the join order, pre-classify every scan
// (exact bucket / secondary probe / arity sweep), flatten each pattern
// into Bind/Check/CheckConst term ops, and compile guards to bytecode.
// Evaluation is then one linear pass per candidate with no exceptions and
// no re-planning.
//
// Queries with computed pattern fields (an Expr term that is not a
// literal) fall back to the interpreter: their readiness and key specs are
// value-dependent, so a static order could diverge from the interpreter's
// dynamic choice. The fallback is per-evaluation and counted
// (plan_cache_stats().bailouts) — semantics never change, only speed.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/striped_counter.hpp"
#include "query/query.hpp"
#include "query/vm.hpp"

namespace sdl {

/// One position of a flattened pattern, pre-resolved against the join
/// order's static binding state.
struct TermOp {
  enum class Kind : std::uint8_t {
    Skip,        // wildcard
    CheckConst,  // field must equal `want`
    Bind,        // slot is statically unbound here: bind it (undo-logged)
    Check,       // slot is statically bound here: field must equal env[slot]
  };
  Kind kind = Kind::Skip;
  std::uint32_t field = 0;
  std::int32_t slot = -1;
  Value want;  // CheckConst
};

/// One join step: which pattern runs at this depth, how its candidates are
/// scanned, and the term ops that accept/reject each candidate.
struct StepPlan {
  enum class Scan : std::uint8_t {
    Seed,        // candidates come from the caller's delta-seed list
    ExactConst,  // literal head: bucket key precomputed at compile time
    ExactSlot,   // variable head bound upstream: key from env[head_slot]
    Arity,       // unpinned head: arity-wide sweep
  };
  enum class Second : std::uint8_t { None, Const, Slot };

  std::size_t pattern_idx = 0;  // original (textual) pattern position
  Scan scan = Scan::Arity;
  IndexKey key;                // ExactConst
  std::int32_t head_slot = -1; // ExactSlot
  std::uint32_t arity = 0;
  /// Seed scans draw from a caller-supplied record list that may hold any
  /// arity; index scans (exact bucket or arity sweep) can only yield the
  /// step's arity, so the per-candidate check is compiled out for them.
  bool check_arity = false;
  Second second = Second::None;  // secondary-index probe (Exact scans only)
  Value second_const;
  std::int32_t second_slot = -1;
  std::vector<TermOp> ops;
};

/// A compiled negated group: witness join + optional compiled guard.
struct NegProgram {
  std::vector<StepPlan> steps;
  vm::ExprProgram guard;  // empty = always true
};

/// The complete compiled form of one Query under one binding signature.
/// Immutable after compilation; safe to execute concurrently.
struct MatchProgram {
  Quantifier quantifier = Quantifier::Exists;
  std::size_t pattern_count = 0;
  std::vector<StepPlan> steps;
  std::vector<std::uint8_t> retract;  // by original pattern index
  vm::ExprProgram guard;              // empty = always true
  std::vector<NegProgram> negations;
  int num_regs = 0;  // max register demand across all ExprPrograms

  // Cache key.
  std::uint64_t sig = 0;
  std::uint64_t stats_epoch = 0;
  std::size_t seed_idx = 0;  // PlanCache::kNoSeed when unseeded
  bool planner = true;
};

/// Cumulative plan-cache counters, exported as sdl_plan_cache_* gauges by
/// Runtime::register_gauges. Process-global: the cache itself is
/// per-query, but operators want one set of dials. Striped, because every
/// evaluation counts a hit or a bailout from whatever thread runs it.
struct PlanCacheStats {
  StripedCounter hits;
  StripedCounter misses;
  StripedCounter compiles;
  StripedCounter invalidations;  // entries dropped on epoch drift
  StripedCounter bailouts;       // evaluations interpreted instead
};
PlanCacheStats& plan_cache_stats();

/// Process-wide kill switch (default on). The E13 ablation and the
/// differential harness flip it to force the interpreter tier.
[[nodiscard]] bool query_compiler_enabled();
void set_query_compiler_enabled(bool on);

/// True when every pattern term (outer and negated) is a literal,
/// variable, or wildcard AND the query references at most 64 distinct
/// pattern-variable slots — the fragment whose plan is a pure function of
/// the binding signature. src/lang's analyzer uses this to note shapes
/// that will run interpreted.
[[nodiscard]] bool query_shape_compilable(const Query& q);

/// Per-query compiled-plan cache, created by Query::resolve and shared by
/// copies of the query (same resolved shape ⇒ same plans). Entries are
/// keyed by (binding signature, seed index, planner flag, index-statistics
/// epoch); an epoch bump — the dataspace resized a bucket table, i.e. its
/// population drifted materially — invalidates on next lookup.
class PlanCache {
 public:
  static constexpr std::size_t kNoSeed = static_cast<std::size_t>(-1);

  explicit PlanCache(const Query& q);

  /// Returns the compiled program for the current binding signature, or
  /// nullptr when the query must run interpreted (uncompilable shape).
  /// Compiles on miss. `q` must be the (shape-identical) query this cache
  /// was built from; `env` must already have locals cleared.
  [[nodiscard]] std::shared_ptr<const MatchProgram> acquire(
      const Query& q, const Env& env, std::uint64_t stats_epoch,
      std::size_t seed_idx);

 private:
  bool compilable_ = false;
  std::vector<std::int32_t> sig_slots_;  // distinct pattern-var slots, ≤ 64
  std::mutex mu_;
  std::vector<std::shared_ptr<const MatchProgram>> entries_;
};

/// Compiles `e` into `out` (appending nothing else); exposed for tests.
void compile_expr(const ExprPtr& e, vm::ExprProgram& out);

/// Executes a compiled program. `env` is working storage exactly as for
/// Query::evaluate: on Exists-success the winning binding stays in env;
/// all other outcomes leave every binding the program made undone.
[[nodiscard]] QueryOutcome vm_execute(const MatchProgram& prog,
                                      const TupleSource& source, Env& env,
                                      const FunctionRegistry* fns);

/// Seeded satisfiability on a compiled program (the PR 8 wakeup check run
/// natively): pattern prog.seed_idx draws candidates from `seeds`.
/// Bindings never escape.
[[nodiscard]] bool vm_satisfiable_seeded(const MatchProgram& prog,
                                         const TupleSource& source, Env& env,
                                         const FunctionRegistry* fns,
                                         const std::vector<const Record*>& seeds);

}  // namespace sdl
