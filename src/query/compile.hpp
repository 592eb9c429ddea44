// Query compilation: lowering a resolved Query into a flat match program
// executed by the register VM (src/query/vm.hpp), behind a per-query plan
// cache. This is the only query evaluator in src/.
//
// A tree-walking evaluator would re-derive everything per evaluation: a
// greedy planner calling key_spec/try_eval at every join depth, pattern
// matching re-dispatching on Term kinds per candidate, and guards walking
// shared_ptr expression trees with exceptions as the reject path. The
// planner's decisions depend only on WHICH slots are bound when a pattern
// is picked — a pattern is ready when every variable its computed terms
// read is bound — never on the bound values. So we compile once per
// (binding signature, seed index, planner flag, index epoch): replay the
// planner's pick loop to fix the join order, pre-classify every scan
// (exact bucket / secondary probe / arity sweep), flatten each pattern
// into term ops, and compile guards and computed terms to bytecode.
// Evaluation is then one linear pass per candidate with no exceptions and
// no re-planning.
//
// A computed term whose value traps (1/0, an ill-typed operand) where the
// plan expected a value matches nothing, so its subtree is empty; the
// tree-walking planner would have deferred the pattern instead, and its
// subtree is empty too. Readiness counts every slot a term reads, so a
// short-circuit such as `false and x` with x unbound is not ready although
// its value needs no x: the assignments found are the same, only their
// order may differ. tests/query/reference_eval.hpp keeps the tree-walking
// evaluator as the specification the differential harness checks against.
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
/// order's static binding state. Wildcards emit no op.
struct TermOp {
  enum class Kind : std::uint8_t {
    CheckConst,  // field must equal `want`
    Bind,        // slot is statically unbound here: bind it (undo-logged)
    Check,       // slot is statically bound here: field must equal env[slot]
    CheckExpr,   // computed term: field must equal StepPlan::exprs[field]'s
                 // value; a trap rejects the candidate
  };
  Kind kind = Kind::CheckConst;
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
    ExactExpr,   // computed head: key from exprs[0] at scan time (trap:
                 // no candidates)
    Arity,       // unpinned head: arity-wide sweep
  };
  // Secondary-index probe value: a literal, a slot bound upstream, or a
  // computed field 1 run at scan time (exprs[1]; trap: no candidates).
  enum class Second : std::uint8_t { None, Const, Slot, Expr };

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
  /// Computed terms' programs, indexed by field (empty entries elsewhere;
  /// the whole vector is empty when the pattern has no computed term).
  std::vector<vm::ExprProgram> exprs;
};

/// A compiled negated group: witness join + optional compiled guard.
struct NegProgram {
  std::vector<StepPlan> steps;
  vm::ExprProgram guard;  // empty = always true
};

/// Which of a query's signature slots are bound at evaluation entry: bit
/// i is PlanCache's i-th signature slot. Up to 64 slots fit in `low` and
/// `high` stays empty, so computing and comparing a signature never touches
/// the heap; wider queries spill bits 64.. into `high`.
struct BindingSignature {
  std::uint64_t low = 0;
  std::vector<std::uint64_t> high;

  [[nodiscard]] bool test(std::size_t i) const {
    const std::uint64_t w = i < 64 ? low : high[i / 64 - 1];
    return ((w >> (i % 64)) & 1u) != 0;
  }
  void set(std::size_t i) {
    (i < 64 ? low : high[i / 64 - 1]) |= std::uint64_t{1} << (i % 64);
  }
  bool operator==(const BindingSignature&) const = default;
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
  BindingSignature sig;
  std::uint64_t stats_epoch = 0;
  std::size_t seed_idx = 0;  // PlanCache::kNoSeed when unseeded
  bool planner = true;
};

/// Cumulative plan-cache counters, exported as sdl_plan_cache_* gauges by
/// Runtime::register_gauges. Process-global: the cache itself is
/// per-query, but operators want one set of dials. Striped, because every
/// evaluation counts a hit or a miss from whatever thread runs it.
struct PlanCacheStats {
  StripedCounter hits;
  StripedCounter misses;
  StripedCounter compiles;
  StripedCounter invalidations;  // entries dropped on epoch drift
  /// Always zero: every query compiles, so nothing bails out any more.
  /// Kept only because the end-to-end benchmark (sdlbench/measure.cpp)
  /// still reads it; drop it together with that reader.
  StripedCounter bailouts;
};
PlanCacheStats& plan_cache_stats();

/// Per-query compiled-plan cache, created by Query::resolve and shared by
/// copies of the query (same resolved shape ⇒ same plans). Entries are
/// keyed by (binding signature, seed index, planner flag, index-statistics
/// epoch); an epoch bump — the dataspace resized a bucket table, i.e. its
/// population drifted materially — invalidates on next lookup.
class PlanCache {
 public:
  static constexpr std::size_t kNoSeed = static_cast<std::size_t>(-1);

  explicit PlanCache(const Query& q);

  /// Returns the compiled program for the current binding signature,
  /// compiling on miss. `q` must be the (shape-identical) query this cache
  /// was built from; `env` must already have locals cleared.
  [[nodiscard]] std::shared_ptr<const MatchProgram> acquire(
      const Query& q, const Env& env, std::uint64_t stats_epoch,
      std::size_t seed_idx);

 private:
  /// Every slot whose boundness can change the plan: pattern variables and
  /// the variables computed pattern terms read (outer and negated).
  std::vector<std::int32_t> sig_slots_;
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
