#include "query/compile.hpp"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "core/epoch.hpp"

namespace sdl {

PlanCacheStats& plan_cache_stats() {
  static PlanCacheStats stats;
  return stats;
}

// ---- Signature slots ----

namespace {

/// True for a pattern term computed from variables or calls at match time
/// (a literal Expr term is a compile-time constant).
bool computed(const Term& t) {
  return t.kind == Term::Kind::Expr && t.expr->op() != Expr::Op::Const;
}

void add_slot(std::int32_t slot, std::vector<std::int32_t>& out) {
  if (slot >= 0 && std::find(out.begin(), out.end(), slot) == out.end()) {
    out.push_back(slot);
  }
}

/// Appends every variable slot `e` reads.
void expr_reads(const Expr& e, std::vector<std::int32_t>& out) {  // NOLINT(misc-no-recursion)
  if (e.op() == Expr::Op::Var) add_slot(e.slot(), out);
  for (const ExprPtr& c : e.children()) expr_reads(*c, out);
}

/// Pattern-variable slots plus the slots computed terms read: exactly the
/// slots whose boundness the planner's readiness and scan choices see.
void collect_sig_slots(const std::vector<TuplePattern>& patterns,
                       std::vector<std::int32_t>& out) {
  for (const TuplePattern& p : patterns) {
    for (const Term& t : p.terms()) {
      if (t.kind == Term::Kind::Var) add_slot(t.slot, out);
      if (computed(t)) expr_reads(*t.expr, out);
    }
  }
}

}  // namespace

// ---- Expression compilation ----

namespace {

class ExprCompiler {
 public:
  explicit ExprCompiler(vm::ExprProgram& prog) : prog_(prog) {}

  void compile(const Expr& e) {
    const std::int32_t result = operand_of(e, 0);
    emit(vm::Instr::Op::Return, 0, result, 0);
  }

 private:
  void touch(std::int32_t reg) {
    prog_.num_regs = std::max(prog_.num_regs, reg + 1);
  }

  std::size_t emit(vm::Instr::Op op, std::int32_t dst, std::int32_t a,
                   std::int32_t b, std::int32_t fn = -1) {
    prog_.code.push_back(vm::Instr{op, dst, a, b, fn});
    return prog_.code.size() - 1;
  }

  /// Pools `v`, returning its negative operand code.
  std::int32_t const_code(const Value& v) {
    for (std::size_t i = 0; i < prog_.consts.size(); ++i) {
      if (prog_.consts[i].kind() == v.kind() && prog_.consts[i] == v) {
        return -1 - static_cast<std::int32_t>(i);
      }
    }
    prog_.consts.push_back(v);
    return -1 - static_cast<std::int32_t>(prog_.consts.size() - 1);
  }

  std::int32_t fn_index(const std::string& name) {
    for (std::size_t i = 0; i < prog_.fn_names.size(); ++i) {
      if (prog_.fn_names[i] == name) return static_cast<std::int32_t>(i);
    }
    prog_.fn_names.push_back(name);
    return static_cast<std::int32_t>(prog_.fn_names.size() - 1);
  }

  /// Emits code leaving e's value reachable via the returned operand code:
  /// a constant-pool reference (no code) or register `dst`.
  std::int32_t operand_of(const Expr& e, std::int32_t dst) {  // NOLINT(misc-no-recursion)
    touch(dst);
    using Op = vm::Instr::Op;
    switch (e.op()) {
      case Expr::Op::Const:
        return const_code(e.constant());
      case Expr::Op::Var:
        emit(Op::LoadVar, dst, e.slot(), 0);
        return dst;
      case Expr::Op::Neg: {
        const std::int32_t a = operand_of(*e.children()[0], dst);
        emit(Op::Neg, dst, a, 0);
        return dst;
      }
      case Expr::Op::Not: {
        const std::int32_t a = operand_of(*e.children()[0], dst);
        emit(Op::NotOp, dst, a, 0);
        return dst;
      }
      case Expr::Op::And: {
        const std::int32_t a = operand_of(*e.children()[0], dst);
        emit(Op::Test, dst, a, 0);
        const std::size_t jf = emit(Op::JumpIfFalse, 0, dst, 0);
        const std::int32_t b = operand_of(*e.children()[1], dst);
        emit(Op::Test, dst, b, 0);
        prog_.code[jf].b = static_cast<std::int32_t>(prog_.code.size());
        return dst;
      }
      case Expr::Op::Or: {
        const std::int32_t a = operand_of(*e.children()[0], dst);
        emit(Op::Test, dst, a, 0);
        const std::size_t jt = emit(Op::JumpIfTrue, 0, dst, 0);
        const std::int32_t b = operand_of(*e.children()[1], dst);
        emit(Op::Test, dst, b, 0);
        prog_.code[jt].b = static_cast<std::int32_t>(prog_.code.size());
        return dst;
      }
      case Expr::Op::Add: case Expr::Op::Sub: case Expr::Op::Mul:
      case Expr::Op::Div: case Expr::Op::Mod: case Expr::Op::Pow: {
        static constexpr Op kMap[] = {Op::Add, Op::Sub, Op::Mul,
                                      Op::Div, Op::Mod, Op::Pow};
        const Op op = kMap[static_cast<int>(e.op()) -
                           static_cast<int>(Expr::Op::Add)];
        const std::int32_t a = operand_of(*e.children()[0], dst);
        const std::int32_t b =
            operand_of(*e.children()[1], a == dst ? dst + 1 : dst);
        emit(op, dst, a, b);
        return dst;
      }
      case Expr::Op::Eq: case Expr::Op::Ne: case Expr::Op::Lt:
      case Expr::Op::Le: case Expr::Op::Gt: case Expr::Op::Ge: {
        static constexpr Op kMap[] = {Op::Eq, Op::Ne, Op::Lt,
                                      Op::Le, Op::Gt, Op::Ge};
        const Op op =
            kMap[static_cast<int>(e.op()) - static_cast<int>(Expr::Op::Eq)];
        const std::int32_t a = operand_of(*e.children()[0], dst);
        const std::int32_t b =
            operand_of(*e.children()[1], a == dst ? dst + 1 : dst);
        emit(op, dst, a, b);
        return dst;
      }
      case Expr::Op::Call: {
        // Arguments are gathered into contiguous registers starting past
        // dst so the host function sees one span.
        const std::int32_t base = dst;
        const auto n = static_cast<std::int32_t>(e.children().size());
        for (std::int32_t i = 0; i < n; ++i) {
          const std::int32_t slot = base + i;
          touch(slot);
          const std::int32_t o = operand_of(*e.children()[i], slot);
          if (o != slot) emit(Op::Move, slot, o, 0);
        }
        emit(Op::Call, dst, base, n, fn_index(e.name()));
        return dst;
      }
    }
    return dst;  // unreachable
  }

  vm::ExprProgram& prog_;
};

}  // namespace

void compile_expr(const ExprPtr& e, vm::ExprProgram& out) {
  if (!e) return;  // absent guard: empty program = always true
  ExprCompiler(out).compile(*e);
}

// ---- Join compilation ----

namespace {

using BoundSet = std::unordered_set<std::int32_t>;

/// A term's value is available before its pattern matches: literals and
/// wildcards trivially, variables when bound, computed terms when every
/// variable they read is bound.
bool term_ready(const Term& t, const BoundSet& bound) {
  switch (t.kind) {
    case Term::Kind::Wildcard: return true;
    case Term::Kind::Var: return bound.count(t.slot) != 0;
    case Term::Kind::Expr: break;
  }
  std::vector<std::int32_t> reads;
  expr_reads(*t.expr, reads);
  return std::all_of(reads.begin(), reads.end(),
                      [&](std::int32_t s) { return bound.count(s) != 0; });
}

/// The planner's readiness: every computed term evaluable under `bound`.
bool ready_sim(const TuplePattern& p, const BoundSet& bound) {
  return std::all_of(p.terms().begin(), p.terms().end(), [&](const Term& t) {
    return t.kind != Term::Kind::Expr || term_ready(t, bound);
  });
}

bool exact_sim(const TuplePattern& p, const BoundSet& bound) {
  if (p.terms().empty()) return true;  // key_spec: Exact{0,0}
  const Term& head = p.terms().front();
  return head.kind != Term::Kind::Wildcard && term_ready(head, bound);
}

/// Replays the tree-walking planner's pick loop (reference_eval.cpp) under
/// static boundness: rank 0 for a ready exact probe, 1 for a ready arity
/// sweep, 2 for a pattern that is not ready (a computed term reads a slot
/// that is still unbound; matching it can still succeed when its own
/// earlier fields bind those slots, as in [x, x+1]). The early break is
/// copied verbatim: it decides which of several rank-0 patterns wins.
std::size_t pick_sim(const std::vector<TuplePattern>& patterns,
                     const std::vector<bool>& done, const BoundSet& bound,
                     bool planner) {
  if (!planner) {
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      if (!done[i]) return i;
    }
    return patterns.size();
  }
  std::size_t best = patterns.size();
  int best_rank = 99;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (done[i]) continue;
    int rank;
    if (!ready_sim(patterns[i], bound)) {
      rank = 2;
    } else {
      rank = exact_sim(patterns[i], bound) ? 0 : 1;
    }
    if (rank < best_rank) {
      best_rank = rank;
      best = i;
      if (rank == 0) break;
    }
  }
  return best;
}

/// Fixes the join order and flattens each pattern, threading the simulated
/// bound-slot set (callers pass it on to negation compilation).
std::vector<StepPlan> compile_join(const std::vector<TuplePattern>& patterns,
                                   bool planner, BoundSet& bound) {
  std::vector<StepPlan> steps;
  steps.reserve(patterns.size());
  std::vector<bool> done(patterns.size(), false);
  for (std::size_t depth = 0; depth < patterns.size(); ++depth) {
    const std::size_t idx = pick_sim(patterns, done, bound, planner);
    const TuplePattern& p = patterns[idx];
    StepPlan sp;
    sp.pattern_idx = idx;
    sp.arity = static_cast<std::uint32_t>(p.arity());
    if (std::any_of(p.terms().begin(), p.terms().end(), computed)) {
      sp.exprs.resize(p.arity());
      for (std::size_t f = 0; f < p.arity(); ++f) {
        if (computed(p.terms()[f])) compile_expr(p.terms()[f].expr, sp.exprs[f]);
      }
    }

    // Scan and secondary probe are classified with the bindings as they
    // stand BEFORE this pattern matches, per term: a computed head or
    // field 1 pins the probe only when every slot it reads is bound.
    if (p.terms().empty()) {
      sp.scan = StepPlan::Scan::ExactConst;
      sp.key = IndexKey{0, 0};
    } else if (!exact_sim(p, bound)) {
      sp.scan = StepPlan::Scan::Arity;
    } else {
      const Term& head = p.terms().front();
      if (head.kind == Term::Kind::Var) {
        sp.scan = StepPlan::Scan::ExactSlot;
        sp.head_slot = head.slot;
      } else if (computed(head)) {
        sp.scan = StepPlan::Scan::ExactExpr;
      } else {
        sp.scan = StepPlan::Scan::ExactConst;
        sp.key = IndexKey::of_head(p.arity(), head.expr->constant());
      }
    }

    // Secondary-index probe: only on exact scans (the tree-walking
    // evaluator consults second_probe only under KeySpec::Kind::Exact).
    if (sp.scan != StepPlan::Scan::Arity && p.arity() >= 2) {
      const Term& t2 = p.terms()[1];
      if (t2.kind != Term::Kind::Wildcard && term_ready(t2, bound)) {
        if (t2.kind == Term::Kind::Var) {
          sp.second = StepPlan::Second::Slot;
          sp.second_slot = t2.slot;
        } else if (computed(t2)) {
          sp.second = StepPlan::Second::Expr;
        } else {
          sp.second = StepPlan::Second::Const;
          sp.second_const = t2.expr->constant();
        }
      }
    }

    for (std::size_t f = 0; f < p.terms().size(); ++f) {
      const Term& t = p.terms()[f];
      TermOp op;
      op.field = static_cast<std::uint32_t>(f);
      switch (t.kind) {
        case Term::Kind::Wildcard:
          continue;  // no op emitted
        case Term::Kind::Expr:
          if (computed(t)) {
            op.kind = TermOp::Kind::CheckExpr;
          } else {
            op.kind = TermOp::Kind::CheckConst;
            op.want = t.expr->constant();
          }
          break;
        case Term::Kind::Var:
          op.slot = t.slot;
          if (bound.count(t.slot) != 0) {
            op.kind = TermOp::Kind::Check;
          } else {
            op.kind = TermOp::Kind::Bind;
            bound.insert(t.slot);  // later terms/patterns see it bound
          }
          break;
      }
      // A secondary probe already verified field 1 against the probe
      // value (scan_key_second compares the actual field, not the hash),
      // so this step's field-1 equality op is compiled out. The head op
      // always stays: bucket keys hold the head's HASH, and a collision
      // would otherwise admit a wrong-headed tuple.
      if (f == 1 && sp.second != StepPlan::Second::None) continue;
      sp.ops.push_back(std::move(op));
    }

    steps.push_back(std::move(sp));
    done[idx] = true;
  }
  return steps;
}

int max_regs(const std::vector<StepPlan>& steps, const vm::ExprProgram& guard) {
  int n = guard.num_regs;
  for (const StepPlan& sp : steps) {
    for (const vm::ExprProgram& e : sp.exprs) n = std::max(n, e.num_regs);
  }
  return n;
}

std::unique_ptr<MatchProgram> compile_program(
    const Query& q, const BindingSignature& sig,
    const std::vector<std::int32_t>& sig_slots, std::uint64_t stats_epoch) {
  auto prog = std::make_unique<MatchProgram>();
  prog->quantifier = q.quantifier;
  prog->pattern_count = q.patterns.size();
  prog->sig = sig;
  prog->stats_epoch = stats_epoch;
  prog->planner = q.use_planner;
  prog->retract.reserve(q.patterns.size());
  for (const TuplePattern& p : q.patterns) {
    prog->retract.push_back(p.retract_tagged() ? 1 : 0);
  }

  BoundSet bound;
  for (std::size_t i = 0; i < sig_slots.size(); ++i) {
    if (sig.test(i)) bound.insert(sig_slots[i]);
  }
  prog->steps = compile_join(q.patterns, q.use_planner, bound);
  compile_expr(q.guard, prog->guard);
  prog->num_regs = max_regs(prog->steps, prog->guard);

  // Negations run per complete outer assignment: every outer pattern
  // variable is bound by then, which `bound` now reflects.
  std::size_t widest_negation = 0;
  for (const NegatedGroup& g : q.negations) {
    NegProgram np;
    BoundSet nb = bound;
    np.steps = compile_join(g.patterns, q.use_planner, nb);
    compile_expr(g.guard, np.guard);
    prog->num_regs = std::max(prog->num_regs, max_regs(np.steps, np.guard));
    widest_negation = std::max(widest_negation, np.steps.size());
    prog->negations.push_back(std::move(np));
  }
  prog->chosen_slots = prog->pattern_count + widest_negation;
  return prog;
}

}  // namespace

// ---- Plan cache ----

namespace {

void delete_program(void* p) { delete static_cast<const MatchProgram*>(p); }

}  // namespace

PlanCache::PlanCache(const Query& q) : snapshot_(new Snapshot) {
  collect_sig_slots(q.patterns, sig_slots_);
  for (const NegatedGroup& g : q.negations) {
    collect_sig_slots(g.patterns, sig_slots_);
  }
}

PlanCache::~PlanCache() {
  // The owning query is going away, so nobody can be evaluating it: the
  // live snapshot and its programs are freed directly. Anything retired
  // earlier is still the reclamation layer's to free.
  const Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < snap->size; ++i) delete snap->entries[i];
  delete snap;
}

const MatchProgram* PlanCache::find(const Snapshot& snap,
                                    const BindingSignature& sig,
                                    bool planner) {
  for (std::size_t i = 0; i < snap.size; ++i) {
    const MatchProgram* e = snap.entries[i];
    if (e->sig == sig && e->planner == planner) return e;
  }
  return nullptr;
}

const MatchProgram* PlanCache::acquire(const Query& q, const Env& env,
                                       std::uint64_t stats_epoch) {
  BindingSignature sig;
  if (sig_slots_.size() > 64) sig.high.resize((sig_slots_.size() - 1) / 64);
  for (std::size_t i = 0; i < sig_slots_.size(); ++i) {
    const auto slot = static_cast<std::size_t>(sig_slots_[i]);
    if (slot < env.size() && !env[slot].is_nil()) sig.set(i);
  }
  // The hit path: one acquire load of the published snapshot. The
  // caller's Guard keeps it, and the program returned from it, alive.
  const MatchProgram* hit = find(*snapshot_.load(std::memory_order_acquire),
                                 sig, q.use_planner);
  if (hit != nullptr && hit->stats_epoch == stats_epoch) {
    plan_cache_stats().hits.add();
    return hit;
  }
  return compile_and_publish(q, sig, stats_epoch);
}

const MatchProgram* PlanCache::compile_and_publish(const Query& q,
                                                   const BindingSignature& sig,
                                                   std::uint64_t stats_epoch) {
  PlanCacheStats& stats = plan_cache_stats();
  std::lock_guard<std::mutex> lock(mu_);
  // Writers are serialized here, so the snapshot cannot change under us.
  const Snapshot* cur = snapshot_.load(std::memory_order_relaxed);
  const MatchProgram* raced = find(*cur, sig, q.use_planner);
  if (raced != nullptr && raced->stats_epoch == stats_epoch) {
    // Another thread compiled this key while we waited for the lock.
    stats.hits.add();
    return raced;
  }

  // Compile before touching the entries: if compilation throws, the
  // published snapshot and everything it points to stay intact.
  std::unique_ptr<const MatchProgram> prog =
      compile_program(q, sig, sig_slots_, stats_epoch);
  stats.misses.add();
  stats.compiles.add();

  // The new snapshot drops the stale entry for this key (index
  // statistics drifted since it was built) and, when full, the oldest.
  auto next = std::make_unique<Snapshot>();
  const MatchProgram* evicted = nullptr;
  for (std::size_t i = 0; i < cur->size; ++i) {
    if (cur->entries[i] != raced) next->entries[next->size++] = cur->entries[i];
  }
  if (next->size == kCapacity) {
    evicted = next->entries[0];
    std::copy(next->entries.begin() + 1, next->entries.end(),
              next->entries.begin());
    --next->size;
  }
  next->entries[next->size++] = prog.get();
  snapshot_.store(next.release(), std::memory_order_release);

  // Only now unreachable for new readers: retire what was dropped.
  for (const MatchProgram* dropped : {raced, evicted}) {
    if (dropped != nullptr) {
      epoch::retire(const_cast<MatchProgram*>(dropped), delete_program);
    }
  }
  if (raced != nullptr) stats.invalidations.add();
  epoch::retire(const_cast<Snapshot*>(cur),
                [](void* p) { delete static_cast<Snapshot*>(p); });
  return prog.release();
}

// ---- Execution ----

namespace {

/// Working storage of one execution: the binding undo log, the register
/// file every ExprProgram reuses, and the join's chosen-record slots.
/// Reused across evaluations on a thread, so a warm evaluation allocates
/// none of them.
struct Scratch {
  std::vector<std::int32_t> undo;
  std::vector<Value> regs;
  std::vector<const Record*> chosen;
};

/// Leases this thread's scratch for one execution. Re-entrant: an
/// execution started while another is live on the same thread (a host
/// function that evaluates a query) gets the next frame down the stack.
class ScratchLease {
 public:
  ScratchLease() {
    if (depth_ == frames_.size()) {
      frames_.push_back(std::make_unique<Scratch>());
    }
    scratch_ = frames_[depth_++].get();
  }
  ~ScratchLease() { --depth_; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  [[nodiscard]] Scratch& get() const { return *scratch_; }

 private:
  static thread_local std::vector<std::unique_ptr<Scratch>> frames_;
  static thread_local std::size_t depth_;
  Scratch* scratch_;
};

thread_local std::vector<std::unique_ptr<Scratch>> ScratchLease::frames_;
thread_local std::size_t ScratchLease::depth_ = 0;

/// Per-evaluation machine state. `undo` is the shared binding log
/// (negation searches splice their own marks into it), `regs` is the
/// register file, `chosen` the outer join's record per pattern followed
/// by the slots the current negation search uses.
struct Execution {
  const MatchProgram& prog;
  const TupleSource& source;
  Env& env;
  const FunctionRegistry* fns;
  ScratchLease lease;
  std::vector<std::int32_t>& undo;
  std::span<Value> regs;
  std::span<const Record*> chosen;      // outer join, by pattern index
  std::span<const Record*> neg_chosen;  // the running negation's join

  Execution(const MatchProgram& p, const TupleSource& s, Env& e,
            const FunctionRegistry* f)
      : prog(p), source(s), env(e), fns(f), undo(lease.get().undo) {
    Scratch& sc = lease.get();
    undo.clear();
    const auto nregs = static_cast<std::size_t>(p.num_regs);
    if (sc.regs.size() < nregs) sc.regs.resize(nregs);
    regs = std::span<Value>(sc.regs.data(), nregs);
    sc.chosen.assign(p.chosen_slots, nullptr);
    chosen = std::span<const Record*>(sc.chosen.data(), p.pattern_count);
    neg_chosen = std::span<const Record*>(sc.chosen.data() + p.pattern_count,
                                          p.chosen_slots - p.pattern_count);
  }

  bool guard_pass(const vm::ExprProgram& g) {
    if (g.empty()) return true;
    return vm::run_guard(g, env, fns, regs);
  }

  void undo_to(std::size_t mark) {
    for (std::size_t i = mark; i < undo.size(); ++i) {
      env[static_cast<std::size_t>(undo[i])] = Value();
    }
    undo.resize(mark);
  }

  static bool already_chosen(std::span<const Record* const> picked,
                             TupleId id) {
    for (const Record* r : picked) {
      if (r != nullptr && r->id == id) return true;
    }
    return false;
  }

  /// Runs a computed term; false on any trap.
  bool compute(const vm::ExprProgram& e, Value& out) {
    vm::EvalResult r = vm::run(e, env, fns, regs);
    if (r.trap != vm::Trap::None) return false;
    out = std::move(r.value);
    return true;
  }

  /// One linear pass over the candidate; on reject, bindings this
  /// candidate made are already undone.
  bool match_candidate(const StepPlan& sp, const Tuple& t) {
    const std::size_t mark = undo.size();
    for (const TermOp& op : sp.ops) {
      const Value& field = t[op.field];
      bool ok = true;
      switch (op.kind) {
        case TermOp::Kind::CheckConst:
          ok = field == op.want;
          break;
        case TermOp::Kind::Bind:
          env[static_cast<std::size_t>(op.slot)] = field;
          undo.push_back(op.slot);
          break;
        case TermOp::Kind::Check:
          ok = env[static_cast<std::size_t>(op.slot)] == field;
          break;
        case TermOp::Kind::CheckExpr: {
          Value want;
          ok = compute(sp.exprs[op.field], want) && want == field;
          break;
        }
      }
      if (!ok) {
        undo_to(mark);
        return false;
      }
    }
    return true;
  }

  /// Runs the join from `depth`, recording each step's record in
  /// `picked` (indexed by pattern); returns false iff `cb` stopped it.
  template <typename CB>
  bool run_steps(const std::vector<StepPlan>& steps,  // NOLINT(misc-no-recursion)
                 std::span<const Record*> picked, std::size_t depth,
                 const CB& cb) {
    if (depth == steps.size()) return cb();
    const StepPlan& sp = steps[depth];
    bool keep_going = true;
    auto try_record = [&](const Record& r) -> bool {
      if (already_chosen(picked, r.id)) return true;
      const std::size_t mark = undo.size();
      if (match_candidate(sp, r.tuple)) {
        picked[sp.pattern_idx] = &r;
        keep_going = run_steps(steps, picked, depth + 1, cb);
        if (keep_going) {
          picked[sp.pattern_idx] = nullptr;
          undo_to(mark);
        }
      }
      return keep_going;
    };

    switch (sp.scan) {
      case StepPlan::Scan::ExactConst:
      case StepPlan::Scan::ExactSlot:
      case StepPlan::Scan::ExactExpr: {
        IndexKey key = sp.key;
        if (sp.scan == StepPlan::Scan::ExactSlot) {
          key = IndexKey::of_head(sp.arity,
                                  env[static_cast<std::size_t>(sp.head_slot)]);
        } else if (sp.scan == StepPlan::Scan::ExactExpr) {
          Value head;
          if (!compute(sp.exprs[0], head)) return keep_going;  // no candidates
          key = IndexKey::of_head(sp.arity, head);
        }
        switch (sp.second) {
          case StepPlan::Second::None:
            source.scan_key(key, try_record);
            break;
          case StepPlan::Second::Const:
            source.scan_key_second(key, sp.second_const, try_record);
            break;
          case StepPlan::Second::Slot:
            source.scan_key_second(
                key, env[static_cast<std::size_t>(sp.second_slot)],
                try_record);
            break;
          case StepPlan::Second::Expr: {
            Value second;
            if (!compute(sp.exprs[1], second)) return keep_going;
            source.scan_key_second(key, second, try_record);
            break;
          }
        }
        return keep_going;
      }
      case StepPlan::Scan::Arity:
        source.scan_arity(sp.arity, try_record);
        return keep_going;
    }
    return keep_going;
  }

  /// Witness search for a negated group; its bindings never escape.
  bool negation_holds(const NegProgram& np) {  // NOLINT(misc-no-recursion)
    const std::span<const Record*> picked = neg_chosen.first(np.steps.size());
    std::fill(picked.begin(), picked.end(), nullptr);
    const std::size_t mark = undo.size();
    bool witness = false;
    run_steps(np.steps, picked, 0, [&]() -> bool {
      if (!guard_pass(np.guard)) return true;
      witness = true;
      return false;
    });
    undo_to(mark);
    return !witness;
  }

  /// The match the outer join's current assignment forms. Only ForAll
  /// copies the environment: an Exists winner's binding stays in env.
  [[nodiscard]] QueryMatch build_match() const {
    QueryMatch m;
    if (prog.quantifier == Quantifier::ForAll) m.binding = env;
    m.reads.reserve(prog.pattern_count);
    for (std::size_t i = 0; i < prog.pattern_count; ++i) {
      if (chosen[i] == nullptr) continue;
      m.reads.push_back(chosen[i]->id);
      if (prog.retract[i] != 0) {
        m.retract.push_back(chosen[i]);
      }
    }
    return m;
  }
};

}  // namespace

QueryOutcome vm_execute(const MatchProgram& prog, const TupleSource& source,
                        Env& env, const FunctionRegistry* fns) {
  Execution ex(prog, source, env, fns);
  QueryOutcome out;

  if (prog.quantifier == Quantifier::Exists) {
    const bool stopped = !ex.run_steps(prog.steps, ex.chosen, 0, [&]() -> bool {
      if (!ex.guard_pass(prog.guard)) return true;
      for (const NegProgram& np : prog.negations) {
        if (!ex.negation_holds(np)) return true;
      }
      out.matches.push_back(ex.build_match());
      return false;  // first satisfying assignment wins
    });
    // A stopped enumeration leaves the winning bindings in env (action
    // expressions read them); a completed one has fully backtracked.
    out.success = stopped;
    return out;
  }

  bool violated = false;
  ex.run_steps(prog.steps, ex.chosen, 0, [&]() -> bool {
    if (!ex.guard_pass(prog.guard)) {
      violated = true;
      return false;
    }
    for (const NegProgram& np : prog.negations) {
      if (!ex.negation_holds(np)) {
        violated = true;
        return false;
      }
    }
    out.matches.push_back(ex.build_match());
    return true;
  });
  if (violated) {
    out.matches.clear();
    ex.undo_to(0);  // the stopped enumeration must not leak its bindings
  }
  out.success = !violated;
  return out;
}

}  // namespace sdl
