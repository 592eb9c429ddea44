#include "query/compile.hpp"

#include <algorithm>
#include <unordered_set>

namespace sdl {

PlanCacheStats& plan_cache_stats() {
  static PlanCacheStats stats;
  return stats;
}

namespace {
std::atomic<bool> g_compiler_enabled{true};
}  // namespace

bool query_compiler_enabled() {
  return g_compiler_enabled.load(std::memory_order_relaxed);
}
void set_query_compiler_enabled(bool on) {
  g_compiler_enabled.store(on, std::memory_order_relaxed);
}

// ---- Shape analysis ----

namespace {

/// A pattern is compilable when every term's match behaviour is a pure
/// function of slot BOUNDNESS: wildcards, variables, and literal
/// constants. A computed Expr term (x+1 in a field) is value-dependent —
/// its try_eval can fail on bound-but-ill-typed values, which would make
/// the interpreter's planner rank it differently than a static plan.
bool terms_compilable(const std::vector<TuplePattern>& patterns) {
  for (const TuplePattern& p : patterns) {
    for (const Term& t : p.terms()) {
      if (t.kind == Term::Kind::Expr && t.expr->op() != Expr::Op::Const) {
        return false;
      }
    }
  }
  return true;
}

void collect_var_slots(const std::vector<TuplePattern>& patterns,
                       std::vector<std::int32_t>& out) {
  for (const TuplePattern& p : patterns) {
    for (const Term& t : p.terms()) {
      if (t.kind != Term::Kind::Var || t.slot < 0) continue;
      if (std::find(out.begin(), out.end(), t.slot) == out.end()) {
        out.push_back(t.slot);
      }
    }
  }
}

}  // namespace

bool query_shape_compilable(const Query& q) {
  if (!terms_compilable(q.patterns)) return false;
  for (const NegatedGroup& g : q.negations) {
    if (!terms_compilable(g.patterns)) return false;
  }
  std::vector<std::int32_t> slots;
  collect_var_slots(q.patterns, slots);
  for (const NegatedGroup& g : q.negations) collect_var_slots(g.patterns, slots);
  return slots.size() <= 64;  // signature is one std::uint64_t
}

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

bool exact_sim(const TuplePattern& p, const BoundSet& bound) {
  if (p.terms().empty()) return true;  // key_spec: Exact{0,0}
  const Term& head = p.terms().front();
  switch (head.kind) {
    case Term::Kind::Wildcard: return false;
    case Term::Kind::Var: return bound.count(head.slot) != 0;
    case Term::Kind::Expr: return true;  // literal (shape-checked)
  }
  return false;
}

/// Replays JoinEnumerator::pick_next under static boundness. In the
/// compilable fragment every pattern is always ready (literal Expr terms
/// evaluate unconditionally), so the interpreter's rank-2 branch cannot
/// fire and rank is -1 (seed) / 0 (exact) / 1 (arity) — determined
/// entirely by `bound`. The early-break conditions are copied verbatim:
/// they affect which of several rank-0 patterns wins.
std::size_t pick_sim(const std::vector<TuplePattern>& patterns,
                     const std::vector<bool>& done, const BoundSet& bound,
                     bool planner, std::size_t seed_idx) {
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
    if (i == seed_idx) {
      rank = -1;
    } else {
      rank = exact_sim(patterns[i], bound) ? 0 : 1;
    }
    if (rank < best_rank) {
      best_rank = rank;
      best = i;
      if (rank < 0 || (rank == 0 && seed_idx == PlanCache::kNoSeed)) break;
    }
  }
  return best;
}

/// Fixes the join order and flattens each pattern, threading the simulated
/// bound-slot set (callers pass it on to negation compilation).
std::vector<StepPlan> compile_join(const std::vector<TuplePattern>& patterns,
                                   bool planner, std::size_t seed_idx,
                                   BoundSet& bound) {
  std::vector<StepPlan> steps;
  steps.reserve(patterns.size());
  std::vector<bool> done(patterns.size(), false);
  for (std::size_t depth = 0; depth < patterns.size(); ++depth) {
    const std::size_t idx = pick_sim(patterns, done, bound, planner, seed_idx);
    const TuplePattern& p = patterns[idx];
    StepPlan sp;
    sp.pattern_idx = idx;
    sp.arity = static_cast<std::uint32_t>(p.arity());

    if (idx == seed_idx) {
      sp.scan = StepPlan::Scan::Seed;
    } else if (p.terms().empty()) {
      sp.scan = StepPlan::Scan::ExactConst;
      sp.key = IndexKey{0, 0};
    } else {
      const Term& head = p.terms().front();
      switch (head.kind) {
        case Term::Kind::Expr:  // literal
          sp.scan = StepPlan::Scan::ExactConst;
          sp.key = IndexKey::of_head(p.arity(), head.expr->constant());
          break;
        case Term::Kind::Var:
          if (bound.count(head.slot) != 0) {
            sp.scan = StepPlan::Scan::ExactSlot;
            sp.head_slot = head.slot;
          } else {
            sp.scan = StepPlan::Scan::Arity;
          }
          break;
        case Term::Kind::Wildcard:
          sp.scan = StepPlan::Scan::Arity;
          break;
      }
    }

    // Secondary-index probe: only on exact scans (the interpreter consults
    // second_probe only under KeySpec::Kind::Exact), and classified with
    // the bindings as they stand BEFORE this pattern matches.
    if ((sp.scan == StepPlan::Scan::ExactConst ||
         sp.scan == StepPlan::Scan::ExactSlot) &&
        p.arity() >= 2) {
      const Term& t2 = p.terms()[1];
      if (t2.kind == Term::Kind::Expr) {  // literal
        sp.second = StepPlan::Second::Const;
        sp.second_const = t2.expr->constant();
      } else if (t2.kind == Term::Kind::Var && bound.count(t2.slot) != 0) {
        sp.second = StepPlan::Second::Slot;
        sp.second_slot = t2.slot;
      }
    }

    sp.check_arity = sp.scan == StepPlan::Scan::Seed;

    for (std::size_t f = 0; f < p.terms().size(); ++f) {
      const Term& t = p.terms()[f];
      TermOp op;
      op.field = static_cast<std::uint32_t>(f);
      switch (t.kind) {
        case Term::Kind::Wildcard:
          continue;  // no op emitted
        case Term::Kind::Expr:  // literal
          op.kind = TermOp::Kind::CheckConst;
          op.want = t.expr->constant();
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

std::shared_ptr<const MatchProgram> compile_program(
    const Query& q, std::uint64_t sig,
    const std::vector<std::int32_t>& sig_slots, std::uint64_t stats_epoch,
    std::size_t seed_idx) {
  auto prog = std::make_shared<MatchProgram>();
  prog->quantifier = q.quantifier;
  prog->pattern_count = q.patterns.size();
  prog->sig = sig;
  prog->stats_epoch = stats_epoch;
  prog->seed_idx = seed_idx;
  prog->planner = q.use_planner;
  prog->retract.reserve(q.patterns.size());
  for (const TuplePattern& p : q.patterns) {
    prog->retract.push_back(p.retract_tagged() ? 1 : 0);
  }

  BoundSet bound;
  for (std::size_t i = 0; i < sig_slots.size(); ++i) {
    if ((sig >> i) & 1u) bound.insert(sig_slots[i]);
  }
  prog->steps = compile_join(q.patterns, q.use_planner, seed_idx, bound);
  compile_expr(q.guard, prog->guard);
  prog->num_regs = prog->guard.num_regs;

  // Negations run per complete outer assignment: every outer pattern
  // variable is bound by then, which `bound` now reflects.
  for (const NegatedGroup& g : q.negations) {
    NegProgram np;
    BoundSet nb = bound;
    np.steps = compile_join(g.patterns, q.use_planner, PlanCache::kNoSeed, nb);
    compile_expr(g.guard, np.guard);
    prog->num_regs = std::max(prog->num_regs, np.guard.num_regs);
    prog->negations.push_back(std::move(np));
  }
  return prog;
}

}  // namespace

// ---- Plan cache ----

PlanCache::PlanCache(const Query& q) {
  compilable_ = query_shape_compilable(q);
  if (!compilable_) return;
  collect_var_slots(q.patterns, sig_slots_);
  for (const NegatedGroup& g : q.negations) {
    collect_var_slots(g.patterns, sig_slots_);
  }
  if (sig_slots_.size() > 64) {
    compilable_ = false;
    sig_slots_.clear();
  }
}

std::shared_ptr<const MatchProgram> PlanCache::acquire(
    const Query& q, const Env& env, std::uint64_t stats_epoch,
    std::size_t seed_idx) {
  PlanCacheStats& stats = plan_cache_stats();
  if (!compilable_) {
    stats.bailouts.add();
    return nullptr;
  }
  std::uint64_t sig = 0;
  for (std::size_t i = 0; i < sig_slots_.size(); ++i) {
    const auto slot = static_cast<std::size_t>(sig_slots_[i]);
    if (slot < env.size() && !env[slot].is_nil()) sig |= std::uint64_t{1} << i;
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const MatchProgram& e = **it;
    if (e.sig != sig || e.seed_idx != seed_idx || e.planner != q.use_planner) {
      continue;
    }
    if (e.stats_epoch != stats_epoch) {
      // Index statistics drifted (bucket table resized) since this plan
      // was built — drop it and recompile below.
      entries_.erase(it);
      stats.invalidations.add();
      break;
    }
    stats.hits.add();
    return *it;
  }
  stats.misses.add();
  stats.compiles.add();
  auto prog = compile_program(q, sig, sig_slots_, stats_epoch, seed_idx);
  if (entries_.size() >= 16) entries_.erase(entries_.begin());
  entries_.push_back(prog);
  return prog;
}

// ---- Execution ----

namespace {

/// Per-evaluation machine state. Mirrors JoinEnumerator's bookkeeping:
/// `undo` is the shared binding log (negation searches splice their own
/// marks into it), `regs` is the register file every ExprProgram reuses.
struct Execution {
  const MatchProgram& prog;
  const TupleSource& source;
  Env& env;
  const FunctionRegistry* fns;
  const std::vector<const Record*>* seeds;
  std::vector<std::int32_t> undo;
  std::vector<Value> regs;

  Execution(const MatchProgram& p, const TupleSource& s, Env& e,
            const FunctionRegistry* f, const std::vector<const Record*>* sd)
      : prog(p),
        source(s),
        env(e),
        fns(f),
        seeds(sd),
        regs(static_cast<std::size_t>(p.num_regs)) {}

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

  static bool already_chosen(const std::vector<const Record*>& chosen,
                             TupleId id) {
    for (const Record* r : chosen) {
      if (r != nullptr && r->id == id) return true;
    }
    return false;
  }

  /// One linear pass over the candidate; on reject, bindings this
  /// candidate made are already undone.
  bool match_candidate(const StepPlan& sp, const Tuple& t) {
    if (sp.check_arity && t.arity() != sp.arity) return false;
    const std::size_t mark = undo.size();
    for (const TermOp& op : sp.ops) {
      const Value& field = t[op.field];
      switch (op.kind) {
        case TermOp::Kind::Skip:
          break;
        case TermOp::Kind::CheckConst:
          if (field != op.want) {
            undo_to(mark);
            return false;
          }
          break;
        case TermOp::Kind::Bind:
          env[static_cast<std::size_t>(op.slot)] = field;
          undo.push_back(op.slot);
          break;
        case TermOp::Kind::Check:
          if (env[static_cast<std::size_t>(op.slot)] != field) {
            undo_to(mark);
            return false;
          }
          break;
      }
    }
    return true;
  }

  /// Runs the join from `depth`; returns false iff `cb` stopped it.
  template <typename CB>
  bool run_steps(const std::vector<StepPlan>& steps,  // NOLINT(misc-no-recursion)
                 std::vector<const Record*>& chosen, std::size_t depth,
                 const CB& cb) {
    if (depth == steps.size()) return cb();
    const StepPlan& sp = steps[depth];
    bool keep_going = true;
    auto try_record = [&](const Record& r) -> bool {
      if (already_chosen(chosen, r.id)) return true;
      const std::size_t mark = undo.size();
      if (match_candidate(sp, r.tuple)) {
        chosen[sp.pattern_idx] = &r;
        keep_going = run_steps(steps, chosen, depth + 1, cb);
        if (keep_going) {
          chosen[sp.pattern_idx] = nullptr;
          undo_to(mark);
        }
      }
      return keep_going;
    };

    switch (sp.scan) {
      case StepPlan::Scan::Seed:
        for (const Record* r : *seeds) {
          if (!try_record(*r)) break;
        }
        return keep_going;
      case StepPlan::Scan::ExactConst:
      case StepPlan::Scan::ExactSlot: {
        const IndexKey key =
            sp.scan == StepPlan::Scan::ExactConst
                ? sp.key
                : IndexKey::of_head(
                      sp.arity,
                      env[static_cast<std::size_t>(sp.head_slot)]);
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
    std::vector<const Record*> nchosen(np.steps.size(), nullptr);
    const std::size_t mark = undo.size();
    bool witness = false;
    run_steps(np.steps, nchosen, 0, [&]() -> bool {
      if (!guard_pass(np.guard)) return true;
      witness = true;
      return false;
    });
    undo_to(mark);
    return !witness;
  }
};

QueryMatch build_match(const MatchProgram& prog,
                       const std::vector<const Record*>& chosen,
                       const Env& env) {
  QueryMatch m;
  m.binding = env;
  for (std::size_t i = 0; i < prog.pattern_count; ++i) {
    if (chosen[i] == nullptr) continue;
    m.reads.push_back(chosen[i]->id);
    if (prog.retract[i] != 0) {
      m.retract.emplace_back(IndexKey::of(chosen[i]->tuple), chosen[i]->id);
    }
  }
  return m;
}

}  // namespace

QueryOutcome vm_execute(const MatchProgram& prog, const TupleSource& source,
                        Env& env, const FunctionRegistry* fns) {
  Execution ex(prog, source, env, fns, nullptr);
  QueryOutcome out;
  std::vector<const Record*> chosen(prog.pattern_count, nullptr);

  if (prog.quantifier == Quantifier::Exists) {
    const bool stopped = !ex.run_steps(prog.steps, chosen, 0, [&]() -> bool {
      if (!ex.guard_pass(prog.guard)) return true;
      for (const NegProgram& np : prog.negations) {
        if (!ex.negation_holds(np)) return true;
      }
      out.matches.push_back(build_match(prog, chosen, env));
      return false;  // first satisfying assignment wins
    });
    // A stopped enumeration leaves the winning bindings in env, exactly
    // like the interpreter; a completed one has fully backtracked.
    out.success = stopped;
    return out;
  }

  bool violated = false;
  ex.run_steps(prog.steps, chosen, 0, [&]() -> bool {
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
    out.matches.push_back(build_match(prog, chosen, env));
    return true;
  });
  if (violated) {
    out.matches.clear();
    ex.undo_to(0);  // the stopped enumeration must not leak its bindings
  }
  out.success = !violated;
  return out;
}

bool vm_satisfiable_seeded(const MatchProgram& prog, const TupleSource& source,
                           Env& env, const FunctionRegistry* fns,
                           const std::vector<const Record*>& seeds) {
  Execution ex(prog, source, env, fns, &seeds);
  std::vector<const Record*> chosen(prog.pattern_count, nullptr);
  bool witness = false;
  ex.run_steps(prog.steps, chosen, 0, [&]() -> bool {
    if (!ex.guard_pass(prog.guard)) return true;
    witness = true;
    return false;
  });
  ex.undo_to(0);  // bindings never escape the seeded check
  return witness;
}

}  // namespace sdl
