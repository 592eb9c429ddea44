#include "query/reference_eval.hpp"

#include <functional>
#include <limits>
#include <stdexcept>

namespace sdl {
namespace {

/// Guard evaluation with SDL's match semantics: a guard that fails to
/// type-check against the candidate binding (e.g. ordering an atom against
/// an integer picked up from a heterogeneous bucket) rejects the candidate
/// rather than aborting the program.
bool guard_true(const ExprPtr& guard, const Env& env, const FunctionRegistry* fns) {
  if (!guard) return true;
  try {
    return guard->eval(env, fns).truthy();
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Join enumeration over a conjunction of patterns, binding distinct
/// tuple instances. Owns the choose/undo bookkeeping; `on_complete` is
/// invoked for every complete assignment and returns false to stop the
/// whole enumeration (Exists / negation-witness early exit).
class JoinEnumerator {
 public:
  /// No pattern is delta-seeded.
  static constexpr std::size_t kNoSeed = std::numeric_limits<std::size_t>::max();

  /// When `seed_idx != kNoSeed`, pattern `seed_idx` enumerates the records
  /// in `seeds` instead of scanning the source — the O(delta) leg of the
  /// incremental wakeup check (src/query/incremental.hpp). `seeds` may be
  /// wider than the pattern's bucket at the current binding depth (they
  /// were routed by the park-frozen, widest key spec); match() filters.
  JoinEnumerator(const std::vector<TuplePattern>& patterns,
                 const TupleSource& source, Env& env, const FunctionRegistry* fns,
                 bool planner, std::size_t seed_idx = kNoSeed,
                 const std::vector<const Record*>* seeds = nullptr)
      : patterns_(patterns),
        source_(source),
        env_(env),
        fns_(fns),
        planner_(planner),
        seed_idx_(seed_idx),
        seeds_(seeds),
        chosen_(patterns.size(), nullptr) {}

  /// Runs the enumeration; returns false iff on_complete stopped it.
  bool enumerate(const std::function<bool()>& on_complete) {
    on_complete_ = &on_complete;
    return rec(0);
  }

  /// The records currently bound, indexed by pattern position.
  [[nodiscard]] const std::vector<const Record*>& chosen() const { return chosen_; }

  /// Undoes every binding this enumeration made (for callers that stopped
  /// the enumeration but must not keep its bindings — negation searches).
  void unwind() {
    undo_to(0);
    for (const Record*& r : chosen_) r = nullptr;
  }

 private:
  /// Next pattern to match. With planning: among unmatched patterns,
  /// prefer ready+exact, then ready+arity, then not-ready (a not-ready
  /// pattern has an embedded expression over still-unbound variables;
  /// matching it fails unless its own earlier fields bind them).
  /// Without planning: strict textual order.
  [[nodiscard]] std::size_t pick_next() const {
    if (!planner_) {
      for (std::size_t i = 0; i < patterns_.size(); ++i) {
        if (chosen_[i] == nullptr) return i;
      }
      return patterns_.size();
    }
    std::size_t best = patterns_.size();
    int best_rank = 99;
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
      if (chosen_[i] != nullptr) continue;
      int rank;
      if (!ready(patterns_[i])) {
        rank = 2;
      } else if (i == seed_idx_) {
        // The delta-seeded pattern has O(delta) candidates — cheaper than
        // any index probe. Readiness still rules: a seeded pattern whose
        // embedded expressions need other bindings waits its turn, exactly
        // as in the unseeded plan.
        rank = -1;
      } else {
        rank = patterns_[i].key_spec(env_, fns_).kind == KeySpec::Kind::Exact ? 0 : 1;
      }
      if (rank < best_rank) {
        best_rank = rank;
        best = i;
        if (rank < 0 || (rank == 0 && seed_idx_ == kNoSeed)) break;
      }
    }
    return best;
  }

  /// All embedded expressions evaluable under current bindings?
  [[nodiscard]] bool ready(const TuplePattern& p) const {
    for (const Term& t : p.terms()) {
      if (t.kind == Term::Kind::Expr && !t.expr->try_eval(env_, fns_).has_value()) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] bool already_chosen(TupleId id) const {
    for (const Record* r : chosen_) {
      if (r != nullptr && r->id == id) return true;
    }
    return false;
  }

  void undo_to(std::size_t mark) {
    for (std::size_t i = mark; i < undo_.size(); ++i) {
      env_[static_cast<std::size_t>(undo_[i])] = Value();
    }
    undo_.resize(mark);
  }

  bool rec(std::size_t depth) {  // NOLINT(misc-no-recursion)
    if (depth == patterns_.size()) return (*on_complete_)();
    const std::size_t idx = pick_next();
    const TuplePattern& p = patterns_[idx];

    bool keep_going = true;
    auto try_record = [&](const Record& r) {
      if (already_chosen(r.id)) return true;
      const std::size_t mark = undo_.size();
      if (p.match(r.tuple, env_, fns_, undo_)) {
        chosen_[idx] = &r;
        keep_going = rec(depth + 1);
        if (keep_going) {
          // Backtrack. A *stopped* enumeration (Exists success) instead
          // unwinds with bindings intact so the caller can read them;
          // negation searches call unwind() explicitly.
          chosen_[idx] = nullptr;
          undo_to(mark);
        }
      }
      return keep_going;
    };

    if (idx == seed_idx_) {
      for (const Record* r : *seeds_) {
        if (!try_record(*r)) break;
      }
      return keep_going;
    }

    const KeySpec spec = p.key_spec(env_, fns_);
    if (spec.kind == KeySpec::Kind::Exact) {
      // A pinned second field upgrades the bucket scan to a probe on the
      // secondary index — this is what keeps bound-variable joins like
      // "[label, p1-bound, l]" from rescanning whole buckets.
      if (const std::optional<Value> second = p.second_probe(env_, fns_)) {
        source_.scan_key_second(spec.key, *second, try_record);
      } else {
        source_.scan_key(spec.key, try_record);
      }
    } else {
      source_.scan_arity(spec.arity, try_record);
    }
    return keep_going;
  }

  const std::vector<TuplePattern>& patterns_;
  const TupleSource& source_;
  Env& env_;
  const FunctionRegistry* fns_;
  const bool planner_;
  const std::size_t seed_idx_;
  const std::vector<const Record*>* seeds_;
  std::vector<const Record*> chosen_;
  std::vector<int> undo_;
  const std::function<bool()>* on_complete_ = nullptr;
};

QueryMatch make_match(const std::vector<TuplePattern>& patterns,
                      const std::vector<const Record*>& chosen, const Env& env) {
  QueryMatch m;
  m.binding = env;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (chosen[i] == nullptr) continue;
    m.reads.push_back(chosen[i]->id);
    if (patterns[i].retract_tagged()) {
      m.retract.emplace_back(IndexKey::of(chosen[i]->tuple), chosen[i]->id);
    }
  }
  return m;
}

/// A negation holds when no assignment of its patterns (distinct
/// instances, fresh choice set) satisfies its guard. Variables bound
/// during the search are undone either way.
bool negation_holds(const Query& q, const NegatedGroup& g,
                    const TupleSource& source, Env& env,
                    const FunctionRegistry* fns) {
  JoinEnumerator join(g.patterns, source, env, fns, q.use_planner);
  bool witness = false;
  join.enumerate([&]() -> bool {
    if (guard_true(g.guard, env, fns)) {
      witness = true;
      return false;  // stop: one witness breaks the negation
    }
    return true;
  });
  join.unwind();  // negation bindings never escape
  return !witness;
}

}  // namespace

QueryOutcome reference_evaluate(const Query& q, const TupleSource& source,
                                Env& env, const FunctionRegistry* fns) {
  q.clear_locals(env);
  QueryOutcome out;

  JoinEnumerator join(q.patterns, source, env, fns, q.use_planner);

  if (q.quantifier == Quantifier::Exists) {
    const bool stopped = !join.enumerate([&]() -> bool {
      if (!guard_true(q.guard, env, fns)) return true;
      for (const NegatedGroup& g : q.negations) {
        if (!negation_holds(q, g, source, env, fns)) return true;
      }
      out.matches.push_back(make_match(q.patterns, join.chosen(), env));
      return false;  // first satisfying assignment wins
    });
    out.success = stopped;
    if (!out.success) q.clear_locals(env);
    // On success, env retains the winning bindings (the enumerator undoes
    // them when backtracking, but a stopped enumeration unwinds without
    // undoing) — action expressions read them.
    return out;
  }

  // ForAll: every complete assignment must pass the test; effects are
  // collected per assignment. Zero assignments is vacuous success.
  bool violated = false;
  join.enumerate([&]() -> bool {
    if (!guard_true(q.guard, env, fns)) {
      violated = true;
      return false;
    }
    for (const NegatedGroup& g : q.negations) {
      if (!negation_holds(q, g, source, env, fns)) {
        violated = true;
        return false;
      }
    }
    out.matches.push_back(make_match(q.patterns, join.chosen(), env));
    return true;
  });
  if (violated) {
    out.matches.clear();
    // The violating callback STOPPED the enumeration, which skips the
    // backtrack-undo, and clear_locals below only resets declared locals —
    // pattern variables outside local_vars (C++-API queries) would stay
    // bound and corrupt the next evaluation. Undo everything explicitly.
    join.unwind();
  }
  out.success = !violated;
  q.clear_locals(env);
  return out;
}

bool reference_satisfiable_seeded(const Query& q, const TupleSource& source,
                                  Env& env, const FunctionRegistry* fns,
                                  std::size_t seed_idx,
                                  const std::vector<const Record*>& seeds) {
  // Outside the monotone fragment the seeded shortcut is unsound — answer
  // "maybe satisfiable" so the caller takes the full path.
  if (q.quantifier != Quantifier::Exists || !q.negations.empty() ||
      seed_idx >= q.patterns.size()) {
    return true;
  }
  q.clear_locals(env);
  JoinEnumerator join(q.patterns, source, env, fns, q.use_planner, seed_idx,
                      &seeds);
  bool witness = false;
  join.enumerate([&]() -> bool {
    if (!guard_true(q.guard, env, fns)) return true;
    witness = true;
    return false;
  });
  // Bindings never escape — a positive answer falls through to the full
  // execute(), which rebinds from scratch under the same locks.
  join.unwind();
  q.clear_locals(env);
  return witness;
}

}  // namespace sdl
