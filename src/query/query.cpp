#include "query/query.hpp"

#include <stdexcept>

#include "core/epoch.hpp"
#include "query/compile.hpp"

namespace sdl {
namespace {

PlanCache& plans(const std::shared_ptr<PlanCache>& cache) {
  if (!cache) throw std::logic_error("sdl: query evaluated before resolve()");
  return *cache;
}

}  // namespace

void Query::resolve(SymbolTable& symtab) {
  for (const std::string& name : local_vars) {
    local_slots_.push_back(symtab.intern(name));
  }
  for (TuplePattern& p : patterns) p.resolve(symtab);
  resolve_expr(guard, symtab);
  for (NegatedGroup& g : negations) {
    for (TuplePattern& p : g.patterns) p.resolve(symtab);
    resolve_expr(g.guard, symtab);
  }
  // The plan cache is created here — single-threaded, exactly once — so
  // concurrent evaluations never race on lazy initialisation. Actual
  // compilation is deferred to the first evaluation per binding signature.
  plan_cache_ = std::make_shared<PlanCache>(*this);
}

void Query::clear_locals(Env& env) const {
  for (int slot : local_slots_) env[static_cast<std::size_t>(slot)] = Value();
}

QueryOutcome Query::evaluate(const TupleSource& source, Env& env,
                             const FunctionRegistry* fns) const {
  PlanCache& cache = plans(plan_cache_);
  clear_locals(env);
  const epoch::Guard guard;  // keeps the borrowed program alive
  const MatchProgram* prog =
      cache.acquire(*this, env, source.stats_epoch());
  QueryOutcome out = vm_execute(*prog, source, env, fns);
  // On Exists-success env keeps the winning bindings: action expressions
  // read them.
  if (!out.success || quantifier == Quantifier::ForAll) clear_locals(env);
  return out;
}

std::vector<KeySpec> Query::read_set(const Env& env,
                                     const FunctionRegistry* fns) const {
  std::vector<KeySpec> keys;
  keys.reserve(patterns.size());
  for (const TuplePattern& p : patterns) keys.push_back(p.key_spec(env, fns));
  for (const NegatedGroup& g : negations) {
    for (const TuplePattern& p : g.patterns) keys.push_back(p.key_spec(env, fns));
  }
  return keys;
}

// Grammar-exact rendering (re-parses via lang/parser).
std::string Query::to_string() const {
  std::string out;
  if (!local_vars.empty()) {
    out += quantifier == Quantifier::Exists ? "exists " : "forall ";
    for (std::size_t i = 0; i < local_vars.size(); ++i) {
      if (i > 0) out += ", ";
      out += local_vars[i];
    }
    out += " : ";
  }
  bool first_conjunct = true;
  auto sep = [&] {
    if (!first_conjunct) out += ", ";
    first_conjunct = false;
  };
  for (const TuplePattern& p : patterns) {
    sep();
    out += p.to_string();
  }
  for (const NegatedGroup& g : negations) {
    sep();
    out += "not (";
    for (std::size_t i = 0; i < g.patterns.size(); ++i) {
      if (i > 0) out += ", ";
      out += g.patterns[i].to_string();
    }
    if (g.guard) out += " when " + g.guard->to_string();
    out += ")";
  }
  if (guard) {
    if (!first_conjunct) out += " ";
    out += "when " + guard->to_string();
  }
  return out;
}

}  // namespace sdl
