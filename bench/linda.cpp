#include "linda.hpp"

namespace sdl {

TupleId Linda::out(Tuple t, ProcessId owner) {
  const IndexKey key = IndexKey::of(t);
  TupleId id;
  engine_.exclusive([&]() -> std::vector<IndexKey> {
    id = engine_.space().insert(std::move(t), owner);
    return {key};
  });
  return id;
}

std::optional<Tuple> Linda::access(const TuplePattern& pattern, bool remove,
                                   bool blocking, ProcessId owner) {
  // To return the matched tuple, desugar the template into a transaction
  // whose pattern captures every field in a fresh variable, with guards
  // enforcing the template's constants and shared-variable equalities.
  const std::size_t arity = pattern.arity();
  auto field_var = [](std::size_t i) { return "__f" + std::to_string(i); };

  Transaction txn;
  txn.type = blocking ? TxnType::Delayed : TxnType::Immediate;
  Query& q = txn.query;
  std::vector<Term> capture;
  capture.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    const Term& t = pattern.terms()[i];
    if (t.kind == Term::Kind::Expr) {
      // Keep constants in place — a constant head keeps the access
      // bucket-indexed, like the corresponding SDL pattern.
      capture.push_back(t);
    } else {
      q.local_vars.push_back(field_var(i));
      capture.push_back(V(field_var(i)));
    }
  }
  q.patterns.emplace_back(std::move(capture), remove);

  ExprPtr guard;
  auto conjoin = [&guard](ExprPtr e) {
    guard = guard ? land(std::move(guard), std::move(e)) : std::move(e);
  };
  for (std::size_t i = 0; i < arity; ++i) {
    const Term& t = pattern.terms()[i];
    if (t.kind != Term::Kind::Var) continue;
    // Linda formal with a repeated name: all positions must agree.
    for (std::size_t j = i + 1; j < arity; ++j) {
      const Term& u = pattern.terms()[j];
      if (u.kind == Term::Kind::Var && u.name == t.name) {
        conjoin(eq(evar(field_var(i)), evar(field_var(j))));
      }
    }
  }
  q.guard = std::move(guard);

  SymbolTable st;
  txn.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));

  const TxnResult r = blocking ? execute_blocking(engine_, txn, env, owner)
                               : engine_.execute(txn, env, owner);
  if (!r.success) return std::nullopt;

  std::vector<Value> fields;
  fields.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    const Term& t = pattern.terms()[i];
    if (t.kind == Term::Kind::Expr) {
      fields.push_back(t.expr->eval(env, engine_.functions()));
    } else {
      fields.push_back(env[static_cast<std::size_t>(*st.lookup(field_var(i)))]);
    }
  }
  return Tuple(std::move(fields));
}

Tuple Linda::in(const TuplePattern& pattern, ProcessId owner) {
  return *access(pattern, /*remove=*/true, /*blocking=*/true, owner);
}

Tuple Linda::rd(const TuplePattern& pattern, ProcessId owner) {
  return *access(pattern, /*remove=*/false, /*blocking=*/true, owner);
}

std::optional<Tuple> Linda::inp(const TuplePattern& pattern, ProcessId owner) {
  return access(pattern, /*remove=*/true, /*blocking=*/false, owner);
}

std::optional<Tuple> Linda::rdp(const TuplePattern& pattern, ProcessId owner) {
  return access(pattern, /*remove=*/false, /*blocking=*/false, owner);
}

}  // namespace sdl
