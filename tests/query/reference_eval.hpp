// Reference query evaluator: the tree-walking join interpreter, kept as
// the executable specification the compiled tier (src/query/compile.hpp)
// must agree with.
//
// It walks the resolved pattern and expression trees directly: a greedy
// planner re-derives readiness and key specs at every join depth, terms
// are matched by TuplePattern::match, and guards go through Expr::eval
// with std::invalid_argument as the reject path. The planner is part of
// the specification — the compiler replays its pick loop at compile time —
// so it is kept here as it ran in src/, including the textual-order mode
// selected by Query::use_planner.
//
// Uses only Query's public API. The differential harness
// (vm_equiv_test.cpp) and E13's compiled-vs-reference column call it.
#pragma once

#include <vector>

#include "query/query.hpp"

namespace sdl {

/// Query::evaluate's contract, interpreted: same outcome, same match
/// order, same final env.
[[nodiscard]] QueryOutcome reference_evaluate(const Query& q,
                                              const TupleSource& source,
                                              Env& env,
                                              const FunctionRegistry* fns);

/// Query::satisfiable_seeded's contract, interpreted: pattern `seed_idx`
/// draws its candidates from `seeds`; bindings never escape.
[[nodiscard]] bool reference_satisfiable_seeded(
    const Query& q, const TupleSource& source, Env& env,
    const FunctionRegistry* fns, std::size_t seed_idx,
    const std::vector<const Record*>& seeds);

}  // namespace sdl
