// Tuple patterns (§2.1/§2.2): sequences of constants (general expressions),
// wildcards '*', and quantified variables, optionally tagged for retraction
// ('!' in our ASCII syntax, '↑' in the paper).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "query/expr.hpp"
#include "space/dataspace.hpp"

namespace sdl {

/// One position of a tuple pattern.
struct Term {
  enum class Kind { Expr, Wildcard, Var };

  Kind kind = Kind::Wildcard;
  ExprPtr expr;        // Kind::Expr — may reference already-bound variables
  std::string name;    // Kind::Var
  int slot = -1;       // Kind::Var, filled by resolve()

  static Term wildcard() { return Term{}; }
  static Term variable(std::string n) {
    Term t;
    t.kind = Kind::Var;
    t.name = std::move(n);
    return t;
  }
  static Term expression(ExprPtr e) {
    Term t;
    t.kind = Kind::Expr;
    t.expr = std::move(e);
    return t;
  }
  static Term constant(Value v) { return expression(lit(std::move(v))); }
};

/// How a pattern narrows the dataspace index: to an exact bucket, or to all
/// buckets of its arity.
struct KeySpec {
  enum class Kind { Exact, Arity };
  Kind kind = Kind::Arity;
  IndexKey key;              // Kind::Exact
  std::uint32_t arity = 0;   // Kind::Arity
};

/// A pattern over one tuple. Matching binds this pattern's unbound Var
/// terms; Expr terms are evaluated against the current environment (so
/// later patterns in a conjunctive query can constrain on variables bound
/// by earlier ones — the join).
class TuplePattern {
 public:
  TuplePattern() = default;
  explicit TuplePattern(std::vector<Term> terms, bool retract = false)
      : terms_(std::move(terms)), retract_(retract) {}

  [[nodiscard]] std::size_t arity() const { return terms_.size(); }
  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }
  [[nodiscard]] bool retract_tagged() const { return retract_; }
  void set_retract(bool r) { retract_ = r; }

  /// Interns this pattern's variable names into `symtab` and resolves all
  /// embedded expressions. Call once before use.
  void resolve(SymbolTable& symtab);

  /// Attempts to match `t`. On success binds unbound Var slots in `env`
  /// and appends their indices to `newly_bound` (caller's undo log);
  /// returns true. On failure `env` is restored and nothing is appended.
  /// Expr terms that reference still-unbound variables make the match fail
  /// (they cannot be satisfied yet — callers order patterns accordingly).
  bool match(const Tuple& t, Env& env, const FunctionRegistry* fns,
             std::vector<int>& newly_bound) const;

  /// Computes the narrowest index probe available given current bindings.
  [[nodiscard]] KeySpec key_spec(const Env& env, const FunctionRegistry* fns) const;

  /// If the second term is pinned under current bindings (constant
  /// expression or bound variable), returns its value — the key into the
  /// field-1 index (Dataspace::scan_key_second).
  [[nodiscard]] std::optional<Value> second_probe(const Env& env,
                                                  const FunctionRegistry* fns) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Term> terms_;
  bool retract_ = false;
};

// ---- Pattern factory helpers ----

/// Shorthand: builds a pattern from a mixed term list. See tests for usage.
TuplePattern pat(std::vector<Term> terms);
/// Variable term.
Term V(const std::string& name);
/// Wildcard term ('*').
Term W();
/// Expression/constant term.
Term E(ExprPtr e);
Term C(Value v);
/// Atom-constant term (the common tuple head).
Term A(std::string_view spelling);

}  // namespace sdl
