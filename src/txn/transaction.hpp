// Atomic transactions (§2.2): query → retraction → assertion → local
// actions, tagged immediate ('->'), delayed ('=>') or consensus ('^').
//
// "At a logical level, all transactions are atomic, i.e., transactions
//  appear to execute serially and either succeed or have no effect on the
//  dataspace."
#pragma once

#include <string>
#include <vector>

#include "query/query.hpp"

namespace sdl {

/// Operational mode of a transaction (§2.2's transaction_type_tag).
enum class TxnType {
  Immediate,  // '->': evaluated once; fails if the query cannot be satisfied
  Delayed,    // '=>': blocks the process until a successful evaluation
  Consensus,  // '^' : n-way synchronization across the consensus set
};

/// A tuple to assert: one expression per field, evaluated per query match.
struct AssertTemplate {
  std::vector<ExprPtr> fields;
};

/// "let X = expr": defines/overwrites a process-persistent binding.
struct LetAction {
  std::string name;
  int slot = -1;  // filled by resolve()
  ExprPtr value;
};

/// Dynamic process creation from the action list (§2.4).
struct SpawnAction {
  std::string process_type;
  std::vector<ExprPtr> args;
};

/// Flow-of-control effect of a successful transaction.
enum class ControlAction {
  None,  // continue normally
  Exit,  // terminate the enclosing construct/sequence prematurely (§2.3)
  Abort, // terminate the whole process (§2.4)
};

/// A complete transaction. Build via TxnBuilder (below), resolve once
/// against the owning symbol table, then execute through an Engine.
class Transaction {
 public:
  Query query;
  TxnType type = TxnType::Immediate;
  std::vector<AssertTemplate> asserts;
  std::vector<LetAction> lets;
  std::vector<SpawnAction> spawns;
  ControlAction control = ControlAction::None;

  /// Per-statement deadline for blocking transactions (delayed '=>' parks
  /// and consensus offers): how long the issuing process may stay parked
  /// on this statement before the scheduler's watchdog expires it with a
  /// Timeout outcome. 0 = use the scheduler-wide default from
  /// SchedulerOptions; < 0 = never time out, overriding that default.
  std::int64_t timeout_ms = 0;

  /// Interns names, resolves all expressions, and caches is_read_only().
  /// Call exactly once.
  void resolve(SymbolTable& symtab);

  /// True when this transaction can never change the dataspace: no assert
  /// templates and no retract-tagged pattern anywhere in the query.
  /// Process-local actions (lets, spawns, control) do not count — they are
  /// applied by the caller and never touch D. Engines route read-only
  /// transactions through the shared-lock fast path: no exclusive locks,
  /// nothing applied or logged, no WaitSet publication, no commit-version
  /// bump.
  /// Cached by resolve(); false (conservative) before resolution.
  [[nodiscard]] bool is_read_only() const { return read_only_; }

  /// Conservative index keys this transaction may *write*: assertion heads
  /// evaluable without quantified bindings give exact keys; the rest
  /// force the "unknown" flag (engines then take all shards).
  struct WriteSet {
    std::vector<IndexKey> exact;
    bool unknown = false;  // some assertion bucket cannot be precomputed
  };
  [[nodiscard]] WriteSet write_set(const Env& env, const FunctionRegistry* fns) const;

  [[nodiscard]] std::string to_string() const;

 private:
  bool read_only_ = false;  // cached by resolve()
};

/// Fluent builder — the C++ embedding of the paper's transaction syntax.
///
///   auto t = TxnBuilder(TxnType::Immediate)
///                .exists({"a"})
///                .match(pat({A("year"), V("a")}), /*retract=*/true)
///                .where(gt(evar("a"), lit(87)))
///                .let_("N", evar("a"))
///                .assert_tuple({lit(Value::atom("found")), evar("a")})
///                .build();
class TxnBuilder {
 public:
  explicit TxnBuilder(TxnType type = TxnType::Immediate) { txn_.type = type; }

  TxnBuilder& exists(std::vector<std::string> vars) {
    txn_.query.quantifier = Quantifier::Exists;
    append_vars(std::move(vars));
    return *this;
  }
  TxnBuilder& forall(std::vector<std::string> vars) {
    txn_.query.quantifier = Quantifier::ForAll;
    append_vars(std::move(vars));
    return *this;
  }
  TxnBuilder& match(TuplePattern p, bool retract = false) {
    p.set_retract(retract);
    txn_.query.patterns.push_back(std::move(p));
    return *this;
  }
  TxnBuilder& where(ExprPtr guard) {
    txn_.query.guard = txn_.query.guard
                           ? land(txn_.query.guard, std::move(guard))
                           : std::move(guard);
    return *this;
  }
  /// ¬∃(patterns : guard)
  TxnBuilder& none(std::vector<TuplePattern> patterns, ExprPtr guard = nullptr) {
    txn_.query.negations.push_back(
        NegatedGroup{std::move(patterns), std::move(guard)});
    return *this;
  }
  TxnBuilder& assert_tuple(std::vector<ExprPtr> fields) {
    txn_.asserts.push_back(AssertTemplate{std::move(fields)});
    return *this;
  }
  TxnBuilder& let_(std::string name, ExprPtr value) {
    txn_.lets.push_back(LetAction{std::move(name), -1, std::move(value)});
    return *this;
  }
  TxnBuilder& spawn(std::string process_type, std::vector<ExprPtr> args = {}) {
    txn_.spawns.push_back(SpawnAction{std::move(process_type), std::move(args)});
    return *this;
  }
  /// Park deadline for this statement (see Transaction::timeout_ms).
  TxnBuilder& timeout(std::int64_t ms) {
    txn_.timeout_ms = ms;
    return *this;
  }
  TxnBuilder& exit_() {
    txn_.control = ControlAction::Exit;
    return *this;
  }
  TxnBuilder& abort_() {
    txn_.control = ControlAction::Abort;
    return *this;
  }

  [[nodiscard]] Transaction build() { return std::move(txn_); }

 private:
  void append_vars(std::vector<std::string> vars) {
    for (std::string& v : vars) txn_.query.local_vars.push_back(std::move(v));
  }
  Transaction txn_;
};

}  // namespace sdl
