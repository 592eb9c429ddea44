#include "lang/analyze.hpp"

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace sdl::lang {
namespace {

/// A (head, arity) production/consumption summary key. Only literal heads
/// participate; everything else is tracked as "arity with unknown head".
struct HeadArity {
  Value head;
  std::size_t arity = 0;

  [[nodiscard]] std::string to_string() const {
    if (arity == 0) return "[]";
    std::string out = "[" + head.to_string();
    for (std::size_t i = 1; i < arity; ++i) out += ", *";
    return out + "]";
  }
};

/// Walks every transaction in a statement tree.
void for_each_txn(const StmtPtr& stmt,
                  const std::function<void(const Transaction&)>& fn) {
  if (!stmt) return;
  switch (stmt->kind) {
    case Statement::Kind::Txn:
      fn(stmt->txn);
      break;
    case Statement::Kind::Sequence:
      for (const StmtPtr& c : stmt->children) for_each_txn(c, fn);
      break;
    case Statement::Kind::Selection:
    case Statement::Kind::Repetition:
    case Statement::Kind::Replication:
      for (const Branch& b : stmt->branches) {
        fn(b.guard);
        for_each_txn(b.body, fn);
      }
      break;
  }
}

/// Literal value of an expression, if it is a plain constant.
std::optional<Value> literal_of(const ExprPtr& e) {
  if (e && e->op() == Expr::Op::Const) return e->constant();
  return std::nullopt;
}

/// Literal head of an assertion template.
std::optional<HeadArity> assert_head(const AssertTemplate& a) {
  if (a.fields.empty()) return HeadArity{Value(), 0};
  if (const auto head = literal_of(a.fields.front())) {
    return HeadArity{*head, a.fields.size()};
  }
  return std::nullopt;
}

/// Literal head of a pattern.
std::optional<HeadArity> pattern_head(const TuplePattern& p) {
  if (p.terms().empty()) return HeadArity{Value(), 0};
  const Term& t = p.terms().front();
  if (t.kind == Term::Kind::Expr) {
    if (const auto head = literal_of(t.expr)) return HeadArity{*head, p.arity()};
  }
  return std::nullopt;
}

/// Collects every variable name referenced by an expression.
void expr_vars(const ExprPtr& e, std::unordered_set<std::string>& out) {
  if (!e) return;
  if (e->op() == Expr::Op::Var) out.insert(e->name());
  for (const ExprPtr& c : e->children()) expr_vars(c, out);
}

struct ProducedSet {
  std::unordered_set<std::string> exact;      // rendered HeadArity keys
  std::unordered_set<std::size_t> any_head;   // arities with unknown heads

  [[nodiscard]] bool may_produce(const HeadArity& key) const {
    return any_head.count(key.arity) > 0 ||
           exact.count(key.to_string()) > 0;
  }
};

}  // namespace

std::string Diagnostic::to_string() const {
  std::string out;
  switch (severity) {
    case Severity::Error: out = "error: "; break;
    case Severity::Warning: out = "warning: "; break;
    case Severity::Note: out = "note: "; break;
  }
  if (!process.empty()) out += "[" + process + "] ";
  return out + message;
}

std::vector<Diagnostic> analyze(const Program& program) {
  std::vector<Diagnostic> diags;

  std::unordered_map<std::string, std::size_t> def_arity;
  for (const ProcessDef& def : program.defs) {
    def_arity[def.name] = def.params.size();
  }

  // ---- global production summary: what can ever enter the dataspace ----
  ProducedSet produced;
  for (const Tuple& t : program.seeds) {
    HeadArity key{t.arity() == 0 ? Value() : t[0], t.arity()};
    produced.exact.insert(key.to_string());
  }
  for (const ProcessDef& def : program.defs) {
    for_each_txn(def.body, [&](const Transaction& txn) {
      for (const AssertTemplate& a : txn.asserts) {
        if (const auto key = assert_head(a)) {
          produced.exact.insert(key->to_string());
        } else {
          produced.any_head.insert(a.fields.size());
        }
      }
    });
  }

  for (const ProcessDef& def : program.defs) {
    // ---- bindable names in this process ----
    std::unordered_set<std::string> bindable(def.params.begin(), def.params.end());
    auto add_pattern_vars = [&bindable](const TuplePattern& p) {
      for (const Term& t : p.terms()) {
        if (t.kind == Term::Kind::Var) bindable.insert(t.name);
      }
    };
    for (const ViewEntry& e : def.view.imports) add_pattern_vars(e.pattern);
    for (const ViewEntry& e : def.view.exports) add_pattern_vars(e.pattern);
    for_each_txn(def.body, [&](const Transaction& txn) {
      for (const TuplePattern& p : txn.query.patterns) add_pattern_vars(p);
      for (const NegatedGroup& g : txn.query.negations) {
        for (const TuplePattern& p : g.patterns) add_pattern_vars(p);
      }
      for (const LetAction& l : txn.lets) bindable.insert(l.name);
    });

    for_each_txn(def.body, [&](const Transaction& txn) {
      // ---- spawns: existence and arity ----
      for (const SpawnAction& s : txn.spawns) {
        auto it = def_arity.find(s.process_type);
        if (it == def_arity.end()) {
          diags.push_back({Severity::Error, def.name,
                           "spawn of undefined process type '" + s.process_type +
                               "'"});
        } else if (it->second != s.args.size()) {
          diags.push_back({Severity::Error, def.name,
                           "spawn " + s.process_type + "(...) passes " +
                               std::to_string(s.args.size()) + " argument(s), " +
                               "definition takes " + std::to_string(it->second)});
        }
      }

      // ---- export violations (provable drops) ----
      if (!def.view.export_all) {
        for (const AssertTemplate& a : txn.asserts) {
          const auto key = assert_head(a);
          if (!key.has_value()) continue;
          bool possibly_exported = false;
          for (const ViewEntry& e : def.view.exports) {
            if (e.pattern.arity() != key->arity) continue;
            if (key->arity == 0) {
              possibly_exported = true;
              break;
            }
            const Term& head = e.pattern.terms().front();
            if (head.kind == Term::Kind::Expr) {
              if (const auto lit_head = literal_of(head.expr)) {
                if (*lit_head == key->head) {
                  possibly_exported = true;
                  break;
                }
                continue;  // different literal head: this entry can't admit
              }
            }
            possibly_exported = true;  // variable/wildcard head: maybe
            break;
          }
          if (!possibly_exported) {
            diags.push_back({Severity::Warning, def.name,
                             "assertion " + key->to_string() +
                                 " is outside the export set and will be "
                                 "silently dropped"});
          }
        }
      }

      // ---- blocking queries nothing can ever satisfy ----
      if (txn.type != TxnType::Immediate) {
        for (const TuplePattern& p : txn.query.patterns) {
          const auto key = pattern_head(p);
          if (!key.has_value()) continue;
          if (!produced.may_produce(*key)) {
            diags.push_back(
                {Severity::Warning, def.name,
                 std::string(txn.type == TxnType::Delayed ? "delayed"
                                                          : "consensus") +
                     " transaction waits for " + key->to_string() +
                     ", which no assertion or init seed in the program can "
                     "produce — the process may block forever"});
          }
        }
      }

      // ---- variables read but never bindable ----
      std::unordered_set<std::string> read;
      expr_vars(txn.query.guard, read);
      for (const TuplePattern& p : txn.query.patterns) {
        for (const Term& t : p.terms()) {
          if (t.kind == Term::Kind::Expr) expr_vars(t.expr, read);
        }
      }
      for (const NegatedGroup& g : txn.query.negations) {
        expr_vars(g.guard, read);
        for (const TuplePattern& p : g.patterns) {
          for (const Term& t : p.terms()) {
            if (t.kind == Term::Kind::Expr) expr_vars(t.expr, read);
          }
        }
      }
      for (const AssertTemplate& a : txn.asserts) {
        for (const ExprPtr& f : a.fields) expr_vars(f, read);
      }
      for (const LetAction& l : txn.lets) expr_vars(l.value, read);
      for (const SpawnAction& s : txn.spawns) {
        for (const ExprPtr& arg : s.args) expr_vars(arg, read);
      }
      for (const std::string& name : read) {
        if (bindable.count(name) == 0) {
          diags.push_back({Severity::Warning, def.name,
                           "variable '" + name +
                               "' is read but never bound anywhere in this "
                               "process"});
        }
      }

      // ---- global consensus note ----
      if (txn.type == TxnType::Consensus && def.view.import_all) {
        diags.push_back({Severity::Note, def.name,
                         "consensus transaction in a process without an "
                         "import view: its consensus set spans the entire "
                         "society"});
      }
    });
  }

  // ---- top-level spawns ----
  for (const auto& [name, args] : program.spawns) {
    auto it = def_arity.find(name);
    if (it == def_arity.end()) {
      diags.push_back({Severity::Error, "",
                       "spawn of undefined process type '" + name + "'"});
    } else if (it->second != args.size()) {
      diags.push_back({Severity::Error, "",
                       "spawn " + name + "(...) passes " +
                           std::to_string(args.size()) + " argument(s), " +
                           "definition takes " + std::to_string(it->second)});
    }
  }

  return diags;
}

}  // namespace sdl::lang
