// Process views (§2, §2.1): the abstraction mechanism that replaces the
// dataspace with a per-transaction window.
//
//   W  = Import(p) ∩ D
//   D' = (D - W_r) ∪ (Export(p) ∩ W_a)
//
// An import/export specification is a set of entries, each a tuple pattern
// plus an optional guard over the pattern's variables, process parameters
// and host functions — enough to express the paper's dynamic Label view
// ("p, l : neighbor(p, r) → (label, p, l)", §3.3), whose import set depends
// on the current dataspace configuration through which tuples exist.
//
// Faithful simplification: the paper's formal model (§2.1) defines the
// window as an *intersection* with the import set, i.e. views select
// tuples, they do not rewrite them; we implement exactly that model.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "query/query.hpp"

namespace sdl::obs {
struct RuntimeMetrics;
}

namespace sdl {

/// One import or export entry: tuples matching `pattern` under `guard`.
/// Pattern variables that are process parameters constrain; fresh
/// variables bind per-candidate (locally existential).
struct ViewEntry {
  TuplePattern pattern;
  ExprPtr guard;  // may be null (= true)
};

/// Unresolved view description, part of a process definition (§2.4).
struct ViewSpec {
  /// Empty + import_all => the view covers the whole dataspace (the
  /// paper omits views "whenever the view covers the entire dataspace").
  std::vector<ViewEntry> imports;
  std::vector<ViewEntry> exports;
  bool import_all = true;  // set false automatically when imports added
  bool export_all = true;

  ViewSpec& import(TuplePattern p, ExprPtr guard = nullptr) {
    imports.push_back(ViewEntry{std::move(p), std::move(guard)});
    import_all = false;
    return *this;
  }
  ViewSpec& export_(TuplePattern p, ExprPtr guard = nullptr) {
    exports.push_back(ViewEntry{std::move(p), std::move(guard)});
    export_all = false;
    return *this;
  }

  /// Resolves all entry patterns/guards against the process symbol table.
  void resolve(SymbolTable& symtab);
};

/// A resolved view bound to a process's environment at evaluation time.
/// Stateless aside from the spec reference; all methods take env
/// explicitly so one spec instance serves many process instances.
class View {
 public:
  explicit View(const ViewSpec& spec) : spec_(&spec) {}

  [[nodiscard]] const ViewSpec& spec() const { return *spec_; }
  [[nodiscard]] bool imports_everything() const { return spec_->import_all; }
  [[nodiscard]] bool exports_everything() const { return spec_->export_all; }

  /// Is `t` a member of Import(p) given the process environment?
  [[nodiscard]] bool imports_tuple(const Tuple& t, Env& env,
                                   const FunctionRegistry* fns) const;

  /// Is `t` a member of Export(p)? (Assertions outside the export set are
  /// silently discarded: D' keeps only Export(p) ∩ W_a.)
  [[nodiscard]] bool exports_tuple(const Tuple& t, Env& env,
                                   const FunctionRegistry* fns) const;

  /// Collects the ids of all dataspace tuples in Import(p) ∩ D — the
  /// paper's "needs" overlap test for consensus sets. Caller must hold
  /// locks making `space` stable. For import_all views, inserts every
  /// resident id.
  void collect_import_ids(const Dataspace& space, Env& env,
                          const FunctionRegistry* fns,
                          std::unordered_set<TupleId>& out) const;

  /// As collect_import_ids, but also reports each tuple's bucket — the
  /// consensus manager needs buckets to test overlap against the
  /// conservative (bucket-level) import summaries of running processes.
  void collect_import_records(const Dataspace& space, Env& env,
                              const FunctionRegistry* fns,
                              std::vector<std::pair<TupleId, IndexKey>>& out) const;

 private:
  const ViewSpec* spec_;
};

/// TupleSource that presents the window W = Import(p) ∩ D.
///
/// Beyond filtering, the window *narrows scans*: an arity-wide scan only
/// visits buckets that some import entry could match, so a view with
/// exact-head imports turns O(|D|) scans into O(|window|) — the paper's
/// "transaction types that might be expensive to implement may be used
/// comfortably when the number of tuples they examine is small" (§2).
/// Experiment E7 measures this.
class WindowSource final : public TupleSource {
 public:
  /// Precomputes the import entries' key specs against `env`'s persistent
  /// bindings (stable for the duration of one transaction evaluation).
  /// With a non-null `metrics`, the destructor flushes scanned/admitted
  /// record tallies — the direct measurement of the §2.1 claim that views
  /// bound the cost of a transaction.
  WindowSource(const Dataspace& space, const View& view, Env& env,
               const FunctionRegistry* fns,
               obs::RuntimeMetrics* metrics = nullptr);
  ~WindowSource() override;

  [[nodiscard]] std::uint64_t stats_epoch() const override {
    return space_.stats_epoch();
  }

  void scan_key(const IndexKey& key, Dataspace::RecordFn fn) const override;
  void scan_arity(std::uint32_t arity, Dataspace::RecordFn fn) const override;
  void scan_key_second(const IndexKey& key, const Value& second,
                       Dataspace::RecordFn fn) const override;

 private:
  struct PinnedEntry {
    const ViewEntry* entry;
    IndexKey key;
  };

  /// Window membership using only the entries that can match r's bucket.
  bool admitted(const Record& r) const;

  const Dataspace& space_;
  const View& view_;
  Env& env_;  // mutated transiently during membership tests, then restored
  const FunctionRegistry* fns_;
  obs::RuntimeMetrics* metrics_;
  // Window-materialization tallies: plain (non-atomic) members, because a
  // WindowSource lives inside one transaction evaluation on one thread.
  mutable std::uint64_t records_scanned_ = 0;
  mutable std::uint64_t records_admitted_ = 0;
  std::vector<PinnedEntry> pinned_;
  std::unordered_map<IndexKey, std::vector<const ViewEntry*>, IndexKeyHash>
      pinned_by_key_;
  std::vector<const ViewEntry*> unpinned_;
};

}  // namespace sdl
