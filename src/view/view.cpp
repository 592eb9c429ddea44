#include "view/view.hpp"

#include <cassert>

#include "obs/metrics.hpp"

namespace sdl {
namespace {

#ifndef NDEBUG
/// Debug re-verification of the "not re-entrant" invariant below: if a
/// guard expression ever called back into view membership, the shared
/// thread_local undo log would be clobbered mid-test.
thread_local bool entry_admits_active = false;
#endif

/// Restores every newly bound env slot on scope exit. entry_admits used
/// to run its undo loop inline after the guard eval, but guards call host
/// functions that may throw arbitrary exceptions (only
/// std::invalid_argument — the type-mismatch signal — is treated as "does
/// not admit"); any other exception used to escape BEFORE the undo ran,
/// leaving stale bindings in the thread-local Env that poisoned every
/// subsequent match on that thread. A destructor is the only exit path
/// the language guarantees.
class BindingUndoGuard {
 public:
  BindingUndoGuard(Env& env, std::vector<int>& undo)
      : env_(env), undo_(undo) {}
  BindingUndoGuard(const BindingUndoGuard&) = delete;
  BindingUndoGuard& operator=(const BindingUndoGuard&) = delete;
  ~BindingUndoGuard() {
    for (int slot : undo_) env_[static_cast<std::size_t>(slot)] = Value();
#ifndef NDEBUG
    entry_admits_active = false;
#endif
  }

 private:
  Env& env_;
  std::vector<int>& undo_;
};

/// Does `entry` admit `t`? Bindings made during the test are undone on
/// every exit path, exceptional ones included. Hot path (every record of
/// every window scan, and the consensus manager's overlap sweeps): the
/// undo log is a reused thread_local to avoid per-record allocation. Not
/// re-entrant — guards are expression evaluations and cannot call back
/// into view membership (asserted in debug builds).
bool entry_admits(const ViewEntry& entry, const Tuple& t, Env& env,
                  const FunctionRegistry* fns) {
  static thread_local std::vector<int> undo;
  assert(!entry_admits_active && "entry_admits re-entered from a guard");
#ifndef NDEBUG
  entry_admits_active = true;
#endif
  undo.clear();
  BindingUndoGuard restore(env, undo);
  // match() self-undoes and truncates `undo` on failure, so the guard's
  // destructor sees an empty log on this early return.
  if (!entry.pattern.match(t, env, fns, undo)) return false;
  bool ok = true;
  if (entry.guard) {
    try {
      ok = entry.guard->eval(env, fns).truthy();
    } catch (const std::invalid_argument&) {
      ok = false;  // type mismatch on a candidate = not admitted
    }
  }
  return ok;
}

bool any_entry_admits(const std::vector<ViewEntry>& entries, const Tuple& t,
                      Env& env, const FunctionRegistry* fns) {
  for (const ViewEntry& e : entries) {
    if (entry_admits(e, t, env, fns)) return true;
  }
  return false;
}

}  // namespace

void ViewSpec::resolve(SymbolTable& symtab) {
  for (ViewEntry& e : imports) {
    e.pattern.resolve(symtab);
    resolve_expr(e.guard, symtab);
  }
  for (ViewEntry& e : exports) {
    e.pattern.resolve(symtab);
    resolve_expr(e.guard, symtab);
  }
}

bool View::imports_tuple(const Tuple& t, Env& env,
                         const FunctionRegistry* fns) const {
  if (spec_->import_all) return true;
  return any_entry_admits(spec_->imports, t, env, fns);
}

bool View::exports_tuple(const Tuple& t, Env& env,
                         const FunctionRegistry* fns) const {
  if (spec_->export_all) return true;
  return any_entry_admits(spec_->exports, t, env, fns);
}

void View::collect_import_ids(const Dataspace& space, Env& env,
                              const FunctionRegistry* fns,
                              std::unordered_set<TupleId>& out) const {
  if (spec_->import_all) {
    space.scan_all([&](const Record& r) {
      out.insert(r.id);
      return true;
    });
    return;
  }
  for (const ViewEntry& entry : spec_->imports) {
    const KeySpec spec = entry.pattern.key_spec(env, fns);
    auto visit = [&](const Record& r) {
      if (entry_admits(entry, r.tuple, env, fns)) out.insert(r.id);
      return true;
    };
    if (spec.kind == KeySpec::Kind::Exact) {
      space.scan_key(spec.key, visit);
    } else {
      space.scan_arity(spec.arity, visit);
    }
  }
}

void View::collect_import_records(
    const Dataspace& space, Env& env, const FunctionRegistry* fns,
    std::vector<std::pair<TupleId, IndexKey>>& out) const {
  std::unordered_set<TupleId> seen;
  if (spec_->import_all) {
    space.scan_all([&](const Record& r) {
      if (seen.insert(r.id).second) out.emplace_back(r.id, IndexKey::of(r.tuple));
      return true;
    });
    return;
  }
  for (const ViewEntry& entry : spec_->imports) {
    const KeySpec spec = entry.pattern.key_spec(env, fns);
    auto visit = [&](const Record& r) {
      if (entry_admits(entry, r.tuple, env, fns) && seen.insert(r.id).second) {
        out.emplace_back(r.id, IndexKey::of(r.tuple));
      }
      return true;
    };
    if (spec.kind == KeySpec::Kind::Exact) {
      space.scan_key(spec.key, visit);
    } else {
      space.scan_arity(spec.arity, visit);
    }
  }
}

// WindowSource precomputes each import entry's key spec once per
// transaction (the environment's persistent bindings cannot change during
// evaluation), so membership tests only consult the entries that could
// match a record's bucket: exact-pinned entries of that bucket plus the
// unpinned (arity-wide) entries. This keeps window scans linear in the
// window size rather than |window| x |entries|.
WindowSource::WindowSource(const Dataspace& space, const View& view, Env& env,
                           const FunctionRegistry* fns,
                           obs::RuntimeMetrics* metrics)
    : space_(space), view_(view), env_(env), fns_(fns), metrics_(metrics) {
  if (view_.imports_everything()) return;
  const auto& imports = view_.spec().imports;
  pinned_.reserve(imports.size());
  for (const ViewEntry& entry : imports) {
    const KeySpec spec = entry.pattern.key_spec(env_, fns_);
    if (spec.kind == KeySpec::Kind::Exact) {
      pinned_by_key_[spec.key].push_back(&entry);
      pinned_.push_back(PinnedEntry{&entry, spec.key});
    } else {
      unpinned_.push_back(&entry);
    }
  }
}

WindowSource::~WindowSource() {
  // Tallies are plain members (one window is scanned by one thread);
  // flushing once here keeps per-record cost at a non-atomic increment.
  if (metrics_ == nullptr) return;
  if (records_scanned_ != 0) {
    metrics_->window_records_scanned->add(records_scanned_);
  }
  if (records_admitted_ != 0) {
    metrics_->window_records_admitted->add(records_admitted_);
  }
}

bool WindowSource::admitted(const Record& r) const {
  const IndexKey key = IndexKey::of(r.tuple);
  if (auto it = pinned_by_key_.find(key); it != pinned_by_key_.end()) {
    for (const ViewEntry* entry : it->second) {
      if (entry_admits(*entry, r.tuple, env_, fns_)) return true;
    }
  }
  for (const ViewEntry* entry : unpinned_) {
    if (entry_admits(*entry, r.tuple, env_, fns_)) return true;
  }
  return false;
}

void WindowSource::scan_key(const IndexKey& key,
                            Dataspace::RecordFn fn) const {
  if (view_.imports_everything()) {
    if (metrics_ == nullptr) {
      space_.scan_key(key, fn);
      return;
    }
    space_.scan_key(key, [&](const Record& r) {
      ++records_scanned_;
      ++records_admitted_;  // the whole-dataspace window admits everything
      return fn(r);
    });
    return;
  }
  space_.scan_key(key, [&](const Record& r) {
    ++records_scanned_;
    if (!admitted(r)) return true;
    ++records_admitted_;
    return fn(r);
  });
}

void WindowSource::scan_key_second(const IndexKey& key, const Value& second,
                                   Dataspace::RecordFn fn) const {
  if (view_.imports_everything()) {
    if (metrics_ == nullptr) {
      space_.scan_key_second(key, second, fn);
      return;
    }
    space_.scan_key_second(key, second, [&](const Record& r) {
      ++records_scanned_;
      ++records_admitted_;
      return fn(r);
    });
    return;
  }
  space_.scan_key_second(key, second, [&](const Record& r) {
    ++records_scanned_;
    if (!admitted(r)) return true;
    ++records_admitted_;
    return fn(r);
  });
}

void WindowSource::scan_arity(std::uint32_t arity,
                              Dataspace::RecordFn fn) const {
  if (view_.imports_everything()) {
    if (metrics_ == nullptr) {
      space_.scan_arity(arity, fn);
      return;
    }
    space_.scan_arity(arity, [&](const Record& r) {
      ++records_scanned_;
      ++records_admitted_;
      return fn(r);
    });
    return;
  }
  // If any entry of this arity is unpinned, the whole arity must be
  // scanned (filtered). Otherwise only the pinned buckets are visited —
  // this is the view-narrows-scans optimization experiment E7 measures.
  for (const ViewEntry* entry : unpinned_) {
    if (entry->pattern.arity() == arity) {
      space_.scan_arity(arity, [&](const Record& r) {
        ++records_scanned_;
        if (!admitted(r)) return true;
        ++records_admitted_;
        return fn(r);
      });
      return;
    }
  }
  bool keep_going = true;
  // Dedupe visited buckets by the IndexKey itself, NOT by key.hash():
  // two distinct keys with colliding hashes would silently skip the
  // second bucket and drop its admitted tuples from the window. (On this
  // 64-bit hash same-arity collisions happen to be impossible — the
  // multiplier is odd, hence bijective mod 2^64 — but cross-arity
  // collisions exist, and nothing here may depend on such accidents of
  // the hash function; see HashCollidingPinnedBuckets in the tests.)
  std::unordered_set<IndexKey, IndexKeyHash> visited_buckets;
  for (const PinnedEntry& pe : pinned_) {
    if (!keep_going) break;
    if (pe.key.arity != arity) continue;
    if (!visited_buckets.insert(pe.key).second) continue;
    space_.scan_key(pe.key, [&](const Record& r) {
      ++records_scanned_;
      if (!admitted(r)) return true;
      ++records_admitted_;
      keep_going = fn(r);
      return keep_going;
    });
  }
}

}  // namespace sdl
