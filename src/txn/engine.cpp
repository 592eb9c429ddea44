#include "txn/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/epoch.hpp"
#include "persist/persist.hpp"

namespace sdl {

// Both engines funnel every query — execute, probe, wakeup re-check —
// through Query::evaluate, which runs match programs from the per-query
// plan cache (query/compile.hpp).
QueryOutcome Engine::evaluate_query(const Transaction& txn, Env& env,
                                    const View* view) const {
  if (view != nullptr && !view->imports_everything()) {
    const WindowSource window(space_, *view, env, fns_, obs_metrics());
    return txn.query.evaluate(window, env, fns_);
  }
  const DataspaceSource source(space_);
  return txn.query.evaluate(source, env, fns_);
}

bool Engine::inject_commit_fault(const Transaction& txn, bool query_succeeded) {
  if (faults_ == nullptr) return false;
  switch (faults_->decide(FaultPoint::EngineCommit)) {
    case FaultAction::Delay:
      // Widen the evaluate→apply window with the locks held: commits that
      // race this one queue up behind it, wakes pile into the publish.
      faults_->delay();
      return false;
    case FaultAction::FailCommit:
      // Only meaningful for a commit that would have applied effects —
      // failing an already-failing or read-only transaction injects
      // nothing observable.
      return query_succeeded && !txn.is_read_only();
    default:
      return false;
  }
}

WaitSet::Interest Engine::interest_of(const Transaction& txn, Env& env) const {
  txn.query.clear_locals(env);
  WaitSet::Interest interest;
  for (const KeySpec& spec : txn.query.read_set(env, fns_)) {
    if (spec.kind == KeySpec::Kind::Exact) {
      interest.keys.push_back(spec.key);
    } else {
      interest.arities.push_back(spec.arity);
    }
  }
  return interest;
}

void Engine::commit(std::span<CommitPart> parts, ProcessId log_owner,
                    std::uint64_t fire, std::vector<IndexKey>& touched,
                    bool tolerate_missing_retract) {
  // Adjacent repeats (a read-modify-write's key, an init block's
  // relation) collapse here; publish_batch dedupes whatever is left.
  auto touch = [&touched](const IndexKey& key) {
    if (touched.empty() || touched.back() != key) touched.push_back(key);
  };

  // 1. Retractions before additions (§2.2, and the consensus composite
  // rule in §2.2's Consensus Transactions), each through the record
  // handle the match read under these same locks. A handle that is
  // already gone was retracted earlier in this commit — one instance may
  // appear in several ForAll assignments or composite members but leaves
  // D once — or, on the split_2pl sabotage path, by a writer that ran
  // while the locks were dropped.
  SmallVector<TupleId, 4> retracted;
  for (const CommitPart& part : parts) {
    if (part.outcome == nullptr) continue;
    for (const QueryMatch& m : part.outcome->matches) {
      for (const Record* r : m.retract) {
        if (space_.retract(*r)) {
          retracted.push_back(r->id);
          touch(Dataspace::key_of(*r));
        } else if (!tolerate_missing_retract &&
                   std::find(retracted.begin(), retracted.end(), r->id) ==
                       retracted.end()) {
          // Evaluation and application happen under the same locks; a
          // miss here is an engine bug, not a data race.
          throw std::logic_error("sdl::Engine: retraction target vanished");
        }
      }
    }
  }

  // 2-3. Link each part's tuples — each moves once, into its record node
  // — collecting the touched keys, the part's ids and the handles.
  std::size_t linking = 0;
  for (const CommitPart& part : parts) linking += part.tuples->size();
  SmallVector<const Record*, 4> linked;
  linked.reserve(linking);
  for (CommitPart& part : parts) {
    part.asserted->reserve(part.asserted->size() + part.tuples->size());
    for (Tuple& t : *part.tuples) {
      const IndexKey key = IndexKey::of(t);
      const Record& rec = space_.insert(key, std::move(t), part.owner);
      part.asserted->push_back(rec.id);
      linked.push_back(&rec);
      touch(key);
    }
  }

  // 4. One WAL frame per commit, encoded from the records just linked,
  // while the locks keep them resident: the WAL sequence assigned inside
  // is the recovery-order witness (wal.hpp). A composite is one frame, so
  // recovery replays it all-or-nothing.
  if (persist_ != nullptr && (!retracted.empty() || !linked.empty())) {
    persist_->log_commit(log_owner, fire, {retracted.data(), retracted.size()},
                         {linked.data(), linked.size()});
  }

  if (history_ == nullptr || !history_->enabled()) return;
  for (const CommitPart& part : parts) {
    if (part.txn != nullptr) {
      record_history(part.owner, fire, *part.outcome, *part.asserted,
                     *part.txn);
    } else {
      for (const TupleId id : *part.asserted) history_->record_seed(id);
    }
  }
}

void Engine::record_history(ProcessId owner, std::uint64_t fire,
                            const QueryOutcome& outcome,
                            const std::vector<TupleId>& asserted,
                            const Transaction& txn) {
  if (history_ == nullptr || !history_->enabled()) return;
  std::vector<TupleId> reads;
  std::vector<TupleId> retracts;
  for (const QueryMatch& m : outcome.matches) {
    reads.insert(reads.end(), m.reads.begin(), m.reads.end());
    for (const Record* r : m.retract) retracts.push_back(r->id);
  }
  history_->record_commit(owner, fire, std::move(reads), std::move(retracts),
                          asserted, txn.to_string());
}

void Engine::maybe_snapshot_after_commit() {
  if (persist_ == nullptr || !persist_->snapshot_due()) return;
  persist_->maybe_snapshot(space_, [this](const std::function<void()>& fn) {
    exclusive([&]() -> std::vector<IndexKey> {
      fn();
      return {};
    });
  });
}

Engine::ReplApplyOutcome Engine::apply_replicated(std::span<ReplFrame> batch,
                                                  IdIndex* id_index) {
  ReplApplyOutcome out;
  if (batch.empty()) return out;
  // Total exclusion, not per-commit 2PL: the leader's WAL order IS the
  // serialization order, so the follower replays it single-file — the
  // exclusive section brackets every shard (seqlock-odd under
  // ShardedEngine, with an epoch guard held), which is exactly what
  // restore/erase require, and the returned keys are published after
  // release so parked local readers wake. Batching many commits per
  // section amortizes the all-shard acquisition.
  exclusive([&]() -> std::vector<IndexKey> {
    std::vector<IndexKey> touched;
    for (ReplFrame& f : batch) {
      // Catch INSIDE the exclusion: ShardedEngine::exclusive does not
      // release its shard locks on unwind, and the applier thread has no
      // handler above it — an escaping throw would std::terminate the
      // follower. A failing commit instead stops the batch after the last
      // fully applied one; the caller rejects the session and the
      // reconnect handshake resumes from the watermark.
      try {
        for (const TupleId id : f.commit.retracts) {
          const auto it = id_index->find(id);
          if (it == id_index->end()) {
            // The leader retracted an instance this follower never had (or
            // already dropped): stream divergence, surfaced as a counter —
            // the chaos sweep's checker turns any nonzero into a failure.
            ++out.missing_retracts;
            continue;
          }
          touched.push_back(Dataspace::key_of(*it->second));
          space_.retract(*it->second);
          id_index->erase(it);
        }
        for (auto& [id, tuple] : f.commit.asserts) {
          const Record& rec = space_.restore(std::move(tuple), id);
          id_index->emplace(id, &rec);
          touched.push_back(Dataspace::key_of(rec));
        }
        // Follower-side durability: the leader's frame, as it arrived,
        // under the leader's sequence number, while the exclusion is held
        // (the same lock-held witness discipline as a local commit).
        if (persist_ != nullptr && !f.bytes.empty()) {
          persist_->log_frame(f.commit.seq, f.bytes);
        }
      } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
        break;
      }
      ++out.applied_commits;
    }
    return touched;
  });
  maybe_snapshot_after_commit();
  return out;
}

void materialize_asserts(const Transaction& txn, const QueryOutcome& outcome,
                         const Env& env, const View* view,
                         const FunctionRegistry* fns,
                         std::vector<Tuple>& out) {
  const bool exists = txn.query.quantifier == Quantifier::Exists;
  for (const QueryMatch& m : outcome.matches) {
    const Env& binding = exists ? env : m.binding;
    for (const AssertTemplate& a : txn.asserts) {
      Tuple::Fields fields;
      fields.reserve(a.fields.size());
      for (const ExprPtr& f : a.fields) fields.push_back(f->eval(binding, fns));
      Tuple t(std::move(fields));
      // Export filter: D' keeps only Export(p) ∩ Wa.
      if (view != nullptr && !view->exports_everything()) {
        Env scratch = binding;
        if (!view->exports_tuple(t, scratch, fns)) continue;  // dropped
      }
      out.push_back(std::move(t));
    }
  }
}

TxnResult execute_blocking(Engine& engine, const Transaction& txn, Env& env,
                           ProcessId owner, const View* view) {
  // Fast path: no subscription needed if the first attempt commits. An
  // injected transient failure is retried here rather than parked on:
  // nothing was applied, so nothing will publish a wakeup for it.
  TxnResult result = engine.execute(txn, env, owner, view);
  while (result.injected_fault) {
    std::this_thread::yield();
    result = engine.execute(txn, env, owner, view);
  }
  if (result.success || txn.type == TxnType::Immediate) return result;

  BlockingWaiter waiter;
  const WaitSet::Ticket ticket =
      engine.waits().subscribe(engine.interest_of(txn, env), waiter.wake_fn());
  // Re-check after subscribing: a commit may have landed in between.
  for (;;) {
    result = engine.execute(txn, env, owner, view);
    if (result.success) break;
    if (result.injected_fault) {
      // Transient injected failure: no publish is coming for it, so retry
      // instead of waiting.
      std::this_thread::yield();
      continue;
    }
    // Re-checks after a wake go through the read-locked probe first, so a
    // spurious or losing wake costs shared locks, not exclusive ones.
    // (Read-only transactions skip the probe: their execute() already
    // takes only shared locks.) A true probe is a hint — execute() above
    // revalidates under the full lock plan.
    do {
      waiter.wait();
    } while (!txn.is_read_only() && !engine.probe(txn, env, view));
  }
  engine.waits().unsubscribe(ticket);
  return result;
}

// ---------------------------------------------------------------- global

TxnResult GlobalLockEngine::execute(const Transaction& txn, Env& env,
                                    ProcessId owner, const View* view) {
  stats_.locked_attempts.add();
  // Once-per-txn observability gate: hoist the nullable instrument set
  // into a local; every timestamp below hides behind `m`. The span
  // instruments are *sampled* (1-in-SDL_OBS_SAMPLE per thread): full span
  // timing costs ~6 clock reads, which would dominate a sub-µs commit.
  obs::RuntimeMetrics* const armed = obs_metrics();
  obs::RuntimeMetrics* const m =
      (armed != nullptr && obs::sample_span()) ? armed : nullptr;
  const std::uint64_t t_start = m != nullptr ? obs::now_ns() : 0;
  TxnResult result;
  std::vector<IndexKey> touched;
  std::uint64_t t_released = 0;
  {
    std::unique_lock lock(mutex_, std::defer_lock);
    if (m != nullptr) {
      if (!lock.try_lock()) {
        m->lock_exclusive_contended->add();
        lock.lock();
      }
      m->lock_exclusive_acquired->add();
      m->txn_lock_wait_ns->record(obs::now_ns() - t_start);
    } else {
      lock.lock();
    }
    const std::uint64_t t_locked = m != nullptr ? obs::now_ns() : 0;
    QueryOutcome outcome = evaluate_query(txn, env, view);
    const std::uint64_t t_eval = m != nullptr ? obs::now_ns() : 0;
    if (m != nullptr) m->txn_evaluate_ns->record(t_eval - t_locked);
    if (inject_commit_fault(txn, outcome.success)) {
      result.injected_fault = true;  // effects withheld; retry is safe
    } else if (outcome.success) {
      // Retracted nodes are EBR-retired; the pin keeps the match's record
      // handles readable through the history record (epoch.hpp).
      epoch::Guard eguard;
      // Atomicity: materialize every assertion FIRST. A throwing field
      // expression (division by zero, a host function failing) must abort
      // the transaction with the dataspace untouched — "transactions ...
      // either succeed or have no effect on the dataspace" (§2.2).
      std::vector<Tuple> to_insert;
      materialize_asserts(txn, outcome, env, view, fns_, to_insert);
      CommitPart part{owner, &txn, &outcome, &to_insert, &result.asserted};
      commit({&part, 1}, owner, /*fire=*/0, touched);
      result.success = true;
      result.matches = std::move(outcome.matches);
    }
    if (m != nullptr) {
      t_released = obs::now_ns();
      m->txn_apply_ns->record(t_released - t_eval);
      m->txn_lock_hold_ns->record(t_released - t_locked);
    }
  }
  if (result.success) {
    stats_.locked_commits.add();
    if (!touched.empty()) {
      waits_.publish_batch(std::move(touched));
    }
    maybe_snapshot_after_commit();
  } else {
    stats_.locked_failures.add();
  }
  if (m != nullptr) {
    const std::uint64_t t_end = obs::now_ns();
    m->txn_publish_ns->record(t_end - t_released);
    m->txn_total_ns->record(t_end - t_start);
  }
  return result;
}

bool GlobalLockEngine::probe(const Transaction& txn, Env& env,
                             const View* view) {
  stats_.probes.add();
  std::scoped_lock lock(mutex_);
  return evaluate_query(txn, env, view).success;
}

void GlobalLockEngine::exclusive(const std::function<std::vector<IndexKey>()>& fn) {
  std::vector<IndexKey> touched;
  {
    std::scoped_lock lock(mutex_);
    epoch::Guard eguard;  // fn's retracts retire nodes
    touched = fn();
  }
  if (!touched.empty()) waits_.publish_batch(std::move(touched));
}

// --------------------------------------------------------------- sharded

ShardedEngine::ShardedEngine(Dataspace& space, WaitSet& waits,
                             const FunctionRegistry* fns)
    : Engine(space, waits, fns),
      locks_(std::make_unique<std::shared_mutex[]>(space.shard_count())),
      lock_count_(space.shard_count()) {}

ShardedEngine::LockPlan ShardedEngine::plan_locks(const Transaction& txn,
                                                  Env& env) const {
  LockPlan plan;
  txn.query.clear_locals(env);

  // Positive patterns. A retract-tagged pattern is a write: the matched
  // instance is erased from that pattern's bucket, so its shard needs an
  // exclusive lock; an untagged pattern only reads. Unresolvable heads
  // widen the corresponding mode to every shard.
  for (const TuplePattern& p : txn.query.patterns) {
    const KeySpec spec = p.key_spec(env, fns_);
    if (spec.kind == KeySpec::Kind::Arity) {
      (p.retract_tagged() ? plan.write_all : plan.read_all) = true;
    } else if (p.retract_tagged()) {
      plan.write_shards.push_back(space_.shard_of(spec.key));
    } else {
      plan.read_shards.push_back(space_.shard_of(spec.key));
    }
  }
  // Negated patterns only test for absence — pure reads.
  for (const NegatedGroup& g : txn.query.negations) {
    for (const TuplePattern& p : g.patterns) {
      const KeySpec spec = p.key_spec(env, fns_);
      if (spec.kind == KeySpec::Kind::Arity) {
        plan.read_all = true;
      } else {
        plan.read_shards.push_back(space_.shard_of(spec.key));
      }
    }
  }
  // Assertion targets, from the transaction's effect templates: exact
  // heads give exact write shards; an unresolvable head widens the write
  // set to all shards, exactly as the pre-r/w planner widened to `all`.
  const Transaction::WriteSet ws = txn.write_set(env, fns_);
  if (ws.unknown) plan.write_all = true;
  for (const IndexKey& k : ws.exact) {
    plan.write_shards.push_back(space_.shard_of(k));
  }

  if (plan.write_all) {
    // Everything is exclusive; the per-shard lists are moot.
    plan.read_all = false;
    plan.read_shards.clear();
    plan.write_shards.clear();
    return plan;
  }
  std::sort(plan.write_shards.begin(), plan.write_shards.end());
  plan.write_shards.erase(
      std::unique(plan.write_shards.begin(), plan.write_shards.end()),
      plan.write_shards.end());
  if (plan.read_all) {
    plan.read_shards.clear();  // acquire() shares everything not written
    return plan;
  }
  std::sort(plan.read_shards.begin(), plan.read_shards.end());
  plan.read_shards.erase(
      std::unique(plan.read_shards.begin(), plan.read_shards.end()),
      plan.read_shards.end());
  // A shard both read and written is locked once, exclusively.
  std::vector<std::size_t> only_read;
  only_read.reserve(plan.read_shards.size());
  std::set_difference(plan.read_shards.begin(), plan.read_shards.end(),
                      plan.write_shards.begin(), plan.write_shards.end(),
                      std::back_inserter(only_read));
  plan.read_shards = std::move(only_read);
  return plan;
}

void ShardedEngine::acquire(const LockPlan& plan, HeldLocks& held,
                            obs::RuntimeMetrics* m) {
  held.space = &space_;
  // Acquire in ascending shard order — one canonical order across both
  // modes makes the reader–writer 2PL deadlock-free (CP.21's
  // ordered-acquisition idea, spelled out because the lock set is
  // dynamic). std::shared_mutex admits writer starvation in principle;
  // acquisition order is unaffected. With instruments armed, each lock is
  // try-locked first so a blocked acquisition counts as contended; the
  // try-then-block dance never changes the acquisition order. Callers on
  // the per-txn hot path pass the span-SAMPLED instrument pointer, so the
  // acquire/contended counts here tally sampled transactions — the
  // contention *ratio* is unbiased even though the totals are thinned.
  auto lock_shared = [&](std::size_t i) {
    if (m == nullptr) {
      held.shared.emplace_back(locks_[i]);
      return;
    }
    std::shared_lock<std::shared_mutex> l(locks_[i], std::try_to_lock);
    if (!l.owns_lock()) {
      m->lock_shared_contended->add();
      l.lock();
    }
    m->lock_shared_acquired->add();
    held.shared.push_back(std::move(l));
  };
  // Exclusive acquisition opens the shard's seqlock write bracket (version
  // goes odd) the moment the lock is held: the whole critical section —
  // evaluation included — is one odd window, so optimistic readers reject
  // or invalidate against ALL of this commit's mutations as a unit.
  auto lock_exclusive = [&](std::size_t i) {
    if (m == nullptr) {
      held.exclusive.emplace_back(locks_[i]);
    } else {
      std::unique_lock<std::shared_mutex> l(locks_[i], std::try_to_lock);
      if (!l.owns_lock()) {
        m->lock_exclusive_contended->add();
        l.lock();
      }
      m->lock_exclusive_acquired->add();
      held.exclusive.push_back(std::move(l));
    }
    space_.begin_shard_write(i);
    held.exclusive_shards.push_back(i);
  };

  if (plan.write_all) {
    held.exclusive.reserve(lock_count_);
    for (std::size_t i = 0; i < lock_count_; ++i) lock_exclusive(i);
    return;
  }
  if (plan.read_all) {
    held.shared.reserve(lock_count_ - plan.write_shards.size());
    held.exclusive.reserve(plan.write_shards.size());
    auto w = plan.write_shards.begin();
    for (std::size_t i = 0; i < lock_count_; ++i) {
      if (w != plan.write_shards.end() && *w == i) {
        lock_exclusive(i);
        ++w;
      } else {
        lock_shared(i);
      }
    }
    return;
  }
  held.shared.reserve(plan.read_shards.size());
  held.exclusive.reserve(plan.write_shards.size());
  auto r = plan.read_shards.begin();
  auto w = plan.write_shards.begin();
  while (r != plan.read_shards.end() || w != plan.write_shards.end()) {
    if (w == plan.write_shards.end() ||
        (r != plan.read_shards.end() && *r < *w)) {
      lock_shared(*r);
      ++r;
    } else {
      lock_exclusive(*w);
      ++w;
    }
  }
}

void ShardedEngine::release(HeldLocks& held) {
  // Close the seqlock write brackets (versions back to even, release
  // order) strictly BEFORE dropping the locks: an optimistic reader that
  // samples between end_shard_write and unlock just sees a quiet shard.
  held.end_writes();
  held.shared.clear();
  held.exclusive.clear();
}

TxnResult ShardedEngine::execute(const Transaction& txn, Env& env,
                                 ProcessId owner, const View* view) {
  // Once-per-txn observability gate: hoist the nullable instrument set
  // into a local; every timestamp below hides behind `m`. The span
  // instruments (and the matching per-lock acquire/contended counts that
  // acquire() records under `m`) are *sampled* — 1-in-SDL_OBS_SAMPLE
  // transactions per thread — because full span timing costs ~6 clock
  // reads and would dominate a sub-µs commit (see EXPERIMENTS E19).
  obs::RuntimeMetrics* const armed = obs_metrics();
  obs::RuntimeMetrics* const m =
      (armed != nullptr && obs::sample_span()) ? armed : nullptr;
  const std::uint64_t t_start = m != nullptr ? obs::now_ns() : 0;

  // Lock-free read path. Gated to transactions the protocol fully covers:
  // no view window (WindowSource hands out lock-contract references), no
  // armed history recorder (its serialization witness is a lock-held
  // sequence number) and no armed fault injector (its commit point is a
  // locked-path hook) — sim and checker runs therefore exercise the
  // always-correct locked path below, unchanged.
  if (txn.is_read_only() && (view == nullptr || view->imports_everything()) &&
      (history_ == nullptr || !history_->enabled()) && faults_ == nullptr) {
    TxnResult result;
    if (try_optimistic_read(txn, env, result, armed)) {
      // The read's one counter bump; attempts() and commits() or
      // failures() derive from it.
      (result.success ? stats_.read_optimistic_hits
                      : stats_.read_optimistic_misses)
          .add();
      if (m != nullptr) m->txn_total_ns->record(obs::now_ns() - t_start);
      return result;
    }
    // Validation kept failing: fall through to the shared-lock path.
  }
  stats_.locked_attempts.add();

  // Commutative blind-assert path: a pure-guard, assert-only transaction
  // reads nothing from D, so its guard and assert fields evaluate OUTSIDE
  // any lock and only the resolved target shards get locked (exclusive).
  // Sabotage runs use the regular path — its hooks live there.
  if (!txn.is_read_only() && txn.query.pure_guard() && sabotage_ == nullptr) {
    return execute_blind_assert(txn, env, owner, view, m, t_start);
  }

  const LockPlan plan = plan_locks(txn, env);
  HeldLocks held;
  const std::uint64_t t_wait0 = m != nullptr ? obs::now_ns() : 0;
  acquire(plan, held, m);
  const std::uint64_t t_locked = m != nullptr ? obs::now_ns() : 0;
  if (m != nullptr) m->txn_lock_wait_ns->record(t_locked - t_wait0);

  TxnResult result;
  QueryOutcome outcome = evaluate_query(txn, env, view);
  const std::uint64_t t_eval = m != nullptr ? obs::now_ns() : 0;
  if (m != nullptr) m->txn_evaluate_ns->record(t_eval - t_locked);
  std::vector<IndexKey> touched;
  if (inject_commit_fault(txn, outcome.success)) {
    result.injected_fault = true;  // effects withheld; retry is safe
  } else if (outcome.success) {
    // A read-only transaction commits here too, for its history entry: it
    // has no effect templates, so nothing is applied, logged or published
    // and readers of one shard commit together under shared locks (E15).
    // Pin for the mutation region and the history record after it:
    // retract() retires nodes, a growing bucket table retires its
    // predecessor, and the history record reads the retracted handles.
    // The writer's pin is part of the EBR grace-period argument (epoch.hpp
    // "Why writers pin too").
    epoch::Guard eguard;
    const bool drop = sabotage_ != nullptr &&
                      sabotage_->drop_effects.load(std::memory_order_relaxed);
    const bool split = sabotage_ != nullptr && !txn.is_read_only() &&
                       sabotage_->split_2pl.load(std::memory_order_relaxed);
    if (drop) {
      // Torn commit: success is reported and recorded, with the intended
      // retract set, but nothing reaches the dataspace or the WAL.
      record_history(owner, /*fire=*/0, outcome, result.asserted, txn);
    } else {
      // Atomicity: materialize every assertion FIRST. A throwing field
      // expression (division by zero, a host function failing) must abort
      // the transaction with the dataspace untouched (§2.2).
      std::vector<Tuple> to_insert;
      materialize_asserts(txn, outcome, env, view, fns_, to_insert);
      if (split) {
        // Break strict 2PL: drop every lock between evaluation and
        // application, widen the unprotected window, then re-lock and
        // apply whatever is still there.
        release(held);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        acquire(plan, held);
      }
      CommitPart part{owner, &txn, &outcome, &to_insert, &result.asserted};
      commit({&part, 1}, owner, /*fire=*/0, touched,
             /*tolerate_missing_retract=*/split);
    }
    result.success = true;
    result.matches = std::move(outcome.matches);
  }
  std::uint64_t t_released = 0;
  if (m != nullptr) {
    t_released = obs::now_ns();
    m->txn_apply_ns->record(t_released - t_eval);
    // Under split_2pl sabotage the locks were dropped and re-taken mid-
    // window; the hold span deliberately still covers the whole interval.
    m->txn_lock_hold_ns->record(t_released - t_locked);
  }
  release(held);  // release before publishing (CP.22)

  if (result.success) {
    stats_.locked_commits.add();
    if (!touched.empty()) {
      waits_.publish_batch(std::move(touched));
    }
    maybe_snapshot_after_commit();
  } else {
    stats_.locked_failures.add();
  }
  if (m != nullptr) {
    const std::uint64_t t_end = obs::now_ns();
    m->txn_publish_ns->record(t_end - t_released);
    m->txn_total_ns->record(t_end - t_start);
  }
  return result;
}

bool ShardedEngine::try_optimistic_read(const Transaction& txn, Env& env,
                                        TxnResult& result,
                                        obs::RuntimeMetrics* armed) {
  control::OverloadControl* const ctl = overload_;
  // Circuit breaker: while Open, unlocked evaluations are known-wasted
  // work (validation keeps failing against write pressure, or the epoch
  // watchdog found a reclamation backlog) — go straight to the
  // always-correct shared-lock path. A HalfOpen probe slips through.
  if (ctl != nullptr && !ctl->optimistic_allowed()) {
    stats_.read_fallbacks.add();
    if (armed != nullptr) armed->read_lock_fallback->add();
    return false;
  }
  for (int attempt = 0; attempt < kOptimisticAttempts; ++attempt) {
    // Bounded backoff before each retry: a failed validation means a
    // writer just committed into a sampled shard — yield once rather than
    // spin into its successor's critical section.
    if (attempt != 0) std::this_thread::yield();
    // The pin makes every node reachable from the live bucket chains —
    // including ones a concurrent writer unlinks mid-traversal — safe to
    // dereference until the Guard drops (epoch.hpp).
    epoch::Guard guard;
    const OptimisticSource source(space_);
    QueryOutcome outcome = txn.query.evaluate(source, env, fns_);
    if (source.validate()) {
      // The traversal observed a consistent snapshot. The result is safe
      // to hand out past the Guard: env and the matches hold deep-copied
      // values and ids, never pointers into retired nodes. The caller
      // counts it.
      result.success = outcome.success;
      result.matches = std::move(outcome.matches);
      if (armed != nullptr) armed->read_optimistic_ok->add();
      if (ctl != nullptr) ctl->on_optimistic_ok();
      return true;
    }
    stats_.read_retries.add();
    if (armed != nullptr) armed->read_validation_retry->add();
    // Each in-place re-evaluation is a retry the shared budget must pay
    // for: in a validation storm the bucket drains and readers decay to
    // the shared-lock fallback instead of multiplying unlocked scans.
    if (ctl != nullptr && attempt + 1 < kOptimisticAttempts &&
        !ctl->try_spend_retry()) {
      break;
    }
  }
  stats_.read_fallbacks.add();
  if (armed != nullptr) armed->read_lock_fallback->add();
  if (ctl != nullptr) ctl->on_optimistic_fallback();
  return false;
}

TxnResult ShardedEngine::execute_blind_assert(const Transaction& txn, Env& env,
                                              ProcessId owner, const View* view,
                                              obs::RuntimeMetrics* m,
                                              std::uint64_t t_start) {
  TxnResult result;
  // Guard and assert fields read only the environment (pure_guard = no
  // patterns, no negations), so evaluate them against an empty source with
  // no locks held. A throwing field expression aborts here, D untouched.
  struct NullSource final : TupleSource {
    void scan_key(const IndexKey&, Dataspace::RecordFn) const override {}
    void scan_arity(std::uint32_t, Dataspace::RecordFn) const override {}
  };
  const NullSource nothing;
  QueryOutcome outcome = txn.query.evaluate(nothing, env, fns_);
  const std::uint64_t t_eval = m != nullptr ? obs::now_ns() : 0;
  if (m != nullptr) m->txn_evaluate_ns->record(t_eval - t_start);
  if (!outcome.success) {
    stats_.locked_failures.add();
    if (m != nullptr) m->txn_total_ns->record(obs::now_ns() - t_start);
    return result;
  }
  // Materialize (and export-filter) every assertion outside the locks;
  // the critical section below is just the links.
  std::vector<Tuple> to_insert;
  materialize_asserts(txn, outcome, env, view, fns_, to_insert);
  // The materialized tuples resolve the target shards exactly — no
  // conservative write_set, no LockPlan.
  std::vector<std::size_t> shards;
  shards.reserve(to_insert.size());
  for (const Tuple& t : to_insert) shards.push_back(space_.shard_of(IndexKey::of(t)));
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());

  LockPlan plan;
  plan.write_shards = std::move(shards);
  HeldLocks held;
  const std::uint64_t t_wait0 = m != nullptr ? obs::now_ns() : 0;
  acquire(plan, held, m);
  const std::uint64_t t_locked = m != nullptr ? obs::now_ns() : 0;
  if (m != nullptr) m->txn_lock_wait_ns->record(t_locked - t_wait0);

  std::vector<IndexKey> touched;
  if (inject_commit_fault(txn, /*query_succeeded=*/true)) {
    result.injected_fault = true;  // effects withheld; retry is safe
  } else {
    epoch::Guard eguard;  // bucket-table growth retires the old table
    CommitPart part{owner, &txn, &outcome, &to_insert, &result.asserted};
    commit({&part, 1}, owner, /*fire=*/0, touched);
    result.success = true;
    result.matches = std::move(outcome.matches);
  }
  std::uint64_t t_released = 0;
  if (m != nullptr) {
    t_released = obs::now_ns();
    m->txn_apply_ns->record(t_released - t_locked);
    m->txn_lock_hold_ns->record(t_released - t_locked);
  }
  release(held);  // release before publishing (CP.22)

  if (result.success) {
    stats_.locked_commits.add();
    stats_.blind_asserts.add();
    if (!touched.empty()) {
      waits_.publish_batch(std::move(touched));
    }
    maybe_snapshot_after_commit();
  } else {
    // Injected faults count as failures, as in execute().
    stats_.locked_failures.add();
  }
  if (m != nullptr) {
    const std::uint64_t t_end = obs::now_ns();
    m->txn_publish_ns->record(t_end - t_released);
    m->txn_total_ns->record(t_end - t_start);
  }
  return result;
}

bool ShardedEngine::probe(const Transaction& txn, Env& env, const View* view) {
  stats_.probes.add();
  // Lock-free first: a probe is a pre-check, so a validated optimistic
  // evaluation answers it with no locks at all. No history/fault gating —
  // probes never record history and never commit.
  if (view == nullptr || view->imports_everything()) {
    TxnResult scratch;
    if (try_optimistic_read(txn, env, scratch, obs_metrics())) {
      stats_.probe_optimistic.add();
      return scratch.success;
    }
  }
  // A probe never applies effects, so even retract-tagged patterns and
  // assertion targets contribute only READ locks: lock every bucket the
  // query scans, shared, and evaluate.
  HeldLocks held;
  acquire(read_plan(txn, env), held);
  return evaluate_query(txn, env, view).success;
}

ShardedEngine::LockPlan ShardedEngine::read_plan(const Transaction& txn,
                                                 Env& env) const {
  LockPlan plan;
  txn.query.clear_locals(env);
  for (const KeySpec& spec : txn.query.read_set(env, fns_)) {
    if (spec.kind == KeySpec::Kind::Arity) {
      plan.read_all = true;
      plan.read_shards.clear();
      break;
    }
    plan.read_shards.push_back(space_.shard_of(spec.key));
  }
  if (!plan.read_all) {
    std::sort(plan.read_shards.begin(), plan.read_shards.end());
    plan.read_shards.erase(
        std::unique(plan.read_shards.begin(), plan.read_shards.end()),
        plan.read_shards.end());
  }
  return plan;
}

void ShardedEngine::exclusive(const std::function<std::vector<IndexKey>()>& fn) {
  // Full write bracketing: `fn` may mutate any shard (the consensus
  // composite does), so every version goes odd for the duration and the
  // writer pins (fn's erases retire nodes).
  LockPlan plan;
  plan.write_all = true;
  HeldLocks held;
  acquire(plan, held);
  std::vector<IndexKey> touched;
  {
    epoch::Guard eguard;
    touched = fn();
  }
  release(held);
  if (!touched.empty()) waits_.publish_batch(std::move(touched));
}

}  // namespace sdl
