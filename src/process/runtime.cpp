#include "process/runtime.hpp"

#include <stdexcept>

#include "query/compile.hpp"
#include "repl/net_transport.hpp"

namespace sdl {

Runtime::Runtime(RuntimeOptions options)
    : options_(options),
      space_(options.shards),
      waits_(options.wake_policy),
      trace_(options.trace_capacity) {
  trace_.set_enabled(options.tracing);
  // Stamp the replication node id into the WAL segment headers this node
  // writes, so shipped segments carry their origin.
  if (options_.repl.enabled() && options_.persist.node_id == 0) {
    options_.persist.node_id = options_.repl.node_id;
  }
  if (options_.engine == EngineKind::GlobalLock) {
    engine_ = std::make_unique<GlobalLockEngine>(space_, waits_, &functions_);
  } else {
    engine_ = std::make_unique<ShardedEngine>(space_, waits_, &functions_);
  }
  scheduler_ = std::make_unique<Scheduler>(*engine_, options_.scheduler);
  consensus_ = std::make_unique<ConsensusManager>(*engine_, *scheduler_);
  scheduler_->set_consensus_manager(consensus_.get());
  if (options_.tracing) scheduler_->set_trace(&trace_);
  // Observability: instruments are always wired (the registry owns them),
  // but record only while obs::enabled() — components re-check the flag
  // once per operation, so the disabled cost is one pointer + one relaxed
  // load per hot-path crossing.
  engine_->set_metrics(&metrics_);
  scheduler_->set_metrics(&metrics_);
  consensus_->set_metrics(&metrics_);
  if (options_.overload.enabled()) {
    overload_ = std::make_unique<control::OverloadControl>(options_.overload);
    engine_->set_overload(overload_.get());
    waits_.set_overload(overload_.get());
    scheduler_->set_overload(overload_.get());
  }
  if (options_.incremental.enabled) {
    inc_ = std::make_unique<IncrementalControl>(options_.incremental);
    scheduler_->set_incremental(inc_.get());
  }
  register_gauges();
  if (options_.persist.enabled()) {
    // Mutating open: recovers the directory's committed state, then loads
    // it into the (still single-threaded) fresh dataspace before arming
    // the engine's WAL hook. Geometry mismatches throw here.
    persist_mgr_ = std::make_unique<persist::PersistManager>(
        options_.persist, static_cast<std::uint32_t>(options_.shards));
    persist::apply(space_, persist_mgr_->recovered());
    engine_->set_persist(persist_mgr_.get());
    persist_mgr_->set_metrics(&metrics_);
    if (overload_) persist_mgr_->set_overload(overload_.get());
  }
  if (options_.repl.enabled()) {
    if (options_.repl.role == repl::Role::Leader) {
      if (!persist_mgr_) {
        throw std::invalid_argument(
            "repl: a leader requires persist.dir — the WAL is the "
            "replication stream");
      }
      repl_leader_ =
          std::make_unique<repl::ReplLeader>(options_.repl, persist_mgr_.get());
    } else {
      // The follower's id->IndexKey shadow map is seeded with whatever its
      // own recovery restored (WAL retracts carry only ids), and the
      // leader-seq watermark with what the re-logged repl_mark records
      // prove durable — the reattach Hello resumes the stream there.
      static const std::vector<std::pair<TupleId, Tuple>> kEmpty;
      repl_follower_ = std::make_unique<repl::ReplFollower>(
          options_.repl, engine_.get(), persist_mgr_.get(),
          persist_mgr_ ? persist_mgr_->recovered().live : kEmpty,
          persist_mgr_ ? persist_mgr_->recovered().repl_applied_seq : 0);
      if (options_.repl.connect_port != 0) {
        auto t = repl::net_connect(options_.repl.connect_port,
                                   options_.repl.poll_interval_ms);
        if (t != nullptr) repl_follower_->attach(std::move(t));
      }
    }
    register_repl_gauges();
  }
}

void Runtime::register_gauges() {
  // Bridge the pre-existing stat pockets into the unified export as pull
  // gauges: sampled at render time, zero cost on the hot paths.
  metrics_registry_.gauge("sdl_tuples_resident",
                          [this] { return space_.size(); });
  metrics_registry_.gauge("sdl_tuples_asserted_total",
                          [this] { return space_.stats().asserts; });
  metrics_registry_.gauge("sdl_tuples_retracted_total",
                          [this] { return space_.stats().retracts; });
  metrics_registry_.gauge("sdl_txn_attempts_total",
                          [this] { return engine_->stats().attempts.load(); });
  metrics_registry_.gauge("sdl_txn_commits_total",
                          [this] { return engine_->stats().commits.load(); });
  metrics_registry_.gauge("sdl_txn_failures_total",
                          [this] { return engine_->stats().failures.load(); });
  metrics_registry_.gauge("sdl_wakes_delivered_total",
                          [this] { return waits_.wakes_delivered(); });
  metrics_registry_.gauge("sdl_processes_spawned_total",
                          [this] { return scheduler_->total_spawned(); });
  metrics_registry_.gauge("sdl_processes_completed_total",
                          [this] { return scheduler_->total_completed(); });
  metrics_registry_.gauge("sdl_consensus_sweeps_total",
                          [this] { return consensus_->sweeps(); });
  metrics_registry_.gauge("sdl_consensus_fires_total",
                          [this] { return consensus_->fires(); });
  // Compiled-query plan cache (src/query/compile.hpp). The counters are
  // process-global — every Query shares one stats block — so these gauges
  // cover all runtimes in the process; in the common one-runtime-per-
  // process deployment that distinction is invisible.
  metrics_registry_.gauge("sdl_plan_cache_hits_total", [] {
    return plan_cache_stats().hits.load();
  });
  metrics_registry_.gauge("sdl_plan_cache_misses_total", [] {
    return plan_cache_stats().misses.load();
  });
  metrics_registry_.gauge("sdl_plan_cache_compiles_total", [] {
    return plan_cache_stats().compiles.load();
  });
  metrics_registry_.gauge("sdl_plan_cache_invalidations_total", [] {
    return plan_cache_stats().invalidations.load();
  });
  metrics_registry_.gauge("sdl_plan_cache_bailouts_total", [] {
    return plan_cache_stats().bailouts.load();
  });
  if (overload_) {
    control::OverloadControl* const c = overload_.get();
    metrics_registry_.gauge("sdl_admission_inflight",
                            [c] { return c->inflight(); });
    metrics_registry_.gauge("sdl_admitted_total", [c] {
      return c->stats().admitted.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_admission_shed_total", [c] {
      return c->stats().sheds.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_retry_budget_tokens",
                            [c] { return c->retry_tokens(); });
    metrics_registry_.gauge("sdl_retry_spent_total", [c] {
      return c->stats().retry_spent.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_retry_denied_total", [c] {
      return c->stats().retry_denied.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge(
        "sdl_breaker_state",
        [c] { return static_cast<std::uint64_t>(c->breaker_state()); });
    metrics_registry_.gauge("sdl_breaker_trips_total", [c] {
      return c->stats().breaker_trips.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_wal_backpressure_waits_total", [c] {
      return c->stats().wal_waits.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_park_saturated_total", [c] {
      return c->stats().park_saturated.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_epoch_forced_drains_total", [c] {
      return c->stats().forced_drains.load(std::memory_order_relaxed);
    });
  }
  if (inc_) {
    IncrementalControl* const c = inc_.get();
    metrics_registry_.gauge("sdl_inc_state_bytes", [c] {
      const std::int64_t b = c->state_bytes.load(std::memory_order_relaxed);
      return static_cast<std::uint64_t>(b > 0 ? b : 0);
    });
    metrics_registry_.gauge("sdl_inc_states_live", [c] {
      const std::int64_t n = c->states_live.load(std::memory_order_relaxed);
      return static_cast<std::uint64_t>(n > 0 ? n : 0);
    });
    metrics_registry_.gauge("sdl_inc_checks_empty_total", [c] {
      return c->checks_empty.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_inc_checks_seeded_total", [c] {
      return c->checks_seeded.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_inc_wakes_confirmed_total", [c] {
      return c->wakes_confirmed.load(std::memory_order_relaxed);
    });
    metrics_registry_.gauge("sdl_inc_fallbacks_total",
                            [c] { return c->fallbacks_total(); });
  }
}

void Runtime::register_repl_gauges() {
  if (repl_leader_) {
    repl::ReplLeader* const l = repl_leader_.get();
    metrics_registry_.gauge("sdl_repl_lag_records",
                            [l] { return l->stats().lag_records; });
    metrics_registry_.gauge("sdl_repl_lag_bytes",
                            [l] { return l->stats().lag_bytes; });
    metrics_registry_.gauge("sdl_repl_batches_sent_total",
                            [l] { return l->stats().batches_sent; });
    metrics_registry_.gauge("sdl_repl_snapshots_sent_total",
                            [l] { return l->stats().snapshots_sent; });
    metrics_registry_.gauge("sdl_repl_sessions_started_total",
                            [l] { return l->stats().sessions_started; });
    metrics_registry_.gauge("sdl_repl_backpressure_total",
                            [l] { return l->stats().backpressure_hits; });
    if (overload_) {
      control::OverloadControl* const c = overload_.get();
      metrics_registry_.gauge("sdl_repl_write_sheds_total", [c] {
        return c->stats().repl_backpressure.load(std::memory_order_relaxed);
      });
    }
  }
  if (repl_follower_) {
    repl::ReplFollower* const f = repl_follower_.get();
    metrics_registry_.gauge("sdl_repl_applied_seq",
                            [f] { return f->applied_seq(); });
    metrics_registry_.gauge("sdl_repl_batches_applied_total",
                            [f] { return f->stats().batches_applied; });
    metrics_registry_.gauge("sdl_repl_snapshots_loaded_total",
                            [f] { return f->stats().snapshots_loaded; });
    metrics_registry_.gauge("sdl_repl_reconnects_total",
                            [f] { return f->stats().reconnects; });
    metrics_registry_.gauge("sdl_repl_promotions_total",
                            [f] { return f->stats().promotions; });
    metrics_registry_.gauge("sdl_repl_missing_retracts_total",
                            [f] { return f->stats().missing_retracts; });
  }
}

RunReport Runtime::run() {
  RunReport report = scheduler_->run();
  if (obs::enabled()) report.metrics = metrics_registry_.summary();
  return report;
}

FaultInjector& Runtime::enable_faults(std::uint64_t seed) {
  if (!faults_) {
    faults_ = std::make_unique<FaultInjector>(seed);
    engine_->set_fault_injector(faults_.get());
    waits_.set_fault_injector(faults_.get());
    scheduler_->set_fault_injector(faults_.get());
    consensus_->set_fault_injector(faults_.get());
    if (persist_mgr_) persist_mgr_->set_fault_injector(faults_.get());
    if (overload_) overload_->set_fault_injector(faults_.get());
    if (repl_leader_) repl_leader_->set_fault_injector(faults_.get());
    if (repl_follower_) repl_follower_->set_fault_injector(faults_.get());
  }
  return *faults_;
}

void Runtime::disable_faults() {
  if (!faults_) return;
  engine_->set_fault_injector(nullptr);
  waits_.set_fault_injector(nullptr);
  scheduler_->set_fault_injector(nullptr);
  consensus_->set_fault_injector(nullptr);
  if (persist_mgr_) persist_mgr_->set_fault_injector(nullptr);
  if (overload_) overload_->set_fault_injector(nullptr);
  if (repl_leader_) repl_leader_->set_fault_injector(nullptr);
  if (repl_follower_) repl_follower_->set_fault_injector(nullptr);
  faults_.reset();
}

HistoryRecorder& Runtime::enable_history() {
  if (!history_) history_ = std::make_unique<HistoryRecorder>();
  history_->reset(space_);
  history_->set_enabled(true);
  engine_->set_history(history_.get());
  return *history_;
}

void Runtime::disable_history() {
  if (!history_) return;
  engine_->set_history(nullptr);
  history_.reset();
}

CheckReport Runtime::check_history() const {
  if (!history_) return {};
  return check_serializability(*history_, space_);
}

TupleId Runtime::seed(Tuple t) {
  std::vector<Tuple> one;
  one.push_back(std::move(t));
  return seed(std::move(one)).front();
}

std::vector<TupleId> Runtime::seed(std::vector<Tuple> tuples) {
  if (repl_follower_ && !repl_follower_->writable()) {
    throw std::logic_error(
        "repl: seed() on an unpromoted follower — replicas take state from "
        "the leader's stream only");
  }
  std::vector<TupleId> ids;
  if (tuples.empty()) return ids;
  ids.reserve(tuples.size());
  engine_->exclusive([&]() -> std::vector<IndexKey> {
    std::vector<IndexKey> touched;
    std::vector<std::pair<TupleId, Tuple>> wal_asserts;
    if (persist_mgr_) wal_asserts.reserve(tuples.size());
    for (Tuple& t : tuples) {
      // An init block lists a relation's tuples together: dropping
      // adjacent repeats keeps the key list short, and publish_batch
      // dedupes whatever is left.
      const IndexKey key = IndexKey::of(t);
      if (touched.empty() || touched.back() != key) touched.push_back(key);
      // With a WAL the dataspace takes a copy and the record keeps `t`.
      ids.push_back(space_.insert(persist_mgr_ ? Tuple(t) : std::move(t),
                                  kEnvironmentProcess));
      if (persist_mgr_) wal_asserts.emplace_back(ids.back(), std::move(t));
    }
    // Seeds are commits too: without this record a recovered run would
    // silently lose its initial dataspace.
    if (persist_mgr_) {
      persist_mgr_->log_commit(kEnvironmentProcess, /*fire=*/0, {}, wal_asserts);
    }
    return touched;
  });
  if (history_ && history_->enabled()) {
    for (const TupleId id : ids) history_->record_seed(id);
  }
  if (trace_.enabled()) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      trace_.record(TraceKind::SeedTuple, 0, "");
    }
  }
  // Seeds count toward the snapshot interval like any other commit, but
  // bypass the engine's post-commit hook — check here.
  if (persist_mgr_ && persist_mgr_->snapshot_due()) snapshot();
  return ids;
}

bool Runtime::snapshot() {
  if (!persist_mgr_) return false;
  return persist_mgr_->snapshot_now(
      space_, [this](const std::function<void()>& fn) {
        engine_->exclusive([&]() -> std::vector<IndexKey> {
          fn();
          return {};
        });
      });
}

Runtime::Promotion Runtime::promote_to_leader() {
  Promotion out;
  if (!repl_follower_) return out;
  // Fence first: no replicated apply may land after the watermark we
  // return. Then start the new leader epoch on a fresh WAL segment so its
  // log is cleanly separated from the replicated prefix. The barrier can
  // fail (disk full, injected fault) — surface that instead of swallowing
  // it; the promotion itself still stands.
  out.fence = repl_follower_->promote();
  if (persist_mgr_) out.wal_rotated = snapshot();
  return out;
}

Runtime::Stats Runtime::stats() const {
  Stats s;
  s.tuples_resident = space_.size();
  s.tuples_asserted = space_.stats().asserts;
  s.tuples_retracted = space_.stats().retracts;
  s.txn_attempts = engine_->stats().attempts.load();
  s.txn_commits = engine_->stats().commits.load();
  s.txn_failures = engine_->stats().failures.load();
  s.wakes_delivered = waits_.wakes_delivered();
  s.processes_spawned = scheduler_->total_spawned();
  s.processes_completed = scheduler_->total_completed();
  s.consensus_sweeps = consensus_->sweeps();
  s.consensus_fires = consensus_->fires();
  return s;
}

std::string Runtime::Stats::to_string() const {
  std::string out;
  out += "tuples:     " + std::to_string(tuples_resident) + " resident, " +
         std::to_string(tuples_asserted) + " asserted, " +
         std::to_string(tuples_retracted) + " retracted\n";
  out += "txns:       " + std::to_string(txn_commits) + " committed / " +
         std::to_string(txn_attempts) + " attempts (" +
         std::to_string(txn_failures) + " failed)\n";
  out += "wakeups:    " + std::to_string(wakes_delivered) + "\n";
  out += "processes:  " + std::to_string(processes_completed) + " completed / " +
         std::to_string(processes_spawned) + " spawned\n";
  out += "consensus:  " + std::to_string(consensus_fires) + " fires, " +
         std::to_string(consensus_sweeps) + " detection sweeps\n";
  return out;
}

namespace {
/// Pairs every admitted execute() with exactly one release, on every exit
/// path (success, failure, exception from a host function).
struct AdmissionGuard {
  control::OverloadControl* ctl;
  ~AdmissionGuard() {
    if (ctl != nullptr) ctl->release();
  }
};
}  // namespace

TxnResult Runtime::execute(const Transaction& txn, Env& env, ProcessId owner) {
  // Replication gates, writes only — local reads always go through (on a
  // follower they are the eventually-consistent read path).
  if (!txn.is_read_only()) {
    if (repl_follower_ && !repl_follower_->writable()) {
      TxnResult refused;
      refused.not_leader = true;
      return refused;
    }
    if (repl_leader_ && repl_leader_->lag_exceeded()) {
      // Followers are past the byte-lag cap: shed the write instead of
      // letting them fall unboundedly behind (RetryAfter outcome).
      if (overload_) {
        overload_->stats().repl_backpressure.fetch_add(
            1, std::memory_order_relaxed);
      }
      TxnResult shed;
      shed.shed = true;
      shed.retry_after_us = options_.repl.poll_interval_ms * 1000;
      return shed;
    }
  }
  AdmissionGuard admitted{nullptr};
  if (overload_) {
    std::int64_t retry_after_us = 0;
    if (!overload_->try_admit(&retry_after_us)) {
      // RetryAfter outcome: nothing evaluated, nothing applied. The hint
      // scales with how far past the limit the gate is, so a storm of
      // rejected callers spreads out instead of hammering in lockstep.
      TxnResult shed;
      shed.shed = true;
      shed.retry_after_us = retry_after_us;
      return shed;
    }
    admitted.ctl = overload_.get();
  }
  TxnResult result = txn.type == TxnType::Delayed
                         ? execute_blocking(*engine_, txn, env, owner)
                         : engine_->execute(txn, env, owner);
  if (overload_ && result.success) overload_->deposit();
  if (!result.success) return result;
  // Apply the local action list (lets, spawns) the way the scheduler does
  // for society processes — the dataspace effects already committed.
  const bool exists = txn.query.quantifier == Quantifier::Exists;
  for (const QueryMatch& m : result.matches) {
    const Env& base = exists ? env : m.binding;
    for (const LetAction& let : txn.lets) {
      env[static_cast<std::size_t>(let.slot)] = let.value->eval(base, &functions_);
    }
    for (const SpawnAction& s : txn.spawns) {
      std::vector<Value> args;
      args.reserve(s.args.size());
      for (const ExprPtr& a : s.args) args.push_back(a->eval(base, &functions_));
      scheduler_->spawn(s.process_type, std::move(args));
    }
  }
  return result;
}

}  // namespace sdl
