#include "process/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "consensus/consensus.hpp"
#include "core/epoch.hpp"

namespace sdl {

namespace {

const char* park_reason_name(ParkReason r) {
  switch (r) {
    case ParkReason::None: return "none";
    case ParkReason::DelayedTxn: return "delayed-transaction";
    case ParkReason::Selection: return "selection";
    case ParkReason::Consensus: return "consensus";
    case ParkReason::Replication: return "replication";
  }
  return "?";
}

/// Collects every transaction in a statement tree, branch guards included.
/// Used by the wait-for diagnosis to over-approximate what a live process
/// may still assert (its whole body, not just the statements ahead of its
/// program counter — conservative, never misses a supplier).
void collect_txns(const Statement* s, std::vector<const Transaction*>& out) {
  if (s == nullptr) return;
  switch (s->kind) {
    case Statement::Kind::Txn:
      out.push_back(&s->txn);
      break;
    case Statement::Kind::Sequence:
      for (const StmtPtr& c : s->children) collect_txns(c.get(), out);
      break;
    default:
      for (const Branch& b : s->branches) {
        out.push_back(&b.guard);
        collect_txns(b.body.get(), out);
      }
      break;
  }
}

/// Could a write set land in any bucket this waiter listens to?
bool interest_overlaps(const WaitSet::Interest& in,
                       const Transaction::WriteSet& ws) {
  if (ws.unknown) return true;  // bucket not computable: assume overlap
  if (ws.exact.empty()) return false;
  if (in.everything) return true;
  for (const IndexKey& k : ws.exact) {
    for (const IndexKey& ik : in.keys) {
      if (ik == k) return true;
    }
    for (std::uint32_t a : in.arities) {
      if (a == k.arity) return true;
    }
  }
  return false;
}

}  // namespace

Scheduler::Scheduler(Engine& engine, SchedulerOptions opts)
    : engine_(engine), options_(opts) {
  if (deterministic()) {
    // Single coordinator, one interpreter step per decision point, and a
    // machine-independent replication width — the whole point is that the
    // same seed replays the same schedule anywhere.
    options_.workers = 1;
    options_.quantum = 1;
    if (options_.replication_width == 0) options_.replication_width = 4;
  }
  if (options_.workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.workers = hw >= 2 ? hw : 2;
  }
  if (options_.quantum == 0) options_.quantum = 1;
  if (options_.replication_width == 0) {
    options_.replication_width = options_.workers;
  }
  if (options_.watchdog_tick_ms <= 0) options_.watchdog_tick_ms = 1;
}

Scheduler::~Scheduler() {
  {
    std::scoped_lock lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  workers_.clear();
  if (watchdog_.joinable()) {
    watchdog_.request_stop();
    watchdog_cv_.notify_all();
    watchdog_ = std::jthread();
  }
  // Workers are joined (their epoch pins are gone and their retire lists
  // migrated to the orphan pool), so everything erase() deferred is
  // collectable now.
  epoch::drain();
}

const ProcessDef& Scheduler::define(ProcessDef def) {
  if (!def.finalized()) def.finalize();
  auto owned = std::make_unique<ProcessDef>(std::move(def));
  // Copy the key: emplace may consume `owned` even when insertion fails
  // (the node can be built before the duplicate is discovered).
  const std::string name = owned->name;
  std::scoped_lock lock(defs_mutex_);
  auto [it, inserted] = defs_.emplace(name, std::move(owned));
  if (!inserted) {
    throw std::invalid_argument("Scheduler: duplicate process definition '" +
                                name + "'");
  }
  return *it->second;
}

const ProcessDef* Scheduler::find_def(const std::string& name) const {
  std::scoped_lock lock(defs_mutex_);
  auto it = defs_.find(name);
  return it == defs_.end() ? nullptr : it->second.get();
}

ProcessId Scheduler::spawn(const std::string& def_name, std::vector<Value> args) {
  const ProcessDef* def = find_def(def_name);
  if (def == nullptr) {
    throw std::invalid_argument("Scheduler: unknown process type '" + def_name + "'");
  }
  return spawn(*def, std::move(args));
}

ProcessId Scheduler::spawn(const ProcessDef& def, std::vector<Value> args) {
  ProcessId pid;
  {
    std::scoped_lock lock(society_mutex_);
    pid = next_pid_++;
    society_.try_emplace(pid, pid, def, std::move(args));
  }
  spawned_.fetch_add(1, std::memory_order_relaxed);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->record(TraceKind::Spawn, pid, def.name);
  }
  enqueue_new(pid);
  return pid;
}

ProcessId Scheduler::spawn_replicant(
    const Process& parent, const std::shared_ptr<ReplicationGroup>& group) {
  ProcessId pid;
  {
    std::scoped_lock lock(society_mutex_);
    pid = next_pid_++;
    society_.try_emplace(pid, pid, parent, group);
  }
  spawned_.fetch_add(1, std::memory_order_relaxed);
  return pid;
}

void Scheduler::with_live(
    const std::function<void(const std::vector<Process*>&)>& fn) {
  std::scoped_lock lock(society_mutex_);
  std::vector<Process*> live;
  live.reserve(society_.size());
  for (auto& [pid, p] : society_) live.push_back(&p);
  fn(live);
}

std::size_t Scheduler::live_count() const {
  std::scoped_lock lock(society_mutex_);
  return society_.size();
}

void Scheduler::enqueue_new(ProcessId pid) {
  {
    std::scoped_lock lock(queue_mutex_);
    ready_.push_back(pid);
    ++inflight_;
  }
  queue_cv_.notify_one();
}

void Scheduler::requeue(ProcessId pid) {
  {
    std::scoped_lock lock(queue_mutex_);
    ready_.push_back(pid);  // still counted in inflight_
  }
  queue_cv_.notify_one();
}

bool Scheduler::unpark(Process& p) {
  if (p.state != RunState::Parked) return false;
  assert(!p.pending_wake && "finalize_park consumes a pending wake");
  p.state = RunState::Ready;
  if (obs_metrics() != nullptr) p.woke_at_ns = obs::now_ns();
  return true;
}

void Scheduler::release_park(Process& p) {
  p.offers.clear();
  if (p.counted_waiter) {
    consensus_waiters_.fetch_sub(1, std::memory_order_relaxed);
    p.counted_waiter = false;
  }
  if (p.has_deadline) {
    p.has_deadline = false;
    deadlines_armed_.fetch_sub(1, std::memory_order_release);
  }
  if (p.counted_parked && p.group != nullptr) {
    p.group->parked.fetch_sub(1, std::memory_order_acq_rel);
    p.counted_parked = false;
  }
}

void Scheduler::wake(ProcessId pid) {
  std::scoped_lock society_lock(society_mutex_);
  auto it = society_.find(pid);
  if (it == society_.end()) return;
  Process& p = it->second;
  bool enqueue;
  {
    std::scoped_lock state_lock(p.state_mutex);
    enqueue = unpark(p);
    // A wake for a process mid-quantum must not be lost: finalize_park
    // turns it into a requeue.
    if (p.state == RunState::Running) p.pending_wake = true;
  }
  if (enqueue) {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->record(TraceKind::Wake, pid, p.def.name);
    }
    enqueue_new(pid);
  }
}

bool Scheduler::kill(ProcessId pid) {
  bool enqueue;
  {
    std::scoped_lock society_lock(society_mutex_);
    auto it = society_.find(pid);
    if (it == society_.end()) return false;
    Process& p = it->second;
    p.pending_kill.store(true, std::memory_order_release);
    std::scoped_lock state_lock(p.state_mutex);
    // A parked victim is woken for its teardown. A Ready or Running one
    // meets the flag when a worker next owns it: at dispatch or at the
    // quantum boundary. Holding society_mutex_ orders the kill against a
    // whole consensus sweep: a victim killed first is no longer parked,
    // so its component does not fire; a victim resumed by a fire first
    // has its committed offer kept and only its continuation discarded,
    // which is exactly a crash after the commit.
    enqueue = unpark(p);
  }
  if (enqueue) enqueue_new(pid);
  return true;
}

void Scheduler::resume(Process& p, ConsensusResult result) {
  bool enqueue;
  {
    std::scoped_lock state_lock(p.state_mutex);
    p.consensus_result = std::move(result);
    enqueue = unpark(p);
  }
  assert(enqueue && "a sweep's members stay Parked until it resumes them");
  if (enqueue) enqueue_new(p.pid);
}

void Scheduler::wake_one_parked(std::uint64_t salt) {
  ProcessId victim = 0;
  {
    std::scoped_lock society_lock(society_mutex_);
    std::vector<ProcessId> parked;
    parked.reserve(society_.size());
    for (auto& [pid, p] : society_) {
      std::scoped_lock state_lock(p.state_mutex);
      if (p.state == RunState::Parked) parked.push_back(pid);
    }
    if (parked.empty()) return;
    std::sort(parked.begin(), parked.end());
    victim = parked[salt % parked.size()];
  }
  // wake() re-acquires society_mutex_, so call it outside the lock. The
  // victim re-checks its guards and re-parks — a spurious wake is safe by
  // the subscribe-first discipline, which is the point of injecting it.
  wake(victim);
}

obs::LatencyHistogram* Scheduler::park_histogram(obs::RuntimeMetrics* m,
                                                 ParkReason reason) {
  switch (reason) {
    case ParkReason::DelayedTxn:
      return m->park_delayed_txn_ns;
    case ParkReason::Selection:
      return m->park_selection_ns;
    case ParkReason::Consensus:
      return m->park_consensus_ns;
    case ParkReason::Replication:
      return m->park_replication_ns;
    case ParkReason::None:
      break;
  }
  return nullptr;
}

Process* Scheduler::begin_running(ProcessId pid) {
  std::scoped_lock society_lock(society_mutex_);
  auto it = society_.find(pid);
  if (it == society_.end()) return nullptr;
  Process& p = it->second;
  std::scoped_lock state_lock(p.state_mutex);
  assert(p.state == RunState::Ready);
  // Deadline-staging invariant (audited; see finalize_park): every
  // interpreter path that stages park_timeout_ms returns Parked
  // immediately after, and finalize_park consumes-and-resets the staged
  // value unconditionally — including when a pending wake cancels the
  // park (the interpreter re-stages on its next park attempt). So a
  // process can never reach dispatch with a stale staged timeout.
  assert(p.park_timeout_ms == 0 &&
         "staged park timeout must be consumed by finalize_park");
  if (obs::RuntimeMetrics* const m = obs_metrics(); m != nullptr) {
    const std::uint64_t now = obs::now_ns();
    if (p.park_started_ns != 0) {
      if (obs::LatencyHistogram* h = park_histogram(m, p.park_reason)) {
        h->record(now > p.park_started_ns ? now - p.park_started_ns : 0);
      }
    }
    if (p.woke_at_ns != 0) {
      m->wake_to_dispatch_ns->record(now > p.woke_at_ns ? now - p.woke_at_ns
                                                        : 0);
    }
  }
  p.park_started_ns = 0;
  p.woke_at_ns = 0;
  p.state = RunState::Running;
  p.pending_wake = false;
  p.park_reason = ParkReason::None;
  release_park(p);
  return &p;
}

bool Scheduler::finalize_park(Process& p, ParkReason reason) {
  // Deadline for this park: the statement's staged timeout wins; 0 falls
  // back to the scheduler default for the park reason; negative (or a
  // replication park, whose construct has its own termination detection)
  // means never.
  //
  // Staging invariant: park_timeout_ms is consumed-and-reset HERE,
  // unconditionally and before the pending-wake check below, so a park
  // cancelled between staging and arming cannot leave a stale timeout
  // behind (the interpreter re-stages before its next Parked return, and
  // begin_running asserts the field is clear at dispatch). The
  // deadlines_armed_ counter is equally balanced: armed only in the
  // successful-park branch below, disarmed exactly once per armed park —
  // by release_park, on dispatch or on teardown; a cancelled park never
  // reaches the arming code.
  const std::int64_t staged = p.park_timeout_ms;
  p.park_timeout_ms = 0;
  std::int64_t timeout_ms = 0;
  switch (reason) {
    case ParkReason::DelayedTxn:
    case ParkReason::Selection:
      timeout_ms = options_.delayed_txn_timeout_ms;
      break;
    case ParkReason::Consensus:
      timeout_ms = options_.consensus_timeout_ms;
      break;
    default:
      break;
  }
  if (staged > 0) timeout_ms = staged;
  if (staged < 0 || reason == ParkReason::Replication) timeout_ms = 0;
  // Saturated-bucket shedding: a park into a WaitSet bucket past its cap
  // gets a forced short deadline — even one staged "never" — so overload
  // converts into bounded timeouts instead of an unbounded park set.
  // Replication parks are exempt (their construct detects termination
  // itself; shedding a sweeper would wedge the group accounting).
  if (overload_ != nullptr && p.park_saturated &&
      reason != ParkReason::Replication) {
    const std::int64_t cap_ms = overload_->options().saturated_park_timeout_ms;
    if (cap_ms > 0 && (timeout_ms <= 0 || timeout_ms > cap_ms)) {
      timeout_ms = cap_ms;
    }
  }

  bool armed = false;
  {
    std::scoped_lock state_lock(p.state_mutex);
    if (p.pending_wake) return false;  // caller requeues
    p.state = RunState::Parked;
    p.park_reason = reason;
    if (obs_metrics() != nullptr) {
      p.park_started_ns = obs::now_ns();
      p.woke_at_ns = 0;
    }
    if (!p.offers.empty()) {
      consensus_waiters_.fetch_add(1, std::memory_order_relaxed);
      p.counted_waiter = true;
    }
    if (timeout_ms > 0) {
      p.has_deadline = true;
      p.deadline = park_clock_now() + std::chrono::milliseconds(timeout_ms);
      deadlines_armed_.fetch_add(1, std::memory_order_release);
      armed = true;
    }
  }
  if (armed) watchdog_cv_.notify_all();  // watchdog may be idle-waiting
  return true;
}

void Scheduler::retire(Process& p, RetireKind kind, std::string note) {
  // The single teardown path, crash-safe by construction:
  // 1. The WaitSet subscription cannot outlive the process — a later
  //    publish must not invoke a wake for an erased pid (harmless today
  //    because wake() checks the society, but the subscription itself
  //    would leak forever).
  drop_subscription(p);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->record(TraceKind::Terminate, p.pid, p.def.name);
  }
  // 2. Mark the process Done and release what its last park held. The
  //    process is Running here, so a consensus sweep already treats it as
  //    runnable and can never fire its stale offers.
  {
    std::scoped_lock state_lock(p.state_mutex);
    p.state = RunState::Done;
    p.consensus_result.reset();
    release_park(p);
  }
  // 3. Settle replication accounting. The group is held by shared_ptr, so
  //    a parent torn down early cannot dangle its replicants.
  std::shared_ptr<ReplicationGroup> group = p.group;
  const ProcessId pid = p.pid;
  if (p.owned_group != nullptr && kind != RetireKind::Completed) {
    // A parent that dies mid-replication aborts the construct; replicants
    // observe done/abort on their next step and drain instead of sweeping
    // for a vanished parent.
    p.owned_group->abort.store(true, std::memory_order_release);
    p.owned_group->done.store(true, std::memory_order_release);
    wake_group(*p.owned_group, p.pid);
  }
  if (group != nullptr && kind != RetireKind::Completed) {
    // A replicant dying abnormally can never park, so shrink the member
    // count the termination check compares against and wake the group: a
    // surviving member re-sweeps and redoes the last-parker check with
    // the new width (otherwise the construct waits for the dead forever).
    group->width.fetch_sub(1, std::memory_order_acq_rel);
    wake_group(*group, pid);
  }
  ProcessId wake_parent = 0;
  if (group != nullptr &&
      group->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    wake_parent = group->parent;
  }
  {
    std::scoped_lock society_lock(society_mutex_);
    society_.erase(pid);
  }
  switch (kind) {
    case RetireKind::Completed:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RetireKind::Errored: {
      std::scoped_lock lock(report_mutex_);
      errors_.push_back(std::move(note));
      break;
    }
    case RetireKind::Killed: {
      killed_total_.fetch_add(1, std::memory_order_relaxed);
      std::scoped_lock lock(report_mutex_);
      killed_.push_back(std::move(note));
      break;
    }
    case RetireKind::TimedOut: {
      timeouts_total_.fetch_add(1, std::memory_order_relaxed);
      std::scoped_lock lock(report_mutex_);
      timed_out_.push_back(std::move(note));
      break;
    }
  }
  if (wake_parent != 0) wake(wake_parent);
  notify_consensus();  // membership changed
}

void Scheduler::notify_consensus() {
  if (consensus_ != nullptr &&
      consensus_waiters_.load(std::memory_order_relaxed) > 0) {
    consensus_->notify();
  }
}

void Scheduler::work_finished() {
  bool idle;
  {
    std::scoped_lock lock(queue_mutex_);
    --inflight_;
    idle = inflight_ == 0;
  }
  if (idle) {
    // A parked consensus set may be fireable now that nothing is running.
    notify_consensus();
    std::scoped_lock lock(queue_mutex_);
    if (inflight_ == 0) idle_cv_.notify_all();
  }
}

// --------------------------------------------------------------- deadlines

void Scheduler::watchdog_loop(const std::stop_token& st) {
  // With the epoch-backlog watchdog armed the loop must keep ticking even
  // when no park deadlines are armed — the backlog grows from the read
  // path, which never arms a deadline.
  const bool overload_tick =
      overload_ != nullptr && overload_->options().epoch_backlog_threshold != 0;
  std::unique_lock lock(watchdog_mutex_);
  while (!st.stop_requested()) {
    if (!overload_tick &&
        deadlines_armed_.load(std::memory_order_acquire) == 0) {
      // Nothing armed: sleep until a park arms a deadline (or stop).
      watchdog_cv_.wait(lock, st, [this] {
        return deadlines_armed_.load(std::memory_order_acquire) > 0;
      });
      continue;
    }
    watchdog_cv_.wait_for(lock, st,
                          std::chrono::milliseconds(options_.watchdog_tick_ms),
                          [] { return false; });
    if (st.stop_requested()) break;
    lock.unlock();
    if (deadlines_armed_.load(std::memory_order_acquire) > 0) {
      expire_deadlines(std::chrono::steady_clock::now());
    }
    if (overload_tick) overload_->tick();
    lock.lock();
  }
}

std::chrono::steady_clock::time_point Scheduler::park_clock_now() const {
  return deterministic() ? det_now_ : std::chrono::steady_clock::now();
}

void Scheduler::expire_deadlines(std::chrono::steady_clock::time_point now) {
  std::vector<ProcessId> expired;
  {
    std::scoped_lock society_lock(society_mutex_);
    for (auto& [pid, p] : society_) {
      {
        std::scoped_lock state_lock(p.state_mutex);
        // A process already made Ready keeps has_deadline until dispatch;
        // only a parked one can expire.
        if (!p.has_deadline || now < p.deadline || !unpark(p)) continue;
        p.timed_out.store(true, std::memory_order_release);
        // has_deadline stays set (and deadlines_armed_ stays raised)
        // until begin_running hands the process to its retiring worker —
        // the quiescence check must keep treating it as pending work.
      }
      // Build the wait-for diagnosis NOW, while the park state (frames,
      // interest, environment) is intact and we exclusively control the
      // process: it is Ready but not yet enqueued, and holding
      // society_mutex_ blocks any begin_running.
      p.timeout_note = p.label() + " (" + park_reason_name(p.park_reason) +
                       ") park deadline expired" + explain_park_locked(p);
      expired.push_back(pid);
    }
  }
  // Society iteration order is a hash-map accident; the enqueue order must
  // not be (it is part of the deterministic-mode schedule).
  std::sort(expired.begin(), expired.end());
  for (ProcessId pid : expired) {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->record(TraceKind::Wake, pid, "deadline");
    }
    enqueue_new(pid);
  }
}

// --------------------------------------------------------------- diagnosis

std::string Scheduler::explain_park_locked(const Process& p) const {
  std::string out;
  if (!p.frames.empty()) {
    const Frame& f = p.frames.back();
    switch (f.type) {
      case Frame::Type::Txn:
        out += " waiting on: " + f.stmt->txn.to_string();
        break;
      case Frame::Type::Select:
      case Frame::Type::Repeat:
      case Frame::Type::Sweep:
        for (const Branch& b : f.stmt->branches) {
          if (b.guard.type != TxnType::Immediate ||
              f.type == Frame::Type::Sweep) {
            out += "\n    guard: " + b.guard.to_string();
          }
        }
        break;
      default:
        break;
    }
  }
  if (p.ticket == WaitSet::kInvalidTicket) return out;

  // What would have to be published to wake it.
  out += "\n    subscribed to: ";
  if (p.interest.everything) {
    out += "every commit";
  } else {
    bool first = true;
    for (const IndexKey& k : p.interest.keys) {
      if (!first) out += ", ";
      first = false;
      out += "bucket(arity=" + std::to_string(k.arity) + ", head#" +
             std::to_string(k.head_hash) + ")";
    }
    for (std::uint32_t a : p.interest.arities) {
      if (!first) out += ", ";
      first = false;
      out += "arity=" + std::to_string(a);
    }
    if (first) out += "(nothing)";
  }

  // Which live processes could still assert a matching tuple. Each body
  // is scanned whole (over-approximation); a Running process's
  // environment cannot be read safely, so its write sets are evaluated
  // against an empty environment — unresolvable heads degrade to
  // "unknown", which only adds candidates, never drops one.
  std::vector<std::string> suppliers;
  for (const auto& [qid, q] : society_) {
    if (qid == p.pid) continue;
    RunState qs;
    {
      std::scoped_lock state_lock(q.state_mutex);
      qs = q.state;
    }
    if (qs == RunState::Done) continue;
    Env scratch;
    const Env* env = &q.env;
    if (qs == RunState::Running) {
      scratch.resize(q.def.env_size());
      env = &scratch;
    }
    std::vector<const Transaction*> txns;
    collect_txns(q.def.body.get(), txns);
    for (const Transaction* t : txns) {
      if (t->is_read_only()) continue;
      if (interest_overlaps(p.interest,
                            t->write_set(*env, engine_.functions()))) {
        suppliers.push_back(q.label());
        break;
      }
    }
  }
  if (suppliers.empty()) {
    out += "\n    no live process can assert a matching tuple";
  } else {
    std::sort(suppliers.begin(), suppliers.end());
    out += "\n    may be supplied by: ";
    const std::size_t shown = std::min<std::size_t>(suppliers.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      if (i > 0) out += ", ";
      out += suppliers[i];
    }
    if (suppliers.size() > shown) {
      out += " (+" + std::to_string(suppliers.size() - shown) + " more)";
    }
  }
  return out;
}

// --------------------------------------------------------------------- run

RunReport Scheduler::run() {
  if (deterministic()) return run_deterministic();
  const std::uint64_t completed_before = completed_.load(std::memory_order_relaxed);
  {
    std::scoped_lock lock(queue_mutex_);
    stop_ = false;
    running_ = true;
  }
  watchdog_ = std::jthread([this](const std::stop_token& st) { watchdog_loop(st); });
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  {
    std::unique_lock lock(queue_mutex_);
    for (;;) {
      idle_cv_.wait(lock, [this] { return inflight_ == 0; });
      if (deadlines_armed_.load(std::memory_order_acquire) == 0) break;
      // Quiescent, but a park deadline is armed: the watchdog is about to
      // expire a parker (which raises inflight_ again). Re-check at tick
      // granularity instead of declaring the society parked forever.
      idle_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.watchdog_tick_ms),
                        [this] { return inflight_ > 0; });
    }
    stop_ = true;
    running_ = false;
  }
  queue_cv_.notify_all();
  workers_.clear();  // joins
  watchdog_.request_stop();
  watchdog_cv_.notify_all();
  watchdog_ = std::jthread();  // joins
  // Quiescent: the joined workers' retire lists (tuples retracted during
  // the run) sit in the EBR orphan pool — reclaim them before reporting.
  epoch::drain();
  return build_report(completed_before);
}

RunReport Scheduler::run_deterministic() {
  const std::uint64_t completed_before =
      completed_.load(std::memory_order_relaxed);
  {
    std::scoped_lock lock(queue_mutex_);
    stop_ = false;
    running_ = true;
  }
  det_now_ = std::chrono::steady_clock::time_point{};  // virtual epoch

  sim::SeededDecisionSource seeded(
      static_cast<std::uint64_t>(options_.deterministic_seed));
  sim::DecisionSource* source =
      decision_source_ != nullptr ? decision_source_ : &seeded;

  for (;;) {
    std::vector<ProcessId> candidates;
    {
      std::scoped_lock lock(queue_mutex_);
      candidates.assign(ready_.begin(), ready_.end());
    }
    if (candidates.empty()) {
      // Nothing runnable. A parked consensus set may be fireable now —
      // the threaded mode's work_finished() does the same at idle.
      notify_consensus();
      {
        std::scoped_lock lock(queue_mutex_);
        if (!ready_.empty()) continue;
      }
      if (deadlines_armed_.load(std::memory_order_acquire) > 0 &&
          det_advance_clock()) {
        continue;
      }
      break;  // quiescent
    }

    std::size_t choice = source->pick(candidates);
    if (choice >= candidates.size()) choice = candidates.size() - 1;
    const ProcessId pid = candidates[choice];
    {
      std::scoped_lock lock(queue_mutex_);
      auto it = std::find(ready_.begin(), ready_.end(), pid);
      assert(it != ready_.end());  // single-threaded: the snapshot is live
      ready_.erase(it);
    }

    // Opaque-step detection: anything the bucket footprint cannot express
    // (spawn, termination, kill, timeout, consensus fire) shows up in the
    // counters and makes the step dependent with every other.
    const std::uint64_t spawned0 = spawned_.load(std::memory_order_relaxed);
    const std::uint64_t completed0 = completed_.load(std::memory_order_relaxed);
    const std::uint64_t killed0 = killed_total_.load(std::memory_order_relaxed);
    const std::uint64_t timeouts0 =
        timeouts_total_.load(std::memory_order_relaxed);
    const std::uint64_t fires0 = consensus_ != nullptr ? consensus_->fires() : 0;

    sim_step_ = sim::SimStep{};
    sim_step_.pid = pid;
    sim_recording_ = true;
    dispatch_one(pid);
    sim_recording_ = false;
    sim_step_.opaque =
        spawned_.load(std::memory_order_relaxed) != spawned0 ||
        completed_.load(std::memory_order_relaxed) != completed0 ||
        killed_total_.load(std::memory_order_relaxed) != killed0 ||
        timeouts_total_.load(std::memory_order_relaxed) != timeouts0 ||
        (consensus_ != nullptr && consensus_->fires() != fires0);
    source->observe(sim_step_);
  }

  {
    std::scoped_lock lock(queue_mutex_);
    stop_ = true;
    running_ = false;
  }
  return build_report(completed_before);
}

bool Scheduler::det_advance_clock() {
  std::chrono::steady_clock::time_point earliest{};
  bool found = false;
  {
    std::scoped_lock society_lock(society_mutex_);
    for (auto& [pid, p] : society_) {
      std::scoped_lock state_lock(p.state_mutex);
      if (p.state != RunState::Parked || !p.has_deadline) continue;
      if (!found || p.deadline < earliest) {
        earliest = p.deadline;
        found = true;
      }
    }
  }
  if (!found) return false;
  if (earliest > det_now_) det_now_ = earliest;
  expire_deadlines(det_now_);
  return true;
}

RunReport Scheduler::build_report(std::uint64_t completed_before) {
  RunReport report;
  report.completed = static_cast<std::size_t>(
      completed_.load(std::memory_order_relaxed) - completed_before);
  {
    std::scoped_lock lock(society_mutex_);
    // Workers are joined: states are stable, environments readable.
    std::vector<const Process*> parked;
    for (auto& [pid, p] : society_) {
      std::scoped_lock state_lock(p.state_mutex);
      if (p.state != RunState::Parked) continue;
      ++report.still_parked;
      switch (p.park_reason) {
        case ParkReason::Consensus:
          ++report.parked_on_consensus;
          break;
        case ParkReason::Replication:
          ++report.parked_on_replication;
          break;
        default:
          ++report.parked_on_data;
          break;
      }
      parked.push_back(&p);
    }
    // Render outside the per-process state locks: the wait-for diagnosis
    // peeks at *other* processes' states, and state mutexes must not nest.
    for (const Process* p : parked) {
      report.parked.push_back(p->label() + " (" +
                              park_reason_name(p->park_reason) + ")" +
                              explain_park_locked(*p));
    }
  }
  {
    std::scoped_lock lock(report_mutex_);
    report.errors = errors_;
    errors_.clear();
    report.timed_out = timed_out_;
    timed_out_.clear();
    report.killed = killed_;
    killed_.clear();
  }
  return report;
}

void Scheduler::worker_loop() {
  for (;;) {
    ProcessId pid;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stop requested and no work
      pid = ready_.front();
      ready_.pop_front();
    }
    dispatch_one(pid);
  }
}

void Scheduler::dispatch_one(ProcessId pid) {
  Process* p = begin_running(pid);
  if (p == nullptr) {
    work_finished();
    return;
  }

  // Teardown requests beat interpretation: a kill or an expired park
  // deadline retires the process on the worker that owns it.
  if (p->pending_kill.load(std::memory_order_acquire)) {
    retire(*p, RetireKind::Killed, p->label() + " killed");
    work_finished();
    return;
  }
  if (p->timed_out.exchange(false, std::memory_order_acq_rel)) {
    retire(*p, RetireKind::TimedOut, std::move(p->timeout_note));
    work_finished();
    return;
  }

  if (faults_ != nullptr) {
    switch (faults_->decide(FaultPoint::SchedulerDispatch)) {
      case FaultAction::Delay:
        // Stall the dispatch: the process is Running but not stepping,
        // so wakes aimed at it must buffer via pending_wake.
        faults_->delay();
        break;
      case FaultAction::SpuriousWake:
        wake_one_parked(pid);
        break;
      case FaultAction::Kill:
        retire(*p, RetireKind::Killed,
               p->label() + " killed (fault injection)");
        work_finished();
        return;
      default:
        break;
    }
  }

  StepOutcome outcome;
  try {
    outcome = run_process(*p);
  } catch (const std::exception& e) {
    // Crash-safe teardown: same path as kill(), so the exception cannot
    // leak the WaitSet subscription, wedge a consensus set on stale
    // offers, or strand a replication group.
    retire(*p, RetireKind::Errored, p->label() + ": " + e.what());
    work_finished();
    return;
  }

  // A kill that arrived during the quantum retires the process here
  // instead of letting it re-park or requeue.
  if (outcome != StepOutcome::Done &&
      p->pending_kill.load(std::memory_order_acquire)) {
    retire(*p, RetireKind::Killed, p->label() + " killed");
    work_finished();
    return;
  }

  switch (outcome) {
    case StepOutcome::Continue:  // run_process never returns Continue
    case StepOutcome::Yield:
      break;
    case StepOutcome::Parked:
      // The interpreter stored the reason in p->park_reason before
      // returning; finalize_park re-checks pending wakes.
      if (finalize_park(*p, p->park_reason)) {
        if (trace_ != nullptr && trace_->enabled()) {
          trace_->record(TraceKind::Park, pid, p->def.name);
        }
        notify_consensus();
        work_finished();
        return;
      }
      break;  // a pending wake cancelled the park
    case StepOutcome::Done:
      complete(*p);
      work_finished();
      return;
  }
  {
    std::scoped_lock state_lock(p->state_mutex);
    p->state = RunState::Ready;
  }
  requeue(pid);
}

// ------------------------------------------------------------ interpreter

Scheduler::StepOutcome Scheduler::run_process(Process& p) {
  for (std::size_t steps = 0; steps < options_.quantum; ++steps) {
    if (p.frames.empty()) return StepOutcome::Done;
    // Yield promptly to a pending kill; the worker loop retires us.
    if (p.pending_kill.load(std::memory_order_acquire)) {
      return StepOutcome::Yield;
    }
    if (p.group != nullptr && (p.group->done.load(std::memory_order_acquire) ||
                               p.group->abort.load(std::memory_order_acquire))) {
      p.frames.clear();
      return StepOutcome::Done;
    }

    Frame& f = p.frames.back();
    StepOutcome out = StepOutcome::Continue;
    switch (f.type) {
      case Frame::Type::Seq: {
        if (f.pc >= f.stmt->children.size()) {
          p.frames.pop_back();
        } else {
          const Statement* next = f.stmt->children[f.pc].get();
          ++f.pc;
          push_statement(p, next);
        }
        break;
      }
      case Frame::Type::Txn:
        out = do_transaction(p, f.stmt->txn);
        break;
      case Frame::Type::Select:
        out = do_selection(p, f);
        break;
      case Frame::Type::Repeat:
        if (f.pc == 1) {
          f.pc = 0;  // branch body finished; reselect
        } else {
          out = do_selection(p, f);
        }
        break;
      case Frame::Type::Replicate:
        out = do_replicate_parent(p, f);
        break;
      case Frame::Type::Sweep:
        out = do_sweep(p, f);
        break;
    }
    if (out != StepOutcome::Continue) return out;
  }
  return StepOutcome::Yield;
}

void Scheduler::sim_note_txn(const Transaction& txn, Env& env) {
  if (!sim_recording_) return;
  txn.query.clear_locals(env);
  const bool effectful = !txn.is_read_only();
  for (const KeySpec& spec : txn.query.read_set(env, engine_.functions())) {
    if (spec.kind == KeySpec::Kind::Arity) {
      sim_step_.reads_all = true;
      // An effectful transaction may retract from any bucket it matches.
      if (effectful) sim_step_.writes_all = true;
    } else {
      sim_step_.reads.push_back(spec.key);
      if (effectful) sim_step_.writes.push_back(spec.key);
    }
  }
  if (effectful) {
    const Transaction::WriteSet ws = txn.write_set(env, engine_.functions());
    if (ws.unknown) sim_step_.writes_all = true;
    for (const IndexKey& k : ws.exact) sim_step_.writes.push_back(k);
  }
}

TxnResult Scheduler::execute_engine(Process& p, const Transaction& txn) {
  sim_note_txn(txn, p.env);
  TxnResult r = engine_.execute(txn, p.env, p.pid, p.view_ptr());
  // An injected transient commit failure means the query succeeded but no
  // effects were applied — so no publish is coming and parking would hang
  // forever. Retry in place with exponential, jittered backoff; on
  // exhaustion the caller yields (requeue) rather than parks.
  for (std::size_t attempt = 0;
       r.injected_fault && attempt < options_.commit_retry_limit; ++attempt) {
    // The shared retry budget gates every in-place retry: under a retry
    // storm the bucket drains and the process yields back to the ready
    // queue (the caller's exhaustion path) instead of amplifying offered
    // load with hot backoff-retry cycles.
    if (overload_ != nullptr && !overload_->try_spend_retry()) break;
    commit_retries_.fetch_add(1, std::memory_order_relaxed);
    const unsigned shift = attempt < 6 ? static_cast<unsigned>(attempt) : 6u;
    const std::uint64_t base =
        static_cast<std::uint64_t>(options_.commit_backoff_us) << shift;
    const std::uint64_t jitter = faults_ != nullptr ? faults_->jitter_us(base) : 0;
    std::this_thread::sleep_for(std::chrono::microseconds(base + jitter));
    r = engine_.execute(txn, p.env, p.pid, p.view_ptr());
  }
  if (r.success) {
    ++p.txns_committed;
    // Successes refill the retry budget — goodput is what makes retries
    // affordable (Finagle-style ratio budget).
    if (overload_ != nullptr) overload_->deposit();
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->record(TraceKind::Commit, p.pid, txn.to_string());
    }
  }
  return r;
}

void Scheduler::ensure_subscription(Process& p, WaitSet::Interest interest) {
  if (p.ticket != WaitSet::kInvalidTicket) return;
  const ProcessId pid = p.pid;
  p.interest = interest;  // diagnosis copy (wait-for reports)
  bool saturated = false;
  p.ticket = engine_.waits().subscribe(
      std::move(interest), [this, pid] { wake(pid); },
      overload_ != nullptr ? &saturated : nullptr);
  // A saturated bucket means this park joins a queue already past its
  // cap; finalize_park converts the hint into a forced short deadline so
  // the watchdog sheds the excess instead of letting the bucket grow.
  p.park_saturated = saturated;
}

void Scheduler::drop_subscription(Process& p) {
  if (p.ticket == WaitSet::kInvalidTicket) return;
  engine_.waits().unsubscribe(p.ticket);
  p.ticket = WaitSet::kInvalidTicket;
  p.interest = {};
  p.park_saturated = false;
}

ControlAction Scheduler::apply_actions(Env& env, const Transaction& txn,
                                       const TxnResult& result) {
  const bool exists = txn.query.quantifier == Quantifier::Exists;
  for (const QueryMatch& m : result.matches) {
    const Env& base = exists ? env : m.binding;
    for (const LetAction& let : txn.lets) {
      env[static_cast<std::size_t>(let.slot)] =
          let.value->eval(base, engine_.functions());
    }
    for (const SpawnAction& s : txn.spawns) {
      std::vector<Value> args;
      args.reserve(s.args.size());
      for (const ExprPtr& a : s.args) args.push_back(a->eval(base, engine_.functions()));
      spawn(s.process_type, std::move(args));
    }
  }
  return txn.control;
}

Scheduler::StepOutcome Scheduler::handle_exit(Process& p) {
  while (!p.frames.empty()) {
    if (p.frames.back().type == Frame::Type::Sweep) {
      // `exit` inside a replicated sequence terminates the replication
      // construct (the analogue of "terminates ... the repetition", §2.3).
      ReplicationGroup* g = p.group.get();
      g->done.store(true, std::memory_order_release);
      wake_group(*g, p.pid);
      p.frames.clear();
      return StepOutcome::Done;
    }
    const Frame::Type t = p.frames.back().type;
    p.frames.pop_back();
    if (t == Frame::Type::Repeat) return StepOutcome::Continue;
  }
  return StepOutcome::Done;
}

Scheduler::StepOutcome Scheduler::handle_abort(Process& p) {
  if (p.group != nullptr) {
    p.group->abort.store(true, std::memory_order_release);
    p.group->done.store(true, std::memory_order_release);
    wake_group(*p.group, p.pid);
  }
  p.frames.clear();
  return StepOutcome::Done;
}

Scheduler::StepOutcome Scheduler::do_transaction(Process& p,
                                                 const Transaction& txn) {
  switch (txn.type) {
    case TxnType::Immediate: {
      const TxnResult r = execute_engine(p, txn);
      if (r.injected_fault) {
        // Retries exhausted on an injected transient failure. The query
        // succeeded, so treating this as the skip case would wrongly drop
        // the statement — keep the frame and yield for another attempt.
        return StepOutcome::Yield;
      }
      p.frames.pop_back();
      if (r.success) {
        const ControlAction c = apply_actions(p.env, txn, r);
        if (c == ControlAction::Exit) return handle_exit(p);
        if (c == ControlAction::Abort) return handle_abort(p);
      }
      // Failure of a standalone immediate transaction acts as skip.
      return StepOutcome::Continue;
    }
    case TxnType::Delayed: {
      // A live ticket means this is a re-check after a park: the first
      // attempt already failed, so probe under read locks before paying
      // for the full (exclusively locked) execute — a parked society
      // re-checking disabled guards then contends only on shared locks.
      // The subscription stays active throughout, so a commit racing the
      // probe still wakes us (no lost wakeup). Read-only transactions
      // skip the probe: their execute() is already the shared-lock path.
      const bool recheck = p.ticket != WaitSet::kInvalidTicket;
      ensure_subscription(p, engine_.interest_of(txn, p.env));
      sim_note_txn(txn, p.env);
      if (recheck && !txn.is_read_only() &&
          !engine_.probe(txn, p.env, p.view_ptr())) {
        p.park_reason = ParkReason::DelayedTxn;
        p.park_timeout_ms = txn.timeout_ms;
        return StepOutcome::Parked;
      }
      const TxnResult r = execute_engine(p, txn);
      if (!r.success) {
        if (r.injected_fault) {
          // No publish is coming for an injected failure — parking would
          // hang. Yield and retry from the ready queue instead.
          return StepOutcome::Yield;
        }
        p.park_reason = ParkReason::DelayedTxn;
        p.park_timeout_ms = txn.timeout_ms;
        return StepOutcome::Parked;
      }
      drop_subscription(p);
      p.frames.pop_back();
      const ControlAction c = apply_actions(p.env, txn, r);
      if (c == ControlAction::Exit) return handle_exit(p);
      if (c == ControlAction::Abort) return handle_abort(p);
      return StepOutcome::Continue;
    }
    case TxnType::Consensus: {
      if (p.consensus_result.has_value()) {
        const ConsensusResult res = std::move(*p.consensus_result);
        p.consensus_result.reset();
        drop_subscription(p);
        p.frames.pop_back();
        const ControlAction c = apply_actions(p.env, txn, res.result);
        if (c == ControlAction::Exit) return handle_exit(p);
        if (c == ControlAction::Abort) return handle_abort(p);
        return StepOutcome::Continue;
      }
      ensure_subscription(p, engine_.interest_of(txn, p.env));
      sim_note_txn(txn, p.env);
      p.offers = {ConsensusOffer{&txn, -1}};
      p.park_reason = ParkReason::Consensus;
      p.park_timeout_ms = txn.timeout_ms;
      return StepOutcome::Parked;
    }
  }
  return StepOutcome::Continue;
}

Scheduler::StepOutcome Scheduler::do_selection(Process& p, Frame& f) {
  const std::vector<Branch>& branches = f.stmt->branches;
  const bool is_repeat = f.type == Frame::Type::Repeat;

  // Commit a chosen branch: apply guard actions, then run its body.
  auto choose = [&](std::size_t idx, const TxnResult& r) -> StepOutcome {
    drop_subscription(p);
    p.offers.clear();
    const Branch& br = branches[idx];
    const ControlAction c = apply_actions(p.env, br.guard, r);
    if (c == ControlAction::Exit) return handle_exit(p);
    if (c == ControlAction::Abort) return handle_abort(p);
    if (is_repeat) {
      f.pc = 1;  // reselect when the body finishes
      if (br.body) {
        push_statement(p, br.body.get());
      } else {
        f.pc = 0;  // guard-only branch: reselect immediately
      }
    } else {
      p.frames.pop_back();
      if (br.body) push_statement(p, br.body.get());
    }
    return StepOutcome::Continue;
  };

  // 1. A consensus fired for one of our offers while parked here.
  if (p.consensus_result.has_value()) {
    const ConsensusResult res = std::move(*p.consensus_result);
    p.consensus_result.reset();
    return choose(static_cast<std::size_t>(res.branch), res.result);
  }

  // 2. Subscribe before attempting if any guard can block — the wakeup
  //    discipline requires subscription before evaluation.
  bool has_blocking = false;
  for (const Branch& b : branches) {
    if (b.guard.type != TxnType::Immediate) {
      has_blocking = true;
      break;
    }
  }
  if (has_blocking && p.ticket == WaitSet::kInvalidTicket) {
    WaitSet::Interest interest;
    for (const Branch& b : branches) {
      WaitSet::Interest one = engine_.interest_of(b.guard, p.env);
      interest.keys.insert(interest.keys.end(), one.keys.begin(), one.keys.end());
      interest.arities.insert(interest.arities.end(), one.arities.begin(),
                              one.arities.end());
    }
    ensure_subscription(p, std::move(interest));
  }

  // 3. Try every non-consensus guard once, in order.
  bool saw_injected = false;
  for (std::size_t i = 0; i < branches.size(); ++i) {
    if (branches[i].guard.type == TxnType::Consensus) continue;
    const TxnResult r = execute_engine(p, branches[i].guard);
    if (r.success) return choose(i, r);
    if (r.injected_fault) saw_injected = true;
  }

  // An injected transient failure hid a branch that may well be enabled:
  // neither skip (could wrongly end a repetition) nor park (no wakeup is
  // coming) is safe — yield and re-run the whole selection.
  if (saw_injected) return StepOutcome::Yield;

  // 4. Nothing committed. Fail (skip / end repetition) or park.
  if (!has_blocking) {
    drop_subscription(p);
    p.frames.pop_back();  // Select: skip. Repeat: loop terminates.
    return StepOutcome::Continue;
  }
  p.offers.clear();
  for (std::size_t i = 0; i < branches.size(); ++i) {
    if (branches[i].guard.type == TxnType::Consensus) {
      sim_note_txn(branches[i].guard, p.env);
      p.offers.push_back(ConsensusOffer{&branches[i].guard, static_cast<int>(i)});
    }
  }
  p.park_reason =
      p.offers.empty() ? ParkReason::Selection : ParkReason::Consensus;
  // Deadline for the park: the smallest explicit per-guard timeout wins;
  // "never" only if every blocking guard says never.
  {
    std::int64_t staged = 0;
    bool any_pos = false;
    bool any_default = false;
    for (const Branch& b : branches) {
      if (b.guard.type == TxnType::Immediate) continue;
      const std::int64_t t = b.guard.timeout_ms;
      if (t > 0) {
        staged = any_pos ? std::min(staged, t) : t;
        any_pos = true;
      } else if (t == 0) {
        any_default = true;
      }
    }
    if (any_pos) {
      p.park_timeout_ms = staged;
    } else {
      p.park_timeout_ms = any_default ? 0 : -1;
    }
  }
  return StepOutcome::Parked;
}

Scheduler::StepOutcome Scheduler::do_replicate_parent(Process& p, Frame& f) {
  if (f.pc == 0) {
    if (f.stmt->branches.empty()) {
      p.frames.pop_back();
      return StepOutcome::Continue;
    }
    auto group = std::make_shared<ReplicationGroup>();
    group->stmt = f.stmt;
    group->parent = p.pid;
    const int width = static_cast<int>(options_.replication_width);
    group->width.store(width, std::memory_order_relaxed);
    group->active.store(width, std::memory_order_relaxed);
    p.owned_group = group;
    f.pc = 1;
    std::vector<ProcessId> members;
    members.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      members.push_back(spawn_replicant(p, group));
    }
    group->members = members;  // fixed before any replicant runs? see below
    // Replicants were inserted into the society but not yet queued; queue
    // them only after `members` is final so wake_group sees all pids.
    for (ProcessId pid : members) enqueue_new(pid);
    p.park_reason = ParkReason::Replication;
    return StepOutcome::Parked;
  }
  // Resumed: the group must be done (wakes only come from the last
  // replicant); tolerate spurious wakes by re-parking. active == 0 with
  // done unset means every member was torn down abnormally — there is no
  // last parker left to set the flag, so the construct is over.
  auto group = p.owned_group;
  const bool finished =
      group && (group->done.load(std::memory_order_acquire) ||
                group->active.load(std::memory_order_acquire) == 0);
  if (!finished) {
    p.park_reason = ParkReason::Replication;
    return StepOutcome::Parked;
  }
  const bool aborted = group->abort.load(std::memory_order_acquire);
  p.owned_group.reset();
  p.frames.pop_back();
  if (aborted) return handle_abort(p);
  return StepOutcome::Continue;
}

int Scheduler::try_guards(Process& p, const std::vector<Branch>& branches,
                          TxnResult& result, bool& saw_injected) {
  for (std::size_t i = 0; i < branches.size(); ++i) {
    // Inside replication every guard is attempted eagerly; the construct
    // itself provides the retry-until-enabled behavior, so the '=>' tag
    // adds nothing and consensus guards are not meaningful here (§2.3's
    // examples use '->' guards).
    //
    // Most sweep attempts hit disabled guards, so evaluate each guard
    // first under read locks (probe); only a guard that looks enabled
    // pays for the exclusively locked execute, which revalidates.
    // Read-only guards go straight to execute — it is already the
    // shared-lock path.
    const Transaction& guard = branches[i].guard;
    sim_note_txn(guard, p.env);
    if (!guard.is_read_only() && !engine_.probe(guard, p.env, p.view_ptr())) {
      continue;
    }
    result = execute_engine(p, guard);
    if (result.success) return static_cast<int>(i);
    if (result.injected_fault) saw_injected = true;
  }
  return -1;
}

Scheduler::StepOutcome Scheduler::do_sweep(Process& p, Frame& f) {
  ReplicationGroup* group = p.group.get();
  const std::vector<Branch>& branches = f.stmt->branches;

  {
    WaitSet::Interest interest;
    for (const Branch& b : branches) {
      WaitSet::Interest one = engine_.interest_of(b.guard, p.env);
      interest.keys.insert(interest.keys.end(), one.keys.begin(), one.keys.end());
      interest.arities.insert(interest.arities.end(), one.arities.begin(),
                              one.arities.end());
    }
    ensure_subscription(p, std::move(interest));
  }

  TxnResult r;
  bool saw_injected = false;
  const int idx = try_guards(p, branches, r, saw_injected);
  if (idx >= 0) {
    const Branch& br = branches[static_cast<std::size_t>(idx)];
    const ControlAction c = apply_actions(p.env, br.guard, r);
    if (c == ControlAction::Exit) return handle_exit(p);
    if (c == ControlAction::Abort) return handle_abort(p);
    if (br.body) push_statement(p, br.body.get());
    return StepOutcome::Continue;
  }

  // An injected failure masked a guard that looked enabled: do not count
  // this replicant as parked (it could wrongly satisfy the termination
  // check) — retry the sweep after a yield.
  if (saw_injected) return StepOutcome::Yield;

  // Every guard failed. Count ourselves parked; the last parker verifies
  // global disablement under total exclusion before declaring the
  // construct finished.
  p.counted_parked = true;
  const int parked_now = group->parked.fetch_add(1, std::memory_order_acq_rel) + 1;
  // >= because an abnormal teardown may shrink width below the parked
  // count while a sweep is in flight.
  if (parked_now >= group->width.load(std::memory_order_acquire)) {
    // The termination check reads under total exclusion — for the
    // explorer's dependence relation that is a read of everything.
    if (sim_recording_) sim_step_.reads_all = true;
    bool enabled = false;
    engine_.exclusive([&]() -> std::vector<IndexKey> {
      for (const Branch& b : branches) {
        QueryOutcome probe;
        if (p.view_ptr() != nullptr && !p.view_ptr()->imports_everything()) {
          const WindowSource window(engine_.space(), *p.view_ptr(), p.env,
                                    engine_.functions());
          probe = b.guard.query.evaluate(window, p.env, engine_.functions());
        } else {
          const DataspaceSource source(engine_.space());
          probe = b.guard.query.evaluate(source, p.env, engine_.functions());
        }
        if (probe.success) {
          enabled = true;
          break;
        }
      }
      return {};
    });
    if (enabled) {
      group->parked.fetch_sub(1, std::memory_order_acq_rel);
      p.counted_parked = false;
      return StepOutcome::Continue;  // retry the sweep with effects
    }
    group->done.store(true, std::memory_order_release);
    group->parked.fetch_sub(1, std::memory_order_acq_rel);
    p.counted_parked = false;
    wake_group(*group, p.pid);
    p.frames.clear();
    return StepOutcome::Done;
  }
  p.park_reason = ParkReason::Replication;
  return StepOutcome::Parked;
}

void Scheduler::wake_group(ReplicationGroup& group, ProcessId except) {
  for (ProcessId pid : group.members) {
    if (pid != except) wake(pid);
  }
}

}  // namespace sdl
