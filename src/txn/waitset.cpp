#include "txn/waitset.hpp"

#include <algorithm>

namespace sdl {
namespace {

void remove_ticket(std::vector<WaitSet::Ticket>& v, WaitSet::Ticket t) {
  v.erase(std::remove(v.begin(), v.end(), t), v.end());
}

}  // namespace

WaitSet::Ticket WaitSet::subscribe(Interest interest, std::function<void()> wake,
                                   bool* saturated) {
  // Park-set cap: a bucket already holding `cap` subscribers is a queue
  // that can only be drained one publish at a time — piling more parked
  // processes onto it converts overload into unbounded latency. The cap
  // check rides the same lock as the insert, so the count is exact.
  const std::size_t cap =
      overload_ != nullptr ? overload_->options().max_parked_per_bucket : 0;
  std::scoped_lock lock(mutex_);
  live_subscribers_.fetch_add(1, std::memory_order_release);
  const Ticket ticket = next_ticket_++;
  if (interest.everything) {
    all_.push_back(ticket);
  } else {
    for (const IndexKey& k : interest.keys) {
      std::vector<Ticket>& bucket = by_key_[k];
      if (cap != 0 && bucket.size() >= cap) {
        if (saturated != nullptr) *saturated = true;
        overload_->stats().park_saturated.fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      bucket.push_back(ticket);
    }
    for (std::uint32_t a : interest.arities) by_arity_[a].push_back(ticket);
  }
  entries_.emplace(ticket, Entry{std::move(interest), std::move(wake)});
  return ticket;
}

void WaitSet::unsubscribe(Ticket ticket) {
  if (ticket == kInvalidTicket) return;
  std::scoped_lock lock(mutex_);
  auto it = entries_.find(ticket);
  if (it == entries_.end()) return;
  const Interest& interest = it->second.interest;
  if (interest.everything) {
    remove_ticket(all_, ticket);
  } else {
    for (const IndexKey& k : interest.keys) {
      auto kit = by_key_.find(k);
      if (kit != by_key_.end()) {
        remove_ticket(kit->second, ticket);
        if (kit->second.empty()) by_key_.erase(kit);
      }
    }
    for (std::uint32_t a : interest.arities) {
      auto ait = by_arity_.find(a);
      if (ait != by_arity_.end()) {
        remove_ticket(ait->second, ticket);
        if (ait->second.empty()) by_arity_.erase(ait);
      }
    }
  }
  entries_.erase(it);
  live_subscribers_.fetch_sub(1, std::memory_order_release);
}

void WaitSet::publish(const std::vector<IndexKey>& touched) {
  publish_batch(touched);
}

void WaitSet::publish_batch(std::vector<IndexKey> touched) {
  version_.fetch_add(1, std::memory_order_acq_rel);

  // Fast path: no subscribers, nothing to wake. (A subscriber appearing
  // concurrently is safe: the subscribe-then-evaluate discipline means it
  // re-checks the dataspace after subscribing, so this commit cannot be
  // lost — it either sees the commit's effects or a later publish.)
  if (live_subscribers_.load(std::memory_order_acquire) == 0) return;

  bool wake_everyone = false;
  if (faults_ != nullptr) {
    switch (faults_->decide(FaultPoint::WaitSetPublish)) {
      case FaultAction::Delay:
        // Widen the commit→publish window: the committed effects are
        // visible but nobody has been told yet, the exact window the
        // subscribe-first discipline must survive.
        faults_->delay();
        break;
      case FaultAction::SpuriousWake:
        // Escalate this one publish to wake-all: every subscriber gets a
        // wakeup, almost all of them spurious.
        wake_everyone = true;
        break;
      default:
        break;
    }
  }

  // Wake-all reads no key; only the by-key branch coalesces. A ForAll
  // retracting N tuples from one bucket, or a composite consensus commit,
  // repeats keys — dedupe before probing the maps so each unique key (and
  // arity) costs one lookup instead of one per occurrence.
  const bool wake_all = wake_everyone || policy() == WakePolicy::WakeAll;
  if (!wake_all) {
    std::sort(touched.begin(), touched.end(),
              [](const IndexKey& a, const IndexKey& b) {
                return a.arity != b.arity ? a.arity < b.arity
                                          : a.head_hash < b.head_hash;
              });
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  }

  // Collect the wake callbacks under the lock, invoke them after (CP.22).
  std::vector<std::function<void()>> to_wake;
  {
    std::scoped_lock lock(mutex_);
    if (wake_all) {
      to_wake.reserve(entries_.size());
      for (const auto& [ticket, entry] : entries_) to_wake.push_back(entry.wake);
    } else {
      std::vector<Ticket> tickets(all_.begin(), all_.end());
      std::uint32_t last_arity = 0;
      bool have_arity = false;
      for (const IndexKey& k : touched) {
        if (auto it = by_key_.find(k); it != by_key_.end()) {
          tickets.insert(tickets.end(), it->second.begin(), it->second.end());
        }
        // touched is sorted by arity: probe by_arity_ once per arity run.
        if (have_arity && k.arity == last_arity) continue;
        last_arity = k.arity;
        have_arity = true;
        if (auto it = by_arity_.find(k.arity); it != by_arity_.end()) {
          tickets.insert(tickets.end(), it->second.begin(), it->second.end());
        }
      }
      // A waiter subscribed to several touched keys is woken once.
      std::sort(tickets.begin(), tickets.end());
      tickets.erase(std::unique(tickets.begin(), tickets.end()), tickets.end());
      to_wake.reserve(tickets.size());
      for (Ticket t : tickets) {
        auto it = entries_.find(t);
        if (it != entries_.end()) to_wake.push_back(it->second.wake);
      }
    }
  }
  if (faults_ != nullptr && !to_wake.empty() &&
      faults_->decide(FaultPoint::WakeDeliver) == FaultAction::Delay) {
    // Callbacks collected, lock released, not yet invoked: the waiter may
    // already have unsubscribed by the time these run — the stale-wake
    // window that wake() and BlockingWaiter must tolerate.
    faults_->delay();
  }
  wakes_.fetch_add(to_wake.size(), std::memory_order_relaxed);
  for (const auto& wake : to_wake) wake();
}

std::size_t WaitSet::subscriber_count() const {
  std::scoped_lock lock(mutex_);
  return entries_.size();
}

}  // namespace sdl
