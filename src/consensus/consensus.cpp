#include "consensus/consensus.hpp"

#include <unordered_map>

namespace sdl {
namespace {

/// Union-find over node indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

struct Node {
  Process* p = nullptr;
  bool parked = false;         // stable environment; exact imports below
  bool ready = false;          // parked with at least one consensus offer
  std::vector<ConsensusOffer> offers;
  bool everything = false;     // Import(p) ⊇ D (import-all view, parked)
  std::vector<std::pair<TupleId, IndexKey>> imports;  // exact (parked only)
};

/// Per-member evaluation result during a fire attempt.
struct MemberPlan {
  Process* p = nullptr;
  bool ok = false;
  const Transaction* txn = nullptr;
  int branch = -1;
  QueryOutcome outcome;
};

}  // namespace

void ConsensusManager::notify() {
  dirty_.store(true, std::memory_order_release);
  while (!sweeping_.exchange(true, std::memory_order_acq_rel)) {
    while (dirty_.exchange(false, std::memory_order_acq_rel)) {
      while (sweep_once()) {
      }
    }
    sweeping_.store(false, std::memory_order_release);
    if (!dirty_.load(std::memory_order_acquire)) break;
  }
}

bool ConsensusManager::sweep_once() {
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  bool fired_any = false;
  bool injected_abort = false;

  // The composite commit returns every member's touched keys — with heavy
  // duplication when members share buckets — in one list; exclusive()
  // hands it to WaitSet::publish_batch, which dedupes keys and wakes each
  // affected subscriber exactly once for the whole composite.
  engine_.exclusive([&]() -> std::vector<IndexKey> {
    std::vector<IndexKey> touched;

    scheduler_.with_live([&](const std::vector<Process*>& live) {
      Dataspace& space = engine_.space();
      const FunctionRegistry* fns = engine_.functions();

      // ---- 1. Build nodes: snapshot states, gather import sets. ----
      std::vector<Node> nodes;
      nodes.reserve(live.size());
      bool any_ready = false;
      for (Process* p : live) {
        Node n;
        n.p = p;
        {
          std::scoped_lock state_lock(p->state_mutex);
          n.parked = p->state == RunState::Parked;
          if (n.parked && !p->offers.empty()) {
            n.ready = true;
            n.offers = p->offers;
            any_ready = true;
          }
        }
        nodes.push_back(std::move(n));
      }
      if (!any_ready) return;

      const bool space_nonempty = space.size() > 0;
      for (Node& n : nodes) {
        if (!n.parked) continue;  // runnable: bucket summary is used instead
        const View* view = n.p->view_ptr();
        if (view == nullptr || view->imports_everything()) {
          n.everything = true;
        } else {
          view->collect_import_records(space, n.p->env, fns, n.imports);
        }
      }

      // ---- 2. Needs-graph connected components. ----
      UnionFind uf(nodes.size());

      // exact–exact: two parked processes sharing a tuple instance.
      std::unordered_map<TupleId, std::size_t> owner_of;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i].parked || nodes[i].everything) continue;
        for (const auto& [id, key] : nodes[i].imports) {
          auto [it, inserted] = owner_of.emplace(id, i);
          if (!inserted) uf.unite(i, it->second);
        }
      }
      // everything nodes: overlap each other and any node with a
      // nonempty import∩D, provided D itself is nonempty.
      if (space_nonempty) {
        std::size_t first_everything = nodes.size();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          const bool everything_like =
              (nodes[i].parked && nodes[i].everything) ||
              (!nodes[i].parked && nodes[i].p->static_imports.everything);
          if (!everything_like) continue;
          if (first_everything == nodes.size()) {
            first_everything = i;
          } else {
            uf.unite(i, first_everything);
          }
        }
        if (first_everything != nodes.size()) {
          for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (i == first_everything) continue;
            if (nodes[i].parked && !nodes[i].everything) {
              if (!nodes[i].imports.empty()) uf.unite(i, first_everything);
            } else if (!nodes[i].parked && !nodes[i].p->static_imports.everything) {
              // Conservative: a runnable process with any potentially
              // nonempty bucket coverage overlaps the everything group.
              bool nonempty = false;
              for (const IndexKey& k : nodes[i].p->static_imports.keys) {
                space.scan_key(k, [&](const Record&) {
                  nonempty = true;
                  return false;
                });
                if (nonempty) break;
              }
              if (!nonempty) {
                for (std::uint32_t a : nodes[i].p->static_imports.arities) {
                  space.scan_arity(a, [&](const Record&) {
                    nonempty = true;
                    return false;
                  });
                  if (nonempty) break;
                }
              }
              if (nonempty) uf.unite(i, first_everything);
            }
          }
        }
      }
      // exact–conservative: a parked process's imported tuple falls in a
      // runnable process's bucket summary.
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!nodes[i].parked || nodes[i].everything) continue;
        for (std::size_t j = 0; j < nodes.size(); ++j) {
          if (nodes[j].parked) continue;
          const ImportSummary& summary = nodes[j].p->static_imports;
          if (summary.everything) continue;  // handled above
          for (const auto& [id, key] : nodes[i].imports) {
            if (summary.may_cover(key)) {
              uf.unite(i, j);
              break;
            }
          }
        }
      }
      // (runnable–runnable edges are irrelevant: a component containing a
      // runnable process never fires, and merging two blocked components
      // changes nothing.)

      // ---- 3. Group components; a component fires only if every member
      //         is ready (parked with offers). ----
      std::unordered_map<std::size_t, std::vector<std::size_t>> components;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        components[uf.find(i)].push_back(i);
      }

      for (auto& [root, member_idx] : components) {
        bool all_ready = true;
        for (std::size_t i : member_idx) {
          if (!nodes[i].ready) {
            all_ready = false;
            break;
          }
        }
        if (!all_ready) continue;

        // Fire span: from finding the component fireable to the last
        // member resumed + the composite WAL record logged. Recorded only
        // for components that actually fire (failed evaluations and
        // injected aborts are not fires).
        obs::RuntimeMetrics* const obs_m =
            (metrics_ != nullptr && obs::enabled()) ? metrics_ : nullptr;
        const std::uint64_t t_fire0 =
            obs_m != nullptr ? obs::now_ns() : 0;

        // Every member stays Parked with its offers until step 6 resumes
        // it: a process leaves Parked only under the society mutex, which
        // with_live holds for this whole sweep. A component that stops
        // short of the commit (a failed evaluation, an injected abort) is
        // just not fired this sweep.

        // Injection point: the component is fireable, offers not yet
        // evaluated. FailCommit skips the fire and the sweep retries,
        // proving an abort here cannot wedge the set.
        if (faults_ != nullptr) {
          switch (faults_->decide(FaultPoint::ConsensusClaim)) {
            case FaultAction::Delay:
              faults_->delay();
              break;
            case FaultAction::FailCommit:
              injected_aborts_.fetch_add(1, std::memory_order_relaxed);
              injected_abort = true;
              continue;
            default:
              break;
          }
        }

        // ---- 4. Evaluate every member's offers against the pre-state. ----
        std::vector<MemberPlan> plans;
        plans.reserve(member_idx.size());
        bool eval_ok = true;
        for (std::size_t i : member_idx) {
          Process* p = nodes[i].p;
          MemberPlan plan;
          plan.p = p;
          for (const ConsensusOffer& offer : nodes[i].offers) {
            QueryOutcome outcome;
            if (p->view_ptr() != nullptr && !p->view_ptr()->imports_everything()) {
              const WindowSource window(space, *p->view_ptr(), p->env, fns,
                                        obs_m);
              outcome = offer.txn->query.evaluate(window, p->env, fns);
            } else {
              const DataspaceSource source(space);
              outcome = offer.txn->query.evaluate(source, p->env, fns);
            }
            if (outcome.success) {
              plan.ok = true;
              plan.txn = offer.txn;
              plan.branch = offer.branch;
              plan.outcome = std::move(outcome);
              break;
            }
          }
          if (!plan.ok) {
            eval_ok = false;
            break;
          }
          plans.push_back(std::move(plan));
        }
        if (!eval_ok) continue;

        // Injection point: offers evaluated and satisfiable, composite
        // effects not yet applied — the last instant an abort is still
        // effect-free. FailCommit here must leave the dataspace
        // untouched (nothing below has run) and the members parked.
        if (faults_ != nullptr) {
          switch (faults_->decide(FaultPoint::ConsensusCommit)) {
            case FaultAction::Delay:
              faults_->delay();
              break;
            case FaultAction::FailCommit:
              injected_aborts_.fetch_add(1, std::memory_order_relaxed);
              injected_abort = true;
              continue;
            default:
              break;
          }
        }

        // ---- 5. Composite commit: materialize every member's assertions
        //         against the common pre-state, then commit all members
        //         as one (§2.2's composite rule: all retractions, then all
        //         additions; materializing first keeps a throwing field
        //         expression from leaving partial effects). The commit
        //         logs ONE WAL frame under the fire ordinal, owned by the
        //         environment, so recovery replays the composite
        //         all-or-nothing; every member's history entry carries the
        //         same ordinal, sequenced here under exclusive(), so the
        //         checker replays them as one atomic composite. ----
        std::vector<std::vector<Tuple>> to_insert(plans.size());
        std::vector<TxnResult> results(plans.size());
        std::vector<Engine::CommitPart> parts(plans.size());
        for (std::size_t pi = 0; pi < plans.size(); ++pi) {
          // An Exists winner's binding is still in its member's env.
          const MemberPlan& plan = plans[pi];
          const Process* p = plan.p;
          materialize_asserts(*plan.txn, plan.outcome, p->env, p->view_ptr(),
                              fns, to_insert[pi]);
          parts[pi] = {p->pid, plan.txn, &plan.outcome, &to_insert[pi],
                       &results[pi].asserted};
        }
        engine_.commit(parts, kEnvironmentProcess,
                       fires_.load(std::memory_order_relaxed) + 1, touched);

        // ---- 6. Resume every member with its result. ----
        for (std::size_t pi = 0; pi < plans.size(); ++pi) {
          TxnResult& result = results[pi];
          result.success = true;
          result.matches = std::move(plans[pi].outcome.matches);
          scheduler_.resume(*plans[pi].p,
                            ConsensusResult{plans[pi].branch, std::move(result)});
        }
        fires_.fetch_add(1, std::memory_order_relaxed);
        if (obs_m != nullptr) {
          obs_m->consensus_claim_fire_ns->record(obs::now_ns() - t_fire0);
        }
        fired_any = true;
      }
    });

    return touched;
  });

  // An injected abort left a fireable component un-fired: report progress
  // so notify() sweeps again (the decision stream has advanced, so a
  // bounded or probabilistic fault eventually lets the fire through).
  return fired_any || injected_abort;
}

}  // namespace sdl
