// durable_accounts: host traffic on a durable, replicated dataspace.
//
// K `[acct, k, bal]` tuples live on a leader with a WAL (fsync_every=8)
// and one loopback follower. One host client sends SDL-text point
// reads and read-modify-writes, first open-loop at a fixed offered rate,
// then closed-loop in fixed batches for capacity. The balances must be
// conserved on the leader and, once it drains, on the follower. A second
// client added no capacity on 4 cores and made the open-loop read p50
// swing by half between runs (README.md).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "lang/compile.hpp"
#include "lang/parser.hpp"
#include "repl/repl.hpp"
#include "repl/transport.hpp"
#include "workloads.hpp"

namespace sdlbench {

namespace {

constexpr std::uint64_t kAccounts = 4096;
constexpr int kWritePercent = 10;
/// Offered rate of the open-loop phase, a fixed constant (not calibrated
/// per run) at about a quarter of the closed-loop capacity (~45k req/s
/// on 4 cores).
constexpr double kOfferedRate = 12000.0;
/// Share of the run spent in the open-loop phase; the rest is capacity.
constexpr double kOpenShare = 0.6;
/// Requests per closed-loop batch (one run_s sample each).
constexpr std::uint64_t kBatch = 40000;
constexpr int kSetups = 15;
constexpr int kMinBatches = 3;
/// Span request ids: set-ups use 0..kSetups-1, then these ranges.
constexpr std::uint64_t kOpenIds = std::uint64_t{1} << 40;
constexpr std::uint64_t kBatchIds = std::uint64_t{2} << 40;

std::string accounts_source(std::uint64_t seed, std::int64_t* total) {
  Rng rng(seed ^ 0xACC7ULL);
  std::ostringstream src;
  src << "init {\n";
  *total = 0;
  for (std::uint64_t k = 0; k < kAccounts; ++k) {
    const auto bal = static_cast<std::int64_t>(100 + rng.below(900));
    *total += bal;
    src << "  [acct, " << k << ", " << bal << "];\n";
  }
  src << "}\n";
  return src.str();
}

/// Waits until the follower has applied everything the leader made
/// durable; false on timeout.
bool drain(sdl::Runtime& leader, sdl::Runtime& follower) {
  leader.persist()->sync();
  const std::uint64_t target = leader.persist()->shippable_seq();
  const std::int64_t deadline = now_ns() + 60'000'000'000;
  while (follower.repl_follower()->applied_seq() < target) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

struct Node {
  std::unique_ptr<sdl::Runtime> leader;
  std::unique_ptr<sdl::Runtime> follower;
  std::unique_ptr<HostOps> host;

  ~Node() {
    follower.reset();
    leader.reset();
  }
};

}  // namespace

HostOps::HostOps(const std::string& head, std::uint64_t keys, std::uint64_t seed,
                 int write_percent)
    : keys_(keys), seed_(seed), write_percent_(write_percent) {
  std::set<std::string> scope{"k", "d"};
  read_ = sdl::lang::parse_transaction(
      "exists b : [" + head + ", k, b] -> let r = b", scope);
  write_ = sdl::lang::parse_transaction(
      "exists b : [" + head + ", k, b]! -> [" + head + ", k, b + d]", scope);
  k_slot_ = symbols_.intern("k");
  d_slot_ = symbols_.intern("d");
  read_.resolve(symbols_);
  write_.resolve(symbols_);
  r_slot_ = *symbols_.lookup("r");
  env_.resize(static_cast<std::size_t>(symbols_.size()));
}

Outcome HostOps::request(sdl::Runtime& rt, std::uint64_t i) {
  Rng rng(seed_ * 0x2545F4914F6CDD1DULL + i);
  const std::uint64_t r = rng.next();
  env_[static_cast<std::size_t>(k_slot_)] = static_cast<std::int64_t>((r >> 8) % keys_);
  if (static_cast<int>(r % 100) < write_percent_) {
    const std::int64_t d = static_cast<std::int64_t>(1 + (r >> 40) % 9) *
                           ((r >> 50) % 2 == 0 ? 1 : -1);
    env_[static_cast<std::size_t>(d_slot_)] = d;
    const bool ok = rt.execute(write_, env_).success;
    if (ok) delta_ += d;
    return {true, ok};
  }
  env_[static_cast<std::size_t>(r_slot_)] = sdl::Value();
  const bool committed = rt.execute(read_, env_).success;
  if (committed) ++reads_ok_;
  return {false, committed && env_[static_cast<std::size_t>(r_slot_)].is_int()};
}

Balances balances(const sdl::Dataspace& space, const std::string& head) {
  const sdl::Value h = sdl::Value::atom(head);
  Balances b;
  for (const sdl::Record& r : space.snapshot()) {
    if (r.tuple.arity() == 3 && r.tuple[0] == h && r.tuple[2].is_int()) {
      b.total += r.tuple[2].as_int();
      ++b.count;
    }
  }
  return b;
}

RunResult run_durable_accounts(const RunConfig& cfg) {
  namespace fs = std::filesystem;
  RunResult res;
  res.size = kAccounts;
  std::int64_t initial = 0;
  const std::string source = accounts_source(cfg.seed, &initial);
  const std::string dir = cfg.work_dir + "/durable_accounts";

  // Set-up, several times: parse, load and seed the durable leader, then
  // attach the follower and let it catch up. The last one is kept.
  Node node;
  for (int s = 0; s < kSetups; ++s) {
    node.follower.reset();
    node.leader.reset();
    fs::remove_all(dir);
    const std::int64_t t0 = now_ns();
    sdl::lang::Program program = sdl::lang::parse_program(source);
    node.host = std::make_unique<HostOps>("acct", kAccounts, cfg.seed, kWritePercent);
    const std::int64_t t1 = now_ns();
    sdl::RuntimeOptions lo;
    lo.persist.dir = dir;
    lo.persist.fsync_every = 8;
    lo.repl.role = sdl::repl::Role::Leader;
    lo.repl.node_id = 1;
    lo.repl.poll_interval_ms = 1;
    node.leader = std::make_unique<sdl::Runtime>(lo);
    sdl::lang::load_program(*node.leader, std::move(program));
    const std::int64_t t2 = now_ns();
    sdl::RuntimeOptions fo;
    fo.repl.role = sdl::repl::Role::Follower;
    fo.repl.node_id = 2;
    fo.repl.poll_interval_ms = 1;
    node.follower = std::make_unique<sdl::Runtime>(fo);
    auto [to_follower, to_leader] = sdl::repl::make_loopback_pair();
    node.leader->repl_leader()->add_follower(std::move(to_follower));
    node.follower->repl_follower()->attach(std::move(to_leader));
    if (!drain(*node.leader, *node.follower)) res.fail("follower never caught up at set-up");
    const std::int64_t t3 = now_ns();
    res.setup_s.push_back(seconds_between(t0, t3));
    res.parse_ms.push_back(seconds_between(t0, t1) * 1e3);
    res.load_ms.push_back(seconds_between(t1, t2) * 1e3);
    if (cfg.spans->enabled()) {
      const auto id = static_cast<std::uint64_t>(s);
      cfg.spans->add({id, "setup", "", t0, t3});
      cfg.spans->add({id, "parse", "setup", t0, t1});
      cfg.spans->add({id, "load", "setup", t1, t2});
      cfg.spans->add({id, "attach", "setup", t2, t3});
    }
  }
  sdl::Runtime& leader = *node.leader;
  HostOps& host = *node.host;

  const LayerSnapshot before = capture_layers(leader);
  BackgroundTask sampler([&](const std::atomic<bool>& stop) {
    while (cfg.spans->enabled() && !stop.load()) {
      res.repl_lag_records.push_back(
          static_cast<double>(leader.repl_leader()->stats().lag_records));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Open loop at the fixed offered rate, in one-second windows.
  const auto windows = static_cast<int>(std::max(1.0, cfg.seconds * kOpenShare));
  const auto per_window = static_cast<std::uint64_t>(kOfferedRate);
  for (int w = 0; w < windows; ++w) {
    const std::uint64_t base = static_cast<std::uint64_t>(w) * per_window;
    res.add_window(run_open_loop(
        kOfferedRate, per_window,
        [&](std::uint64_t i) { return host.request(leader, base + i); }, *cfg.spans,
        kOpenIds + base));
  }

  // Closed loop: requests back to back over fixed-size batches.
  const std::int64_t closed_start = now_ns();
  std::uint64_t next_id = static_cast<std::uint64_t>(windows) * per_window;
  for (int b = 0; b < kMinBatches ||
                  seconds_between(closed_start, now_ns()) <
                      cfg.seconds * (1.0 - kOpenShare);
       ++b) {
    std::uint64_t failed = 0;
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      if (!host.request(leader, next_id + i).ok) ++failed;
    }
    const double secs = seconds_between(t0, now_ns());
    next_id += kBatch;
    res.run_s.push_back(secs);
    res.ops_per_s.push_back(static_cast<double>(kBatch) / secs);
    res.attempted += kBatch;
    res.failed += failed;
    if (cfg.spans->enabled()) {
      cfg.spans->add({kBatchIds + static_cast<std::uint64_t>(b), "capacity_batch",
                      "", t0, now_ns()});
    }
  }
  sampler.finish();
  res.layers = capture_layers(leader).since(before);
  res.layer_runs = 1;
  res.host_reads = static_cast<double>(host.reads_ok());

  const std::int64_t d0 = now_ns();
  if (!drain(leader, *node.follower)) res.fail("follower did not drain");
  res.repl_drain_ms = seconds_between(d0, now_ns()) * 1e3;

  const std::int64_t expected = initial + host.delta_sum();
  const Balances lb = balances(leader.space(), "acct");
  if (lb.count != kAccounts || lb.total != expected) {
    res.fail("leader balances not conserved: " + std::to_string(lb.total) +
             " in " + std::to_string(lb.count) + " accounts, expected " +
             std::to_string(expected));
  }
  const Balances fb = balances(node.follower->space(), "acct");
  if (fb.count != kAccounts || fb.total != expected) {
    res.fail("follower balances not conserved: " + std::to_string(fb.total) +
             " in " + std::to_string(fb.count) + " accounts, expected " +
             std::to_string(expected));
  }
  if (node.follower->repl_follower()->stats().missing_retracts != 0) {
    res.fail("follower reported missing retracts");
  }
  node.follower.reset();
  node.leader.reset();
  fs::remove_all(dir);
  return res;
}

}  // namespace sdlbench
