// sum1_society: the paper's §3.1 Sum1 array summation as generated SDL
// source, run to quiescence on a fresh runtime per repetition (one
// scheduler worker, no WAL). After each run a host client
// sends open-loop point reads and read-modify-writes, as SDL text, to a
// disjoint set of `[probe, k, bal]` tuples in the society's dataspace.
#include <sstream>

#include "lang/compile.hpp"
#include "lang/parser.hpp"
#include "workloads.hpp"

namespace sdlbench {

namespace {

/// N, a power of two: one society run lasts under a second, so a
/// measurement holds dozens of runs and their median is steady.
constexpr std::uint64_t kValues = 4096;
/// One scheduler worker. With more workers on a shared 4-vCPU host the
/// society measured the neighbours: busy neighbour processes made Sum1
/// up to six times faster (README.md).
constexpr std::size_t kWorkers = 1;
constexpr std::uint64_t kProbeKeys = 4096;
/// Host requests after each run: one client, open loop, 0.2 s.
constexpr double kProbeRate = 20000.0;
constexpr std::uint64_t kProbeRequests = 4000;
constexpr int kProbeWritePercent = 10;
constexpr int kMinReps = 3;

struct Generated {
  std::string source;
  std::int64_t expected_sum = 0;
  std::int64_t probe_total = 0;
};

Generated generate(std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  Generated g;
  std::ostringstream src;
  src << "process Sum1(k, j)\nbehavior\n"
         "  exists a, b : [k - 2**(j-1), a]!, [k, b]! => [k, a + b];\n"
         "  { when k % 2**(j+1) = 0 ^ spawn Sum1(k, j + 1)\n"
         "  | when k % 2**(j+1) != 0 ^ skip\n"
         "  }\n"
         "end\n";
  src << "init {\n";
  for (std::uint64_t k = 1; k <= n; ++k) {
    const auto v = static_cast<std::int64_t>(1 + rng.below(1000));
    g.expected_sum += v;
    src << "  [" << k << ", " << v << "];\n";
  }
  for (std::uint64_t k = 0; k < kProbeKeys; ++k) {
    const auto bal = static_cast<std::int64_t>(100 + rng.below(900));
    g.probe_total += bal;
    src << "  [probe, " << k << ", " << bal << "];\n";
  }
  src << "}\n";
  for (std::uint64_t k = 2; k <= n; k += 2) src << "spawn Sum1(" << k << ", 1)\n";
  g.source = src.str();
  return g;
}

/// The society's answer: the only arity-2 tuple left must hold the sum.
void check_sum(const sdl::Dataspace& space, std::int64_t expected, RunResult& res) {
  std::uint64_t pairs = 0;
  std::int64_t value = 0;
  for (const sdl::Record& r : space.snapshot()) {
    if (r.tuple.arity() != 2) continue;
    ++pairs;
    value = r.tuple[1].is_int() ? r.tuple[1].as_int() : 0;
  }
  if (pairs != 1 || value != expected) {
    res.fail("society left " + std::to_string(pairs) + " value tuples, last " +
             std::to_string(value) + ", expected one holding " +
             std::to_string(expected));
  }
}

}  // namespace

RunResult run_sum1_society(const RunConfig& cfg) {
  const std::uint64_t n = kValues;
  const Generated gen = generate(n, cfg.seed);
  HostOps probe("probe", kProbeKeys, cfg.seed, kProbeWritePercent);
  RunResult res;
  res.size = n;

  const std::int64_t start = now_ns();
  for (int rep = 0;
       rep < kMinReps || seconds_between(start, now_ns()) < cfg.seconds; ++rep) {
    const std::int64_t t0 = now_ns();
    sdl::lang::Program program = sdl::lang::parse_program(gen.source);
    const std::int64_t t1 = now_ns();
    sdl::RuntimeOptions opts;
    opts.scheduler.workers = kWorkers;
    sdl::Runtime rt(opts);
    sdl::lang::load_program(rt, std::move(program));
    const std::int64_t t2 = now_ns();
    res.setup_s.push_back(seconds_between(t0, t2));
    res.parse_ms.push_back(seconds_between(t0, t1) * 1e3);
    res.load_ms.push_back(seconds_between(t1, t2) * 1e3);

    probe.reset();
    const LayerSnapshot before = capture_layers(rt);
    const std::uint64_t commits0 = rt.stats().txn_commits;
    const std::int64_t t3 = now_ns();
    const sdl::RunReport report = rt.run();
    const std::int64_t t4 = now_ns();
    const double run_s = seconds_between(t3, t4);
    res.run_s.push_back(run_s);
    res.ops_per_s.push_back(static_cast<double>(rt.stats().txn_commits - commits0) /
                            run_s);

    // Request ids: the repetition's own spans use rep << 40, its probe
    // requests the ids just above.
    const std::uint64_t rep_id = static_cast<std::uint64_t>(rep) << 40;
    const std::uint64_t base = rep_id + 1;
    res.add_window(run_open_loop(
        kProbeRate, kProbeRequests,
        [&](std::uint64_t i) { return probe.request(rt, base + i); }, *cfg.spans, base));
    ++res.attempted;

    if (!report.clean()) {
      res.fail("society did not end cleanly: " + std::to_string(report.still_parked) +
               " parked, " + std::to_string(report.errors.size()) + " errors");
      ++res.failed;
    }
    check_sum(rt.space(), gen.expected_sum, res);
    const Balances b = balances(rt.space(), "probe");
    if (b.count != kProbeKeys || b.total != gen.probe_total + probe.delta_sum()) {
      res.fail("probe balances not conserved");
    }
    if (cfg.spans->enabled()) {
      res.layers.merge(capture_layers(rt).since(before));
      ++res.layer_runs;
      res.host_reads += static_cast<double>(probe.reads_ok());
      cfg.spans->add({rep_id, "setup", "", t0, t2});
      cfg.spans->add({rep_id, "parse", "setup", t0, t1});
      cfg.spans->add({rep_id, "load", "setup", t1, t2});
      cfg.spans->add({rep_id, "run", "", t3, t4});
    }
  }
  return res;
}

}  // namespace sdlbench
