// sdlbench: one end-to-end benchmark of the SDL runtime.
//
//   sdlbench --workload <sum1_society|durable_accounts>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--commit <id>]
//
// --trace 0 measures the end-to-end metrics with every instrument off.
// --trace 1 spends half the time untraced and half traced (registry
// instruments on at span sample period 1, bench-side spans kept and
// written to <work-dir>/spans-<workload>-<seed>.jsonl), prints the
// per-layer table, and reports the tracing overhead as the traced half's
// run_s over the untraced half's.
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it stamps the host shape and the sample counts.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "workloads.hpp"

#ifndef SDLBENCH_BUILD_TYPE
#define SDLBENCH_BUILD_TYPE "unknown"
#endif

namespace sdlbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_out";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in --flag value pairs");
  Args a;
  for (const auto& [k, v] : kv) {
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--commit") a.commit = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

RunResult run_workload(const Args& a, bool traced, double seconds, SpanLog& spans) {
  sdl::obs::set_enabled(traced);
  sdl::obs::set_span_sample_period(1);
  RunConfig cfg;
  cfg.seed = a.seed;
  cfg.seconds = seconds;
  cfg.spans = &spans;
  cfg.work_dir = a.work_dir;
  RunResult r;
  if (a.workload == "sum1_society") {
    r = run_sum1_society(cfg);
  } else {
    r = run_durable_accounts(cfg);
  }
  sdl::obs::set_enabled(false);
  // A failed output check voids every operation of the run.
  if (!r.correct) r.failed = r.attempted;
  return r;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Interquartile mean over the traffic windows of one latency quantile,
/// in µs. The host requests on each fresh society runtime fall into a
/// fast or a slow mode (README.md): the median of the windows jumped
/// between the two modes from run to run. A short slow spell of the host
/// lifts a few windows: the plain mean followed them.
double window_quantile(const RunResult& r, bool write, double q) {
  std::vector<double> per;
  for (const TrafficStats& w : r.windows) {
    const Samples& s = write ? w.write_latency : w.read_latency;
    if (s.count() != 0) per.push_back(s.quantile_us(q));
  }
  return interquartile_mean(per);
}

MetricSet end_to_end(const RunResult& r) {
  const TrafficStats& t = r.traffic;
  MetricSet m;
  m.set("setup_s", median(r.setup_s), "s");
  m.set("run_s", median(r.run_s), "s");
  m.set("capacity_ops_s", median(r.ops_per_s), "1/s");
  m.set("read_p50_us", window_quantile(r, false, 0.50), "us");
  // Failed requests already missed the limit: within_slo counts only
  // successes.
  m.set("within_slo_frac",
        ratio(static_cast<double>(t.within_slo), static_cast<double>(t.attempted)),
        "ratio");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

/// The generator is honest when its own lateness is small next to what
/// it measures: a run whose median wake-up slack exceeds half the median
/// read latency measured the generator, not the program.
bool generator_valid(const TrafficStats& t) {
  return t.lateness.quantile_us(0.50) <= 0.5 * t.read_latency.quantile_us(0.50);
}

/// `r` is the traced half of the run, `untraced` the other half.
MetricSet per_layer(const RunResult& r, const RunResult& untraced) {
  const LayerSnapshot& l = r.layers;
  const double runs = r.layer_runs > 0 ? r.layer_runs : 1;
  const double commits = l.c("commits");
  const double excl = l.c("sdl_lock_exclusive_acquired_total");
  const double ok = l.c("sdl_read_optimistic_ok_total");
  const double retry = l.c("sdl_read_validation_retry_total");
  const double hits = l.c("plan_hits");
  const double bailouts = l.c("plan_bailouts");
  MetricSet m;
  // Latency from scheduled arrival, untraced. Too noisy run to run on a
  // shared 4-vCPU host to carry a regression bound (README.md).
  m.set("write_p50_us", window_quantile(untraced, true, 0.50), "us");
  m.set("read_p99_us", window_quantile(untraced, false, 0.99), "us");
  m.set("write_p99_us", window_quantile(untraced, true, 0.99), "us");
  // Rows from the bench's own spans around the public calls.
  m.set("lang.parse_ms", median(r.parse_ms), "ms");
  m.set("lang.load_ms", median(r.load_ms), "ms");
  m.set("txn.read_execute_us.p50", r.traffic.read_service.quantile_us(0.50), "us");
  m.set("txn.write_execute_us.p50", r.traffic.write_service.quantile_us(0.50), "us");
  // Rows from the runtime's instruments and stat structs; counts are per
  // society run (durable_accounts: per measured phase).
  m.set("process.wakes_per_commit", ratio(l.c("wakes"), commits), "ratio");
  m.set("process.park_replication_ns.p50", l.q("sdl_park_replication_ns", 0.50), "ns");
  m.set("process.park_consensus_ns.p50", l.q("sdl_park_consensus_ns", 0.50), "ns");
  m.set("process.wake_to_dispatch_ns.p99", l.q("sdl_wake_to_dispatch_ns", 0.99), "ns");
  m.set("process.spawned", l.c("spawned") / runs, "count");
  m.set("consensus.sweeps", l.c("sweeps") / runs, "count");
  m.set("consensus.fires", l.c("fires") / runs, "count");
  m.set("consensus.sweeps_per_fire", ratio(l.c("sweeps"), l.c("fires")), "ratio");
  m.set("consensus.claim_fire_ns.p99", l.q("sdl_consensus_claim_fire_ns", 0.99), "ns");
  m.set("query.plan_cache_hits", hits / runs, "count");
  m.set("query.plan_cache_bailouts", bailouts / runs, "count");
  m.set("query.bailout_frac", ratio(bailouts, hits + l.c("plan_misses") + bailouts),
        "ratio");
  m.set("query.evaluate_ns.mean", l.mean("sdl_txn_evaluate_ns"), "ns");
  m.set("query.evaluate_ns.p99", l.q("sdl_txn_evaluate_ns", 0.99), "ns");
  // Optimistic reads record no evaluate sample: compare with the number
  // of commits to see whose cost the two rows above describe.
  m.set("query.evaluate_samples",
        static_cast<double>(l.count_of("sdl_txn_evaluate_ns")) / runs, "count");
  // Per writing commit: host reads commit too and would dilute the ratio
  // by the read share of the traffic (every society commit writes).
  const double write_commits = commits - r.host_reads;
  m.set("txn.exclusive_locks_per_commit", ratio(excl, write_commits), "ratio");
  m.set("txn.exclusive_contended_frac",
        ratio(l.c("sdl_lock_exclusive_contended_total"), excl), "ratio");
  m.set("txn.lock_wait_ns.mean", l.mean("sdl_txn_lock_wait_ns"), "ns");
  m.set("txn.lock_wait_ns.p99", l.q("sdl_txn_lock_wait_ns", 0.99), "ns");
  m.set("txn.lock_hold_ns.p50", l.q("sdl_txn_lock_hold_ns", 0.50), "ns");
  m.set("txn.commit_frac", ratio(commits, l.c("attempts")), "ratio");
  m.set("txn.read_optimistic_ok", ok / runs, "count");
  m.set("txn.read_validation_retry", retry / runs, "count");
  m.set("txn.read_lock_fallback", l.c("sdl_read_lock_fallback_total") / runs, "count");
  m.set("txn.read_retry_frac", ratio(retry, ok + retry), "ratio");
  m.set("space.records_scanned_per_op",
        ratio(l.c("records_scanned"), l.c("attempts")), "ratio");
  m.set("persist.wal_append_ns.p50", l.q("sdl_wal_append_ns", 0.50), "ns");
  m.set("persist.wal_flush_ns.p99", l.q("sdl_wal_flush_ns", 0.99), "ns");
  m.set("persist.commits_per_sync", ratio(l.c("wal_commits"), l.c("wal_syncs")), "ratio");
  // Sampled by the bench from the leader's stats every millisecond.
  m.set("repl.lag_records.p99", quantile(r.repl_lag_records, 0.99), "records");
  m.set("repl.drain_ms", r.repl_drain_ms, "ms");
  m.set("repl.bytes_per_batch", ratio(l.c("repl_bytes"), l.c("repl_batches")), "B");
  m.set("repl.backpressure_hits", l.c("repl_backpressure"), "count");
  // The benchmark's own health.
  m.set("trace.overhead_frac", ratio(median(r.run_s), median(untraced.run_s)) - 1.0,
        "ratio");
  m.set("ops_failed_frac",
        ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
        "ratio");
  m.set("gen.late_us.p50", r.traffic.lateness.quantile_us(0.50), "us");
  m.set("gen.late_us.p99", r.traffic.lateness.quantile_us(0.99), "us");
  m.set("gen.valid", generator_valid(r.traffic) ? 1.0 : 0.0, "bool");
  m.set("bench.read_samples", static_cast<double>(r.traffic.read_latency.count()),
        "count");
  m.set("bench.write_samples", static_cast<double>(r.traffic.write_latency.count()),
        "count");
  return m;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_number(v[i]);
  }
  return out + "]";
}

std::string host_line(const Args& a, const RunResult& r, bool correct,
                      const std::vector<std::string>& errors) {
  std::string out = "{\"host\": {\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"cpu\": " + json_string(cpu_model()) +
                    ", \"build_type\": " + json_string(SDLBENCH_BUILD_TYPE) +
                    ", \"commit\": " + json_string(a.commit) + "}";
  out += ", \"workload\": " + json_string(a.workload) +
         ", \"seed\": " + std::to_string(a.seed) +
         ", \"trace\": " + (a.trace ? "1" : "0") +
         ", \"size\": " + std::to_string(r.size) +
         ", \"run_s\": " + json_list(r.run_s) +
         ", \"setup_s\": " + json_list(r.setup_s) +
         ", \"read_samples\": " + std::to_string(r.traffic.read_latency.count()) +
         ", \"write_samples\": " + std::to_string(r.traffic.write_latency.count()) +
         ", \"gen_late_p50_us\": " + json_number(r.traffic.lateness.quantile_us(0.5)) +
         ", \"gen_late_p99_us\": " + json_number(r.traffic.lateness.quantile_us(0.99)) +
         ", \"gen_valid\": " + (generator_valid(r.traffic) ? "true" : "false") +
         ", \"correct\": " + (correct ? "true" : "false") + ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(errors[i]);
  }
  return out + "]}";
}

int run(const Args& a) {
  std::filesystem::create_directories(a.work_dir);
  SpanLog no_spans(false);
  RunResult result;
  MetricSet metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  if (!a.trace) {
    result = run_workload(a, false, a.seconds, no_spans);
    metrics = end_to_end(result);
    correct = result.correct;
    attempted = result.attempted;
    failed = result.failed;
    errors = result.errors;
  } else {
    const RunResult untraced = run_workload(a, false, a.seconds / 2, no_spans);
    SpanLog spans(true);
    result = run_workload(a, true, a.seconds / 2, spans);
    metrics = per_layer(result, untraced);
    correct = untraced.correct && result.correct;
    attempted = untraced.attempted + result.attempted;
    failed = untraced.failed + result.failed;
    errors = untraced.errors;
    errors.insert(errors.end(), result.errors.begin(), result.errors.end());
    const std::string path = a.work_dir + "/spans-" + a.workload + "-" +
                             std::to_string(a.seed) + ".jsonl";
    if (!spans.write(path)) errors.push_back("could not write " + path);
  }
  std::cout << host_line(a, result, correct, errors) << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace sdlbench

int main(int argc, char** argv) {
  try {
    const sdlbench::Args args = sdlbench::parse_args(argc, argv);
    if (args.workload != "sum1_society" && args.workload != "durable_accounts") {
      std::cerr << "sdlbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    return sdlbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "sdlbench: " << e.what() << "\n";
    return 1;
  }
}
