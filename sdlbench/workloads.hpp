// The two sdlbench workloads. Each builds its inputs from the seed,
// drives the runtime only through its public API, checks its own output,
// and returns raw measurements; main.cpp turns them into metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace sdlbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Bench-side spans; enabled exactly when the run is traced (the
  /// runtime's instruments are then on at span sample period 1).
  SpanLog* spans = nullptr;
  /// Scratch directory for durable state, inside the benchmark checkout.
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;  // society runs + host requests
  std::uint64_t failed = 0;
  std::vector<double> setup_s;      // one per set-up
  std::vector<double> run_s;        // one per unit of fixed work
  std::vector<double> ops_per_s;    // committed transactions per second
  std::vector<double> parse_ms;
  std::vector<double> load_ms;
  TrafficStats traffic;             // host requests, scheduled-arrival timed
  /// The same requests split into windows (one per society run, one per
  /// second of open loop); latency quantiles are medians over windows.
  std::vector<TrafficStats> windows;
  LayerSnapshot layers;             // the measured phases only
  int layer_runs = 0;               // captures merged into `layers`
  double host_reads = 0;            // host reads committed within `layers`
  // Durable workload only.
  std::vector<double> repl_lag_records;  // leader lag, sampled every 1 ms
  double repl_drain_ms = 0.0;
  std::uint64_t size = 0;           // N or K

  void add_window(const TrafficStats& t) {
    traffic.append(t);
    windows.push_back(t);
    attempted += t.attempted;
    failed += t.failed;
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// One host client's point reads and read-modify-writes on
/// `[head, k, bal]` tuples, written as SDL text and parsed once. Arrival
/// i's operation, key and delta derive from (seed, i) alone. Conservation:
/// the committed deltas are summed, so the balances must total
/// `initial + delta_sum`.
class HostOps {
 public:
  HostOps(const std::string& head, std::uint64_t keys, std::uint64_t seed,
          int write_percent);
  Outcome request(sdl::Runtime& rt, std::uint64_t i);
  [[nodiscard]] std::int64_t delta_sum() const { return delta_; }
  /// Reads that committed: they count as engine commits too.
  [[nodiscard]] std::uint64_t reads_ok() const { return reads_ok_; }
  void reset() {
    delta_ = 0;
    reads_ok_ = 0;
  }

 private:
  const std::uint64_t keys_;
  const std::uint64_t seed_;
  const int write_percent_;
  sdl::SymbolTable symbols_;
  sdl::Transaction read_;
  sdl::Transaction write_;
  int k_slot_ = 0;
  int d_slot_ = 0;
  int r_slot_ = 0;
  sdl::Env env_;
  std::int64_t delta_ = 0;
  std::uint64_t reads_ok_ = 0;
};

/// Sum and count of the `[head, k, bal]` tuples in a dataspace.
struct Balances {
  std::int64_t total = 0;
  std::uint64_t count = 0;
};
Balances balances(const sdl::Dataspace& space, const std::string& head);

RunResult run_sum1_society(const RunConfig& cfg);
RunResult run_durable_accounts(const RunConfig& cfg);

}  // namespace sdlbench
