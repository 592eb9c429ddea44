// Measurement helpers shared by the sdlbench workloads: latency samples,
// an open-loop arrival generator, bench-side spans, per-layer snapshots
// of the runtime's own instruments, and the JSON result line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "process/runtime.hpp"

namespace sdlbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_between(std::int64_t start_ns, std::int64_t end_ns);
[[nodiscard]] double median(std::vector<double> v);
/// Mean of the middle half of the values (all of them when fewer than 4).
[[nodiscard]] double interquartile_mean(std::vector<double> v);
/// Nearest-rank q-quantile (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Latency samples in nanoseconds; quantiles by nearest rank.
class Samples {
 public:
  void add(std::int64_t ns) {
    ns_.push_back(ns);
    sorted_ = false;
  }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const { return ns_.size(); }
  /// q-quantile in µs (0 when empty).
  [[nodiscard]] double quantile_us(double q) const;

 private:
  mutable std::vector<std::int64_t> ns_;
  mutable bool sorted_ = false;
};

/// Bench-side span: one per public call the benchmark makes. Spans of one
/// request share `request`; `parent` names the enclosing span (empty for
/// a root). Kept in memory and written out when the run ends.
struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Thread-safe; keeps the first kRetain spans of a run.
  void add(const std::vector<Span>& batch);
  void add(const Span& s) { add(std::vector<Span>{s}); }
  /// Writes one JSON object per line; returns false when unwritable.
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kRetain = 200000;
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One host request stream's outcome: latency from the scheduled arrival,
/// the service time of Runtime::execute alone, and the generator's own
/// lateness (actual send minus scheduled arrival).
struct TrafficStats {
  Samples read_latency;
  Samples write_latency;
  Samples read_service;
  Samples write_service;
  Samples lateness;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t within_slo = 0;
  void append(const TrafficStats& o);
};

/// What the client does for arrival number `i`: runs one request and
/// reports whether it was a write and whether it succeeded.
struct Outcome {
  bool write = false;
  bool ok = false;
};
using RequestFn = std::function<Outcome(std::uint64_t i)>;

constexpr std::int64_t kSloNs = 1'000'000;  // 1 ms

/// Open loop from one client on the calling thread: arrival i is due at
/// start + i/rate whatever happened to earlier arrivals. The client
/// sleeps to shortly before the due time and spins the rest, so its
/// wake-up slack stays small next to the request. Runs `count` arrivals.
TrafficStats run_open_loop(double rate, std::uint64_t count, const RequestFn& request,
                           SpanLog& spans, std::uint64_t request_base);

/// Runs `fn` on its own thread. finish() (or the destructor, on every
/// exit path) raises the stop flag `fn` polls and joins the thread.
class BackgroundTask {
 public:
  explicit BackgroundTask(std::function<void(const std::atomic<bool>& stop)> fn)
      : thread_([this, fn = std::move(fn)] { fn(stop_); }) {}
  ~BackgroundTask() { finish(); }
  BackgroundTask(const BackgroundTask&) = delete;
  BackgroundTask& operator=(const BackgroundTask&) = delete;

  void finish() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: it reads stop_
};

/// Bench-side per-layer view of a runtime: the registry histograms and
/// the stat structs sampled at one instant. The difference of two
/// captures covers the phase between them; those of several runtimes
/// merge bucket-wise.
struct LayerSnapshot {
  std::map<std::string, sdl::obs::LatencyHistogram::Snapshot> hist;
  std::map<std::string, double> count;

  void merge(const LayerSnapshot& o);
  /// This capture minus an earlier one of the same runtime (histogram
  /// maxima are kept, not subtracted).
  [[nodiscard]] LayerSnapshot since(const LayerSnapshot& before) const;
  [[nodiscard]] double c(const std::string& k) const;
  [[nodiscard]] double q(const std::string& h, double quantile) const;
  [[nodiscard]] double mean(const std::string& h) const;
  [[nodiscard]] std::uint64_t count_of(const std::string& h) const;
};

/// Cumulative counts and histograms of one runtime, right now.
LayerSnapshot capture_layers(sdl::Runtime& rt);

/// Ordered name → (value, unit) list printed as the result's metrics;
/// each name is set once.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace sdlbench
