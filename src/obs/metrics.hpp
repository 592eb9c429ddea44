// Observability subsystem (tentpole of this PR): a unified registry of
// lock-free instruments over the runtime's hot paths.
//
// The paper's central scalability claim is that views bound the *scope and
// hence the cost* of transactions (§2.1). Until now that cost was
// invisible: counters lived in disconnected pockets (EngineStats,
// Runtime::Stats, persist::Stats, SpaceStats) with no latency data, no
// lock-contention signal and no export path. This module provides:
//
//   * Counter           — StripedCounter-backed event counter (relaxed
//                         atomics, per-thread stripes; statistics only).
//   * LatencyHistogram  — 64 fixed log2-scale buckets (bucket i holds
//                         samples with bit_width(ns) == i). No per-sample
//                         allocation, three relaxed atomic RMWs per
//                         record; p50/p90/p99/max derive from the bucket
//                         counts at read time.
//   * MetricsRegistry   — name → instrument map with Prometheus-style
//                         text, JSON and human-summary exporters, plus
//                         gauges (callbacks) that pull the pre-existing
//                         stat pockets into the same export.
//   * RuntimeMetrics    — the named instrument set the runtime wires into
//                         the engine / scheduler / consensus / persist /
//                         view hot paths (see instrument catalog,
//                         IMPLEMENTATION.md §13).
//
// Cost model: instruments are armed through a raw pointer that components
// null-gate ONCE per operation against the SDL_OBS runtime flag (one
// relaxed atomic load); when disabled the per-txn cost is that single
// branch. When enabled, the per-transaction engine spans (~6 steady_clock
// reads + ~6 histogram records ≈ 350ns) would dominate a sub-microsecond
// commit, so those spans are SAMPLED: each worker thread records them on
// 1-in-N transactions (SDL_OBS_SAMPLE, default 64), which keeps measured
// enabled overhead ≤ 5% on the E15/E5 shapes (EXPERIMENTS.md E19).
// Event counters outside the per-txn path (window scan tallies, park/wake,
// consensus, WAL) and all gauges remain exact.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/striped_counter.hpp"

namespace sdl::obs {

/// Global runtime switch. Initialized once from the SDL_OBS environment
/// variable (unset, empty or "0" = disabled); tests and benches flip it
/// with set_enabled(). Components read it once per operation and then
/// carry a nullable instruments pointer, so the disabled path costs one
/// relaxed load + branch.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Span-sampling period for the per-transaction engine instruments: each
/// worker thread records the evaluate/lock/apply/publish spans (and the
/// matching lock acquire/contended counts) on 1-in-N of its transactions.
/// Initialized once from SDL_OBS_SAMPLE (default 64, minimum 1 = record
/// every transaction); tests and benches override with
/// set_span_sample_period(). The log2 histograms are shape-stable under
/// uniform thinning, so sampled quantiles track the true ones; sampled
/// *counts* underestimate totals by ~the period (documented in §13).
[[nodiscard]] std::uint32_t span_sample_period();
void set_span_sample_period(std::uint32_t period);

/// Per-thread sampling decision: true on the first call on each thread,
/// then once every span_sample_period() calls. Deterministic per thread
/// (a countdown, not a PRNG) — cheap and free of modulo bias; periodic
/// aliasing against workload phase is acceptable for latency statistics.
[[nodiscard]] bool sample_span();

/// steady_clock now, as integer nanoseconds (histogram sample unit).
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic event counter; striped to keep hot-path increments off a
/// shared cache line. Statistics only — load() is not linearizable.
class Counter {
 public:
  void add(std::uint64_t n = 1) { cells_.add(n); }
  [[nodiscard]] std::uint64_t load() const { return cells_.load(); }

 private:
  StripedCounter cells_;
};

/// Fixed-bucket log2-scale latency histogram. record(ns) lands the sample
/// in bucket bit_width(ns) (bucket 0 = exactly 0ns, bucket i>=1 spans
/// [2^(i-1), 2^i - 1]); all updates are relaxed atomics and no memory is
/// allocated per sample. Quantiles are derived from the bucket counts and
/// are upper bounds with at most 2x resolution error — plenty to tell a
/// 2µs lock wait from a 2ms one.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t ns) {
    const std::size_t b = static_cast<std::size_t>(std::bit_width(ns));
    buckets_[b < kBuckets ? b : kBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (ns > cur &&
           !max_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }
  /// Convenience: record the elapsed time since a now_ns() timestamp.
  void record_since(std::uint64_t start_ns) {
    const std::uint64_t now = now_ns();
    record(now > start_ns ? now - start_ns : 0);
  }

  /// Point-in-time read of the bucket counts (relaxed; per-bucket counts
  /// are exact once writers quiesce, approximate while they run).
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Upper-bound estimate of the q-quantile in ns (q in (0, 1]).
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Name → instrument registry with exporters. Instrument creation takes a
/// mutex (do it at wiring time, not on hot paths); returned references
/// are stable for the registry's lifetime. Gauges are pull callbacks —
/// they bridge the pre-existing stat pockets (EngineStats, SpaceStats,
/// persist::Stats, scheduler counters) into the same export without
/// double-counting on any hot path.
class MetricsRegistry {
 public:
  using GaugeFn = std::function<std::uint64_t()>;

  /// Returns the named instrument, creating it on first use.
  Counter& counter(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);
  /// Registers (or replaces) a pull gauge.
  void gauge(const std::string& name, GaugeFn fn);

  /// Prometheus text exposition: counters/gauges as single samples,
  /// histograms as cumulative le-buckets (power-of-two upper bounds) plus
  /// _sum/_count. Deterministic order (name-sorted) for golden tests.
  [[nodiscard]] std::string to_prometheus() const;
  /// One JSON object: {"counters":{},"gauges":{},"histograms":{}} with
  /// derived p50/p90/p99/max per histogram. Deterministic order.
  [[nodiscard]] std::string to_json() const;
  /// Human-readable digest (RunReport's metrics section): nonzero
  /// counters/gauges and histograms with count/mean/p50/p90/p99/max.
  [[nodiscard]] std::string summary() const;

 private:
  mutable std::mutex mutex_;  // guards map shape only, not instrument data
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, GaugeFn> gauges_;
};

/// The runtime's named instrument set — raw pointers into a registry so
/// hot paths index instruments without a map lookup or string hash.
/// Components receive this via set_metrics(RuntimeMetrics*) (null =
/// detached, mirroring the fault-injector wiring) and re-gate on
/// obs::enabled() once per operation.
struct RuntimeMetrics {
  explicit RuntimeMetrics(MetricsRegistry& registry);

  MetricsRegistry* registry = nullptr;

  // Engine: txn lifecycle spans (evaluate → lock → apply → publish) and
  // shard-lock acquire wait / hold / contention.
  LatencyHistogram* txn_lock_wait_ns = nullptr;
  LatencyHistogram* txn_evaluate_ns = nullptr;
  LatencyHistogram* txn_apply_ns = nullptr;
  LatencyHistogram* txn_publish_ns = nullptr;
  LatencyHistogram* txn_total_ns = nullptr;
  LatencyHistogram* txn_lock_hold_ns = nullptr;
  Counter* lock_shared_acquired = nullptr;
  Counter* lock_exclusive_acquired = nullptr;
  Counter* lock_shared_contended = nullptr;
  Counter* lock_exclusive_contended = nullptr;

  // Engine: lock-free optimistic read path (ISSUE 6). Counted EXACTLY
  // (not span-sampled): optimistic reads never touch the lock counters
  // above, so these are the only record of the read path's behavior and
  // the ratio retry/(ok+retry) is the conflict rate the bench gates on.
  // ok = attempts whose version validation passed; retry = attempts that
  // failed validation and were retried in place; fallback = transactions
  // that exhausted their optimistic attempts and went to shared locks.
  Counter* read_optimistic_ok = nullptr;
  Counter* read_validation_retry = nullptr;
  Counter* read_lock_fallback = nullptr;

  // Scheduler: park duration per ParkReason, and the latency from a wake
  // (Parked → Ready) to the next dispatch (begin_running).
  LatencyHistogram* park_delayed_txn_ns = nullptr;
  LatencyHistogram* park_selection_ns = nullptr;
  LatencyHistogram* park_consensus_ns = nullptr;
  LatencyHistogram* park_replication_ns = nullptr;
  LatencyHistogram* wake_to_dispatch_ns = nullptr;

  // Consensus: from finding a component fireable through composite
  // commit and member resume, per fired component.
  LatencyHistogram* consensus_claim_fire_ns = nullptr;

  // Durability: committer-side WAL append, flush-batch write+fdatasync
  // (group commit and inline), and the whole snapshot barrier protocol.
  LatencyHistogram* wal_append_ns = nullptr;
  LatencyHistogram* wal_flush_ns = nullptr;
  LatencyHistogram* snapshot_ns = nullptr;

  // View windows: records a window scan visited vs records the window
  // admitted — the direct measurement of the §2.1 cost-bounding claim.
  Counter* window_records_scanned = nullptr;
  Counter* window_records_admitted = nullptr;
};

}  // namespace sdl::obs
