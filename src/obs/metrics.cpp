#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "core/epoch.hpp"

namespace sdl::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  // Read SDL_OBS exactly once, on first use; set_enabled() overrides.
  static std::atomic<bool> flag{[] {
    const char* v = std::getenv("SDL_OBS");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
  }()};
  return flag;
}

// Upper bound (inclusive) of histogram bucket i: bucket 0 holds exactly
// zero, bucket i>=1 holds bit_width(ns)==i, i.e. ns <= 2^i - 1.
std::uint64_t bucket_upper(std::size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return ~0ull;
  return (1ull << i) - 1;
}

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

namespace {

std::atomic<std::uint32_t>& span_period_flag() {
  // Read SDL_OBS_SAMPLE exactly once, on first use; the setter overrides.
  static std::atomic<std::uint32_t> flag{[]() -> std::uint32_t {
    const char* v = std::getenv("SDL_OBS_SAMPLE");
    if (v == nullptr || v[0] == '\0') return 64;
    const long n = std::strtol(v, nullptr, 10);
    return n >= 1 ? static_cast<std::uint32_t>(n) : 1;
  }()};
  return flag;
}

}  // namespace

std::uint32_t span_sample_period() {
  return span_period_flag().load(std::memory_order_relaxed);
}
void set_span_sample_period(std::uint32_t period) {
  span_period_flag().store(period >= 1 ? period : 1,
                           std::memory_order_relaxed);
}

bool sample_span() {
  const std::uint32_t period = span_sample_period();
  if (period <= 1) return true;
  // Countdown starts at 1 so the first transaction on every thread is
  // always sampled — short-lived workers still contribute spans.
  thread_local std::uint32_t countdown = 1;
  if (--countdown == 0) {
    countdown = period;
    return true;
  }
  return false;
}

double LatencyHistogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets[i];
    if (cum >= target) {
      // The true sample is somewhere in this bucket; report its upper
      // bound, clamped by the observed max so p99 never exceeds it.
      return std::min(static_cast<double>(bucket_upper(i)),
                      static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

void MetricsRegistry::gauge(const std::string& name, GaugeFn fn) {
  std::scoped_lock lock(mutex_);
  gauges_[name] = std::move(fn);
}

std::string MetricsRegistry::to_prometheus() const {
  std::scoped_lock lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << "# TYPE " << name << " counter\n";
    os << name << " " << c->load() << "\n";
  }
  for (const auto& [name, fn] : gauges_) {
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << fn() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const auto s = h->snapshot();
    os << "# TYPE " << name << " histogram\n";
    // Cumulative le-buckets up to the highest populated one, then +Inf.
    std::size_t top = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      if (s.buckets[i] != 0) top = i;
    }
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= top; ++i) {
      cum += s.buckets[i];
      os << name << "_bucket{le=\"" << bucket_upper(i) << "\"} " << cum
         << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << s.count << "\n";
    os << name << "_sum " << s.sum << "\n";
    os << name << "_count " << s.count << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  std::scoped_lock lock(mutex_);
  std::ostringstream os;
  os << "{";
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << c->load();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, fn] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << fn();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const auto s = h->snapshot();
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{"
       << "\"count\":" << s.count << ",\"sum\":" << s.sum
       << ",\"max\":" << s.max << ",\"mean\":" << format_double(s.mean())
       << ",\"p50\":" << format_double(s.quantile(0.50))
       << ",\"p90\":" << format_double(s.quantile(0.90))
       << ",\"p99\":" << format_double(s.quantile(0.99)) << "}";
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::summary() const {
  std::scoped_lock lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::uint64_t v = c->load();
    if (v != 0) os << name << " = " << v << "\n";
  }
  for (const auto& [name, fn] : gauges_) {
    const std::uint64_t v = fn();
    if (v != 0) os << name << " = " << v << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const auto s = h->snapshot();
    if (s.count == 0) continue;
    os << name << ": count=" << s.count
       << " mean=" << format_double(s.mean() / 1e3)
       << "us p50=" << format_double(s.quantile(0.50) / 1e3)
       << "us p90=" << format_double(s.quantile(0.90) / 1e3)
       << "us p99=" << format_double(s.quantile(0.99) / 1e3)
       << "us max=" << format_double(static_cast<double>(s.max) / 1e3)
       << "us\n";
  }
  return os.str();
}

RuntimeMetrics::RuntimeMetrics(MetricsRegistry& reg) : registry(&reg) {
  txn_lock_wait_ns = &reg.histogram("sdl_txn_lock_wait_ns");
  txn_evaluate_ns = &reg.histogram("sdl_txn_evaluate_ns");
  txn_apply_ns = &reg.histogram("sdl_txn_apply_ns");
  txn_publish_ns = &reg.histogram("sdl_txn_publish_ns");
  txn_total_ns = &reg.histogram("sdl_txn_total_ns");
  txn_lock_hold_ns = &reg.histogram("sdl_txn_lock_hold_ns");
  lock_shared_acquired = &reg.counter("sdl_lock_shared_acquired_total");
  lock_exclusive_acquired = &reg.counter("sdl_lock_exclusive_acquired_total");
  lock_shared_contended = &reg.counter("sdl_lock_shared_contended_total");
  lock_exclusive_contended =
      &reg.counter("sdl_lock_exclusive_contended_total");
  read_optimistic_ok = &reg.counter("sdl_read_optimistic_ok_total");
  read_validation_retry = &reg.counter("sdl_read_validation_retry_total");
  read_lock_fallback = &reg.counter("sdl_read_lock_fallback_total");
  // Retired-but-not-yet-freed EBR objects: a growing value means grace
  // periods are not expiring (a thread is parked inside an epoch::Guard —
  // by design Guards never span a block, so sustained growth is a bug).
  reg.gauge("sdl_epoch_backlog", [] { return epoch::backlog(); });
  park_delayed_txn_ns = &reg.histogram("sdl_park_delayed_txn_ns");
  park_selection_ns = &reg.histogram("sdl_park_selection_ns");
  park_consensus_ns = &reg.histogram("sdl_park_consensus_ns");
  park_replication_ns = &reg.histogram("sdl_park_replication_ns");
  wake_to_dispatch_ns = &reg.histogram("sdl_wake_to_dispatch_ns");
  consensus_claim_fire_ns = &reg.histogram("sdl_consensus_claim_fire_ns");
  wal_append_ns = &reg.histogram("sdl_wal_append_ns");
  wal_flush_ns = &reg.histogram("sdl_wal_flush_ns");
  snapshot_ns = &reg.histogram("sdl_snapshot_ns");
  window_records_scanned = &reg.counter("sdl_window_records_scanned_total");
  window_records_admitted = &reg.counter("sdl_window_records_admitted_total");
}

}  // namespace sdl::obs
