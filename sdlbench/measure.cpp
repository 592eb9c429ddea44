#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "query/compile.hpp"

namespace sdlbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : std::min(rank, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Samples::append(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  sorted_ = false;
}

double Samples::quantile_us(double q) const {
  if (ns_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(ns_.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, ns_.size()) - 1;
  return static_cast<double>(ns_[idx]) / 1000.0;
}

void SpanLog::add(const std::vector<Span>& batch) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t room = kRetain - std::min(kRetain, spans_.size());
  const std::size_t take = std::min(room, batch.size());
  spans_.insert(spans_.end(), batch.begin(), batch.begin() + take);
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"parent\":\"" << s.parent << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

void TrafficStats::append(const TrafficStats& o) {
  read_latency.append(o.read_latency);
  write_latency.append(o.write_latency);
  read_service.append(o.read_service);
  write_service.append(o.write_service);
  lateness.append(o.lateness);
  attempted += o.attempted;
  failed += o.failed;
  within_slo += o.within_slo;
}

TrafficStats run_open_loop(double rate, std::uint64_t count, const RequestFn& request,
                           SpanLog& spans, std::uint64_t request_base) {
  // Sleep until this far before the due time, then spin: a sleep alone
  // oversleeps by tens of µs, as much as a point read costs.
  constexpr std::int64_t kSpinNs = 80'000;
  TrafficStats st;
  std::vector<Span> local;
  const std::int64_t start = now_ns() + 1'000'000;
  const double interval_ns = 1e9 / rate;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    std::int64_t t = now_ns();
    if (due - t > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - t - kSpinNs));
    }
    while ((t = now_ns()) < due) {
    }
    const Outcome out = request(i);
    const std::int64_t done = now_ns();
    ++st.attempted;
    st.lateness.add(t - due);
    const std::int64_t latency = done - due;
    if (!out.ok) {
      ++st.failed;
    } else if (latency <= kSloNs) {
      ++st.within_slo;
    }
    (out.write ? st.write_latency : st.read_latency).add(latency);
    (out.write ? st.write_service : st.read_service).add(done - t);
    if (spans.enabled()) {
      const std::uint64_t id = request_base + i;
      local.push_back({id, "request", "", due, done});
      local.push_back({id, out.write ? "execute.write" : "execute.read", "request", t,
                       done});
    }
  }
  spans.add(local);
  return st;
}

void LayerSnapshot::merge(const LayerSnapshot& o) {
  for (const auto& [name, s] : o.hist) {
    auto& d = hist[name];
    d.count += s.count;
    d.sum += s.sum;
    d.max = std::max(d.max, s.max);
    for (std::size_t i = 0; i < s.buckets.size(); ++i) d.buckets[i] += s.buckets[i];
  }
  for (const auto& [name, v] : o.count) count[name] += v;
}

double LayerSnapshot::c(const std::string& k) const {
  const auto it = count.find(k);
  return it == count.end() ? 0.0 : it->second;
}

double LayerSnapshot::q(const std::string& h, double quantile) const {
  const auto it = hist.find(h);
  return it == hist.end() ? 0.0 : it->second.quantile(quantile);
}

double LayerSnapshot::mean(const std::string& h) const {
  const auto it = hist.find(h);
  return it == hist.end() ? 0.0 : it->second.mean();
}

std::uint64_t LayerSnapshot::count_of(const std::string& h) const {
  const auto it = hist.find(h);
  return it == hist.end() ? 0 : it->second.count;
}

LayerSnapshot LayerSnapshot::since(const LayerSnapshot& before) const {
  LayerSnapshot d = *this;
  for (const auto& [name, s] : before.hist) {
    auto& h = d.hist[name];
    h.count -= std::min(h.count, s.count);
    h.sum -= std::min(h.sum, s.sum);
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      h.buckets[i] -= std::min(h.buckets[i], s.buckets[i]);
    }
  }
  for (const auto& [name, v] : before.count) d.count[name] -= v;
  return d;
}

LayerSnapshot capture_layers(sdl::Runtime& rt) {
  LayerSnapshot s;
  sdl::obs::MetricsRegistry& reg = rt.metrics();
  for (const char* h :
       {"sdl_txn_evaluate_ns", "sdl_txn_lock_wait_ns", "sdl_txn_lock_hold_ns",
        "sdl_park_replication_ns", "sdl_park_consensus_ns",
        "sdl_wake_to_dispatch_ns", "sdl_consensus_claim_fire_ns",
        "sdl_wal_append_ns", "sdl_wal_flush_ns"}) {
    s.hist[h] = reg.histogram(h).snapshot();
  }
  for (const char* k :
       {"sdl_lock_exclusive_acquired_total", "sdl_lock_exclusive_contended_total",
        "sdl_read_optimistic_ok_total", "sdl_read_validation_retry_total",
        "sdl_read_lock_fallback_total"}) {
    s.count[k] = static_cast<double>(reg.counter(k).load());
  }
  const sdl::Runtime::Stats st = rt.stats();
  s.count["commits"] = static_cast<double>(st.txn_commits);
  s.count["attempts"] = static_cast<double>(st.txn_attempts);
  s.count["wakes"] = static_cast<double>(st.wakes_delivered);
  s.count["spawned"] = static_cast<double>(st.processes_spawned);
  s.count["sweeps"] = static_cast<double>(st.consensus_sweeps);
  s.count["fires"] = static_cast<double>(st.consensus_fires);
  s.count["records_scanned"] =
      static_cast<double>(rt.space().stats().records_scanned);
  // Process-global: deltas are exact while one runtime runs at a time.
  const sdl::PlanCacheStats& plan = sdl::plan_cache_stats();
  s.count["plan_hits"] = static_cast<double>(plan.hits.load());
  s.count["plan_misses"] = static_cast<double>(plan.misses.load());
  s.count["plan_bailouts"] = static_cast<double>(plan.bailouts.load());
  if (sdl::persist::PersistManager* p = rt.persist()) {
    const auto ps = p->stats();
    s.count["wal_commits"] = static_cast<double>(ps.logged_commits);
    s.count["wal_syncs"] = static_cast<double>(ps.syncs);
  }
  if (sdl::repl::ReplLeader* l = rt.repl_leader()) {
    const auto ls = l->stats();
    s.count["repl_batches"] = static_cast<double>(ls.batches_sent);
    s.count["repl_bytes"] = static_cast<double>(ls.bytes_sent);
    s.count["repl_backpressure"] = static_cast<double>(ls.backpressure_hits);
  }
  return s;
}

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(items_[i].first) + ": {\"value\": " +
           json_number(items_[i].second.first) +
           ", \"unit\": " + json_string(items_[i].second.second) + "}";
  }
  return out + "}";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace sdlbench
