// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Small measurement helpers shared by the end-to-end run and the layer
// ladder: a monotonic clock, order statistics, the benchmark-side span log
// and the metric set printed as the run's result.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// \brief The guest's CPU time in jiffies, summed over its CPUs (first line
/// of /proc/stat): all of it, the part it was busy, and the part the host
/// gave to other guests while this one had work (steal).
struct HostCpu {
  double total = 0.0;
  double busy = 0.0;
  double steal = 0.0;
};

HostCpu ReadHostCpu();

/// steal / (busy + steal) between two readings: the share of this guest's
/// CPU demand the host withheld.
inline double StolenShare(const HostCpu& a, const HostCpu& b) {
  const double demand = (b.busy - a.busy) + (b.steal - a.steal);
  return demand > 0 ? (b.steal - a.steal) / demand : 0.0;
}

/// \brief Indexes of some measurements from the quietest on: by increasing
/// stolen share, ties in their own order.
inline std::vector<size_t> QuietestFirst(const std::vector<double>& stolen_share) {
  std::vector<size_t> order(stolen_share.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&stolen_share](size_t a, size_t b) {
    return stolen_share[a] < stolen_share[b];
  });
  return order;
}

/// 64-bit FNV-1a of `s`, continuing from `h`.
inline uint64_t Fnv1a(const std::string& s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// \brief One benchmark-side span: a timed call into a layer. Spans of one
/// request share `request`; `parent` is the enclosing span (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Add(uint64_t parent, uint64_t request, const std::string& name,
               int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = spans_.size() + 1;
    spans_.push_back({id, parent, request, name, start_ns, end_ns});
    return id;
  }

  /// Reserves an id for a span whose end is recorded later with Close().
  uint64_t Open(uint64_t parent, uint64_t request, const std::string& name) {
    return Add(parent, request, name, NowNs(), 0);
  }

  void Close(uint64_t id) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = NowNs();
  }

  uint64_t NewRequestId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_request_;
  }

  /// Writes one JSON object per line; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_request_ = 0;
};

/// \brief The run's named metrics, printed in insertion-independent order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
  }
  /// `{"name": {"value": v, "unit": u}, ...}` with all digits kept.
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

}  // namespace perfbench
