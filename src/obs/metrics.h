// Process-local named counters and gauges.
//
// Counters record monotonically increasing event totals (nodes visited,
// backtracks, bytes drawn); gauges record levels (ready-queue peak).  All
// values are *algorithmic* — they count work the passes do, not time — so
// under a fixed author signature and seed they are bit-identical across
// runs, and tests can assert exact counts.
//
// The registry is the library's only global beyond the trace buffer: a
// lazily constructed singleton.  Registration takes a lock; updates are
// relaxed atomics.  Call sites go through the LOCWM_OBS_* macros in
// obs/obs.h, which cache the registered handle in a function-local static
// so steady-state cost is one predictable branch plus one atomic add.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace locwm::obs {

/// Version stamp of every machine-readable snapshot this library emits
/// (--stats JSON, bench --json rows, ndjson events).  Bump when a field
/// is renamed or its meaning changes; additions do not require a bump.
inline constexpr int kStatsSchemaVersion = 2;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when observability is switched on at runtime.  One relaxed atomic
/// load; every macro checks this before touching the registry or clock.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the runtime gate.  Off by default: a process that never calls
/// setEnabled(true) records nothing and allocates nothing.
void setEnabled(bool on) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written / high-water level.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if it is higher (high-water mark).
  void raiseTo(std::int64_t v) noexcept {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Name -> counter/gauge/histogram table.  Handles returned by
/// counter()/gauge()/histogram() stay valid for the life of the process
/// (values are never erased, only reset), so call sites may cache them.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  struct Sample {
    std::string name;
    std::int64_t value = 0;
    bool is_gauge = false;
  };

  /// All registered counters and gauges, sorted by name.  `nonzero_only`
  /// drops zero-valued entries so two runs compare equal regardless of
  /// which other call sites happened to register in between.
  [[nodiscard]] std::vector<Sample> snapshot(bool nonzero_only = false) const;

  /// Merged snapshots of every registered histogram, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, HistogramSnapshot>>
  histogramSnapshots() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with
  /// names sorted at every level.  writeStatsJson() in trace.h writes it,
  /// with the pass timings, for --stats.
  [[nodiscard]] std::string snapshotJson() const;

  /// Zeroes every value.  Names stay registered; handles stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace locwm::obs
