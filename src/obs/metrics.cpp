#include "obs/metrics.h"

#include "obs/json.h"

namespace locwm::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void setEnabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    return *it->second;
  }
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    return *it->second;
  }
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return *it->second;
  }
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::histogramSnapshots() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h->snapshot());
  }
  return out;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot(
    bool nonzero_only) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, c] : counters_) {
    const std::uint64_t v = c->value();
    if (nonzero_only && v == 0) {
      continue;
    }
    out.push_back(Sample{name, static_cast<std::int64_t>(v), false});
  }
  for (const auto& [name, g] : gauges_) {
    const std::int64_t v = g->value();
    if (nonzero_only && v == 0) {
      continue;
    }
    out.push_back(Sample{name, v, true});
  }
  return out;
}

std::string MetricsRegistry::snapshotJson() const {
  const std::vector<Sample> samples = snapshot();
  std::string json = "{\n  \"counters\": {";
  bool first = true;
  for (const Sample& s : samples) {
    if (s.is_gauge) {
      continue;
    }
    json += first ? "\n" : ",\n";
    first = false;
    json += "    " + jsonString(s.name) + ": " + std::to_string(s.value);
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"gauges\": {";
  first = true;
  for (const Sample& s : samples) {
    if (!s.is_gauge) {
      continue;
    }
    json += first ? "\n" : ",\n";
    first = false;
    json += "    " + jsonString(s.name) + ": " + std::to_string(s.value);
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"histograms\": {";
  first = true;
  for (const auto& [name, snap] : histogramSnapshots()) {
    json += first ? "\n" : ",\n";
    first = false;
    // Keys inside each histogram object are in sorted order too.
    json += "    " + jsonString(name) + ": {\"count\": " +
            std::to_string(snap.count) +
            ", \"max\": " + std::to_string(snap.max) +
            ", \"p50\": " + std::to_string(snap.p50()) +
            ", \"p90\": " + std::to_string(snap.p90()) +
            ", \"p95\": " + std::to_string(snap.p95()) +
            ", \"p99\": " + std::to_string(snap.p99()) +
            ", \"sum\": " + std::to_string(snap.sum) + "}";
  }
  json += first ? "}\n" : "\n  }\n";
  json += "}\n";
  return json;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) {
    c->reset();
  }
  for (const auto& [name, g] : gauges_) {
    g->reset();
  }
  for (const auto& [name, h] : histograms_) {
    h->reset();
  }
}

}  // namespace locwm::obs
