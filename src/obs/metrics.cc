#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace mm2::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Record(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  ++counts_[bucket];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

std::vector<double> Histogram::DefaultLatencyBoundsUs() {
  std::vector<double> bounds;
  for (double decade = 1; decade <= 1e6; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2);
    bounds.push_back(decade * 5);
  }
  bounds.push_back(1e7);  // 10s; anything slower lands in overflow
  return bounds;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}
double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}
double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}
double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}
std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}
void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.assign(bounds_.size() + 1, 0);
  count_ = 0;
  sum_ = min_ = max_ = 0;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  double rank = p * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= rank && counts[i] > 0) {
      // Interpolate inside [lower, upper) of the winning bucket, clamped to
      // the observed extrema so tiny samples stay truthful.
      double lower = i == 0 ? 0 : bounds[i - 1];
      double upper = i < bounds.size() ? bounds[i] : max;
      double prev = static_cast<double>(seen - counts[i]);
      double frac = (rank - prev) / static_cast<double>(counts[i]);
      double value = lower + frac * (upper - lower);
      return std::clamp(value, min, max);
    }
  }
  return max;
}

const CounterSnapshot* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}
const GaugeSnapshot* MetricsSnapshot::FindGauge(const std::string& name) const {
  for (const GaugeSnapshot& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}
const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::vector<std::string> MetricsSnapshot::Lines() const {
  std::vector<std::string> lines;
  for (const CounterSnapshot& c : counters) {
    lines.push_back("counter " + c.name + " = " + std::to_string(c.value));
  }
  for (const GaugeSnapshot& g : gauges) {
    lines.push_back("gauge " + g.name + " = " + std::to_string(g.value));
  }
  for (const HistogramSnapshot& h : histograms) {
    lines.push_back("histogram " + h.name + " count=" +
                    std::to_string(h.count) + " mean=" +
                    json::FormatDouble(h.mean()) + " p50=" +
                    json::FormatDouble(h.p50()) + " p95=" +
                    json::FormatDouble(h.p95()) + " p99=" +
                    json::FormatDouble(h.p99()) + " max=" +
                    json::FormatDouble(h.max));
  }
  return lines;
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  for (const std::string& line : Lines()) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (const CounterSnapshot& c : counters) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json::Escape(c.name) << "\": " << c.value;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const GaugeSnapshot& g : gauges) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json::Escape(g.name) << "\": " << g.value;
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json::Escape(h.name) << "\": {\"count\": " << h.count
       << ", \"sum\": " << json::FormatDouble(h.sum)
       << ", \"min\": " << json::FormatDouble(h.min)
       << ", \"max\": " << json::FormatDouble(h.max)
       << ", \"mean\": " << json::FormatDouble(h.mean())
       << ", \"p50\": " << json::FormatDouble(h.p50())
       << ", \"p95\": " << json::FormatDouble(h.p95())
       << ", \"p99\": " << json::FormatDouble(h.p99()) << "}";
  }
  os << "}}";
  return os.str();
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = Histogram::DefaultLatencyBoundsUs();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.bounds = hist->bounds();
    h.counts = hist->bucket_counts();
    h.count = hist->count();
    h.sum = hist->sum();
    h.min = hist->min();
    h.max = hist->max();
    snap.histograms.push_back(std::move(h));
  }
  // The registration maps iterate in name order already, but the snapshot's
  // determinism is a documented contract (stats golden tests rely on it) —
  // keep it independent of the container choice.
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace mm2::obs
