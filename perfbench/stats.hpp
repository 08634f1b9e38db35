#pragma once
// Sample statistics and the result line of the benchmark.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (the estimator numpy uses by default),
/// q in [0, 1]. An empty sample has no quantile: returns NaN, which the
/// result line refuses to print.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Named metrics in insertion order, rendered as the benchmark's last line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": v, "unit": u}}}. Values keep all 17 significant digits.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Names of metrics whose value is NaN or infinite (not valid JSON).
  [[nodiscard]] std::vector<std::string> non_finite() const {
    std::vector<std::string> bad;
    for (const Entry& e : entries_) {
      if (!std::isfinite(e.value)) bad.push_back(e.name);
    }
    return bad;
  }

  [[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(e.value) ? e.value : 0.0);
      if (i != 0) out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
