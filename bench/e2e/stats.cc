#include "stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PromScrape::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

PromScrape ParsePrometheus(const std::string& text) {
  PromScrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const size_t brace = key.find("_bucket{le=\"");
    if (brace == std::string::npos) {
      out.values[key] = value;
      continue;
    }
    const std::string bound = key.substr(brace + 12, key.size() - brace - 14);
    if (bound == "+Inf") continue;  // equals <name>_count
    out.buckets[key.substr(0, brace)].emplace_back(
        std::strtod(bound.c_str(), nullptr), value);
  }
  for (auto& [name, series] : out.buckets) {
    std::sort(series.begin(), series.end());
  }
  return out;
}

double Delta(const PromScrape& before, const PromScrape& after,
             const std::string& name) {
  return after.Get(name) - before.Get(name);
}

namespace {

// Cumulative count at upper bound `le`: the last exposed bucket at or below
// it (buckets are exposed only where they gained counts).
double CumulativeAt(const std::vector<std::pair<double, double>>& series,
                    double le) {
  double cum = 0.0;
  for (const auto& [bound, count] : series) {
    if (bound > le) break;
    cum = count;
  }
  return cum;
}

}  // namespace

double DeltaQuantile(const PromScrape& before, const PromScrape& after,
                     const std::string& histogram, double q) {
  auto a = after.buckets.find(histogram);
  if (a == after.buckets.end()) return 0.0;
  static const std::vector<std::pair<double, double>> kEmpty;
  auto b = before.buckets.find(histogram);
  const auto& prior = b == before.buckets.end() ? kEmpty : b->second;
  const double total =
      (a->second.empty() ? 0.0 : a->second.back().second) -
      (prior.empty() ? 0.0 : prior.back().second);
  if (total <= 0.0) return 0.0;
  const double target = std::max(1.0, std::ceil(q * total));
  for (const auto& [bound, count] : a->second) {
    if (count - CumulativeAt(prior, bound) >= target) return bound;
  }
  return a->second.back().first;
}

}  // namespace e2e
