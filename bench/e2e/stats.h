#ifndef EDS_BENCH_E2E_STATS_H_
#define EDS_BENCH_E2E_STATS_H_

#include <map>
#include <string>
#include <vector>

namespace e2e {

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// One scrape of the server's STATS message (Prometheus text exposition).
struct PromScrape {
  std::map<std::string, double> values;  // counters and gauges
  // Histogram buckets: name -> [(upper bound, cumulative count)], ascending.
  // Only non-empty buckets are exposed.
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;

  double Get(const std::string& name) const;
};

PromScrape ParsePrometheus(const std::string& text);

// Counter growth between two scrapes.
double Delta(const PromScrape& before, const PromScrape& after,
             const std::string& name);

// Quantile q of the values a histogram recorded between two scrapes, to
// bucket resolution (the bucket's upper bound). 0 when nothing was recorded.
double DeltaQuantile(const PromScrape& before, const PromScrape& after,
                     const std::string& histogram, double q);

}  // namespace e2e

#endif  // EDS_BENCH_E2E_STATS_H_
