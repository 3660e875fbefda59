#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/trace.h"

namespace eds::obs {

void MetricsRegistry::Counter(const std::string& name, uint64_t value) {
  values_[name] = static_cast<double>(value);
  is_counter_[name] = true;
}

void MetricsRegistry::Gauge(const std::string& name, double value) {
  values_[name] = value;
  is_counter_[name] = false;
}

void MetricsRegistry::Histogram(const std::string& name,
                                HistogramSnapshot snapshot) {
  histograms_[name] = std::move(snapshot);
}

double MetricsRegistry::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  os << "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : values_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":";
    if (is_counter_.at(name)) {
      os << static_cast<uint64_t>(value);
    } else if (!std::isfinite(value)) {
      os << "null";  // NaN/Inf are not JSON literals
    } else {
      os << value;
    }
  }
  os << "}}\n";
  return os.str();
}

namespace {

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; dotted registry
// names map onto that by replacing every other character with '_'.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

void AppendPrometheusValue(std::ostringstream& os, double value,
                           bool counter) {
  if (counter) {
    os << static_cast<uint64_t>(value);
  } else if (std::isnan(value)) {
    os << "NaN";
  } else if (std::isinf(value)) {
    os << (value > 0 ? "+Inf" : "-Inf");
  } else {
    os << value;
  }
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::ostringstream os;
  for (const auto& [name, value] : values_) {
    const bool counter = is_counter_.at(name);
    const std::string prom = PrometheusName(name);
    os << "# TYPE " << prom << (counter ? " counter" : " gauge") << "\n"
       << prom << " ";
    AppendPrometheusValue(os, value, counter);
    os << "\n";
  }
  for (const auto& [name, snap] : histograms_) {
    const std::string prom = PrometheusName(name);
    os << "# TYPE " << prom << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      if (snap.counts[i] == 0) continue;
      cumulative += snap.counts[i];
      // Qualified: inside MetricsRegistry the member Histogram() hides
      // the class name.
      os << prom << "_bucket{le=\"" << ::eds::obs::Histogram::BucketUpperBound(i)
         << "\"} " << cumulative << "\n";
    }
    os << prom << "_bucket{le=\"+Inf\"} " << snap.count << "\n"
       << prom << "_sum " << snap.sum << "\n"
       << prom << "_count " << snap.count << "\n";
  }
  return os.str();
}

void ExportHistogramQuantiles(const std::string& prefix,
                              const HistogramSnapshot& snapshot,
                              MetricsRegistry* registry) {
  registry->Gauge(prefix + ".p50",
                  static_cast<double>(snapshot.ValueAtQuantile(0.50)));
  registry->Gauge(prefix + ".p90",
                  static_cast<double>(snapshot.ValueAtQuantile(0.90)));
  registry->Gauge(prefix + ".p99",
                  static_cast<double>(snapshot.ValueAtQuantile(0.99)));
  registry->Gauge(prefix + ".max", static_cast<double>(snapshot.max));
  registry->Gauge(prefix + ".mean", snapshot.mean());
  registry->Counter(prefix + ".count", snapshot.count);
  registry->Histogram(prefix, snapshot);
}

std::string MetricsRegistry::ToText() const {
  size_t width = 0;
  for (const auto& [name, value] : values_) {
    width = std::max(width, name.size());
  }
  std::ostringstream os;
  for (const auto& [name, value] : values_) {
    os << name << std::string(width - name.size() + 2, ' ');
    if (is_counter_.at(name)) {
      os << static_cast<uint64_t>(value);
    } else {
      os << value;
    }
    os << "\n";
  }
  return os.str();
}

void ExportEngineStats(const rewrite::EngineStats& stats,
                       MetricsRegistry* registry) {
  registry->Counter("rewrite.applications", stats.applications);
  registry->Counter("rewrite.condition_checks", stats.condition_checks);
  registry->Counter("rewrite.passes", stats.passes);
  registry->Counter("rewrite.cycle_stops", stats.cycle_stops);
  registry->Counter("rewrite.match_attempts", stats.match_attempts);
  registry->Counter("rewrite.quick_rejects", stats.quick_rejects);
  registry->Counter("rewrite.normal_form_hits", stats.normal_form_hits);
  registry->Counter("rewrite.expr_type_hits", stats.expr_type_hits);
  registry->Counter("rewrite.expr_type_misses", stats.expr_type_misses);
  registry->Counter("rewrite.safety_stop", stats.safety_stop ? 1 : 0);
  registry->Counter("rewrite.tripped", stats.trip.tripped() ? 1 : 0);
  for (const auto& [rule, count] : stats.applications_by_rule) {
    registry->Counter("rewrite.rule." + rule + ".applications", count);
  }
  for (const auto& [rule, prof] : stats.rule_profiles) {
    registry->Counter("rewrite.rule." + rule + ".ns", prof.ns);
    registry->Counter("rewrite.rule." + rule + ".match_attempts",
                      prof.match_attempts);
    registry->Counter("rewrite.rule." + rule + ".quick_rejects",
                      prof.quick_rejects);
    registry->Gauge("rewrite.rule." + rule + ".nodes_delta",
                    static_cast<double>(prof.nodes_delta));
  }
}

void ExportExecStats(const exec::ExecStats& stats, MetricsRegistry* registry) {
  registry->Counter("exec.rows_scanned", stats.rows_scanned);
  registry->Counter("exec.qual_evaluations", stats.qual_evaluations);
  registry->Counter("exec.rows_output", stats.rows_output);
  registry->Counter("exec.fix_iterations", stats.fix_iterations);
  registry->Counter("exec.fix_tuples", stats.fix_tuples);
  registry->Counter("exec.batches", stats.batches);
  registry->Counter("exec.vec_rows", stats.vec_rows);
  registry->Counter("exec.vec_fallbacks", stats.vec_fallbacks);
  registry->Counter("exec.value_copies", stats.value_copies);
}

void ExportInternerStats(const term::Interner::Stats& stats,
                         MetricsRegistry* registry) {
  registry->Counter("interner.hits", stats.hits);
  registry->Counter("interner.misses", stats.misses);
  registry->Gauge("interner.entries", static_cast<double>(stats.entries));
}

void ExportGovStats(const gov::TripCounters& counters,
                    MetricsRegistry* registry) {
  registry->Counter("gov.deadline_trips", counters.deadline_trips);
  registry->Counter("gov.node_ceiling_trips", counters.node_ceiling_trips);
  registry->Counter("gov.row_ceiling_trips", counters.row_ceiling_trips);
  registry->Counter("gov.cancel_trips", counters.cancel_trips);
}

std::vector<std::pair<std::string, rewrite::RuleProfile>> RankRuleProfiles(
    const rewrite::EngineStats& stats) {
  std::vector<std::pair<std::string, rewrite::RuleProfile>> ranked(
      stats.rule_profiles.begin(), stats.rule_profiles.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second.ns != b.second.ns) {
                       return a.second.ns > b.second.ns;
                     }
                     return a.first < b.first;
                   });
  return ranked;
}

std::string FormatRuleProfiles(const rewrite::EngineStats& stats,
                               size_t limit) {
  auto ranked = RankRuleProfiles(stats);
  if (ranked.size() > limit) ranked.resize(limit);
  size_t name_width = 4;
  for (const auto& [name, prof] : ranked) {
    name_width = std::max(name_width, name.size());
  }
  std::ostringstream os;
  auto pad = [&os](const std::string& s, size_t w) {
    os << s;
    if (s.size() < w) os << std::string(w - s.size(), ' ');
  };
  pad("rule", name_width + 2);
  os << "self_us   apps  attempts  rejects  nodes_delta\n";
  for (const auto& [name, prof] : ranked) {
    pad(name, name_width + 2);
    std::ostringstream us;
    us << prof.ns / 1000 << '.' << (prof.ns % 1000) / 100;
    pad(us.str(), 10);
    pad(std::to_string(prof.applications), 6);
    pad(std::to_string(prof.match_attempts), 10);
    pad(std::to_string(prof.quick_rejects), 9);
    os << prof.nodes_delta << "\n";
  }
  if (stats.rule_profiles.empty()) {
    os << "(no profile data: rewrite ran without profile_rules)\n";
  }
  return os.str();
}

}  // namespace eds::obs
