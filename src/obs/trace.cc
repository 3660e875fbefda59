#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace eds::obs {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceSink::TraceSink() : origin_ns_(NowNs()) {}

Span::Span(TraceSink* sink, const char* name, const char* category,
           uint64_t* elapsed_ns)
    : sink_(sink), elapsed_ns_(elapsed_ns) {
  if (sink_ == nullptr && elapsed_ns_ == nullptr) return;
  if (sink_ != nullptr) {
    name_ = name;
    category_ = category;
    depth_ = sink_->depth_++;
  }
  start_ns_ = NowNs();
}

Span::Span(TraceSink* sink, std::string name, const char* category)
    : Span(sink, "", category) {
  if (sink_ != nullptr) name_ = std::move(name);
}

void Span::Arg(const char* key, std::string value) {
  if (sink_ == nullptr) return;
  args_.emplace_back(key, std::move(value));
}

void Span::Arg(const char* key, int64_t value) {
  if (sink_ == nullptr) return;
  args_.emplace_back(key, std::to_string(value));
}

void Span::Finish() {
  if (sink_ == nullptr && elapsed_ns_ == nullptr) return;
  const uint64_t dur_ns = NowNs() - start_ns_;
  if (elapsed_ns_ != nullptr) {
    *elapsed_ns_ = dur_ns;
    elapsed_ns_ = nullptr;
  }
  if (sink_ == nullptr) return;
  TraceEvent e;
  e.name = std::move(name_);
  e.category = category_;
  e.start_ns = start_ns_ - sink_->origin_ns_;
  e.dur_ns = dur_ns;
  e.depth = depth_;
  e.args = std::move(args_);
  sink_->events_.push_back(std::move(e));
  --sink_->depth_;
  sink_ = nullptr;
}

void TraceSink::RecordComplete(
    std::string name, const char* category, uint64_t start_ns_abs,
    uint64_t end_ns_abs,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = category;
  e.start_ns = start_ns_abs - origin_ns_;
  e.dur_ns = end_ns_abs - start_ns_abs;
  e.depth = depth_;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// The one Chrome-trace serializer. Every sink is rebased onto the earliest
// origin_ns() so concurrent workers line up on one timeline instead of
// each starting at ts=0; events are emitted by absolute start time, each
// under its sink's tid. Events of each sink before `first_event` are
// skipped.
void WriteTrace(std::ostream& os, const std::vector<SinkWithTid>& sinks,
                size_t first_event) {
  uint64_t min_origin = 0;
  bool have_origin = false;
  for (const SinkWithTid& s : sinks) {
    if (s.sink == nullptr) continue;
    if (!have_origin || s.sink->origin_ns() < min_origin) {
      min_origin = s.sink->origin_ns();
      have_origin = true;
    }
  }
  struct Flat {
    const TraceEvent* event;
    uint64_t abs_start_ns;
    int tid;
  };
  std::vector<Flat> flat;
  for (const SinkWithTid& s : sinks) {
    if (s.sink == nullptr) continue;
    const uint64_t base = s.sink->origin_ns() - min_origin;
    const std::vector<TraceEvent>& events = s.sink->events();
    for (size_t i = first_event; i < events.size(); ++i) {
      flat.push_back({&events[i], base + events[i].start_ns, s.tid});
    }
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const Flat& a, const Flat& b) {
                     return a.abs_start_ns < b.abs_start_ns;
                   });
  // ts/dur are microseconds (doubles) in the trace-event format; emit with
  // three decimals so nanosecond spans stay distinguishable.
  auto us = [](uint64_t ns) {
    std::ostringstream o;
    o << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
      << static_cast<char>('0' + (ns % 100) / 10)
      << static_cast<char>('0' + ns % 10);
    return o.str();
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Flat& f : flat) {
    const TraceEvent& e = *f.event;
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\""
       << JsonEscape(e.category) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << f.tid << ",\"ts\":" << us(f.abs_start_ns)
       << ",\"dur\":" << us(e.dur_ns);
    if (!e.args.empty()) {
      os << ",\"args\":{";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) os << ",";
        os << "\"" << JsonEscape(e.args[i].first) << "\":\""
           << JsonEscape(e.args[i].second) << "\"";
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace

void TraceSink::WriteChromeTrace(std::ostream& os, size_t first_event) const {
  WriteTrace(os, {{this, 1}}, first_event);
}

std::string TraceSink::ToChromeTraceJson(size_t first_event) const {
  std::ostringstream os;
  WriteChromeTrace(os, first_event);
  return os.str();
}

void WriteMergedChromeTrace(std::ostream& os,
                            const std::vector<SinkWithTid>& sinks) {
  WriteTrace(os, sinks, 0);
}

}  // namespace eds::obs
