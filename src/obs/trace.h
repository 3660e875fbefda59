#ifndef EDS_OBS_TRACE_H_
#define EDS_OBS_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace eds::obs {

// Hierarchical timed spans for the query pipeline. One TraceSink collects
// the spans of a session (or a single query); Span is the RAII handle that
// instrumentation sites open around a phase, a rewrite pass/block, a fired
// rule, an executor operator, or a fixpoint round.
//
// The contract that keeps this near-free when tracing is off: a span with
// no sink and no elapsed-time pointer costs exactly one branch — no clock
// read, no allocation, no string construction (with only the pointer, it
// reads the clock twice and records nothing). Sites that need a dynamic
// span name (rule names, relation names) must guard the name construction
// behind a null-sink branch.
//
// Serialization targets the Chrome trace-event format ("traceEvents" with
// ph:"X" complete events, microsecond timestamps), which Perfetto and
// chrome://tracing load directly; see docs/observability.md.

// Monotonic nanoseconds (steady clock). Wall-clock time never appears in
// traces: spans must nest and subtract correctly even across NTP steps.
uint64_t NowNs();

// One completed span. `depth` is the sink's nesting depth at the time the
// span opened (root spans are depth 0); tests use it to check
// well-formedness, and the JSON writer does not need it (containment is
// implied by ts/dur on a single thread).
struct TraceEvent {
  std::string name;
  const char* category = "";  // static string: "phase", "rewrite", "rule", ...
  uint64_t start_ns = 0;      // relative to the sink's origin
  uint64_t dur_ns = 0;
  int depth = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // Completed spans in order of *completion* (children precede parents).
  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  int depth() const { return depth_; }
  void Clear() { events_.clear(); }

  // Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"},
  // events by start time under tid 1, skipping events() before
  // `first_event`. Loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
  void WriteChromeTrace(std::ostream& os, size_t first_event = 0) const;
  std::string ToChromeTraceJson(size_t first_event = 0) const;

  // Steady-clock NowNs() at construction; event timestamps are relative to
  // this. Exposed so WriteMergedChromeTrace can rebase sinks created at
  // different times onto one timeline.
  uint64_t origin_ns() const { return origin_ns_; }

  // Records a pre-timed *leaf* event from absolute NowNs() readings. For
  // sites that already read the clock for aggregation (per-rule profiling)
  // and want the same interval in the trace without a second pair of reads.
  void RecordComplete(std::string name, const char* category,
                      uint64_t start_ns_abs, uint64_t end_ns_abs,
                      std::vector<std::pair<std::string, std::string>> args);

 private:
  friend class Span;
  std::vector<TraceEvent> events_;
  int depth_ = 0;
  uint64_t origin_ns_ = 0;  // NowNs() at construction; ts are relative
};

// RAII span: opens on construction, records a TraceEvent into the sink on
// Finish() / destruction. A null sink makes every member function a no-op
// after a single branch, unless an elapsed-time pointer is given. Spans
// must be closed in LIFO order per sink (the natural shape of scoped
// instrumentation); the depth bookkeeping assumes it.
class Span {
 public:
  // `name`/`category` must outlive the span (string literals in practice).
  // A non-null `elapsed_ns` receives the span's duration at Finish(), with
  // or without a sink (with one, it equals the event's dur_ns).
  Span(TraceSink* sink, const char* name, const char* category,
       uint64_t* elapsed_ns = nullptr);
  // Dynamic span name. Only call through a `if (sink != nullptr)` guard, or
  // the name string gets built even when tracing is off.
  Span(TraceSink* sink, std::string name, const char* category);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Finish(); }

  // Attaches a key/value pair rendered into the event's "args" object.
  void Arg(const char* key, std::string value);
  void Arg(const char* key, int64_t value);
  void Arg(const char* key, uint64_t value) {
    Arg(key, static_cast<int64_t>(value));
  }

  // Records the event now; later calls (and the destructor) do nothing.
  void Finish();

 private:
  TraceSink* sink_;  // null when tracing is off
  uint64_t* elapsed_ns_ = nullptr;  // Finish() stores the duration here
  std::string name_;
  const char* category_ = "";
  uint64_t start_ns_ = 0;
  int depth_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

// Escapes a string for embedding in a JSON string literal (quotes,
// backslashes, control characters). Shared by the trace and metrics
// writers.
std::string JsonEscape(const std::string& s);

// One sink plus the Chrome-trace thread id to emit its events under.
// WriteChromeTrace is the merged writer over one sink with tid 1; the
// serving layer gives each worker its own lane in the Perfetto timeline.
struct SinkWithTid {
  const TraceSink* sink = nullptr;
  int tid = 1;
};

// Merges several sinks into one Chrome trace: every event is rebased from
// its sink-relative timestamp onto the earliest origin_ns() across the
// sinks, sorted by absolute start time, and emitted with its sink's tid.
// Null sinks are skipped; an empty list yields a valid empty trace.
void WriteMergedChromeTrace(std::ostream& os,
                            const std::vector<SinkWithTid>& sinks);

}  // namespace eds::obs

#endif  // EDS_OBS_TRACE_H_
