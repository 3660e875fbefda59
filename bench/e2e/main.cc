// bench_e2e: the end-to-end scoreboard. One load-generating process drives a
// separately launched server (this binary in --serve mode) over TCP with
// one of four workloads, checks sampled answers against an unrewritten
// reference, restarts servers cold and warm, and prints every metric by
// name with its unit. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the JSON holds the end-to-end metrics; with --trace 1 it
// holds the per-layer ones, which add an in-process replay of the same
// requests (replay.h) to what every run measures. README.md explains the
// workloads, the metrics and how to run it.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "database.h"
#include "net/client.h"
#include "obs/trace.h"
#include "replay.h"
#include "server_process.h"
#include "stats.h"
#include "workload.h"

namespace e2e {
namespace {

using eds::net::Client;
using eds::net::ResultMsg;
using eds::obs::NowNs;

// Warm-up before the measured window: long enough for the L0 and template
// caches to reach steady state on the cache-friendly workloads.
constexpr double kWarmupSeconds = 2.0;
// Requests timed after each warm restart.
constexpr size_t kRestartRequests = 256;
// Cold launches per restart cycle. The launches of a cycle do the same
// work, about 10 ms of it, mostly building the database; what differs
// between them is how often other tenants of the host preempted them. The
// fastest of the cycle is its set-up time, and setup_s is the median over
// the cycles.
constexpr int kColdLaunches = 3;
// Answer-check sampling: the first response of each template, then 1 in 64.
constexpr uint64_t kCheckEvery = 64;
// scan_write_mix writer: 60 EXEC/s, a CREATE VIEW every 2 s.
constexpr double kWritesPerSecond = 60.0;
constexpr int kDdlEverySlots = 120;
// The replay must agree with the server's cache-tier shares this closely.
constexpr double kTierTolerance = 0.02;

struct Args {
  bool serve = false;
  uint64_t seed = 1;
  std::string workload;  // empty: all four
  int seconds = 15;
  bool trace = false;
  // Window slices, each followed by kColdLaunches cold launches and one
  // warm restart.
  int restarts = 10;
  std::string out;
  std::string tmpdir = "bench_e2e.tmp";
  std::string trace_dir = "bench_e2e.traces";
  std::string persist;  // --serve only
  long parent = 0;      // --serve only
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "bench_e2e: " << error << "\n"
            << "usage: bench_e2e --seed N [--workload NAME] [--seconds S]\n"
            << "                 [--trace 0|1] [--restarts N] [--out FILE]\n"
            << "                 [--tmpdir DIR] [--trace-dir DIR]\n"
            << "workloads: point_hot literal_sweep rewrite_cold "
               "scan_write_mix\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--serve") {
      a.serve = true;
      continue;
    }
    if (key.rfind("--", 0) != 0) Usage("unexpected argument " + key);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + key);
    }
    try {
      if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--workload") a.workload = value;
      else if (key == "--seconds") a.seconds = std::stoi(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--restarts") a.restarts = std::stoi(value);
      else if (key == "--out") a.out = value;
      else if (key == "--tmpdir") a.tmpdir = value;
      else if (key == "--trace-dir") a.trace_dir = value;
      else if (key == "--persist") a.persist = value;
      else if (key == "--parent") a.parent = std::stol(value);
      else Usage("unknown option " + key);
    } catch (const std::logic_error&) {
      Usage("bad value for " + key + ": " + value);
    }
  }
  if (a.seconds < 1) Usage("--seconds must be at least 1");
  if (a.restarts < 1) Usage("--restarts must be at least 1");
  if (!a.workload.empty() && !ParseWorkload(a.workload)) {
    Usage("unknown workload " + a.workload);
  }
  return a;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

std::unique_ptr<Client> Connect(uint16_t port) {
  Client::Options options;
  options.port = port;
  options.client_name = "bench_e2e";
  eds::Result<std::unique_ptr<Client>> client = Client::Connect(options);
  Check(client.status(), "connect");
  return std::move(client).value();
}

PromScrape Scrape(Client* client) {
  eds::Result<std::string> text = client->Stats();
  Check(text.status(), "STATS");
  return ParsePrometheus(*text);
}

void SleepUntil(uint64_t ns) {
  const uint64_t now = NowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

// The scoreboard's metrics (BENCHMARK.json "end_to_end"): the JSON result of
// --trace 0 holds these, and that of --trace 1 the per-layer ones. The
// user-visible timings (latency, throughput, restarts) count as per-layer
// metrics because on a shared host their runs spread wider than any usable
// regression bound (README.md, "Run-to-run spread").
constexpr std::string_view kEndToEnd[] = {"setup_s", "peak_rss_mb"};
// Measured on scan_write_mix only, so they are printed but kept out of the
// JSON result, which holds the same metrics for every workload.
constexpr std::string_view kWriterOnly[] = {
    "write_p50_us", "write_p99_us", "write_lateness_us", "srv.ddl_ms"};

bool Contains(const auto& names, const std::string& name) {
  return std::find(std::begin(names), std::end(names), name) !=
         std::end(names);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // observations behind the value

  bool end_to_end() const { return Contains(kEndToEnd, name); }
  bool in_json(bool trace) const {
    return end_to_end() != trace && !Contains(kWriterOnly, name);
  }
};

// What one workload run reports.
struct Outcome {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // not-OK responses, transport errors, wrong answers
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // informational lines, not metrics

  void Add(std::string name, double value, std::string unit,
           size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAILED: " + why);
  }
};

// A response kept for the answer check: its global request id, the request
// and its rows in bag form.
struct Sample {
  uint64_t id = 0;
  Request request;
  std::vector<std::string> rows;
};

// One closed-loop reader client: its connection, its request stream and its
// tallies, all kept across the window's slices.
struct Reader {
  Reader(Workload workload, uint64_t seed, int index, const Graph& graph,
         std::unique_ptr<Client> connection)
      : index(index),
        stream(workload, seed, index, graph),
        client(std::move(connection)) {}

  // Sends requests back to back until `end`. Returns the OK responses.
  uint64_t RunUntil(uint64_t end, bool measured);

  int index;
  Stream stream;
  std::unique_ptr<Client> client;
  uint64_t sent = 0;    // requests taken from the stream so far
  std::set<int> seen;   // templates whose first response was sampled
  bool broken = false;  // the connection failed
  std::vector<Tier> tiers;         // each request's answering tier, in order
  std::vector<double> latency_us;  // measured requests
  uint64_t attempted = 0;          // whole run
  uint64_t failed = 0;
  uint64_t window_attempted = 0;
  uint64_t window_failed = 0;
  std::vector<Sample> samples;
  std::string first_error;
};

uint64_t Reader::RunUntil(uint64_t end, bool measured) {
  uint64_t ok = 0;
  while (!broken && NowNs() < end) {
    // Global request id k * kReaders + index: the replay and the restarts
    // regenerate the same sequence from it.
    const uint64_t k = sent++;
    const Request request = stream.Next();
    const uint64_t t0 = NowNs();
    eds::Result<ResultMsg> result = client->Query(request.text);
    const uint64_t t1 = NowNs();
    ++attempted;
    if (measured) ++window_attempted;
    tiers.push_back(result.ok() ? TierOf(*result) : Tier::kFailed);
    if (!result.ok() || !result->ok) {
      ++failed;
      if (measured) ++window_failed;
      if (first_error.empty()) {
        first_error = result.ok() ? result->error : result.status().ToString();
      }
      broken = !result.ok();
      continue;
    }
    ++ok;
    if (measured) latency_us.push_back(Us(t1 - t0));
    if (seen.insert(request.tmpl).second || k % kCheckEvery == 0) {
      samples.push_back({k * kReaders + static_cast<uint64_t>(index), request,
                         SortedRows(result->rows)});
    }
  }
  return ok;
}

// The scan_write_mix writer: single-film INSERTs on a fixed schedule, and a
// CREATE VIEW after every kDdlEverySlots of them. Each INSERT is timed from
// the moment it was due.
struct Writer {
  explicit Writer(Client* connection) : client(connection) {}

  void RunUntil(uint64_t from, uint64_t end, bool measured);
  void Exec(const std::string& script);

  Client* client;
  int slot = 0;  // INSERTs sent so far
  int views = 0;
  std::vector<double> write_us;     // INSERT latency from its scheduled time
  std::vector<double> lateness_us;  // send time - scheduled time
  std::vector<double> ddl_ms;       // CREATE VIEW latency from its send
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

void Writer::Exec(const std::string& script) {
  ++attempted;
  eds::Result<ResultMsg> r = client->Exec(script);
  if (!r.ok() || !r->ok) {
    ++failed;
    if (first_error.empty()) {
      first_error = r.ok() ? r->error : r.status().ToString();
    }
  }
}

void Writer::RunUntil(uint64_t from, uint64_t end, bool measured) {
  for (int i = 0;; ++i) {
    const uint64_t due =
        from + static_cast<uint64_t>(i * 1e9 / kWritesPerSecond);
    if (due >= end) return;
    SleepUntil(due);
    const uint64_t sent = NowNs();
    Exec(InsertStatement(slot++));
    const uint64_t done = NowNs();
    if (measured) {
      write_us.push_back(Us(done - due));
      lateness_us.push_back(Us(sent - due));
    }
    if (slot % kDdlEverySlots == 0) {
      const uint64_t d0 = NowNs();
      Exec(CreateViewStatement(views++));
      if (measured) ddl_ms.push_back(Ms(NowNs() - d0));
    }
  }
}

// Runs every reader, and the writer if there is one, for `seconds`.
// Returns the OK responses per second.
double RunPhase(std::vector<Reader>* readers, Writer* writer, double seconds,
                bool measured) {
  const uint64_t from = NowNs();
  const uint64_t end = from + static_cast<uint64_t>(seconds * 1e9);
  std::vector<uint64_t> ok(readers->size(), 0);
  {
    // jthread: an exception in the writer still joins the readers, which
    // stop by themselves at `end`.
    std::vector<std::jthread> threads;
    for (size_t i = 0; i < readers->size(); ++i) {
      threads.emplace_back(
          [readers, &ok, i, end, measured] {
            ok[i] = (*readers)[i].RunUntil(end, measured);
          });
    }
    if (writer != nullptr) writer->RunUntil(from, end, measured);
  }
  uint64_t total = 0;
  for (uint64_t n : ok) total += n;
  return static_cast<double>(total) / (static_cast<double>(NowNs() - from) /
                                       1e9);
}

// The server's cache-tier counters over the measured window.
struct TierStats {
  double l0_hits = 0;
  double l0_lookups = 0;  // every query the server served
  double tmpl_hits = 0;
  double tmpl_lookups = 0;
  double evictions = 0;
  double invalidations = 0;

  TierStats(const PromScrape& before, const PromScrape& after)
      : l0_hits(Delta(before, after, "srv_l0_hits")),
        l0_lookups(l0_hits + Delta(before, after, "srv_l0_misses")),
        tmpl_hits(Delta(before, after, "cache_hits")),
        tmpl_lookups(tmpl_hits + Delta(before, after, "cache_misses")),
        evictions(Delta(before, after, "cache_evictions")),
        invalidations(Delta(before, after, "cache_invalidations")) {}
};

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// The layer each workload claims to isolate, checked against the server's
// own counters. A miss is reported, not failed: an engine change may
// legitimately move these rates, and the claim then needs revisiting.
std::string IsolationNote(Workload workload, const TierStats& t) {
  const double l0 = Ratio(t.l0_hits, t.l0_lookups);
  const double tmpl = Ratio(t.tmpl_hits, t.tmpl_lookups);
  bool met = true;
  std::ostringstream os;
  os.precision(4);
  switch (workload) {
    case Workload::kPointHot:
      met = l0 > 0.95;
      os << "L0 hit rate " << l0 << " (claim > 0.95)";
      break;
    case Workload::kLiteralSweep:
      met = l0 < 0.05 && tmpl > 0.95;
      os << "L0 hit rate " << l0 << " (claim < 0.05), template hit rate "
         << tmpl << " (claim > 0.95)";
      break;
    case Workload::kRewriteCold:
      met = tmpl < 0.2 && t.evictions > 0;
      os << "template hit rate " << tmpl << " (claim < 0.2), evictions "
         << t.evictions << " (claim > 0)";
      break;
    case Workload::kScanWriteMix:
      met = t.invalidations > 0;
      os << "invalidations " << t.invalidations << " (claim > 0)";
      break;
  }
  return (met ? "isolation met: " : "WARNING isolation not met: ") + os.str();
}

// The reference the answer check compares against: the same database
// queried with the rewriter off (the raw translated plan), and plain graph
// search for BETTER_THAN. Answers are memoized by text.
class Reference {
 public:
  explicit Reference(uint64_t seed) : db_(BuildDatabase(seed)) {}

  const Graph& graph() const { return db_.graph; }

  const std::vector<std::string>& Answer(const Request& request) {
    auto it = memo_.find(request.text);
    if (it != memo_.end()) return it->second;
    std::vector<std::vector<std::string>> rows;
    if (request.fixpoint) {
      for (int l : db_.graph.reach[static_cast<size_t>(request.fix_w)]) {
        if (l > request.fix_gt) rows.push_back({std::to_string(l)});
      }
    } else {
      eds::exec::QueryOptions raw;
      raw.rewrite = false;
      eds::Result<eds::exec::QueryResult> result =
          db_.session->Query(request.text, raw);
      Check(result.status(), "reference query '" + request.text + "'");
      for (const eds::exec::Row& row : result->rows) {
        rows.push_back(eds::net::RenderRow(row));
      }
    }
    return memo_.emplace(request.text, SortedRows(rows)).first->second;
  }

 private:
  Database db_;
  std::map<std::string, std::vector<std::string>> memo_;
};

// The restart measurements. One server has served the workload's first
// kRestartRequests requests; after every slice of the window it is restarted
// warm (SIGTERM, which saves its caches, then a relaunch on them), and
// fresh servers are launched cold beside it. The cycles are spread over the
// window so they sample the same stretch of the host's time as the window's
// own metrics.
class Restarts {
 public:
  Restarts(const std::string& self, uint64_t seed, const std::string& dir,
           std::vector<Request> prefix)
      : self_(self),
        seed_(seed),
        warm_path_(dir + "/restart.eds"),
        cold_path_(dir + "/cold.eds"),
        prefix_(std::move(prefix)) {}

  // Launches the server to restart and records its cold answers.
  void Begin(Outcome* out);
  // kColdLaunches cold launches (setup_s) and one warm restart (restart_ms,
  // warmup_ms).
  void Cycle(Outcome* out);
  // Stops the server and reports the medians.
  void End(Outcome* out);

 private:
  // Serves the prefix: returns the wall time from the first send to the
  // last answer, and sets *first_ns to when the first answer arrived.
  uint64_t ServePrefix(std::vector<std::vector<std::string>>* rows,
                       uint64_t* first_ns, Outcome* out);

  std::string self_;
  uint64_t seed_;
  std::string warm_path_;
  std::string cold_path_;
  std::vector<Request> prefix_;
  std::unique_ptr<ServerProcess> server_;
  std::unique_ptr<Client> client_;
  std::vector<std::vector<std::string>> cold_rows_;
  std::vector<double> setup_s_;
  std::vector<double> restart_ms_;
  std::vector<double> warmup_ms_;
};

uint64_t Restarts::ServePrefix(std::vector<std::vector<std::string>>* rows,
                               uint64_t* first_ns, Outcome* out) {
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < prefix_.size(); ++i) {
    ++out->attempted;
    eds::Result<ResultMsg> r = client_->Query(prefix_[i].text);
    if (i == 0) *first_ns = NowNs();
    if (!r.ok() || !r->ok) {
      ++out->failed;
      out->Fail("restart query: " +
                (r.ok() ? r->error : r.status().ToString()));
      rows->emplace_back();
      continue;
    }
    rows->push_back(SortedRows(r->rows));
  }
  return NowNs() - t0;
}

void Restarts::Begin(Outcome* out) {
  std::filesystem::remove(warm_path_);
  server_ = std::make_unique<ServerProcess>(self_, seed_, warm_path_);
  client_ = Connect(server_->port());
  uint64_t first_ns = 0;
  const uint64_t cold_ns = ServePrefix(&cold_rows_, &first_ns, out);
  out->notes.push_back("cold warmup_ms " + std::to_string(Ms(cold_ns)));
}

void Restarts::Cycle(Outcome* out) {
  uint64_t fastest = UINT64_MAX;
  for (int i = 0; i < kColdLaunches; ++i) {
    std::filesystem::remove(cold_path_);
    const uint64_t t0 = NowNs();
    ServerProcess cold(self_, seed_, cold_path_);
    std::unique_ptr<Client> client = Connect(cold.port());
    fastest = std::min(fastest, NowNs() - t0);
    (void)client->Goodbye();
    cold.Stop();
  }
  setup_s_.push_back(static_cast<double>(fastest) / 1e9);
  (void)client_->Goodbye();
  const uint64_t t0 = NowNs();
  server_->Stop();
  server_ = std::make_unique<ServerProcess>(self_, seed_, warm_path_);
  client_ = Connect(server_->port());
  std::vector<std::vector<std::string>> rows;
  uint64_t first_ns = 0;
  warmup_ms_.push_back(Ms(ServePrefix(&rows, &first_ns, out)));
  restart_ms_.push_back(Ms(first_ns - t0));
  if (rows != cold_rows_) {
    ++out->failed;
    out->Fail("a warm restart answered differently from the cold server");
  }
}

void Restarts::End(Outcome* out) {
  (void)client_->Goodbye();
  server_->Stop();
  out->Add("setup_s", Median(setup_s_), "s", setup_s_.size());
  out->Add("restart_ms", Median(restart_ms_), "ms", restart_ms_.size());
  out->Add("warmup_ms", Median(warmup_ms_), "ms", warmup_ms_.size());
}

class Runner {
 public:
  Runner(const Args& args, std::string self, Reference* reference)
      : args_(args), self_(std::move(self)), ref_(reference) {}

  Outcome Run(Workload workload);

 private:
  void Window(Restarts* restarts, Outcome* out);
  void CheckAnswers(const std::vector<Sample>& samples, Outcome* out);
  void Traced(const std::vector<Sample>& samples,
              const std::vector<Reader>& readers, double live_mean_us,
              Outcome* out);

  const Args& args_;
  std::string self_;
  Reference* ref_;
  Workload workload_ = Workload::kPointHot;
  std::string dir_;  // per-workload scratch directory
};

Outcome Runner::Run(Workload workload) {
  workload_ = workload;
  dir_ = args_.tmpdir + "/" + std::to_string(::getpid()) + "/" +
         WorkloadName(workload);
  std::filesystem::create_directories(dir_);
  Outcome out;
  out.workload = WorkloadName(workload);
  Restarts restarts(self_, args_.seed, dir_,
                    Prefix(workload, args_.seed, kRestartRequests,
                           ref_->graph()));
  restarts.Begin(&out);
  Window(&restarts, &out);
  restarts.End(&out);
  return out;
}

// The measured window: warm-up, then `seconds` of closed-loop readers (plus
// the open-loop writer on scan_write_mix) cut into --restarts slices with
// one restart cycle after each, then the answer check. The readers and the
// writer pause during the cycles.
void Runner::Window(Restarts* restarts, Outcome* out) {
  const std::string persist = dir_ + "/window.eds";
  std::filesystem::remove(persist);
  ServerProcess server(self_, args_.seed, persist);
  std::vector<Reader> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(workload_, args_.seed, r, ref_->graph(),
                         Connect(server.port()));
  }
  // The fourth connection: STATS at the window's edges, and the writer.
  std::unique_ptr<Client> control = Connect(server.port());
  std::optional<Writer> writer;
  if (workload_ == Workload::kScanWriteMix) writer.emplace(control.get());
  Writer* w = writer ? &*writer : nullptr;

  RunPhase(&readers, w, kWarmupSeconds, /*measured=*/false);
  const PromScrape before = Scrape(control.get());
  PromScrape after;
  const double slice_seconds =
      static_cast<double>(args_.seconds) / args_.restarts;
  std::vector<double> qps;
  for (int i = 0; i < args_.restarts; ++i) {
    qps.push_back(RunPhase(&readers, w, slice_seconds, /*measured=*/true));
    if (i + 1 == args_.restarts) after = Scrape(control.get());
    restarts->Cycle(out);
  }
  for (Reader& r : readers) (void)r.client->Goodbye();
  (void)control->Goodbye();
  const long rss_kb = server.Stop();

  std::vector<double> latency;
  std::vector<Sample> samples;
  uint64_t window_attempted = 0;
  uint64_t window_failed = 0;
  for (Reader& r : readers) {
    latency.insert(latency.end(), r.latency_us.begin(), r.latency_us.end());
    for (Sample& s : r.samples) samples.push_back(std::move(s));
    out->attempted += r.attempted;
    out->failed += r.failed;
    window_attempted += r.window_attempted;
    window_failed += r.window_failed;
    if (!r.first_error.empty()) out->Fail("reader: " + r.first_error);
  }
  if (writer) {
    out->attempted += writer->attempted;
    out->failed += writer->failed;
    if (!writer->first_error.empty()) {
      out->Fail("writer: " + writer->first_error);
    }
  }
  if (latency.empty()) throw std::runtime_error("no request completed");

  const uint64_t wrong_before = out->failed;
  CheckAnswers(samples, out);
  const uint64_t wrong = out->failed - wrong_before;
  const TierStats tiers(before, after);
  out->notes.push_back(IsolationNote(workload_, tiers));

  out->Add("throughput_qps", Median(qps), "1/s", qps.size());
  out->Add("latency_p50_us", Quantile(latency, 0.50), "us", latency.size());
  out->Add("latency_p99_us", Quantile(latency, 0.99), "us", latency.size());
  out->Add("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB", 1);
  out->Add("error_rate",
           static_cast<double>(window_failed + wrong) /
               static_cast<double>(std::max<uint64_t>(1, window_attempted)),
           "ratio", window_attempted);
  if (writer) {
    out->Add("write_p50_us", Quantile(writer->write_us, 0.50), "us",
             writer->write_us.size());
    out->Add("write_p99_us", Quantile(writer->write_us, 0.99), "us",
             writer->write_us.size());
    out->Add("write_lateness_us", Quantile(writer->lateness_us, 0.99), "us",
             writer->lateness_us.size());
    out->Add("srv.ddl_ms", Median(writer->ddl_ms), "ms",
             writer->ddl_ms.size());
  }
  const auto served = static_cast<size_t>(tiers.l0_lookups);
  out->Add("srv.queue_p50_us",
           DeltaQuantile(before, after, "srv_latency_queue", 0.50) / 1e3,
           "us", served);
  out->Add("srv.queue_p99_us",
           DeltaQuantile(before, after, "srv_latency_queue", 0.99) / 1e3,
           "us", served);
  out->Add("srv.l0_hit_rate", Ratio(tiers.l0_hits, tiers.l0_lookups), "ratio",
           served);
  out->Add("srv.cache_hit_rate", Ratio(tiers.tmpl_hits, tiers.tmpl_lookups),
           "ratio", static_cast<size_t>(tiers.tmpl_lookups));
  out->Add("srv.cache_evictions", tiers.evictions, "count", 1);
  out->Add("srv.cache_invalidations", tiers.invalidations, "count", 1);
  out->Add("gov.trips",
           Delta(before, after, "gov_deadline_trips") +
               Delta(before, after, "gov_node_ceiling_trips") +
               Delta(before, after, "gov_row_ceiling_trips") +
               Delta(before, after, "gov_cancel_trips"),
           "count", 1);
  if (args_.trace) Traced(samples, readers, Mean(latency), out);
}

void Runner::CheckAnswers(const std::vector<Sample>& samples, Outcome* out) {
  size_t wrong = 0;
  for (const Sample& s : samples) {
    if (ref_->Answer(s.request) == s.rows) continue;
    ++wrong;
    if (wrong <= 3) {
      std::cerr << "bench_e2e: wrong answer (" << s.rows.size() << " rows vs "
                << ref_->Answer(s.request).size()
                << " in the reference): " << s.request.text << "\n";
    }
  }
  out->failed += wrong;
  out->notes.push_back("answers checked " + std::to_string(samples.size()) +
                       ", wrong " + std::to_string(wrong));
  if (wrong != 0) out->Fail(std::to_string(wrong) + " wrong answers");
}

// The traced run's layer self times, from the in-process replay, which must
// agree with the server on cache-tier shares and on the sampled answers.
void Runner::Traced(const std::vector<Sample>& samples,
                    const std::vector<Reader>& readers, double live_mean_us,
                    Outcome* out) {
  ReplayOptions options;
  // A fifth of the window: the overhead passes replay the same requests
  // twice more, and the traced run must stay within the run-time budget.
  options.budget_seconds = std::max(1.0, args_.seconds / 5.0);
  options.persist_path = dir_ + "/replay.eds";
  std::filesystem::create_directories(args_.trace_dir);
  options.trace_path =
      args_.trace_dir + "/" + WorkloadName(workload_) + ".trace.json";
  std::vector<uint64_t> ids;
  for (const Sample& s : samples) ids.push_back(s.id);
  const ReplayResult rep = Replay(workload_, args_.seed, ids, options);
  const size_t n = rep.requests;

  static const char* const kLayers[] = {
      "net.socket",       "net.decode",      "net.render",
      "net.encode",       "net.client",      "srv.l0",
      "srv.fingerprint",  "srv.cache_lookup", "srv.cache_insert",
      "esql.parse",       "esql.translate",  "rewrite.rewrite",
      "lera.schema",      "exec.execute"};
  const double nd = static_cast<double>(n);
  // A layer's mean is per replayed request, so the means add up to the
  // request's time; its p99 is over the requests it ran in.
  double attributed = 0;
  for (const char* layer : kLayers) {
    static const std::vector<double> kNone;
    auto it = rep.self_us.find(layer);
    const std::vector<double>& ran =
        it == rep.self_us.end() ? kNone : it->second;
    const double mean = Mean(ran) * static_cast<double>(ran.size()) / nd;
    attributed += mean;
    out->Add(std::string(layer) + "_us", mean, "us", n);
    out->Add(std::string(layer) + "_us.p99", Quantile(ran, 0.99), "us",
             ran.size());
  }
  out->Add("net.result_bytes", rep.result_bytes, "bytes", n);
  out->Add("rewrite.applications",
           static_cast<double>(rep.rewrite_applications) / nd, "count", n);
  out->Add("rewrite.match_attempts",
           static_cast<double>(rep.rewrite_match_attempts) / nd, "count", n);
  out->Add("rewrite.fired_ratio",
           Ratio(static_cast<double>(rep.rewrite_applications),
                 static_cast<double>(rep.rewrite_match_attempts)),
           "ratio", n);
  out->Add("exec.scan_per_row",
           Ratio(static_cast<double>(rep.rows_scanned),
                 static_cast<double>(rep.rows_output)),
           "ratio", n);
  out->Add("exec.vec_fallbacks",
           static_cast<double>(rep.vec_fallbacks) * 1000.0 / nd, "count/1k",
           n);
  out->Add("srv.persist_save_ms", rep.persist_save_ms, "ms", 5);
  out->Add("srv.persist_load_ms", rep.persist_load_ms, "ms", 5);
  out->Add("srv.persist_bytes", static_cast<double>(rep.persist_bytes),
           "bytes", 1);
  out->Add("unattributed_us", live_mean_us - attributed, "us", n);
  out->Add("trace_overhead_us", rep.traced_mean_us - rep.untraced_mean_us,
           "us", n);
  out->Add("replay.requests", nd, "count", n);
  out->Add("replay.l0_hit_rate",
           Ratio(static_cast<double>(rep.l0.hits),
                 static_cast<double>(rep.l0.hits + rep.l0.misses)),
           "ratio", n);
  out->Add("replay.cache_hit_rate",
           Ratio(static_cast<double>(rep.cache.hits),
                 static_cast<double>(rep.cache.hits + rep.cache.misses)),
           "ratio", n);

  // Cache-tier decisions over the replayed requests: the share each tier
  // answered on the server (from each RESULT's serving flags) and in the
  // replay. The live readers ran concurrently, so a few decisions may differ.
  double srv_share[3] = {};
  double rep_share[3] = {};
  for (size_t id = 0; id < n; ++id) {
    const Reader& r = readers[id % kReaders];
    const size_t k = id / kReaders;
    const Tier live = k < r.tiers.size() ? r.tiers[k] : Tier::kFailed;
    if (live != Tier::kFailed) srv_share[static_cast<int>(live)] += 1.0 / nd;
    if (rep.tiers[id] != Tier::kFailed) {
      rep_share[static_cast<int>(rep.tiers[id])] += 1.0 / nd;
    }
  }
  static const char* const kTier[] = {"L0", "template", "rewrite"};
  for (int t = 0; t < 3; ++t) {
    if (std::fabs(srv_share[t] - rep_share[t]) > kTierTolerance) {
      out->Fail(std::string("replay ") + kTier[t] + " share " +
                std::to_string(rep_share[t]) + " vs server " +
                std::to_string(srv_share[t]));
    }
  }
  size_t compared = 0;
  for (const Sample& s : samples) {
    auto it = rep.rows.find(s.id);
    if (it == rep.rows.end()) continue;
    ++compared;
    if (it->second != s.rows) {
      ++out->failed;
      out->Fail("replay answered request " + std::to_string(s.id) +
                " differently from the server");
    }
  }
  if (rep.errors != 0) out->Fail("replay errors: " + std::to_string(rep.errors));
  out->notes.push_back("replay rows compared " + std::to_string(compared) +
                       ", trace " + options.trace_path);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// The result line: the end-to-end metrics, or with `trace` the per-layer
// ones. Metric names carry the workload when several ran.
std::string ResultJson(const std::vector<Outcome>& outcomes, bool trace,
                       bool prefixed) {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string metrics;
  for (const Outcome& o : outcomes) {
    correct = correct && o.correct;
    attempted += o.attempted;
    failed += o.failed;
    for (const Metric& m : o.metrics) {
      if (!m.in_json(trace)) continue;
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + (prefixed ? o.workload + "." : "") + m.name +
                 "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
                 m.unit + "\"}";
    }
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

void Print(const Outcome& o) {
  std::cout << "== " << o.workload << "  (* end-to-end metric)\n";
  for (const Metric& m : o.metrics) {
    std::printf("  %c %-26s %14.4f %-8s (n=%zu)\n", m.end_to_end() ? '*' : ' ',
                m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (const std::string& note : o.notes) std::cout << "  " << note << "\n";
  std::cout.flush();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.serve) {
    if (args.persist.empty() || args.parent == 0) Usage("--serve needs "
                                                        "--persist and "
                                                        "--parent");
    return ServeMain(args.seed, args.persist, static_cast<pid_t>(args.parent));
  }
  std::vector<Workload> workloads;
  if (args.workload.empty()) {
    workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
  } else {
    workloads.push_back(*ParseWorkload(args.workload));
  }
  Reference reference(args.seed);
  Runner runner(args, argv[0], &reference);
  std::vector<Outcome> outcomes;
  for (Workload w : workloads) {
    outcomes.push_back(runner.Run(w));
    Print(outcomes.back());
  }
  std::filesystem::remove_all(args.tmpdir + "/" + std::to_string(::getpid()));

  const std::string json =
      ResultJson(outcomes, args.trace, workloads.size() > 1);
  if (!args.out.empty()) {
    std::ofstream file(args.out, std::ios::trunc);
    file << json << "\n";
    if (!file) throw std::runtime_error("cannot write " + args.out);
  }
  std::cout << json << std::endl;
  for (const Outcome& o : outcomes) {
    if (!o.correct) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
