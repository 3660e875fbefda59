#include "replay.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "esql/parser.h"
#include "esql/translator.h"
#include "exec/executor.h"
#include "lera/schema.h"
#include "net/protocol.h"
#include "obs/trace.h"
#include "srv/fingerprint.h"
#include "srv/persist.h"
#include "srv/snapshot.h"
#include "stats.h"

namespace e2e {

using eds::obs::NowNs;
using eds::obs::Span;
using eds::obs::TraceSink;

namespace {

// Default capacities of srv::ServiceOptions (l0_capacity, persist_top_k).
constexpr size_t kL0Capacity = 256;
constexpr size_t kPersistTopK = 256;
constexpr int kPersistRepeats = 5;
// Untimed requests served before the timed passes.
constexpr size_t kWarmupRequests = 256;

std::runtime_error SysError(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw SysError("fcntl");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

// Two connected loopback TCP sockets in this process: the replay's client
// and server ends.
class LoopbackPair {
 public:
  LoopbackPair() {
    const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listener < 0) throw SysError("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ||
        ::listen(listener, 1) ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len)) {
      ::close(listener);
      throw SysError("listen");
    }
    client_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (client_ < 0 ||
        ::connect(client_, reinterpret_cast<sockaddr*>(&addr), sizeof addr)) {
      ::close(listener);
      throw SysError("connect");
    }
    server_ = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    ::close(listener);
    if (server_ < 0) throw SysError("accept");
    SetNonBlocking(client_);
    SetNonBlocking(server_);
  }
  ~LoopbackPair() {
    ::close(client_);
    ::close(server_);
  }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;

  void ToServer(std::string_view bytes, std::string* in) {
    Transfer(client_, server_, bytes, in);
  }
  void ToClient(std::string_view bytes, std::string* in) {
    Transfer(server_, client_, bytes, in);
  }

 private:
  // Writes `bytes` into `from` and appends everything that arrives at `to`
  // onto *in, interleaving so frames larger than the socket buffers flow.
  static void Transfer(int from, int to, std::string_view bytes,
                       std::string* in) {
    size_t sent = 0;
    size_t received = 0;
    char buf[64 * 1024];
    while (received < bytes.size()) {
      if (sent < bytes.size()) {
        const ssize_t n = ::send(from, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n > 0) sent += static_cast<size_t>(n);
        else if (errno != EAGAIN && errno != EINTR) throw SysError("send");
      }
      const ssize_t n = ::recv(to, buf, sizeof buf, 0);
      if (n > 0) {
        in->append(buf, static_cast<size_t>(n));
        received += static_cast<size_t>(n);
        continue;
      }
      if (n == 0) throw std::runtime_error("loopback peer closed");
      if (errno != EAGAIN && errno != EINTR) throw SysError("recv");
      pollfd fds[2] = {{to, POLLIN, 0}, {from, POLLOUT, 0}};
      ::poll(fds, sent < bytes.size() ? 2 : 1, 1000);
    }
  }

  int client_ = -1;
  int server_ = -1;
};

// The per-pass state: fresh caches, tallies of the traced pass.
struct PassState {
  std::unique_ptr<eds::srv::L0Cache> l0 =
      std::make_unique<eds::srv::L0Cache>(kL0Capacity);
  std::unique_ptr<eds::srv::PlanCache> cache =
      std::make_unique<eds::srv::PlanCache>();
  ReplayResult* out = nullptr;  // null: do not tally
};

class Replayer {
 public:
  explicit Replayer(uint64_t seed) : db_(BuildDatabase(seed)) {
    eds::Result<eds::srv::SnapshotRef> snap = eds::srv::BuildSnapshot(
        db_.session->catalog(), db_.session->optimizer_options(),
        db_.session->rules_epoch());
    Check(snap.status(), "replay snapshot");
    snap_ = *std::move(snap);
  }

  const eds::srv::ServingSnapshot& snapshot() const { return *snap_; }
  eds::exec::Session* session() { return db_.session.get(); }
  const Graph& graph() const { return db_.graph; }

  // One request end to end. Returns the decoded RESULT.
  eds::net::ResultMsg Run(const Request& request, uint64_t id,
                          TraceSink* sink, PassState* pass);

 private:
  eds::Result<eds::srv::ServedQuery> Serve(const std::string& esql,
                                           TraceSink* sink, uint64_t id,
                                           PassState* pass);

  Database db_;
  eds::srv::SnapshotRef snap_;
  LoopbackPair wire_;
};

// Opens a layer span tagged with the request id (the parent is the
// enclosing request span).
#define E2E_SPAN(var, name)                                  \
  Span var(sink, name, "e2e");                               \
  if (sink != nullptr) var.Arg("req", static_cast<int64_t>(id))

eds::net::ResultMsg Replayer::Run(const Request& request, uint64_t id,
                                  TraceSink* sink, PassState* pass) {
  std::string frame;
  {
    E2E_SPAN(span, "net.client");
    eds::net::AppendFrame(eds::net::MsgType::kQuery, id,
                          eds::net::EncodeQuery({request.text}), &frame);
  }
  std::string server_in;
  {
    E2E_SPAN(span, "net.socket");
    wire_.ToServer(frame, &server_in);
  }
  std::string esql;
  {
    E2E_SPAN(span, "net.decode");
    eds::net::Frame f;
    std::string error;
    if (eds::net::NextFrame(&server_in, eds::net::kDefaultMaxFrameBytes, &f,
                            &error) != eds::net::FrameStatus::kOk) {
      throw std::runtime_error("replay frame: " + error);
    }
    eds::Result<eds::net::QueryMsg> q = eds::net::DecodeQuery(f.body);
    Check(q.status(), "replay decode");
    esql = std::move(q->esql);
  }
  eds::Result<eds::srv::ServedQuery> served = Serve(esql, sink, id, pass);
  eds::net::ResultMsg msg;
  {
    E2E_SPAN(span, "net.render");
    if (served.ok()) {
      msg = eds::net::RenderServed(*served);
    } else {
      msg.error = served.status().message();
    }
  }
  std::string reply;
  {
    E2E_SPAN(span, "net.encode");
    eds::net::AppendFrame(eds::net::MsgType::kResult, id,
                          eds::net::EncodeResult(msg), &reply);
  }
  std::string client_in;
  {
    E2E_SPAN(span, "net.socket");
    wire_.ToClient(reply, &client_in);
  }
  {
    E2E_SPAN(span, "net.client");
    eds::net::Frame f;
    std::string error;
    if (eds::net::NextFrame(&client_in, eds::net::kDefaultMaxFrameBytes, &f,
                            &error) != eds::net::FrameStatus::kOk) {
      throw std::runtime_error("replay frame: " + error);
    }
    eds::Result<eds::net::ResultMsg> decoded = eds::net::DecodeResult(f.body);
    Check(decoded.status(), "replay decode result");
    msg = *std::move(decoded);
  }
  if (pass->out != nullptr) {
    pass->out->result_bytes += static_cast<double>(reply.size());
    if (!msg.ok) ++pass->out->errors;
  }
  return msg;
}

// QueryService::ServeNow's cached pipeline, layer by layer (no governor:
// the service's default limits are all unlimited).
eds::Result<eds::srv::ServedQuery> Replayer::Serve(const std::string& esql,
                                                   TraceSink* sink,
                                                   uint64_t id,
                                                   PassState* pass) {
  const eds::srv::ServingSnapshot& snap = *snap_;
  eds::srv::ServedQuery served;
  served.catalog_epoch = snap.catalog_epoch;
  served.rules_epoch = snap.rules_epoch;
  eds::exec::QueryResult& result = served.result;

  std::string l0_key;
  std::optional<eds::srv::L0Cache::Entry> hit;
  {
    E2E_SPAN(span, "srv.l0");
    l0_key = eds::srv::NormalizeQueryText(esql);
    hit = pass->l0->Lookup(l0_key, snap.catalog_epoch, snap.rules_epoch);
  }
  eds::term::TermRef plan;
  if (hit.has_value()) {
    served.l0_hit = true;
    result.columns = hit->columns;
    plan = hit->plan;
  } else {
    eds::esql::Statement stmt;
    {
      E2E_SPAN(span, "esql.parse");
      EDS_ASSIGN_OR_RETURN(stmt, eds::esql::ParseStatement(esql));
    }
    if (stmt.kind != eds::esql::StatementKind::kSelect) {
      return eds::Status::InvalidArgument("expected a SELECT statement");
    }
    eds::term::TermRef raw;
    {
      E2E_SPAN(span, "esql.translate");
      eds::esql::Translator translator(snap.catalog.get());
      EDS_ASSIGN_OR_RETURN(raw, translator.TranslateQuery(*stmt.select));
    }
    eds::srv::Fingerprint fp;
    {
      E2E_SPAN(span, "srv.fingerprint");
      fp = eds::srv::FingerprintPlan(raw);
    }
    eds::srv::PlanCache::Key key{fp.tmpl, snap.catalog_epoch,
                                 snap.rules_epoch};
    {
      E2E_SPAN(span, "srv.cache_lookup");
      std::optional<eds::term::TermRef> cached = pass->cache->Lookup(key);
      if (cached.has_value()) {
        eds::Result<eds::term::TermRef> replayed =
            eds::srv::InstantiatePlan(*cached, fp.params);
        if (replayed.ok()) {
          plan = *replayed;
          served.cache_hit = true;
        }
      }
    }
    bool degraded = false;
    if (!served.cache_hit) {
      const uint64_t rw0 = NowNs();
      eds::rewrite::RewriteOutcome outcome;
      eds::Result<eds::term::TermRef> instantiated = eds::term::TermRef();
      {
        E2E_SPAN(span, "rewrite.rewrite");
        EDS_ASSIGN_OR_RETURN(outcome, snap.optimizer->Rewrite(fp.tmpl, {}));
        instantiated = eds::srv::InstantiatePlan(outcome.term, fp.params);
      }
      if (pass->out != nullptr) {
        pass->out->rewrite_applications += outcome.stats.applications;
        pass->out->rewrite_match_attempts += outcome.stats.match_attempts;
      }
      degraded = outcome.stats.trip.tripped() || outcome.stats.safety_stop;
      if (!instantiated.ok()) {
        served.cache_bypass = true;
        E2E_SPAN(span, "rewrite.rewrite");
        EDS_ASSIGN_OR_RETURN(eds::rewrite::RewriteOutcome direct,
                             snap.optimizer->Rewrite(raw, {}));
        plan = direct.term;
        degraded = direct.stats.trip.tripped() || direct.stats.safety_stop;
      } else {
        plan = *instantiated;
        if (!degraded) {
          E2E_SPAN(span, "srv.cache_insert");
          pass->cache->Insert(key, outcome.term, NowNs() - rw0, fp.params);
          served.cache_stored = true;
        }
      }
    }
    {
      E2E_SPAN(span, "lera.schema");
      EDS_ASSIGN_OR_RETURN(eds::lera::Schema schema,
                           eds::lera::InferSchema(plan, *snap.catalog));
      for (const eds::types::Field& f : schema) {
        result.columns.push_back(f.name);
      }
    }
    if (!degraded) {
      E2E_SPAN(span, "srv.l0");
      eds::srv::L0Cache::Entry entry;
      entry.raw_plan = raw;
      entry.plan = plan;
      entry.columns = result.columns;
      entry.catalog_epoch = snap.catalog_epoch;
      entry.rules_epoch = snap.rules_epoch;
      pass->l0->Insert(l0_key, std::move(entry));
    }
  }
  {
    E2E_SPAN(span, "exec.execute");
    eds::exec::Executor executor(snap.catalog.get(), &db_.session->db(), {});
    eds::Result<eds::exec::Rows> rows = executor.Execute(plan);
    if (pass->out != nullptr) {
      pass->out->rows_scanned += executor.stats().rows_scanned;
      pass->out->rows_output += executor.stats().rows_output;
      pass->out->vec_fallbacks += executor.stats().vec_fallbacks;
    }
    if (!rows.ok()) return rows.status();
    result.rows = *std::move(rows);
  }
  return served;
}

#undef E2E_SPAN

// Self time of every event in sink->events()[begin, end): its duration
// minus what its direct children (depth + 1, inside its interval) cover.
void AddSelfTimes(const TraceSink& sink, size_t begin,
                  std::map<std::string, double>* self_ns) {
  const std::vector<eds::obs::TraceEvent>& ev = sink.events();
  for (size_t i = begin; i < ev.size(); ++i) {
    uint64_t covered = 0;
    for (size_t j = begin; j < ev.size(); ++j) {
      if (ev[j].depth == ev[i].depth + 1 && ev[j].start_ns >= ev[i].start_ns &&
          ev[j].start_ns + ev[j].dur_ns <= ev[i].start_ns + ev[i].dur_ns) {
        covered += ev[j].dur_ns;
      }
    }
    (*self_ns)[ev[i].name] +=
        static_cast<double>(ev[i].dur_ns - std::min(covered, ev[i].dur_ns));
  }
}

}  // namespace

Tier TierOf(const eds::net::ResultMsg& msg) {
  if (!msg.ok) return Tier::kFailed;
  if (msg.l0_hit) return Tier::kL0;
  return msg.cache_hit ? Tier::kTemplate : Tier::kRewrite;
}

std::vector<std::string> SortedRows(
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const std::vector<std::string>& row : rows) {
    std::string joined;
    for (const std::string& cell : row) {
      joined += cell;
      joined += '\x1f';
    }
    out.push_back(std::move(joined));
  }
  std::sort(out.begin(), out.end());
  return out;
}

ReplayResult Replay(Workload workload, uint64_t seed,
                    const std::vector<uint64_t>& wanted_ids,
                    const ReplayOptions& options) {
  Replayer replayer(seed);
  ReplayResult out;
  auto make_streams = [&](uint64_t stream_seed) {
    std::vector<Stream> streams;
    for (int i = 0; i < kReaders; ++i) {
      streams.emplace_back(workload, stream_seed, i, replayer.graph());
    }
    return streams;
  };
  {
    // Pay one-time costs (columnar table images, allocator growth) before
    // timing, on requests from another seed so the timed ones stay unseen.
    std::vector<Stream> streams = make_streams(Mix(seed));
    PassState scratch;
    for (size_t id = 0; id < kWarmupRequests; ++id) {
      replayer.Run(streams[id % kReaders].Next(), id, nullptr, &scratch);
    }
  }

  // The traced pass proper: every request is new to the process, as it was
  // to the server. It stops at the request cap or the time budget.
  std::vector<Request> requests;
  TraceSink sink;
  PassState pass;
  pass.out = &out;
  std::vector<uint64_t> wanted = wanted_ids;
  std::sort(wanted.begin(), wanted.end());
  {
    std::vector<Stream> streams = make_streams(seed);
    const uint64_t start = NowNs();
    const auto budget_ns = static_cast<uint64_t>(options.budget_seconds * 1e9);
    while (requests.size() < options.max_requests &&
           NowNs() - start < budget_ns) {
      const size_t id = requests.size();
      requests.push_back(streams[id % kReaders].Next());
      const size_t begin = sink.size();
      eds::net::ResultMsg msg;
      {
        Span request(&sink, "e2e.request", "e2e");
        request.Arg("req", static_cast<int64_t>(id));
        msg = replayer.Run(requests.back(), id, &sink, &pass);
      }
      std::map<std::string, double> self_ns;
      AddSelfTimes(sink, begin, &self_ns);
      for (const auto& [name, ns] : self_ns) {
        out.self_us[name].push_back(ns / 1e3);
      }
      out.tiers.push_back(TierOf(msg));
      if (msg.ok && std::binary_search(wanted.begin(), wanted.end(), id)) {
        out.rows[id] = SortedRows(msg.rows);
      }
    }
  }
  const size_t n = requests.size();
  if (n == 0) throw std::runtime_error("replay ran no requests");
  out.requests = n;
  out.result_bytes /= static_cast<double>(n);
  out.l0 = pass.l0->GetStats();
  out.cache = pass.cache->GetStats();

  // Tracing overhead: the same requests again through two fresh cache sets
  // in lockstep, one with spans and one without, alternating which goes
  // first so warm-cache and machine-load effects fall on both alike.
  {
    PassState plain;
    PassState spanned;
    TraceSink scratch;
    uint64_t plain_ns = 0;
    uint64_t spanned_ns = 0;
    for (size_t id = 0; id < n; ++id) {
      for (int k = 0; k < 2; ++k) {
        const bool traced = (k == 0) == (id % 2 == 0);
        TraceSink* s = traced ? &scratch : nullptr;
        const uint64_t t0 = NowNs();
        {
          Span request(s, "e2e.request", "e2e");
          if (traced) request.Arg("req", static_cast<int64_t>(id));
          replayer.Run(requests[id], id, s, traced ? &spanned : &plain);
        }
        (traced ? spanned_ns : plain_ns) += NowNs() - t0;
      }
    }
    const double nd = static_cast<double>(n);
    out.untraced_mean_us = static_cast<double>(plain_ns) / 1e3 / nd;
    out.traced_mean_us = static_cast<double>(spanned_ns) / 1e3 / nd;
  }

  // Persistence of the replay's caches: what a graceful stop writes and a
  // warm start reads back (LoadPersistFile + WarmServiceCaches).
  const eds::srv::ServingSnapshot& snap = replayer.snapshot();
  eds::srv::FileHeader header;
  header.catalog_epoch = snap.catalog_epoch;
  header.rules_epoch = snap.rules_epoch;
  eds::srv::PersistOptions popts;
  popts.top_k = kPersistTopK;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  for (int i = 0; i < kPersistRepeats; ++i) {
    eds::srv::SaveStats saved;
    uint64_t t0 = NowNs();
    Check(eds::srv::SavePersistFile(options.persist_path, *pass.cache,
                                    *pass.l0, header, popts, &saved),
          "replay persist save");
    save_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    out.persist_bytes = saved.bytes;

    eds::srv::L0Cache l0(kL0Capacity);
    eds::srv::PlanCache cache;
    t0 = NowNs();
    eds::Result<eds::srv::CacheImage> image =
        eds::srv::LoadPersistFile(options.persist_path, popts);
    Check(image.status(), "replay persist load");
    eds::srv::WarmServiceCaches(*image, replayer.session(), &cache, &l0,
                                snap.catalog_epoch, snap.rules_epoch, popts);
    load_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  out.persist_save_ms = Median(save_ms);
  out.persist_load_ms = Median(load_ms);

  std::ofstream trace(options.trace_path, std::ios::trunc);
  sink.WriteChromeTrace(trace);
  trace.flush();
  if (!trace) {
    throw std::runtime_error("cannot write trace " + options.trace_path);
  }
  return out;
}

}  // namespace e2e
