#ifndef EDS_NET_SERVER_H_
#define EDS_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "gov/governor.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "srv/service.h"

namespace eds::net {

// The wire front end: a TCP server speaking the framed protocol of
// net/protocol.h over a snapshot-isolated QueryService.
//
// Threading model — one poller, worker handoff:
//   * A single poller thread owns every socket: it accepts, reads, parses
//     frames, and handles the cheap messages (HELLO, CANCEL, STATS,
//     GOODBYE) inline. EXEC (DDL) also runs on the poller — by design it
//     only stalls *new* messages, never in-flight queries, because
//     QueryService::ApplyDdl publishes a new serving snapshot while old
//     queries drain on theirs. Each pass reads at most a fixed budget from
//     each readable connection (poll is level-triggered, so the rest waits
//     for the next pass): one fast writer cannot starve the others or grow
//     its input buffer past a frame plus one budget.
//   * QUERY is handed to QueryService::SubmitWithCallback; the service's
//     worker pool serves it and the completion callback writes the RESULT
//     frame back from the worker thread (per-connection write mutex, so
//     concurrent results interleave at frame granularity, never byte
//     granularity). Sends carry a write deadline
//     (ServerOptions::write_timeout_ms): a slow or non-reading client
//     fails its send and loses the connection instead of pinning a worker
//     — or the poller, for the inline replies — indefinitely.
//   * CANCEL fires the gov::CancelToken of the named in-flight request;
//     closing a connection cancels everything still pending on it, so a
//     dead client stops consuming budget at the next governor chokepoint.
//   * The server records no spans of its own: per-query timing lives in
//     the service (phase spans, latency histograms); the server keeps
//     only the ServerStats tallies.
//
// Lifecycle: stopped -> serving (Start) -> draining -> stopping -> stopped
// (Shutdown). Serving accepts connections and queries; draining stops
// accepting and refuses new QUERYs while admitted ones finish; stopping
// aborts parked sends and closes every connection.
//
// Fail-point sites net.accept / net.read / net.write let the chaos suite
// kill connections mid-message; the contract under injection is: the
// affected connection closes, every pending query's token fires, no
// session state leaks (active_connections()/pending_queries() drain to 0),
// and the server keeps accepting.
struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
  // Connections beyond this are accepted, told ERROR, and closed — the
  // wire analog of admission load-shedding.
  size_t max_connections = 64;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // A send that makes no progress (EAGAIN) for this long fails and closes
  // the connection: a slow or non-reading client can stall one connection
  // for at most this window, never the poller or Shutdown(). 0 = no limit.
  uint64_t write_timeout_ms = 5000;
  // Shutdown(drain=true) waits at most this long for in-flight queries;
  // whatever is still pending afterwards is cancelled.
  uint64_t drain_timeout_ms = 30'000;
  std::string server_info = "eds";
};

// Cumulative tallies, exported as net.* metrics.
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t rejected = 0;  // over max_connections
  uint64_t frames_read = 0;
  uint64_t frames_written = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t queries = 0;
  uint64_t execs = 0;
  uint64_t cancels = 0;        // CANCELs that found their target in flight
  uint64_t cancel_misses = 0;  // CANCELs whose target was already done
  uint64_t stats_requests = 0;
  uint64_t protocol_errors = 0;  // malformed frames / bad handshakes
  uint64_t read_errors = 0;      // peer resets + injected net.read failures
  uint64_t write_errors = 0;     // send failures + injected net.write
  uint64_t accept_errors = 0;    // accept failures + injected net.accept
  uint64_t poll_errors = 0;      // poll() failures (backed off, not fatal)
  uint64_t drain_rejected = 0;   // QUERYs refused while draining for stop
};

class Server {
 public:
  // `service` must be Start()ed and must outlive the server.
  Server(srv::QueryService* service, const ServerOptions& options);
  ~Server();  // Shutdown(true) if still running; waits for callbacks

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the poller. Fails on bind/listen errors
  // (port in use, bad host), or when the server is not stopped.
  Status Start();

  // Graceful stop: stop accepting, optionally wait for in-flight queries
  // to drain (their RESULT frames are still written), then close every
  // connection and join the poller. While draining, new QUERY frames are
  // refused with a failed RESULT ("server draining") so the pending count
  // is monotonically decreasing — a client that keeps pipelining cannot
  // hold the drain open — and the wait is bounded by
  // ServerOptions::drain_timeout_ms (whatever remains is cancelled). With
  // drain=false pending queries are cancelled instead of awaited.
  // Idempotent: only the call that ends serving does the work, and that
  // call returns only once no completion callback can still be in flight.
  void Shutdown(bool drain = true);

  // The bound port (resolves option port 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  size_t active_connections() const;
  size_t pending_queries() const;  // submitted, RESULT not yet written
  ServerStats GetStats() const;

  // net.* metrics (connections gauge + the ServerStats counters).
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  enum class Phase { kStopped, kServing, kDraining, kStopping };

  struct Connection {
    int fd = -1;      // -1 once closed; written under write_mu
    uint64_t id = 0;  // session id, assigned at accept
    std::string inbuf;
    bool hello_done = false;
    std::string tenant;
    // Guards fd writes: a worker writing a RESULT and the poller closing
    // the socket never interleave.
    std::mutex write_mu;
    // Set (e.g. after GOODBYE_OK or a write error) to have the connection
    // torn down on the next poller pass.
    std::atomic<bool> wants_close{false};
    // Cancel tokens of the in-flight QUERYs by request id. Guarded by
    // pending_mu (poller inserts/cancels, worker callbacks erase). Shared
    // with the service callback, so a token outlives a dead connection.
    std::mutex pending_mu;
    std::map<uint64_t, std::shared_ptr<gov::CancelToken>> pending;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  void PollLoop();
  // Accepts one connection. EDS_FAIL_POINT("net.accept") lives here.
  void Accept();
  // Reads up to the per-pass budget into conn->inbuf; an error return
  // means the connection must close. EDS_FAIL_POINT("net.read") lives here.
  Status ReadAvailable(const ConnPtr& conn);
  // Parses + dispatches every complete frame in conn->inbuf. False: close.
  bool DrainFrames(const ConnPtr& conn);
  bool Dispatch(const ConnPtr& conn, const Frame& frame);  // false: close
  void HandleQuery(const ConnPtr& conn, const Frame& frame);
  // Writes one frame; thread-safe vs. Close. A failure counts a write
  // error and schedules the connection for teardown.
  // EDS_FAIL_POINT("net.write") lives here.
  Status SendFrame(const ConnPtr& conn, MsgType type, uint64_t request_id,
                   std::string_view body);
  // Convenience: ERROR frame + schedule close (protocol_errors tally).
  void ProtocolError(const ConnPtr& conn, uint64_t request_id,
                     const std::string& message);
  void CloseConnection(const ConnPtr& conn);  // poller thread only
  void FinishPending(const ConnPtr& conn, uint64_t request_id);
  void WakePoller();
  void Count(uint64_t ServerStats::*field, uint64_t n = 1);
  std::string BuildStatsText() const;

  srv::QueryService* service_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  uint16_t port_ = 0;
  std::thread poller_;
  // Read lock-free by the poller, Dispatch and the worker send paths.
  std::atomic<Phase> phase_{Phase::kStopped};

  mutable std::mutex mu_;  // conns_ + stats_
  std::map<int, ConnPtr> conns_;  // by fd
  ServerStats stats_;
  uint64_t next_session_id_ = 1;

  // Drain accounting: callbacks outstanding across all connections.
  std::atomic<uint64_t> pending_total_{0};
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace eds::net

#endif  // EDS_NET_SERVER_H_
