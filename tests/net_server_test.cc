// The TCP front end, end to end over loopback: handshake, concurrent
// clients proving byte-identical results vs in-process serving, DDL under
// load over the wire, client cancellation, fail-point connection kills
// (net.accept / net.read / net.write), and graceful shutdown. Run under
// the asan AND tsan presets — the server is poller + worker handoff, so
// this suite is the repo's network data-race detector.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gov/failpoint.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "srv/service.h"
#include "testutil.h"

namespace eds::net {
namespace {

// Server + service over the FilmDb, on an ephemeral loopback port.
class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override { gov::FailPoints::Global().Clear(); }
  void TearDown() override {
    gov::FailPoints::Global().Clear();
    if (server_ != nullptr) server_->Shutdown(true);
    if (service_ != nullptr) service_->Stop();
  }

  void StartServer(srv::ServiceOptions service_options = {},
                   ServerOptions server_options = {}) {
    if (service_options.workers == 0) service_options.workers = 3;
    service_ = std::make_unique<srv::QueryService>(&db_.session,
                                                   service_options);
    ASSERT_TRUE(service_->Start().ok());
    server_ = std::make_unique<Server>(service_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  std::unique_ptr<Client> Dial(const std::string& tenant = "") {
    Client::Options options;
    options.port = server_->port();
    options.tenant = tenant;
    auto client = Client::Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (!client.ok()) return nullptr;
    return std::move(*client);
  }

  testutil::FilmDb db_;
  std::unique_ptr<srv::QueryService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, HandshakeAssignsSessions) {
  ServerOptions options;
  options.server_info = "eds-test/1";
  StartServer({}, options);
  auto a = Dial();
  auto b = Dial();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->hello().server_info, "eds-test/1");
  EXPECT_NE(a->session_id(), b->session_id());
  EXPECT_EQ(server_->active_connections(), 2u);
  ASSERT_TRUE(a->Goodbye().ok());
  ASSERT_TRUE(b->Goodbye().ok());
}

TEST_F(NetServerTest, QueryOverWireMatchesInProcess) {
  StartServer();
  const std::string q = "SELECT Winner, Loser FROM BEATS WHERE Winner > 3";
  // In-process reference, rendered through the same RenderServed path.
  auto reference = service_->Submit(q).get();
  ASSERT_TRUE(reference.ok());
  ResultMsg expected = RenderServed(*reference);

  auto client = Dial();
  ASSERT_NE(client, nullptr);
  auto wire = client->Query(q);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ASSERT_TRUE(wire->ok) << wire->error;
  EXPECT_EQ(wire->columns, expected.columns);
  EXPECT_EQ(wire->rows, expected.rows);
  EXPECT_EQ(wire->catalog_epoch, expected.catalog_epoch);
  EXPECT_EQ(wire->rules_epoch, expected.rules_epoch);
}

TEST_F(NetServerTest, QueryErrorsTravelAsFailedResults) {
  StartServer();
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  auto r = client->Query("SELECT X FROM NO_SUCH_TABLE");
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // transport ok
  EXPECT_FALSE(r->ok);                           // query failed
  EXPECT_FALSE(r->error.empty());
  // The connection survives a failed query.
  auto again = client->Query("SELECT Winner FROM BEATS WHERE Winner > 8");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ok);
}

// A rendered result over the frame cap is answered with a failed RESULT
// naming the size and the cap, not with a frame the client would refuse
// by dropping the connection and every query pipelined on it.
TEST_F(NetServerTest, OversizeResultFailsWithMessageAndKeepsConnection) {
  constexpr size_t kCap = 16 << 10;
  for (int i = 100; i < 3100; ++i) {
    ASSERT_TRUE(db_.session
                    .InsertRow("BEATS", {value::Value::Int(i),
                                         value::Value::Int(i + 1)})
                    .ok());
  }
  ServerOptions server_options;
  server_options.max_frame_bytes = kCap;
  StartServer({}, server_options);
  Client::Options copts;
  copts.port = server_->port();
  copts.max_frame_bytes = kCap;
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto big = (*client)->Query("SELECT Winner, Loser FROM BEATS");
  ASSERT_TRUE(big.ok()) << big.status().ToString();  // transport ok
  EXPECT_FALSE(big->ok);
  EXPECT_NE(big->error.find("result too large"), std::string::npos)
      << big->error;
  EXPECT_NE(big->error.find(std::to_string(kCap)), std::string::npos)
      << big->error;

  // The same connection still serves.
  auto small =
      (*client)->Query("SELECT Winner FROM BEATS WHERE Winner < 3");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_TRUE(small->ok) << small->error;
  EXPECT_EQ(small->rows.size(), 2u);
}

// The acceptance bar: >=4 clients x >=100 queries over TCP, result bags
// byte-identical to single-threaded in-process serving.
TEST_F(NetServerTest, ConcurrentClientsMatchSerialInProcessServing) {
  StartServer();
  constexpr int kClients = 4;
  constexpr int kQueries = 100;
  std::vector<std::string> workload;
  for (int i = 0; i < kQueries; ++i) {
    switch (i % 3) {
      case 0:
        workload.push_back("SELECT Winner FROM BEATS WHERE Winner > " +
                           std::to_string(i % 9));
        break;
      case 1:
        workload.push_back("SELECT Title FROM FILM WHERE Numf > " +
                           std::to_string(i % 3));
        break;
      default:
        workload.push_back("SELECT Winner, Loser FROM BEATS WHERE Loser < " +
                           std::to_string(1 + (i % 9)));
        break;
    }
  }
  // Single-threaded in-process reference, rendered through the same
  // functions the server uses.
  std::vector<std::vector<std::vector<std::string>>> expected;
  expected.reserve(workload.size());
  for (const std::string& q : workload) {
    auto r = db_.session.Query(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    std::vector<std::vector<std::string>> rows;
    for (const exec::Row& row : r->rows) rows.push_back(RenderRow(row));
    std::sort(rows.begin(), rows.end());
    expected.push_back(std::move(rows));
  }

  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      auto client = Dial();
      if (client == nullptr) {
        failures[c] = kQueries;
        return;
      }
      for (size_t i = 0; i < workload.size(); ++i) {
        auto r = client->Query(workload[i]);
        if (!r.ok() || !r->ok) {
          ++failures[c];
          continue;
        }
        std::vector<std::vector<std::string>> rows = r->rows;
        std::sort(rows.begin(), rows.end());
        if (rows != expected[i]) ++mismatches[c];
      }
      (void)client->Goodbye();
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
  const ServerStats stats = server_->GetStats();
  EXPECT_GE(stats.queries, static_cast<uint64_t>(kClients * kQueries));
  // The RESULT frame reaches the client before the worker's pending-table
  // bookkeeping completes, so drain the counter rather than snapshot it.
  for (int i = 0; i < 100 && server_->pending_queries() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->pending_queries(), 0u);
}

// DDL over the wire while another client's delayed queries are in flight:
// the pinned queries drain on the old snapshot (old epoch, correct rows),
// EXEC returns promptly, and post-DDL queries see the new epoch.
TEST_F(NetServerTest, DdlUnderLoadOverTheWire) {
  srv::ServiceOptions service_options;
  service_options.test_delay_marker = "BEATS";
  service_options.test_delay_ns = 150'000'000ULL;
  StartServer(service_options);

  auto slow = Dial();
  auto admin = Dial();
  ASSERT_NE(slow, nullptr);
  ASSERT_NE(admin, nullptr);

  const std::string q = "SELECT Winner FROM BEATS WHERE Winner > 2";
  auto pre = db_.session.Query(q);
  ASSERT_TRUE(pre.ok());
  std::vector<std::vector<std::string>> expected;
  for (const exec::Row& row : pre->rows) expected.push_back(RenderRow(row));
  std::sort(expected.begin(), expected.end());
  const uint64_t old_epoch = service_->current_snapshot()->catalog_epoch;

  // Pipeline two delayed queries, give the workers time to pin them.
  auto id1 = slow->SendQuery(q);
  auto id2 = slow->SendQuery(q);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const auto ddl_start = std::chrono::steady_clock::now();
  auto exec = admin->Exec("TABLE WIRE_DDL (x : NUMERIC);");
  const auto ddl_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - ddl_start)
                          .count();
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->ok) << exec->error;
  EXPECT_GT(exec->catalog_epoch, old_epoch);
  EXPECT_LT(ddl_ms, 120) << "EXEC blocked behind in-flight queries";

  // Post-DDL query from the admin connection sees the new epoch.
  auto fresh = admin->Query("SELECT Numf FROM FILM WHERE Numf > 1");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->ok) << fresh->error;
  EXPECT_GT(fresh->catalog_epoch, old_epoch);

  // The delayed queries drain on the old snapshot, byte-identical.
  for (int i = 0; i < 2; ++i) {
    auto resp = slow->ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->result.ok) << resp->result.error;
    EXPECT_EQ(resp->result.catalog_epoch, old_epoch);
    std::vector<std::vector<std::string>> rows = resp->result.rows;
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, expected);
  }
}

TEST_F(NetServerTest, CancelKillsInFlightQuery) {
  srv::ServiceOptions service_options;
  service_options.base_limits.deadline_ms = 30'000;  // arm the guard
  service_options.test_delay_marker = "BEATS";
  service_options.test_delay_ns = 200'000'000ULL;
  StartServer(service_options);
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  auto id = client->SendQuery("SELECT Winner FROM BEATS WHERE Winner > 1");
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(client->SendCancel(*id).ok());
  auto resp = client->ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, *id);
  // The cancel token fired while the query slept; the governor trips it
  // at the next chokepoint.
  ASSERT_FALSE(resp->result.ok);
  EXPECT_NE(resp->result.error.find("cancel"), std::string::npos)
      << resp->result.error;
  EXPECT_GE(server_->GetStats().cancels, 1u);
}

TEST_F(NetServerTest, StatsOverTheWire) {
  StartServer();
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Query("SELECT Winner FROM BEATS WHERE Winner > 5").ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("net_accepted"), std::string::npos);
  EXPECT_NE(stats->find("srv_snapshot_publishes"), std::string::npos);
  EXPECT_NE(stats->find("net_queries"), std::string::npos);
}

TEST_F(NetServerTest, MalformedFrameGetsErrorAndClose) {
  StartServer();
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  // A length prefix far beyond the frame cap followed by junk.
  std::string garbage = "\xff\xff\xff\x7f then arbitrary bytes";
  ASSERT_TRUE(client->SendRaw(garbage).ok());
  // The server answers ERROR and closes; the client surfaces either.
  auto r = client->Query("SELECT Winner FROM BEATS WHERE Winner > 1");
  EXPECT_FALSE(r.ok());
  // The server is still healthy for new connections.
  auto fresh = Dial();
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->Query("SELECT Winner FROM BEATS WHERE Winner > 1").ok());
  EXPECT_GE(server_->GetStats().protocol_errors, 1u);
}

TEST_F(NetServerTest, DuplicateHelloIsAProtocolError) {
  StartServer();
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  Hello again;
  again.client_name = "imposter";
  std::string frame;
  AppendFrame(MsgType::kHello, 9, EncodeHello(again), &frame);
  ASSERT_TRUE(client->SendRaw(frame).ok());
  auto r = client->Query("SELECT Winner FROM BEATS WHERE Winner > 1");
  EXPECT_FALSE(r.ok());
  EXPECT_GE(server_->GetStats().protocol_errors, 1u);
}

TEST_F(NetServerTest, ConnectionLimitRejectsPolitely) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer({}, options);
  auto first = Dial();
  ASSERT_NE(first, nullptr);
  Client::Options copts;
  copts.port = server_->port();
  auto second = Client::Connect(copts);
  // Either the ERROR frame arrives ("connection limit") or the close's
  // RST beats it — both are a failed connect.
  ASSERT_FALSE(second.ok());
  EXPECT_GE(server_->GetStats().rejected, 1u);
  // Closing the first frees the slot.
  ASSERT_TRUE(first->Goodbye().ok());
  for (int i = 0; i < 50; ++i) {
    if (server_->active_connections() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto third = Dial();
  EXPECT_NE(third, nullptr);
}

// ---- fail-point connection kills: the server never wedges or leaks ----

TEST_F(NetServerTest, AcceptFailPointDropsOneConnection) {
  StartServer();
  gov::FailPoints::Global().Configure("net.accept=error");
  Client::Options copts;
  copts.port = server_->port();
  auto doomed = Client::Connect(copts);
  EXPECT_FALSE(doomed.ok());  // connection closed before HELLO_OK
  gov::FailPoints::Global().Clear();
  auto fine = Dial();
  ASSERT_NE(fine, nullptr);
  EXPECT_TRUE(fine->Query("SELECT Winner FROM BEATS WHERE Winner > 1").ok());
  EXPECT_GE(server_->GetStats().accept_errors, 1u);
  EXPECT_EQ(server_->active_connections(), 1u);  // no leaked session
}

TEST_F(NetServerTest, ReadFailPointKillsConnectionMidMessage) {
  StartServer();
  auto victim = Dial();
  ASSERT_NE(victim, nullptr);
  gov::FailPoints::Global().Configure("net.read=error");
  auto id = victim->SendQuery("SELECT Winner FROM BEATS WHERE Winner > 1");
  ASSERT_TRUE(id.ok());  // bytes sent; the server's read explodes
  auto resp = victim->ReadResponse();
  EXPECT_FALSE(resp.ok());  // connection died
  gov::FailPoints::Global().Clear();
  // No wedge, no leak: sessions drain and new clients serve fine.
  for (int i = 0; i < 100; ++i) {
    if (server_->active_connections() == 0 &&
        server_->pending_queries() == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->active_connections(), 0u);
  EXPECT_EQ(server_->pending_queries(), 0u);
  EXPECT_GE(server_->GetStats().read_errors, 1u);
  auto fresh = Dial();
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->Query("SELECT Winner FROM BEATS WHERE Winner > 1").ok());
}

TEST_F(NetServerTest, WriteFailPointKillsConnectionOnResponse) {
  StartServer();
  auto victim = Dial();
  ASSERT_NE(victim, nullptr);
  gov::FailPoints::Global().Configure("net.write=error@1");
  auto r = victim->Query("SELECT Winner FROM BEATS WHERE Winner > 1");
  EXPECT_FALSE(r.ok());  // RESULT write was injected to fail; conn closed
  gov::FailPoints::Global().Clear();
  for (int i = 0; i < 100; ++i) {
    if (server_->active_connections() == 0 &&
        server_->pending_queries() == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->active_connections(), 0u);
  EXPECT_EQ(server_->pending_queries(), 0u);
  EXPECT_GE(server_->GetStats().write_errors, 1u);
  auto fresh = Dial();
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->Query("SELECT Winner FROM BEATS WHERE Winner > 1").ok());
}

// Graceful shutdown with drain: in-flight queries still get their RESULT
// frames; afterwards the port stops accepting.
TEST_F(NetServerTest, GracefulShutdownDrainsInFlight) {
  srv::ServiceOptions service_options;
  service_options.test_delay_marker = "BEATS";
  service_options.test_delay_ns = 120'000'000ULL;
  StartServer(service_options);
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  auto id = client->SendQuery("SELECT Winner FROM BEATS WHERE Winner > 2");
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  std::thread shutdown([&] { server_->Shutdown(/*drain=*/true); });
  auto resp = client->ReadResponse();
  shutdown.join();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->result.ok) << resp->result.error;
  EXPECT_EQ(server_->pending_queries(), 0u);

  Client::Options copts;
  copts.port = server_->port();
  EXPECT_FALSE(Client::Connect(copts).ok());
}

// A client that connects, floods requests, and never reads a single reply:
// the write deadline must fail the stalled send and close that one
// connection instead of wedging the poller (STATS replies are written
// inline from the poller thread) — and Shutdown in TearDown must still
// complete.
TEST_F(NetServerTest, SlowReaderHitsWriteTimeoutWithoutWedgingPoller) {
  ServerOptions options;
  options.write_timeout_ms = 200;
  StartServer({}, options);

  // Raw socket with a tiny receive buffer so the reply path fills the
  // kernel buffers after a handful of STATS_RESULT frames.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Hello hello;
  hello.client_name = "flood";
  std::string frame;
  AppendFrame(MsgType::kHello, 1, EncodeHello(hello), &frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  char buf[256];
  ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0);  // HELLO_OK (unparsed)

  // Flood STATS requests and never read a reply. The server answers each
  // inline from the poller until the buffers fill; then the deadline
  // fires and the connection is torn down.
  std::string one;
  AppendFrame(MsgType::kStats, 2, "", &one);
  std::string burst;
  for (int i = 0; i < 100; ++i) burst += one;
  for (int i = 0; i < 20; ++i) {
    if (::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL) < 0) break;
  }

  for (int i = 0; i < 400 && server_->active_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->active_connections(), 0u);
  EXPECT_GE(server_->GetStats().write_errors, 1u);
  ::close(fd);
  // The poller survived: a fresh client connects and serves.
  auto fresh = Dial();
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->Query("SELECT Winner FROM BEATS WHERE Winner > 1").ok());
}

// Shutdown(drain=true) against a client that keeps pipelining QUERYs: the
// drain must terminate (new QUERYs are refused with a failed RESULT), so
// this test completing at all is the assertion — a regression hangs it.
TEST_F(NetServerTest, DrainTerminatesAgainstPipeliningClient) {
  srv::ServiceOptions service_options;
  service_options.test_delay_marker = "BEATS";
  service_options.test_delay_ns = 60'000'000ULL;
  StartServer(service_options);
  auto client = Dial();
  ASSERT_NE(client, nullptr);

  std::atomic<bool> stop{false};
  std::thread pipeliner([&] {
    for (int i = 0; i < 2000 && !stop.load(); ++i) {
      if (!client->SendQuery("SELECT Winner FROM BEATS WHERE Winner > 3")
               .ok()) {
        break;  // connection closed by the completed shutdown
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Shutdown(/*drain=*/true);
  stop.store(true);
  pipeliner.join();
  EXPECT_EQ(server_->pending_queries(), 0u);
  // The drain window saw at least one QUERY turned away.
  EXPECT_GE(server_->GetStats().drain_rejected, 1u);
}

// Shutdown(drain=false) cancels what is in flight instead of awaiting it:
// it returns long before the query's injected delay would end, with
// nothing left pending and no RESULT sent.
TEST_F(NetServerTest, ShutdownWithoutDrainCancelsInFlightQuery) {
  srv::ServiceOptions service_options;
  service_options.test_delay_marker = "BEATS";
  service_options.test_delay_ns = 10'000'000'000ULL;
  StartServer(service_options);
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendQuery("SELECT Winner FROM BEATS WHERE Winner > 2")
                  .ok());
  for (int i = 0; i < 100 && server_->pending_queries() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server_->pending_queries(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown(/*drain=*/false);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  EXPECT_LT(ms, 5000) << "Shutdown waited out the delay";
  EXPECT_EQ(server_->pending_queries(), 0u);
  EXPECT_FALSE(client->ReadResponse().ok());  // closed without a RESULT
  const std::vector<srv::QueryRecord> recent = service_->RecentQueries(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_NE(recent[0].error.find("cancel"), std::string::npos)
      << recent[0].error;
}

// A query that outlives drain_timeout_ms is cancelled when the drain
// window closes: Shutdown(drain=true) returns after about the timeout, not
// after the query's delay, and the straggler's RESULT is never sent.
TEST_F(NetServerTest, DrainTimeoutCancelsStraggler) {
  srv::ServiceOptions service_options;
  service_options.test_delay_marker = "BEATS";
  service_options.test_delay_ns = 10'000'000'000ULL;
  ServerOptions options;
  options.drain_timeout_ms = 100;
  StartServer(service_options, options);
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendQuery("SELECT Winner FROM BEATS WHERE Winner > 2")
                  .ok());
  for (int i = 0; i < 100 && server_->pending_queries() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server_->pending_queries(), 1u);

  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown(/*drain=*/true);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  EXPECT_GE(ms, 95) << "the drain window closed early";
  EXPECT_LT(ms, 5000) << "Shutdown waited out the delay";
  EXPECT_EQ(server_->pending_queries(), 0u);
  EXPECT_FALSE(client->ReadResponse().ok());  // closed without a RESULT
  const std::vector<srv::QueryRecord> recent = service_->RecentQueries(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_NE(recent[0].error.find("cancel"), std::string::npos)
      << recent[0].error;
}

// One client pipelines QUERY frames totalling many times the frame cap and
// the poller's per-pass read budget, and keeps going until a second
// client's STATS round trip completes: the poller reads the burst over
// many passes, answers every frame with a RESULT (served or shed), and
// serves the other connection in between.
TEST_F(NetServerTest, PipelinedBurstIsAnsweredWhileOtherClientsAreServed) {
  constexpr size_t kCap = 4 << 10;
  constexpr int kMinFrames = 256;  // ~256 KiB: several read budgets
  constexpr int kMaxFrames = 20'000;
  ServerOptions options;
  options.max_frame_bytes = kCap;
  StartServer({}, options);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string hello;
  AppendFrame(MsgType::kHello, 1, EncodeHello(Hello{}), &hello);
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  timeval timeout{20, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  QueryMsg query;
  query.esql = "SELECT Winner FROM BEATS WHERE Winner > 1" +
               std::string(1000, ' ');

  std::atomic<bool> stats_done{false};
  std::atomic<bool> writer_done{false};
  std::atomic<int> sent{0};
  std::thread writer([&] {
    for (int i = 0; i < kMaxFrames; ++i) {
      if (i >= kMinFrames && stats_done.load()) break;
      std::string frame;
      AppendFrame(MsgType::kQuery, 2 + i, EncodeQuery(query), &frame);
      if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(frame.size())) {
        break;
      }
      sent.store(i + 1);
    }
    writer_done.store(true);
  });
  std::vector<int> results(kMaxFrames, 0);
  int other_frames = 0;
  std::thread reader([&] {
    std::string inbuf;
    int received = 0;
    char buf[16384];
    while (!writer_done.load() || received < sent.load()) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return;  // closed or timed out: the counts below fail
      inbuf.append(buf, static_cast<size_t>(n));
      Frame frame;
      while (NextFrame(&inbuf, kDefaultMaxFrameBytes, &frame, nullptr) ==
             FrameStatus::kOk) {
        const uint64_t slot = frame.request_id - 2;
        if (frame.type == MsgType::kResult && slot < results.size()) {
          ++results[slot];
          ++received;
        } else if (frame.type != MsgType::kHelloOk) {
          ++other_frames;
        }
      }
    }
  });

  for (int i = 0; i < 500 && sent.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // No fatal assertion until both threads are joined.
  auto other = Dial();
  Result<std::string> stats = Status::RuntimeError("second client failed");
  if (other != nullptr) stats = other->Stats();
  stats_done.store(true);
  writer.join();
  reader.join();
  ::close(fd);

  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("net_bytes_read"), std::string::npos);
  EXPECT_LT(sent.load(), kMaxFrames) << "STATS waited out the burst";
  ASSERT_GE(sent.load(), kMinFrames);
  EXPECT_EQ(other_frames, 0);
  for (int i = 0; i < sent.load(); ++i) {
    EXPECT_EQ(results[i], 1) << "request " << 2 + i;
  }
  EXPECT_GE(server_->GetStats().bytes_read,
            static_cast<uint64_t>(sent.load()) * (kFrameHeaderBytes + 1000));
}

// Tenant ids key per-tenant server state, so an oversize one is refused
// at the handshake.
TEST_F(NetServerTest, OversizeTenantIdRejectedAtHello) {
  StartServer();
  Client::Options copts;
  copts.port = server_->port();
  copts.tenant = std::string(kMaxTenantIdBytes + 1, 't');
  EXPECT_FALSE(Client::Connect(copts).ok());
  EXPECT_GE(server_->GetStats().protocol_errors, 1u);
  // A tenant id at the cap is fine.
  auto ok = Dial(std::string(kMaxTenantIdBytes, 't'));
  EXPECT_NE(ok, nullptr);
}

TEST_F(NetServerTest, TenantRidesHelloIntoAdmission) {
  StartServer();
  auto client = Dial("analytics");
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Query("SELECT Winner FROM BEATS WHERE Winner > 7").ok());
  srv::ServiceStats stats = service_->GetStats();
  EXPECT_EQ(stats.tenant_admitted["analytics"], 1u);
}

}  // namespace
}  // namespace eds::net
