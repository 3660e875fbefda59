#ifndef EDS_BENCH_E2E_SERVER_PROCESS_H_
#define EDS_BENCH_E2E_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace e2e {

// The server side of the benchmark, run as its own process
// (bench_e2e --serve): the database built from `seed`, a QueryService with
// library-default options except workers=2 and persistence to
// `persist_path` (saved only at shutdown), and a net::Server on an
// ephemeral loopback port. Prints "PORT <n>" once listening, serves until
// SIGTERM, drains, saves the caches, prints "RSS_KB <peak resident KB>" and
// returns the exit code. Exits by itself if `parent` dies.
int ServeMain(uint64_t seed, const std::string& persist_path, pid_t parent);

// A launched server process, owned by the load generator. The destructor
// kills and reaps a process that was never waited for.
class ServerProcess {
 public:
  // Spawns `self` (this binary) in --serve mode and waits for its port.
  // Throws if it cannot start.
  ServerProcess(const std::string& self, uint64_t seed,
                const std::string& persist_path);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  // SIGTERM (graceful drain + final cache save) and reap. Returns the
  // server's peak resident set in KB. Throws if it did not exit cleanly.
  long Stop();

 private:
  std::string ReadLine();

  pid_t pid_ = -1;
  int out_fd_ = -1;  // read end of the child's stdout
  std::string buffered_;
  uint16_t port_ = 0;
};

}  // namespace e2e

#endif  // EDS_BENCH_E2E_SERVER_PROCESS_H_
