#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "database.h"
#include "net/server.h"
#include "srv/service.h"

extern char** environ;

namespace e2e {

namespace {

// How long the load generator waits for the server to report its port or
// its exit before declaring the run failed.
constexpr int kLineTimeoutMs = 60'000;

std::runtime_error SysError(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

int ServeMain(uint64_t seed, const std::string& persist_path, pid_t parent) {
  // Exit with the load generator instead of lingering as an orphan.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() != parent) return 1;
  // Block the stop signals before any thread exists, so every thread
  // inherits the mask and only the sigwait below ever sees them.
  sigset_t stop;
  sigemptyset(&stop);
  sigaddset(&stop, SIGTERM);
  sigaddset(&stop, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop, nullptr);

  Database db = BuildDatabase(seed);
  eds::srv::ServiceOptions options;
  options.workers = 2;
  options.persist_path = persist_path;
  options.persist_interval_ms = 0;
  eds::srv::QueryService service(db.session.get(), options);
  Check(service.Start(), "service start");
  eds::net::Server server(&service, eds::net::ServerOptions{});
  Check(server.Start(), "server start");
  std::printf("PORT %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  int sig = 0;
  sigwait(&stop, &sig);
  server.Shutdown(/*drain=*/true);
  service.Stop();  // writes the persist file

  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  std::printf("RSS_KB %ld\n", usage.ru_maxrss);
  std::fflush(stdout);
  return 0;
}

ServerProcess::ServerProcess(const std::string& self, uint64_t seed,
                             const std::string& persist_path) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw SysError("pipe2");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  const std::string seed_arg = std::to_string(seed);
  const std::string parent_arg = std::to_string(::getpid());
  std::vector<std::string> args = {self,         "--serve",  "--seed",
                                   seed_arg,     "--persist", persist_path,
                                   "--parent",   parent_arg};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, self.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    errno = rc;
    throw SysError("posix_spawn " + self);
  }
  const std::string line = ReadLine();
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "PORT %u", &port) != 1 || port == 0 ||
      port > 65535) {
    throw std::runtime_error("server did not report a port: '" + line + "'");
  }
  port_ = static_cast<uint16_t>(port);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

std::string ServerProcess::ReadLine() {
  for (;;) {
    const size_t nl = buffered_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffered_.substr(0, nl);
      buffered_.erase(0, nl + 1);
      return line;
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kLineTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("server process timed out");
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server process exited early");
    buffered_.append(buf, static_cast<size_t>(n));
  }
}

long ServerProcess::Stop() {
  if (pid_ <= 0) throw std::runtime_error("server already stopped");
  if (::kill(pid_, SIGTERM) != 0) throw SysError("kill");
  const std::string line = ReadLine();
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) throw SysError("waitpid");
  }
  pid_ = -1;
  long rss_kb = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(line.c_str(), "RSS_KB %ld", &rss_kb) != 1) {
    throw std::runtime_error("server did not shut down cleanly: '" + line +
                             "'");
  }
  return rss_kb;
}

}  // namespace e2e
