#include "process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "common.hpp"

namespace hb {

namespace {

int poll_timeout_ms(double deadline) {
  const double left_ms = (deadline - now_s()) * 1e3;
  if (left_ms <= 0.0) return 0;
  return static_cast<int>(std::min(left_ms + 1.0, 1e9));
}

void make_pipe(int fds[2]) {
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
}

/// fork + execv with the given descriptors as stdin/stdout/stderr (-1 =
/// inherit). Pipes are O_CLOEXEC, so the child keeps only 0-2.
pid_t spawn(const std::vector<std::string>& argv, int in_fd, int out_fd,
            int err_fd) {
  std::vector<std::string> args = argv;
  std::vector<char*> cargv;
  for (std::string& a : args) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::signal(SIGPIPE, SIG_DFL);
    if (in_fd >= 0) ::dup2(in_fd, 0);
    if (out_fd >= 0) ::dup2(out_fd, 1);
    if (err_fd >= 0) ::dup2(err_fd, 2);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  return pid;
}

void reap(pid_t pid, ChildResult& result) {
  struct rusage usage {};
  int status = 0;
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.status = status;
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

bool ChildResult::ok() const {
  return !timed_out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string ChildResult::why() const {
  if (timed_out) return "timed out";
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    return code == 0 ? "" : "exit code " + std::to_string(code);
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "wait status " + std::to_string(status);
}

ChildResult run_child(const std::vector<std::string>& argv, double deadline) {
  int out[2];
  int err[2];
  make_pipe(out);
  make_pipe(err);
  ChildResult result;
  const double start = now_s();
  const pid_t pid = spawn(argv, -1, out[1], err[1]);
  ::close(out[1]);
  ::close(err[1]);
  pollfd fds[2] = {{out[0], POLLIN, 0}, {err[0], POLLIN, 0}};
  std::string* sinks[2] = {&result.out, &result.err};
  int open = 2;
  char buf[1 << 16];
  while (open > 0) {
    const int n = ::poll(fds, 2, poll_timeout_ms(deadline));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      result.timed_out = n == 0;
      ::kill(pid, SIGKILL);
      break;
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      const ssize_t k = ::read(fds[i].fd, buf, sizeof buf);
      if (k > 0) {
        sinks[i]->append(buf, static_cast<std::size_t>(k));
      } else if (k == 0 || errno != EINTR) {
        ::close(fds[i].fd);
        fds[i].fd = -1;
        --open;
      }
    }
  }
  for (const pollfd& p : fds) {
    if (p.fd >= 0) ::close(p.fd);
  }
  reap(pid, result);
  result.wall_s = now_s() - start;
  return result;
}

LineSession::LineSession(const std::vector<std::string>& argv) {
  int in[2];
  int out[2];
  make_pipe(in);
  make_pipe(out);
  start_ = now_s();
  pid_ = spawn(argv, in[0], out[1], -1);
  ::close(in[0]);
  ::close(out[1]);
  in_fd_ = in[1];
  out_fd_ = out[0];
  // request() spins on a non-blocking read instead of sleeping in poll():
  // a sleeping client adds its own wake-up latency, about 10% of a cache
  // hit's round trip, to every sample.
  ::fcntl(out_fd_, F_SETFL, O_NONBLOCK);
}

LineSession::~LineSession() {
  if (in_fd_ >= 0) ::close(in_fd_);
  if (out_fd_ >= 0) ::close(out_fd_);
  if (pid_ > 0) kill_and_reap();
}

void LineSession::kill_and_reap() {
  ::kill(pid_, SIGKILL);
  ChildResult ignored;
  reap(pid_, ignored);
  pid_ = -1;
}

bool LineSession::request(std::string_view line, std::string& reply,
                          double deadline) {
  std::string msg(line);
  msg += '\n';
  std::size_t sent = 0;
  while (sent < msg.size()) {
    const ssize_t k = ::write(in_fd_, msg.data() + sent, msg.size() - sent);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    sent += static_cast<std::size_t>(k);
  }
  char buf[1 << 16];
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      reply.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const ssize_t k = ::read(out_fd_, buf, sizeof buf);
    if (k > 0) {
      buffer_.append(buf, static_cast<std::size_t>(k));
    } else if (k == 0 || (errno != EAGAIN && errno != EINTR) ||
               now_s() > deadline) {
      return false;
    }
  }
}

ChildResult LineSession::finish(double deadline) {
  ::close(in_fd_);
  in_fd_ = -1;
  ChildResult result;
  char buf[1 << 16];
  for (;;) {
    pollfd p{out_fd_, POLLIN, 0};
    const int n = ::poll(&p, 1, poll_timeout_ms(deadline));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      result.timed_out = n == 0;
      ::kill(pid_, SIGKILL);
      break;
    }
    const ssize_t k = ::read(out_fd_, buf, sizeof buf);
    if (k < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (k <= 0) break;
    buffer_.append(buf, static_cast<std::size_t>(k));
  }
  ::close(out_fd_);
  out_fd_ = -1;
  result.out = std::move(buffer_);
  reap(pid_, result);
  pid_ = -1;
  result.wall_s = now_s() - start_;
  return result;
}

}  // namespace hb
