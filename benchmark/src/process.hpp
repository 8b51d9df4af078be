// Child processes: every measured pass runs in a fresh process so its
// wall time and peak RSS (wait4 ru_maxrss) belong to that pass alone.
// Every child is reaped before the call that started it returns, and a
// child still running at its deadline is killed.
#pragma once

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

namespace hb {

struct ChildResult {
  int status = -1;          // waitpid status
  bool timed_out = false;   // killed at the deadline
  double wall_s = 0.0;      // fork to reap
  double peak_rss_mb = 0.0;
  std::string out;          // captured stdout
  std::string err;          // captured stderr

  bool ok() const;
  /// "exit code N" / "killed by signal N" / "timed out", "" when ok().
  std::string why() const;
};

/// Run argv[0] with argv to completion, capturing stdout and stderr.
/// `deadline` is an absolute now_s() time.
ChildResult run_child(const std::vector<std::string>& argv, double deadline);

/// A child spoken to line by line over stdin/stdout (halo_sweep --serve);
/// its stderr is inherited.
class LineSession {
 public:
  explicit LineSession(const std::vector<std::string>& argv);
  ~LineSession();
  LineSession(const LineSession&) = delete;
  LineSession& operator=(const LineSession&) = delete;

  /// Send one line and wait for one reply line. False on EOF, I/O error
  /// or deadline.
  bool request(std::string_view line, std::string& reply, double deadline);
  /// Close the child's stdin, drain its stdout, reap it.
  ChildResult finish(double deadline);

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  int in_fd_ = -1;   // child's stdin
  int out_fd_ = -1;  // child's stdout
  double start_ = 0.0;
  std::string buffer_;
};

}  // namespace hb
