// Host-speed reference for the end-to-end timings.
//
// On a shared host the whole machine slows by 20-50% for a minute or two
// at a time (other tenants' load), which is longer than one run, so no
// median over a run's passes removes it. Each untraced pass therefore
// comes with the time of a fixed reference kernel measured while it ran,
// and its timings are scaled by kHostReferenceMs / that time: they read as
// the times the pass would take on a host where the kernel takes
// kHostReferenceMs. The kernel is the benchmark's own code, built as a
// target of its own with fixed flags, so no change to the simulator or to
// its build can move it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hb {

/// The kernel's time on a quiet host (4-core Xeon, gcc 12.2, -O2); it
/// only sets the scale of the corrected timings.
inline constexpr double kHostReferenceMs = 15.0;

/// The median of three timed runs of the reference kernel, in ms: a
/// sample taken between passes. The kernel (a float pair-force loop, a
/// timestamp priority queue and first-touch page faults) is shaped like
/// the simulator's hot paths.
double host_reference_ms();

/// Runs the kernel on a thread of its own from construction to stop(),
/// idle three kernel times after each run (a quarter of one core), so
/// the samples cover the whole of a pass that runs beside it. Only for
/// passes that leave a core free.
class HostSampler {
 public:
  HostSampler();
  ~HostSampler();
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  /// Stop sampling; the median of the kernel runs, in ms (at least one).
  /// Rethrows a failure of the kernel (it maps memory).
  double stop();

 private:
  void loop();
  void halt();  // stop the thread and join it

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<double> samples_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace hb
