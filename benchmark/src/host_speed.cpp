#include "host_speed.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

namespace hb {

namespace {

constexpr int kParticles = 1024;      // pair loop: 1024^2 interactions
constexpr int kEvents = 60000;        // priority queue: pushes and pops
constexpr std::size_t kPagesMb = 8;   // first-touch page faults
/// The sampler idles this many kernel times between two samples.
constexpr double kIdleRatio = 3.0;

double seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 17;
}

/// Lennard-Jones-like forces over every pair of a fixed particle cloud.
double pair_forces() {
  std::vector<float> x(kParticles), y(kParticles), z(kParticles);
  std::uint64_t s = 7;
  for (int i = 0; i < kParticles; ++i) {
    x[i] = static_cast<float>(lcg(s) % 1000) * 1e-2f;
    y[i] = static_cast<float>(lcg(s) % 1000) * 1e-2f;
    z[i] = static_cast<float>(lcg(s) % 1000) * 1e-2f;
  }
  double total = 0.0;
  for (int i = 0; i < kParticles; ++i) {
    float f = 0.0f;
    for (int j = 0; j < kParticles; ++j) {
      const float dx = x[i] - x[j];
      const float dy = y[i] - y[j];
      const float dz = z[i] - z[j];
      const float r2 = dx * dx + dy * dy + dz * dz + 0.25f;
      const float inv6 = 1.0f / (r2 * r2 * r2);
      f += inv6 * (inv6 - 1.0f) / std::sqrt(r2);
    }
    total += f;
  }
  return total;
}

/// A discrete-event style queue: each pop schedules a later event.
double event_queue() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::uint64_t s = 11;
  for (std::uint32_t i = 0; i < 4096; ++i) queue.emplace(lcg(s) % 100000, i);
  std::uint64_t sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Event e = queue.top();
    queue.pop();
    sum += e.second;
    queue.emplace(e.first + lcg(s) % 1000, e.second);
  }
  return static_cast<double>(sum % 1024);
}

/// Map fresh anonymous memory, touch every page, unmap.
double page_faults() {
  const std::size_t bytes = kPagesMb << 20;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("reference kernel: mmap failed");
  auto* bytes_p = static_cast<volatile unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; i += 4096) bytes_p[i] = 1;
  const double touched = bytes_p[bytes / 2];
  ::munmap(p, bytes);
  return touched;
}

std::atomic<double> g_sink{0.0};

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// One timed run of the reference kernel, in ms.
double host_kernel_ms() {
  const double start = seconds();
  const double result = pair_forces() + event_queue() + page_faults();
  const double ms = (seconds() - start) * 1e3;
  g_sink.store(g_sink.load(std::memory_order_relaxed) + result,
               std::memory_order_relaxed);
  return ms;
}

}  // namespace

double host_reference_ms() {
  return median_of({host_kernel_ms(), host_kernel_ms(), host_kernel_ms()});
}

HostSampler::HostSampler() : thread_([this] { loop(); }) {}

HostSampler::~HostSampler() {
  // Reached without stop() only while the pass itself is unwinding; its
  // exception is the one that propagates.
  if (thread_.joinable()) halt();
}

void HostSampler::loop() {
  try {
    std::unique_lock<std::mutex> lock(mutex_);
    do {  // at least one sample, however short the pass
      lock.unlock();
      const double ms = host_kernel_ms();
      lock.lock();
      samples_.push_back(ms);
      wake_.wait_for(lock,
                     std::chrono::duration<double, std::milli>(ms * kIdleRatio),
                     [this] { return stopping_; });
    } while (!stopping_);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    error_ = std::current_exception();
  }
}

void HostSampler::halt() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

double HostSampler::stop() {
  halt();
  if (error_) std::rethrow_exception(error_);
  return median_of(samples_);
}

}  // namespace hb
