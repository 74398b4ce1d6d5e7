#include "host.hpp"

#include <dirent.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kStates = 24;
constexpr std::size_t kBurstSteps = 500;
constexpr auto kProbePeriod = std::chrono::milliseconds(50);

volatile double g_step_sink = 0.0;

}  // namespace

double reference_step_ns(std::size_t steps) {
  double transition[kStates * kStates];
  double alpha[kStates];
  double next[kStates];
  for (std::size_t i = 0; i < kStates * kStates; ++i) {
    transition[i] = 1.0 / static_cast<double>(1 + i % 7);
  }
  for (std::size_t i = 0; i < kStates; ++i) alpha[i] = 1.0 / kStates;
  const double start = perfbench::thread_cpu_seconds();
  for (std::size_t step = 0; step < steps; ++step) {
    for (std::size_t j = 0; j < kStates; ++j) next[j] = 0.0;
    for (std::size_t i = 0; i < kStates; ++i) {
      const double a = alpha[i];
      for (std::size_t j = 0; j < kStates; ++j) next[j] += a * transition[i * kStates + j];
    }
    double scale = 0.0;
    for (std::size_t j = 0; j < kStates; ++j) scale += next[j];
    for (std::size_t j = 0; j < kStates; ++j) alpha[j] = next[j] / scale;
  }
  g_step_sink = g_step_sink + alpha[0];
  return (perfbench::thread_cpu_seconds() - start) * 1e9 / static_cast<double>(steps);
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ids.push_back(std::atoi(entry->d_name));
  }
  ::closedir(dir);
  return ids;
}

double thread_cpu_seconds(int tid) {
  // The kernel's per-thread CPU clock id: MAKE_THREAD_CPUCLOCK(tid, SCHED).
  const auto clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

bool pin_thread(int tid, int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  return ::sched_setaffinity(tid, sizeof(mask), &mask) == 0;
}

namespace {

/// The CPUs the process may use, as the first call found them: the host's
/// CPUs, not a narrower mask a ThreadMask put on the calling thread.
const cpu_set_t& host_cpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  return cpus;
}

}  // namespace

void record_host_cpus() { (void)host_cpus(); }

ThreadMask::ThreadMask(const std::vector<int>& cpus) {
  static_assert(sizeof(cpu_set_t) <= sizeof(saved_));
  cpu_set_t saved;
  if (::sched_getaffinity(0, sizeof(saved), &saved) != 0) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) {
    if (!CPU_ISSET(cpu, &host_cpus())) return;
    CPU_SET(cpu, &mask);
  }
  if (::sched_setaffinity(0, sizeof(mask), &mask) == 0) {
    std::memcpy(saved_, &saved, sizeof(saved));
    applied_ = true;
  }
}

ThreadMask::~ThreadMask() {
  if (!applied_) return;
  cpu_set_t saved;
  std::memcpy(&saved, saved_, sizeof(saved));
  ::sched_setaffinity(0, sizeof(saved), &saved);
}

HostSpeed::HostSpeed(std::vector<int> cpus)
    : cpus_(std::move(cpus)), samples_(cpus_.size()), tids_(cpus_.size()) {
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    threads_.emplace_back([this, i] { probe(i); });
  }
  while (started_.load() < cpus_.size()) std::this_thread::yield();
}

HostSpeed::~HostSpeed() {
  stop_.store(true);
  for (auto& thread : threads_) thread.join();
}

void HostSpeed::probe(std::size_t index) {
  tids_[index] = static_cast<int>(::gettid());
  started_.fetch_add(1);
  pin_thread(tids_[index], cpus_[index]);
  while (!stop_.load()) {
    const double t = wall_seconds();
    const double step_ns = reference_step_ns(kBurstSteps);
    {
      const std::lock_guard lock(mu_);
      samples_[index].push_back({t, step_ns});
    }
    std::this_thread::sleep_for(kProbePeriod);
  }
}

double HostSpeed::factor(int cpu, double t0, double t1) const {
  const std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    if (cpus_[i] != cpu || samples_[i].empty()) continue;
    // The median, not the mean: a burst the hypervisor preempted reads
    // several times too slow and would drag a mean with it.
    std::vector<double> inside;
    const Sample* nearest = &samples_[i].front();
    double nearest_gap = std::numeric_limits<double>::infinity();
    for (const Sample& sample : samples_[i]) {
      if (sample.t >= t0 && sample.t <= t1) inside.push_back(sample.step_ns);
      const double gap = std::abs(sample.t - 0.5 * (t0 + t1));
      if (gap < nearest_gap) {
        nearest_gap = gap;
        nearest = &sample;
      }
    }
    const double step_ns = inside.empty() ? nearest->step_ns : median(std::move(inside));
    return step_ns / kNominalStepNs;
  }
  return 1.0;
}

double HostSpeed::factor(const std::vector<int>& cpus, double t0, double t1) const {
  if (cpus.empty()) return 1.0;
  double sum = 0.0;
  for (const int cpu : cpus) sum += factor(cpu, t0, t1);
  return sum / static_cast<double>(cpus.size());
}

}  // namespace perfbench
