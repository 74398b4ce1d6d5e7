// Thread placement and the host-speed reference.
//
// The benchmark host is a shared 4-vCPU virtual machine each of whose CPUs
// switches between speeds about 1.5x apart for seconds at a time, and
// hardware counters are unavailable. So every run pins its threads to a
// fixed layout and, on each CPU that does program work, times a fixed
// benchmark-owned computation (the reference step) every 50 ms. Its speed
// factor, measured step time / kNominalStepNs, corrects the time-valued
// metrics (main.cpp: slice_correction() per CPU for the serving rate and
// CPU, correction() for the rest). The reference never calls the program.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// CPU layout of a run: the load generator, the server's epoll loop (with
/// its acceptor), and the server's scoring worker each own one CPU.
inline constexpr int kGeneratorCpu = 0;
inline constexpr int kLoopCpu = 1;
inline constexpr int kWorkerCpu = 2;
/// The CPUs set-up and the offline build run on (model training uses two
/// threads there).
inline const std::vector<int> kServerCpus{kLoopCpu, kWorkerCpu};

/// Step time of the nominal host: the reference step's typical cost on the
/// 4-vCPU Xeon host the benchmark was written on.
inline constexpr double kNominalStepNs = 250.0;

/// Thread CPU nanoseconds per reference step over `steps` steps on the
/// calling thread. A step is one scaled forward step of a fixed 24-state
/// HMM (576 multiply-adds and a normalisation), the shape of the program's
/// scoring work.
double reference_step_ns(std::size_t steps);

/// Kernel thread ids of this process.
std::vector<int> thread_ids();
/// CPU seconds thread `tid` of this process has consumed.
double thread_cpu_seconds(int tid);
/// Pins thread `tid` of this process to `cpu`; false when refused.
bool pin_thread(int tid, int cpu);

/// Records the CPUs the process may use. Call it first thing in main(),
/// before any ThreadMask narrows the main thread.
void record_host_cpus();

/// Restricts the calling thread to `cpus` for its lifetime (threads it
/// creates inherit the mask), then restores the previous mask. A mask may
/// widen the calling thread's: it is checked against the host's CPUs (see
/// record_host_cpus), and does nothing when the host lacks any of them.
class ThreadMask {
 public:
  explicit ThreadMask(const std::vector<int>& cpus);
  ~ThreadMask();
  ThreadMask(const ThreadMask&) = delete;
  ThreadMask& operator=(const ThreadMask&) = delete;

 private:
  bool applied_ = false;
  unsigned char saved_[128] = {};  ///< the previous cpu_set_t
};

/// Runs a pinned reference thread on each given CPU, timing a 500-step
/// burst every 50 ms (about 0.3% of the CPU).
class HostSpeed {
 public:
  explicit HostSpeed(std::vector<int> cpus);
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Speed factor of CPU `cpu` over wall interval [t0, t1]: the mean
  /// measured step time there over kNominalStepNs (above 1 = slower than
  /// nominal). Uses the nearest measurement when none falls inside; 1.0
  /// when the CPU was never measured.
  double factor(int cpu, double t0, double t1) const;
  /// Mean factor of `cpus` over [t0, t1].
  double factor(const std::vector<int>& cpus, double t0, double t1) const;
  /// Kernel thread ids of the probe threads (their CPU is not the
  /// program's).
  const std::vector<int>& probe_tids() const { return tids_; }

 private:
  struct Sample {
    double t = 0.0;
    double step_ns = 0.0;
  };
  void probe(std::size_t index);

  std::vector<int> cpus_;
  mutable std::mutex mu_;
  std::vector<std::vector<Sample>> samples_;  ///< per CPU; guarded by mu_
  std::vector<int> tids_;
  std::atomic<std::size_t> started_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
