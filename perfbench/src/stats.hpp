// The benchmark's own measurement helpers: percentiles with the
// ten-samples-beyond rule, clocks, server-CPU accounting, peak-RSS reset,
// host diagnostics and failure counting. Kept free of cmarkov types so the
// unit test in tests/stats_test.cpp exercises them in isolation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- percentiles ---------------------------------------------------------

/// One order statistic and the sample it came from.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly above its rank
};

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank q-quantile (0 < q < 1): the value at 1-based rank
/// ceil(q * n) of the sorted sample. Returns nullopt when fewer than
/// kMinBeyond samples lie beyond that rank — the sample does not support
/// the percentile.
std::optional<Percentile> percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample (mean of the two middle values for even n).
double median(std::vector<double> samples);

/// Splits the sample, in arrival order, into consecutive chunks of `chunk`
/// values (a shorter tail is dropped), takes the q-quantile of each chunk
/// and returns the median of those. A stall that spans a few chunks moves
/// only their quantiles, not the median. `samples` counts the values used,
/// `beyond` the values beyond the quantile in each chunk. nullopt when no
/// whole chunk exists or a chunk does not support q.
std::optional<Percentile> chunked_percentile(const std::vector<double>& samples,
                                             std::size_t chunk, double q);

// ---- clocks --------------------------------------------------------------

double wall_seconds();          ///< CLOCK_MONOTONIC
double process_cpu_seconds();   ///< CLOCK_PROCESS_CPUTIME_ID
double thread_cpu_seconds();    ///< CLOCK_THREAD_CPUTIME_ID of the caller

/// CPU clocks read together on the load generator's thread: the whole
/// process, the generator thread itself, the benchmark's other own threads
/// (the host-speed reference probes), and the program's scoring workers (a
/// part of the program's CPU, not taken from it).
struct CpuSample {
  double process = 0.0;
  double generator = 0.0;
  double benchmark = 0.0;
  double worker = 0.0;
};
/// Must be called on the generator thread; `benchmark_tids` are the
/// benchmark's other threads, `worker_tids` the program's scoring workers.
CpuSample sample_cpu(const std::vector<int>& benchmark_tids,
                     const std::vector<int>& worker_tids = {});

/// CPU the program spent between two samples: process CPU minus the
/// generator's and the benchmark's other threads' (never negative). Every
/// thread the program runs counts, whenever it was created.
double server_cpu_seconds(const CpuSample& begin, const CpuSample& end);

/// Cumulative counters at one slice boundary of a measured phase.
struct SliceMark {
  double t = 0.0;
  std::uint64_t events = 0;
  CpuSample cpu;
};

/// Host-speed correction over the wall interval [t0, t1]: times are divided
/// by it and rates multiplied (1 = as measured).
using SpeedCorrection = std::function<double(double t0, double t1)>;

/// Host-speed factors of a slice (1 = nominal, above 1 = slower): of the
/// CPU the scoring workers run on, and of the CPU the rest of the program
/// (epoll loop, acceptor, any thread started later) runs on.
struct SliceFactors {
  double worker = 1.0;
  double rest = 1.0;
};
using SliceCorrection = std::function<SliceFactors(double t0, double t1)>;

struct SliceMedians {
  double events_per_s = 0.0;
  double cpu_us_per_event = 0.0;  ///< server CPU per event
  std::size_t slices = 0;         ///< slices with events
};

/// Events per second and server CPU per event, each the median over the
/// slices between consecutive marks that saw events, so a stall of a slice
/// or two does not set the figure. Each part of a slice's server CPU (the
/// workers', the rest) is divided by the factor of the CPU it ran on. The
/// slice's rate is multiplied by the factor of the busier part: the closed
/// loop runs as fast as its busiest thread.
SliceMedians slice_medians(const std::vector<SliceMark>& marks,
                           const SliceCorrection& correction);

// ---- memory --------------------------------------------------------------

/// Resets the process's peak resident set (VmHWM) to its current RSS by
/// writing "5" to /proc/self/clear_refs. False when the kernel refuses.
bool reset_peak_rss();
/// VmHWM from /proc/self/status, in bytes (0 when unreadable).
std::uint64_t peak_rss_bytes();
/// VmRSS from /proc/self/status, in bytes (0 when unreadable).
std::uint64_t current_rss_bytes();
/// Parses the "<key>: <n> kB" line of a /proc status text; 0 if absent.
std::uint64_t parse_status_kib(std::string_view status, std::string_view key);

// ---- host diagnostics ----------------------------------------------------

/// Aggregate /proc/stat cpu jiffies.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Share of all CPU time the hypervisor stole between two readings.
double steal_share(const CpuTimes& begin, const CpuTimes& end);

// ---- failure accounting --------------------------------------------------

/// Operations attempted and failed over one run. A failed operation is an
/// event refused, dropped or evicted_dropped, an ERR or kError reply, a
/// HELLO the governor refused, or a verdict mismatch.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Events handed to the server: all attempted; refused, dropped and
  /// evicted_dropped ones failed.
  void add_events(std::uint64_t sent, std::uint64_t rejected,
                  std::uint64_t dropped, std::uint64_t evicted_dropped);
  /// One request answered by `reply` (its text); failed when the server
  /// answered with an error frame or an "ERR" line.
  void add_reply(std::string_view reply, bool error_frame);
  /// One verdict comparison; failed when the two sides disagree.
  void add_check(bool matched);
  void merge(const OpCounts& other);
};

// ---- output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_json(bool correct, const OpCounts& ops,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
