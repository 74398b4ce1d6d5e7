// Unit test of the benchmark's own statistics code (src/stats.*, and the
// host-speed helpers of src/host.*). Checks stay active in every build
// type (no assert).
#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void burn(int iterations) {
  volatile double x = 0.0;
  for (int i = 0; i < iterations; ++i) x = x + 1e-9 * i;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile_reports_sample_count() {
  const auto p50 = perfbench::percentile(one_to(100), 0.5);
  CHECK(p50.has_value());
  CHECK(p50->value == 50.0);
  CHECK(p50->samples == 100);
  CHECK(p50->beyond == 50);
}

void test_ten_samples_beyond_rule() {
  // 1000 samples: rank 990, exactly ten beyond -> supported.
  const auto p99 = perfbench::percentile(one_to(1000), 0.99);
  CHECK(p99.has_value());
  CHECK(p99->value == 990.0);
  CHECK(p99->beyond == 10);
  // 999 samples: rank 990, nine beyond -> not supported.
  CHECK(!perfbench::percentile(one_to(999), 0.99).has_value());
  CHECK(!perfbench::percentile(one_to(100), 0.99).has_value());
  CHECK(!perfbench::percentile({}, 0.5).has_value());
  // 20 samples: the median has ten beyond it; 19 do not support it.
  CHECK(perfbench::percentile(one_to(20), 0.5).has_value());
  CHECK(!perfbench::percentile(one_to(19), 0.5).has_value());
}

void test_chunked_percentile() {
  // Three chunks of 100; the middle one is a stall (all values + 1000).
  std::vector<double> samples;
  for (int chunk = 0; chunk < 3; ++chunk) {
    for (int i = 1; i <= 100; ++i) samples.push_back(i + (chunk == 1 ? 1000 : 0));
  }
  samples.push_back(1e9);  // a partial fourth chunk is dropped
  const auto p50 = perfbench::chunked_percentile(samples, 100, 0.5);
  CHECK(p50.has_value());
  CHECK(p50->value == 50.0);  // the stalled chunk does not set the median
  CHECK(p50->samples == 300);
  CHECK(p50->beyond == 50);
  // Chunks too small for the quantile are rejected, not extrapolated.
  CHECK(!perfbench::chunked_percentile(samples, 100, 0.99).has_value());
  CHECK(!perfbench::chunked_percentile({1.0, 2.0}, 100, 0.5).has_value());
  CHECK(perfbench::median({3.0, 1.0, 2.0, 4.0}) == 2.5);
}

void test_server_cpu_subtraction() {
  // Process 10 s of CPU; the generator used 1 s and the probes 0.5 s.
  const perfbench::CpuSample begin{10.0, 2.0, 1.0};
  const perfbench::CpuSample end{20.0, 3.0, 1.5};
  CHECK(perfbench::server_cpu_seconds(begin, end) == 8.5);
  // Clock skew between the reads never yields negative server CPU.
  CHECK(perfbench::server_cpu_seconds({10.0, 2.0, 0.0}, {10.5, 3.0, 0.0}) == 0.0);

  // Live: CPU of the calling (generator) thread and of an excluded
  // benchmark thread is not server CPU; a thread started after the first
  // sample, and not excluded, is.
  std::atomic<int> tid{0};
  std::atomic<bool> stop{false};
  std::thread benchmark([&] {
    tid = static_cast<int>(::gettid());
    while (!stop.load()) burn(1000000);
  });
  while (tid.load() == 0) std::this_thread::yield();
  const std::vector<int> excluded{tid.load()};
  const perfbench::CpuSample a = perfbench::sample_cpu(excluded);
  burn(20000000);
  std::thread program([] { burn(40000000); });
  program.join();
  const perfbench::CpuSample b = perfbench::sample_cpu(excluded);
  stop = true;
  benchmark.join();
  const double generator = b.generator - a.generator;
  const double excluded_cpu = b.benchmark - a.benchmark;
  const double server = perfbench::server_cpu_seconds(a, b);
  CHECK(generator > 0.0);
  CHECK(excluded_cpu > 0.0);
  // The program thread burnt about twice the generator's CPU.
  CHECK(server > generator);
  CHECK(server < 0.9 * (b.process - a.process));
}

// The gated path: per-slice rate and server CPU, median over slices.
void test_slice_medians() {
  using perfbench::SliceMark;
  // Four one-second slices of 1000 events. Server CPU per slice (process
  // minus generator minus benchmark): 2 ms, 2 ms, 20 ms (a stall), 2 ms,
  // of which the worker ran 1.5 ms in every slice.
  std::vector<SliceMark> marks = {
      {0.0, 0, {0.000, 0.0, 0.0, 0.0}},
      {1.0, 1000, {0.004, 0.001, 0.001, 0.0015}},
      {2.0, 2000, {0.008, 0.002, 0.002, 0.0030}},
      {3.0, 3000, {0.030, 0.003, 0.003, 0.0045}},
      {4.0, 4000, {0.034, 0.004, 0.004, 0.0060}},
      {5.0, 4000, {0.035, 0.005, 0.004, 0.0060}},  // no events: skipped
  };
  const auto as_measured = [](double, double) { return perfbench::SliceFactors{}; };
  const perfbench::SliceMedians m = perfbench::slice_medians(marks, as_measured);
  CHECK(m.slices == 4);
  CHECK(std::abs(m.events_per_s - 1000.0) < 1e-9);
  CHECK(std::abs(m.cpu_us_per_event - 2.0) < 1e-9);  // the stall does not set it
  // The worker's CPU is slow: its 1.5 us/event are halved, the rest's
  // 0.5 us/event stay, and the rate follows the worker, the busier part.
  const auto slow_worker = [](double, double) {
    return perfbench::SliceFactors{2.0, 1.0};
  };
  const perfbench::SliceMedians w = perfbench::slice_medians(marks, slow_worker);
  CHECK(std::abs(w.events_per_s - 2000.0) < 1e-9);
  CHECK(std::abs(w.cpu_us_per_event - 1.25) < 1e-9);
  // The other CPU is slow: only the rest's share of CPU is corrected, and
  // the rate is not, as the worker sets it.
  const auto slow_rest = [](double, double) {
    return perfbench::SliceFactors{1.0, 2.0};
  };
  const perfbench::SliceMedians r = perfbench::slice_medians(marks, slow_rest);
  CHECK(std::abs(r.events_per_s - 1000.0) < 1e-9);
  CHECK(std::abs(r.cpu_us_per_event - 1.75) < 1e-9);
  CHECK(perfbench::slice_medians({marks[0]}, as_measured).slices == 0);
}

void test_peak_rss_reset() {
  CHECK(perfbench::parse_status_kib("Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t1024 kB\n",
                                    "VmHWM") == 2048);
  CHECK(perfbench::parse_status_kib("VmRSS:\t1024 kB\n", "VmHWM") == 0);

  constexpr std::size_t kBytes = 64u << 20;
  const std::uint64_t before = perfbench::peak_rss_bytes();
  CHECK(before > 0);
  void* block = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CHECK(block != MAP_FAILED);
  if (block == MAP_FAILED) return;
  std::memset(block, 1, kBytes);
  const std::uint64_t peak = perfbench::peak_rss_bytes();
  CHECK(peak >= before + kBytes / 2);
  ::munmap(block, kBytes);
  CHECK(perfbench::reset_peak_rss());
  const std::uint64_t after = perfbench::peak_rss_bytes();
  CHECK(after + kBytes / 2 <= peak);
  CHECK(after >= perfbench::current_rss_bytes() / 2);
}

void test_failure_counting() {
  perfbench::OpCounts ops;
  ops.add_events(100, 1, 2, 3);  // rejected, dropped, evicted_dropped
  CHECK(ops.attempted == 100);
  CHECK(ops.failed == 6);
  ops.add_reply("OK n=256 dropped=0 rejected=0", false);
  CHECK(ops.attempted == 101 && ops.failed == 6);
  ops.add_reply("ERR overloaded retry-after=1000", false);  // refused HELLO
  CHECK(ops.attempted == 102 && ops.failed == 7);
  ops.add_reply("frame: bad magic", true);  // kError frame
  CHECK(ops.attempted == 103 && ops.failed == 8);
  ops.add_check(true);
  ops.add_check(false);  // verdict mismatch
  CHECK(ops.attempted == 105 && ops.failed == 9);
  perfbench::OpCounts other;
  other.add_events(5, 0, 0, 0);
  ops.merge(other);
  CHECK(ops.attempted == 110 && ops.failed == 9);

  const std::string json = perfbench::result_json(
      false, ops, {{"latency_p50_us", 12.5, "us"}, {"setup_s", 0.25, "s"}});
  CHECK(json ==
        "{\"correct\": false, \"attempted\": 110, \"failed\": 9, \"metrics\": "
        "{\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, "
        "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

void test_steal_share() {
  CHECK(perfbench::steal_share({1000, 10}, {2000, 60}) == 0.05);
  CHECK(perfbench::steal_share({1000, 10}, {1000, 10}) == 0.0);
  const perfbench::CpuTimes now = perfbench::read_cpu_times();
  CHECK(now.total > 0 && now.steal <= now.total);
}

void test_host_speed_reference() {
  CHECK(perfbench::reference_step_ns(200) > 0.0);
  // An unmeasured CPU has the nominal speed.
  const perfbench::HostSpeed none({});
  CHECK(none.factor(0, 0.0, 1.0) == 1.0);
  CHECK(none.factor(std::vector<int>{}, 0.0, 1.0) == 1.0);
  // A measured CPU reports its step time over the nominal one.
  const perfbench::HostSpeed speed({0});
  const double t0 = perfbench::wall_seconds();
  double f = 1.0;
  while (f == 1.0 && perfbench::wall_seconds() - t0 < 2.0) {
    f = speed.factor(0, t0 - 1.0, perfbench::wall_seconds() + 1.0);
  }
  CHECK(f > 0.0 && f != 1.0);
  // The calling thread's CPU mask is restored after a ThreadMask scope.
  cpu_set_t before;
  CHECK(::sched_getaffinity(0, sizeof(before), &before) == 0);
  { const perfbench::ThreadMask mask({0}); }
  cpu_set_t after;
  CHECK(::sched_getaffinity(0, sizeof(after), &after) == 0);
  CHECK(CPU_EQUAL(&before, &after));
  // A mask inside a narrower one may widen to any host CPU.
  if (CPU_ISSET(0, &before) && CPU_ISSET(1, &before)) {
    const perfbench::ThreadMask outer({1});
    {
      const perfbench::ThreadMask inner({0});
      cpu_set_t inside;
      CHECK(::sched_getaffinity(0, sizeof(inside), &inside) == 0);
      CHECK(CPU_ISSET(0, &inside) && CPU_COUNT(&inside) == 1);
    }
    cpu_set_t restored;
    CHECK(::sched_getaffinity(0, sizeof(restored), &restored) == 0);
    CHECK(CPU_ISSET(1, &restored) && CPU_COUNT(&restored) == 1);
  }
}

}  // namespace

int main() {
  perfbench::record_host_cpus();
  test_percentile_reports_sample_count();
  test_ten_samples_beyond_rule();
  test_chunked_percentile();
  test_server_cpu_subtraction();
  test_slice_medians();
  test_peak_rss_reset();
  test_failure_counting();
  test_steal_share();
  test_host_speed_reference();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench stats tests passed\n");
  return 0;
}
