#include "stats.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "host.hpp"

namespace perfbench {

std::optional<Percentile> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], n, beyond};
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<Percentile> chunked_percentile(const std::vector<double>& samples,
                                             std::size_t chunk, double q) {
  if (chunk == 0) return std::nullopt;
  std::vector<double> per_chunk;
  Percentile out;
  for (std::size_t begin = 0; begin + chunk <= samples.size(); begin += chunk) {
    const auto begin_it = samples.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto p = percentile(
        std::vector<double>(begin_it, begin_it + static_cast<std::ptrdiff_t>(chunk)), q);
    if (!p) return std::nullopt;
    per_chunk.push_back(p->value);
    out.samples += chunk;
    out.beyond = p->beyond;
  }
  if (per_chunk.empty()) return std::nullopt;
  out.value = median(std::move(per_chunk));
  return out;
}

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

double wall_seconds() { return clock_seconds(CLOCK_MONOTONIC); }
double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

CpuSample sample_cpu(const std::vector<int>& benchmark_tids,
                     const std::vector<int>& worker_tids) {
  CpuSample sample;
  sample.generator = thread_cpu_seconds();
  for (const int tid : benchmark_tids) sample.benchmark += thread_cpu_seconds(tid);
  for (const int tid : worker_tids) sample.worker += thread_cpu_seconds(tid);
  sample.process = process_cpu_seconds();
  return sample;
}

double server_cpu_seconds(const CpuSample& begin, const CpuSample& end) {
  const double process = end.process - begin.process;
  const double generator = end.generator - begin.generator;
  const double benchmark = end.benchmark - begin.benchmark;
  return std::max(0.0, process - generator - benchmark);
}

SliceMedians slice_medians(const std::vector<SliceMark>& marks,
                           const SliceCorrection& correction) {
  std::vector<double> rates, cpus;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const SliceMark& a = marks[i - 1];
    const SliceMark& b = marks[i];
    const double events = static_cast<double>(b.events - a.events);
    if (events == 0.0 || b.t <= a.t) continue;
    const SliceFactors f = correction(a.t, b.t);
    const double server = server_cpu_seconds(a.cpu, b.cpu);
    const double worker = std::clamp(b.cpu.worker - a.cpu.worker, 0.0, server);
    const double rest = server - worker;
    rates.push_back(events / (b.t - a.t) * (worker >= rest ? f.worker : f.rest));
    cpus.push_back((worker / f.worker + rest / f.rest) * 1e6 / events);
  }
  SliceMedians out;
  out.slices = rates.size();
  if (rates.empty()) return out;
  out.events_per_s = median(std::move(rates));
  out.cpu_us_per_event = median(std::move(cpus));
  return out;
}

bool reset_peak_rss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool wrote = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && wrote;
}

std::uint64_t parse_status_kib(std::string_view status, std::string_view key) {
  std::size_t pos = 0;
  while (pos < status.size()) {
    const std::size_t eol = std::min(status.find('\n', pos), status.size());
    const std::string_view line = status.substr(pos, eol - pos);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::uint64_t value = 0;
      for (const char c : line.substr(key.size() + 1)) {
        if (c >= '0' && c <= '9') value = value * 10 + static_cast<unsigned>(c - '0');
      }
      return value;
    }
    pos = eol + 1;
  }
  return 0;
}

std::uint64_t peak_rss_bytes() {
  return 1024 * parse_status_kib(read_file("/proc/self/status"), "VmHWM");
}

std::uint64_t current_rss_bytes() {
  return 1024 * parse_status_kib(read_file("/proc/self/status"), "VmRSS");
}

CpuTimes read_cpu_times() {
  std::istringstream in(read_file("/proc/stat"));
  std::string label;
  in >> label;
  CpuTimes times;
  if (label != "cpu") return times;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double steal_share(const CpuTimes& begin, const CpuTimes& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

void OpCounts::add_events(std::uint64_t sent, std::uint64_t rejected,
                          std::uint64_t dropped,
                          std::uint64_t evicted_dropped) {
  attempted += sent;
  failed += rejected + dropped + evicted_dropped;
}

void OpCounts::add_reply(std::string_view reply, bool error_frame) {
  ++attempted;
  if (error_frame || reply.substr(0, 3) == "ERR") ++failed;
}

void OpCounts::add_check(bool matched) {
  ++attempted;
  if (!matched) ++failed;
}

void OpCounts::merge(const OpCounts& other) {
  attempted += other.attempted;
  failed += other.failed;
}

std::string result_json(bool correct, const OpCounts& ops,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
