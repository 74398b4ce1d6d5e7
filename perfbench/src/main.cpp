// perfbench — the wire-to-verdict benchmark of cmarkov.
//
//   perfbench --workload <wire-steady|wire-audit|wire-churn|train>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with every tracing facility
// off. --trace 1 is the separate traced run: the same load with spans
// around each generator call, then a replay of the run's exact inputs
// through each layer's public entry point. It prints the per-layer metrics
// and writes the spans as a Chrome trace into DIR. The last line of
// standard output is always the JSON result. README.md in this directory
// documents every workload and metric.
#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "inputs.hpp"
#include "layers.hpp"
#include "src/obs/trace/chrome_trace.hpp"
#include "src/workload/testcase_generator.hpp"
#include "stats.hpp"
#include "wire.hpp"

using namespace cmarkov;
using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct RunOutput {
  std::vector<Metric> metrics;
  OpCounts ops;
  bool correct = true;
  std::uint64_t overload_transitions = 0;
};

void fail(RunOutput& out, const std::string& why) {
  out.correct = false;
  std::cerr << "perfbench: " << why << "\n";
}

/// Latency percentiles are taken over consecutive chunks of samples and the
/// median over chunks is reported, so a stall of a second moves only the
/// chunks it covers. A p50 chunk of 100 samples has 50 beyond its median;
/// a p99 chunk of 1000 has ten beyond its p99.
constexpr std::size_t kMedianChunk = 100;
constexpr std::size_t kTailChunk = 1000;

/// Median and p99 of a latency sample; an unsupported p99 fails the run.
std::pair<double, double> p50_p99(const std::vector<double>& samples,
                                  RunOutput& out, const char* what) {
  const auto p50 = chunked_percentile(samples, kMedianChunk, 0.50);
  const auto p99 = chunked_percentile(samples, kTailChunk, 0.99);
  if (!p50 || !p99) {
    fail(out, std::string(what) + ": " + std::to_string(samples.size()) +
                  " samples do not support a p99");
    return {0.0, 0.0};
  }
  std::cout << what << ": p50 " << p50->value << " us (median over "
            << p50->samples / kMedianChunk << " chunks of " << kMedianChunk
            << " samples), p99 " << p99->value << " us (median over "
            << p99->samples / kTailChunk << " chunks of " << kTailChunk
            << " samples, " << p99->beyond << " beyond p99 in each)\n";
  return {p50->value, p99->value};
}

/// The host-speed correction of set-up, ack latency and the offline build,
/// which span both server CPUs (1-2), over [t0, t1]: the square root of
/// their mean speed factor. Within a set of runs
/// the program's time follows the reference one for one, but between sets
/// minutes apart the reference's level moved by up to 40% while the program
/// did not follow (README.md, Host speed). Half the correction in log terms
/// halves both errors; on the parent commit it kept every ten-run spread and
/// every shift between sets inside the bounds, where the full correction or
/// none did not.
double correction(const HostSpeed& speed, double t0, double t1) {
  return std::sqrt(speed.factor(kServerCpus, t0, t1));
}

/// The per-slice correction of the closed loop's rate and server CPU: the
/// full factor of the CPU each part of the server's work ran on
/// (slice_medians). One CPU can switch between speeds about 1.5x apart for
/// seconds at a time, and the scoring worker's CPU time follows the
/// reference on its own CPU one for one, so a correction by the CPU the
/// work ran on holds where the mean of two CPUs does not.
SliceCorrection slice_correction(const HostSpeed& speed) {
  return [&speed](double t0, double t1) {
    return SliceFactors{speed.factor(kWorkerCpu, t0, t1),
                        speed.factor(kLoopCpu, t0, t1)};
  };
}

/// Opens the peak-RSS window of the measured phase. Memory that input
/// generation and earlier set-ups freed goes back to the OS first, so VmHWM
/// measures what the phase itself holds.
void begin_peak_rss_window() {
  ::malloc_trim(0);
  if (!reset_peak_rss()) std::cerr << "perfbench: cannot reset VmHWM\n";
}

double percentile_or_zero(const std::vector<double>& samples, double q) {
  const auto p = percentile(samples, q);
  return p ? p->value : 0.0;
}

// ---- serving workloads ----------------------------------------------------

struct ServingWorkload {
  std::vector<ModelSpec> models;
  std::vector<std::size_t> lane_models;  ///< model index of each connection
  std::size_t batch_events = 256;
  std::size_t ring_batches = 64;
  serve::ServiceConfig config;
  LoadShape shape;
};

/// Batches of the fixed warm-up that ends every serving set-up.
constexpr std::uint64_t kWarmupBatches = 64;
/// Deployments per end-to-end run, each set up and then measured for an
/// equal share of --seconds; every end-to-end figure is a median over them.
/// On this host one deployment's corrected rate can read 20% off the next
/// one's in the same process (README.md, Host speed), so a few deployments
/// per run would set the spread between runs.
constexpr int kDeployments = 15;

/// Served-model build: identical on every run and every seed.
const BuildSettings kServeBuild{40, 6, 2};

ServingWorkload serving_workload(const std::string& name) {
  const ModelSpec gzip{"gzip", "gzip", analysis::CallFilter::kSyscalls};
  const ModelSpec sed{"sed", "sed", analysis::CallFilter::kSyscalls};
  ServingWorkload w;
  // One epoll loop, one scoring worker and the generator: three busy
  // threads on a four-vCPU host. Queues hold 16384 events, so the at most
  // 3072 in flight keep occupancy under the governor's 0.25 low-water mark.
  w.config.num_workers = 1;
  w.config.queue_capacity = 16384;
  w.config.policy = serve::BackpressurePolicy::kBlock;
  if (name == "wire-steady" || name == "wire-audit") {
    w.models = {gzip, sed};
    w.lane_models = {0, 1};
    // About 12 ms of scoring work queued, so the worker does not run dry
    // while a host stall delays the generator or the epoll loop. (Churn
    // keeps two: its sessions are short, and a deeper burst after each
    // HELLO queues acks behind one another in the epoll loop.)
    w.shape.max_unscored = 6;
    if (name == "wire-audit") {
      // cmarkovd --trace-sample 100 minus span tracing: the production
      // decision audit, which scores every window through the reference
      // recursion instead of the compiled kernel.
      w.config.monitor.decisions.enabled = true;
      w.config.monitor.decisions.sample_every = 100;
      w.config.monitor.decisions.always_on_flagged = true;
    }
  } else if (name == "wire-churn") {
    w.models = {gzip, sed};
    w.lane_models = {0, 1, 0, 1};
    w.batch_events = 128;
    w.shape.batches_per_session = 4;
    // Fewer resident slots than live sessions: opens and restores evict.
    w.config.max_resident_sessions = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

struct ServingInputs {
  std::vector<ModelInputs> models;
  std::vector<FrameRing> rings;
  std::vector<LaneSpec> lanes;
};

ServingInputs make_serving_inputs(const ServingWorkload& w, std::uint64_t seed) {
  ServingInputs in;
  for (const ModelSpec& spec : w.models) {
    in.models.push_back(make_model_inputs(spec, kServeBuild));
  }
  in.rings.reserve(w.lane_models.size());
  for (std::size_t lane = 0; lane < w.lane_models.size(); ++lane) {
    in.rings.push_back(make_frame_ring(in.models[w.lane_models[lane]],
                                       seed * 16 + lane, w.batch_events,
                                       w.ring_batches));
  }
  for (std::size_t lane = 0; lane < w.lane_models.size(); ++lane) {
    in.lanes.push_back({w.models[w.lane_models[lane]].name, &in.rings[lane]});
  }
  return in;
}

/// Server, generator and the set-up's own operations, kept alive together.
struct Deployment {
  std::unique_ptr<Server> server;
  std::unique_ptr<Generator> generator;
  OpCounts setup_ops;
  double setup_begin = 0.0;
  double setup_end = 0.0;

  void stop() {
    generator.reset();
    if (server) server->net->stop();
    server.reset();
  }
};

/// Program work before the measured phase: build and train the served
/// models, compile their kernels (ModelRegistry::add), start the server,
/// connect + HELLO, and a fixed warm-up of kWarmupBatches batches.
Deployment deploy(const ServingWorkload& w, const ServingInputs& in,
                  const std::string& tag) {
  Deployment d;
  d.setup_begin = wall_seconds();
  std::vector<std::pair<std::string, core::Detector>> models;
  for (const ModelInputs& model : in.models) {
    models.emplace_back(model.spec.name, build_model(model, kServeBuild));
  }
  d.server = std::make_unique<Server>(start_server(w.config, std::move(models)));
  d.generator = std::make_unique<Generator>(d.server->sessions(), d.server->port(),
                                            in.lanes, w.shape, tag);
  d.generator->connect();
  d.setup_ops = d.generator->run(0.0, kWarmupBatches, nullptr).ops;
  d.setup_end = wall_seconds();
  return d;
}

struct LiveCounters {
  std::uint64_t bytes_read, frame_errors, transitions, evicted, restored,
      kernel_windows, windows;
  static LiveCounters read(Server& server) {
    return {server.counter("cmarkov_net_bytes_read_total"),
            server.counter("cmarkov_net_frame_errors_total"),
            server.counter("cmarkov_serve_overload_transitions_total"),
            server.counter("cmarkov_serve_sessions_evicted_total"),
            server.counter("cmarkov_serve_sessions_restored_total"),
            server.counter("cmarkov_serve_kernel_windows_total"),
            server.counter("cmarkov_serve_windows_total")};
  }
};

std::vector<std::pair<std::string, std::shared_ptr<const core::Detector>>>
served_models(Server& server, const ServingWorkload& w) {
  std::vector<std::pair<std::string, std::shared_ptr<const core::Detector>>> out;
  for (const ModelSpec& spec : w.models) {
    out.emplace_back(spec.name, server.service->registry().require(spec.name));
  }
  return out;
}

void append_build_layers(const BuildReplay& b, std::vector<Metric>& m) {
  m.push_back({"hmm.fit_s_per_iteration", b.fit_s_per_iteration, "s"});
  m.push_back({"hmm.forward_backward_ns_per_symbol", b.forward_backward_ns_per_symbol, "ns"});
  m.push_back({"hmm.static_init_ms", b.static_init_ms, "ms"});
  m.push_back({"core.calibrate_ms", b.calibrate_ms, "ms"});
  m.push_back({"util.pool_busy_share", b.pool_busy_share, "ratio"});
  m.push_back({"cfg.build_ms", b.cfg_build_ms, "ms"});
  m.push_back({"analysis.aggregate_ms", b.aggregate_ms, "ms"});
  m.push_back({"reduction.cluster_ms", b.cluster_ms, "ms"});
}

/// Runs the serving replays on the worker's CPU.
ServingReplay serving_layers(const ServingReplayInput& replay,
                             obs::RunProfile* profile) {
  const ThreadMask on_worker({kWorkerCpu});
  return replay_serving(replay, profile);
}

/// Runs the build replays on the build CPUs.
BuildReplay build_layers(const std::vector<ModelInputs>& models,
                         const BuildSettings& settings, obs::RunProfile* profile) {
  std::vector<const ModelInputs*> inputs;
  for (const auto& model : models) inputs.push_back(&model);
  const ThreadMask on_server(kServerCpus);
  return replay_build(inputs, settings, profile);
}

/// The serving layers of a traced run: live counters of the load phase
/// plus the replays of its frames. `untraced` is the load phase measured
/// with tracing off; `server_ns_per_event`, its server CPU per event,
/// anchors the socket remainder.
void append_serving_layers(const ServingReplay& r, const LoadResult& untraced,
                           double server_ns_per_event, const LiveCounters& before,
                           const LiveCounters& after, std::uint64_t events,
                           std::vector<Metric>& m) {
  const double ev = static_cast<double>(std::max<std::uint64_t>(1, events));
  const double server_ns = server_ns_per_event;
  const double windows = static_cast<double>(after.windows - before.windows);
  m.push_back({"net.decode_ns_per_event", r.decode_ns_per_event, "ns"});
  m.push_back({"net.dispatch_ns_per_event", r.dispatch_ns_per_event, "ns"});
  m.push_back({"net.socket_ns_per_event",
               server_ns - r.dispatch_ns_per_event - r.drain_ns_per_event, "ns"});
  m.push_back({"net.bytes_per_event",
               static_cast<double>(after.bytes_read - before.bytes_read) / ev, "B"});
  m.push_back({"net.frame_errors",
               static_cast<double>(after.frame_errors - before.frame_errors), "count"});
  m.push_back({"serve.submit_ns_per_event", r.submit_ns_per_event, "ns"});
  m.push_back({"serve.worker_ns_per_event",
               r.drain_ns_per_event - r.monitor_ns_per_event, "ns"});
  m.push_back({"serve.queue_depth_max",
               static_cast<double>(untraced.queue_depth_max), "count"});
  m.push_back({"serve.overload_transitions",
               static_cast<double>(after.transitions - before.transitions), "count"});
  m.push_back({"serve.evict_us", r.evict_us, "us"});
  m.push_back({"serve.restore_us", r.restore_us, "us"});
  m.push_back({"serve.open_close_us", r.open_close_us, "us"});
  m.push_back({"serve.evictions_per_kevent",
               static_cast<double>(after.evicted - before.evicted) * 1e3 / ev, "count"});
  m.push_back({"serve.restores_per_kevent",
               static_cast<double>(after.restored - before.restored) * 1e3 / ev, "count"});
  m.push_back({"serve.state_bytes_per_session", r.state_bytes_per_session, "B"});
  m.push_back({"serve.rss_bytes_per_session", r.rss_bytes_per_session, "B"});
  m.push_back({"serve.snapshot_bytes", r.snapshot_bytes, "B"});
  m.push_back({"core.monitor_ns_per_event", r.monitor_ns_per_event, "ns"});
  m.push_back({"core.kernel_ns_per_window", r.kernel_ns_per_window, "ns"});
  m.push_back({"core.reference_ns_per_window", r.reference_ns_per_window, "ns"});
  m.push_back({"core.kernel_window_share",
               windows == 0.0 ? 0.0
                              : static_cast<double>(after.kernel_windows -
                                                    before.kernel_windows) / windows,
               "ratio"});
  m.push_back({"core.windows_per_event", r.windows_per_event, "ratio"});
  m.push_back({"core.flagged_share", r.flagged_share, "ratio"});
  m.push_back({"core.kernel_macs_per_window", r.kernel_macs_per_window, "count"});
  m.push_back({"obs.audit_ns_per_event", r.audit_ns_per_event, "ns"});
  m.push_back({"obs.decision_records_per_kevent", r.decision_records_per_kevent, "count"});
  m.push_back({"load.client_cpu_us_per_event",
               untraced.client_cpu_s * 1e6 /
                   static_cast<double>(std::max<std::uint64_t>(1, untraced.events)),
               "us"});
  m.push_back({"load.late_us_p99", percentile_or_zero(untraced.late_us, 0.99), "us"});
}

void write_trace(const Options& o, obs::RunProfile& profile) {
  profile.finish();
  ::mkdir(o.out_dir.c_str(), 0755);
  const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".trace.json";
  std::ofstream out(path);
  out << obs::chrome_trace_json(profile);
  std::cout << "spans written to " << path << "\n";
}

/// What one measured deployment of a serving run yields.
struct ServingPhase {
  LoadResult load;
  LoadResult traced;  ///< the traced second half (traced run only)
  LiveCounters before{}, after{};
  SliceMedians medians;
  std::vector<double> acks;  ///< ack latencies, corrected
  double peak_mib = 0.0;
  double host_factor = 1.0;
};

/// Drives deployment `d` for `seconds` (with a profile: then once more,
/// traced), drains it, reads its counters and checks every session's
/// verdicts against an in-process replay.
ServingPhase measure(Deployment& d, const ServingWorkload& w, const ServingInputs& in,
                     const HostSpeed& speed, double seconds,
                     obs::RunProfile* profile, RunOutput& out) {
  ServingPhase p;
  Server& server = *d.server;
  Generator& gen = *d.generator;
  gen.exclude(speed.probe_tids());
  gen.track_workers(server.worker_tids);
  p.before = LiveCounters::read(server);
  begin_peak_rss_window();
  p.load = gen.run(seconds, 0, nullptr);
  if (profile != nullptr) p.traced = gen.run(seconds, 0, profile);
  p.peak_mib = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  out.ops.merge(p.load.ops);
  out.ops.merge(p.traced.ops);
  gen.finish_open_sessions(out.ops);
  p.after = LiveCounters::read(server);
  out.overload_transitions += p.after.transitions - p.before.transitions;
  if (p.load.timed_out || p.traced.timed_out) fail(out, "verdicts missing at the end");
  std::cout << "session_stats reads that found a live session mid-lifecycle: "
            << gen.stats_misses() << "\n";
  verify_sessions(server.service->registry(), gen.sessions(), in.lanes,
                  w.config.monitor, 3, out.ops);

  const double t0 = p.load.marks.front().t;
  const double t1 = p.load.marks.back().t;
  p.medians = slice_medians(p.load.marks, slice_correction(speed));
  if (p.medians.slices == 0) fail(out, "no whole slice of load was measured");
  p.host_factor = speed.factor(kServerCpus, t0, t1);
  p.acks = p.load.ack_us;
  for (double& ack : p.acks) ack /= correction(speed, t0, t1);
  std::cout << "host speed factor over the measured phase: " << p.host_factor
            << " (reference step " << p.host_factor * kNominalStepNs << " ns)\n"
            << "whole phase: "
            << static_cast<double>(p.load.events) / p.load.elapsed_s
            << " events/s, server CPU "
            << p.load.server_cpu_s * 1e6 /
                   static_cast<double>(std::max<std::uint64_t>(1, p.load.events))
            << " us/event as measured; corrected medians over "
            << p.medians.slices << " slices: " << p.medians.events_per_s
            << " events/s, " << p.medians.cpu_us_per_event << " us/event\n";
  return p;
}

RunOutput run_serving(const Options& o) {
  RunOutput out;
  const ServingWorkload w = serving_workload(o.workload);
  const ServingInputs in = make_serving_inputs(w, o.seed);

  // Set-up work (model training) runs on the loop and worker CPUs; the
  // server pins its own threads. The host-speed reference runs there too.
  const HostSpeed speed(kServerCpus);
  const int reps = o.trace ? 1 : kDeployments;
  const double seconds = o.seconds / (o.trace ? 2 : reps);
  obs::RunProfile profile("perfbench." + o.workload);
  const CpuTimes host_begin = read_cpu_times();
  std::vector<double> setups, rates, cpus, acks, peaks;
  Deployment d;
  ServingPhase phase;
  for (int rep = 0; rep < reps; ++rep) {
    d.stop();
    {
      const ThreadMask server_side({kLoopCpu, kWorkerCpu});
      d = deploy(w, in, "s" + std::to_string(rep));
    }
    setups.push_back((d.setup_end - d.setup_begin) /
                     correction(speed, d.setup_begin, d.setup_end));
    out.ops.merge(d.setup_ops);
    phase = measure(d, w, in, speed, seconds, o.trace ? &profile : nullptr, out);
    rates.push_back(phase.medians.events_per_s);
    cpus.push_back(phase.medians.cpu_us_per_event);
    acks.insert(acks.end(), phase.acks.begin(), phase.acks.end());
    peaks.push_back(phase.peak_mib);
  }
  const CpuTimes host_end = read_cpu_times();
  const auto [p50, p99] = p50_p99(acks, out, "ack latency");
  if (!o.trace) {
    out.metrics = {
        {"events_per_s", median(rates), "1/s"},
        {"cpu_us_per_event", median(cpus), "us"},
        {"latency_p50_us", p50, "us"},
        {"peak_rss_mib", median(peaks), "MiB"},
        {"setup_s", median(setups), "s"},
    };
    return out;
  }

  // Traced run, part 2: replay the run's frames through every layer.
  Server& server = *d.server;
  ServingReplayInput replay;
  replay.lanes = in.lanes;
  replay.frames_per_lane = w.ring_batches;
  replay.models = served_models(server, w);
  replay.config = w.config;
  const ServingReplay layers = serving_layers(replay, &profile);
  const BuildReplay build = build_layers(in.models, kServeBuild, &profile);

  append_serving_layers(layers, phase.load, phase.medians.cpu_us_per_event * 1e3,
                        phase.before, phase.after,
                        phase.load.events + phase.traced.events, out.metrics);
  append_build_layers(build, out.metrics);
  out.metrics.push_back({"latency_p99_us", p99, "us"});
  // Tracing overhead on what this loop's users see: its throughput.
  const double overhead =
      1.0 - slice_medians(phase.traced.marks, slice_correction(speed)).events_per_s /
                phase.medians.events_per_s;
  out.metrics.push_back({"trace.overhead_share", overhead, "ratio"});
  out.metrics.push_back({"host.steal_share", steal_share(host_begin, host_end), "ratio"});
  out.metrics.push_back({"host.speed_factor", phase.host_factor, "ratio"});
  write_trace(o, profile);
  return out;
}

// ---- train ----------------------------------------------------------------

/// Table V build: 8 suites, libcall, context-sensitive, fixed traces.
const BuildSettings kTrainBuild{40, 4, 2};
/// Length of the traced run's serving probe of two freshly built models.
constexpr double kProbeSeconds = 4.0;

bool same_model(const core::Detector& a, const core::Detector& b) {
  return a.model().transition == b.model().transition &&
         a.model().emission == b.model().emission &&
         a.model().initial == b.model().initial && a.threshold() == b.threshold();
}

struct BuildRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double correction = 1.0;           ///< host-speed correction over the build
  std::vector<double> iteration_us;  ///< per model: one EM iteration, corrected
  std::vector<core::Detector> detectors;
};

/// Process CPU minus the host-speed probes' own CPU. The build runs on the
/// calling thread and the trainer's pool, so all of the rest is program.
double program_cpu_seconds(const HostSpeed& speed) {
  const CpuSample sample = sample_cpu(speed.probe_tids());
  return sample.process - sample.benchmark;
}

BuildRun build_all(const std::vector<ModelInputs>& suites, const HostSpeed& speed,
                   obs::RunProfile* profile) {
  BuildRun run;
  const double cpu = program_cpu_seconds(speed);
  const double start = wall_seconds();
  for (const ModelInputs& suite : suites) {
    const obs::ScopedTimer suite_span(profile, suite.spec.name);
    core::Detector detector = [&] {
      const obs::ScopedTimer span(profile, "static_pipeline");
      return core::Detector::build(suite.suite->module(),
                                   detector_config(suite.spec, kTrainBuild));
    }();
    {
      const obs::ScopedTimer span(profile, "fit_calibrate");
      const double train_start = wall_seconds();
      const hmm::TrainingReport report = detector.train(suite.traces);
      const double train_end = wall_seconds();
      run.iteration_us.push_back(
          (train_end - train_start) * 1e6 /
          static_cast<double>(std::max<std::size_t>(1, report.iterations)) /
          correction(speed, train_start, train_end));
    }
    run.detectors.push_back(std::move(detector));
  }
  const double end = wall_seconds();
  run.wall_s = end - start;
  run.cpu_s = program_cpu_seconds(speed) - cpu;
  run.correction = correction(speed, start, end);
  return run;
}

RunOutput run_train(const Options& o) {
  RunOutput out;
  // Input generation: the suites and their fixed training traces. The seed
  // drives only the traced run's serving probe.
  std::vector<ModelInputs> suites;
  std::size_t training_events = 0;
  for (const std::string& name : workload::all_suite_names()) {
    suites.push_back(make_model_inputs(
        {name, name, analysis::CallFilter::kLibcalls}, kTrainBuild));
    training_events += suites.back().stream_events;
  }

  // The build's two threads run on CPUs 1-2, beside the host-speed
  // reference (a diagnostic, host.speed_factor).
  const HostSpeed speed(kServerCpus);
  auto build_cpus = std::make_unique<ThreadMask>(std::vector<int>{kLoopCpu, kWorkerCpu});

  // Set-up: the program work before the fits start — the static pipeline
  // of every suite, repeated, median.
  std::vector<double> setups;
  for (int rep = 0; rep < (o.trace ? 1 : 15); ++rep) {
    const double start = wall_seconds();
    for (const ModelInputs& suite : suites) {
      (void)core::Detector::build(suite.suite->module(),
                                  detector_config(suite.spec, kTrainBuild));
    }
    const double end = wall_seconds();
    setups.push_back((end - start) / correction(speed, start, end));
  }

  const CpuTimes host_begin = read_cpu_times();
  begin_peak_rss_window();
  obs::RunProfile profile("perfbench.train");
  std::vector<BuildRun> builds;
  const double start = wall_seconds();
  if (o.trace) {
    // Untraced, traced, untraced: the traced build is compared with the
    // mean of its neighbours.
    builds.push_back(build_all(suites, speed, nullptr));
    builds.push_back(build_all(suites, speed, &profile));
    builds.push_back(build_all(suites, speed, nullptr));
  } else {
    while (builds.size() < 3 || wall_seconds() - start < o.seconds) {
      builds.push_back(build_all(suites, speed, nullptr));
    }
  }
  const double host_factor = speed.factor(kServerCpus, start, wall_seconds());
  build_cpus.reset();
  const double peak_mib = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  // Every rebuild must reproduce the first build exactly.
  for (const BuildRun& build : builds) {
    for (std::size_t s = 0; s < suites.size(); ++s) {
      const bool same = same_model(build.detectors[s], builds.front().detectors[s]);
      out.ops.add_check(same);
      if (!same) fail(out, "rebuild of " + suites[s].spec.name + " differs");
    }
  }
  // Thread-count invariance: a 1-thread fit equals the workload's fit.
  {
    BuildSettings one = kTrainBuild;
    one.threads = 1;
    const core::Detector single = build_model(suites[0], one);
    const bool same = same_model(single, builds.front().detectors[0]);
    out.ops.add_check(same);
    if (!same) fail(out, "1-thread fit of " + suites[0].spec.name + " differs");
  }

  const CpuTimes host_end = read_cpu_times();

  std::vector<double> raw_walls, walls, cpus, iteration_us;
  for (const BuildRun& build : builds) {
    raw_walls.push_back(build.wall_s);
    walls.push_back(build.wall_s / build.correction);
    cpus.push_back(build.cpu_s / build.correction);
    iteration_us.insert(iteration_us.end(), build.iteration_us.begin(),
                        build.iteration_us.end());
  }
  const auto iteration_p50 = percentile(iteration_us, 0.5);
  if (!o.trace && !iteration_p50) fail(out, "too few model fits for a median");
  const double events = static_cast<double>(training_events);
  std::cout << "train: " << builds.size() << " builds of 8 models, median "
            << median(raw_walls) << " s (train_s) as measured, " << median(walls)
            << " s corrected, " << training_events << " training events\n";
  std::cout << "host speed factor over the builds: " << host_factor << "\n";
  if (!o.trace) {
    out.metrics = {
        {"events_per_s", events / median(walls), "1/s"},
        {"cpu_us_per_event", median(cpus) * 1e6 / events, "us"},
        {"latency_p50_us", iteration_p50 ? iteration_p50->value : 0.0, "us"},
        {"peak_rss_mib", peak_mib, "MiB"},
        {"setup_s", median(setups), "s"},
    };
    return out;
  }

  // Traced run, part 2. The build layers replay the fixed corpus; the
  // serving layers come from serving two of the freshly built models: a
  // short closed loop of seeded traces, then the frame replays.
  const BuildReplay build = build_layers(suites, kTrainBuild, &profile);

  ServingWorkload w = serving_workload("wire-steady");
  w.models = {suites[2].spec, suites[3].spec};  // gzip, sed (libcall)
  std::vector<FrameRing> rings;
  rings.push_back(make_frame_ring(suites[2], o.seed * 16, 256, 64));
  rings.push_back(make_frame_ring(suites[3], o.seed * 16 + 1, 256, 64));
  const std::vector<LaneSpec> lanes = {{w.models[0].name, &rings[0]},
                                       {w.models[1].name, &rings[1]}};
  const std::vector<core::Detector>& detectors = builds.back().detectors;
  std::vector<std::pair<std::string, core::Detector>> served = {
      {w.models[0].name, detectors[2]}, {w.models[1].name, detectors[3]}};
  Server server = start_server(w.config, std::move(served));
  LoadResult load;
  LiveCounters before{}, after{};
  {
    Generator gen(server.sessions(), server.port(), lanes, w.shape, "probe");
    gen.exclude(speed.probe_tids());
    gen.track_workers(server.worker_tids);
    gen.connect();
    before = LiveCounters::read(server);
    load = gen.run(kProbeSeconds, 0, nullptr);
    gen.finish_open_sessions(out.ops);
    after = LiveCounters::read(server);
    out.ops.merge(load.ops);
    verify_sessions(server.service->registry(), gen.sessions(), lanes,
                    w.config.monitor, 2, out.ops);
  }
  out.overload_transitions = after.transitions - before.transitions;
  ServingReplayInput replay;
  replay.lanes = lanes;
  replay.frames_per_lane = 64;
  replay.models = served_models(server, w);
  replay.config = w.config;
  const ServingReplay layers = serving_layers(replay, &profile);
  server.net->stop();

  append_serving_layers(layers, load,
                        slice_medians(load.marks, slice_correction(speed))
                                .cpu_us_per_event * 1e3,
                        before, after, load.events, out.metrics);
  append_build_layers(build, out.metrics);
  out.metrics.push_back(
      {"latency_p99_us", p50_p99(load.ack_us, out, "probe ack latency").second, "us"});
  out.metrics.push_back(
      {"trace.overhead_share", 2.0 * walls[1] / (walls[0] + walls[2]) - 1.0, "ratio"});
  out.metrics.push_back({"host.steal_share", steal_share(host_begin, host_end), "ratio"});
  out.metrics.push_back({"host.speed_factor", host_factor, "ratio"});
  write_trace(o, profile);
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  record_host_cpus();
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n"
              << "usage: perfbench --workload <wire-steady|wire-audit|wire-churn|train>"
                 " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
    return 2;
  }
  // The fixed reference loop at run start and end (host.ref_loop_ns).
  constexpr std::size_t kRefSteps = 4000;
  const double ref_begin = reference_step_ns(kRefSteps);
  RunOutput out;
  try {
    out = o.workload == "train" ? run_train(o) : run_serving(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 1;
  }
  const double ref_end = reference_step_ns(kRefSteps);
  if (o.trace) {
    out.metrics.push_back({"host.ref_loop_ns", 0.5 * (ref_begin + ref_end), "ns"});
  }
  for (const Metric& metric : out.metrics) {
    if (!std::isfinite(metric.value)) fail(out, metric.name + " is not finite");
  }
  if (out.ops.failed > 0) fail(out, std::to_string(out.ops.failed) + " operations failed");
  if (out.overload_transitions > 0) {
    fail(out, "the overload ladder moved " +
                  std::to_string(out.overload_transitions) + " time(s)");
  }

  std::cout << "workload " << o.workload << " seed " << o.seed << " trace "
            << (o.trace ? 1 : 0) << "\n";
  for (const Metric& metric : out.metrics) {
    std::cout << "  " << metric.name << " = " << metric.value << " " << metric.unit
              << "\n";
  }
  std::cout << "operations: attempted " << out.ops.attempted << ", failed "
            << out.ops.failed << ", serve.overload_transitions "
            << out.overload_transitions << "\n";
  std::cout << result_json(out.correct, out.ops, out.metrics) << std::endl;
  return out.correct ? 0 : 1;
}
