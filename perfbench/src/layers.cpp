#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/analysis/aggregation.hpp"
#include "src/analysis/call_transition.hpp"
#include "src/cfg/call_graph.hpp"
#include "src/cfg/cfg_builder.hpp"
#include "src/core/online_monitor.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/hmm/forward_backward.hpp"
#include "src/hmm/static_init.hpp"
#include "src/hmm/trainer.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/reduction/cluster_calls.hpp"
#include "src/reduction/reconstruct.hpp"
#include "src/serve/net/binary_session.hpp"
#include "src/serve/net/frame.hpp"
#include "src/serve/session_snapshot.hpp"

namespace perfbench {

using namespace cmarkov;
namespace net = cmarkov::serve::net;

namespace {

/// Frames replayed between two drains in the dispatch and submit replays.
constexpr std::size_t kChunkFrames = 8;
/// Sessions cycled through open -> evict -> restore -> close.
constexpr std::size_t kLifecycleSessions = 200;
/// Sessions opened to measure resident memory per session.
constexpr std::size_t kResidentSessions = 2000;
/// Windows kept for the kernel and reference replays.
constexpr std::size_t kMaxWindows = 20000;

template <class Fn>
double median_of_3(Fn&& fn) {
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) reps.push_back(fn());
  return median(std::move(reps));
}

/// Keeps a replay's results observable so the timed calls are not elided.
volatile double g_sink = 0.0;

serve::ServiceConfig replay_config(const serve::ServiceConfig& live,
                                   std::size_t queued_events) {
  serve::ServiceConfig config = live;
  config.manual_pump = true;
  config.num_workers = 1;
  config.queue_capacity = std::max(config.queue_capacity, queued_events + 1);
  // The per-event path is replayed on long-lived sessions; lifecycle costs
  // have their own replay.
  config.max_resident_sessions = 0;
  config.snapshot_dir.clear();
  return config;
}

struct ReplayData {
  std::vector<std::vector<const trace::CallEvent*>> events;  // per lane
  std::vector<std::vector<net::Frame>> frames;               // per lane
  std::size_t total_events = 0;
  std::size_t chunk_events = 0;  // events of kChunkFrames frames, all lanes
};

ReplayData collect(const ServingReplayInput& input) {
  ReplayData data;
  for (const LaneSpec& lane : input.lanes) {
    const FrameRing& ring = *lane.ring;
    std::vector<const trace::CallEvent*> events;
    std::vector<net::Frame> frames;
    for (std::size_t f = 0; f < input.frames_per_lane; ++f) {
      const std::size_t slot = f % ring.frames.size();
      for (const auto& event : ring.batches[slot]) events.push_back(&event);
      net::Frame frame;
      frame.op = net::FrameOp::kEventBatch;
      frame.payload = ring.frames[slot].substr(net::kFrameHeaderSize);
      frames.push_back(std::move(frame));
    }
    data.total_events += events.size();
    data.chunk_events += kChunkFrames * ring.batches.front().size();
    data.events.push_back(std::move(events));
    data.frames.push_back(std::move(frames));
  }
  return data;
}

void add_models(serve::ModelRegistry& registry,
                const ServingReplayInput& input) {
  for (const auto& [name, detector] : input.models) {
    registry.add_shared(name, detector);
  }
}

std::shared_ptr<const core::Detector> find_model(const ServingReplayInput& input,
                                                 const std::string& name) {
  for (const auto& [model, detector] : input.models) {
    if (model == name) return detector;
  }
  throw std::invalid_argument("perfbench: no model " + name);
}

struct DispatchTimes {
  double front = 0.0;  // seconds in the timed call
  double drain = 0.0;  // seconds in SessionManager::drain
};

/// BinarySession::handle_frame (decode + submit, no socket), drained every
/// kChunkFrames frames.
DispatchTimes time_dispatch(const ServingReplayInput& input,
                            const ReplayData& data) {
  serve::ModelRegistry registry;
  add_models(registry, input);
  serve::SessionManager manager(registry,
                                replay_config(input.config, data.chunk_events));
  std::vector<std::unique_ptr<net::BinarySession>> sessions;
  for (std::size_t l = 0; l < input.lanes.size(); ++l) {
    sessions.push_back(std::make_unique<net::BinarySession>(manager));
    net::Frame hello;
    hello.op = net::FrameOp::kHello;
    hello.payload = net::encode_hello_payload(input.lanes[l].model,
                                              "replay-" + std::to_string(l), "");
    sessions.back()->handle_frame(hello);
  }
  DispatchTimes times;
  for (std::size_t f0 = 0; f0 < input.frames_per_lane; f0 += kChunkFrames) {
    const std::size_t f1 = std::min(f0 + kChunkFrames, input.frames_per_lane);
    const double start = wall_seconds();
    for (std::size_t l = 0; l < sessions.size(); ++l) {
      for (std::size_t f = f0; f < f1; ++f) {
        g_sink = g_sink + static_cast<double>(
                              sessions[l]->handle_frame(data.frames[l][f]).bytes.size());
      }
    }
    const double mid = wall_seconds();
    manager.drain();
    times.front += mid - start;
    times.drain += wall_seconds() - mid;
  }
  return times;
}

/// SessionManager::submit of pre-decoded events, drained every chunk.
DispatchTimes time_submit(const ServingReplayInput& input,
                          const ReplayData& data) {
  serve::ModelRegistry registry;
  add_models(registry, input);
  serve::SessionManager manager(registry,
                                replay_config(input.config, data.chunk_events));
  std::vector<std::string> ids;
  for (std::size_t l = 0; l < input.lanes.size(); ++l) {
    ids.push_back("replay-" + std::to_string(l));
    manager.open_session(ids.back(), input.lanes[l].model);
  }
  DispatchTimes times;
  const std::size_t per_chunk = kChunkFrames * input.lanes.front().ring->batches.front().size();
  std::vector<std::vector<trace::CallEvent>> chunk(input.lanes.size());
  for (std::size_t e0 = 0; e0 < data.events.front().size(); e0 += per_chunk) {
    for (std::size_t l = 0; l < chunk.size(); ++l) {
      chunk[l].clear();
      const auto& events = data.events[l];
      for (std::size_t e = e0; e < std::min(e0 + per_chunk, events.size()); ++e) {
        chunk[l].push_back(*events[e]);
      }
    }
    const double start = wall_seconds();
    for (std::size_t l = 0; l < chunk.size(); ++l) {
      for (auto& event : chunk[l]) {
        if (manager.submit(ids[l], std::move(event)) != serve::SubmitResult::kAccepted) {
          throw std::runtime_error("perfbench: replay submit refused");
        }
      }
    }
    const double mid = wall_seconds();
    manager.drain();
    times.front += mid - start;
    times.drain += wall_seconds() - mid;
  }
  return times;
}

struct MonitorRun {
  double seconds = 0.0;
  std::size_t windows = 0;
  std::size_t flagged = 0;
  std::size_t records = 0;
};

/// OnlineMonitor::on_event over every lane's events; optionally keeps the
/// completed windows (with their lane) for the kernel replays.
MonitorRun time_monitor(const ServingReplayInput& input, const ReplayData& data,
                        const core::MonitorOptions& options,
                        std::vector<std::pair<std::size_t, hmm::ObservationSeq>>* windows) {
  MonitorRun run;
  for (std::size_t l = 0; l < input.lanes.size(); ++l) {
    const auto detector = find_model(input, input.lanes[l].model);
    core::OnlineMonitor monitor(*detector, nullptr, options);
    std::vector<trace::CallEvent> events;
    events.reserve(data.events[l].size());
    for (const auto* event : data.events[l]) events.push_back(*event);
    const double start = wall_seconds();
    for (auto& event : events) {
      const core::MonitorUpdate update = monitor.on_event(std::move(event));
      if (!update.window_complete) continue;
      ++run.windows;
      if (update.flagged) ++run.flagged;
      if (update.decision != nullptr) ++run.records;
      if (windows != nullptr && update.window != nullptr &&
          windows->size() < kMaxWindows) {
        windows->emplace_back(l, *update.window);
      }
    }
    run.seconds += wall_seconds() - start;
  }
  return run;
}

core::MonitorOptions with_audit(core::MonitorOptions options, bool on) {
  options.decisions.enabled = on;
  if (on) {
    // cmarkovd's production decision audit: 1-in-100 plus every flagged
    // window and alarm.
    options.decisions.sample_every = 100;
    options.decisions.always_on_flagged = true;
  }
  return options;
}

void replay_lifecycle(const ServingReplayInput& input, const ReplayData& data,
                      ServingReplay& out) {
  serve::ModelRegistry registry;
  add_models(registry, input);
  serve::ServiceConfig config = replay_config(input.config, 1024);
  serve::SessionManager manager(registry, config);
  const std::string& model = input.lanes.front().model;
  std::vector<trace::CallEvent> feed;
  for (std::size_t e = 0; e < 32 && e < data.events.front().size(); ++e) {
    feed.push_back(*data.events.front()[e]);
  }
  std::vector<double> evict_us, restore_us, open_close_us;
  for (std::size_t i = 0; i < kLifecycleSessions; ++i) {
    const std::string id = "life-" + std::to_string(i);
    double t = wall_seconds();
    manager.open_session(id, model);
    const double open_s = wall_seconds() - t;
    for (const auto& event : feed) manager.submit(id, event);
    manager.drain();
    t = wall_seconds();
    if (!manager.evict_session(id)) throw std::runtime_error("perfbench: evict failed");
    evict_us.push_back((wall_seconds() - t) * 1e6);
    if (i == 0) {
      const auto snapshot = manager.snapshot_store().peek(id);
      if (snapshot) out.snapshot_bytes = static_cast<double>(
          serve::encode_session_snapshot(*snapshot).size());
    }
    t = wall_seconds();
    manager.submit(id, feed.front());  // transparently restores
    restore_us.push_back((wall_seconds() - t) * 1e6);
    manager.drain();
    t = wall_seconds();
    manager.close_session(id);
    open_close_us.push_back((open_s + wall_seconds() - t) * 1e6);
  }
  out.evict_us = median(std::move(evict_us));
  out.restore_us = median(std::move(restore_us));
  out.open_close_us = median(std::move(open_close_us));

  const std::uint64_t rss_before = current_rss_bytes();
  for (std::size_t i = 0; i < kResidentSessions; ++i) {
    manager.open_session("resident-" + std::to_string(i), model);
  }
  const std::uint64_t rss_after = current_rss_bytes();
  out.rss_bytes_per_session =
      (static_cast<double>(rss_after) - static_cast<double>(rss_before)) /
      static_cast<double>(kResidentSessions);
  (void)manager.metrics_registry();  // refreshes the gauges
  out.state_bytes_per_session =
      manager.instruments().gauge("cmarkov_serve_session_state_bytes").value();
}

}  // namespace

ServingReplay replay_serving(const ServingReplayInput& input,
                             obs::RunProfile* profile) {
  const ReplayData data = collect(input);
  const double events = static_cast<double>(data.total_events);
  ServingReplay out;
  const obs::ScopedTimer replay_span(profile, "replay");

  {
    const obs::ScopedTimer span(profile, "net.decode");
    out.decode_ns_per_event = median_of_3([&] {
      const double start = wall_seconds();
      for (const auto& frames : data.frames) {
        for (const auto& frame : frames) {
          g_sink = g_sink + static_cast<double>(
                                net::decode_event_batch_payload(frame.payload).size());
        }
      }
      return (wall_seconds() - start) * 1e9 / events;
    });
  }
  {
    const obs::ScopedTimer span(profile, "net.dispatch");
    out.dispatch_ns_per_event = median_of_3([&] {
      return time_dispatch(input, data).front * 1e9 / events;
    });
  }
  {
    const obs::ScopedTimer span(profile, "serve.submit");
    std::vector<double> submit, drain;
    for (int rep = 0; rep < 3; ++rep) {
      const DispatchTimes times = time_submit(input, data);
      submit.push_back(times.front * 1e9 / events);
      drain.push_back(times.drain * 1e9 / events);
    }
    out.submit_ns_per_event = median(submit);
    out.drain_ns_per_event = median(drain);
  }

  std::vector<std::pair<std::size_t, hmm::ObservationSeq>> windows;
  {
    const obs::ScopedTimer span(profile, "core.monitor");
    MonitorRun first;
    out.monitor_ns_per_event = median_of_3([&] {
      const MonitorRun run = time_monitor(input, data, input.config.monitor,
                                          windows.empty() ? &windows : nullptr);
      if (first.windows == 0) first = run;
      return run.seconds * 1e9 / events;
    });
    out.windows_per_event = static_cast<double>(first.windows) / events;
    out.flagged_share = first.windows == 0
                            ? 0.0
                            : static_cast<double>(first.flagged) /
                                  static_cast<double>(first.windows);
  }
  {
    const obs::ScopedTimer span(profile, "obs.audit");
    std::size_t records = 0;
    const double on = median_of_3([&] {
      const MonitorRun run =
          time_monitor(input, data, with_audit(input.config.monitor, true), nullptr);
      records = run.records;
      return run.seconds * 1e9 / events;
    });
    const double off = median_of_3([&] {
      return time_monitor(input, data, with_audit(input.config.monitor, false),
                          nullptr)
                 .seconds *
             1e9 / events;
    });
    out.audit_ns_per_event = on - off;
    out.decision_records_per_kevent = static_cast<double>(records) * 1e3 / events;
  }

  std::vector<std::shared_ptr<const core::Detector>> detectors;
  std::vector<std::shared_ptr<const core::ScoringKernel>> kernels;
  for (const LaneSpec& lane : input.lanes) {
    detectors.push_back(find_model(input, lane.model));
    kernels.push_back(core::ScoringKernel::compile(*detectors.back()));
  }
  const double window_count = static_cast<double>(std::max<std::size_t>(1, windows.size()));
  {
    const obs::ScopedTimer span(profile, "core.kernel");
    core::KernelScratch scratch;
    out.kernel_ns_per_window = median_of_3([&] {
      const double start = wall_seconds();
      for (const auto& [lane, window] : windows) {
        g_sink = g_sink + kernels[lane]->score_window(window, scratch).log_likelihood;
      }
      return (wall_seconds() - start) * 1e9 / window_count;
    });
    double macs = 0.0;
    for (const auto& [lane, window] : windows) {
      const double n = static_cast<double>(kernels[lane]->num_states());
      macs += n * n * static_cast<double>(window.size());
    }
    out.kernel_macs_per_window = macs / window_count;
  }
  {
    const obs::ScopedTimer span(profile, "core.reference");
    out.reference_ns_per_window = median_of_3([&] {
      const double start = wall_seconds();
      for (const auto& [lane, window] : windows) {
        g_sink = g_sink + detectors[lane]->score_segment(window).log_likelihood;
      }
      return (wall_seconds() - start) * 1e9 / window_count;
    });
  }
  {
    const obs::ScopedTimer span(profile, "serve.lifecycle");
    replay_lifecycle(input, data, out);
  }
  return out;
}

BuildReplay replay_build(const std::vector<const ModelInputs*>& models,
                         const BuildSettings& settings,
                         obs::RunProfile* profile) {
  BuildReplay out;
  const obs::ScopedTimer replay_span(profile, "replay.build");
  double fit_seconds = 0.0;
  std::size_t iterations = 0;
  double fb_seconds = 0.0;
  std::size_t symbols = 0;
  double pool_share = 0.0;
  for (const ModelInputs* inputs : models) {
    core::DetectorConfig config = detector_config(inputs->spec, settings);
    const ir::ProgramModule& module = inputs->suite->module();

    // The public phase calls of run_static_pipeline, in its order.
    cfg::ModuleCfg module_cfg;
    cfg::CallGraph call_graph;
    {
      const obs::ScopedTimer span(profile, "cfg.build");
      out.cfg_build_ms += 1e3 * median_of_3([&] {
        const double start = wall_seconds();
        module_cfg = cfg::build_module_cfg(module);
        call_graph = cfg::CallGraph::build(module_cfg);
        return wall_seconds() - start;
      });
    }
    analysis::FunctionMatrixOptions matrix = config.pipeline.matrix;
    matrix.filter = config.pipeline.filter;
    const auto heuristic =
        analysis::make_branch_heuristic(matrix.heuristic, matrix.loop_probability);
    analysis::AggregatedProgram aggregated;
    {
      const obs::ScopedTimer span(profile, "analysis.aggregate");
      out.aggregate_ms += 1e3 * median_of_3([&] {
        const double start = wall_seconds();
        aggregated = analysis::aggregate_program(module_cfg, call_graph,
                                                 *heuristic, matrix);
        return wall_seconds() - start;
      });
    }
    reduction::ClusteringOptions clustering = config.pipeline.clustering;
    clustering.exec.adopt_runtime(config.pipeline.exec);
    reduction::ReducedModel reduced;
    {
      const obs::ScopedTimer span(profile, "reduction.cluster");
      out.cluster_ms += 1e3 * median_of_3([&] {
        Rng rng(config.seed);
        const double start = wall_seconds();
        const auto clusters =
            reduction::cluster_calls(aggregated.program_matrix, rng, clustering);
        reduced = reduction::reconstruct_reduced_model(aggregated.program_matrix,
                                                       clusters);
        return wall_seconds() - start;
      });
    }
    {
      const obs::ScopedTimer span(profile, "hmm.static_init");
      out.static_init_ms += 1e3 * median_of_3([&] {
        hmm::Alphabet alphabet;
        const double start = wall_seconds();
        const auto init = hmm::statically_initialized_hmm(
            reduced, hmm::ObservationEncoding::kContextSensitive, alphabet,
            config.pipeline.static_init);
        g_sink = g_sink + static_cast<double>(init.model.num_states());
        return wall_seconds() - start;
      });
    }

    // The corpus the build's fit saw, taken from a build that keeps it.
    core::DetectorConfig keep = config;
    keep.keep_trainer_state = true;
    core::Detector detector = core::Detector::build(module, keep);
    detector.train(inputs->traces);
    const hmm::TrainerState& state = *detector.trainer_state();
    {
      const obs::ScopedTimer span(profile, "hmm.fit");
      obs::MetricsRegistry registry;
      hmm::TrainingOptions options = config.training;
      options.exec.metrics = &registry;
      const double start = wall_seconds();
      hmm::Trainer trainer(state.initial_model, options);
      const hmm::TrainingReport report = trainer.fit(state.train, state.holdout);
      fit_seconds += wall_seconds() - start;
      iterations += report.iterations;
      pool_share += registry.gauge("cmarkov_train_pool_utilization_ratio").value();
    }
    {
      const obs::ScopedTimer span(profile, "hmm.forward_backward");
      std::size_t model_symbols = 0;
      fb_seconds += median_of_3([&] {
        model_symbols = 0;
        const double start = wall_seconds();
        for (const auto& sequence : state.train) {
          const hmm::ForwardResult forward =
              hmm::forward_scaled(state.initial_model, sequence);
          if (forward.impossible || sequence.empty()) continue;
          const Matrix beta =
              hmm::backward_scaled(state.initial_model, sequence, forward.scales);
          g_sink = g_sink + beta(0, 0);
          model_symbols += sequence.size();
        }
        return wall_seconds() - start;
      });
      symbols += model_symbols;
    }
    {
      const obs::ScopedTimer span(profile, "core.calibrate");
      const auto& calibration = state.holdout.empty() ? state.train : state.holdout;
      out.calibrate_ms += 1e3 * median_of_3([&] {
        const double start = wall_seconds();
        g_sink = g_sink + core::calibrate_threshold(detector.model(), calibration,
                                                    config.target_fp);
        return wall_seconds() - start;
      });
    }
  }
  out.fit_s_per_iteration =
      iterations == 0 ? 0.0 : fit_seconds / static_cast<double>(iterations) *
                                  static_cast<double>(models.size());
  out.forward_backward_ns_per_symbol =
      symbols == 0 ? 0.0 : fb_seconds * 1e9 / static_cast<double>(symbols);
  out.pool_busy_share = pool_share / static_cast<double>(models.size());
  return out;
}

}  // namespace perfbench
