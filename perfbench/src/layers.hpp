// Layer replays for the traced run: the run's exact frames, events,
// windows and training corpora are fed through each layer's public entry
// point from outside the program, top to bottom, so a layer's self time is
// its replay minus the replay of the layer below it on the same inputs.
// Every timed replay runs three times and reports the median.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "src/obs/run_profile.hpp"
#include "src/serve/session_manager.hpp"
#include "wire.hpp"

namespace perfbench {

/// What the serving replays need: the lanes (model + frame ring), how many
/// leading frames of each ring the run sent, the served detectors, and the
/// workload's service configuration.
struct ServingReplayInput {
  std::vector<LaneSpec> lanes;
  std::size_t frames_per_lane = 0;
  std::vector<std::pair<std::string, std::shared_ptr<const cmarkov::core::Detector>>>
      models;
  cmarkov::serve::ServiceConfig config;
};

struct ServingReplay {
  double decode_ns_per_event = 0.0;     ///< decode_event_batch_payload
  double dispatch_ns_per_event = 0.0;   ///< BinarySession::handle_frame
  double submit_ns_per_event = 0.0;     ///< SessionManager::submit
  double drain_ns_per_event = 0.0;      ///< SessionManager::drain (manual pump)
  double monitor_ns_per_event = 0.0;    ///< OnlineMonitor::on_event
  double kernel_ns_per_window = 0.0;    ///< ScoringKernel::score_window
  double reference_ns_per_window = 0.0; ///< Detector::score_segment
  double audit_ns_per_event = 0.0;      ///< on_event with audit minus without
  double decision_records_per_kevent = 0.0;
  double windows_per_event = 0.0;
  double flagged_share = 0.0;
  double kernel_macs_per_window = 0.0;  ///< N^2 * L of the scoring kernel
  double evict_us = 0.0;
  double restore_us = 0.0;
  double open_close_us = 0.0;
  double state_bytes_per_session = 0.0;
  double rss_bytes_per_session = 0.0;
  double snapshot_bytes = 0.0;
};

ServingReplay replay_serving(const ServingReplayInput& input,
                             cmarkov::obs::RunProfile* profile);

/// Offline-build layers, replayed on the training inputs of the models a
/// workload builds.
struct BuildReplay {
  double cfg_build_ms = 0.0;           ///< cfg::build_module_cfg + CallGraph
  double aggregate_ms = 0.0;           ///< analysis::aggregate_program
  double cluster_ms = 0.0;             ///< reduction::cluster_calls + reconstruct
  double static_init_ms = 0.0;         ///< hmm::statically_initialized_hmm
  double fit_s_per_iteration = 0.0;    ///< hmm::Trainer::fit / iterations
  double forward_backward_ns_per_symbol = 0.0;  ///< 1 thread, θ₀
  double calibrate_ms = 0.0;           ///< core::calibrate_threshold
  double pool_busy_share = 0.0;        ///< WorkerPool::last_run_stats
};

BuildReplay replay_build(const std::vector<const ModelInputs*>& models,
                         const BuildSettings& settings,
                         cmarkov::obs::RunProfile* profile);

}  // namespace perfbench
