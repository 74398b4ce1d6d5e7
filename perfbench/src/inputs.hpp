// Seeded inputs and the models they are served against.
//
// The served models are part of the system under test, not of the traffic:
// they are trained from traces of a fixed seed, so every run of a workload
// serves the same model and --seed varies only the traffic. Generating
// traces runs the program suites' interpreter; that is input generation and
// is never timed as program work.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/detector.hpp"
#include "src/trace/event.hpp"
#include "src/workload/program_suite.hpp"

namespace perfbench {

/// One model a workload builds: a program suite and the call stream it
/// monitors (context-sensitive in both cases, as cmarkovd serves them).
struct ModelSpec {
  std::string name;
  std::string suite;
  cmarkov::analysis::CallFilter filter;
};

/// Build settings shared by every model the benchmark trains.
struct BuildSettings {
  std::size_t traces = 40;      ///< training traces per suite
  std::size_t iterations = 4;   ///< fixed EM iterations (no early stop)
  std::size_t threads = 2;      ///< trainer threads (nproc - 2 on 4 vCPUs)
};

/// Fixed seed of every model's training traces.
inline constexpr std::uint64_t kModelTraceSeed = 91;

/// A suite plus the training traces of one model (input generation).
struct ModelInputs {
  ModelSpec spec;
  std::shared_ptr<const cmarkov::workload::ProgramSuite> suite;
  std::vector<cmarkov::trace::Trace> traces;
  std::size_t stream_events = 0;  ///< training events in the model's stream
};

ModelInputs make_model_inputs(const ModelSpec& spec,
                              const BuildSettings& settings);

cmarkov::core::DetectorConfig detector_config(const ModelSpec& spec,
                                              const BuildSettings& settings,
                                              cmarkov::ExecContext exec = {});

/// Static pipeline + Baum-Welch fit + threshold calibration (program work).
cmarkov::core::Detector build_model(const ModelInputs& inputs,
                                    const BuildSettings& settings,
                                    cmarkov::ExecContext exec = {});

/// The events of `traces` that fall in `filter`'s stream, reduced to what a
/// CMKB event record carries (kind, caller, callee) so an in-process replay
/// sees exactly what the server decoded.
std::vector<cmarkov::trace::CallEvent> stream_events(
    const std::vector<cmarkov::trace::Trace>& traces,
    cmarkov::analysis::CallFilter filter);

/// A ring of pre-encoded EV-batch frames for one connection, cut from a
/// seeded event stream. The generator cycles through it; `batches[i]` are
/// the events of `frames[i]`.
struct FrameRing {
  std::vector<std::string> frames;
  std::vector<std::vector<cmarkov::trace::CallEvent>> batches;
};

FrameRing make_frame_ring(const ModelInputs& model, std::uint64_t seed,
                          std::size_t batch_events, std::size_t ring_batches);

}  // namespace perfbench
