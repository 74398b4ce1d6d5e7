#include "inputs.hpp"

#include <stdexcept>

#include "src/analysis/context.hpp"
#include "src/serve/net/frame.hpp"
#include "src/workload/testcase_generator.hpp"

namespace perfbench {

using namespace cmarkov;

ModelInputs make_model_inputs(const ModelSpec& spec,
                              const BuildSettings& settings) {
  ModelInputs inputs;
  inputs.spec = spec;
  inputs.suite = std::make_shared<const workload::ProgramSuite>(
      workload::make_suite(spec.suite));
  inputs.traces =
      workload::collect_traces(*inputs.suite, settings.traces, kModelTraceSeed)
          .traces;
  for (const auto& trace : inputs.traces) {
    inputs.stream_events += trace.count(spec.filter);
  }
  return inputs;
}

core::DetectorConfig detector_config(const ModelSpec& spec,
                                     const BuildSettings& settings,
                                     ExecContext exec) {
  core::DetectorConfig config;
  config.pipeline.filter = spec.filter;
  config.pipeline.context_sensitive = true;
  config.training.max_iterations = settings.iterations;
  config.training.min_improvement = -1.0;  // every iteration runs
  exec.threads = settings.threads;
  config.pipeline.exec = exec;
  config.training.exec = exec;
  return config;
}

core::Detector build_model(const ModelInputs& inputs,
                           const BuildSettings& settings, ExecContext exec) {
  core::Detector detector = core::Detector::build(
      inputs.suite->module(), detector_config(inputs.spec, settings, exec));
  detector.train(inputs.traces);
  return detector;
}

std::vector<trace::CallEvent> stream_events(
    const std::vector<trace::Trace>& traces, analysis::CallFilter filter) {
  std::vector<trace::CallEvent> events;
  for (const auto& trace : traces) {
    for (const auto& event : trace.events) {
      if (!analysis::filter_matches(filter, event.kind)) continue;
      trace::CallEvent wire;
      wire.kind = event.kind;
      wire.name = event.name;
      wire.caller = event.caller;
      events.push_back(std::move(wire));
    }
  }
  return events;
}

FrameRing make_frame_ring(const ModelInputs& model, std::uint64_t seed,
                          std::size_t batch_events, std::size_t ring_batches) {
  // Enough seeded test cases to fill the ring without repeating a trace.
  const std::size_t wanted = batch_events * ring_batches;
  std::vector<trace::CallEvent> pool;
  for (std::uint64_t round = 0; pool.size() < wanted; ++round) {
    if (round == 16) {
      throw std::runtime_error("perfbench: suite " + model.spec.suite +
                               " yields too few events for the ring");
    }
    const auto collection =
        workload::collect_traces(*model.suite, 64, seed * 1000 + round);
    auto events = stream_events(collection.traces, model.spec.filter);
    pool.insert(pool.end(), events.begin(), events.end());
  }
  pool.resize(wanted);
  FrameRing ring;
  for (std::size_t b = 0; b < ring_batches; ++b) {
    const auto first = pool.begin() + static_cast<std::ptrdiff_t>(b * batch_events);
    std::vector<trace::CallEvent> batch(
        first, first + static_cast<std::ptrdiff_t>(batch_events));
    ring.frames.push_back(serve::net::encode_frame(
        serve::net::FrameOp::kEventBatch, 0,
        serve::net::encode_event_batch_payload(batch)));
    ring.batches.push_back(std::move(batch));
  }
  return ring;
}

}  // namespace perfbench
