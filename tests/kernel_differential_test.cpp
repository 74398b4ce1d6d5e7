// Differential test of the compiled ScoringKernel against the reference
// forward recursion on random HMMs. The exact kernel walks destinations in
// register tiles of 16 plus one tail tile of N % 16, so the state counts
// cover every tail width (N = 1..34) and several multiples of the tile
// (47, 48, 64, 127, 128). Each model is scored on windows of length 0, 1,
// 2, 15 and 33, and every verdict must equal Detector::score_segment bit
// for bit; every audited window's step sink must equal
// hmm::per_symbol_log_contributions / per_symbol_argmax_states of
// hmm::forward_scaled. Degenerate models put exact zeros through the
// tiles: rows with one or two non-zero transitions, a symbol no state
// emits (a step impossible at t = 0 and mid-window), and states nothing
// can reach. An all-zero transition row cannot be built:
// Detector::from_parts validates that every row is stochastic.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/detector.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/hmm/forward_backward.hpp"

namespace cmarkov {
namespace {

const std::vector<std::size_t> kStateCounts = [] {
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 34; ++n) counts.push_back(n);
  for (const std::size_t n : {47, 48, 64, 127, 128}) counts.push_back(n);
  return counts;
}();
constexpr std::size_t kWindowLengths[] = {0, 1, 2, 15, 33};

/// mt19937_64 is specified bit for bit by the standard; the conversion to
/// [0, 1) is done here so the models do not depend on the library's
/// distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  double uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) { return engine_() % n; }

 private:
  std::mt19937_64 engine_;
};

enum class Shape {
  kDense,        // every entry positive, skewed
  kSparse,       // 1-2 transitions per row, 1-3 symbols per state, and the
                 // last symbol emitted by no state
  kUnreachable,  // every third state (and the last) has zero initial mass
                 // and no incoming transition
};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Normalizes row `r` of `m` in place; every row has at least one positive
/// entry when this is called.
void normalize_row(Matrix& m, std::size_t r) {
  double total = 0.0;
  for (std::size_t c = 0; c < m.cols(); ++c) total += m(r, c);
  for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) /= total;
}

struct Model {
  core::Detector detector;
  /// The symbol no state emits (kSparse), else num_symbols (none).
  std::size_t never_emitted;
};

Model random_model(std::size_t n, Shape shape, Rng& rng) {
  const std::size_t m = n + 3;
  const auto unreachable = [&](std::size_t s) {
    return shape == Shape::kUnreachable && n > 1 &&
           (s % 3 == 2 || s == n - 1);
  };
  hmm::Hmm model;
  model.transition = Matrix(n, n);
  model.emission = Matrix(n, m);
  model.initial.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (shape == Shape::kSparse) {
      const std::size_t fanout = 1 + rng.below(2);
      for (std::size_t k = 0; k < fanout; ++k) {
        model.transition(i, rng.below(n)) = 0.1 + rng.uniform();
      }
      const std::size_t emits = 1 + rng.below(3);
      for (std::size_t k = 0; k < emits; ++k) {
        model.emission(i, rng.below(m - 1)) = 0.1 + rng.uniform();
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        const double u = rng.uniform();
        model.transition(i, j) = unreachable(j) ? 0.0 : 1e-9 + u * u * u;
      }
      for (std::size_t k = 0; k < m; ++k) {
        const double u = rng.uniform();
        model.emission(i, k) = 1e-9 + u * u;
      }
    }
    normalize_row(model.transition, i);
    normalize_row(model.emission, i);
    model.initial[i] = unreachable(i) ? 0.0 : 0.05 + rng.uniform();
  }
  double total = 0.0;
  for (const double v : model.initial) total += v;
  for (double& v : model.initial) v /= total;

  hmm::Alphabet alphabet;
  for (std::size_t k = 0; k < m; ++k) alphabet.intern("s" + std::to_string(k));
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kAll;
  return {core::Detector::from_parts(config, std::move(model),
                                     std::move(alphabet),
                                     /*threshold=*/-20.0, /*trained=*/true),
          shape == Shape::kSparse ? m - 1 : m};
}

/// A window drawn from the model itself, so most windows are possible even
/// under sparse emissions.
hmm::ObservationSeq sample_window(const hmm::Hmm& model, std::size_t length,
                                  Rng& rng) {
  const auto draw = [&](const auto& weight, std::size_t count) {
    double u = rng.uniform();
    for (std::size_t k = 0; k + 1 < count; ++k) {
      u -= weight(k);
      if (u < 0.0) return k;
    }
    return count - 1;
  };
  hmm::ObservationSeq window;
  std::size_t state = draw([&](std::size_t s) { return model.initial[s]; },
                           model.num_states());
  for (std::size_t t = 0; t < length; ++t) {
    window.push_back(draw(
        [&](std::size_t k) { return model.emission(state, k); },
        model.num_symbols()));
    state = draw([&](std::size_t j) { return model.transition(state, j); },
                 model.num_states());
  }
  return window;
}

/// The windows one model is scored on: sampled, uniform, with an unknown id,
/// and (sparse) with the never-emitted symbol first and mid-window.
std::vector<hmm::ObservationSeq> windows_for(const Model& case_model,
                                             Rng& rng) {
  const hmm::Hmm& model = case_model.detector.model();
  const std::size_t m = model.num_symbols();
  std::vector<hmm::ObservationSeq> windows;
  for (const std::size_t length : kWindowLengths) {
    for (int k = 0; k < 3; ++k) {
      windows.push_back(sample_window(model, length, rng));
    }
    hmm::ObservationSeq uniform(length);
    for (auto& id : uniform) id = rng.below(m);
    windows.push_back(uniform);
    if (length == 0) continue;
    hmm::ObservationSeq unknown = sample_window(model, length, rng);
    unknown[rng.below(length)] = case_model.detector.alphabet().size();
    windows.push_back(unknown);
    if (case_model.never_emitted < m) {
      hmm::ObservationSeq first = sample_window(model, length, rng);
      first[0] = case_model.never_emitted;
      windows.push_back(first);
      hmm::ObservationSeq middle = sample_window(model, length, rng);
      middle[length / 2] = case_model.never_emitted;
      windows.push_back(middle);
    }
  }
  return windows;
}

struct Tally {
  std::size_t impossible = 0;
  std::size_t flagged_possible = 0;
  std::size_t clear = 0;
};

void expect_same_verdict(const core::SegmentVerdict& got,
                         const core::SegmentVerdict& want) {
  EXPECT_EQ(bits(got.log_likelihood), bits(want.log_likelihood))
      << got.log_likelihood << " vs " << want.log_likelihood;
  EXPECT_EQ(got.flagged, want.flagged);
  EXPECT_EQ(got.unknown_symbol, want.unknown_symbol);
}

/// Scores every window of one model through the kernel, with and without
/// the step sink, and checks both against the reference.
void expect_kernel_matches_reference(const Model& case_model, Rng& rng,
                                     Tally& tally) {
  const core::Detector& detector = case_model.detector;
  const auto kernel = core::ScoringKernel::compile(detector);
  core::KernelScratch scratch;
  for (const hmm::ObservationSeq& window : windows_for(case_model, rng)) {
    SCOPED_TRACE("window length " + std::to_string(window.size()));
    const core::SegmentVerdict want = detector.score_segment(window);
    expect_same_verdict(kernel->score_window(window, scratch), want);
    if (want.log_likelihood == -std::numeric_limits<double>::infinity()) {
      ++tally.impossible;
    } else if (want.flagged) {
      ++tally.flagged_possible;
    } else {
      ++tally.clear;
    }
    if (window.empty() || want.unknown_symbol) continue;

    // Stale values in the sink must all be overwritten.
    std::vector<core::ForwardStep> steps(window.size(), {123.0, 99});
    expect_same_verdict(kernel->score_window(window, scratch, steps), want);
    const hmm::ForwardResult forward =
        hmm::forward_scaled(detector.model(), window);
    const std::vector<double> logs =
        hmm::per_symbol_log_contributions(forward);
    const std::vector<std::size_t> states =
        hmm::per_symbol_argmax_states(forward);
    for (std::size_t t = 0; t < window.size(); ++t) {
      EXPECT_EQ(bits(steps[t].log_prob), bits(logs[t])) << "step " << t;
      EXPECT_EQ(steps[t].state, states[t]) << "step " << t;
    }
  }
}

void run_shape(Shape shape, std::uint64_t seed, Tally& tally) {
  for (const std::size_t n : kStateCounts) {
    SCOPED_TRACE("N = " + std::to_string(n));
    Rng rng(seed * 1000 + n);
    const Model model = random_model(n, shape, rng);
    expect_kernel_matches_reference(model, rng, tally);
  }
}

TEST(KernelDifferentialTest, DenseModelsMatchReferenceBitForBit) {
  Tally tally;
  run_shape(Shape::kDense, 1, tally);
  // The threshold splits the windows: both verdicts are exercised.
  EXPECT_GT(tally.flagged_possible, 0u);
  EXPECT_GT(tally.clear, 0u);
}

TEST(KernelDifferentialTest, SparseModelsWithImpossibleStepsMatchReference) {
  Tally tally;
  run_shape(Shape::kSparse, 2, tally);
  EXPECT_GT(tally.impossible, 0u);
  EXPECT_GT(tally.flagged_possible + tally.clear, 0u);
}

TEST(KernelDifferentialTest, UnreachableStatesMatchReference) {
  Tally tally;
  run_shape(Shape::kUnreachable, 3, tally);
  EXPECT_GT(tally.flagged_possible, 0u);
  EXPECT_GT(tally.clear, 0u);
}

TEST(KernelDifferentialTest, FromPartsRejectsAnAllZeroTransitionRow) {
  // Why the degenerate shapes above stop at sparse rows: the kernel is only
  // ever compiled from a validated model.
  hmm::Hmm model;
  model.transition = Matrix::from_rows({{0.5, 0.5}, {0.0, 0.0}});
  model.emission = Matrix::from_rows({{1.0}, {1.0}});
  model.initial = {1.0, 0.0};
  hmm::Alphabet alphabet;
  alphabet.intern("s0");
  EXPECT_THROW(core::Detector::from_parts({}, std::move(model),
                                          std::move(alphabet), -1.0, true),
               std::invalid_argument);
}

}  // namespace
}  // namespace cmarkov
