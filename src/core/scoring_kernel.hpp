// ScoringKernel — the serve hot path's compiled model image.
//
// A trained Detector keeps its parameters in the generic representation the
// training engine wants (row-major Matrix A/B, a std::string-keyed alphabet
// map). The online scoring path has very different needs: every live
// session scores one 15-call window per event against the SAME immutable
// parameters, so the serve tier compiles the model once into a flat,
// pointer-free, cache-resident image and shares it read-only across every
// OnlineMonitor bound to that model version (ModelRegistry owns the
// shared_ptr; hot reload swaps a freshly compiled image under the same
// epoch-reclamation scheme as the detector itself).
//
// One contiguous arena allocation holds, in order:
//   - pi     : N doubles, the initial distribution;
//   - A      : N x N doubles, source-major (transition[i*N + j] = A(i, j)) —
//              the forward step is register-tiled: destinations go in tiles
//              of 16 (then one tail tile of the N % 16 left over), and each
//              tile walks the sources in ascending i with its accumulators
//              in SSE registers, reading a contiguous slice of each row.
//              Still bit-exact: each destination's sum adds its terms in
//              ascending-i order, same as the reference's per-destination
//              dot product, with no fused or reassociated operation;
//   - B^T    : M x N doubles, emission_t[k*N + j] = B(j, k) — the emission
//              column of the observed symbol is a contiguous row, resolved
//              once per timestep via emission_col(k);
//   - slots  : open-addressing hash table (power-of-two, linear probing)
//              interning the alphabet's observation strings to dense ids —
//              find_observation() hashes "name[@caller]" piecewise, so the
//              per-event lookup builds no std::string and touches no
//              node-based map;
//   - blob   : the interned string bytes the slots point into;
//   - pruned : (top-K mode only) per-destination-state sparse predecessor
//              lists replacing near-zero transition rows entries.
//
// Scoring runs against a flat two-row scratch buffer (KernelScratch, owned
// per monitor and recycled through the serve StatePool) — no ForwardResult
// matrix, no per-window allocation. In exact mode (the default) the kernel
// performs the same floating-point operations in the same order as
// hmm::forward_scaled, so window log-likelihoods are BIT-IDENTICAL to the
// reference path (asserted by detector_test / online_monitor_test golden
// tests). It is the only recursion OnlineMonitor runs: the decision audit
// reads log c_t and the argmax state of each step from an optional
// per-step sink instead of a reference alpha matrix. Top-K pruning is
// opt-in and documented in DESIGN.md §"Scoring kernel" with its error
// bound; it is never enabled implicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/detector.hpp"

namespace cmarkov::core {

/// Compilation controls. Defaults compile the exact kernel; pruning is the
/// off-by-default speed/accuracy trade (see DESIGN.md for the bound).
struct KernelOptions {
  /// Replace each destination state's dense predecessor row with a sparse
  /// list, dropping entries <= prune_epsilon and keeping at most top_k of
  /// the rest (largest mass first; 0 = no count cap). Scored windows are
  /// then no longer bit-identical to forward_scaled.
  bool prune = false;
  double prune_epsilon = 1e-8;
  std::size_t top_k = 0;
};

/// Per-monitor forward scratch: two ping-pong alpha rows, recycled through
/// the serve StatePool with the rest of the monitor storage.
struct KernelScratch {
  std::vector<double> alpha;

  /// Grows (never shrinks) to 2*num_states and returns the base pointer.
  double* ensure(std::size_t num_states) {
    if (alpha.size() < 2 * num_states) alpha.resize(2 * num_states, 0.0);
    return alpha.data();
  }
  std::size_t capacity_bytes() const {
    return alpha.capacity() * sizeof(double);
  }
};

class ScoringKernel {
 public:
  /// Compiles the immutable image from a trained detector. Throws
  /// std::invalid_argument for untrained detectors (the serve tier never
  /// scores against one) and for nonsensical prune options.
  static std::shared_ptr<const ScoringKernel> compile(
      const Detector& detector, KernelOptions options = {});

  /// Dense observation id for a call event, or unknown_id() when the model
  /// never saw this call in this context. Equivalent to interning
  /// encode_observation(name, caller, encoding) through Alphabet::find —
  /// same ids, same unknown fallback — but hashes the parts in place
  /// without materializing the observation string.
  std::size_t find_observation(std::string_view name,
                               std::string_view caller) const;

  /// Id of a fully rendered observation string (tests, tooling).
  std::size_t find_symbol(std::string_view observation) const;

  /// The id assigned to out-of-alphabet observations: alphabet_size(), the
  /// same sentinel the Detector/Alphabet path uses, so window snapshots
  /// are interchangeable between kernel and reference scoring.
  std::size_t unknown_id() const { return alphabet_size_; }

  /// Scores one complete window against the compiled tables. Exact mode is
  /// bit-identical to Detector::score_segment (same verdict fields, same
  /// doubles); pruned mode under-estimates the likelihood within the
  /// documented bound. `scratch` is grown on demand and holds no state
  /// across calls.
  ///
  /// `steps`, when not empty, is the decision audit's per-step sink: it
  /// must hold one entry per window symbol and receives log c_t and the
  /// argmax state of each normalized alpha row (see ForwardStep), the
  /// input of Detector::make_decision_record. Windows with an unknown id
  /// run no recursion and leave it untouched. An empty sink adds one
  /// branch per step outside the inner loops.
  SegmentVerdict score_window(std::span<const std::size_t> window,
                              KernelScratch& scratch,
                              std::span<ForwardStep> steps = {}) const;

  std::size_t num_states() const { return num_states_; }
  std::size_t num_symbols() const { return num_symbols_; }
  std::size_t alphabet_size() const { return alphabet_size_; }
  double threshold() const { return threshold_; }
  bool context_sensitive() const { return context_sensitive_; }

  const KernelOptions& options() const { return options_; }
  bool pruned() const { return options_.prune; }
  /// Transition entries dropped by pruning (0 in exact mode).
  std::size_t pruned_entries() const { return pruned_entries_; }
  /// Largest incoming-transition probability mass pruning dropped for any
  /// destination state, D. The pruned forward pass under-estimates each
  /// step's scale by at most D (alpha is normalized and emissions are
  /// <= 1), so the per-window deficit obeys the CONDITIONAL bound
  ///   0 <= LL_exact - LL_pruned <= sum_t -log(1 - D / c_t)
  /// in the exact per-step scales c_t. No unconditional bound exists —
  /// when the dropped entries carry the dominant alpha flow of a step, c_t
  /// itself approaches D — which is why pruning is opt-in and must be
  /// validated empirically per feed (bench_score measures the worst
  /// observed deficit and verdict flips; DESIGN.md §"Scoring kernel").
  double max_dropped_mass() const { return max_dropped_mass_; }

  /// Arena footprint of the compiled image (the shared, per-model-version
  /// memory bill — deliberately NOT part of any per-session state_bytes).
  std::size_t image_bytes() const { return arena_.size() + sizeof(*this); }
  /// Wall-clock cost of compile() (feeds cmarkov_serve_kernel_build_micros).
  double build_micros() const { return build_micros_; }

 private:
  /// Open-addressing slot; empty slots have offset == kEmptySlot.
  struct Slot {
    std::uint32_t offset = 0xffffffffu;
    std::uint32_t length = 0;
    std::uint32_t id = 0;
  };
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  ScoringKernel() = default;

  const double* emission_col(std::size_t symbol) const {
    return emission_t_ + symbol * num_states_;
  }
  /// Linear-probe lookup. `joined` compares the stored string against
  /// name + '@' + caller without concatenating them.
  std::size_t probe(std::uint64_t hash, std::string_view name, bool joined,
                    std::string_view caller) const;

  std::size_t num_states_ = 0;
  std::size_t num_symbols_ = 0;
  std::size_t alphabet_size_ = 0;
  double threshold_ = 0.0;
  bool context_sensitive_ = true;
  KernelOptions options_;
  std::size_t pruned_entries_ = 0;
  double max_dropped_mass_ = 0.0;
  double build_micros_ = 0.0;

  /// The single arena allocation; every pointer below aims into it.
  std::vector<std::byte> arena_;
  const double* initial_ = nullptr;
  const double* transition_ = nullptr;
  const double* emission_t_ = nullptr;
  const Slot* slots_ = nullptr;
  std::size_t slot_mask_ = 0;
  const char* blob_ = nullptr;
  /// Pruned mode: entry ranges per destination state j are
  /// [prune_offsets_[j], prune_offsets_[j+1]) into the idx/val arrays.
  const std::uint32_t* prune_offsets_ = nullptr;
  const std::uint32_t* prune_idx_ = nullptr;
  const double* prune_val_ = nullptr;
};

}  // namespace cmarkov::core
