#include "src/core/scoring_kernel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/util/stopwatch.hpp"

namespace cmarkov::core {

namespace {

/// FNV-1a over one byte span, continuing from a running digest. Processing
/// "name", then "@", then "caller" piece by piece yields exactly the digest
/// of the concatenated observation string — the property find_observation
/// relies on to skip building it.
inline std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Most probable state of a normalized alpha row; ties go to the lowest
/// state, as in hmm::per_symbol_argmax_states.
std::size_t argmax_state(const double* row, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (row[i] > row[best]) best = i;
  }
  return best;
}

/// Two doubles in one SSE register (a GCC vector extension, plain SSE2 on
/// x86-64). Lane-wise + and * round exactly like the scalar operations, so a
/// lane computes bit for bit what a scalar accumulator would.
using Lanes = double __attribute__((vector_size(16)));

inline Lanes load_lanes(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The exact forward step for the W destinations starting at column j of the
/// source-major transition matrix `a`: W / 2 two-lane accumulators, plus one
/// scalar when W is odd, stay in registers across the whole predecessor
/// walk. Each destination adds its prev[i] * A(i, j) terms in ascending i,
/// starting from 0.0, exactly like the reference's per-destination dot
/// product; the emission multiply is applied once, when the tile is stored.
template <std::size_t W>
void forward_tile(const double* prev, const double* a, std::size_t n,
                  const double* em, std::size_t j, double* cur) {
  constexpr std::size_t kPairs = W / 2;
  Lanes acc[kPairs > 0 ? kPairs : 1] = {};
  double odd = 0.0;
  const double* row = a + j;
  for (std::size_t i = 0; i < n; ++i, row += n) {
    const double p = prev[i];
    const Lanes pp = {p, p};
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kPairs; ++v) {
      acc[v] += pp * load_lanes(row + 2 * v);
    }
    if constexpr (W % 2 != 0) odd += p * row[W - 1];
  }
#pragma GCC unroll 8
  for (std::size_t v = 0; v < kPairs; ++v) {
    const Lanes out = acc[v] * load_lanes(em + j + 2 * v);
    std::memcpy(cur + j + 2 * v, &out, sizeof out);
  }
  if constexpr (W % 2 != 0) cur[j + W - 1] = odd * em[j + W - 1];
}

/// Full tiles are 16 destinations wide: eight independent add chains. The
/// n % 16 destinations left over form one tail tile, so the tail costs one
/// predecessor walk (a chain of n dependent adds) whatever its width.
constexpr std::size_t kTileWidth = 16;

using TileFn = void (*)(const double*, const double*, std::size_t,
                        const double*, std::size_t, double*);

template <std::size_t... W>
constexpr std::array<TileFn, sizeof...(W)> tile_table(
    std::index_sequence<W...>) {
  return {&forward_tile<W>...};
}

/// kTailTiles[w] steps a tail of w destinations (w = 0 is a no-op).
constexpr auto kTailTiles = tile_table(std::make_index_sequence<kTileWidth>{});

/// Bump-carves an 8-aligned section of `bytes` out of the arena cursor.
std::size_t carve(std::size_t& cursor, std::size_t bytes) {
  const std::size_t at = cursor;
  cursor += (bytes + 7) & ~std::size_t{7};
  return at;
}

}  // namespace

std::shared_ptr<const ScoringKernel> ScoringKernel::compile(
    const Detector& detector, KernelOptions options) {
  const Stopwatch watch;
  if (!detector.trained()) {
    throw std::invalid_argument(
        "ScoringKernel: detector is not trained; the serve tier only scores");
  }
  if (options.prune && options.prune_epsilon < 0.0) {
    throw std::invalid_argument(
        "ScoringKernel: prune_epsilon must be >= 0");
  }
  const hmm::Hmm& model = detector.model();
  const hmm::Alphabet& alphabet = detector.alphabet();
  const std::size_t n = model.num_states();
  const std::size_t m = model.num_symbols();
  const std::size_t a = alphabet.size();

  // A shared_ptr with a private-constructor payload: allocate then fill.
  std::shared_ptr<ScoringKernel> kernel(new ScoringKernel());
  kernel->num_states_ = n;
  kernel->num_symbols_ = m;
  kernel->alphabet_size_ = a;
  kernel->threshold_ = detector.threshold();
  kernel->context_sensitive_ = detector.config().pipeline.context_sensitive;
  kernel->options_ = options;

  // Pruned predecessor lists are shaped before sizing the arena. Entries
  // stay in ascending predecessor order so the pruned inner sum is
  // deterministic (same order every run, every host).
  std::vector<std::uint32_t> prune_offsets;
  std::vector<std::uint32_t> prune_idx;
  std::vector<double> prune_val;
  if (options.prune) {
    prune_offsets.reserve(n + 1);
    prune_offsets.push_back(0);
    std::vector<std::pair<double, std::uint32_t>> kept;
    for (std::size_t j = 0; j < n; ++j) {
      kept.clear();
      double dropped = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double value = model.transition(i, j);
        if (value <= options.prune_epsilon) {
          dropped += value;
        } else {
          kept.emplace_back(value, static_cast<std::uint32_t>(i));
        }
      }
      if (options.top_k > 0 && kept.size() > options.top_k) {
        // Keep the top_k heaviest entries; ties break to the lower
        // predecessor id so compilation is deterministic.
        std::sort(kept.begin(), kept.end(), [](const auto& x, const auto& y) {
          return x.first != y.first ? x.first > y.first
                                    : x.second < y.second;
        });
        for (std::size_t k = options.top_k; k < kept.size(); ++k) {
          dropped += kept[k].first;
        }
        kept.resize(options.top_k);
      }
      std::sort(kept.begin(), kept.end(), [](const auto& x, const auto& y) {
        return x.second < y.second;
      });
      for (const auto& [value, index] : kept) {
        prune_idx.push_back(index);
        prune_val.push_back(value);
      }
      prune_offsets.push_back(static_cast<std::uint32_t>(prune_idx.size()));
      kernel->pruned_entries_ += n - kept.size();
      kernel->max_dropped_mass_ = std::max(kernel->max_dropped_mass_, dropped);
    }
    if (prune_idx.empty() && n > 0) {
      throw std::invalid_argument(
          "ScoringKernel: pruning dropped every transition entry; "
          "lower prune_epsilon or raise top_k");
    }
  }

  std::size_t blob_bytes = 0;
  for (const std::string& symbol : alphabet.symbols()) {
    blob_bytes += symbol.size();
  }
  const std::size_t table_size = next_pow2(std::max<std::size_t>(16, 2 * a));

  // Single arena allocation: compute the layout, then fill the sections.
  std::size_t cursor = 0;
  const std::size_t initial_at = carve(cursor, n * sizeof(double));
  const std::size_t transition_at = carve(cursor, n * n * sizeof(double));
  const std::size_t emission_at = carve(cursor, m * n * sizeof(double));
  const std::size_t slots_at = carve(cursor, table_size * sizeof(Slot));
  const std::size_t blob_at = carve(cursor, blob_bytes);
  const std::size_t offsets_at =
      carve(cursor, options.prune ? prune_offsets.size() * sizeof(std::uint32_t)
                                  : 0);
  const std::size_t idx_at =
      carve(cursor, prune_idx.size() * sizeof(std::uint32_t));
  const std::size_t val_at = carve(cursor, prune_val.size() * sizeof(double));
  kernel->arena_.assign(cursor, std::byte{0});
  std::byte* base = kernel->arena_.data();

  const auto initial = reinterpret_cast<double*>(base + initial_at);
  for (std::size_t i = 0; i < n; ++i) initial[i] = model.initial[i];

  // Natural (source-major) layout: row i holds A(i, *) contiguously, so a
  // destination tile reads one contiguous slice of each source row while
  // its accumulators add in ascending-i order, exactly like the reference
  // recursion's per-destination sum.
  const auto transition = reinterpret_cast<double*>(base + transition_at);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      transition[i * n + j] = model.transition(i, j);
    }
  }
  const auto emission_t = reinterpret_cast<double*>(base + emission_at);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      emission_t[k * n + j] = model.emission(j, k);
    }
  }

  const auto slots = reinterpret_cast<Slot*>(base + slots_at);
  for (std::size_t s = 0; s < table_size; ++s) slots[s].offset = kEmptySlot;
  const auto blob = reinterpret_cast<char*>(base + blob_at);
  const std::size_t mask = table_size - 1;
  std::size_t blob_cursor = 0;
  for (std::size_t id = 0; id < a; ++id) {
    const std::string& symbol = alphabet.name(id);
    std::memcpy(blob + blob_cursor, symbol.data(), symbol.size());
    std::size_t slot = fnv1a(kFnvOffset, symbol) & mask;
    while (slots[slot].offset != kEmptySlot) slot = (slot + 1) & mask;
    slots[slot].offset = static_cast<std::uint32_t>(blob_cursor);
    slots[slot].length = static_cast<std::uint32_t>(symbol.size());
    slots[slot].id = static_cast<std::uint32_t>(id);
    blob_cursor += symbol.size();
  }

  kernel->initial_ = initial;
  kernel->transition_ = transition;
  kernel->emission_t_ = emission_t;
  kernel->slots_ = slots;
  kernel->slot_mask_ = mask;
  kernel->blob_ = blob;
  if (options.prune) {
    const auto offsets = reinterpret_cast<std::uint32_t*>(base + offsets_at);
    std::memcpy(offsets, prune_offsets.data(),
                prune_offsets.size() * sizeof(std::uint32_t));
    const auto idx = reinterpret_cast<std::uint32_t*>(base + idx_at);
    if (!prune_idx.empty()) {
      std::memcpy(idx, prune_idx.data(),
                  prune_idx.size() * sizeof(std::uint32_t));
    }
    const auto val = reinterpret_cast<double*>(base + val_at);
    if (!prune_val.empty()) {
      std::memcpy(val, prune_val.data(), prune_val.size() * sizeof(double));
    }
    kernel->prune_offsets_ = offsets;
    kernel->prune_idx_ = idx;
    kernel->prune_val_ = val;
  }
  kernel->build_micros_ = watch.micros();
  return kernel;
}

std::size_t ScoringKernel::probe(std::uint64_t hash, std::string_view name,
                                 bool joined,
                                 std::string_view caller) const {
  std::size_t slot = hash & slot_mask_;
  const std::size_t want = name.size() + (joined ? 1 + caller.size() : 0);
  for (;;) {
    const Slot& entry = slots_[slot];
    if (entry.offset == kEmptySlot) return unknown_id();
    if (entry.length == want) {
      const char* stored = blob_ + entry.offset;
      if (std::memcmp(stored, name.data(), name.size()) == 0 &&
          (!joined ||
           (stored[name.size()] == '@' &&
            std::memcmp(stored + name.size() + 1, caller.data(),
                        caller.size()) == 0))) {
        return entry.id;
      }
    }
    slot = (slot + 1) & slot_mask_;
  }
}

std::size_t ScoringKernel::find_observation(std::string_view name,
                                            std::string_view caller) const {
  // Mirrors hmm::encode_observation: context-free models (and events with
  // no caller) observe the bare call name. The stored interned string is
  // "name@caller"; hashing and comparing it piecewise skips building it.
  if (!context_sensitive_ || caller.empty()) {
    return probe(fnv1a(kFnvOffset, name), name, false, {});
  }
  std::uint64_t hash = fnv1a(kFnvOffset, name);
  hash = fnv1a(hash, "@");
  hash = fnv1a(hash, caller);
  return probe(hash, name, true, caller);
}

std::size_t ScoringKernel::find_symbol(std::string_view observation) const {
  return probe(fnv1a(kFnvOffset, observation), observation, false, {});
}

SegmentVerdict ScoringKernel::score_window(
    std::span<const std::size_t> window, KernelScratch& scratch,
    std::span<ForwardStep> steps) const {
  SegmentVerdict verdict;
  for (const std::size_t id : window) {
    if (id >= num_symbols_) {
      // Same contract as Detector::score_segment: out-of-vocabulary means
      // impossible, no recursion runs (and the sink is left untouched).
      verdict.unknown_symbol = true;
      verdict.log_likelihood = -std::numeric_limits<double>::infinity();
      verdict.flagged = true;
      return verdict;
    }
  }
  const std::size_t t_len = window.size();
  if (!steps.empty() && steps.size() != t_len) {
    throw std::invalid_argument(
        "ScoringKernel::score_window: step sink must match the window");
  }
  if (t_len == 0) {
    verdict.log_likelihood = 0.0;
    verdict.flagged = verdict.log_likelihood < threshold_;
    return verdict;
  }
  const bool audit = !steps.empty();
  const std::size_t n = num_states_;
  double* prev = scratch.ensure(n);
  double* cur = prev + n;

  // A zero-probability prefix ends the recursion at step t: that step
  // absorbs the -infinity and later steps contribute 0, all in state 0 —
  // the hmm::per_symbol_log_contributions / per_symbol_argmax_states
  // reading of the reference's zero-filled alpha rows.
  const auto impossible = [&](std::size_t t) {
    if (audit) {
      steps[t] = {-std::numeric_limits<double>::infinity(), 0};
      for (std::size_t s = t + 1; s < t_len; ++s) steps[s] = {};
    }
    verdict.log_likelihood = -std::numeric_limits<double>::infinity();
    verdict.flagged = verdict.log_likelihood < threshold_;
    return verdict;
  };

  // Identical operations in identical order to hmm::forward_scaled (exact
  // mode): every destination accumulates its predecessor terms in
  // ascending-i order starting from 0.0, the emission multiply happens once
  // after the sum, the per-step scale is accumulated over destinations in
  // ascending order, rows are normalized in place, and log c_t is summed in
  // step order. The step is a register-tiled matrix-vector product: each
  // tile of destinations walks all predecessors once with its accumulators
  // held in registers (forward_tile), so the only memory traffic is the
  // transition rows and prev[i]. Tiling changes WHEN each addition happens,
  // not the sequence of additions into any one accumulator, and no
  // addition is fused or reassociated — not a single double differs. The
  // audit sink reads each normalized row after the step.
  double scale = 0.0;
  {
    const double* em = emission_col(window[0]);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = initial_[i] * em[i];
      prev[i] = v;
      scale += v;
    }
  }
  if (scale <= 0.0) return impossible(0);
  double log_lik = std::log(scale);
  for (std::size_t i = 0; i < n; ++i) prev[i] /= scale;
  if (audit) steps[0] = {log_lik, argmax_state(prev, n)};

  for (std::size_t t = 1; t < t_len; ++t) {
    const double* em = emission_col(window[t]);
    scale = 0.0;
    if (options_.prune) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t begin = prune_offsets_[j];
        const std::uint32_t end = prune_offsets_[j + 1];
        double sum = 0.0;
        for (std::uint32_t e = begin; e < end; ++e) {
          sum += prev[prune_idx_[e]] * prune_val_[e];
        }
        const double v = sum * em[j];
        cur[j] = v;
        scale += v;
      }
    } else {
      std::size_t j = 0;
      for (; j + kTileWidth <= n; j += kTileWidth) {
        forward_tile<kTileWidth>(prev, transition_, n, em, j, cur);
      }
      kTailTiles[n - j](prev, transition_, n, em, j, cur);
      for (std::size_t k = 0; k < n; ++k) scale += cur[k];
    }
    if (scale <= 0.0) return impossible(t);
    const double log_scale = std::log(scale);
    log_lik += log_scale;
    for (std::size_t j = 0; j < n; ++j) cur[j] /= scale;
    if (audit) steps[t] = {log_scale, argmax_state(cur, n)};
    std::swap(prev, cur);
  }

  verdict.log_likelihood = log_lik;
  verdict.flagged = log_lik < threshold_;
  return verdict;
}

}  // namespace cmarkov::core
