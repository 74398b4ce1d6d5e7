// Test oracle for decision audit records: the record a window's reference
// forward pass (hmm::forward_scaled) explains, assembled through
// per_symbol_log_contributions / per_symbol_argmax_states, and a field-by-
// field exact comparison. Shared by decision_trace_test and
// online_monitor_test, which check the kernel-built records against it.
#pragma once

#include <gtest/gtest.h>

#include <limits>
#include <string_view>
#include <vector>

#include "src/core/detector.hpp"
#include "src/hmm/forward_backward.hpp"
#include "src/obs/trace/decision_record.hpp"

namespace cmarkov::testing {

inline obs::DecisionRecord reference_record(const core::Detector& detector,
                                            const hmm::ObservationSeq& segment) {
  const core::SegmentVerdict verdict = detector.score_segment(segment);
  obs::DecisionRecord record;
  record.log_likelihood = verdict.log_likelihood;
  record.threshold = detector.threshold();
  record.margin = verdict.log_likelihood - detector.threshold();
  record.flagged = verdict.flagged;
  record.unknown_symbol = verdict.unknown_symbol;
  std::vector<double> log_probs(segment.size(), 0.0);
  std::vector<std::size_t> states(segment.size(), 0);
  if (!verdict.unknown_symbol) {
    const hmm::ForwardResult forward =
        hmm::forward_scaled(detector.model(), segment);
    log_probs = hmm::per_symbol_log_contributions(forward);
    states = hmm::per_symbol_argmax_states(forward);
  }
  for (std::size_t t = 0; t < segment.size(); ++t) {
    obs::SymbolContribution entry;
    entry.position = t;
    entry.symbol = segment[t];
    entry.label = segment[t] < detector.alphabet().size()
                      ? std::string_view(detector.alphabet().name(segment[t]))
                      : std::string_view("<unknown>");
    entry.unknown = segment[t] >= detector.model().num_symbols();
    // Unknown-symbol windows run no recursion: the unknown ids carry -inf.
    entry.log_prob = verdict.unknown_symbol
                         ? (entry.unknown
                                ? -std::numeric_limits<double>::infinity()
                                : 0.0)
                         : log_probs[t];
    entry.state = states[t];
    record.symbols.push_back(entry);
  }
  return record;
}

/// Exact equality (doubles compared with ==, so -inf matches -inf) of the
/// scoring fields; session / trace / window ids are the caller's.
inline void expect_same_record(const obs::DecisionRecord& actual,
                               const obs::DecisionRecord& expected) {
  EXPECT_EQ(actual.log_likelihood, expected.log_likelihood);
  EXPECT_EQ(actual.threshold, expected.threshold);
  EXPECT_EQ(actual.margin, expected.margin);
  EXPECT_EQ(actual.flagged, expected.flagged);
  EXPECT_EQ(actual.unknown_symbol, expected.unknown_symbol);
  ASSERT_EQ(actual.symbols.size(), expected.symbols.size());
  for (std::size_t t = 0; t < expected.symbols.size(); ++t) {
    const obs::SymbolContribution& a = actual.symbols[t];
    const obs::SymbolContribution& e = expected.symbols[t];
    EXPECT_EQ(a.position, e.position) << t;
    EXPECT_EQ(a.symbol, e.symbol) << t;
    EXPECT_EQ(a.label, e.label) << t;
    EXPECT_EQ(a.log_prob, e.log_prob) << t;
    EXPECT_EQ(a.state, e.state) << t;
    EXPECT_EQ(a.unknown, e.unknown) << t;
  }
}

}  // namespace cmarkov::testing
