// Trace records produced by monitoring program execution. The pipeline
// mirrors the paper's tooling: the interpreter (strace/ltrace stand-in)
// records each external call with the raw address of its call site; the
// Symbolizer (addr2line stand-in) later resolves addresses to caller
// function names, which become the 1-level calling context.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/context.hpp"
#include "src/hmm/alphabet.hpp"
#include "src/hmm/hmm.hpp"
#include "src/ir/ast.hpp"

namespace cmarkov::trace {

struct CallEvent {
  ir::CallKind kind = ir::CallKind::kSyscall;
  std::string name;
  /// Synthetic code address of the call site (set by the interpreter).
  std::uint64_t site_address = 0;
  /// Caller function; empty until the trace is symbolized.
  std::string caller;
  /// Address of the call site one stack frame up (the site in the caller's
  /// caller that invoked the caller); 0 at the entry function. Enables the
  /// 2-level-context extension (VtPath-style stack context).
  std::uint64_t grandparent_address = 0;
  /// Caller's caller; empty until symbolized ("-" when there is none).
  std::string grandcaller{};
};

struct Trace {
  std::string program;
  std::vector<CallEvent> events;

  /// Number of events matching the filter.
  std::size_t count(analysis::CallFilter filter) const;
};

/// Encodes the filtered view of a trace as alphabet ids, interning new
/// observation strings. Context-sensitive encodings require the trace to be
/// symbolized first (every event has a caller).
hmm::ObservationSeq encode_trace(const Trace& trace,
                                 analysis::CallFilter filter,
                                 hmm::ObservationEncoding encoding,
                                 hmm::Alphabet& alphabet);

/// Like encode_trace but never extends the alphabet: events whose
/// observation string is unknown map to `unknown_id` (callers typically pass
/// alphabet.size(), an id the model cannot emit, scoring the segment
/// impossible — exactly how an out-of-context call is detected).
hmm::ObservationSeq encode_trace_frozen(const Trace& trace,
                                        analysis::CallFilter filter,
                                        hmm::ObservationEncoding encoding,
                                        const hmm::Alphabet& alphabet,
                                        std::size_t unknown_id);

}  // namespace cmarkov::trace
