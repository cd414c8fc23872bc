// km_trace_check: structural validator for the superstep tracing plane's
// export formats (sim/trace.hpp).
//
// Two documents, two checkers:
//  - check_chrome_trace: Chrome/Perfetto trace-event JSON ("traceEvents"
//    array).  Verifies every event is well-formed for its ph type, X
//    slices have non-negative durations and per-tid non-decreasing
//    timestamps (the per-machine buffers record in time order — a
//    violation means the trace plane is broken, not just ugly), thread
//    names are unique per tid, and — with expect_k — that exactly k
//    machine threads are named.
//  - check_link_trace: the km.link_trace/v1 document.  Verifies the k x k
//    shape of every matrix, a zero diagonal (machines never message
//    themselves), and strictly increasing superstep indices.
//
// The JSON layer is the repo-wide read-side parser (util/json_parse.hpp).
//
// Built as a library (km_trace_check_lib) so tests/test_trace.cpp can
// validate exports in-process, plus the km_trace_check CLI for CI.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/json_parse.hpp"

namespace km::trace_check {

struct CheckResult {
  std::vector<std::string> errors;  ///< empty means the document is valid
  std::size_t machines = 0;         ///< distinct named machine tids / k
  std::size_t span_events = 0;      ///< ph "X" slices seen
  std::size_t counter_events = 0;   ///< ph "C" samples seen
  std::size_t matrices = 0;         ///< link matrices seen

  bool ok() const noexcept { return errors.empty(); }
};

/// Validates a Chrome/Perfetto trace-event document.  `expect_k` == 0
/// accepts any machine count; nonzero requires exactly that many named
/// machine threads.
CheckResult check_chrome_trace(const JsonValue& doc, std::size_t expect_k);

/// Validates a km.link_trace/v1 document (same expect_k convention).
CheckResult check_link_trace(const JsonValue& doc, std::size_t expect_k);

}  // namespace km::trace_check
