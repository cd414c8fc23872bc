// Machine-readable results: serializes a RunResult to schema-stable JSON
// (schema id "km.run_result/v1").  Key order is fixed, numbers are exact
// (std::to_chars round-trip for doubles), and the only fields that vary
// between identical-seed runs are metrics.wall_ms and the optional
// metrics.timing block (both wall-time, both exempt from golden diffs —
// see tests/test_golden_metrics.cpp for the documented exempt-key set).
//
// Document shape:
//   {
//     "schema": "km.run_result/v1",
//     "workload": "mst",
//     "dataset": {"spec": "gnp:n=1000,p=0.01", "kind": "weighted_graph",
//                 "n": 1000, "m": 5034},
//     "params": {"k": 8, "bandwidth_bits": 1600, "seed": 42},
//     "check": {"performed": true, "ok": true, "detail": "..."},
//     "outputs": {"total_weight": 123456, ...},
//     "metrics": {"rounds": ..., "supersteps": ..., "messages": ...,
//                 "bits": ..., "max_link_bits_superstep": ...,
//                 "dropped_messages": ..., "max_send_bits": ...,
//                 "max_recv_bits": ..., "wall_ms": ...,
//                 "timing": {            // traced runs only
//                   "barrier_wait_max_ms": ...,
//                   "barrier_wait_mean_ms": ...,
//                   "barrier_wait_skew": ...,
//                   "per_machine": [{"machine": 0, "compute_ms": ...,
//                                    "send_ms": ..., "barrier_wait_ms": ...,
//                                    "deliver_ms": ...}, ...]},
//                 "timeline": [{"superstep": 0, "rounds": ...,
//                               "messages": ..., "bits": ...,
//                               "max_link_bits": ...}, ...]}
//   }
//
// RunParams::trace / trace_links deliberately do NOT appear under
// "params": they are observation knobs, not part of the parameter cell
// that identifies a deterministic run.
#pragma once

#include <string>

#include "runtime/workload.hpp"

namespace km {

/// JSON document for `result`; indent=0 gives compact one-line output.
std::string run_result_to_json(const RunResult& result, int indent = 2);

/// Writes run_result_to_json() to `path` (plus a trailing newline).
/// Throws std::runtime_error when the file cannot be written.
void write_run_result_json(const std::string& path, const RunResult& result,
                           int indent = 2);

/// One-line human summary for terminal output.
std::string run_result_summary(const RunResult& result);

}  // namespace km
