#include "runtime/results.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "util/json.hpp"

namespace km {

std::string run_result_to_json(const RunResult& result, int indent) {
  JsonWriter w(indent);
  w.begin_object();
  w.field("schema", "km.run_result/v1");
  w.field("workload", result.workload);

  w.key("dataset").begin_object();
  w.field("spec", result.dataset_spec);
  w.field("kind", to_string(result.dataset_kind));
  w.field("n", std::uint64_t{result.n});
  w.field("m", std::uint64_t{result.m});
  w.end_object();

  // Only knobs that shape the result belong in `params` (it is the
  // golden snapshots' parameter cell): trace/trace_links and workers are
  // deliberately absent — tracing never perturbs rounds/bits, and the
  // executor's worker count is pure scheduling (byte-identical documents
  // at every setting; the Determinism suite sweeps it).
  w.key("params").begin_object();
  w.field("k", std::uint64_t{result.params.k});
  w.field("bandwidth_bits", result.params.bandwidth_bits);
  w.field("seed", result.params.seed);
  w.end_object();

  w.key("check").begin_object();
  w.field("performed", result.check.performed);
  w.field("ok", result.check.ok);
  w.field("detail", result.check.detail);
  w.end_object();

  w.key("outputs").begin_object();
  for (const auto& [name, value] : result.outputs) {
    w.key(name);
    std::visit([&w](const auto& v) { w.value(v); }, value);
  }
  w.end_object();

  const Metrics& metrics = result.metrics;
  w.key("metrics").begin_object();
  w.field("rounds", metrics.rounds);
  w.field("supersteps", metrics.supersteps);
  w.field("messages", metrics.messages);
  w.field("bits", metrics.bits);
  w.field("max_link_bits_superstep", metrics.max_link_bits_superstep);
  w.field("dropped_messages", metrics.dropped_messages);
  w.field("max_send_bits", metrics.max_send_bits());
  w.field("max_recv_bits", metrics.max_recv_bits());
  w.field("wall_ms", metrics.wall_ms);
  // Wall-time block, present only on traced runs.  Like wall_ms it is
  // not part of the deterministic run identity: golden diffing strips
  // the whole `timing` object (tests/test_golden_metrics.cpp documents
  // the exempt-key set).
  if (metrics.timing.enabled) {
    w.key("timing").begin_object();
    w.field("barrier_wait_max_ms", metrics.timing.barrier_wait_max_ms);
    w.field("barrier_wait_mean_ms", metrics.timing.barrier_wait_mean_ms);
    w.field("barrier_wait_skew", metrics.timing.barrier_wait_skew);
    w.key("per_machine").begin_array();
    for (const MachinePhaseMs& pm : metrics.timing.per_machine) {
      w.begin_object();
      w.field("machine", pm.machine);
      w.field("compute_ms", pm.compute_ms);
      w.field("send_ms", pm.send_ms);
      w.field("barrier_wait_ms", pm.barrier_wait_ms);
      w.field("deliver_ms", pm.deliver_ms);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.key("timeline").begin_array();
  for (const SuperstepStats& s : metrics.timeline) {
    w.begin_object();
    w.field("superstep", s.superstep);
    w.field("rounds", s.rounds);
    w.field("messages", s.messages);
    w.field("bits", s.bits);
    w.field("max_link_bits", s.max_link_bits);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return w.str();
}

void write_run_result_json(const std::string& path, const RunResult& result,
                           int indent) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << run_result_to_json(result, indent) << '\n';
  if (!out) throw std::runtime_error("write to '" + path + "' failed");
}

std::string run_result_summary(const RunResult& result) {
  std::ostringstream os;
  os << result.workload << " on " << result.dataset_spec
     << " (n=" << result.n << ", m=" << result.m
     << ", k=" << result.params.k << ", B=" << result.params.bandwidth_bits
     << ", seed=" << result.params.seed << "): rounds=" << result.metrics.rounds
     << " messages=" << result.metrics.messages
     << " bits=" << result.metrics.bits;
  if (result.check.performed) {
    os << " check=" << (result.check.ok ? "OK" : "FAILED") << " ("
       << result.check.detail << ")";
  }
  return os.str();
}

}  // namespace km
