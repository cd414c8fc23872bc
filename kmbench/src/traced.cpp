// The traced pass: per-layer numbers, timed from outside each public
// call, plus the engine's own Metrics::timing block.  End-to-end numbers
// never come from here.
//
// One round of the pass, repeated for the run's measuring time (each
// metric is the median over rounds):
//   1. the plan's cold cells untraced and verified, timed whole;
//   2. the same cells split into load_dataset, runtime_partition,
//      run_workload(check=false, trace=true), the reference check and
//      run_result_to_json, each timed; plus L0Sketch adds over the
//      cell's edges;
//   3. each cell's engine untraced at W=1 and W=4 (the speedup);
//   4. synthetic Engine::run programs at the plan's k and W: empty
//      supersteps, and an all-to-all small-message superstep;
//   5. the serving layer in-process: parse_request, handle() fresh and
//      handle() replays of each cell.
// serve_mix adds a short closed loop against its daemon for the hit
// ratios of its traffic mix.  trace_overhead_frac compares 1 with 2.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/sketch.hpp"
#include "graph/pagerank_ref.hpp"
#include "graph/properties.hpp"
#include "graph/triangle_ref.hpp"
#include "graph/weighted.hpp"
#include "runtime/dataset.hpp"
#include "runtime/dataset_cache.hpp"
#include "runtime/results.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"

namespace kmbench {
namespace {

/// Sums over the plan's cells for one round of the pass.
struct Round {
  double untraced_ms = 0;  ///< step 1
  double materialize_ms = 0;
  double partition_ms = 0;
  double engine_ms = 0;
  double check_ms = 0;
  double serialize_ms = 0;
  double compute_ms = 0;
  double send_ms = 0;
  double deliver_ms = 0;
  double barrier_wait_ms = 0;
  double skew_sum = 0;
  double messages = 0;
  double supersteps = 0;
  double pool_hits = 0;
  double pool_misses = 0;
  double payload_dropped = 0;
  double sketch_adds = 0;
  double sketch_s = 0;
  double w1_ms = 0;
  double w4_ms = 0;
  double traced_ms() const {
    return materialize_ms + partition_ms + engine_ms + check_ms +
           serialize_ms;
  }
};

std::uint64_t output_u64(const km::RunResult& r, std::string_view name) {
  for (const auto& [key, value] : r.outputs) {
    if (key == name) return std::get<std::uint64_t>(value);
  }
  throw std::runtime_error("result lacks output " + std::string(name));
}

/// Runs the reference the workload's check calls; returns false when a
/// scalar output the traced run exposes disagrees with it.
bool reference_check(const km::Dataset& ds, const km::RunResult& r) {
  const std::string& w = r.workload;
  if (w == "mst") {
    return km::kruskal_mst(ds.weighted).total_weight ==
           output_u64(r, "total_weight");
  }
  if (w == "triangles") {
    return km::count_triangles(ds.graph) == output_u64(r, "triangles");
  }
  if (w == "pagerank") {
    return !km::expected_visit_pagerank(ds.digraph, {.eps = 0.2}).empty();
  }
  if (w == "sort") {
    std::vector<std::uint64_t> keys = ds.keys;
    std::sort(keys.begin(), keys.end());
    return keys.size() == output_u64(r, "keys");
  }
  // components, connectivity, connectivity_baseline: BFS labels are
  // [0, #components).
  const auto labels = km::connected_components(ds.graph);
  std::uint64_t count = 0;
  for (const auto l : labels) count = std::max<std::uint64_t>(count, l + 1);
  return count == output_u64(r, "num_components");
}

/// L0Sketch adds over every vertex's incident edges, as the sketch
/// kernels see them.  A vertex with edges must sketch to a nonzero
/// vector (whp), which also keeps the work observable.
struct SketchAdds {
  double adds = 0;
  double seconds = 0;
  bool ok = true;
};

SketchAdds sketch_adds(const km::Dataset& ds) {
  const auto run = [](std::size_t n, auto&& neighbors) {
    const km::EdgeIdCodec codec(n);
    const km::L0SketchShape shape{.id_bits = codec.id_bits(), .rows = 4,
                                  .seed = 3};
    SketchAdds out;
    const auto start = Clock::now();
    for (km::Vertex v = 0; v < n; ++v) {
      km::L0Sketch sketch(shape);
      for (const km::Vertex nb : neighbors(v)) {
        sketch.add(codec.encode(v, nb), km::EdgeIdCodec::sign_for(v, nb));
      }
      out.adds += static_cast<double>(neighbors(v).size());
      out.ok &= sketch.empty_whp() == neighbors(v).empty();
    }
    out.seconds = seconds_since(start);
    return out;
  };
  switch (ds.kind) {
    case km::DatasetKind::kUndirected:
      return run(ds.n, [&](km::Vertex v) { return ds.graph.neighbors(v); });
    case km::DatasetKind::kWeighted:
      return run(ds.n, [&](km::Vertex v) { return ds.weighted.neighbors(v); });
    case km::DatasetKind::kDirected:
      return run(ds.n,
                 [&](km::Vertex v) { return ds.digraph.out_neighbors(v); });
    case km::DatasetKind::kKeys:
      break;
  }
  return {};
}

double engine_only_ms(const km::Workload& w, const km::Dataset& ds,
                      const Cell& cell, std::size_t workers) {
  km::RunParams params;
  params.k = cell.k;
  params.seed = cell.seed;
  params.workers = workers;
  params.check = false;
  const auto start = Clock::now();
  km::run_workload(w, ds, params);
  return ms_since(start);
}

void decompose(const Cell& cell, std::size_t workers, Round& round,
               Tally& tally) {
  const std::string what = "traced " + cell.workload + " on " + cell.dataset;
  const km::Workload* w = km::WorkloadRegistry::instance().find(cell.workload);
  if (!w) {
    tally.attempt(false, what + ": unknown workload");
    return;
  }
  auto t = Clock::now();
  const km::Dataset ds = km::load_dataset(cell.dataset, w->input_kind(),
                                          cell.seed);
  round.materialize_ms += ms_since(t);

  // The adapters partition inside run_workload; the separately timed
  // partition is subtracted from the engine time so the five phases add
  // up to one cell.  Keys are not partitioned.
  double partition_ms = 0;
  if (ds.kind != km::DatasetKind::kKeys) {
    t = Clock::now();
    const auto partition = km::runtime_partition(ds.n, cell.k, cell.seed);
    partition_ms = ms_since(t);
    tally.attempt(partition.n() == ds.n, what + ": partition size");
  }
  round.partition_ms += partition_ms;

  km::RunParams params;
  params.k = cell.k;
  params.seed = cell.seed;
  params.workers = workers;
  params.check = false;
  params.trace = true;
  t = Clock::now();
  const km::RunResult r = km::run_workload(*w, ds, params);
  round.engine_ms += std::max(0.0, ms_since(t) - partition_ms);

  t = Clock::now();
  const bool ok = reference_check(ds, r);
  round.check_ms += ms_since(t);
  tally.attempt(ok, what + ": output disagrees with the reference");

  t = Clock::now();
  const std::string doc = km::run_result_to_json(r, 0);
  round.serialize_ms += ms_since(t);
  if (doc.empty()) tally.attempt(false, what + ": empty document");

  const km::Metrics& m = r.metrics;
  for (const km::MachinePhaseMs& pm : m.timing.per_machine) {
    round.compute_ms += pm.compute_ms;
    round.send_ms += pm.send_ms;
    round.deliver_ms += pm.deliver_ms;
    round.barrier_wait_ms += pm.barrier_wait_ms;
  }
  round.skew_sum += m.timing.barrier_wait_skew;
  round.messages += static_cast<double>(m.messages);
  round.supersteps += static_cast<double>(m.supersteps);
  round.pool_hits += static_cast<double>(m.pool.hits);
  round.pool_misses += static_cast<double>(m.pool.misses);
  round.payload_dropped += static_cast<double>(m.payload_pool.dropped);

  const SketchAdds sketch = sketch_adds(ds);
  tally.attempt(sketch.ok, what + ": sketch emptiness disagrees with degree");
  round.sketch_adds += sketch.adds;
  round.sketch_s += sketch.seconds;

  round.w1_ms += engine_only_ms(*w, ds, cell, 1);
  round.w4_ms += engine_only_ms(*w, ds, cell, 4);
}

/// Empty supersteps: barrier and executor work only.
double superstep_us(std::size_t k, std::size_t workers) {
  const std::size_t steps = std::max<std::size_t>(20, 20000 / k);
  km::Engine engine(k, {.workers = workers});
  const auto start = Clock::now();
  engine.run([&](km::MachineContext& ctx) {
    for (std::size_t s = 0; s < steps; ++s) ctx.exchange();
  });
  return 1e6 * seconds_since(start) / static_cast<double>(steps);
}

/// All-to-all supersteps of one 8-byte message per ordered pair.
double fanout_ns_per_msg(std::size_t k, std::size_t workers) {
  const std::size_t pairs = k * (k - 1);
  const std::size_t steps = std::max<std::size_t>(2, 1'000'000 / pairs);
  km::Engine engine(k, {.workers = workers});
  const auto start = Clock::now();
  const km::Metrics m = engine.run([&](km::MachineContext& ctx) {
    for (std::size_t s = 0; s < steps; ++s) {
      for (std::size_t dst = 0; dst < ctx.k(); ++dst) {
        if (dst == ctx.id()) continue;
        km::Writer w;
        w.put_u64(s);
        ctx.send(dst, 1, w);
      }
      ctx.exchange();
    }
  });
  const double secs = seconds_since(start);
  return 1e9 * secs /
         static_cast<double>(std::max<std::uint64_t>(m.messages, 1));
}

struct ServeRound {
  double parse_us = 0;
  double fresh_ms = 0;
  double replay_us = 0;
  HitRatios ratios;
};

/// The serving layer in-process over the plan's cells.
ServeRound serve_in_process(const Plan& plan, Tally& tally) {
  constexpr int kParses = 2000;
  constexpr int kReplays = 200;
  km::serve::ScenarioService service({.runners = 1});
  ServeRound out;
  for (const Cell& cell : plan.cells) {
    const std::string line = request_line(cell, plan.workers, true);
    km::serve::Request request;
    std::string error;
    auto t = Clock::now();
    bool parsed = true;
    for (int i = 0; i < kParses; ++i) {
      parsed &= km::serve::parse_request(line, request, error);
    }
    out.parse_us += 1e6 * seconds_since(t) / kParses;
    tally.attempt(parsed, "parse_request: " + error);
    if (!parsed) continue;

    // Fresh requests find their dataset cached, as serve_mix's do.
    const km::Workload* w =
        km::WorkloadRegistry::instance().find(cell.workload);
    if (!w) continue;  // parse_request accepts any name; handle() rejects it
    km::DatasetCache::instance().get(cell.dataset, w->input_kind(), cell.seed);
    t = Clock::now();
    const km::serve::Response fresh = service.handle(request);
    out.fresh_ms += ms_since(t);
    tally.attempt(fresh.ok && fresh.source == "engine",
                  "in-process fresh " + cell.workload + ": " + fresh.error);

    request.fresh = false;
    bool same = true;
    t = Clock::now();
    for (int i = 0; i < kReplays; ++i) {
      const km::serve::Response replay = service.handle(request);
      same &= replay.ok && replay.source == "result_store" &&
              replay.doc == fresh.doc;
    }
    out.replay_us += 1e6 * seconds_since(t) / kReplays;
    tally.attempt(same, "in-process replay " + cell.workload +
                            ": differs from the fresh document");
  }
  out.ratios = hit_ratios(service.stats_doc());
  km::DatasetCache::instance().clear();
  return out;
}

/// Each per-layer metric's value per round, reported as medians.
class Medians {
 public:
  void add(std::string_view name, std::string_view unit, double value) {
    for (Series& s : series_) {
      if (s.name == name) {
        s.values.push_back(value);
        return;
      }
    }
    series_.push_back({std::string(name), std::string(unit), {value}});
  }
  void report(Tally& tally) const {
    for (const Series& s : series_) {
      tally.metric(s.name, median(s.values), s.unit);
    }
  }

 private:
  struct Series {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Series> series_;
};

}  // namespace

void run_traced(const Options& opts, const Plan& plan, Tally& tally) {
  announce_ready();
  if (opts.setup_only) return;

  Medians m;
  const double cells = static_cast<double>(plan.cells.size());
  const std::size_t k = plan.cells[0].k;
  const auto start = Clock::now();
  for (std::size_t r = 0; r == 0 || seconds_since(start) < opts.seconds; ++r) {
    Round round;
    std::string per_cell;
    for (const Cell& cell : plan.cells) {
      const auto t = Clock::now();
      const ColdCell out = run_cold_cell(cell, plan.workers);
      const double cell_ms = ms_since(t);
      round.untraced_ms += cell_ms;
      tally.attempt(out.ok, cell.workload + " on " + cell.dataset + ": " +
                                out.error);
      const double before = round.traced_ms();
      try {
        decompose(cell, plan.workers, round, tally);
      } catch (const std::exception& e) {
        tally.attempt(false, "traced " + cell.workload + ": " + e.what());
      }
      char line[160];
      std::snprintf(line, sizeof line, " %s %.1f/%.1f", cell.workload.c_str(),
                    round.traced_ms() - before, cell_ms);
      per_cell += line;
    }
    tally.note("round " + std::to_string(r) +
               ": traced phase sum / untraced ms per cell:" + per_cell);

    const ServeRound serve = serve_in_process(plan, tally);
    const HitRatios ratios =
        plan.serve() ? serve_traffic_ratios(opts, plan, tally,
                                            std::min(3.0, opts.seconds / 4))
                     : serve.ratios;

    m.add("runtime.materialize_ms", "ms", round.materialize_ms);
    m.add("sim.partition_ms", "ms", round.partition_ms);
    m.add("sim.engine_ms", "ms", round.engine_ms);
    m.add("sim.compute_ms", "ms", round.compute_ms);
    m.add("sim.send_ms", "ms", round.send_ms);
    m.add("sim.deliver_ms", "ms", round.deliver_ms);
    m.add("sim.barrier_wait_ms", "ms", round.barrier_wait_ms);
    m.add("sim.barrier_wait_skew", "ratio", round.skew_sum / cells);
    m.add("sim.messages", "count", round.messages);
    m.add("sim.supersteps", "count", round.supersteps);
    m.add("sim.ns_per_message", "ns",
          1e6 * round.engine_ms / std::max(round.messages, 1.0));
    m.add("sim.pool_hit_ratio", "ratio",
          round.pool_hits / std::max(round.pool_hits + round.pool_misses, 1.0));
    m.add("sim.payload_pool_dropped", "count", round.payload_dropped);
    m.add("sim.superstep_us", "us", superstep_us(k, plan.workers));
    m.add("sim.fanout_ns_per_msg", "ns", fanout_ns_per_msg(k, plan.workers));
    m.add("sim.speedup_w4", "ratio", round.w1_ms / round.w4_ms);
    m.add("core.sketch_adds_per_s", "1/s", round.sketch_adds / round.sketch_s);
    m.add("graph.check_ms", "ms", round.check_ms);
    m.add("runtime.serialize_ms", "ms", round.serialize_ms);
    m.add("serve.parse_us", "us", serve.parse_us / cells);
    m.add("serve.replay_us", "us", serve.replay_us / cells);
    m.add("serve.fresh_ms", "ms", serve.fresh_ms / cells);
    m.add("serve.result_store_hit_ratio", "ratio", ratios.result_store);
    m.add("runtime.dataset_cache_hit_ratio", "ratio", ratios.dataset_cache);
    // 1 - (traced cells/s) / (untraced cells/s), same cells and seed.
    m.add("trace_overhead_frac", "ratio",
          1.0 - round.untraced_ms / round.traced_ms());
  }
  m.report(tally);
}

}  // namespace kmbench
