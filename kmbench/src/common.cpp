#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "bench.hpp"
#include "runtime/dataset.hpp"
#include "runtime/results.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace kmbench {

Plan make_plan(std::string_view name, bool tiny, std::uint64_t seed) {
  Plan plan;
  plan.seeds = tiny ? 2 : 4;
  if (name == "sweep_k64") {
    // ROADMAP item 2's baseline table: message-heavy mst and pagerank,
    // compute-heavy triangles, and the 1M-key sort.
    const std::size_t k = tiny ? 8 : 64;
    const std::string gnp = tiny ? "gnp:n=512,p=0.01" : "gnp:n=16384,p=0.001";
    plan.cells = {
        {"mst", gnp, k},
        {"triangles", gnp, k},
        {"pagerank", tiny ? "rmat:n=512,m=2048" : "rmat:n=16384,m=131072", k},
        {"sort", tiny ? "keys:n=20000" : "keys:n=1000000", k},
    };
  } else if (name == "sketch_k64") {
    // The l0 sketch kernels dominate connectivity; the baseline beside
    // it is the same input without sketches.
    const std::size_t k = tiny ? 8 : 64;
    const std::vector<std::string> graphs =
        tiny ? std::vector<std::string>{"gnp:n=512,p=0.02"}
             : std::vector<std::string>{"gnp:n=4096,p=0.05",
                                        "gnp:n=16384,p=0.001"};
    for (const std::string& g : graphs) {
      plan.cells.push_back({"connectivity", g, k});
      plan.cells.push_back({"connectivity_baseline", g, k});
    }
  } else if (name == "serve_mix") {
    // The warm set: {components, mst} on small graphs, one graph per
    // sub-seed.  One runner of two workers leaves half of nproc = 4 to
    // the clients and the daemon's connection threads.
    const std::string spec = tiny ? "gnp:n=200,p=0.02" : "gnp:n=2000,p=0.003";
    const std::size_t k = tiny ? 4 : 8;
    plan.cells = {{"components", spec, k}, {"mst", spec, k}};
    plan.seeds = tiny ? 2 : 8;
    plan.workers = 2;
    plan.runners = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  // Sub-seeds stay small: the serve protocol carries JSON numbers.
  for (Cell& cell : plan.cells) cell.seed = seed * plan.seeds;
  return plan;
}

std::vector<Cell> ensemble(const Plan& plan) {
  std::vector<Cell> cells;
  for (std::size_t j = 0; j < plan.seeds; ++j) {
    for (Cell cell : plan.cells) {
      cell.seed += j;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

ColdCell run_cold_cell(const Cell& cell, std::size_t workers) {
  ColdCell out;
  const km::Workload* workload =
      km::WorkloadRegistry::instance().find(cell.workload);
  if (!workload) {
    out.error = "unknown workload '" + cell.workload + "'";
    return out;
  }
  try {
    const km::Dataset dataset =
        km::load_dataset(cell.dataset, workload->input_kind(), cell.seed);
    km::RunParams params;
    params.k = cell.k;
    params.seed = cell.seed;
    params.workers = workers;
    const km::RunResult result = km::run_workload(*workload, dataset, params);
    out.doc = km::run_result_to_json(result, 0);
    out.rounds = result.metrics.rounds;
    out.bits = result.metrics.bits;
    out.ok = result.check.performed && result.check.ok;
    if (!out.ok) out.error = "check failed: " + result.check.detail;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::string strip_wall_ms(std::string_view doc) {
  static constexpr std::string_view kKey = "\"wall_ms\":";
  const auto at = doc.find(kKey);
  if (at == std::string_view::npos) return std::string(doc);
  const auto begin = at + kKey.size();
  const auto end = doc.find_first_of(",}", begin);
  std::string out(doc.substr(0, begin));
  out += '_';
  if (end != std::string_view::npos) out += doc.substr(end);
  return out;
}

std::string perturb(std::string doc) {
  const auto at = doc.find("\"rounds\":");
  if (at != std::string::npos) {
    char& digit = doc[at + 9];
    digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
  }
  return doc;
}

void Tally::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) note("FAILED: " + what);
}

void Tally::metric(std::string name, double value, std::string unit) {
  metrics_.emplace_back(std::move(name),
                        std::make_pair(value, std::move(unit)));
}

void Tally::note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

std::string Tally::result_json() const {
  km::JsonWriter w(0);
  w.begin_object();
  w.field("correct", attempted_ > 0 && failed_ == 0);
  w.field("attempted", attempted_);
  w.field("failed", failed_);
  w.key("metrics").begin_object();
  for (const auto& [name, value_unit] : metrics_) {
    w.key(name).begin_object();
    // A metric that could not be measured (NaN) must not read as a
    // number; null makes run.py fail the run instead.
    if (std::isfinite(value_unit.first)) {
      w.field("value", value_unit.first);
    } else {
      w.key("value").null();
    }
    w.field("unit", value_unit.second);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

HitRatios hit_ratios(std::string_view stats_doc) {
  km::JsonValue doc;
  std::string error;
  if (!km::parse_json(stats_doc, doc, error)) {
    throw std::runtime_error("bad km.serve_stats/v1 document: " + error);
  }
  const auto ratio = [&](std::string_view section) {
    const km::JsonValue* s = doc.find(section);
    const km::JsonValue* hits = s ? s->find("hits") : nullptr;
    const km::JsonValue* misses = s ? s->find("misses") : nullptr;
    if (!hits || !misses) {
      throw std::runtime_error("km.serve_stats/v1 lacks " +
                               std::string(section) + " counters");
    }
    const double total = hits->number + misses->number;
    return total > 0 ? hits->number / total : 0.0;
  };
  return {ratio("result_store"), ratio("dataset_cache")};
}

std::string request_line(const Cell& cell, std::size_t workers, bool fresh) {
  km::JsonWriter w(0);
  w.begin_object();
  w.field("op", "run");
  w.field("workload", cell.workload);
  w.field("dataset", cell.dataset);
  w.field("k", std::uint64_t{cell.k});
  w.field("seed", cell.seed);
  w.field("workers", std::uint64_t{workers});
  w.field("fresh", fresh);
  w.end_object();
  return w.str();
}

void announce_ready() {
  std::printf("ready\n");
  std::fflush(stdout);
}

}  // namespace kmbench
