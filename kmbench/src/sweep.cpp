// Untraced sweep: the plan's cold cells, pass after pass, for the run's
// measuring time.  Pass 0 is warm-up, the cells at sub-seed 0 only: it
// takes the first-touch cost of fiber stacks, buffer pools and the
// allocator's arenas that every later cell in a long-running process is
// spared, so it would otherwise mix a one-off into the steady rate.
// Every later pass runs the whole seed ensemble.  Each pass's time is
// printed beside the metrics, so a bimodal run shows instead of being
// averaged away.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"

namespace kmbench {

void run_sweep(const Options& opts, const Plan& plan, Tally& tally) {
  const std::vector<Cell> cells = ensemble(plan);
  announce_ready();
  if (opts.setup_only) return;

  struct Pass {
    double wall_s = 0;
    double cpu_s = 0;
    std::size_t cells = 0;
  };
  std::vector<Pass> passes;
  // Latencies of each plan cell over sub-seeds and measured passes.
  std::vector<std::vector<double>> cell_ms(plan.cells.size());
  std::vector<std::string> first_docs(cells.size());
  std::uint64_t model_rounds = 0;
  std::uint64_t model_bits = 0;

  const auto start = Clock::now();
  for (std::size_t p = 0; p < 2 || seconds_since(start) < opts.seconds; ++p) {
    const auto pass_start = Clock::now();
    const double cpu_start = self_cpu_s();
    const std::size_t count = p == 0 ? plan.cells.size() : cells.size();
    for (std::size_t i = 0; i < count; ++i) {
      const Cell& cell = cells[i];
      const auto cell_start = Clock::now();
      const ColdCell out = run_cold_cell(cell, plan.workers);
      if (p > 0) cell_ms[i % plan.cells.size()].push_back(ms_since(cell_start));
      const std::string what = cell.workload + " on " + cell.dataset +
                               " seed " + std::to_string(cell.seed);
      if (!out.ok) {
        tally.attempt(false, what + ": " + out.error);
        continue;
      }
      if (p == 1) {
        model_rounds += out.rounds;
        model_bits += out.bits;
      }
      // Results are deterministic in the parameter cell: every pass must
      // reproduce the cell's first document byte for byte, wall time
      // aside.
      const std::string doc = strip_wall_ms(out.doc);
      if (first_docs[i].empty()) {
        first_docs[i] = doc;
        tally.attempt(true, what);
        continue;
      }
      std::string expected = first_docs[i];
      if (p == 1 && i == 0 && opts.inject == Inject::kPerturbedReplay) {
        expected = perturb(expected);
      }
      tally.attempt(doc == expected, what + ": document differs from its "
                                            "first run");
    }
    if (p == 1 && opts.inject == Inject::kUnknownWorkload) {
      Cell bad = cells[0];
      bad.workload = "no_such_workload";
      const ColdCell out = run_cold_cell(bad, plan.workers);
      tally.attempt(out.ok, "injected cell: " + out.error);
    }
    passes.push_back({seconds_since(pass_start), self_cpu_s() - cpu_start,
                      count});
  }

  std::vector<double> rates;
  std::vector<double> cpu_per_cell;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    const double rate = static_cast<double>(pass.cells) / pass.wall_s;
    const double cpu = pass.cpu_s / static_cast<double>(pass.cells);
    char line[160];
    std::snprintf(line, sizeof line,
                  "pass %zu: %.3f s, %.3f cells/s, %.3f cpu s/cell%s", p,
                  pass.wall_s, rate, cpu, p == 0 ? " (warm-up)" : "");
    tally.note(line);
    if (p == 0) continue;
    rates.push_back(rate);
    cpu_per_cell.push_back(cpu);
  }
  // The cells' latencies form one cluster per cell, so a median over
  // the mix would jump between clusters; the mean of the per-cell
  // medians does not.
  double p50_sum = 0;
  std::string p50s;
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    const double p50 = median(cell_ms[c]);
    p50_sum += p50;
    p50s += " " + plan.cells[c].workload + " " + std::to_string(p50);
  }
  tally.note("median ms per cell over " + std::to_string(cell_ms[0].size()) +
             " samples each (too few for a p99):" + p50s);

  tally.metric("cells_per_s", median(rates), "cells/s");
  tally.metric("cpu_s_per_cell", median(cpu_per_cell), "s");
  tally.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
  tally.metric("model_rounds", static_cast<double>(model_rounds), "count");
  tally.metric("model_bits", static_cast<double>(model_bits), "count");
  tally.metric("req_p50_ms",
               p50_sum / static_cast<double>(plan.cells.size()), "ms");
}

}  // namespace kmbench
