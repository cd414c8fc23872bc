// Shared pieces of the kmbench runner: the workload plans, the cold
// cell, the result tally and the statistics helpers.
//
// Every clock read of the benchmark lives in these files, outside the
// program's source tree, so km_lint's wall-clock rule over src/ and
// tools/ stays untouched.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/workload.hpp"

namespace kmbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) {
  return 1e3 * seconds_since(start);
}

/// One scenario cell: what `km_run run` takes on its command line.
struct Cell {
  std::string workload;
  std::string dataset;
  std::size_t k = 8;
  std::uint64_t seed = 1;  ///< drives dataset, partition and engine RNGs
};

/// A named workload: its cells, worker count and (serve_mix only) the
/// daemon's runner count.  `cells` carry sub-seed 0; every measured
/// pass runs them at `seeds` sub-seeds (ensemble()), so one run's
/// figures average over several random inputs and algorithm coin flips
/// instead of resting on one draw.
struct Plan {
  std::vector<Cell> cells;
  std::size_t seeds = 4;
  std::size_t workers = 4;
  std::size_t runners = 0;  ///< > 0: the cells are served by km_serve
  bool serve() const { return runners > 0; }
};

/// The plan for `name` at full or tiny (smoke-test) size, seeded from
/// the run seed; throws std::invalid_argument for an unknown name.
Plan make_plan(std::string_view name, bool tiny, std::uint64_t seed);

/// The plan's cells at each of its sub-seeds, sub-seed-major.
std::vector<Cell> ensemble(const Plan& plan);

/// Injected bad operations, used by the benchmark's own tests to show
/// that a failure is counted and never dropped.
enum class Inject { kNone, kUnknownWorkload, kPerturbedReplay };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool setup_only = false;
  Inject inject = Inject::kNone;
  std::string km_serve;     ///< path of the km_serve binary
  std::string socket_path;  ///< relative path for the daemon's socket
};

/// Outcome of one cold cell: materialize -> partition -> engine ->
/// check -> serialize, the work one `km_run run` does.
struct ColdCell {
  bool ok = false;
  std::string error;  ///< why !ok
  std::string doc;    ///< compact km.run_result/v1 document
  std::uint64_t rounds = 0;
  std::uint64_t bits = 0;
};

ColdCell run_cold_cell(const Cell& cell, std::size_t workers);

/// The document with its wall-clock value removed: the rest of a
/// km.run_result/v1 document is deterministic for a parameter cell.
std::string strip_wall_ms(std::string_view doc);

/// Flips one digit of the document (the injected bad replay).
std::string perturb(std::string doc);

/// Counts operations and collects named metrics for the result line.
class Tally {
 public:
  void attempt(bool ok, const std::string& what);
  void metric(std::string name, double value, std::string unit);
  void note(const std::string& line);  ///< one human-readable line

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The runner's last line: {"correct", "attempted", "failed",
  /// "metrics"}.
  std::string result_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process in MiB.
double self_peak_rss_mb();
/// User + system CPU seconds of this process so far.
double self_cpu_s();

void run_sweep(const Options& opts, const Plan& plan, Tally& tally);
void run_serve_mix(const Options& opts, const Plan& plan, Tally& tally);
void run_traced(const Options& opts, const Plan& plan, Tally& tally);

/// Result-store and dataset-cache hit ratios, from km.serve_stats/v1.
struct HitRatios {
  double result_store = 0;
  double dataset_cache = 0;
};
HitRatios hit_ratios(std::string_view stats_doc);

/// The daemon's hit ratios after `seconds` of serve_mix traffic.
HitRatios serve_traffic_ratios(const Options& opts, const Plan& plan,
                               Tally& tally, double seconds);

/// The km_serve request line for `cell`.
std::string request_line(const Cell& cell, std::size_t workers, bool fresh);

/// Prints the line run.py times set-up against.
void announce_ready();

}  // namespace kmbench
