// kmbench_runner: runs one named workload of the repository benchmark
// and prints its result as the last line of standard output.  run.py
// builds and drives it; see kmbench/README.md.
//
//   kmbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                  --km-serve PATH --socket PATH
//                  [--size full|tiny] [--setup-only]
//                  [--inject unknown_workload|perturbed_replay]
//
// Output: "ready" once set-up is done (run.py times set-up against it),
// "# ..." human-readable lines, and a final JSON line
// {"correct", "attempted", "failed", "metrics"}.  Exit status 0 when
// every operation passed, 1 when one failed, 2 on a usage error.
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace kmbench;
  Options opts;
  Plan plan;
  try {
    const km::Options args(argc, argv);
    args.reject_unknown({"workload", "seed", "seconds", "trace", "size",
                         "setup-only", "inject", "km-serve", "socket"});
    opts.workload = args.get_string("workload", "");
    opts.seed = args.get_uint("seed", 1);
    opts.seconds = args.get_double("seconds", 10);
    opts.trace = args.get_uint("trace", 0) != 0;
    opts.tiny = args.get_string("size", "full") == "tiny";
    opts.setup_only = args.has("setup-only");
    opts.km_serve = args.get_string("km-serve", "");
    opts.socket_path = args.get_string("socket", "");
    const std::string inject = args.get_string("inject", "");
    if (inject == "unknown_workload") {
      opts.inject = Inject::kUnknownWorkload;
    } else if (inject == "perturbed_replay") {
      opts.inject = Inject::kPerturbedReplay;
    } else if (!inject.empty()) {
      throw km::OptionsError("unknown --inject '" + inject + "'");
    }
    if (opts.seconds <= 0) throw km::OptionsError("--seconds must be > 0");
    plan = make_plan(opts.workload, opts.tiny, opts.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kmbench_runner: %s\n", e.what());
    return 2;
  }

  Tally tally;
  try {
    if (opts.trace) {
      run_traced(opts, plan, tally);
    } else if (plan.serve()) {
      run_serve_mix(opts, plan, tally);
    } else {
      run_sweep(opts, plan, tally);
    }
  } catch (const std::exception& e) {
    // A run that cannot finish reports no result: run.py fails it.
    std::fprintf(stderr, "kmbench_runner: %s\n", e.what());
    return 1;
  }
  if (opts.setup_only) return 0;
  std::printf("%s\n", tally.result_json().c_str());
  return tally.failed() == 0 ? 0 : 1;
}
