// serve_mix: a km_serve daemon and a closed loop of four ServeClient
// connections from this process.  Each client sends its next request
// only after the previous answer arrived.  Seven of every eight requests
// replay a warm cell from the result store; the eighth asks for the same
// cell with fresh:true, which hits the dataset cache, runs the engine
// and writes to the store.  Every answer must be byte-identical to the
// first engine document of its cell, and that document must equal an
// in-process run of the same cell (wall time aside).
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "runtime/results.hpp"
#include "serve/client.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace kmbench {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kFreshEvery = 8;

/// A km_serve child process.  The destructor stops it and reaps it on
/// every path; PR_SET_PDEATHSIG kills it should this process die first.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket, std::size_t runners)
      : socket_(std::move(socket)) {
    ::unlink(socket_.c_str());
    const std::string runners_arg = std::to_string(runners);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(2, 1);  // keep the runner's stdout for its own result lines
      ::execl(binary.c_str(), "km_serve", "serve", "--socket", socket_.c_str(),
              "--runners", runners_arg.c_str(), "--queue-depth", "16",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const auto start = Clock::now();
    while (true) {
      try {
        km::serve::ServeClient client(socket_);
        if (client.request("{\"op\":\"ping\"}").meta.find("\"ok\"") !=
            std::string::npos) {
          return;
        }
      } catch (const std::runtime_error&) {
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("km_serve exited during start-up");
      }
      if (seconds_since(start) > 60) {
        stop();
        throw std::runtime_error("km_serve did not answer within 60 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

  /// User + system CPU seconds the daemon has used.
  double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    std::istringstream rest(text.substr(text.rfind(')') + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) of the daemon in MiB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    return 0;
  }

  std::string stats_doc() const {
    km::serve::ServeClient client(socket_);
    return client.request("{\"op\":\"stats\"}").doc;
  }

  /// Asks the daemon to shut down and reaps it; kills it if it does
  /// not exit within ten seconds.
  void stop() {
    if (pid_ <= 0) return;
    try {
      km::serve::ServeClient client(socket_);
      client.request("{\"op\":\"shutdown\"}");
    } catch (const std::runtime_error&) {
    }
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 10) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

bool status_ok(const km::serve::WireResponse& r) {
  return r.meta.find("\"status\":\"ok\"") != std::string::npos;
}
bool has_source(const km::serve::WireResponse& r, std::string_view source) {
  return r.meta.find("\"source\":\"" + std::string(source) + "\"") !=
         std::string::npos;
}

/// Requests every warm cell once; the answers are the reference
/// documents (empty where the request failed).
std::vector<std::string> warm_fill(const Daemon& daemon, const Plan& plan,
                                   Tally& tally) {
  km::serve::ServeClient client(daemon.socket());
  std::vector<std::string> refs;
  for (const Cell& cell : ensemble(plan)) {
    const auto r = client.request(request_line(cell, plan.workers, false));
    const bool ok = status_ok(r) && has_source(r, "engine");
    tally.attempt(ok, "warm fill " + cell.workload + ": " + r.meta);
    refs.push_back(ok ? r.doc : std::string());
  }
  return refs;
}

struct Sample {
  double end_s = 0;  ///< completion, seconds after the loop started
  double ms = 0;     ///< send to second response line
  bool ok = false;
};

struct LoopResult {
  std::vector<Sample> samples;
  std::vector<std::string> failures;
  double seconds = 0;
};

/// Four clients in a closed loop for `seconds`; cell choice is drawn
/// from the run seed, one request in kFreshEvery is fresh.
LoopResult closed_loop(const Daemon& daemon, const Plan& plan,
                       const std::vector<std::string>& refs,
                       std::uint64_t seed, double seconds) {
  const std::vector<Cell> cells = ensemble(plan);
  std::vector<std::vector<std::string>> lines(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    lines[i] = {request_line(cells[i], plan.workers, false),
                request_line(cells[i], plan.workers, true)};
  }
  std::vector<LoopResult> per_client(kClients);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& out = per_client[c];
      try {
        km::serve::ServeClient client(daemon.socket());
        km::Rng rng(seed, c);
        for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
          const std::size_t cell = rng.below(cells.size());
          const bool fresh = i % kFreshEvery == kFreshEvery - 1;
          const auto sent = Clock::now();
          const auto r = client.request(lines[cell][fresh ? 1 : 0]);
          Sample s{seconds_since(start), ms_since(sent), false};
          s.ok = status_ok(r) &&
                 has_source(r, fresh ? "engine" : "result_store") &&
                 !refs[cell].empty() && r.doc == refs[cell];
          if (!s.ok) {
            out.failures.push_back(cells[cell].workload +
                                   (fresh ? " fresh: " : " replay: ") +
                                   r.meta);
          }
          out.samples.push_back(s);
        }
      } catch (const std::exception& e) {
        out.failures.push_back(std::string("client: ") + e.what());
        out.samples.push_back({seconds_since(start), 0, false});
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult all;
  all.seconds = seconds_since(start);
  for (auto& r : per_client) {
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    all.failures.insert(all.failures.end(), r.failures.begin(),
                        r.failures.end());
  }
  return all;
}

void count(const LoopResult& loop, Tally& tally) {
  std::size_t failure = 0;
  for (const Sample& s : loop.samples) {
    tally.attempt(s.ok, s.ok ? "" : loop.failures.at(failure++));
  }
}

/// The reference document of each cell must carry a passing check and
/// equal the engine's own document for the cell, wall time aside.
void verify_refs(const Plan& plan, const std::vector<std::string>& refs,
                 Tally& tally, std::uint64_t& rounds, std::uint64_t& bits) {
  const std::vector<Cell> cells = ensemble(plan);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    km::JsonValue doc;
    std::string error;
    bool ok = !refs[i].empty() && km::parse_json(refs[i], doc, error);
    const km::JsonValue* check = ok ? doc.find("check") : nullptr;
    const km::JsonValue* metrics = ok ? doc.find("metrics") : nullptr;
    ok = check && metrics && check->find("ok") && check->find("ok")->boolean &&
         metrics->find("rounds") && metrics->find("bits");
    if (ok) {
      rounds += static_cast<std::uint64_t>(metrics->find("rounds")->number);
      bits += static_cast<std::uint64_t>(metrics->find("bits")->number);
      const ColdCell engine = run_cold_cell(cell, plan.workers);
      ok = engine.ok && strip_wall_ms(engine.doc) == strip_wall_ms(refs[i]);
    }
    tally.attempt(ok, cell.workload + " seed " + std::to_string(cell.seed) +
                          ": served document differs from the engine's");
  }
}

}  // namespace

void run_serve_mix(const Options& opts, const Plan& plan, Tally& tally) {
  Daemon daemon(opts.km_serve, opts.socket_path, plan.runners);
  const std::vector<std::string> refs = warm_fill(daemon, plan, tally);
  announce_ready();
  if (opts.setup_only) return;

  const double cpu_start = daemon.cpu_s();
  const LoopResult loop =
      closed_loop(daemon, plan, refs, opts.seed, opts.seconds);
  const double cpu_s = daemon.cpu_s() - cpu_start;
  count(loop, tally);

  if (opts.inject != Inject::kNone) {
    km::serve::ServeClient client(daemon.socket());
    Cell cell = plan.cells[0];
    if (opts.inject == Inject::kUnknownWorkload) {
      cell.workload = "no_such_workload";
    }
    const auto r = client.request(request_line(cell, plan.workers, false));
    const std::string expected =
        opts.inject == Inject::kPerturbedReplay ? perturb(refs[0]) : refs[0];
    tally.attempt(status_ok(r) && r.doc == expected,
                  "injected request: " + r.meta);
  }
  const double peak_rss = daemon.peak_rss_mb();
  daemon.stop();

  std::uint64_t rounds = 0;
  std::uint64_t bits = 0;
  verify_refs(plan, refs, tally, rounds, bits);

  // Throughput per window of a twentieth of the run.  The first window
  // is warm-up (client threads and connections starting), and only
  // whole windows count: each client stops at its first answer after
  // the deadline.
  const double window = opts.seconds / 20;
  std::vector<double> counts(static_cast<std::size_t>(loop.seconds / window));
  std::vector<double> latency_ms;
  for (const Sample& s : loop.samples) {
    const auto w = static_cast<std::size_t>(s.end_s / window);
    if (w == 0 || w >= counts.size() || !s.ok) continue;
    counts[w] += 1;
    latency_ms.push_back(s.ms);
  }
  std::vector<double> rates;
  std::string windows;
  for (std::size_t w = 1; w < counts.size(); ++w) {
    rates.push_back(counts[w] / window);
    windows += " " + std::to_string(static_cast<long>(counts[w] / window));
  }
  tally.note("window req/s (window " + std::to_string(window) +
             " s, first skipped as warm-up):" + windows);
  const std::size_t n = latency_ms.size();
  std::string tail = "requests " + std::to_string(n) + ", p50 " +
                     std::to_string(median(latency_ms)) + " ms";
  if (n * 0.01 >= 10) {
    tail += ", p99 " + std::to_string(quantile(latency_ms, 0.99)) + " ms";
  } else {
    tail += ", p99 not reported (fewer than ten samples beyond it)";
  }
  tally.note(tail);

  tally.metric("cells_per_s", median(rates), "cells/s");
  tally.metric("cpu_s_per_cell",
               cpu_s / static_cast<double>(std::max<std::size_t>(
                           loop.samples.size(), 1)),
               "s");
  tally.metric("peak_rss_mb", peak_rss, "MiB");
  tally.metric("model_rounds", static_cast<double>(rounds), "count");
  tally.metric("model_bits", static_cast<double>(bits), "count");
  tally.metric("req_p50_ms", median(latency_ms), "ms");
}

HitRatios serve_traffic_ratios(const Options& opts, const Plan& plan,
                               Tally& tally, double seconds) {
  Daemon daemon(opts.km_serve, opts.socket_path, plan.runners);
  const std::vector<std::string> refs = warm_fill(daemon, plan, tally);
  count(closed_loop(daemon, plan, refs, opts.seed, seconds), tally);
  return hit_ratios(daemon.stats_doc());
}

}  // namespace kmbench
