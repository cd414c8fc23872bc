// km_trace_check — CLI over tools/trace_check: validates the files
// `km_run --trace` / `--trace-links` produce, for CI and local use.
//
//   km_trace_check trace.json [--links trace.links.json] [--expect-k K]
//
// Exit status: 0 when every document is valid, 1 on validation findings,
// 2 on usage or I/O errors.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace_check.hpp"

namespace {

int usage(const char* error) {
  if (error) std::fprintf(stderr, "km_trace_check: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: km_trace_check TRACE.json [--links LINKS.json] [--expect-k K]\n"
      "\n"
      "Validates a Chrome/Perfetto trace written by `km_run --trace` (and\n"
      "optionally the km.link_trace/v1 file from --trace-links): well-formed\n"
      "events, non-negative durations, per-machine monotone timestamps, one\n"
      "named thread per machine, k x k matrices with a zero diagonal.\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Parses and checks one file; returns false on any finding.
bool run_check(const std::string& path, std::size_t expect_k, bool links,
               std::string& summary) {
  using km::trace_check::CheckResult;
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "km_trace_check: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  km::JsonValue doc;
  std::string parse_error;
  if (!km::parse_json(text, doc, parse_error)) {
    std::fprintf(stderr, "km_trace_check: %s: %s\n", path.c_str(),
                 parse_error.c_str());
    return false;
  }
  const CheckResult result =
      links ? km::trace_check::check_link_trace(doc, expect_k)
            : km::trace_check::check_chrome_trace(doc, expect_k);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "km_trace_check: %s: %s\n", path.c_str(), e.c_str());
  }
  if (links) {
    summary = path + ": k=" + std::to_string(result.machines) + ", " +
              std::to_string(result.matrices) + " matrices";
  } else {
    summary = path + ": " + std::to_string(result.machines) + " machines, " +
              std::to_string(result.span_events) + " spans, " +
              std::to_string(result.counter_events) + " counter events";
  }
  return result.ok();
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string links_path;
  std::size_t expect_k = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--links") {
      if (++i >= argc) return usage("--links is missing its path");
      links_path = argv[i];
    } else if (arg == "--expect-k") {
      if (++i >= argc) return usage("--expect-k is missing its value");
      char* end = nullptr;
      const unsigned long v = std::strtoul(argv[i], &end, 10);
      if (!end || *end != '\0' || v == 0) {
        return usage("--expect-k expects a positive integer");
      }
      expect_k = static_cast<std::size_t>(v);
    } else if (arg == "--help" || arg == "-h") {
      usage(nullptr);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(("unknown flag '" + arg + "'").c_str());
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      return usage("more than one trace file given");
    }
  }
  if (trace_path.empty()) return usage("missing trace file");

  bool ok = true;
  std::string summary;
  ok &= run_check(trace_path, expect_k, /*links=*/false, summary);
  std::printf("%s\n", summary.c_str());
  if (!links_path.empty()) {
    ok &= run_check(links_path, expect_k, /*links=*/true, summary);
    std::printf("%s\n", summary.c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "km_trace_check: FAILED\n");
    return 1;
  }
  std::printf("km_trace_check: OK\n");
  return 0;
}
