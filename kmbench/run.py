#!/usr/bin/env python3
"""Repository benchmark: builds the runner, runs one named workload and
prints its metrics.

    python3 kmbench/run.py --workload sweep_k64 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The first run configures and builds
kmbench/ (and through it the simulator) in Release mode under
$CARGO_TARGET_DIR, default .bench_build.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones.  Lines before it start with "#": the host stamp,
each pass's time, set-up times and any failed operation.

Exit status: 0 when every operation passed; 1 when one failed, the
build failed or the run could not finish (no result line then); 2 on a
usage error.  See kmbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sweep_k64", "sketch_k64", "serve_mix")
RUN_TIMEOUT_S = 170
# Set-up is repeated and its median reported: serve_mix starts a daemon
# and fills its store each time, the sweeps only start the process.
SETUPS = {"serve_mix": 5}
DEFAULT_SETUPS = 15


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "kmbench")


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no simulator sources next to {BENCH_DIR}; run from a "
             "full checkout of the repository")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "kmbench_runner", "km_serve"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return (os.path.join(out, "kmbench_runner"),
            os.path.join(out, "kmachine", "tools", "km_serve"))


def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.readline().strip() or default
    except OSError:
        return default


def cpu_jiffies():
    """(steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the
    code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "kmbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if "__pycache__" not in d)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def host_stamp(steal_start, steal_end):
    """The context a number must be read in: a figure from another host,
    commit or build type is not comparable with this one."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    steal = None
    if steal_start and steal_end and steal_end[1] > steal_start[1]:
        steal = (steal_end[0] - steal_start[0]) / (steal_end[1] - steal_start[1])
    sha = git("rev-parse", "HEAD")
    dirty = None
    if sha:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cache = os.path.join(build_dir(), "CMakeCache.txt")
    build_type = "unknown"
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "governor": read_first(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "steal_frac": steal,
        "kernel": platform.release(),
        "git_sha": sha or "unknown",
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "build_type": build_type,
    }


def spawn(cmd):
    """Starts the runner; returns (process, seconds from spawn to its
    "ready" line, or None if it never got ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    proc.watchdog = watchdog
    for line in proc.stdout:
        if line.strip() == "ready":
            return proc, time.perf_counter() - start
        print(line, end="")
    return proc, None


def finish(proc):
    """Reads the rest of the runner's output; returns (its last line,
    exit status)."""
    last = None
    for line in proc.stdout:
        if last is not None:
            print(last, end="")
        last = line
    rc = proc.wait()
    proc.watchdog.cancel()
    return last, rc


def metric_names(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's tests")
    parser.add_argument("--inject",
                        choices=("unknown_workload", "perturbed_replay"),
                        help="add one bad operation (benchmark tests)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    runner, km_serve = build()
    socket_path = os.path.join(os.path.relpath(build_dir(), ROOT),
                               f"serve-{os.getpid()}.sock")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--km-serve", km_serve,
           "--socket", socket_path]
    if args.inject:
        cmd += ["--inject", args.inject]

    setups = []
    if not args.trace:
        for _ in range(SETUPS.get(args.workload, DEFAULT_SETUPS) - 1):
            proc, setup_s = spawn(cmd + ["--setup-only"])
            _, rc = finish(proc)
            if setup_s is None or rc != 0:
                fail("set-up failed")
            setups.append(setup_s)

    steal_start = cpu_jiffies()
    proc, setup_s = spawn(cmd)
    last, rc = finish(proc)
    steal_end = cpu_jiffies()
    if setup_s is None or last is None:
        fail(f"the runner stopped without a result (exit {rc})")
    setups.append(setup_s)
    try:
        result = json.loads(last)
    except ValueError:
        fail("the runner's last line is not JSON: " + last.strip())

    print("# host " + json.dumps(host_stamp(steal_start, steal_end)))
    metrics = result["metrics"]
    if not args.trace:
        print("# set-up seconds (median reported): " +
              " ".join(f"{s:.4f}" for s in setups))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    names = metric_names(args.trace) or list(metrics)
    missing = [n for n in names
               if not isinstance(metrics.get(n, {}).get("value"), (int, float))]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    attempted, failed = result["attempted"], result["failed"]
    print(f"# failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": bool(result["correct"]) and rc == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in names},
    }))
    sys.exit(0 if result["correct"] and rc == 0 else 1)


if __name__ == "__main__":
    main()
