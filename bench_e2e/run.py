#!/usr/bin/env python3
"""End-to-end what-if benchmark driver.

Builds the bench_e2e binary from this checkout (CMake, Release, into
.bench_build/bench_e2e), runs one workload and prints its report. The last
line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics named in BENCHMARK.json (--trace 0) or the
per-layer ones (--trace 1). The line before it is the full report: seed,
nproc and affinity cores, kernel ISA, build type, every metric with its unit
and sample count, wall and simulated device time in separate fields, the
output checks and the workload's properties.

  python3 bench_e2e/run.py --workload paper_whatif --seed 1 --seconds 15 --trace 0
  python3 bench_e2e/run.py --self-test

Exit status is 0 only when the run completed and every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ("paper_whatif", "edit_feed", "out_of_core")
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_DEADLINE_S = 175.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_busy_ticks():
    """Non-idle ticks per CPU from /proc/stat (empty when unreadable)."""
    busy = {}
    try:
        with open("/proc/stat") as f:
            for line in f:
                name, *fields = line.split()
                if name.startswith("cpu") and name != "cpu":
                    ticks = [int(x) for x in fields]
                    busy[int(name[3:])] = sum(ticks) - ticks[3] - ticks[4]
    except (OSError, ValueError, IndexError):
        pass
    return busy


def one_cpu():
    """The CPU the benchmark runs on: the least busy one it may use over a
    short sample, ties to the highest index.

    On a shared multi-core host, cross-core wake-ups of the out-of-core
    pipeline's pool workers made out_of_core's wall time unsteady (p90
    spread across seeds above 0.5 of its median); on one CPU the engine's
    defaults size the pool to that CPU. Every workload runs one client and
    the engine's default eval_threads is 1, so the others lose nothing.
    """
    allowed = os.sched_getaffinity(0)
    before = cpu_busy_ticks()
    time.sleep(0.2)
    after = cpu_busy_ticks()
    return min(allowed, key=lambda c: (after.get(c, 0) - before.get(c, 0), -c))


def run_binary(workload, seed, seconds, trace, scale, deadline):
    """Runs one workload; returns (exit code, report dict or None)."""
    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--workdir", workdir]
    if trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    cpu = one_cpu()
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        log("bench_e2e: %s timed out" % workload)
        return 124, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 2, None
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return 2, None
    report["env"]["cpu"] = cpu
    return proc.returncode, report


def all_metrics(report):
    merged = dict(report["metrics"])
    merged.update(report["device_metrics"])
    return merged


def summary(report):
    env = report["env"]
    lines = ["workload %s seed %s: %d ops attempted, %d failed; nproc %d "
             "(cpu %d of %d), isa %s, %s build" % (
                 report["workload"], report["seed"], report["attempted"],
                 report["failed"], env["nproc"], env["cpu"],
                 env["hardware_concurrency"], env["kernel_isa"],
                 env["build_type"])]
    for kind in ("metrics", "device_metrics"):
        for name, m in sorted(report[kind].items()):
            base = " base %g" % m["base"] if "base" in m else ""
            lines.append("  %-32s %14.6g %-6s n=%d%s%s" % (
                name, m["value"], m["unit"], m["samples"], base,
                " (simulated device time)" if kind == "device_metrics" else ""))
    for name, value in sorted(report["properties"].items()):
        lines.append("  property %-38s %g" % (name, value))
    for check in report["checks"]:
        lines.append("  check %s: %s (%s)" % (
            check["name"], "ok" if check["ok"] else "FAILED", check["detail"]))
    return "\n".join(lines)


def run_once(args, deadline):
    spec = load_spec()
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    code, report = run_binary(args.workload, args.seed, args.seconds,
                              args.trace, "full", deadline)
    if report is None:
        log("bench_e2e: no report (exit %d)" % code)
        return 1
    metrics = all_metrics(report)
    missing = [n for n in names if n not in metrics]
    if missing:
        log("bench_e2e: report lacks metrics %s" % ", ".join(missing))
        return 1
    correct = bool(report["correct"]) and code == 0
    print(summary(report))
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }))
    return 0 if correct else 1


def self_test(deadline):
    """Every workload at tiny scale, traced: checks pass, every named metric
    is reported, and storage reads happen only where the design says."""
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    failures = []
    for workload in WORKLOADS:
        code, report = run_binary(workload, 1, 1, 1, "tiny", deadline)
        if report is None:
            failures.append("%s: no report (exit %d)" % (workload, code))
            continue
        print(summary(report))
        metrics = all_metrics(report)
        failures += ["%s: check %s failed" % (workload, c["name"])
                     for c in report["checks"] if not c["ok"]]
        if code != 0 or not report["correct"]:
            failures.append("%s: run not correct (exit %d)" % (workload, code))
        failures += ["%s: metric %s missing" % (workload, n)
                     for n in names if n not in metrics]
        if report["failed"]:
            failures.append("%s: %d operations failed" % (workload,
                                                          report["failed"]))
        reads = metrics.get("storage.physical_reads", {}).get("value", 0)
        if (reads > 0) != (workload == "out_of_core"):
            failures.append("%s: storage.physical_reads = %g" % (workload,
                                                                  reads))
    for failure in failures:
        print("self-test FAILED: " + failure)
    if not failures:
        print("self-test passed: %d workloads" % len(WORKLOADS))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    started = time.monotonic()
    if not build():
        log("bench_e2e: build failed")
        return 2
    # An up-to-date build takes a second or two; a real build (the first run
    # in a checkout) may take minutes and does not count against a run.
    build_s = time.monotonic() - started
    deadline = started + RUN_DEADLINE_S + (build_s if build_s > 10 else 0.0)
    return self_test(deadline) if args.self_test else run_once(args, deadline)


if __name__ == "__main__":
    sys.exit(main())
