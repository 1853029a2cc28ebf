#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (see pipebench/README.md).

    python3 pipebench/run.py --workload paper_scan --seed 1 --seconds 30 --trace 0
    python3 pipebench/run.py --self-test

Run from the repository root. The C++ driver is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. Each run prints a
human-readable report and, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json untraced (--trace 0), its per-layer metrics traced (--trace 1).
The full record, with provenance, goes to <build>/results/, and the Chrome
trace of a traced run to <build>/traces/.
"""

import argparse
import hashlib
import json
import os
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # every run must end within 180 s


def fail(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pipebench")


def build(target="pipebench"):
    """Configures once, then builds incrementally; the log stays in the build dir."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out, target)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(benchmark, traced):
    rows = benchmark["per_layer" if traced else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def source_digest():
    """Identifies the library sources when the checkout is not a git repository."""
    digest = hashlib.sha1()
    for top in ("src", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none (not a git checkout)"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat; zeros where it is missing."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def check_metric_table(binary, benchmark):
    """Every metric the driver can print matches BENCHMARK.json by name, unit and kind."""
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    printed = {}
    for line in filter(None, listed):
        name, unit, kind = line.split()
        printed[name] = (unit, kind)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for row in benchmark[kind]:
            declared[row["name"]] = (row["unit"], kind)
    problems = []
    for name in sorted(set(printed) | set(declared)):
        if printed.get(name) != declared.get(name):
            problems.append("%s: driver %s, BENCHMARK.json %s" %
                            (name, printed.get(name), declared.get(name)))
    return problems


def self_test():
    benchmark = load_benchmark()
    problems = check_metric_table(build(), benchmark)
    for p in problems:
        print("metric mismatch: " + p)
    tests = build("pipebench_tests")
    ok = subprocess.run([tests]).returncode == 0
    print("metric table: %s" % ("ok" if not problems else "MISMATCH"))
    return 0 if ok and not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src: run from a full checkout" % ROOT)
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("no BENCHMARK.json at " + ROOT)
    if args.self_test:
        return self_test()
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        fail("--workload must be one of " + ", ".join(workloads))

    binary = build()
    out = build_dir()
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(out, "traces", "%s-seed%d.json" % (args.workload, args.seed))
        command += ["--trace-out", trace_path]

    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    started = time.time()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_S)
    if done.returncode != 0:
        fail("driver exited with %d" % done.returncode)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    load_after = os.getloadavg()
    ticks_after = cpu_ticks()
    total_ticks = ticks_after[1] - ticks_before[1]

    expected = expected_metrics(benchmark, args.trace == 1)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        fail("printed metrics do not match BENCHMARK.json: %s" %
             sorted(set(printed.items()) ^ set(expected.items())))

    busy = int(result["info"].get("max_busy_threads", "1"))
    provenance = {
        "build_type": result["info"]["build_type"],
        "compiler": result["info"]["compiler"],
        "simd_target": result["info"]["simd_target"],
        "git_commit": git_commit(),
        "source_sha1": source_digest(),
        "host": socket.gethostname(),
        "nproc": nproc,
        "load_avg_before": list(load_before),
        "load_avg_after": list(load_after),
        "steal_share": round((ticks_after[0] - ticks_before[0]) / total_ticks, 4)
        if total_ticks > 0 else 0.0,
        "seed": args.seed,
        "seconds": args.seconds,
        "max_busy_threads": busy,
        "oversubscribed": busy > nproc,
        "wall_s": round(time.time() - started, 3),
    }
    record = dict(result, provenance=provenance, trace_file=trace_path)
    with open(os.path.join(out, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("== pipebench %s seed %d (%s) ==" %
          (args.workload, args.seed, "traced" if args.trace else "untraced"))
    for name, m in result["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  samples %s, attempted %d, failed %d, error_rate %.4g" %
          (result["info"]["samples"], result["attempted"], result["failed"],
           result["failed"] / max(1, result["attempted"])))
    bad = [c for c in result["checks"] if not c["ok"]]
    print("  checks: %d run, %d failed" % (len(result["checks"]), len(bad)))
    for c in bad:
        print("    FAILED %s %s" % (c["name"], c["detail"]))
    print("  provenance: " + json.dumps(provenance, sort_keys=True))
    if provenance["oversubscribed"]:
        print("  WARNING: %d busy threads on %d CPUs: wall-clock times are oversubscribed"
              % (busy, nproc))
    if trace_path:
        print("  trace: " + trace_path)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
