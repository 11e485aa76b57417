#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload checkpoint --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
PRIMACY library and the perfbench program (Release) into a build tree of
this checkout's own, perfbench-<hash of its path>, under $CARGO_TARGET_DIR,
or under .bench_build when that is unset; later runs rebuild incrementally.
The last line of standard output is the result JSON object. A traced run
(--trace 1) adds the per-layer self times read back from its trace file by
trace_report.py. --corrupt-expected runs the verifier's self-check: one
expected output is corrupted, and the run must fail.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import trace_report  # noqa: E402


def log(message):
    sys.stderr.write("run.py: %s\n" % message)
    sys.stderr.flush()


def build_dir_for_checkout():
    """This checkout's build tree: one directory per source path, so
    checkouts that share a target directory never reuse or touch each
    other's trees."""
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tag = hashlib.sha256(HERE.encode()).hexdigest()[:16]
    return os.path.join(root, "perfbench-" + tag)


def build(build_dir):
    """Configures (once) and builds perfbench; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            log("%s is the build tree of another source directory; "
                "remove it or set CARGO_TARGET_DIR elsewhere" % build_dir)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: %s" % " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def declared_metrics(traced):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["checkpoint", "daemon_hot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    build_dir = build_dir_for_checkout()
    binary = build(build_dir)
    if binary is None:
        return 1
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    # Relative, so the daemon's socket path fits in sockaddr_un.
    work_rel = os.path.relpath(work_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_rel]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        log("perfbench printed nothing (exit %d)" % proc.returncode)
        return 1
    result = json.loads(lines[-1])

    if args.trace and proc.returncode == 0:
        trace = os.path.join(work_dir, "trace-%s-%d.json" % (args.workload, args.seed))
        meta, spans = trace_report.load_spans(trace)
        print(trace_report.table(meta, spans))
        for name, value in trace_report.metrics(spans).items():
            result["metrics"][name] = {"value": value, "unit": "s"}

    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        log("metrics differ from BENCHMARK.json: %s" % sorted(
            set(declared) ^ set(result["metrics"])))
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
