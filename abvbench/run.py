#!/usr/bin/env python3
"""End-to-end ABV benchmark: builds abvbench from source and runs one workload.

Run from the repository root:

    python3 abvbench/run.py --workload colorconv_at --seed 42 --seconds 25 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (see abvbench/README.md). Each run builds the
binary if needed (CMake, Release) under $CARGO_TARGET_DIR or .bench_build,
records the workload's trace log and verdict reference in a fresh
preparation process, then measures in a second fresh process. --seconds
fixes the number of calls measured (see abvbench.cc, kCallsPerSecond).

Extra flags: --size N (workload size per call, for the smoke test),
--reference-seed N (hold the run against another seed's committed
reference), --check-threads (report the peak thread count of the measuring
process on stderr) and --write-reference (regenerate reference.json from
the preparation step's verdicts).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("colorconv_at", "des56_rtl", "des56_at_replay")
DEFAULT_SEED = 42
HELD_OUT_SEED = 7919
# Work per run_simulation call: DES56 operations or ColorConv pixels. The
# full sizes are the measured ones; the smoke sizes serve the smoke test.
SMOKE_SIZES = {"colorconv_at": 1500, "des56_rtl": 300, "des56_at_replay": 600}
FULL_SIZES = {"colorconv_at": 10000, "des56_rtl": 1000, "des56_at_replay": 4000}
# BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 25


def child_timeout(seconds):
    """A child that takes four times its nominal length is stuck."""
    return 4 * seconds + 20


def log(message):
    print(f"abvbench: {message}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root(), "abvbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "abvbench")


def count_threads(pid):
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return 0


def run_child(argv, timeout, check_threads=False):
    """Runs one abvbench process, relaying its stdout; returns
    (exit code, stdout lines, peak thread count or None)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    peak = [0]

    def poll_threads():
        while proc.poll() is None:
            peak[0] = max(peak[0], count_threads(proc.pid))
            time.sleep(0.001)

    poller = threading.Thread(target=poll_threads) if check_threads else None
    if poller:
        poller.start()
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log("timed out: " + " ".join(argv))
        return 1, [], None
    finally:
        if poller:
            poller.join()
    return proc.returncode, out.splitlines(), peak[0] if poller else None


def child_args(binary, mode, args, work):
    size = args.size or FULL_SIZES[args.workload]
    return [binary, mode, "--workload", args.workload, "--seed", str(args.seed),
            "--size", str(size), "--dir", work]


def prepare(binary, args, work):
    """Records the workload's log and writes its verdict reference in work;
    returns the exit code (1: wrong verdicts)."""
    code, _, _ = run_child(child_args(binary, "prepare", args, work),
                           child_timeout(args.seconds))
    return code


def run(args):
    binary = build()
    if binary is None:
        return 2
    work = os.path.join(build_root(), "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        code = prepare(binary, args, work)
        if code == 1:
            # The live and replayed verdicts disagree: a failed run.
            log("preparation found wrong verdicts")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        if code != 0:
            log(f"preparation failed ({code})")
            return code
        mode = "trace" if args.trace else "measure"
        argv = child_args(binary, mode, args, work) + [
            "--seconds", str(args.seconds)]
        if os.path.exists(REFERENCE):
            argv += ["--reference", REFERENCE]
        if args.reference_seed is not None:
            argv += ["--reference-seed", str(args.reference_seed)]
        if args.trace:
            traces = os.path.join(build_root(), "traces")
            os.makedirs(traces, exist_ok=True)
            argv += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.trace.json")]
        code, lines, peak = run_child(argv, child_timeout(args.seconds),
                                      args.check_threads)
        if peak is not None:
            log(f"threads_peak {peak}")
        if not lines or not lines[-1].startswith("{"):
            log(f"{mode} printed no result ({code})")
            return code or 1
        print("\n".join(lines), flush=True)
        return code
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_reference(args):
    """Regenerates reference.json: the verdicts at the default and held-out
    seeds, at the full and the smoke sizes, keyed "workload/size/seed". Each
    is the reference the preparation step derives (see abvbench.cc)."""
    binary = build()
    if binary is None:
        return 2
    work = os.path.join(build_root(), "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    table = {}
    try:
        for workload in WORKLOADS:
            for size in (FULL_SIZES[workload], SMOKE_SIZES[workload]):
                for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                    one = argparse.Namespace(workload=workload, seed=seed,
                                             size=size, seconds=args.seconds)
                    if prepare(binary, one, work) != 0:
                        log(f"preparation failed: {workload} size {size} "
                            f"seed {seed}")
                        return 1
                    stem = os.path.join(work, f"{workload}-s{seed}-n{size}")
                    with open(stem + ".ref.json") as f:
                        table[f"{workload}/{size}/{seed}"] = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # One line per verdict keeps the committed table diffable.
    with open(REFERENCE, "w") as f:
        f.write("{\n" + ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}"
                                   for key, value in table.items()) + "\n}\n")
    log(f"wrote {REFERENCE}")
    return 0


def seed_arg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=0)
    parser.add_argument("--reference-seed", type=seed_arg)
    parser.add_argument("--check-threads", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        return write_reference(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
