#!/usr/bin/env python3
"""Builds and runs the frame_path benchmark.

    python3 frame_path/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 frame_path/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The first call configures and builds the
benchmark (frame_path/CMakeLists.txt) and trains the shared model; later
calls reuse both. Everything is written under $CARGO_TARGET_DIR (default
.bench_build): the CMake build, the model cache ($PERCIVAL_MODEL_DIR, unless
that is set already) and the per-run BENCH_*.json / TRACE_*.json files.

The last stdout line is the run's JSON result. `--workload all` runs every
workload in its own process, untraced then traced, prints each result, and
merges them into BENCH_frame_path.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["page_sync", "paper_sync", "async_browse", "async_flood"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_logged(command, env, timeout):
    """Runs a set-up step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(command)}")
        return 1


def prepare(build_dir, env):
    """Builds the binary and prepares the model cache; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"the PERCIVAL sources are not next to {HERE}; nothing to build")
        return None
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S) != 0:
                return None
        if run_logged(["cmake", "--build", build_dir, "--target", "frame_path",
                       "-j", "4"], env, BUILD_TIMEOUT_S) != 0:
            return None
        binary = os.path.join(build_dir, "frame_path")
        if run_logged([binary, "--prepare"], env, BUILD_TIMEOUT_S) != 0:
            return None
    return binary


def run_workload(binary, env, out_dir, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines, result)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: no result line (exit code {proc.returncode})")
        return proc.returncode or 1, lines, None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(build_root(), "frame_path")
    env = dict(os.environ)
    # A caller comparing two checkouts may point both at one model cache.
    env.setdefault("PERCIVAL_MODEL_DIR", os.path.join(build_dir, "models"))
    binary = prepare(build_dir, env)
    if binary is None:
        return 2
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        code, lines, result = run_workload(binary, env, out_dir, args.workload, args.seed,
                                           args.seconds, args.trace)
        if result is None:
            for line in lines:
                print(line, file=sys.stderr)
            return code or 1
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
        return code

    # Every workload in its own process, untraced then traced.
    merged = {"bench": "frame_path", "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_workload(binary, env, out_dir, workload, args.seed,
                                               args.seconds, trace)
            print("\n".join(lines[:-1] if result else lines))
            worst = worst or code
            if result is None:
                summary["correct"] = False
                continue
            summary["correct"] &= bool(result["correct"])
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
            path = os.path.join(out_dir, f"BENCH_frame_path_{workload}"
                                f"{'_trace' if trace else ''}.json")
            with open(path) as f:
                merged["workloads"].setdefault(workload, {})[
                    "per_layer" if trace else "end_to_end"] = json.load(f)
    merged_path = os.path.join(out_dir, "BENCH_frame_path.json")
    with open(merged_path, "w") as f:
        json.dump(merged, f, indent=1)
    log(f"wrote {merged_path}")
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
