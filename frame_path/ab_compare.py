#!/usr/bin/env python3
"""A/B verdicts for the frame_path benchmark.

Collect alternating parent/change pairs, then compare them:

    python3 frame_path/ab_compare.py collect PARENT_DIR CHANGE_DIR \\
        --workload page_sync --pairs 10 --out .bench_build/ab
    python3 frame_path/ab_compare.py compare \\
        .bench_build/ab.parent.jsonl .bench_build/ab.change.jsonl
    python3 frame_path/ab_compare.py self-check [RUNS.jsonl]

`collect` runs frame_path/run.py in each checkout for BENCHMARK.json's
run_seconds, alternating which side runs first, one seed per pair, and
appends one JSON line per run ({"workload", "seed", "result"}) to
<out>.parent.jsonl / <out>.change.jsonl. Each side builds into its own
directory (<out>.parent.build/, <out>.change.build/); both share one model
cache (<out>.models/). A run that prints no result is recorded as incorrect,
with its exit code.

`compare` pairs runs by workload and seed and prints one verdict per
end-to-end metric and workload, using the bounds in BENCHMARK.json (see
README.md, "A/B protocol"):

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ, in its favour, by more than
              the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound, and either the parent's own spread (IQR
              over median) is within the bound or the change is worse than
              the bound in every pair;
  unresolved  the parent's own spread is wider than the bound and not every
              change run beats every parent run;
  unchanged   anything else.

It exits non-zero when a metric regressed or any run was incorrect.

`self-check` compares a run set (or a built-in synthetic one) with itself;
every verdict must be "unchanged". It also checks the rule on synthetic
gains and losses.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def verdict(parent, change, better, bound):
    """Verdict for paired value lists (parent[i] pairs with change[i])."""
    if len(parent) < MIN_PAIRS or len(parent) != len(change):
        return "unresolved", f"{len(parent)} pairs, needs >= {MIN_PAIRS}"
    if parent == change:
        return "unchanged", "identical runs"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    mp = statistics.median(parent)
    mc = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    gain = sign * (mc - mp)  # > 0: the change is better
    detail = (f"parent {mp:.6g} (IQR {iqr:.3g}), change {mc:.6g}, "
              f"change wins {wins}/{len(parent)}")
    if wins >= 0.9 * len(parent) and gain > iqr:
        return "improved", detail
    spread = iqr / abs(mp) if mp != 0 else float("inf")
    loss = -gain / abs(mp) if mp != 0 else 0.0
    worse_every_pair = all(p != 0 and sign * (p - c) / abs(p) > bound
                           for p, c in zip(parent, change))
    if loss > bound and (spread <= bound or worse_every_pair):
        return "regressed", detail + f"; worse by {loss:.3f} > bound {bound}"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", detail + f"; parent spread {spread:.3f} > bound {bound}"
    return "unchanged", detail


def compare(parent_runs, change_runs, metrics):
    """Prints verdicts; returns (list of (workload, metric, verdict), incorrect runs)."""
    def by_workload(runs):
        out = {}
        for run in runs:
            out.setdefault(run["workload"], {})[run["seed"]] = run["result"]
        return out

    parents = by_workload(parent_runs)
    changes = by_workload(change_runs)
    verdicts = []
    incorrect = 0
    for workload in sorted(set(parents) | set(changes)):
        p_runs = parents.get(workload, {})
        c_runs = changes.get(workload, {})
        bad = sum(1 for r in list(p_runs.values()) + list(c_runs.values()) if not r["correct"])
        incorrect += bad
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"{workload}: {len(seeds)} pairs" + (f", {bad} incorrect runs" if bad else ""))
        for name, spec in metrics.items():
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds
                     if name in p_runs[s]["metrics"] and name in c_runs[s]["metrics"]]
            v, detail = verdict([p for p, _ in pairs], [c for _, c in pairs],
                                spec["better"], spec["bound"])
            verdicts.append((workload, name, v))
            print(f"  {name:26s} {v:11s} {detail}")
    return verdicts, incorrect


def collect(args, seconds):
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    envs = {}
    for side in sides:
        env = dict(os.environ)
        env["CARGO_TARGET_DIR"] = os.path.abspath(f"{args.out}.{side}.build")
        env["PERCIVAL_MODEL_DIR"] = os.path.abspath(f"{args.out}.models")
        envs[side] = env
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    outputs = {side: open(f"{args.out}.{side}.jsonl", "a") for side in sides}
    try:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                proc = subprocess.run(
                    [sys.executable, "frame_path/run.py", "--workload", args.workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=sides[side], env=envs[side], stdout=subprocess.PIPE, text=True,
                    check=False)
                lines = proc.stdout.splitlines()
                try:
                    result = json.loads(lines[-1]) if lines else None
                except json.JSONDecodeError:
                    result = None
                if not isinstance(result, dict) or "metrics" not in result:
                    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                              "exit_code": proc.returncode}
                outputs[side].write(json.dumps(
                    {"workload": args.workload, "seed": seed, "result": result}) + "\n")
                outputs[side].flush()
                print(f"pair {i + 1}/{args.pairs} {side} seed {seed}: "
                      f"correct={result['correct']}", file=sys.stderr)
    finally:
        for f in outputs.values():
            f.close()
    return 0


def self_check(args, metrics):
    if args.runs:
        runs = load_runs(args.runs)
    else:
        runs = [{"workload": "synthetic", "seed": i,
                 "result": {"correct": True, "metrics": {
                     name: {"value": 1.0 + 0.01 * ((i * 7) % 5)} for name in metrics}}}
                for i in range(MIN_PAIRS)]
    verdicts, _ = compare(runs, runs, metrics)
    bad = [v for v in verdicts if v[2] != "unchanged"]
    # The rule itself on synthetic pairs: with a 2% spread, a 30% gain in
    # every pair is an improvement and a 40% loss a regression; with a ~50%
    # spread, doubling every pair is still a regression, while a 10% loss
    # is unresolved.
    narrow = [1.0 + 0.01 * ((i * 7) % 5) for i in range(MIN_PAIRS)]
    wide = [1.0 + 0.3 * ((i * 7) % 5) for i in range(MIN_PAIRS)]
    cases = (("lower", narrow, 0.7, "improved"), ("lower", narrow, 1.4, "regressed"),
             ("higher", narrow, 1.3, "improved"), ("lower", wide, 2.0, "regressed"),
             ("lower", wide, 1.1, "unresolved"))
    for better, parent, factor, expected in cases:
        got, _ = verdict(parent, [p * factor for p in parent], better, 0.25)
        if got != expected:
            bad.append(("synthetic", f"{better} x{factor}", got))
    print("self-check:", "ok" if not bad else f"FAILED on {bad}")
    return 0 if not bad else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--workload", required=True)
    c.add_argument("--pairs", type=int, default=MIN_PAIRS)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("parent_runs")
    p.add_argument("change_runs")
    s = sub.add_parser("self-check")
    s.add_argument("runs", nargs="?")
    args = parser.parse_args()

    spec = load_benchmark(args.benchmark)
    if args.command == "collect":
        return collect(args, spec["run_seconds"])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.command == "self-check":
        return self_check(args, metrics)
    verdicts, incorrect = compare(load_runs(args.parent_runs), load_runs(args.change_runs),
                                  metrics)
    return 1 if incorrect or any(v[2] == "regressed" for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
