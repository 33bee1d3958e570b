#!/usr/bin/env python3
"""Compares two checkouts on one perfbench workload in alternating pairs.

    scripts/perfbench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, one run at a time, where T is the
run_seconds of PARENT_DIR/BENCHMARK.json; pair i uses seed FIRST_SEED + i,
and the side that runs first alternates from pair to pair, so a slow spell
on a shared host falls on both sides alike. Only the last line of each
run's stdout (run.py's JSON result) is read.

For every end-to-end metric of PARENT_DIR/BENCHMARK.json it prints the
parent and change medians, the change relative to the parent, the parent's
quartile spread relative to its median, and how many pairs the change won
(strictly better in the metric's direction). A metric whose change median
is worse than the parent's by more than its bound is marked REGRESSED; one
whose parent spread alone exceeds the bound is marked noisy, since the runs
cannot resolve a difference of that size. It also prints attempted and
failed requests per side and whether every answer was correct.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"run failed in {checkout} (seed {seed})")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run printed nothing in {checkout} (seed {seed})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            runs[side].append(result)
            qps = result["metrics"].get("throughput_qps", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  f"throughput_qps {qps}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, {seconds:g} s per run")
    print(f"{'metric':<16} {'parent':>10} {'change':>10} {'delta':>8} "
          f"{'spread':>8} {'bound':>6} {'won':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        higher = metric["better"] == "higher"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        q1, p_med, q3 = quartiles(parent)
        c_med = statistics.median(change)
        won = sum(1 for p, c in zip(parent, change)
                  if (c > p if higher else c < p))
        delta = (c_med - p_med) / p_med if p_med else 0.0
        spread = (q3 - q1) / p_med if p_med else 0.0
        worse = -delta if higher else delta
        notes = []
        if worse > metric["bound"]:
            notes.append("REGRESSED")
        if spread > metric["bound"]:
            notes.append("noisy")
        print(f"{name:<16} {p_med:>10.4g} {c_med:>10.4g} {delta:>+8.1%} "
              f"{spread:>8.1%} {metric['bound']:>6.0%} "
              f"{won:>3}/{args.pairs:<2} {' '.join(notes)}")
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} requests failed; "
              f"every answer correct: {correct}")


if __name__ == "__main__":
    main()
