#!/usr/bin/env python3
"""Steadiness check of the benchmark.

    python3 perfbench/steady.py [--out report.json]

Run from the root of a checkout. For every workload of BENCHMARK.json it
makes RUNS untraced runs of run_seconds, with seeds FIRST_SEED, FIRST_SEED+1,
..., and reports for each end-to-end metric the median and the spread (the
distance between the first and the third quartile as
statistics.quantiles(values, n=4) gives them, as a share of the median)
against its line: a third of the metric's bound, or for setup_s, whose
millisecond medians move with the host's load, its full bound. It then makes COUNT_RUNS traced runs
with the workload's default seed and lists which per-layer counts repeat
exactly across them and which move with timing: the learned partition,
remote placement, or a repeat racing its original. Only counts that repeat
can back a count-based claim. Exits 1 when a spread is not under its line.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
COUNT_RUNS = 2
FIRST_SEED = 100


def line(name, bound):
    """The spread a metric must stay under to count as steady."""
    return bound if name == "setup_s" else bound / 3


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(p.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result["metrics"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    steady = True
    for wl in (w["name"] for w in bench["workloads"]):
        rows = {}
        values = {name: [] for name in bounds}
        for i in range(RUNS):
            metrics = run(wl, FIRST_SEED + i, seconds, 0)
            for name in bounds:
                values[name].append(metrics[name]["value"])
        print(f"\n{wl}: {RUNS} seeds from {FIRST_SEED}")
        print(f"  {'metric':<22}{'median':>14}{'spread':>9}{'line':>9}")
        for name, vals in values.items():
            med, sp = spread(vals)
            ok = sp < line(name, bounds[name])
            steady &= ok
            rows[name] = {"median": med, "spread": sp, "values": vals,
                          "bound": bounds[name], "steady": ok}
            print(f"  {name:<22}{med:>14.6g}{sp:>9.4f}"
                  f"{line(name, bounds[name]):>9.4f}"
                  f"{'' if ok else '  NOT STEADY'}")

        seed = layers["workloads"][wl]["default_seed"]
        traced = [run(wl, seed, seconds, 1) for _ in range(COUNT_RUNS)]
        repeat, move = [], []
        for name, m in traced[0].items():
            if m["unit"] != "count":
                continue
            same = all(t[name]["value"] == m["value"] for t in traced[1:])
            (repeat if same else move).append(name)
        print(f"  counts repeating exactly over {COUNT_RUNS} traced runs "
              f"(seed {seed}): {', '.join(repeat) or '-'}")
        print(f"  counts moving with timing: {', '.join(move) or '-'}")
        report[wl] = {"end_to_end": rows, "counts_repeat": repeat,
                      "counts_move": move,
                      "traced": [{k: v["value"] for k, v in t.items()}
                                 for t in traced]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
