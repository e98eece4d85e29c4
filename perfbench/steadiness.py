#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs the benchmark command from BENCHMARK.json on every workload for a
list of seeds, in one or more sets of runs interleaved in time (set A
seed 1, set B seed 1, set A seed 2, ...), and reports per set, workload
and metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, plus each metric's drift between the
first and second set's medians, as a share of the first.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 --out perfbench/STEADINESS.json
    python3 perfbench/steadiness.py --workloads serve-recognize --seeds 1-5 --sets 1
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]).get("info", {}), wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", default="")
    a = ap.parse_args()

    bench = json.load(open(a.bench))
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = parse_seeds(a.seeds)

    runs = {s: {w: {m: [] for m in metrics} for w in workloads} for s in range(a.sets)}
    walls = {w: [] for w in workloads}
    for seed in seeds:
        order = list(range(a.sets))
        if seed % 2 == 0:
            order.reverse()
        for s in order:
            for w in workloads:
                res, info, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
                walls[w].append(wall)
                if not res["correct"] or res["failed"]:
                    raise SystemExit(f"{w} seed {seed}: incorrect run: {info}")
                for m in metrics:
                    runs[s][w][m].append(res["metrics"][m]["value"])
                print(f"set {s} seed {seed} {w} wall {wall:.1f}s", file=sys.stderr, flush=True)

    report = {"seeds": seeds, "sets": a.sets, "run_wall_s": {w: statistics.median(v) for w, v in walls.items()}, "workloads": {}}
    worst = 0.0
    for w in workloads:
        report["workloads"][w] = {}
        for m in metrics:
            sets = [summarize(runs[s][w][m]) for s in range(a.sets)]
            entry = {"bound": bounds[m], "sets": sets}
            line = f"{w:16s} {m:16s} bound {bounds[m]:.2f}"
            for st in sets:
                line += f"  median {st['median']:.6g} spread {st['spread']:.3f}"
                if m != "setup_s":
                    worst = max(worst, st["spread"] / bounds[m])
            if a.sets > 1:
                d = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
                entry["drift"] = d
                entry["worse_by"] = d if better[m] == "lower" else -d
                line += f"  drift {d:+.3f}"
            report["workloads"][w][m] = entry
            print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
