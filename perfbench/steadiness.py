#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
reports each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median), next to the
bound BENCHMARK.json gives it.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--trace 0] [--out FILE]

Run from the repository root. With --out, the table is also written to
FILE as Markdown.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} was not correct:\n{proc.stderr[-3000:]}")
    host = next((json.loads(l.split(" host ", 1)[1].split("} ", 1)[0] + "}")
                 for l in proc.stderr.splitlines() if l.startswith("perfbench: host ")), {})
    return result, wall, host


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    rows = []
    for w in (w["name"] for w in bench["workloads"]):
        values, walls = {}, []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, wall, host = run_once(w, seed, bench["run_seconds"], args.trace)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                     if k in ("qps", "p50_ms", "p99_ms", "insert_p50_ms", "remove_p50_ms")}
            print(f"{w} seed {seed}: {wall:.1f} s, calibration ms "
                  f"{host.get('calibration_ms_before')} / {host.get('calibration_ms_after')}, "
                  f"steal {host.get('steal_ticks')}, {shown}", file=sys.stderr, flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            rows.append((w, name, len(vs), med, q1, q3, spread, bound))
        rows.append((w, "(wall s per run)", len(walls), statistics.median(walls),
                     min(walls), max(walls), None, None))

    header = "| workload | metric | runs | median | Q1 | Q3 | spread | bound | spread/bound |"
    lines = [header, "|---|---|---|---|---|---|---|---|---|"]
    for w, name, n, med, q1, q3, spread, bound in rows:
        ratio = f"{spread / bound:.2f}" if spread is not None and bound else ""
        lines.append(
            f"| {w} | {name} | {n} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
            f"{'' if spread is None else f'{spread:.4f}'} | {'' if bound is None else bound} | {ratio} |")
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")


if __name__ == "__main__":
    main()
