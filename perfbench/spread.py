#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload stream_fanout --seeds 1-10 [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartile as a share of the median, next to
the metric's `bound` in BENCHMARK.json: "ok" when the spread is below a
third of the bound, "within bound" when below the bound, else "OVER".
Two batches of the same code compare with --compare FILE, which reads
the medians printed by an earlier batch (its standard output) and flags
every metric whose median got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--compare")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    before = {}
    if args.compare:
        for line in open(args.compare):
            parts = line.split()
            if len(parts) > 2 and parts[1] == "median":
                before[parts[0]] = float(parts[2])
    values = {}
    incorrect = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            sys.exit(f"seed {seed}: no result (exit {out.returncode})\n{out.stderr[-2000:]}")
        if not result["correct"]:
            error = [l for l in out.stderr.splitlines() if "check failed" in l]
            print(f"seed {seed}: INCORRECT {error[-1] if error else out.stderr[-500:]}", flush=True)
            incorrect.append(seed)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    if incorrect:
        print(f"incorrect runs: {len(incorrect)} of {len(incorrect) + len(next(iter(values.values()), []))}"
              f" (seeds {incorrect}); spreads below cover the correct runs")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
        if bound is not None and name in before:
            worse = (med - before[name]) / before[name]
            if better[name] == "higher":
                worse = -worse
            flag += f"; vs earlier batch {worse:+.4f} " + ("ok" if worse <= bound else "WORSE")
        print(f"{name:32} median {med:<12.6g} spread {spread:7.4f} "
              f"bound {bound if bound is not None else '-':<5} {flag}")


if __name__ == "__main__":
    main()
