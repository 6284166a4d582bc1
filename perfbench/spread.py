#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the BENCHMARK.json command once per seed on each workload and prints,
per workload and metric, the median of the runs and their spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound. A set is steady when
every spread, setup_s included, is below a third of its bound.

With --sets 2 it runs two sets of seeds interleaved (run i of one set next
to run i of the other, alternating which goes first), so both sets see the
same host conditions, and prints both ways how much worse one set's median
is than the other's, as a share of the other's. The sets agree when neither
is worse than the other by more than the bound. Run it from the repository
root:

    python3 perfbench/spread.py --runs 10 --seed0 100
    python3 perfbench/spread.py --runs 10 --sets 2 --json out.json
    python3 perfbench/spread.py --runs 5 --workload shards

Run i of set k uses seed seed0 + 1000*k + i. The cores column is
cpu_s / wall_s, the cores a workload keeps busy.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def worse(a, b, better):
    """How much worse median b is than median a, as a share of a."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2), help="interleaved sets of runs")
    ap.add_argument("--seed0", type=int, default=100, help="seed of the first run of set 1")
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("--json", help="also write every run's result to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    # results[w][k] lists set k's runs of workload w.
    results = {w: [[] for _ in range(args.sets)] for w in names}
    for i in range(args.runs):
        for w in names:
            order = list(range(args.sets))
            if i % 2:
                order.reverse()
            for k in order:
                seed = args.seed0 + 1000 * k + i
                r = run_once(bench, w, seed)
                if not r["correct"]:
                    sys.exit(f"{w} seed {seed}: incorrect result: {r}")
                results[w][k].append(r)
                print(f"  {w} set {k + 1} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.6g}" for n, v in sorted(r["metrics"].items())),
                    file=sys.stderr, flush=True)

    worst_spread = 0.0
    print("| workload | set | metric | median | spread | bound | spread/bound | cores |")
    print("|---|---|---|---|---|---|---|---|")
    for w in names:
        for k, runs in enumerate(results[w]):
            cores = statistics.median(r["metrics"]["cpu_s"]["value"] / r["metrics"]["wall_s"]["value"] for r in runs)
            for m in metrics:
                med, s = spread([r["metrics"][m["name"]]["value"] for r in runs])
                worst_spread = max(worst_spread, s / m["bound"])
                print(f"| {w} | {k + 1} | {m['name']} | {med:.6g} | {s:.4f} | {m['bound']} | {s / m['bound']:.3f} | {cores:.2f} |")
    print(f"\nlargest spread/bound: {worst_spread:.3f} (steady below 0.333)")
    if args.sets == 2:
        worst_shift = -1.0
        print("\n| workload | metric | set 2 worse than set 1 | set 1 worse than set 2 | bound |")
        print("|---|---|---|---|---|")
        for w in names:
            for m in metrics:
                a, b = (statistics.median(r["metrics"][m["name"]]["value"] for r in runs) for runs in results[w])
                ab, ba = worse(a, b, m["better"]), worse(b, a, m["better"])
                worst_shift = max(worst_shift, ab / m["bound"], ba / m["bound"])
                print(f"| {w} | {m['name']} | {ab:+.4f} | {ba:+.4f} | {m['bound']} |")
        print(f"\nlargest median shift/bound, either way: {worst_shift:.3f} (sets agree below 1)")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
