#!/usr/bin/env python3
"""Steadiness report: run workloads N times each with different seeds and
print each end-to-end metric's median, quartiles and spread.

The spread is (q3 - q1) / median, with the quartiles Python's
statistics.quantiles(values, n=4) gives. A metric whose spread exceeds its
bound in BENCHMARK.json is flagged UNSTEADY; one above a third of its bound
is flagged noisy. Every run lasts run_seconds from BENCHMARK.json.

With --sets 2 or more, the same seeds run again as a later set, after every
workload's earlier set, and each metric's median in a later set is compared
with the first set's: a gap larger than the metric's bound, either way, is
flagged DRIFT.

Run from the repository root:

    python3 perfbench/steady.py --workload serve-mix --runs 5
    python3 perfbench/steady.py --workload gc-heavy mutator-heavy serve-mix \\
        --runs 10 --first-seed 301 --sets 2

The exit code is 1 if any metric is UNSTEADY or DRIFTs or any op failed.
A workload that stays UNSTEADY after more work per run is a candidate to
drop; say so next to the workload in perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
    print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} {vals}", flush=True)
    return res


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = range(args.first_seed, args.first_seed + args.runs)

    # runs[workload][set] is that set's list of results, in seed order.
    runs = {w: [] for w in args.workload}
    for _ in range(args.sets):
        for w in args.workload:
            runs[w].append([run_once(root, spec, w, s) for s in seeds])

    bad = False
    for w, sets in runs.items():
        print(f"\n{w}: {args.sets} set(s) of {args.runs} runs of {spec['run_seconds']}s, "
              f"seeds {seeds.start}-{seeds.stop - 1}")
        print(f"{'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'gap':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for i, res in enumerate(sets):
                q1, q2, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in res], n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                flags = []
                if spread > bound:
                    flags.append("UNSTEADY")
                elif spread > bound / 3:
                    flags.append("noisy")
                gap = ""
                if first is None:
                    first = q2
                else:
                    g = (q2 - first) / first if first else float("inf")
                    gap = f"{g:+.2%}"
                    if abs(g) > bound:
                        flags.append("DRIFT")
                bad = bad or "UNSTEADY" in flags or "DRIFT" in flags
                print(f"{name:<16} {i + 1:>3} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.2%} {gap:>8} {bound:>6.0%} {' '.join(flags)}")
        failed = sum(r["failed"] for res in sets for r in res)
        attempted = sum(r["attempted"] for res in sets for r in res)
        print(f"errors: {failed} failed of {attempted} attempted")
        bad = bad or failed > 0
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
