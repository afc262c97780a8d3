"""A/A check: two sets of runs of one commit, compared metric by metric.

Usage, from the repository root::

    python3 perfbench/aa.py --runs 10                 # every workload, two sets
    python3 perfbench/aa.py --runs 5 --workloads map-100bp-k4
    python3 perfbench/aa.py --runs 3 --overhead       # traced vs untraced reads/s

Each run gets its own seed; set ``s`` uses seeds ``first + s*runs ..``.
For every workload and end-to-end metric the command prints each set's
median and quartile spread (``(Q3 - Q1) / median``, quartiles as
``statistics.quantiles(values, n=4)`` gives them), how much worse the
second median is than the first, and the bound from ``BENCHMARK.json``.
A metric passes when both spreads are within its bound and the two
medians differ by at most the bound, in either direction.  ``--overhead`` instead runs each seed
untraced and traced and prints the drop in ``reads_per_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """One benchmark run; its final JSON plus the ``#`` line's metrics."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["all"] = json.loads(lines[-2][2:])["all"]
    return result


def spread(values: List[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    if args.overhead:
        print(f"{'workload':<20} {'untraced':>10} {'traced':>10} {'overhead':>9}  reads_per_s")
        for workload in workloads:
            plain, traced = [], []
            for i in range(args.runs):
                seed = args.first_seed + i
                plain.append(run_once(workload, seed, args.seconds, 0)["all"]["reads_per_s"])
                traced.append(run_once(workload, seed, args.seconds, 1)["all"]["reads_per_s"])
            a, b = median(plain), median(traced)
            print(f"{workload:<20} {a:>10.2f} {b:>10.2f} {(a - b) / a:>8.1%}", flush=True)
        return 0

    results = {}
    for s in range(2):
        for workload in workloads:
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                result = run_once(workload, seed, args.seconds, 0)
                results.setdefault((s, workload), []).append(result)
                figures = " ".join(f"{k}={v:.4g}" for k, v in sorted(result["all"].items()))
                print(f"# set {s + 1} {workload} seed {seed}: {figures}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':<18} {'metric':<16} {'median 1':>10} {'spread 1':>9} "
          f"{'median 2':>10} {'spread 2':>9} {'worse':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for s in range(2):
            runs = results[(s, workload)]
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            print(f"{workload:<18} set {s + 1}: failed shares {sorted(shares)}, "
                  f"all correct: {correct}")
            ok &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in results[(s, workload)]]
                    for s in range(2)]
            cells = " ".join(f"{median(v):>10.4g} {spread(v):>8.1%}" for v in sets)
            worse = worse_by(median(sets[0]), median(sets[1]), metric["better"])
            agree = abs(worse) <= bound
            steady = all(spread(v) <= bound for v in sets)
            ok &= agree and steady
            verdict = ("ok" if agree and steady
                       else "MEDIANS DISAGREE" if not agree else "SPREAD OVER BOUND")
            print(f"{workload:<18} {name:<16} {cells} {worse:>7.1%} {bound:>6.0%}  {verdict}",
                  flush=True)
        for name in ("raw_reads_per_s", "host.ref_ms"):  # before normalisation; no verdict
            sets = [[r["all"][name] for r in results[(s, workload)]] for s in range(2)]
            cells = " ".join(f"{median(v):>10.4g} {spread(v):>8.1%}" for v in sets)
            print(f"{workload:<18} {name:<16} {cells}", flush=True)
    print("A/A:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
