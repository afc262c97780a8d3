"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload map-100bp-k4 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the program's layers in spans and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a ``#`` line before it holds every number the run computed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def stop_children() -> None:
    """Wait for every process the run started, the resource tracker too.

    ``multiprocessing.shared_memory`` starts a resource-tracker process
    that would otherwise end only after this interpreter has exited, and
    so outlive the run.  Closing its pipe stops it; waiting reaps it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, run_workload

    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), os.path.join(ROOT, ".perfbench-tmp"))
    finally:
        stop_children()
    computed = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 3
    print("# " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tail_percentile": result["tail_percentile"], "all": computed,
    }, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
