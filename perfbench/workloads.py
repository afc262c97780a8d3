"""The benchmark's workloads: closed loops, one client, fixed operation counts.

Every workload maps simulated reads against the 120 kbp Rat stand-in
through the public facades (``KMismatchIndex``, ``ShardedIndex``) with
the facade's default method.  A run serves a fixed number of operations
(sized from ``--seconds``), not a fixed duration, because Algorithm A's
cross-query memo makes a read's cost depend on the reads before it.
Outputs are checked against :mod:`perfbench.oracle` after the timed
loop; probe and check time are never part of an operation's time.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import resource
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import Dict, List, Optional, Tuple

from . import oracle
from .hostnorm import Normaliser
from .spans import Tracer, layer_metrics

#: Target length: the Rat (Rnor_6.0) catalog genome capped at 120 kbp.
GENOME_BP = 120_000

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Fewest served operations in a run, so a tail percentile exists.
MIN_OPS = 40

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass(frozen=True)
class Workload:
    name: str
    read_length: int
    k: int
    #: Operations served per second of ``--seconds`` on the reference host.
    ops_per_second: float
    #: Reads per operation; 1 maps one read with ``map_read``, more maps a
    #: batch with ``map_reads``.
    batch: int = 1
    telemetry: bool = False
    shards: int = 0
    workers: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("map-100bp-k4", read_length=100, k=4, ops_per_second=45.0),
        Workload("telemetry-30bp-k1", read_length=30, k=1, ops_per_second=250.0,
                 telemetry=True),
        Workload("shard-batch", read_length=100, k=2, ops_per_second=10.0, batch=8,
                 shards=4, workers=2),
    )
}


def n_ops(workload: Workload, seconds: int) -> int:
    """Operations a run serves: a fixed count for a given ``--seconds``."""
    return max(MIN_OPS, round(workload.ops_per_second * seconds))


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten operations beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    raise ValueError(f"{n} operations leave no tail percentile")


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def class_quotas(workload: Workload, size: int) -> List[int]:
    """Reads of each substitution class (0, 1, .., k, more than k) in a block.

    Shares follow the simulator's model: each base is substituted with
    probability ``mutation_rate + (1 - mutation_rate) * error_rate``,
    so a read's substitution count is binomial.  Counts are rounded by
    largest remainder to sum to ``size``.
    """
    from repro.simulate import ReadConfig

    config = ReadConfig(n_reads=0, length=workload.read_length)
    p = config.mutation_rate + (1 - config.mutation_rate) * config.error_rate
    m, k = workload.read_length, workload.k
    shares = [math.comb(m, j) * p ** j * (1 - p) ** (m - j) for j in range(k + 1)]
    shares.append(1.0 - sum(shares))
    exact = [share * size for share in shares]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda j: quotas[j] - exact[j])
    for j in by_remainder[:size - sum(quotas)]:
        quotas[j] += 1
    return quotas


def draw_reads(genome: str, workload: Workload, seed: int, sizes: List[int]):
    """Blocks of simulated reads, each with the model's mix of substitution counts.

    A read's cost depends mostly on how many substitutions it carries (an
    exact 100 bp read costs about ten times a read with three), so a run
    that drew whatever the seed gave would vary with that mix more than
    with any change to the program.  Reads are drawn from
    ``repro.simulate`` with ``seed``, bucketed by substitution count, and
    each block takes :func:`class_quotas` reads from each bucket, in the
    order they were simulated.
    """
    from repro.simulate import ReadConfig, simulate_reads

    need = sum(sizes)
    buckets: List[List[object]] = [[] for _ in range(workload.k + 2)]
    pool = simulate_reads(genome, ReadConfig(
        n_reads=4 * need + 100, length=workload.read_length, seed=seed))
    for order, sim in enumerate(pool):
        buckets[min(sim.n_mutations, workload.k + 1)].append((order, sim))
    taken = [0] * len(buckets)
    blocks = []
    for size in sizes:
        block = []
        for j, quota in enumerate(class_quotas(workload, size)):
            if taken[j] + quota > len(buckets[j]):
                raise RuntimeError(f"seed {seed}: too few reads with {j} substitutions")
            block += buckets[j][taken[j]:taken[j] + quota]
            taken[j] += quota
        blocks.append([sim for _, sim in sorted(block, key=lambda item: item[0])])
    return blocks


def _attempt(fn, *args, **kwargs):
    """(result, None) or (None, exception): a raised operation is a failed one."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # every exception the program raises is a failure
        return None, exc


def _hits(result) -> List[oracle.Hit]:
    return sorted((h.occurrence.start, tuple(h.occurrence.mismatches), h.strand)
                  for h in result)


class _Run:
    """State of one run: inputs, timings, outputs and the tracer."""

    def __init__(self, workload: Workload, seed: int, seconds: int,
                 tracer: Optional[Tracer], scratch: str):
        from repro.simulate import GENOME_CATALOG, build_catalog_genome

        self.w = workload
        self.tracer = tracer
        self.scratch = scratch
        self.genome = build_catalog_genome(GENOME_CATALOG[0], max_length=GENOME_BP)
        self.n_ops = n_ops(workload, seconds)
        # Operation i serves the reads of block i; the first SETUP_REPS
        # operations are each set-up repetition's first answered one.
        if workload.batch == 1:
            blocks = draw_reads(self.genome, workload, seed, [SETUP_REPS, self.n_ops])
            self.ops = [[read] for block in blocks for read in block]
        else:
            self.ops = draw_reads(self.genome, workload, seed,
                                  [workload.batch] * (SETUP_REPS + self.n_ops))
        self.norm = Normaliser()
        self.outputs: List[Tuple[object, Optional[BaseException]]] = []
        self.times: List[float] = []
        #: Served operations' wall-clock seconds, before normalisation.
        self.raw_times: List[float] = []
        self.peak_rss_mb = 0.0
        self.setup_times: List[float] = []
        self.setup_ops: List[List[int]] = []
        self._op = 0

    def timed(self, fn, *args, **kwargs):
        """One timed operation; returns (result, exception, normalised s, raw s)."""
        if self.tracer is not None:
            self.tracer.begin(self._op)
        (result, exc), raw, seconds = self.norm.timed(partial(_attempt, fn, *args, **kwargs))
        if self.tracer is not None:
            self.tracer.end(self.norm.factor())
        self._op += 1
        return result, exc, seconds, raw

    def serve(self, op: int, fn) -> Tuple[float, float]:
        """Serve operation ``op`` (its reads) through ``fn``; record its output.

        Returns its normalised and raw seconds.
        """
        reads = [r.sequence for r in self.ops[op]]
        arg = reads[0] if self.w.batch == 1 else reads
        result, exc, seconds, raw = self.timed(fn, arg)
        self.outputs.append((result, exc))
        return seconds, raw


def _map_fn(w: Workload, index):
    if w.batch == 1:
        return partial(index.map_read, k=w.k)
    return partial(index.map_reads, k=w.k, workers=w.workers, mode="process")


def _setup_single(run: _Run, rep: int):
    """Build an index (telemetry as ``--wide-events`` sets it up, if asked)."""
    from repro import OBS, KMismatchIndex

    def build():
        if run.w.telemetry:
            OBS.reset().enable()
            OBS.open_wide_log(os.path.join(run.scratch, f"wide-{rep}.jsonl"))
        return KMismatchIndex(run.genome)

    return run.timed(build)


def _setup_sharded(run: _Run, rep: int):
    """Build shards in parallel, save them, and reopen the saved index."""
    from repro import KMismatchIndex, ShardedIndex

    path = os.path.join(run.scratch, f"rep{rep}", "target.shd")
    os.makedirs(os.path.dirname(path))

    def build():
        built = ShardedIndex.build(run.genome, run.w.shards, build_workers=run.w.workers)
        built.save(path)
        return KMismatchIndex.open(path)

    return run.timed(build)


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool,
                 root: str) -> Dict[str, object]:
    """Run one workload; return counts, metrics and the tail percentile."""
    from repro import OBS

    tracer = Tracer() if trace else None
    restore = None
    os.makedirs(root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=root)
    try:
        run = _Run(workload, seed, seconds, tracer, scratch)
        if tracer is not None:
            from .spans import instrument

            restore = instrument(tracer)
        setup = _setup_sharded if workload.shards else _setup_single
        for rep in range(SETUP_REPS):
            first = run._op
            index = None  # never hold two indexes at once
            index, exc, build_s, _ = setup(run, rep)
            if exc is not None:
                raise RuntimeError(f"set-up failed: {exc!r}") from exc
            if tracer is not None and workload.shards:
                tracer.shard_specs = {
                    id(shard): spec
                    for spec, shard in zip(index.manifest.shards, index.shards)
                }
            first_s, _ = run.serve(rep, _map_fn(workload, index))
            run.setup_times.append(build_s + first_s)
            run.setup_ops.append(list(range(first, run._op)))
        serve_first = run._op
        fn = _map_fn(workload, index)
        for op in range(SETUP_REPS, SETUP_REPS + run.n_ops):
            seconds, raw = run.serve(op, fn)
            run.times.append(seconds)
            run.raw_times.append(raw)
        serve_ops = list(range(serve_first, run._op))
        # The program's high-water mark, before the checks allocate.
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload.telemetry:
            OBS.close_wide_log()
            OBS.disable()
        if restore is not None:
            restore()
            restore = None
        failed, wide_bytes = _check(run)
        result = _metrics(run, failed)
        if tracer is not None:
            batches = run.n_ops if workload.batch > 1 else 0
            reads = run.n_ops * workload.batch
            layers = layer_metrics(tracer, run.setup_ops, serve_ops, reads, batches)
            layers["obs.wide_bytes_per_read"] = wide_bytes / reads
            layers["host.ref_ms"] = run.norm.median_probe_s() * 1e3
            result["metrics"].update(layers)
        return result
    finally:
        if restore is not None:
            restore()
        OBS.close_wide_log()
        OBS.disable()
        shutil.rmtree(scratch, ignore_errors=True)


def _metrics(run: _Run, failed: int) -> Dict[str, object]:
    w = run.w
    tail = tail_percentile(len(run.times))
    return {
        "attempted": len(run.outputs),
        "failed": failed,
        "tail_percentile": tail,
        "metrics": {
            "reads_per_s": run.n_ops * w.batch / sum(run.times),
            "latency_p50_ms": median(run.times) * 1e3,
            "latency_tail_ms": percentile(run.times, tail) * 1e3,
            "setup_s": median(run.setup_times),
            "peak_rss_mb": run.peak_rss_mb,
            "host.ref_ms": run.norm.median_probe_s() * 1e3,
            "raw_reads_per_s": run.n_ops * w.batch / sum(run.raw_times),
        },
    }


def _check(run: _Run) -> Tuple[int, int]:
    """Failed operations, and wide-log bytes written while serving.

    A read fails when it raised, when its hits (start, mismatch offsets,
    strand) differ from the oracle's, or when it was simulated with at
    most k substitutions and no hit sits at its true origin.  With
    telemetry on, an operation also fails unless the wide-event log holds
    exactly one ``query`` event per search, matching engine, k, m and
    occurrence count.  An operation fails when any of its reads fails.
    """
    w = run.w
    failed_ops = set()
    for op, (result, exc) in enumerate(run.outputs):
        per_read = [result] if w.batch == 1 else result
        if exc is not None or per_read is None or len(per_read) != len(run.ops[op]):
            failed_ops.add(op)
            continue
        for sim, hits in zip(run.ops[op], per_read):
            got = _hits(hits)
            if got != oracle.map_read(run.genome, sim.sequence, w.k):
                failed_ops.add(op)
            elif sim.n_mutations <= w.k:
                origin = (sim.position, "-" if sim.reverse_strand else "+")
                if origin not in {(start, strand) for start, _, strand in got}:
                    failed_ops.add(op)
    wide_bytes = 0
    if w.telemetry:
        wide_bytes = _check_wide_logs(run, failed_ops)
    return len(failed_ops), wide_bytes


def _check_wide_logs(run: _Run, failed_ops: set) -> int:
    """Match each repetition's wide-event log to the operations it served."""
    from repro import REGISTRY, KMismatchIndex

    method = inspect.signature(KMismatchIndex.map_read).parameters["method"].default
    engine = REGISTRY.canonical_name(method)
    w = run.w
    serve_bytes = 0
    for rep in range(SETUP_REPS):
        # Repetition rep's log holds its first operation; the last
        # repetition's log also holds every served operation.
        ops = [rep] + (list(range(SETUP_REPS, len(run.outputs)))
                       if rep == SETUP_REPS - 1 else [])
        path = os.path.join(run.scratch, f"wide-{rep}.jsonl")
        with open(path) as handle:
            lines = handle.read().splitlines()
        events = [(json.loads(line), len(line) + 1) for line in lines]
        queries = [(e, size) for e, size in events if e.get("event") == "query"]
        if len(queries) != 2 * len(ops):
            failed_ops.update(ops)
            continue
        for j, op in enumerate(ops):
            result, exc = run.outputs[op]
            if exc is not None:
                continue  # already failed
            m = len(run.ops[op][0].sequence)
            for strand, (event, size) in zip("+-", queries[2 * j:2 * j + 2]):
                expected = (engine, w.k, m, sum(1 for h in result if h.strand == strand))
                got = (event.get("engine"), event.get("k"), event.get("m"),
                       event.get("occurrences"))
                if got != expected:
                    failed_ops.add(op)
                if op >= SETUP_REPS:
                    serve_bytes += size
    return serve_bytes
