"""Tracing from outside the program: spans and counts around ``repro`` calls.

:func:`instrument` replaces public functions and methods of ``repro``
with wrappers that record a span (name, start, end, parent, operation
id) or bump a count, and returns a function that puts the originals
back.  Hot calls (``FMIndex.extend``, ``FMIndex.children``) are only
counted.  Spans stay in memory; :func:`layer_metrics` turns them into
the per-layer numbers when the run ends.  The program itself is not
changed, so the untraced run executes exactly the code users run.
"""

from __future__ import annotations

import multiprocessing.process
from collections import Counter
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List

# SearchStats fields summed per read into the ``core.*``/``mismatch.*`` metrics.
STATS_FIELDS = (
    "rank_queries", "nodes_expanded", "leaves", "completed_paths",
    "reuse_hits", "shared_reuse_hits", "derivation_jumps", "chars_replayed",
)

# Span record layout.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory spans and per-operation counts of one benchmark run."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = -1
        #: Counts and summed values of each operation, by name.
        self.counts: Dict[int, Counter] = {}
        self.current: Counter = Counter()
        #: ``nominal / local`` of each operation, for normalising its spans.
        self.factors: Dict[int, float] = {}
        #: id(shard index) -> its ShardSpec, to judge a pass's ownership.
        self.shard_specs: Dict[int, object] = {}

    def begin(self, op: int) -> None:
        self.op = op
        self.current = self.counts.setdefault(op, Counter())

    def end(self, factor: float) -> None:
        self.factors[self.op] = factor

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span per call."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to bump a count per call (no span)."""

        def wrapper(*args, **kwargs):
            self.current[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _patch(undo: list, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(original)``; classmethods stay classmethods."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    undo.append((owner, attr, raw))


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the ``repro`` layers the per-layer metrics read; return an undo."""
    import repro.core.algorithm_a as algorithm_a
    import repro.engine.executor as executor
    import repro.suffix as suffix
    from repro.bwt.fmindex import FMIndex
    from repro.core.matcher import KMismatchIndex
    from repro.obs import Observability
    from repro.shard import QueryRouter, ShardedIndex

    undo: list = []
    span = tracer.span
    for owner, attr, name in (
        (suffix, "suffix_array", "suffix.sa"),
        (FMIndex, "__init__", "bwt.build"),
        (FMIndex, "locate_range", "bwt.locate"),
        # Algorithm A locates each completed row through suffix_position
        # directly; nested locate spans are counted once (outermost).
        (FMIndex, "suffix_position", "bwt.locate"),
        (algorithm_a, "compute_phi", "core.phi"),
        (algorithm_a, "MismatchTables", "mismatch.tables"),
        (algorithm_a.AlgorithmASearcher, "search", "core.search"),
        (algorithm_a, "record_search_metrics", "obs.record"),
        (Observability, "record_query", "obs.record"),
        (Observability, "emit_wide", "obs.record"),
        (executor, "decode_chunk", "engine.decode"),
        (ShardedIndex, "build", "shard.build"),
        (ShardedIndex, "save", "io.save"),
        (KMismatchIndex, "open", "io.open"),
        (QueryRouter, "run_batch", "shard.run_batch"),
    ):
        _patch(undo, owner, attr, lambda fn, name=name: span(name, fn))
    for owner, attr, name in (
        (FMIndex, "extend", "bwt.extend"),
        (FMIndex, "children", "bwt.children"),
        (multiprocessing.process.BaseProcess, "start", "engine.process_starts"),
    ):
        _patch(undo, owner, attr, lambda fn, name=name: tracer.counted(name, fn))

    def with_stats(fn):
        def wrapper(*args, **kwargs):
            hits, stats = fn(*args, **kwargs)
            for field in STATS_FIELDS:
                tracer.current["stats." + field] += getattr(stats, field)
            return hits, stats
        return wrapper

    def to_binary(fn):
        fn = span("io.to_binary", fn)

        def wrapper(*args, **kwargs):
            blob = fn(*args, **kwargs)
            tracer.current["io.to_binary_bytes"] += len(blob)
            return blob
        return wrapper

    def run_map(fn):
        fn = span("engine.run_map", fn)

        def wrapper(self, index, reads, *args, **kwargs):
            batch = fn(self, index, reads, *args, **kwargs)
            spec = tracer.shard_specs.get(id(index))
            if spec is not None:
                tracer.current["shard.passes"] += 1
                if any(spec.owns(hit.occurrence.start + spec.start)
                       for hits in batch.results for hit in hits):
                    tracer.current["shard.useful_passes"] += 1
            return batch
        return wrapper

    _patch(undo, KMismatchIndex, "map_read_with_stats", with_stats)
    _patch(undo, KMismatchIndex, "to_binary", to_binary)
    _patch(undo, executor.BatchExecutor, "run_map", run_map)

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


def layer_metrics(tracer: Tracer, setup_ops: List[List[int]], serve_ops: List[int],
                  reads: int, batches: int) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans and counts.

    ``setup_ops`` holds the operation ids of each set-up repetition;
    set-up layers report the median over repetitions.  Serving layers
    are totals over ``serve_ops`` divided by the reads or batches served.
    Every span is scaled by its operation's normalisation factor.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_time[record[PARENT]] += record[END] - record[START]
    # name -> op -> (total, self) normalised seconds; a span nested in a
    # span of the same name is already inside its parent's total.
    total: Dict[str, Counter] = {}
    own: Dict[str, Counter] = {}
    for i, record in enumerate(spans):
        name, op = record[NAME], record[OP]
        factor = tracer.factors.get(op, 1.0)
        duration = record[END] - record[START]
        own.setdefault(name, Counter())[op] += (duration - child_time[i]) * factor
        parent = record[PARENT]
        if parent < 0 or spans[parent][NAME] != name:
            total.setdefault(name, Counter())[op] += duration * factor

    def setup(name: str, table=total) -> float:
        per_rep = [sum(table.get(name, Counter())[op] for op in ops) for ops in setup_ops]
        return float(median(per_rep)) if per_rep else 0.0

    def served(name: str, table=total) -> float:
        by_op = table.get(name, Counter())
        return sum(by_op[op] for op in serve_ops)

    counts: Counter = Counter()
    for op in serve_ops:
        counts.update(tracer.counts.get(op, Counter()))

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    stats = {field: counts["stats." + field] for field in STATS_FIELDS}
    passes = counts["shard.passes"]
    return {
        "suffix.sa_s": setup("suffix.sa"),
        "bwt.build_s": setup("bwt.build", own),
        "bwt.extend_per_read": per(counts["bwt.extend"], reads),
        "bwt.children_per_read": per(counts["bwt.children"], reads),
        "bwt.locate_ms_per_read": per(served("bwt.locate") * 1e3, reads),
        "core.phi_ms_per_read": per(served("core.phi") * 1e3, reads),
        "core.search_ms_per_read": per(served("core.search", own) * 1e3, reads),
        "core.rank_queries_per_read": per(stats["rank_queries"], reads),
        "core.nodes_expanded_per_read": per(stats["nodes_expanded"], reads),
        "core.leaves_per_read": per(stats["leaves"], reads),
        "core.reuse_hits_per_read": per(stats["reuse_hits"], reads),
        "core.shared_reuse_hits_per_read": per(stats["shared_reuse_hits"], reads),
        "core.useful_path_ratio": per(stats["completed_paths"], stats["leaves"]),
        "mismatch.tables_ms_per_read": per(served("mismatch.tables") * 1e3, reads),
        "mismatch.derivation_jumps_per_read": per(stats["derivation_jumps"], reads),
        "mismatch.chars_replayed_per_read": per(stats["chars_replayed"], reads),
        "engine.batch_ms": per(served("engine.run_map") * 1e3, passes),
        "engine.decode_ms_per_batch": per(served("engine.decode") * 1e3, batches),
        "engine.process_starts_per_batch": per(counts["engine.process_starts"], batches),
        "io.to_binary_ms_per_batch": per(served("io.to_binary") * 1e3, batches),
        "io.to_binary_mb_per_batch": per(counts["io.to_binary_bytes"] / 1e6, batches),
        "io.save_s": setup("io.save"),
        "io.open_ms": setup("io.open") * 1e3,
        "shard.build_s": setup("shard.build"),
        "shard.passes_per_batch": per(passes, batches),
        "shard.useful_pass_ratio": per(counts["shard.useful_passes"], passes),
        "shard.merge_ms_per_batch": per(served("shard.run_batch", own) * 1e3, batches),
        "obs.record_ms_per_read": per(served("obs.record") * 1e3, reads),
    }
