"""Host normalisation: a reference kernel timed between operations.

The benchmark host's speed drifts by tens of percent from one second to
the next (other tenants contend for its caches and cores), which swamps
the effects a change makes.  A
fixed pure-Python kernel runs between operations in the benchmark's own
process; each operation's time is rescaled by ``nominal / local``, where
``local`` is the mean of the probes just before and just after it and
``nominal`` is :data:`NOMINAL_PROBE_S`, the probe's time on the
reference host.  The kernel imports nothing from ``repro`` and
allocates next to nothing, so it reads the host's speed and not the
program's.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, List, Tuple

#: Loop iterations in one timing of the reference kernel.
KERNEL_ITERS = 1_000

#: Timings per probe; the probe reports their median, so one preempted
#: timing does not rescale the operations on either side of it.
TIMINGS_PER_PROBE = 3

#: The probe's time on the reference host when it is quiet (2-vCPU Xeon
#: at 2.0 GHz, Python 3.11).  Fixed once: changing it rescales every number.
NOMINAL_PROBE_S = 0.000450

# The kernel mixes what the program's hot loops do: integer arithmetic, a
# method call on a slotted object, reads of a 1 MiB buffer and a 16 Ki-entry
# dict at pseudo-random places.  The host's slow spells come from cache and
# core contention as much as from lost CPU time, and an arithmetic-only
# kernel corrects only part of them.  The tables are built once, at
# import; a probe allocates nothing.
_BUFFER = bytes(range(256)) * 4096
_BUFFER_MASK = len(_BUFFER) - 1
_TABLE = {i * 7919: i & 255 for i in range(1 << 14)}
_TABLE_MASK = (1 << 14) - 1
_WEIGHTS = (3, 1, 4, 1, 5, 9, 2, 6)


class _Step:
    __slots__ = ("add", "flip")

    def __init__(self):
        self.add = 1
        self.flip = 2

    def step(self, value: int) -> int:
        return (value + self.add) ^ self.flip


_STEP = _Step()


def reference_kernel(iters: int = KERNEL_ITERS) -> int:
    """A fixed loop over the interpreter's work mix; returns a checksum."""
    buffer, table, weights, step = _BUFFER, _TABLE, _WEIGHTS, _STEP.step
    x = 12345
    acc = 0
    for i in range(iters):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc = (step(acc) + buffer[x & _BUFFER_MASK]
               + table.get((x & _TABLE_MASK) * 7919, 0) + weights[i & 7]) % 65521
    return acc


def probe() -> float:
    """Seconds one reference-kernel run takes now (median of a few)."""
    times = []
    for _ in range(TIMINGS_PER_PROBE):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def normalise(raw_s: float, before_s: float, after_s: float,
              nominal_s: float = NOMINAL_PROBE_S) -> float:
    """``raw_s`` rescaled to the reference host: ``raw * nominal / local``."""
    if before_s <= 0 or after_s <= 0:
        raise ValueError("probe times must be positive")
    return raw_s * nominal_s / ((before_s + after_s) / 2.0)


class Normaliser:
    """Times operations between reference probes.

    One probe separates consecutive operations and serves as the
    *after* probe of one and the *before* probe of the next, so the
    probe cost is paid once per operation.  Probe time is never part of
    an operation's time.
    """

    def __init__(self, nominal_s: float = NOMINAL_PROBE_S):
        self.nominal_s = nominal_s
        self.probes: List[float] = [probe()]

    def timed(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """Run ``fn(*args)``; return (result, raw seconds, normalised seconds)."""
        before = self.probes[-1]
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        after = probe()
        self.probes.append(after)
        return result, raw, normalise(raw, before, after, self.nominal_s)

    def factor(self) -> float:
        """``nominal / local`` of the operation :meth:`timed` last ran."""
        return self.nominal_s / ((self.probes[-2] + self.probes[-1]) / 2.0)

    def median_probe_s(self) -> float:
        ordered = sorted(self.probes)
        return ordered[len(ordered) // 2]
