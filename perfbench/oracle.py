"""Correctness oracle for k-mismatch read mapping, written apart from ``repro``.

Candidates come from the pigeonhole principle: split a pattern of length
``m`` into ``k + 1`` disjoint blocks; a window within Hamming distance
``k`` agrees exactly with at least one block, so every occurrence of
every block (found with ``str.find``) names a candidate start.  Each
candidate is confirmed by a direct Hamming count.  Nothing here imports
``repro``: the reverse complement has its own table.
"""

from __future__ import annotations

from typing import List, Set, Tuple

#: One hit: (start, mismatch offsets within the searched pattern, strand).
Hit = Tuple[int, Tuple[int, ...], str]

_COMPLEMENT = str.maketrans("acgtnACGTN", "tgcanTGCAN")


def reverse_complement(seq: str) -> str:
    return seq.translate(_COMPLEMENT)[::-1]


def block_bounds(m: int, k: int) -> List[Tuple[int, int]]:
    """``k + 1`` disjoint, non-empty ``[lo, hi)`` blocks covering ``[0, m)``.

    Requires ``m > k``; blocks differ in length by at most one.
    """
    parts = k + 1
    return [(i * m // parts, (i + 1) * m // parts) for i in range(parts)]


def candidate_starts(text: str, pattern: str, k: int) -> Set[int]:
    """Every start whose window could lie within distance ``k``."""
    n, m = len(text), len(pattern)
    if m > n:
        return set()
    if k >= m:
        # Every block would be empty: each window is within distance k.
        return set(range(n - m + 1))
    starts: Set[int] = set()
    for lo, hi in block_bounds(m, k):
        block = pattern[lo:hi]
        at = text.find(block)
        while at != -1:
            start = at - lo
            if 0 <= start <= n - m:
                starts.add(start)
            at = text.find(block, at + 1)
    return starts


def mismatches_within(text: str, start: int, pattern: str, k: int):
    """Mismatch offsets of ``pattern`` at ``start``, or None beyond ``k``."""
    offsets = []
    for i, ch in enumerate(pattern):
        if text[start + i] != ch:
            offsets.append(i)
            if len(offsets) > k:
                return None
    return tuple(offsets)


def occurrences(text: str, pattern: str, k: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """Sorted (start, mismatch offsets) of every window within distance ``k``."""
    found = []
    for start in sorted(candidate_starts(text, pattern, k)):
        offsets = mismatches_within(text, start, pattern, k)
        if offsets is not None:
            found.append((start, offsets))
    return found


def map_read(text: str, read: str, k: int) -> List[Hit]:
    """Hits of ``read`` (``'+'``) and its reverse complement (``'-'``), sorted."""
    hits = [(start, mm, "+") for start, mm in occurrences(text, read, k)]
    hits += [(start, mm, "-") for start, mm in occurrences(text, reverse_complement(read), k)]
    return sorted(hits)
