"""Tests of the benchmark's own code: oracle, normaliser, metrics, spec.

Run from the repository root with ``python3 -m pytest perfbench -q``.
None of these import ``repro``.
"""

from __future__ import annotations

import json
import os
import random
import re

import pytest

from perfbench import hostnorm, oracle
from perfbench.spans import Tracer, layer_metrics
from perfbench.workloads import MIN_OPS, WORKLOADS, percentile, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = {"a": "t", "c": "g", "g": "c", "t": "a"}


def brute_force(text, pattern, k):
    m = len(pattern)
    found = []
    for start in range(len(text) - m + 1):
        mm = tuple(i for i in range(m) if text[start + i] != pattern[i])
        if len(mm) <= k:
            found.append((start, mm))
    return found


def brute_map(text, read, k):
    rc = "".join(PAIRS[c] for c in reversed(read))
    return sorted([(s, mm, "+") for s, mm in brute_force(text, read, k)]
                  + [(s, mm, "-") for s, mm in brute_force(text, rc, k)])


def mutate(rng, seq, n):
    seq = list(seq)
    for i in rng.sample(range(len(seq)), min(n, len(seq))):
        seq[i] = rng.choice([b for b in "acgt" if b != seq[i]])
    return "".join(seq)


# -- oracle -------------------------------------------------------------------

@pytest.mark.parametrize("alphabet", ["acgt", "ac"])
def test_oracle_matches_brute_force_on_random_texts(alphabet):
    rng = random.Random(7)
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        m = rng.randint(1, 12)
        k = rng.randint(0, 4)
        pattern = "".join(rng.choice("acgt") for _ in range(m))
        assert oracle.occurrences(text, pattern, k) == brute_force(text, pattern, k)


def test_oracle_finds_reads_at_both_ends_of_the_text():
    rng = random.Random(3)
    for _ in range(100):
        text = "".join(rng.choice("acgt") for _ in range(rng.randint(20, 80)))
        m = rng.randint(5, 20)
        k = rng.randint(0, 3)
        for start in (0, len(text) - m):
            read = mutate(rng, text[start:start + m], k)
            found = oracle.occurrences(text, read, k)
            assert start in {s for s, _ in found}
            assert found == brute_force(text, read, k)


def test_oracle_k_zero_is_exact_matching():
    text = "acagacaacagacagtacagaca"
    exact = [(s, ()) for s in range(len(text)) if text.startswith("acaga", s)]
    assert len(exact) > 1
    assert oracle.occurrences(text, "acaga", 0) == exact


def test_oracle_one_character_blocks():
    # m == k + 1: every block is one character long.
    rng = random.Random(11)
    for _ in range(100):
        text = "".join(rng.choice("acgt") for _ in range(rng.randint(1, 40)))
        k = rng.randint(0, 4)
        pattern = "".join(rng.choice("acgt") for _ in range(k + 1))
        assert all(hi - lo == 1 for lo, hi in oracle.block_bounds(k + 1, k))
        assert oracle.occurrences(text, pattern, k) == brute_force(text, pattern, k)


def test_oracle_k_at_least_m_matches_every_window():
    assert oracle.occurrences("acgtac", "gg", 2) == brute_force("acgtac", "gg", 2)
    assert len(oracle.occurrences("acgtac", "gg", 5)) == 5
    assert oracle.occurrences("ac", "acgt", 4) == []


def test_oracle_maps_both_strands():
    rng = random.Random(5)
    for _ in range(200):
        text = "".join(rng.choice("acgt") for _ in range(rng.randint(10, 60)))
        m = rng.randint(3, 10)
        k = rng.randint(0, 3)
        start = rng.randrange(len(text) - m + 1)
        window = mutate(rng, text[start:start + m], rng.randint(0, k))
        read = "".join(PAIRS[c] for c in reversed(window))  # a reverse-strand read
        hits = oracle.map_read(text, read, k)
        assert hits == brute_map(text, read, k)
        assert (start, "-") in {(s, strand) for s, _, strand in hits}


def test_block_bounds_are_disjoint_non_empty_and_cover():
    for m in range(1, 30):
        for k in range(0, m):
            blocks = oracle.block_bounds(m, k)
            assert len(blocks) == k + 1
            assert blocks[0][0] == 0 and blocks[-1][1] == m
            assert all(lo < hi for lo, hi in blocks)
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


# -- normaliser -------------------------------------------------------------------

def test_normalise_scales_by_nominal_over_mean_probe():
    assert hostnorm.normalise(2.0, 1.0, 3.0, nominal_s=2.0) == pytest.approx(2.0)
    assert hostnorm.normalise(1.0, 0.5, 0.5, nominal_s=1.0) == pytest.approx(2.0)
    assert hostnorm.normalise(3.0, 2.0, 2.0, nominal_s=1.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        hostnorm.normalise(1.0, 0.0, 1.0)


def test_normaliser_shares_one_probe_between_operations(monkeypatch):
    probes = iter([1e-3, 3e-3, 2e-3])
    monkeypatch.setattr(hostnorm, "probe", lambda: next(probes))
    norm = hostnorm.Normaliser(nominal_s=2e-3)
    result, raw, scaled = norm.timed(lambda x: x + 1, 41)
    assert result == 42
    assert norm.factor() == pytest.approx(1.0)  # mean(1, 3) ms == nominal
    assert scaled == pytest.approx(raw)
    _, raw, scaled = norm.timed(lambda: None)
    assert norm.factor() == pytest.approx(2e-3 / 2.5e-3)  # probes 3 ms, 2 ms
    assert scaled == pytest.approx(raw * 0.8)
    assert norm.median_probe_s() == pytest.approx(2e-3)


def test_reference_kernel_is_deterministic():
    assert hostnorm.reference_kernel(500) == hostnorm.reference_kernel(500)
    assert hostnorm.probe() > 0


# -- run metrics --------------------------------------------------------------------

def test_tail_percentile_leaves_ten_operations_beyond_it():
    assert tail_percentile(MIN_OPS) == 75.0
    assert tail_percentile(150) == 90.0
    assert tail_percentile(300) == 95.0
    assert tail_percentile(2500) == 99.0
    with pytest.raises(ValueError):
        tail_percentile(MIN_OPS - 1)
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([5.0], 75) == 5.0


def test_layer_self_time_excludes_children_and_is_normalised():
    tracer = Tracer()
    tracer.begin(0)  # a set-up operation
    tracer.spans.append(["bwt.build", 0.0, 4.0, -1, 0])
    tracer.spans.append(["suffix.sa", 1.0, 2.0, 0, 0])
    tracer.end(0.5)
    tracer.begin(1)  # a served read
    tracer.spans.append(["core.search", 0.0, 10.0, -1, 1])
    tracer.spans.append(["core.phi", 2.0, 5.0, 2, 1])
    tracer.spans.append(["bwt.locate", 6.0, 8.0, 2, 1])
    tracer.spans.append(["bwt.locate", 6.5, 7.0, 4, 1])  # nested: counted once
    tracer.current["bwt.extend"] += 7
    tracer.end(2.0)
    layers = layer_metrics(tracer, setup_ops=[[0]], serve_ops=[1], reads=1, batches=0)
    assert layers["suffix.sa_s"] == pytest.approx(0.5)
    assert layers["bwt.build_s"] == pytest.approx(1.5)
    assert layers["core.phi_ms_per_read"] == pytest.approx(6e3)
    assert layers["bwt.locate_ms_per_read"] == pytest.approx(4e3)
    assert layers["core.search_ms_per_read"] == pytest.approx(10e3)
    assert layers["bwt.extend_per_read"] == 7
    assert layers["engine.decode_ms_per_batch"] == 0.0


# -- BENCHMARK.json ----------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_form():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert all(not part.startswith("/") and ".." not in part for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert 1 <= len(spec["end_to_end"]) <= 16
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_per_layer_metric_is_computed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    computed = set(layer_metrics(Tracer(), [], [], reads=0, batches=0))
    computed |= {"host.ref_ms", "obs.wide_bytes_per_read"}  # filled in by the run
    assert {m["name"] for m in spec["per_layer"]} == computed


def test_stop_children_reaps_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    from perfbench.run import stop_children

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already reaped
