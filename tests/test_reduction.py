import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitprobe import reduction
from bitprobe.bits import Bitmap
from bitprobe.gf import FieldSpec, PolySeed, draw_seed
from bitprobe.graph import (
    SeededGraph,
    derive_params,
    neighbor,
    neighborhood_bitmap,
)
from bitprobe.reduction import check_strong_reduction, overlap_threshold, slot_overlap_counts

from helpers import (
    check_reduction_property,
    edge_table,
    explicit_graph,
    on_both_routes,
    probe_overlap,
    random_explicit_graph,
    toy_params,
)


def star_graph(m, d, s=2):
    """Every probe slot of every left vertex lands on right vertex 0."""
    return explicit_graph([[0] * d for _ in range(m)], s=s)


def brute_force_report(g, A, eps, scope):
    """Independent full enumeration of the violating set."""
    marked = neighborhood_bitmap(g, A)
    t = overlap_threshold(g.params.d, eps)
    out = []
    for v in sorted(scope):
        hits = sum(marked.get(neighbor(g, v, i)) for i in range(g.params.d))
        if hits >= t:
            out.append(v)
    return out


def test_overlap_threshold_rounding():
    assert overlap_threshold(40, Fraction(1, 2)) == 20
    assert overlap_threshold(5, Fraction(1, 2)) == 3
    assert overlap_threshold(7, Fraction(1, 3)) == 3


def test_probe_overlap_trivials():
    g = explicit_graph([[1, 2], [2, 3]], s=4)
    zero = Bitmap(4)
    assert probe_overlap(g, 0, zero) == 0
    ones = Bitmap.from_bool_array([True] * 4)
    assert probe_overlap(g, 0, ones) == 2
    only2 = Bitmap.from_bool_array([False, False, True, False])
    assert probe_overlap(g, 0, only2) == 1
    assert probe_overlap(g, 1, only2) == 1


@on_both_routes("w", [3, 8, 16, 32, 64])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_slot_overlap_counts_equals_the_scalar_count(w, route, data, monkeypatch):
    # Any seed and any stored bytes; rows unordered, repeated or none.  The
    # compiled loop runs 8 points side by side, so degrees off multiples of
    # 8 (7, 52) carry a run across rows and end in a ragged tail; a degree
    # of 300 keeps a row longer than the compiled count's block of points
    # (8 today) for any block up to 256 (a few rows keep the pure-Python
    # reference quick);
    # the right part runs from under one byte to the whole of a narrow
    # field; and the scan's chunks of a few points make most draws span
    # several chunks.
    field = FieldSpec(w)
    most = min(60, field.order)
    degrees = [d for d in (1, 7, 24, 52) if d <= most] + [300] * (w >= 16)
    d = data.draw(st.sampled_from(degrees) | st.integers(1, most))
    m = data.draw(st.integers(1, min(24, field.order // d)))
    widest = min(w, 16)
    log2_s = data.draw(st.sampled_from([0, 1, 2, widest]) | st.integers(0, widest))
    params = toy_params(m, 1 << log2_s, d, Fraction(1, 2))
    coeffs = data.draw(st.lists(st.integers(0, field.order - 1), min_size=1, max_size=6))
    g = SeededGraph(params, PolySeed(tuple(coeffs), field))
    nbytes = ((1 << log2_s) + 7) >> 3
    if nbytes <= 8:
        stored = data.draw(st.binary(min_size=nbytes, max_size=nbytes))
    else:
        stored = random.Random(data.draw(st.integers(0, 1 << 32))).randbytes(nbytes)
    marked = Bitmap(params.s, stored)
    rows = data.draw(st.lists(st.integers(0, m - 1), max_size=30 if d <= most else 4))
    monkeypatch.setattr(reduction, "SCAN_CHUNK_POINTS", data.draw(st.integers(1, 12)))
    counts = slot_overlap_counts(g, marked, rows)
    assert counts.dtype == np.int64
    assert counts.tolist() == reduction.scan_overlap_counts(g, marked, rows).tolist()
    scalar = {v: probe_overlap(g, v, marked) for v in set(rows)}
    assert counts.tolist() == [scalar[v] for v in rows]


# _clmul.c's count splits its rows over threads from two workers' worth of
# 2^19 point-steps (rows x d x k) each: 1001 rows of degree 180 at k = 6 lie
# just above that, of degree 174 just below, and 1001 rows split evenly
# over no worker count up to 4.
SPLIT_STEPS = 2 << 19


@on_both_routes("w,d", [(64, 180), (32, 180), (64, 174)])
def test_a_count_split_over_threads_equals_the_scan(w, d, route):
    k, n = 6, 1001
    assert (n * d * k >= SPLIT_STEPS) == (d == 180)
    rng = random.Random(w * d)
    field = FieldSpec(w)
    params = toy_params(1 << 12, 1 << 12, d, Fraction(1, 2))
    g = SeededGraph(params, PolySeed(tuple(rng.randrange(field.order) for _ in range(k)), field))
    marked = Bitmap(params.s, rng.randbytes(params.s // 8))
    rows = [rng.randrange(params.m) for _ in range(n)]  # unsorted, some repeated
    counts = slot_overlap_counts(g, marked, rows)
    assert counts.tolist() == reduction.scan_overlap_counts(g, marked, rows).tolist()


def test_strong_reduction_empty_set():
    g = random_explicit_graph(random.Random(0), m=10, s=64, d=4)
    report = check_strong_reduction(g, [], Fraction(1, 2))
    assert report.holds
    assert report.scope_size == 10
    assert overlap_threshold(g.params.d, Fraction(1, 2)) == 2


@on_both_routes("scope", [None, []])
def test_an_empty_scope_is_counted_and_still_reports_gamma_a(scope, route):
    # A covers L, or the scope is empty: zero rows are counted on either
    # route, and the report still carries the Gamma(A) an encoder stores
    g = random_explicit_graph(random.Random(4), m=6, s=16, d=3)
    A = range(6) if scope is None else [1, 4]
    report = check_strong_reduction(g, A, Fraction(1, 2), scope=scope)
    assert report.holds and report.scope_size == 0
    assert report.marked == neighborhood_bitmap(g, A)


def test_strong_reduction_star_graph_everything_violates():
    g = star_graph(m=6, d=4)
    report = check_strong_reduction(g, [0], Fraction(1, 2))
    assert report.violating == (1, 2, 3, 4, 5)
    assert not check_reduction_property(edge_table(g), [0], Fraction(1, 2))


def test_strong_reduction_matches_brute_force_on_random_graphs():
    rng = random.Random(11)
    for _ in range(15):
        g = random_explicit_graph(rng, m=20, s=32, d=4, n_cap=8)
        A = set(rng.sample(range(20), rng.randrange(0, 5)))
        scope = sorted(set(range(20)) - A)
        report = check_strong_reduction(g, A, Fraction(1, 2))
        assert list(report.violating) == brute_force_report(g, A, Fraction(1, 2), scope)
        assert report.scope_size == len(scope)


def test_strong_reduction_matches_brute_force_on_seeded_graph():
    rng = random.Random(3)
    params = toy_params(m=32, s=64, d=4, eps=Fraction(1, 4), n_cap=4)
    for _ in range(5):
        g = SeededGraph(params, draw_seed(rng, 3))
        A = set(rng.sample(range(32), 3))
        scope = sorted(set(range(32)) - A)
        report = check_strong_reduction(g, A, Fraction(1, 4))
        assert list(report.violating) == brute_force_report(g, A, Fraction(1, 4), scope)


def test_strong_reduction_explicit_scope_is_restriction_of_full():
    rng = random.Random(23)
    for _ in range(10):
        g = random_explicit_graph(rng, m=18, s=16, d=4, n_cap=6)
        A = set(rng.sample(range(18), 3))
        full = check_strong_reduction(g, A, Fraction(1, 2))
        scope = sorted(rng.sample(sorted(set(range(18)) - A), 7))
        sub = check_strong_reduction(g, A, Fraction(1, 2), scope=scope)
        assert list(sub.violating) == [v for v in full.violating if v in set(scope)]
        assert sub.scope_size == 7


def test_strong_reduction_rejects_overlapping_scope():
    g = random_explicit_graph(random.Random(1), m=8, s=16, d=2)
    with pytest.raises(ValueError):
        check_strong_reduction(g, [1, 2], Fraction(1, 2), scope=[2, 3])
    with pytest.raises(ValueError, match="must be integers"):  # not truncated to [2, 3]
        check_strong_reduction(g, [1], Fraction(1, 2), scope=[2.5, 3])


def test_probe_overlap_monotone_in_marked_set():
    rng = random.Random(7)
    for _ in range(10):
        g = random_explicit_graph(rng, m=12, s=32, d=5, n_cap=8)
        small = set(rng.sample(range(12), 2))
        big = small | set(rng.sample(range(12), 4))
        bm_small = neighborhood_bitmap(g, small)
        bm_big = neighborhood_bitmap(g, big)
        for v in range(12):
            assert probe_overlap(g, v, bm_small) <= probe_overlap(g, v, bm_big)


def test_probe_overlap_bounds_distinct_vertex_count():
    rng = random.Random(13)
    for _ in range(10):
        g = random_explicit_graph(rng, m=10, s=8, d=6, n_cap=4)
        A = set(rng.sample(range(10), 2))
        marked = neighborhood_bitmap(g, A)
        gamma_a = {neighbor(g, a, i) for a in A for i in range(6)}
        for v in range(10):
            slots = probe_overlap(g, v, marked)
            neighbors = [neighbor(g, v, i) for i in range(6)]
            distinct = len(set(neighbors) & gamma_a)
            assert slots >= distinct
            if len(set(neighbors)) == 6:
                assert slots == distinct


def test_reduction_property_trivial_and_implied():
    g = random_explicit_graph(random.Random(2), m=10, s=128, d=3, n_cap=4)
    assert check_reduction_property(edge_table(g), [], Fraction(1, 2))
    A = [1, 4]
    if check_strong_reduction(g, A, Fraction(1, 2)).holds:
        assert check_reduction_property(edge_table(g), A, Fraction(1, 2))


def test_majority_of_random_seeds_pass():
    params = derive_params(8, 4, Fraction(1, 2))
    rng = random.Random(1234)
    A = rng.sample(range(params.m), 4)
    passed = 0
    for _ in range(20):
        g = SeededGraph(params, draw_seed(rng, 8))
        passed += check_strong_reduction(g, A, params.eps).holds
    assert passed > 10
