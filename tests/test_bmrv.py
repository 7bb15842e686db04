import math
import random
from fractions import Fraction

import pytest

from bitprobe import _clmul, bmrv, reduction
from bitprobe.bits import Bitmap
from bitprobe.bmrv import (
    NonConvergence,
    default_max_iters,
    greedy_label,
)
from bitprobe.oracle import error_profile
from bitprobe.reduction import SCAN_CHUNK_POINTS
from helpers import (
    TINY_EPS,
    FixedProbes,
    explicit_graph,
    random_explicit_graph,
    random_rows,
    scheme_of,
    verified_tiny_expanders,
)


def disjoint_graph(m, d):
    """Pairwise-disjoint neighborhoods: vertex v owns slots [v*d, (v+1)*d)."""
    s = 1 << (m * d - 1).bit_length()
    return explicit_graph([[v * d + i for i in range(d)] for v in range(m)], s=s)


def star_graph(m, d):
    return explicit_graph([[0] * d for _ in range(m)], s=2)


def reference_greedy(adj, s, A, eps, max_iters):
    """Independent scalar re-implementation of the alternating relabeling
    over the neighbor lists adj."""
    m, d = len(adj), len(adj[0])
    t = math.ceil(eps * d)
    Aset = set(A)
    bits = [0] * s
    for v in Aset:
        for w in adj[v]:
            bits[w] = 1
    iters = 1 if Aset else 0
    trace = []
    outside = True
    while True:
        if outside:
            E = [v for v in range(m) if v not in Aset
                 and sum(bits[w] for w in adj[v]) >= t]
        else:
            E = [v for v in sorted(Aset)
                 if sum(1 - bits[w] for w in adj[v]) >= t]
        if not E:
            break
        if iters >= max_iters:
            return None
        for v in E:
            for w in adj[v]:
                bits[w] = 0 if outside else 1
        iters += 1
        trace.append(len(E))
        outside = not outside
    return bits, iters, trace


def test_empty_set_gives_zero_labeling_no_iterations():
    g = random_explicit_graph(random.Random(0), m=8, s=32, d=3)
    lab = greedy_label(g, [], Fraction(1, 2))
    assert lab.iterations == 0
    assert lab.trace == ()
    assert lab.bits.as_bool_array().sum() == 0


def test_disjoint_neighborhoods_converge_in_one_round():
    g = disjoint_graph(m=6, d=3)
    lab = greedy_label(g, [1, 4], Fraction(1, 2))
    assert lab.iterations == 1
    assert lab.trace == ()
    prof = error_profile(scheme_of((g, lab.bits)), [1, 4])
    assert prof.holds
    assert prof.max_member_error == 0
    assert prof.max_nonmember_error == 0


def test_engineered_instance_has_nonzero_member_error():
    # v1 hits Gamma(A) twice through one multi-edge, so clearing its
    # neighborhood costs the member exactly one slot: two-sided but passing.
    rows = [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [6, 6, 8, 9, 10, 11, 12, 13],
        [14, 15, 14, 15, 14, 15, 14, 15],
    ]
    g = explicit_graph(rows, s=16, eps=Fraction(1, 4))
    lab = greedy_label(g, [0], Fraction(1, 4))
    assert lab.iterations == 2
    assert lab.trace == (1,)
    # round 2 cleared Gamma(v1), of which only bit 6 had been set by Gamma(A)
    assert {w for w in range(16) if lab.bits.get(w)} == {0, 1, 2, 3, 4, 5, 7}
    prof = error_profile(scheme_of((g, lab.bits)), [0])
    assert prof.holds
    assert prof.max_member_error == Fraction(1, 8)
    assert prof.false_negative_count == 1


def test_star_graph_oscillates_to_nonconvergence():
    g = star_graph(m=5, d=4)
    with pytest.raises(NonConvergence) as exc:
        greedy_label(g, [0], Fraction(1, 2))
    assert exc.value.iterations == default_max_iters(5)
    assert exc.value.pending > 0


def test_agrees_with_reference_implementation_on_random_toys():
    rng = random.Random(77)
    checked = 0
    for _ in range(30):
        rows = random_rows(rng, m=12, s=64, d=4)
        g = explicit_graph(rows, s=64, n_cap=6)
        A = sorted(rng.sample(range(12), rng.randrange(0, 4)))
        cap = default_max_iters(12)
        want = reference_greedy(rows, 64, A, Fraction(1, 2), cap)
        try:
            lab = greedy_label(g, A, Fraction(1, 2))
        except NonConvergence:
            assert want is None
            continue
        assert want is not None
        bits, iters, trace = want
        assert lab.iterations == iters
        assert lab.trace == tuple(trace)
        assert [lab.bits.get(i) for i in range(64)] == bits
        checked += 1
    assert checked >= 20


def test_converged_runs_on_tiny_expanders_verify_and_halve():
    rng = random.Random(500)
    for g in verified_tiny_expanders(3, master_seed=41):
        for _ in range(3):
            A = sorted(rng.sample(range(g.params.m), 2))
            lab = greedy_label(g, A, TINY_EPS)
            assert lab.iterations <= default_max_iters(g.params.m)
            sizes = [len(A)] + list(lab.trace)
            for prev, cur in zip(sizes, sizes[1:]):
                assert cur <= prev / 2
            assert error_profile(scheme_of((g, lab.bits)), A).holds


def test_rejects_set_beyond_capacity():
    g = random_explicit_graph(random.Random(0), m=8, s=32, d=3, n_cap=2)
    with pytest.raises(ValueError):
        greedy_label(g, [0, 1, 2], Fraction(1, 2))


def test_verify_labeling_trivial_labelings():
    # all-zero labels for the empty set, all-one labels for the whole universe
    g = random_explicit_graph(random.Random(4), m=6, s=16, d=3, n_cap=6)
    prof = error_profile(scheme_of((g, Bitmap(16))), [])
    assert prof.holds
    assert prof.max_member_error == 0
    assert prof.max_nonmember_error == 0
    all_ones = Bitmap.from_bool_array([True] * 16)
    prof = error_profile(scheme_of((g, all_ones)), range(6))
    assert prof.holds
    assert prof.max_member_error == 0
    assert prof.max_nonmember_error == 0


def test_encode_query_roundtrip_on_seeded_graph():
    A = [3, 9, 21]
    sch = bmrv.encode(A, 6, Fraction(1, 2), indep_k=6, master_seed=7)
    assert sch.stages[0].retries >= 1
    for x in A:
        hits = sum(bmrv.query(sch, x, FixedProbes(i)) for i in range(sch.params.d))
        assert hits >= sch.params.d - sch.params.d * Fraction(1, 2)
    assert error_profile(sch, A).holds


def test_encode_scans_in_chunks_past_scan_chunk_points(monkeypatch):
    # u=13, eps=1/2: m*d = 8192*52 = 425,984 edge indices, more than
    # SCAN_CHUNK_POINTS, so a whole-table scan would show as one wide call.
    # On the compiled route the fused count builds no table, so only bmrv's
    # own marking and rewrites scan; on the numpy route the count scans too.
    A = [5, 700, 1999, 4096, 8191]
    routes = [("numpy", {bmrv, reduction})]
    if _clmul._lib() is not None:
        routes.insert(0, ("compiled", {bmrv}))
    for route, callers in routes:
        if route == "numpy":
            monkeypatch.setattr(_clmul, "_lib", lambda: None)
        calls = []  # (module, rows) per edge_targets call
        for module in (bmrv, reduction):
            def spy(g, vs, real=module.edge_targets, caller=module):
                calls.append((caller, len(vs)))
                return real(g, vs)
            monkeypatch.setattr(module, "edge_targets", spy)
        sch = bmrv.encode(A, 13, Fraction(1, 2), indep_k=6, master_seed=3)
        p = sch.params
        assert p.m * p.d > SCAN_CHUNK_POINTS
        assert max(rows for _, rows in calls) <= max(len(A), SCAN_CHUNK_POINTS // p.d)
        assert {caller for caller, _ in calls} == callers, route
        monkeypatch.undo()
    assert error_profile(sch, A).holds
