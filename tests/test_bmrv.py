import math
import random
from fractions import Fraction

import pytest

from bitprobe import bmrv
from bitprobe.bmrv import (
    Labeling,
    NonConvergence,
    default_max_iters,
    greedy_label,
    verify_labeling,
)
from helpers import (
    TINY_EPS,
    explicit_graph,
    random_explicit_graph,
    verified_tiny_expanders,
)


def disjoint_graph(m, d):
    """Pairwise-disjoint neighborhoods: vertex v owns slots [v*d, (v+1)*d)."""
    s = 1 << (m * d - 1).bit_length()
    return explicit_graph([[v * d + i for i in range(d)] for v in range(m)], s=s)


def star_graph(m, d):
    return explicit_graph([[0] * d for _ in range(m)], s=2)


def reference_greedy(g, A, eps, max_iters):
    """Independent scalar re-implementation of the alternating relabeling."""
    m, s, d = g.params.m, g.params.s, g.params.d
    t = math.ceil(eps * d)
    adj = [[int(w) for w in row] for row in g.adjacency]
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
    assert lab.bits.popcount() == 0


def test_disjoint_neighborhoods_converge_in_one_round():
    g = disjoint_graph(m=6, d=3)
    lab = greedy_label(g, [1, 4], Fraction(1, 2))
    assert lab.iterations == 1
    assert lab.trace == ()
    rep = verify_labeling(g, [1, 4], Fraction(1, 2), lab)
    assert rep.passed
    assert rep.max_member_error == 0
    assert rep.max_nonmember_error == 0


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
    rep = verify_labeling(g, [0], Fraction(1, 4), lab)
    assert rep.passed
    assert rep.max_member_error == Fraction(1, 8)
    assert rep.max_member_error > 0


def test_star_graph_oscillates_to_nonconvergence():
    g = star_graph(m=5, d=4)
    with pytest.raises(NonConvergence) as exc:
        greedy_label(g, [0], Fraction(1, 2))
    assert exc.value.iterations == default_max_iters(5)
    assert exc.value.pending > 0


def test_round_instrumentation_alternates_sides():
    rows = [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [6, 6, 8, 9, 10, 11, 12, 13],
        [14, 15, 14, 15, 14, 15, 14, 15],
    ]
    g = explicit_graph(rows, s=16, eps=Fraction(1, 4))
    lab = greedy_label(g, [0], Fraction(1, 4), record_rounds=True)
    assert lab.rounds is not None
    for round_no, action, erroneous, changed in lab.rounds:
        gamma_err = {int(g.adjacency[v, i]) for v in erroneous
                     for i in range(g.params.d)}
        assert set(changed) <= gamma_err
        # even rounds clear (outside side), odd rounds set (member side)
        assert action == ("clear" if round_no % 2 == 0 else "set")
    assert lab.rounds[0][1] == "clear"
    assert lab.rounds[0][3] == (6,)  # only bit 6 was actually set before


def test_agrees_with_reference_implementation_on_random_toys():
    rng = random.Random(77)
    checked = 0
    for _ in range(30):
        g = random_explicit_graph(rng, m=12, s=64, d=4, n_cap=6)
        A = sorted(rng.sample(range(12), rng.randrange(0, 4)))
        cap = default_max_iters(12)
        want = reference_greedy(g, A, Fraction(1, 2), cap)
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
            assert verify_labeling(g, A, TINY_EPS, lab).passed


def test_rejects_set_beyond_capacity():
    g = random_explicit_graph(random.Random(0), m=8, s=32, d=3, n_cap=2)
    with pytest.raises(ValueError):
        greedy_label(g, [0, 1, 2], Fraction(1, 2))


def test_verify_labeling_trivial_labelings():
    from bitprobe.bits import Bitmap

    g = random_explicit_graph(random.Random(4), m=6, s=16, d=3, n_cap=6)
    rep = verify_labeling(g, [], Fraction(1, 2),
                          Labeling(bits=Bitmap(16), iterations=0, trace=()))
    assert rep.max_member_error == 0
    assert rep.max_nonmember_error == 0
    all_ones = Bitmap.from_bool_array([True] * 16)
    rep = verify_labeling(g, range(6), Fraction(1, 2), all_ones)
    assert rep.max_member_error == 0


def test_encode_query_roundtrip_on_seeded_graph():
    A = [3, 9, 21]
    sch = bmrv.encode(A, 6, Fraction(1, 2), indep_k=6, master_seed=7)
    assert sch.stages[0].retries >= 1
    for x in A:
        hits = sum(bmrv.query(sch, x, i) for i in range(sch.params.d))
        assert hits >= sch.params.d - sch.params.d * Fraction(1, 2)
    rep = verify_labeling(sch.graph, A, Fraction(1, 2), sch.stages[0].bitmap)
    assert rep.passed
