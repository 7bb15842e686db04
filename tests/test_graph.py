import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitprobe.gf import GF2_64, PolySeed, poly_eval
from bitprobe.graph import (
    GraphParams,
    SeededGraph,
    derive_params,
    edge_targets,
    left_vertices,
    neighbor,
    neighborhood_bitmap,
)

from helpers import (
    GF2_3,
    GF2_16,
    GF2_32,
    edge_table,
    explicit_graph,
    naive_poly_eval,
    toy_params,
)


@pytest.mark.parametrize("u,n,eps,want_d,want_s", [
    (10, 4, Fraction(1, 2), 40, 16384),
    (4, 1, Fraction(1, 2), 16, 512),   # 2*16^2 already a power of two
    (1, 1, Fraction(1, 2), 4, 32),
])
def test_derive_params_reference_sizing(u, n, eps, want_d, want_s):
    p = derive_params(u, n, eps)
    assert p.d == want_d
    assert p.s == want_s
    assert p.m == 1 << u
    assert p.eps == eps


def test_derive_params_shape_sweep():
    for u in (1, 3, 10, 12, 14, 20):
        for n in (1, 4, 64):
            for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(2, 3)):
                if n > 1 << u:
                    continue
                p = derive_params(u, n, eps)
                assert p.d == -((-2 * u * eps.denominator) // eps.numerator)
                assert 2 * p.d * p.d * n <= p.s < 4 * p.d * p.d * n
                assert p.s == 1 << p.log2_s


def test_derive_params_rejects_field_overflow():
    # m*d does not fit into 64 bits
    with pytest.raises(ValueError):
        derive_params(60, 1, Fraction(1, 2))
    derive_params(40, 1, Fraction(1, 2))  # fits


def test_derive_params_rejects_bad_args():
    with pytest.raises(ValueError):
        derive_params(0, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        derive_params(4, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        derive_params(4, 1, Fraction(3, 2))
    with pytest.raises(ValueError):
        derive_params(2, 8, Fraction(1, 2))  # n_cap > m


def test_graph_params_validation():
    with pytest.raises(ValueError):
        toy_params(m=2, s=3, d=1, eps=Fraction(1, 2))  # s not a power of two
    with pytest.raises(ValueError):
        GraphParams(m=2, n_cap=1, s=4, log2_s=1, d=1, eps=Fraction(1, 2))
    with pytest.raises(ValueError):
        toy_params(m=1, s=4, d=1, eps=Fraction(1, 2), n_cap=2)  # n_cap > m


def test_seeded_graph_validation():
    params = toy_params(m=4, s=16, d=2, eps=Fraction(1, 2))
    with pytest.raises(ValueError):
        SeededGraph(params, PolySeed((1,), GF2_3))  # log2_s=4 > width 3
    big = toy_params(m=8, s=4, d=2, eps=Fraction(1, 2))
    with pytest.raises(ValueError):
        SeededGraph(big, PolySeed((1,), GF2_3))  # m*d = 16 > 2^3


def test_neighbor_constant_zero_seed():
    params = toy_params(m=4, s=8, d=3, eps=Fraction(1, 2))
    g = SeededGraph(params, PolySeed((0,), GF2_64))
    for v in range(4):
        for i in range(3):
            assert neighbor(g, v, i) == 0


def test_neighbor_identity_seed_vertex_zero():
    params = toy_params(m=4, s=16, d=4, eps=Fraction(1, 2))
    g = SeededGraph(params, PolySeed((0, 1), GF2_64))
    for i in range(4):
        assert neighbor(g, 0, i) == i  # encode(0, i) = i and i < s


def test_neighbor_gf8_toy_against_reference_horner():
    # m=2, d=2, s=4 over GF(2^3) with seed [3, 1]
    params = toy_params(m=2, s=4, d=2, eps=Fraction(1, 2))
    seed = PolySeed((3, 1), GF2_3)
    g = SeededGraph(params, seed)
    for v in range(2):
        for i in range(2):
            want = naive_poly_eval((3, 1), v * 2 + i, 3, GF2_3.reduction_poly) & 3
            assert neighbor(g, v, i) == want
    assert neighbor(g, 1, 0) == poly_eval(seed, 2) & 3


def test_neighbor_range_checks():
    params = toy_params(m=2, s=4, d=2, eps=Fraction(1, 2))
    g = SeededGraph(params, PolySeed((0,), GF2_64))
    with pytest.raises(ValueError):
        neighbor(g, 2, 0)
    with pytest.raises(ValueError):
        neighbor(g, 0, 2)
    with pytest.raises(ValueError):
        neighbor(g, -1, 0)


def test_left_vertices_reject_floats_and_keep_empty_input():
    # a float is refused, not truncated to the vertex below it
    g = SeededGraph(toy_params(m=8, s=4, d=2, eps=Fraction(1, 2)), PolySeed((0,), GF2_64))
    for vs in ([2.7], [3.9, 4], np.array([1.0])):
        with pytest.raises(ValueError, match="^left vertices must be integers, not float64$"):
            left_vertices(g, vs)
    for vs in ([], np.array([], dtype=np.uint64)):
        empty = left_vertices(g, vs)
        assert empty.dtype == np.int64 and empty.size == 0
    assert left_vertices(g, np.array([7, 0], dtype=np.uint64)).tolist() == [7, 0]


def test_neighborhood_bitmap_empty_set():
    params = toy_params(m=4, s=8, d=2, eps=Fraction(1, 2))
    g = SeededGraph(params, PolySeed((1, 2, 3), GF2_64))
    bm = neighborhood_bitmap(g, [])
    assert bm.as_bool_array().sum() == 0
    assert len(bm) == 8


def test_neighborhood_bitmap_single_vertex_popcount():
    rng = random.Random(5)
    for trial in range(20):
        params = toy_params(m=8, s=32, d=5, eps=Fraction(1, 2))
        seed = PolySeed(tuple(rng.randrange(1 << 64) for _ in range(3)), GF2_64)
        g = SeededGraph(params, seed)
        v = rng.randrange(8)
        bm = neighborhood_bitmap(g, [v])
        targets = {neighbor(g, v, i) for i in range(5)}
        assert bm.as_bool_array().sum() == len(targets) <= 5
        assert {w for w in range(32) if bm.get(w)} == targets


def test_neighborhood_bitmap_toy_adjacency():
    g = explicit_graph([[1, 2], [2, 3]], s=4)
    bm = neighborhood_bitmap(g, [0, 1])
    assert [bm.get(i) for i in range(4)] == [0, 1, 1, 1]


def test_scalar_neighbor_matches_edge_targets_on_every_entry():
    params = toy_params(m=16, s=64, d=3, eps=Fraction(1, 2))
    g = SeededGraph(params, PolySeed((7, 9, 11), GF2_64))
    table = edge_table(g)
    for v in range(16):
        for i in range(3):
            assert neighbor(g, v, i) == table[v, i]


def test_edge_targets_per_entry_reference():
    params = toy_params(m=4, s=8, d=2, eps=Fraction(1, 2))
    seed = PolySeed((3, 5), GF2_3)
    table = edge_table(SeededGraph(params, seed))
    for v in range(4):
        for i in range(2):
            want = naive_poly_eval((3, 5), v * 2 + i, 3, GF2_3.reduction_poly) & 7
            assert table[v, i] == want


def test_edge_targets_constant_zero_seed():
    params = toy_params(m=4, s=8, d=2, eps=Fraction(1, 2))
    assert not edge_table(SeededGraph(params, PolySeed((0,), GF2_64))).any()


@pytest.mark.parametrize("field", [GF2_16, GF2_32, GF2_64])
def test_edge_targets_matches_scalar_neighbor(field):
    rng = random.Random(field.width_bits)
    params = toy_params(m=32, s=256, d=6, eps=Fraction(1, 2))
    seed = PolySeed(tuple(rng.randrange(field.order) for _ in range(4)), field)
    g = SeededGraph(params, seed)
    table = edge_table(g)
    assert table.shape == (32, 6)
    for _ in range(200):
        v = rng.randrange(32)
        i = rng.randrange(6)
        assert table[v, i] == neighbor(g, v, i)
    some = np.array([3, 17, 5])
    sub = edge_targets(g, some)
    assert (sub == table[some]).all()


@st.composite
def neighbor_tables(draw):
    """A table of m rows of d right vertices in [0, s), m*d <= 256, s <= 2^11."""
    d = draw(st.integers(1, 16))
    m = draw(st.integers(1, 256 // d))
    s = 1 << draw(st.integers(0, 11))
    row = st.lists(st.integers(0, s - 1), min_size=d, max_size=d)
    return draw(st.lists(row, min_size=m, max_size=m)), s


@settings(max_examples=20, deadline=None)
@given(neighbor_tables())
def test_hand_built_graph_reproduces_its_table(table):
    # explicit_graph itself asserts that edge_table gives back the table
    rows, s = table
    g = explicit_graph(rows, s)
    m, d = len(rows), len(rows[0])
    # scalar Horner at k = m*d costs up to ~0.3 ms a call: about 16 entries
    for e in itertools.chain(range(0, m * d, -(-m * d // 16)), [m * d - 1]):
        assert neighbor(g, e // d, e % d) == rows[e // d][e % d]
