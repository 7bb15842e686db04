import random
from fractions import Fraction

import pytest

from bitprobe import bmrv, scheme, scheme_one, scheme_two
from bitprobe.graph import GraphParams
from bitprobe.scheme import RetriesExhausted, exact_error
from bitprobe.scheme_one import OneProbeScheme, encode, query

from helpers import CountingBitmap, FixedProbes, with_bitmaps


def small_scheme(u=8, n=4, eps=Fraction(1, 2), master_seed=11):
    rng = random.Random(master_seed)
    A = sorted(rng.sample(range(1 << u), n))
    return A, encode(A, u, eps, indep_k=6, master_seed=master_seed)


def test_empty_set_accepts_first_seed_with_zero_bitmap():
    sch = encode([], 6, Fraction(1, 2), indep_k=4, master_seed=5)
    assert sch.stages[0].retries == 1
    assert sch.stages[0].bitmap.as_bool_array().sum() == 0
    for x in (0, 13, 63):
        for i in range(sch.params.d):
            assert not query(sch, x, FixedProbes(i))
        assert exact_error(sch, x) == 0


def test_members_always_answer_true_on_every_probe():
    A, sch = small_scheme()
    for x in A:
        for i in range(sch.params.d):
            assert query(sch, x, FixedProbes(i))
        assert exact_error(sch, x) == 1


def test_nonmembers_error_below_eps_exhaustively():
    A, sch = small_scheme()
    d = sch.params.d
    members = set(A)
    for x in range(sch.params.m):
        if x in members:
            continue
        rate = exact_error(sch, x)
        assert rate < sch.params.eps
        # cross-check by enumerating every probe index
        hits = sum(query(sch, x, FixedProbes(i)) for i in range(d))
        assert rate == Fraction(hits, d)


def test_encode_is_deterministic():
    A = [7, 99, 140]
    s1 = encode(A, 8, Fraction(1, 4), indep_k=5, master_seed=21)
    s2 = encode(A, 8, Fraction(1, 4), indep_k=5, master_seed=21)
    assert s1 == s2
    s3 = encode(A, 8, Fraction(1, 4), indep_k=5, master_seed=22)
    assert s3.graph.seed != s1.graph.seed or s3.stages[0].bitmap != s1.stages[0].bitmap


def test_accepted_seed_passes_strong_reduction():
    from bitprobe.reduction import check_strong_reduction

    A, sch = small_scheme(master_seed=3)
    assert check_strong_reduction(sch.graph, A, sch.params.eps).holds


def test_retries_exhausted_on_impossible_params():
    # s = 1: every probe of every vertex lands on the single right vertex,
    # so any nonempty A makes every outside vertex violate, for any seed.
    params = GraphParams(m=4, n_cap=1, s=1, log2_s=0, d=2, eps=Fraction(1, 2))
    with pytest.raises(RetriesExhausted) as exc:
        scheme.encode_with_params(OneProbeScheme, [0], params, indep_k=2, master_seed=0,
                                  max_retries=7)
    assert exc.value.attempts == 7


def test_query_reads_exactly_one_bit():
    A, sch = small_scheme()
    counting = CountingBitmap.wrap(sch.stages[0].bitmap)
    instrumented = with_bitmaps(sch, counting)
    rng = random.Random(0)
    for k in range(200):
        query(instrumented, rng.randrange(sch.params.m), rng)
        assert counting.reads == k + 1


def test_query_rejects_out_of_range_probe_and_element():
    A, sch = small_scheme()
    x = A[0]
    assert query(sch, x, FixedProbes(0)) == query(sch, x, random.Random(9))
    with pytest.raises(ValueError):
        query(sch, x, FixedProbes(sch.params.d))  # probe index out of range
    with pytest.raises(ValueError):
        query(sch, sch.params.m, FixedProbes(0))  # element out of range
    m = sch.params.m
    for x in (-1, m, 1 << 64):  # the text that neighbor gives
        with pytest.raises(ValueError, match=fr"^left vertex {x} out of range \[0, {m}\)$"):
            exact_error(sch, x)


@pytest.mark.parametrize("kind_encode", [scheme_one.encode, scheme_two.encode, bmrv.encode],
                         ids=["one", "two", "bmrv"])
def test_capacity_and_range_validation(monkeypatch, kind_encode):
    # Every kind checks A before it draws its first candidate seed; a float
    # is not truncated to the vertex below it.
    drawn = []
    draw_seed = scheme.draw_seed
    monkeypatch.setattr(scheme, "draw_seed", lambda *a: drawn.append(a) or draw_seed(*a))
    for A, n_cap in [([1, 2], 1), ([8], None), ([-1], None), ([3.9, 1], None)]:
        with pytest.raises(ValueError):
            kind_encode(A, 3, Fraction(1, 2), n_cap=n_cap, indep_k=2)
    assert drawn == []
    kind_encode([1, 2], 3, Fraction(1, 2), indep_k=2)
    assert drawn  # the spy sees the draws of a set that fits


def test_space_shape_of_encoded_scheme():
    A, sch = small_scheme(u=10, n=4)
    p = sch.params
    assert len(sch.stages[0].bitmap) == p.s <= 4 * p.d * p.d * p.n_cap
    assert len(sch.graph.seed.coeffs) * sch.graph.seed.field.width_bits == 6 * 64
