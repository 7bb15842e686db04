import random
from fractions import Fraction

import pytest

from bitprobe import scheme_one
from bitprobe.graph import GraphParams
from bitprobe.scheme import RetriesExhausted, exact_error
from bitprobe.scheme_one import encode, query

from helpers import CountingBitmap, with_bitmaps


def small_scheme(u=8, n=4, eps=Fraction(1, 2), master_seed=11):
    rng = random.Random(master_seed)
    A = sorted(rng.sample(range(1 << u), n))
    return A, encode(A, u, eps, indep_k=6, master_seed=master_seed)


def test_empty_set_accepts_first_seed_with_zero_bitmap():
    sch = encode([], 6, Fraction(1, 2), indep_k=4, master_seed=5)
    assert sch.stages[0].retries == 1
    assert sch.stages[0].bitmap.popcount() == 0
    for x in (0, 13, 63):
        for i in range(sch.params.d):
            assert not query(sch, x, i)
        assert exact_error(sch, x) == 0


def test_members_always_answer_true_on_every_probe():
    A, sch = small_scheme()
    for x in A:
        for i in range(sch.params.d):
            assert query(sch, x, i)
        assert exact_error(sch, x) == 1


def test_nonmembers_error_below_eps_exhaustively():
    A, sch = small_scheme()
    d = sch.params.d
    members = set(A)
    for x in range(sch.params.m):
        if x in members:
            continue
        rate = exact_error(sch, x)
        assert rate < sch.eps
        # cross-check by enumerating every probe index
        hits = sum(query(sch, x, i) for i in range(d))
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
    assert check_strong_reduction(sch.graph, A, sch.eps).holds


def test_retries_exhausted_on_impossible_params():
    # s = 1: every probe of every vertex lands on the single right vertex,
    # so any nonempty A makes every outside vertex violate, for any seed.
    params = GraphParams(m=4, n_cap=1, s=1, log2_s=0, d=2, eps=Fraction(1, 2))
    with pytest.raises(RetriesExhausted) as exc:
        scheme_one.encode_with_params([0], params, indep_k=2, master_seed=0,
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


def test_query_probe_source_forms():
    A, sch = small_scheme()
    x = A[0]
    assert query(sch, x, 0) == query(sch, x, random.Random(9))
    with pytest.raises(ValueError):
        query(sch, x, sch.params.d)  # explicit index out of range
    with pytest.raises(ValueError):
        query(sch, sch.params.m, 0)  # element out of range
    with pytest.raises(ValueError):
        exact_error(sch, -1)


def test_capacity_and_range_validation():
    params = GraphParams(m=8, n_cap=1, s=64, log2_s=6, d=4, eps=Fraction(1, 2))
    with pytest.raises(ValueError):
        scheme_one.encode_with_params([1, 2], params, indep_k=2)
    with pytest.raises(ValueError):
        scheme_one.encode_with_params([8], params, indep_k=2)


def test_space_shape_of_encoded_scheme():
    A, sch = small_scheme(u=10, n=4)
    p = sch.params
    assert len(sch.stages[0].bitmap) == p.s <= 4 * p.d * p.d * p.n_cap
    assert len(sch.graph.seed.coeffs) * sch.graph.seed.field.width_bits == 6 * 64
