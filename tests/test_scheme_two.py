import itertools
import random
from fractions import Fraction

import pytest

from bitprobe import scheme_two
from bitprobe.graph import GraphParams, neighborhood_bitmap
from bitprobe.reduction import check_strong_reduction, overlap_threshold, probe_overlap
from bitprobe.scheme import RetriesExhausted, exact_error
from bitprobe.scheme_two import compute_misclassified, encode, query

from helpers import CountingBitmap, explicit_graph, with_bitmaps

# Toy cell where stage 1 routinely leaves a nonempty misclassified set:
# m=16, s=16, d=4, eps=1/2, A of size 4, master_seed=0 gives |W| = 2.
W_PARAMS = GraphParams(m=16, n_cap=4, s=16, log2_s=4, d=4, eps=Fraction(1, 2))
W_SET = [0, 5, 9, 13]


def w_scheme():
    return scheme_two.encode_with_params(W_SET, W_PARAMS, indep_k=3, master_seed=0)


def test_misclassified_empty_when_strong_reduction_holds():
    sch = encode([3, 60], 6, Fraction(1, 2), indep_k=5, master_seed=2)
    assert compute_misclassified(sch.g1, [3, 60], Fraction(1, 2)) == []


def test_misclassified_star_graph_is_everything_outside():
    g = explicit_graph([[0] * 4 for _ in range(6)], s=2)
    assert compute_misclassified(g, [2], Fraction(1, 2)) == [0, 1, 3, 4, 5]


def test_misclassified_engineered_single_vertex():
    # vertex 5 overlaps Gamma(A) on exactly ceil(eps*d) = 2 slots; everyone
    # else stays below threshold.
    rows = [
        [0, 1, 2, 3],    # A = {0}; Gamma(A) = {0,1,2,3}
        [4, 5, 6, 7],
        [8, 9, 10, 11],
        [12, 13, 14, 15],
        [3, 4, 8, 12],   # one slot in Gamma(A)
        [2, 3, 8, 9],    # exactly two slots in Gamma(A)
        [15, 14, 13, 12],
        [7, 6, 5, 4],
    ]
    g = explicit_graph(rows, s=16)
    assert compute_misclassified(g, [0], Fraction(1, 2)) == [5]


def test_empty_set_encodes_trivially():
    sch = encode([], 6, Fraction(1, 2), indep_k=4, master_seed=1)
    assert sch.w_size == 0
    assert sch.stages[0].retries == 1
    assert sch.stages[1].retries == 1
    assert sch.stages[0].bitmap.popcount() == 0
    assert sch.stages[1].bitmap.popcount() == 0
    assert not query(sch, 17, (0, 0))


def test_w_bound_and_bitmaps_exact():
    sch = w_scheme()
    assert 0 < sch.w_size <= len(W_SET) // 2
    w = compute_misclassified(sch.g1, W_SET, sch.eps)
    assert len(w) == sch.w_size
    assert sch.stages[0].bitmap == neighborhood_bitmap(sch.g1, W_SET)
    assert sch.stages[1].bitmap == neighborhood_bitmap(sch.g2, W_SET)
    # stage 2 verified the restricted property on W only
    report = check_strong_reduction(sch.g2, W_SET, sch.eps, scope=w)
    assert report.holds
    assert report.scope_size == sch.w_size


def test_members_always_true_over_all_probe_pairs():
    sch = w_scheme()
    d = sch.params.d
    for x in W_SET:
        for i1, i2 in itertools.product(range(d), repeat=2):
            assert query(sch, x, (i1, i2))


def test_exact_error_factorizes_and_stays_below_eps():
    sch = w_scheme()
    d = sch.params.d
    members = set(W_SET)
    w = set(compute_misclassified(sch.g1, W_SET, sch.eps))
    t = overlap_threshold(d, sch.eps)
    for x in range(sch.params.m):
        true_pairs = sum(query(sch, x, (i1, i2))
                         for i1, i2 in itertools.product(range(d), repeat=2))
        rate = exact_error(sch, x)
        assert rate == Fraction(true_pairs, d * d)
        if x in members:
            assert rate == 1
            continue
        assert rate < sch.eps
        ov2 = probe_overlap(sch.g2, x, sch.stages[1].bitmap)
        if x in w:
            # the second stage carries vertices the first stage misclassified
            assert ov2 < t
        else:
            assert probe_overlap(sch.g1, x, sch.stages[0].bitmap) < t


def test_query_reads_at_most_two_bits():
    sch = w_scheme()
    c1 = CountingBitmap.wrap(sch.stages[0].bitmap)
    c2 = CountingBitmap.wrap(sch.stages[1].bitmap)
    instrumented = with_bitmaps(sch, c1, c2)
    rng = random.Random(3)
    for _ in range(300):
        before = c1.reads + c2.reads
        query(instrumented, rng.randrange(sch.params.m), rng)
        assert c1.reads + c2.reads - before <= 2
    # non-short-circuit mode always reads exactly two
    before = c1.reads + c2.reads
    for _ in range(50):
        query(instrumented, rng.randrange(sch.params.m), rng, short_circuit=False)
    assert c1.reads + c2.reads - before == 100
    # a guaranteed first-stage zero stops after one read
    zero = next(x for x in range(sch.params.m)
                if probe_overlap(sch.g1, x, sch.stages[0].bitmap) == 0)
    before = c1.reads + c2.reads
    assert not query(instrumented, zero, (0, 0))
    assert c1.reads + c2.reads - before == 1


def test_encode_reproducible():
    a = encode([5, 20, 33], 7, Fraction(1, 4), indep_k=5, master_seed=12)
    b = encode([5, 20, 33], 7, Fraction(1, 4), indep_k=5, master_seed=12)
    assert a == b


def test_stage1_retries_exhausted():
    # s = 1 forces W = L \ A, which exceeds |A|/2 here
    params = GraphParams(m=4, n_cap=1, s=1, log2_s=0, d=2, eps=Fraction(1, 2))
    with pytest.raises(RetriesExhausted, match="stage 1"):
        scheme_two.encode_with_params([0], params, indep_k=2, max_retries=4)


def test_stage2_retries_exhausted():
    # m=3, |A|=2, s=1: W = {2} passes the stage-1 bound, but no seed can
    # keep vertex 2 out of Gamma(A) when there is only one right vertex.
    params = GraphParams(m=3, n_cap=2, s=1, log2_s=0, d=2, eps=Fraction(1, 2))
    with pytest.raises(RetriesExhausted, match="stage 2"):
        scheme_two.encode_with_params([0, 1], params, indep_k=2, max_retries=4)
