import itertools
import random
from fractions import Fraction

import pytest

from bitprobe import graph, reduction, scheme, scheme_one, scheme_two
from bitprobe.graph import GraphParams, neighborhood_bitmap
from bitprobe.oracle import positive_counts
from bitprobe.reduction import check_strong_reduction, overlap_threshold
from bitprobe.scheme import RetriesExhausted
from bitprobe.scheme_one import OneProbeScheme
from bitprobe.scheme_two import TwoProbeScheme, encode, query

from helpers import CountingBitmap, FixedProbes, explicit_graph, probe_overlap, with_bitmaps

# Toy cell where stage 1 routinely leaves a nonempty misclassified set:
# m=16, s=16, d=4, eps=1/2, A of size 4, master_seed=0 gives |W| = 2.
W_PARAMS = GraphParams(m=16, n_cap=4, s=16, log2_s=4, d=4, eps=Fraction(1, 2))
W_SET = [0, 5, 9, 13]


def w_scheme():
    return scheme.encode_with_params(TwoProbeScheme, W_SET, W_PARAMS, indep_k=3, master_seed=0)


def test_misclassified_empty_when_strong_reduction_holds():
    sch = encode([3, 60], 6, Fraction(1, 2), indep_k=5, master_seed=2)
    assert check_strong_reduction(sch.g1, [3, 60], Fraction(1, 2)).violating == ()


def test_misclassified_star_graph_is_everything_outside():
    g = explicit_graph([[0] * 4 for _ in range(6)], s=2)
    assert check_strong_reduction(g, [2], Fraction(1, 2)).violating == (0, 1, 3, 4, 5)


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
    assert check_strong_reduction(g, [0], Fraction(1, 2)).violating == (5,)


def test_empty_set_encodes_trivially():
    sch = encode([], 6, Fraction(1, 2), indep_k=4, master_seed=1)
    assert sch.w_size == 0
    assert sch.stages[0].retries == 1
    assert sch.stages[1].retries == 1
    assert sch.stages[0].bitmap.as_bool_array().sum() == 0
    assert sch.stages[1].bitmap.as_bool_array().sum() == 0
    assert not query(sch, 17, FixedProbes(0, 0))


def test_w_bound_and_bitmaps_exact():
    sch = w_scheme()
    assert 0 < sch.w_size <= len(W_SET) // 2
    w = check_strong_reduction(sch.g1, W_SET, sch.params.eps).violating
    assert len(w) == sch.w_size
    assert sch.stages[0].bitmap == neighborhood_bitmap(sch.g1, W_SET)
    assert sch.stages[1].bitmap == neighborhood_bitmap(sch.g2, W_SET)
    # stage 2 verified the restricted property on W only
    report = check_strong_reduction(sch.g2, W_SET, sch.params.eps, scope=w)
    assert report.holds
    assert report.scope_size == sch.w_size


@pytest.mark.parametrize("kind", [OneProbeScheme, TwoProbeScheme], ids=["one", "two"])
def test_an_encode_builds_gamma_a_once_per_acceptance_check(kind, monkeypatch):
    # each stage stores the bitmap its accepted check counted against, so
    # the candidates drawn (retries, summed over the stages) are all the
    # builds there are
    build, built = neighborhood_bitmap, []

    def spy(g, A):
        built.append(g)
        return build(g, A)

    for module in (graph, reduction, scheme, scheme_one, scheme_two):
        if getattr(module, "neighborhood_bitmap", None) is build:
            monkeypatch.setattr(module, "neighborhood_bitmap", spy)
    sch = scheme.encode_with_params(kind, W_SET, W_PARAMS, indep_k=3, master_seed=0)
    assert sch.retries > len(sch.stages)  # 52 for one, 8 + 3 for two
    assert len(built) == sch.retries
    assert [st.bitmap for st in sch.stages] == [build(st.graph, W_SET) for st in sch.stages]


def test_members_always_true_over_all_probe_pairs():
    sch = w_scheme()
    d = sch.params.d
    for x in W_SET:
        for i1, i2 in itertools.product(range(d), repeat=2):
            assert query(sch, x, FixedProbes(i1, i2))


def test_exact_error_factorizes_and_stays_below_eps():
    sch = w_scheme()
    d = sch.params.d
    members = set(W_SET)
    w = set(check_strong_reduction(sch.g1, W_SET, sch.params.eps).violating)
    t = overlap_threshold(d, sch.params.eps)
    answered, denominator = positive_counts(sch, range(sch.params.m))
    assert denominator == d * d
    for x in range(sch.params.m):
        true_pairs = sum(query(sch, x, FixedProbes(i1, i2))
                         for i1, i2 in itertools.product(range(d), repeat=2))
        assert answered[x] == true_pairs
        rate = Fraction(true_pairs, d * d)
        if x in members:
            assert rate == 1
            continue
        assert rate < sch.params.eps
        ov2 = probe_overlap(sch.g2, x, sch.stages[1].bitmap)
        if x in w:
            # the second stage carries vertices the first stage misclassified
            assert ov2 < t
        else:
            assert probe_overlap(sch.g1, x, sch.stages[0].bitmap) < t


def test_query_reads_at_most_two_bits():
    sch = w_scheme()
    d = sch.params.d
    c1 = CountingBitmap.wrap(sch.stages[0].bitmap)
    c2 = CountingBitmap.wrap(sch.stages[1].bitmap)
    instrumented = with_bitmaps(sch, c1, c2)
    draws = []

    class LoggedRandom(random.Random):
        def randrange(self, *args):
            draws.append(c1.reads + c2.reads)
            return super().randrange(*args)

    # every query takes one randrange(d) per stage, before its first read,
    # however many bits it then reads
    rng, twin, xs = LoggedRandom(3), random.Random(3), random.Random(4)
    zero = next(x for x in range(sch.params.m)
                if probe_overlap(sch.g1, x, sch.stages[0].bitmap) == 0)
    reads_seen = set()
    for x in [zero] + [xs.randrange(sch.params.m) for _ in range(300)]:
        before = c1.reads + c2.reads
        draws.clear()
        query(instrumented, x, rng)
        twin.randrange(d)
        twin.randrange(d)
        assert draws == [before, before]
        assert rng.getstate() == twin.getstate()
        reads_seen.add(c1.reads + c2.reads - before)
    assert reads_seen == {1, 2}
    # a guaranteed first-stage zero stops after one read
    before = c1.reads + c2.reads
    assert not query(instrumented, zero, FixedProbes(0, 0))
    assert c1.reads + c2.reads - before == 1


def test_encode_reproducible():
    a = encode([5, 20, 33], 7, Fraction(1, 4), indep_k=5, master_seed=12)
    b = encode([5, 20, 33], 7, Fraction(1, 4), indep_k=5, master_seed=12)
    assert a == b


def test_stage1_retries_exhausted():
    # s = 1 forces W = L \ A, which exceeds |A|/2 here
    params = GraphParams(m=4, n_cap=1, s=1, log2_s=0, d=2, eps=Fraction(1, 2))
    with pytest.raises(RetriesExhausted, match="stage 1"):
        scheme.encode_with_params(TwoProbeScheme, [0], params, indep_k=2, max_retries=4)


def test_stage2_retries_exhausted():
    # m=3, |A|=2, s=1: W = {2} passes the stage-1 bound, but no seed can
    # keep vertex 2 out of Gamma(A) when there is only one right vertex.
    params = GraphParams(m=3, n_cap=2, s=1, log2_s=0, d=2, eps=Fraction(1, 2))
    with pytest.raises(RetriesExhausted, match="stage 2"):
        scheme.encode_with_params(TwoProbeScheme, [0, 1], params, indep_k=2, max_retries=4)
