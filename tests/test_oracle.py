import itertools
import random
from fractions import Fraction

import pytest

from bitprobe import scheme_one, scheme_two
from bitprobe.bmrv import greedy_label
from bitprobe.gf import GF2_3, GF2_8
from bitprobe.oracle import (
    BudgetExceeded,
    error_profile,
    kwise_uniformity_check,
    verify_expander,
)
from bitprobe.reduction import check_reduction_property
from bitprobe.scheme import exact_error

from helpers import (
    TINY_DELTA,
    TINY_EPS,
    TINY_K_MAX,
    explicit_graph,
    random_explicit_graph,
    verified_tiny_expanders,
)


def test_profile_of_empty_scheme_is_all_zero():
    sch = scheme_one.encode([], 6, Fraction(1, 2), indep_k=4)
    prof = error_profile(sch, [])
    assert prof.max_member_error == 0
    assert prof.max_nonmember_error == 0
    assert prof.false_negative_count == 0
    assert prof.histogram == {Fraction(0): 64}


def test_profile_of_one_probe_scheme_matches_guarantees():
    rng = random.Random(31)
    A = sorted(rng.sample(range(256), 4))
    sch = scheme_one.encode(A, 8, Fraction(1, 4), indep_k=6, master_seed=31)
    prof = error_profile(sch, A)
    assert prof.false_negative_count == 0
    assert prof.max_member_error == 0
    assert prof.max_nonmember_error < Fraction(1, 4)
    assert sum(prof.histogram.values()) == 256
    # per-element agreement with the scheme's own exact positive rate
    members = set(A)
    for x in range(256):
        rate = exact_error(sch, x)
        want = 1 - rate if x in members else rate
        assert prof.per_element[x] == want


def test_profile_of_two_probe_scheme():
    rng = random.Random(8)
    A = sorted(rng.sample(range(128), 4))
    sch = scheme_two.encode(A, 7, Fraction(1, 4), indep_k=6, master_seed=8)
    prof = error_profile(sch, A)
    assert prof.false_negative_count == 0
    assert prof.max_nonmember_error < Fraction(1, 4)
    for x in range(0, 128, 17):
        if x in set(A):
            continue
        assert prof.per_element[x] == exact_error(sch, x)


def test_profile_of_bmrv_labeling_can_be_two_sided():
    rows = [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [6, 6, 8, 9, 10, 11, 12, 13],
        [14, 15, 14, 15, 14, 15, 14, 15],
    ]
    g = explicit_graph(rows, s=16, eps=Fraction(1, 4))
    lab = greedy_label(g, [0], Fraction(1, 4))
    prof = error_profile((g, lab), [0])
    assert prof.max_member_error == Fraction(1, 8)
    assert prof.false_negative_count == 1
    assert prof.max_member_error <= Fraction(1, 4)
    assert prof.max_nonmember_error <= Fraction(1, 4)


def test_profile_budget_is_a_hard_failure():
    sch = scheme_one.encode([1], 6, Fraction(1, 2), indep_k=4)
    with pytest.raises(BudgetExceeded):
        error_profile(sch, [1], budget=10)


def test_verify_expander_disjoint_neighborhoods():
    g = explicit_graph([[v * 3 + i for i in range(3)] for v in range(5)], s=16)
    for k_max in (1, 2, 3):
        assert verify_expander(g, k_max, Fraction(1, 100))


def test_verify_expander_star_graph_fails():
    g = explicit_graph([[0, 0, 0] for _ in range(5)], s=2)
    assert not verify_expander(g, 2, Fraction(1, 4))
    assert not verify_expander(g, 1, Fraction(1, 4))  # multi-edges collapse


def test_verify_expander_majority_of_random_toys_pass():
    rng = random.Random(321)
    passed = sum(
        verify_expander(random_explicit_graph(rng, 24, 1024, 8), TINY_K_MAX, TINY_DELTA)
        for _ in range(21))
    assert passed > 10


def test_verify_expander_budget():
    g = random_explicit_graph(random.Random(0), m=24, s=1024, d=8)
    with pytest.raises(BudgetExceeded):
        verify_expander(g, 4, TINY_DELTA, budget=100)


def test_expansion_implies_reduction_property_exhaustively():
    # delta <= eps/4 expansion forces the reduction property for every
    # |A| <= k_max/2, checked over every such subset.
    for g in verified_tiny_expanders(2, master_seed=77):
        m = g.params.m
        for size in (1, 2):
            for A in itertools.combinations(range(m), size):
                assert check_reduction_property(g, A, TINY_EPS)


def test_kwise_uniformity_positive_cases():
    assert kwise_uniformity_check(GF2_3, 1, [5])
    assert kwise_uniformity_check(GF2_3, 2, [0, 1])
    assert kwise_uniformity_check(GF2_3, 2, [3, 6])
    assert kwise_uniformity_check(GF2_3, 3, [0, 1, 2])


def test_kwise_uniformity_negative_control():
    # a pairwise family is not 3-wise uniform
    assert not kwise_uniformity_check(GF2_3, 2, [0, 1, 2])
    assert not kwise_uniformity_check(GF2_3, 1, [0, 1])


def test_kwise_uniformity_validation():
    with pytest.raises(ValueError):
        kwise_uniformity_check(GF2_8, 2, [0, 1])
    with pytest.raises(ValueError):
        kwise_uniformity_check(GF2_3, 4, [0, 1])
    with pytest.raises(ValueError):
        kwise_uniformity_check(GF2_3, 2, [1, 1])
