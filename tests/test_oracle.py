import itertools
import random
import re
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitprobe import gf, oracle, reduction, scheme_one, scheme_two
from bitprobe.bits import Bitmap
from bitprobe.bmrv import BmrvScheme, greedy_label
from bitprobe.oracle import BudgetExceeded, error_profile, positive_counts
from bitprobe.scheme_one import OneProbeScheme
from bitprobe.scheme_two import TwoProbeScheme

from helpers import (
    GF2_3,
    GF2_8,
    TINY_DELTA,
    TINY_EPS,
    TINY_K_MAX,
    check_reduction_property,
    edge_table,
    explicit_graph,
    kwise_uniformity_check,
    probe_overlap,
    random_rows,
    scheme_of,
    verified_tiny_expanders,
    verify_expander,
)


def error_of(prof, x) -> Fraction:
    return Fraction(int(prof.per_element[x]), prof.denominator)


def reference_rate(sch, x) -> Fraction:
    """The share of probe tuples that answer x true, counted slot by slot
    through scalar ``neighbor`` and ``Bitmap.get``: a path that
    ``positive_counts`` does not take."""
    rate = Fraction(1)
    for st in sch.stages:
        rate *= Fraction(probe_overlap(st.graph, x, st.bitmap), sch.params.d)
    return rate


def test_profile_of_empty_scheme_is_all_zero():
    sch = scheme_one.encode([], 6, Fraction(1, 2), indep_k=4)
    prof = error_profile(sch, [])
    assert prof.max_member_error == 0
    assert prof.max_nonmember_error == 0
    assert prof.false_negative_count == 0
    assert prof.per_element.tolist() == [0] * 64
    assert prof.holds


def test_profile_of_one_probe_scheme_matches_guarantees():
    rng = random.Random(31)
    A = sorted(rng.sample(range(256), 4))
    sch = scheme_one.encode(A, 8, Fraction(1, 4), indep_k=6, master_seed=31)
    prof = error_profile(sch, A)
    assert prof.false_negative_count == 0
    assert prof.max_member_error == 0
    assert prof.max_nonmember_error < Fraction(1, 4)
    assert prof.holds
    assert len(prof.per_element) == 256
    # per-element agreement with the slot-by-slot positive rate
    members = set(A)
    for x in range(256):
        rate = reference_rate(sch, x)
        want = 1 - rate if x in members else rate
        assert error_of(prof, x) == want


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
        assert error_of(prof, x) == reference_rate(sch, x)


@pytest.mark.parametrize("route", ["compiled", "numpy"], indirect=True)
def test_samples_run_beside_the_count_only_where_it_releases_the_gil(route, monkeypatch):
    # the numpy scan would only contend with the samples for the GIL, so
    # there each stage's full count has ended before the samples start
    A = [3, 40, 77, 100]
    sch = scheme_two.encode(A, 7, Fraction(1, 4), indep_k=6, master_seed=8)
    want = error_profile(sch, A).per_element.tolist()
    count, check_samples = oracle.slot_overlap_counts, oracle._check_samples
    sampling, seen = threading.Event(), []

    def full_count(g, marked, rows):
        if len(rows) == g.params.m:
            if route == "compiled":
                sampling.wait(10)
            seen.append(sampling.is_set())
        return count(g, marked, rows)

    def samples(g, marked, stage, rows):
        sampling.set()
        return check_samples(g, marked, stage, rows)

    monkeypatch.setattr(oracle, "slot_overlap_counts", full_count)
    monkeypatch.setattr(oracle, "_check_samples", samples)
    assert error_profile(sch, A).per_element.tolist() == want
    assert seen == [route == "compiled"] * 2


def spy_on_scans(monkeypatch) -> list:
    """The list that the rows of every scan_overlap_counts call from now
    on are appended to."""
    scan, scanned = reduction.scan_overlap_counts, []

    def spy(g, marked, rows):
        scanned.append(rows.tolist())
        return scan(g, marked, rows)

    monkeypatch.setattr(reduction, "scan_overlap_counts", spy)
    monkeypatch.setattr(oracle, "scan_overlap_counts", spy)
    return scanned


@pytest.mark.parametrize("route", ["compiled", "numpy"], indirect=True)
def test_the_scan_recounts_a_sample_only_of_the_compiled_count(route, monkeypatch):
    # on the numpy route slot_overlap_counts is the scan, which a count
    # sample would compare with itself: there each stage is scanned once,
    # for its full count
    A = [3, 40, 77, 100]
    sch = scheme_two.encode(A, 7, Fraction(1, 4), indep_k=6, master_seed=8)
    scanned = spy_on_scans(monkeypatch)
    error_profile(sch, A)
    m = sch.params.m
    if route == "numpy":
        assert scanned == [list(range(m))] * 2
        return
    # a sample: the fixed rows and COUNT_SAMPLES drawn ones, sorted and distinct
    ends = oracle.count_run_ends(m)
    assert len(scanned) == 2
    for rows in scanned:
        assert rows == sorted(set(rows)) and set(ends) <= set(rows)
        assert len(rows) <= len(ends) + oracle.COUNT_SAMPLES < m


@pytest.mark.parametrize("route", ["compiled", "numpy"], indirect=True)
def test_a_count_sample_of_some_rows_is_drawn_by_position(route, monkeypatch):
    # positions in rows, not vertices: the run ends of len(rows) always,
    # whichever order the rows come in
    sch = scheme_two.encode([3, 40, 77, 100], 7, Fraction(1, 4), indep_k=6, master_seed=8)
    rows = list(range(100, 9, -3))
    every, _ = positive_counts(sch, range(sch.params.m))
    scanned = spy_on_scans(monkeypatch)
    answered, _ = positive_counts(sch, rows)
    assert answered.tolist() == every[rows].tolist()
    if route == "numpy":
        assert scanned == [rows] * 2
        return
    assert len(scanned) == 2
    for sample in scanned:
        positions = [rows.index(v) for v in sample]
        assert positions == sorted(set(positions))
        assert set(oracle.count_run_ends(len(rows))) <= set(positions)
        assert len(positions) <= len(oracle.count_run_ends(len(rows))) + oracle.COUNT_SAMPLES


@pytest.mark.parametrize("route", ["compiled", "numpy"], indirect=True)
def test_positive_counts_of_no_rows_draws_no_count_sample(route, monkeypatch):
    sch = scheme_two.encode([3, 40, 77, 100], 7, Fraction(1, 4), indep_k=6, master_seed=8)
    scanned = spy_on_scans(monkeypatch)
    answered, denominator = positive_counts(sch, [])
    assert answered.dtype == np.int64 and answered.shape == (0,)
    assert denominator == sch.params.d ** 2
    assert scanned == ([] if route == "compiled" else [[], []])


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
def test_a_miscounted_row_is_named_by_its_vertex(monkeypatch, at):
    # the first and last positions are run ends, so always in the sample
    if not gf.compiled():
        pytest.skip("the compiled route is not loaded")
    sch = scheme_two.encode([3, 40, 77, 100], 7, Fraction(1, 4), indep_k=6, master_seed=8)
    rows = list(range(100, 9, -3))
    count = reduction.overlap_counts

    def miscount_one_row(seed, vs, d, s, packed):
        counts = count(seed, vs, d, s, packed)
        counts[vs == rows[at]] += 1
        return counts

    monkeypatch.setattr(reduction, "overlap_counts", miscount_one_row)
    with pytest.raises(oracle.KernelMismatch,
                       match=fr"^stage 1: left vertex {rows[at]} has \d+ probe slots"):
        positive_counts(sch, rows)


def test_count_run_ends_are_the_ends_of_every_split():
    # count splits m rows into r <= min(COUNT_RUNS, m) runs, run j holding
    # rows [m*j // r, m*(j + 1) // r)
    assert oracle.count_run_ends(1) == [0]
    assert oracle.count_run_ends(2) == [0, 1]
    assert oracle.count_run_ends(3) == [0, 1, 2]
    assert oracle.count_run_ends(64) == [0, 15, 16, 20, 21, 31, 32, 41, 42, 47, 48, 63]
    assert oracle.count_run_ends(128) == [0, 31, 32, 41, 42, 63, 64, 84, 85, 95, 96, 127]
    source = Path(oracle.__file__).with_name("_clmul.c").read_text()
    assert re.search(r"^#define MAX_WORKERS (\d+)$", source, re.M)[1] == str(oracle.COUNT_RUNS)


def test_profile_of_bmrv_labeling_can_be_two_sided():
    rows = [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [6, 6, 8, 9, 10, 11, 12, 13],
        [14, 15, 14, 15, 14, 15, 14, 15],
    ]
    g = explicit_graph(rows, s=16, eps=Fraction(1, 4))
    lab = greedy_label(g, [0], Fraction(1, 4))
    prof = error_profile(scheme_of((g, lab.bits)), [0])
    assert prof.max_member_error == Fraction(1, 8)
    assert prof.false_negative_count == 1
    assert prof.max_member_error <= Fraction(1, 4)
    assert prof.max_nonmember_error <= Fraction(1, 4)
    assert prof.holds
    # the same bits read as a one-sided scheme break its guarantee
    assert not error_profile(scheme_of((g, lab.bits), kind=OneProbeScheme), [0]).holds


def test_profile_budget_is_a_hard_failure():
    sch = scheme_one.encode([1], 6, Fraction(1, 2), indep_k=4)
    with pytest.raises(BudgetExceeded):
        error_profile(sch, [1], budget=10)


def test_profile_rejects_elements_outside_the_universe():
    sch = scheme_one.encode([1], 6, Fraction(1, 2), indep_k=4)
    for A in ([-1], [1, 64]):
        with pytest.raises(ValueError, match="out of range"):
            error_profile(sch, A)


@st.composite
def hand_built_scheme(draw):
    """One or two stages of random explicit graphs of one shape, random
    bitmaps (or the marked neighborhood of A, as the encoders store), and a
    random A; eps is a multiple of 1/d, so errors often sit right on it."""
    m, d, log2_s = draw(st.integers(1, 10)), draw(st.integers(2, 5)), draw(st.integers(0, 5))
    eps = Fraction(draw(st.integers(1, d - 1)), d)
    A = sorted(draw(st.sets(st.integers(0, m - 1))))
    kind = draw(st.sampled_from([OneProbeScheme, TwoProbeScheme, BmrvScheme]))
    stages = []
    for _ in range(kind.STAGES):
        rows = draw(st.lists(st.lists(st.integers(0, (1 << log2_s) - 1), min_size=d, max_size=d),
                             min_size=m, max_size=m))
        g = explicit_graph(rows, 1 << log2_s, eps)
        flags = draw(st.lists(st.booleans(), min_size=1 << log2_s, max_size=1 << log2_s))
        if draw(st.booleans()):
            flags = [False] * (1 << log2_s)
            for x in A:
                for w in rows[x]:
                    flags[w] = True
        stages.append((g, Bitmap.from_bool_array(flags)))
    return scheme_of(*stages, kind=kind), A


@settings(max_examples=300, deadline=None)
@given(hand_built_scheme())
def test_profile_equals_the_scalar_exact_error(case):
    """The profile and positive_counts, both counted by
    slot_overlap_counts, against the scalar slot-by-slot rate of
    ``reference_rate``."""
    sch, A = case
    prof = error_profile(sch, A)
    answered, denominator = positive_counts(sch, range(sch.params.m))
    errors = {}
    for x in range(sch.params.m):
        rate = reference_rate(sch, x)
        assert Fraction(int(answered[x]), denominator) == rate
        errors[x] = 1 - rate if x in A else rate
        assert error_of(prof, x) == errors[x]
    member = [errors[x] for x in A]
    nonmember = [e for x, e in errors.items() if x not in A]
    assert prof.max_member_error == max(member, default=0)
    assert prof.max_nonmember_error == max(nonmember, default=0)
    assert prof.false_negative_count == sum(e > 0 for e in member)
    if sch.TWO_SIDED:
        want = all(e <= sch.params.eps for e in errors.values())
    else:
        want = all(e == 0 for e in member) and all(e < sch.params.eps for e in nonmember)
    assert prof.holds == want


def test_verify_expander_disjoint_neighborhoods():
    rows = [[v * 3 + i for i in range(3)] for v in range(5)]
    for k_max in (1, 2, 3):
        assert verify_expander(rows, k_max, Fraction(1, 100))


def test_verify_expander_star_graph_fails():
    rows = [[0, 0, 0] for _ in range(5)]
    assert not verify_expander(rows, 2, Fraction(1, 4))
    assert not verify_expander(rows, 1, Fraction(1, 4))  # multi-edges collapse


def test_verify_expander_majority_of_random_toys_pass():
    rng = random.Random(321)
    passed = sum(
        verify_expander(random_rows(rng, 24, 1024, 8), TINY_K_MAX, TINY_DELTA)
        for _ in range(21))
    assert passed > 10


def test_verify_expander_budget():
    rows = random_rows(random.Random(0), m=24, s=1024, d=8)
    with pytest.raises(BudgetExceeded):
        verify_expander(rows, 4, TINY_DELTA, budget=100)


def test_expansion_implies_reduction_property_exhaustively():
    # delta <= eps/4 expansion forces the reduction property for every
    # |A| <= k_max/2, checked over every such subset.
    for g in verified_tiny_expanders(2, master_seed=77):
        table = edge_table(g)
        for size in (1, 2):
            for A in itertools.combinations(range(g.params.m), size):
                assert check_reduction_property(table, A, TINY_EPS)


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
