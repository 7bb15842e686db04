import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bitprobe import _clmul, gf
from bitprobe.gf import (
    GF2_64,
    FieldSpec,
    PolySeed,
    default_indep_k,
    draw_seed,
    poly_eval,
    poly_eval_block,
    reference_block,
)
from bitprobe.gf import _CHUNK_POINTS, _numpy_block

from helpers import (
    GF2_3,
    GF2_8,
    GF2_16,
    GF2_32,
    CounterRng,
    field_mul,
    naive_gf_mul,
    naive_poly_eval,
    on_both_routes,
    sym_mul3,
)

ALL_FIELDS = [GF2_3, GF2_8, GF2_16, GF2_32, GF2_64]
WIDE_FIELDS = [GF2_8, GF2_16, GF2_32, GF2_64]


def test_unsupported_width_rejected():
    with pytest.raises(ValueError):
        FieldSpec(5)
    with pytest.raises(ValueError):
        FieldSpec(7)


def test_reduction_poly_is_pinned_per_width():
    # the masks of the table in the gf module docstring
    masks = {GF2_3: 0x03, GF2_8: 0x1B, GF2_16: 0x2B, GF2_32: 0x8D, GF2_64: 0x1B}
    assert {f: f.reduction_poly for f in ALL_FIELDS} == masks
    assert FieldSpec(8) == GF2_8  # a width names one field


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_mul_identity_and_annihilator(field):
    rng = random.Random(1)
    for _ in range(50):
        a = rng.randrange(field.order)
        assert field_mul(a, 1, field) == a
        assert field_mul(1, a, field) == a
        assert field_mul(a, 0, field) == 0
        assert field_mul(0, a, field) == 0


def test_mul_gf8_example():
    # x * (x^2 + x) = x^3 + x^2 = (x + 1) + x^2 under x^3 = x + 1
    assert field_mul(2, 6, GF2_3) == 7


def test_mul_gf8_exhaustive_against_symbolic_reference():
    for a in range(8):
        for b in range(8):
            assert field_mul(a, b, GF2_3) == sym_mul3(a, b)


@pytest.mark.parametrize("field", WIDE_FIELDS)
def test_mul_against_naive_reference(field):
    rng = random.Random(field.width_bits)
    for _ in range(2000):
        a = rng.randrange(field.order)
        b = rng.randrange(field.order)
        assert field_mul(a, b, field) == naive_gf_mul(a, b, field.width_bits,
                                                      field.reduction_poly)


def test_field_axioms_width3_exhaustive():
    order = 8
    for a in range(order):
        for b in range(order):
            assert field_mul(a, b, GF2_3) == field_mul(b, a, GF2_3)
            for c in range(order):
                left = field_mul(field_mul(a, b, GF2_3), c, GF2_3)
                right = field_mul(a, field_mul(b, c, GF2_3), GF2_3)
                assert left == right
                dist = field_mul(a, b ^ c, GF2_3)
                assert dist == field_mul(a, b, GF2_3) ^ field_mul(a, c, GF2_3)
    # every nonzero element has an inverse, found by exhaustive search
    for a in range(1, order):
        assert any(field_mul(a, b, GF2_3) == 1 for b in range(1, order))


@pytest.mark.parametrize("field", WIDE_FIELDS)
def test_field_axioms_randomized(field):
    rng = random.Random(0xA5 ^ field.width_bits)
    for _ in range(2500):
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        assert field_mul(a, b, field) == field_mul(b, a, field)
        assert (field_mul(field_mul(a, b, field), c, field)
                == field_mul(a, field_mul(b, c, field), field))
        assert (field_mul(a, b ^ c, field)
                == field_mul(a, b, field) ^ field_mul(a, c, field))


def test_mul_rejects_out_of_range():
    with pytest.raises(ValueError):
        field_mul(8, 1, GF2_3)
    with pytest.raises(ValueError):
        field_mul(1, 1 << 64, GF2_64)


def test_poly_eval_constant_seed():
    seed = PolySeed((5,), GF2_3)
    for x in range(8):
        assert poly_eval(seed, x) == 5


def test_poly_eval_identity_polynomial():
    seed = PolySeed((0, 1), GF2_3)
    for x in range(8):
        assert poly_eval(seed, x) == x
    seed64 = PolySeed((0, 1), GF2_64)
    assert poly_eval(seed64, 0xDEADBEEF) == 0xDEADBEEF


def test_poly_eval_gf8_example():
    assert poly_eval(PolySeed((3, 1), GF2_3), 5) == 3 ^ 5


def test_poly_eval_matches_power_sum_reference_width3():
    # every seed with k <= 3 coefficients, every point
    for k in (1, 2, 3):
        rng = CounterRng()
        for _ in range(8 ** k):
            seed = draw_seed(rng, k, GF2_3)
            for x in range(8):
                assert poly_eval(seed, x) == naive_poly_eval(
                    seed.coeffs, x, 3, GF2_3.reduction_poly)


def test_poly_eval_matches_power_sum_reference_width64():
    rng = random.Random(9)
    for _ in range(300):
        k = rng.randrange(1, 6)
        coeffs = tuple(rng.randrange(1 << 64) for _ in range(k))
        x = rng.randrange(1 << 64)
        seed = PolySeed(coeffs, GF2_64)
        assert poly_eval(seed, x) == naive_poly_eval(coeffs, x, 64,
                                                     GF2_64.reduction_poly)


def field_elements(field):
    """Any element of the field, with 0, 1 and 2^w - 1 drawn often."""
    top = field.order - 1
    return st.sampled_from([0, 1, top]) | st.integers(0, top)


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poly_eval_matches_power_sum_reference(field, data):
    coeffs = data.draw(st.lists(field_elements(field), min_size=1, max_size=5))
    x = data.draw(field_elements(field))
    assert poly_eval(PolySeed(tuple(coeffs), field), x) == naive_poly_eval(
        coeffs, x, field.width_bits, field.reduction_poly)


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mul_matches_naive_reference(field, data):
    a, b = data.draw(field_elements(field)), data.draw(field_elements(field))
    assert field_mul(a, b, field) == naive_gf_mul(a, b, field.width_bits,
                                                  field.reduction_poly)


def test_scalar_fold_runs_twice_when_the_first_overflows():
    # (2^64-1)^2 has bit 126 set: the first fold leaves bits from 64 up
    top = (1 << 64) - 1
    want = naive_gf_mul(top, top, 64, GF2_64.reduction_poly)
    assert field_mul(top, top, GF2_64) == want
    assert poly_eval(PolySeed((5, top), GF2_64), top) == want ^ 5


# The compiled route, and the numpy route that is its fallback.
BULK_ROUTES = (poly_eval_block, _numpy_block)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_poly_eval_block_matches_scalar(field):
    rng = random.Random(17 + field.width_bits)
    coeffs = tuple(rng.randrange(field.order) for _ in range(5))
    seed = PolySeed(coeffs, field)
    xs = [rng.randrange(field.order) for _ in range(2 * _CHUNK_POINTS + 77)]  # three chunks
    want = [poly_eval(seed, x) for x in xs]
    for bulk in BULK_ROUTES:
        assert bulk(seed, np.array(xs, dtype=np.uint64)).tolist() == want


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_eval_block_matches_power_sum_reference(field, data):
    element = st.integers(0, field.order - 1)
    coeffs = data.draw(st.lists(element, min_size=1, max_size=5))
    xs = data.draw(st.lists(element, max_size=6))
    got = poly_eval_block(PolySeed(tuple(coeffs), field), np.array(xs, dtype=np.uint64))
    assert [int(v) for v in got] == [
        naive_poly_eval(coeffs, x, field.width_bits, field.reduction_poly) for x in xs]


def test_poly_eval_block_high_limb_in_one_chunk_only():
    # chunk 0 stays below 2^32 throughout; chunk 1 holds points of 2^32 and up
    edge = [(1 << 32) - 1, 1 << 32, (1 << 64) - 1]
    xs = list(range(_CHUNK_POINTS - 1)) + edge + list(range(500))
    rng = random.Random(3)
    seed = PolySeed(tuple(rng.randrange(1 << 64) for _ in range(5)), GF2_64)
    want = [poly_eval(seed, x) for x in xs]
    for bulk in BULK_ROUTES:
        block = bulk(seed, np.array(xs, dtype=np.uint64))
        assert block.tolist() == want
        for i, x in enumerate(xs[_CHUNK_POINTS - 2:_CHUNK_POINTS + 2], _CHUNK_POINTS - 2):
            assert int(block[i]) == naive_poly_eval(seed.coeffs, x, 64, GF2_64.reduction_poly)


@on_both_routes("w", [3, 8, 16, 32, 64])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_points_outside_the_field_raise_on_every_route(w, route, data):
    field = FieldSpec(w)
    element = st.integers(0, field.order - 1)
    seed = PolySeed(tuple(data.draw(st.lists(element, min_size=1, max_size=4))), field)
    xs = data.draw(st.lists(element | st.integers(0, (1 << 64) - 1), max_size=9))
    points = np.array(xs, dtype=np.uint64)
    outside = [x for x in xs if x >> w]
    if not outside:
        want = [poly_eval(seed, x) for x in xs]
        assert poly_eval_block(seed, points).tolist() == want
        assert reference_block(seed, points)[1].tolist() == want
        return
    # each route names the largest point, as poly_eval names its one point
    message = f"^x={max(outside)} does not fit in {w} bits$"
    for evaluate in (poly_eval_block, reference_block):
        with pytest.raises(ValueError, match=message):
            evaluate(seed, points)
    with pytest.raises(ValueError, match=message):
        poly_eval(seed, max(outside))


def _refuse(*args):
    raise AssertionError("the reference ran the compiled loop that it checks")


class RefusingLoop:
    """Stands in for the loaded compiled loop, so that gf takes the compiled
    route, but each of its entry points fails when it is called."""
    horner = horner1 = count = staticmethod(_refuse)


SHORT_TOP = (1 << 32) - 1  # a 64-bit point at most this leaves its high limb unset


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.integers(1, 300), salt=st.integers(0, 1 << 32),
       raw=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=2),
       short=st.booleans(), layout=st.sampled_from(["flat", "2-D", "empty", "chunks"]))
@example(k=7, salt=0, raw=[(1 << 64) - 1, 5], short=False, layout="flat")
@example(k=8, salt=1, raw=[SHORT_TOP, 2], short=True, layout="chunks")
@example(k=9, salt=2, raw=[1 << 63, 3], short=False, layout="2-D")
@example(k=100, salt=3, raw=[(1 << 64) - 1, 1 << 40], short=False, layout="chunks")
@example(k=300, salt=4, raw=[12345], short=True, layout="chunks")
def test_compiled_route_reference_matches_power_sum(field, monkeypatch, k, salt, raw, short,
                                                    layout):
    # the split Horner, against the power sum, at every k up to 300: 7 and 8
    # are either side of the split, and B*L > k pads the top row (k = 9, 100);
    # chunks of 64 points over all rows, so that "chunks" spans several
    monkeypatch.setattr(_clmul, "_lib", RefusingLoop)
    monkeypatch.setattr(gf, "_CHUNK_POINTS", 64)
    w = field.width_bits
    rng = random.Random(salt)
    seed = PolySeed(tuple(rng.randrange(field.order) for _ in range(k)), field)
    # short points leave a 64-bit point's high limb unset, in every chunk
    points = [x & SHORT_TOP if short else x for x in raw]
    points = [x & (field.order - 1) for x in points]
    want = {x: naive_poly_eval(seed.coeffs, x, w, field.reduction_poly) for x in points}
    xs = {"flat": np.array(points, dtype=np.uint64),
          "2-D": np.array(points * 2, dtype=np.uint64).reshape(2, -1),
          "empty": np.zeros((2, 0), dtype=np.uint64),
          "chunks": np.resize(np.array(points, dtype=np.uint64), 200)}[layout]
    route, values = reference_block(seed, xs)
    assert route == "numpy"
    assert values.shape == xs.shape
    assert values.tolist() == np.vectorize(want.get, otypes=[np.uint64])(xs).tolist()


def test_the_reference_splits_from_k_18_on(monkeypatch):
    # B = isqrt(k // 2) rows where that is at least 3, from k = 18 on; below,
    # the fallback's one-row Horner, which two rows do not beat
    monkeypatch.setattr(_clmul, "_lib", RefusingLoop)
    numpy_block, rows = gf._numpy_block, {}

    def note_rows(seed, xs, b=1):
        rows[seed.indep_k] = b
        return numpy_block(seed, xs, b)

    monkeypatch.setattr(gf, "_numpy_block", note_rows)
    for k in (1, 2, 4, 6, 7, 8, 17, 18, 36, 100, 196, 300):
        reference_block(PolySeed((1,) * k, GF2_64), np.arange(4, dtype=np.uint64))
    assert rows == {1: 1, 2: 1, 4: 1, 6: 1, 7: 1, 8: 1, 17: 1, 18: 3, 36: 4, 100: 7, 196: 9,
                    300: 12}


@pytest.mark.parametrize("k", [6, 100])
def test_the_reference_never_runs_the_compiled_loop(monkeypatch, k):
    # the oracle's reference on the compiled route is numpy throughout, so it
    # cannot certify the loop that it checks
    rng = random.Random(k)
    seed = PolySeed(tuple(rng.randrange(1 << 64) for _ in range(k)), GF2_64)
    points = [0, 1, 977, SHORT_TOP, (1 << 64) - 1]
    monkeypatch.setattr(_clmul, "_lib", RefusingLoop)
    route, values = reference_block(seed, np.array(points, dtype=np.uint64))
    assert route == "numpy"
    assert values.tolist() == [naive_poly_eval(seed.coeffs, x, 64, GF2_64.reduction_poly)
                               for x in points]


def test_poly_eval_block_empty():
    seed = PolySeed((1, 2), GF2_8)
    assert poly_eval_block(seed, np.array([], dtype=np.uint64)).size == 0


def test_draw_seed_deterministic_and_shaped():
    s1 = draw_seed(random.Random(42), 4, GF2_64)
    s2 = draw_seed(random.Random(42), 4, GF2_64)
    assert s1 == s2
    assert s1.indep_k == 4
    assert draw_seed(random.Random(42), 1, GF2_3).indep_k == 1
    # successive draws from one stream differ
    rng = random.Random(42)
    assert draw_seed(rng, 4) != draw_seed(rng, 4)


def test_draw_seed_counter_enumerates_space_without_repetition():
    rng = CounterRng()
    seen = {draw_seed(rng, 2, GF2_3) for _ in range(64)}
    assert len(seen) == 64
    with pytest.raises(ValueError):
        draw_seed(rng, 2, GF2_3)  # 6-bit space exhausted


def test_draw_seed_rejects_indep_k_below_one():
    with pytest.raises(ValueError):
        draw_seed(CounterRng(), 0, GF2_3)


def test_default_indep_k_is_log_squared():
    assert default_indep_k(10) == 100
    assert default_indep_k(14) == 196
