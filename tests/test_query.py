"""The shared query of every kind, against the checked public path that it
inlines: ``draw_probes`` for the draw and ``neighbor`` for each slot."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitprobe import bmrv, scheme_one, scheme_two
from bitprobe.graph import neighbor
from bitprobe.scheme import draw_probes

from helpers import CountingBitmap, FixedProbes, on_both_routes, with_bitmaps

KINDS = {"one": scheme_one, "two": scheme_two, "bmrv": bmrv}
MEMBERS = [3, 40, 77, 100, 200, 250]


@functools.cache
def kind_scheme(kind):
    return KINDS[kind].encode(MEMBERS, 8, Fraction(1, 2), indep_k=6, master_seed=5)


def counted(sch):
    """The scheme with each stage's bitmap wrapped to count its reads."""
    bitmaps = [CountingBitmap.wrap(stage.bitmap) for stage in sch.stages]
    return with_bitmaps(sch, *bitmaps), bitmaps


@on_both_routes("kind", list(KINDS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_query_is_the_and_of_each_stages_neighbor_bit(kind, route, data):
    sch = kind_scheme(kind)
    p = sch.params
    x = data.draw(st.sampled_from(MEMBERS) | st.integers(0, p.m - 1))
    probes = data.draw(st.lists(st.integers(0, p.d - 1), min_size=len(sch.stages),
                                max_size=len(sch.stages)))
    bits = [stage.bitmap.get(neighbor(stage.graph, x, i))
            for stage, i in zip(sch.stages, probes)]
    instrumented, bitmaps = counted(sch)
    assert KINDS[kind].query(instrumented, x, FixedProbes(*probes)) == all(bits)
    # stage j is read only when every stage before it read a 1
    assert [bm.reads for bm in bitmaps] == [int(all(bits[:j])) for j in range(len(bits))]


@on_both_routes("kind", list(KINDS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_element_or_probe_index_out_of_range_raises_before_any_read(kind, route, data):
    sch = kind_scheme(kind)
    m, d = sch.params.m, sch.params.d
    x = data.draw(st.integers(-2, m + 2) | st.integers(1 << 63, 1 << 65))
    probes = data.draw(st.lists(st.integers(-2, d + 2), min_size=len(sch.stages),
                                max_size=len(sch.stages)))
    bad = [i for i in probes if not 0 <= i < d]
    if 0 <= x < m and not bad:
        return
    message = (rf"^element {x} out of range \[0, {m}\)$" if not 0 <= x < m
               else rf"^probe index {bad[0]} out of range \[0, {d}\)$")  # neighbor's text
    instrumented, bitmaps = counted(sch)
    with pytest.raises(ValueError, match=message):
        KINDS[kind].query(instrumented, x, FixedProbes(*probes))
    assert [bm.reads for bm in bitmaps] == [0] * len(bitmaps)


@pytest.mark.parametrize("kind", list(KINDS))
def test_query_draws_as_draw_probes_does_and_before_its_first_read(kind):
    sch = kind_scheme(kind)
    stages, d = len(sch.stages), sch.params.d
    events = []

    class RecordingRandom(random.Random):
        def randrange(self, *args):
            value = super().randrange(*args)
            events.append(("randrange", args, value))
            return value

    class RecordingBitmap(CountingBitmap):
        def get(self, i):
            events.append(("get",))
            return super().get(i)

    instrumented = with_bitmaps(sch, *(RecordingBitmap.wrap(stage.bitmap)
                                       for stage in sch.stages))
    rng, twin, xs = RecordingRandom(3), RecordingRandom(3), random.Random(4)
    for x in MEMBERS + [xs.randrange(sch.params.m) for _ in range(100)]:
        events.clear()
        KINDS[kind].query(instrumented, x, rng)
        drawn = events[:stages]
        assert all(event[0] == "get" for event in events[stages:])
        assert 1 <= len(events) - stages <= stages
        events.clear()
        assert draw_probes(twin, stages, d) == [value for _, _, value in drawn]
        assert events == drawn == [("randrange", (d,), value) for _, _, value in drawn]
        assert rng.getstate() == twin.getstate()
