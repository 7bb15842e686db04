import functools
import hashlib
import random
import struct
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitprobe import bmrv, scheme_one, scheme_two, storage
from bitprobe.bits import Bitmap
from bitprobe.graph import SeededGraph
from bitprobe.storage import (
    BadMagic,
    InvariantViolation,
    SchemeFileError,
    TruncatedSection,
    UnsupportedVersion,
    load,
    save,
    section_layout,
)

from helpers import on_both_routes


def one_probe():
    return scheme_one.encode([3, 77, 200], 8, Fraction(1, 2), indep_k=5,
                             master_seed=44)


def two_probe():
    return scheme_two.encode([9, 50], 7, Fraction(1, 4), indep_k=4,
                             master_seed=13)


def bmrv_scheme():
    return bmrv.encode([2, 30, 61], 6, Fraction(1, 2), indep_k=4, master_seed=9)


def test_bitmap_packing_is_lsb_first():
    bm = Bitmap.from_bool_array([i in (0, 3, 8) for i in range(12)])
    assert bm.to_bytes() == bytes([0b00001001, 0b00000001])
    again = Bitmap(12, bm.to_bytes())
    assert [again.get(i) for i in range(12)] == [bm.get(i) for i in range(12)]
    assert again.as_bool_array().sum() == 3
    with pytest.raises(IndexError):
        bm.get(12)


def test_bitmap_holds_its_bytes_and_lends_them_uncopied():
    # every count, scan and save reads to_bytes(); the bytes are immutable,
    # so no caller needs a copy of its own
    stored = bytearray([0b00001001, 0b00000001])
    bm = Bitmap(12, stored)
    stored[0] = 0
    assert bm.to_bytes() is bm.to_bytes()
    assert bm.to_bytes() == bytes([0b00001001, 0b00000001]) and bm.get(0) == 1


@pytest.mark.parametrize("make", [one_probe, two_probe, bmrv_scheme])
def test_roundtrip_identity_and_byte_stable(make):
    sch = make()
    blob = save(sch)
    back = load(blob)
    assert back == sch
    assert save(back) == blob


def test_equal_schemes_serialize_identically():
    assert save(one_probe()) == save(one_probe())


def test_corrupt_magic():
    blob = bytearray(save(one_probe()))
    blob[0] ^= 0xFF
    with pytest.raises(BadMagic):
        load(bytes(blob))


def test_unsupported_version():
    blob = bytearray(save(one_probe()))
    struct.pack_into("<H", blob, 4, 9)
    with pytest.raises(UnsupportedVersion):
        load(bytes(blob))


@pytest.mark.parametrize("make", [one_probe, two_probe, bmrv_scheme])
def test_truncation_everywhere(make):
    blob = save(make())
    rng = random.Random(0)
    cuts = {1, 5, 20, storage.HEADER_SIZE + 2, len(blob) - 1}
    cuts |= {rng.randrange(1, len(blob)) for _ in range(20)}
    for _, off, length in section_layout(blob):
        cuts |= {off, off + length - 1}
    # the length is checked before any section is decoded, so a cut file
    # with a bad n_cap is reported as truncated too
    bad = bytearray(blob)
    struct.pack_into("<I", bad, storage.HEADER_SIZE, 0)
    for cut in cuts:
        for data in (blob, bytes(bad)):
            with pytest.raises(TruncatedSection):
                load(data[:cut])


def test_eps_zero_denominator_rejected():
    blob = bytearray(save(one_probe()))
    struct.pack_into("<I", blob, 23, 0)  # eps_den field
    with pytest.raises(InvariantViolation):
        load(bytes(blob))


def test_eps_not_in_unit_interval_rejected():
    blob = bytearray(save(one_probe()))
    struct.pack_into("<II", blob, 19, 3, 2)  # eps = 3/2
    with pytest.raises(InvariantViolation):
        load(bytes(blob))


def test_eps_not_in_lowest_terms_rejected():
    # it would load as 1/2 and save back as 1/2: save(load(b)) != b
    blob = bytearray(golden_blobs()[0])
    struct.pack_into("<II", blob, 19, 2, 4)  # eps = 2/4
    with pytest.raises(InvariantViolation, match="reduced"):
        load(bytes(blob))


def test_unknown_kind_rejected():
    blob = bytearray(save(one_probe()))
    blob[6] = 7
    with pytest.raises(InvariantViolation):
        load(bytes(blob))


def test_trailing_bytes_rejected():
    with pytest.raises(InvariantViolation):
        load(save(one_probe()) + b"\x00")


def test_bitmap_length_must_match_header():
    sch = one_probe()
    blob = bytearray(save(sch))
    layout = dict((name, (off, ln)) for name, off, ln in section_layout(bytes(blob)))
    off, _ = layout["bitmap"]
    struct.pack_into("<Q", blob, off, sch.params.s * 2)
    with pytest.raises(InvariantViolation):
        load(bytes(blob))


@pytest.mark.parametrize("make", [one_probe, two_probe, bmrv_scheme])
@pytest.mark.parametrize("nbits", ["2s", "s-1"])
def test_save_rejects_a_bitmap_other_than_s_bits(make, nbits):
    # load would reject the file: 2s bits leave trailing bytes, and s-1
    # bits fill as many bytes as s but record the wrong nbits
    sch = make()
    bits = {"2s": 2 * sch.params.s, "s-1": sch.params.s - 1}[nbits]
    stages = tuple(replace(st, bitmap=Bitmap(bits)) for st in sch.stages)
    with pytest.raises(InvariantViolation, match="bitmap"):
        save(replace(sch, stages=stages))


def test_seed_count_must_match_header():
    blob = bytearray(save(one_probe()))
    layout = dict((name, (off, ln)) for name, off, ln in section_layout(bytes(blob)))
    off, _ = layout["seed"]
    struct.pack_into("<I", blob, off, 3)
    with pytest.raises(InvariantViolation):
        load(bytes(blob))


@pytest.mark.parametrize("make,names", [
    (one_probe, ["header", "scalars", "seed", "bitmap"]),
    (two_probe, ["header", "scalars", "seed1", "seed2", "bitmap1", "bitmap2"]),
    (bmrv_scheme, ["header", "scalars", "seed", "bitmap"]),
])
def test_section_layout_gives_random_access(make, names):
    sch = make()
    blob = save(sch)
    layout = section_layout(blob)
    assert [name for name, _, _ in layout] == names
    total = sum(ln for _, _, ln in layout)
    assert total == len(blob)
    regions = {name: blob[off:off + ln] for name, off, ln in layout}
    # the bitmap payload is reachable without reading the seed section
    bitmap = sch.stages[0].bitmap
    name = "bitmap" if "bitmap" in regions else "bitmap1"
    assert regions[name][8:] == bitmap.to_bytes()
    seed = sch.stages[0].graph.seed
    sname = "seed" if "seed" in regions else "seed1"
    count = struct.unpack_from("<I", regions[sname], 0)[0]
    assert count == seed.indep_k
    # cached word stays tiny: at most 8 bytes per coefficient
    assert len(regions[sname]) - 4 <= seed.indep_k * 8


def test_save_requires_power_of_two_universe():
    from bitprobe.gf import GF2_64, PolySeed
    from bitprobe.graph import GraphParams, SeededGraph
    from bitprobe.scheme import Stage
    from bitprobe.scheme_one import OneProbeScheme

    params = GraphParams(m=3, n_cap=1, s=4, log2_s=2, d=2, eps=Fraction(1, 2))
    sch = OneProbeScheme((Stage(SeededGraph(params, PolySeed((1,), GF2_64)), Bitmap(4), 1),))
    with pytest.raises(InvariantViolation):
        save(sch)


# sha256 of save(encode([3, 17, 40, 58], 6, 1/2, master_seed=7)) in GF(2^64),
# recorded before the bulk kernel was rewritten: the same flags must keep
# giving the same scheme file.
GOLDEN_SHA256 = {
    ("one", None): "1e170d18c38bfb071bc25b125b3c556b41884730c38ac90eb30e1dd06c1ad115",
    ("one", 6): "c13965db2725f03b389f8c6e786a0a65fc31e4b2d0f1f90ecd11c581ba8204da",
    ("two", None): "df56c9ef7930df62f4d551122c31d9df546c421060da033943048be328fa67b6",
    ("two", 6): "a7b532b4d9e9000ff392a7c90029e811ec82f5e3f19ce02165d4f3ca10626142",
    ("bmrv", None): "0d4fecd49049f1121465e3d5e74c55a9bbed64c007d2327dd2a396b162a0f4e4",
    ("bmrv", 6): "2ffa604e57acbce0168fc15ab4fa637a3b23f162375029da016d9e60ecb8d15e",
}


@on_both_routes("kind,indep_k", list(GOLDEN_SHA256))
def test_scheme_bytes_match_golden_digest(kind, indep_k, route):
    encode = {"one": scheme_one.encode, "two": scheme_two.encode,
              "bmrv": bmrv.encode}[kind]
    sch = encode([3, 17, 40, 58], 6, Fraction(1, 2), indep_k=indep_k, master_seed=7)
    assert hashlib.sha256(save(sch)).hexdigest() == GOLDEN_SHA256[kind, indep_k]


def test_huge_universe_bits_rejected_before_sizing():
    # 2^(2^32-1) * d would be a gigabyte-sized integer: bound it first
    header = bytearray(save(one_probe())[:storage.HEADER_SIZE])
    struct.pack_into("<I", header, 7, (1 << 32) - 1)  # universe_bits field
    with pytest.raises(InvariantViolation):
        load(bytes(header))


# Offsets of the u32 fields of the 40-byte header.
UNIVERSE_BITS_AT, LOG2_S_AT, D_AT = 7, 11, 15


def test_load_and_save_reject_a_degree_other_than_the_derived_one():
    # u=8, eps=1/2 derives d=32; with d=3 the file would still claim eps,
    # but its members would answer false and non-members err with rate 1
    sch = one_probe()
    blob = bytearray(save(sch))
    struct.pack_into("<I", blob, D_AT, 3)
    with pytest.raises(InvariantViolation, match="derived"):
        load(bytes(blob))
    small = SeededGraph(replace(sch.params, d=3), sch.graph.seed)
    with pytest.raises(InvariantViolation, match="derived"):
        save(replace(sch, stages=(replace(sch.stages[0], graph=small),)))


def test_load_and_save_reject_a_right_side_other_than_the_derived_one():
    # half the derived s, with the bitmap section cut to match
    sch = one_probe()
    p = sch.params
    blob = bytearray(save(sch))
    off = dict((name, off) for name, off, _ in section_layout(bytes(blob)))["bitmap"]
    struct.pack_into("<I", blob, LOG2_S_AT, p.log2_s - 1)
    struct.pack_into("<Q", blob, off, p.s // 2)
    del blob[off + 8 + p.s // 16:]
    with pytest.raises(InvariantViolation, match="derived"):
        load(bytes(blob))
    half = replace(p, s=p.s // 2, log2_s=p.log2_s - 1)
    stage = replace(sch.stages[0], graph=SeededGraph(half, sch.graph.seed),
                    bitmap=Bitmap(half.s))
    with pytest.raises(InvariantViolation, match="derived"):
        save(replace(sch, stages=(stage,)))


@functools.lru_cache(maxsize=None)
def golden_blobs():
    """The GOLDEN_SHA256 instances at k=6, one scheme file per kind."""
    return tuple(save(encode([3, 17, 40, 58], 6, Fraction(1, 2), indep_k=6, master_seed=7))
                 for encode in (scheme_one.encode, scheme_two.encode, bmrv.encode))


U32_EXTREMES = (0, 1, 64, 65, 1 << 31, (1 << 32) - 1)


@st.composite
def mutated_golden_blob(draw):
    blob = bytearray(draw(st.sampled_from(golden_blobs())))
    scalars = section_layout(bytes(blob))[1]
    u32_fields = [UNIVERSE_BITS_AT, LOG2_S_AT, D_AT, 19, 23, 27]
    u32_fields += range(scalars[1], scalars[1] + scalars[2], 4)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["overwrite", "truncate", "u32"]))
        if how == "overwrite" and blob:
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        elif how == "truncate":
            del blob[draw(st.integers(0, len(blob))):]
        elif how == "u32":
            at = draw(st.sampled_from(u32_fields))
            if at + 4 <= len(blob):
                struct.pack_into("<I", blob, at, draw(st.sampled_from(U32_EXTREMES)))
    return bytes(blob)


@settings(max_examples=600, deadline=None)
@given(mutated_golden_blob())
def test_load_of_a_mutated_golden_file_loads_or_raises_scheme_file_error(blob):
    try:
        sch = load(blob)
    except SchemeFileError:
        return
    assert save(sch) == blob
