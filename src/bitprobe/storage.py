"""Bit-exact scheme files: a small cached-word section physically separate
from the main bitmap section, mirroring the two-tier memory split.

Layout (all integers little-endian):

    magic           "BPS1"                      4 bytes
    format_version  u16                         = 1
    kind            u8                          1 one-probe, 2 two-probe, 3 bmrv
    universe_bits   u32
    log2_s          u32
    d               u32
    eps_num         u32
    eps_den         u32
    indep_k         u32
    field_width     u8
    master_seed     u64
    --- 40-byte header ends ---
    scalars         u32 each: n_cap, then retries per stage, then
                    w_size (|W|) when there is more than one stage
    --- sections ---
    seed section    count:u32 (= indep_k), then count elements of
                    ceil(field_width/8) bytes each, little-endian
    bitmap section  nbits:u64 (= 2^log2_s), then ceil(nbits/8) bytes,
                    bits packed LSB-first within bytes
    every seed section in stage order, then every bitmap section:
    kind 1, 3:  seed, bitmap;  kind 2:  seed1, seed2, bitmap1, bitmap2

d and log2_s must be the sizing that derive_params gives for universe_bits,
n_cap, eps and the field: a file with a smaller d would claim eps but
deliver a weaker bound, so neither save nor load accepts one.
section_layout places every section from the header alone, so the bitmap
can be read without touching the seed and vice versa.  save joins the
sections in that table's order; load checks the file's total length
against it, then reads every section at the offset it gives.
"""

import math
import struct
from fractions import Fraction

from .bits import Bitmap
from .bmrv import BmrvScheme
from .gf import FIELD_WIDTHS, FieldSpec, PolySeed
from .graph import GraphParams, SeededGraph, derive_params
from .scheme import Scheme, Stage
from .scheme_one import OneProbeScheme
from .scheme_two import TwoProbeScheme

MAGIC = b"BPS1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBIIIIIIBQ")
HEADER_SIZE = _HEADER.size  # 40

_CLASSES = {cls.KIND: cls for cls in (OneProbeScheme, TwoProbeScheme, BmrvScheme)}


class SchemeFileError(Exception):
    pass


class BadMagic(SchemeFileError):
    pass


class UnsupportedVersion(SchemeFileError):
    pass


class TruncatedSection(SchemeFileError):
    pass


class InvariantViolation(SchemeFileError):
    pass


def _u32(value: int, name: str) -> int:
    if not 0 <= value < 1 << 32:
        raise InvariantViolation(f"{name}={value} does not fit in u32")
    return value


def _elem_bytes(width: int) -> int:
    return (width + 7) >> 3


def _sized(universe_bits: int, n_cap: int, eps: Fraction, field_width: int,
           d: int, log2_s: int) -> GraphParams:
    """The graph shape of a file, which must be the derived sizing."""
    try:
        params = derive_params(universe_bits, n_cap, eps, FieldSpec(field_width))
    except ValueError as exc:
        raise InvariantViolation(str(exc))
    if (d, log2_s) != (params.d, params.log2_s):
        raise InvariantViolation(
            f"d={d}, log2_s={log2_s} differ from the derived d={params.d}, "
            f"log2_s={params.log2_s}")
    return params


def _scalar_names(stages: int) -> list:
    """The u32 scalars after the header: n_cap, retries per stage, |W|."""
    return ["n_cap"] + ["retries"] * stages + (["w_size"] if stages > 1 else [])


def _suffixes(stages: int) -> list:
    """Section name suffixes, one per stage: "seed" alone, or "seed1", "seed2"."""
    return [""] if stages == 1 else [str(i) for i in range(1, stages + 1)]


def save(scheme: Scheme) -> bytes:
    """Serialize a scheme; equal schemes produce identical bytes."""
    if type(scheme) not in _CLASSES.values():
        raise TypeError(f"cannot serialize {type(scheme).__name__}")
    if not 0 <= scheme.master_seed < 1 << 64:
        raise InvariantViolation("master_seed does not fit in u64")
    params = scheme.params
    seeds = [st.graph.seed for st in scheme.stages]
    if len({(seed.indep_k, seed.field) for seed in seeds}) != 1:
        raise InvariantViolation("stage seeds disagree on indep_k or the field")
    universe_bits = params.m.bit_length() - 1
    if params.m != 1 << universe_bits:
        raise InvariantViolation(f"m={params.m} is not a power of two")
    field_width = seeds[0].field.width_bits
    _sized(universe_bits, params.n_cap, params.eps, field_width, params.d, params.log2_s)
    head = _HEADER.pack(
        MAGIC, FORMAT_VERSION, scheme.KIND,
        _u32(universe_bits, "universe_bits"),
        _u32(params.log2_s, "log2_s"),
        _u32(params.d, "d"),
        _u32(params.eps.numerator, "eps_num"),
        _u32(params.eps.denominator, "eps_den"),
        _u32(seeds[0].indep_k, "indep_k"),
        field_width,
        scheme.master_seed,
    )
    values = ([params.n_cap] + [st.retries for st in scheme.stages]
              + ([scheme.w_size] if len(seeds) > 1 else []))
    section = {"header": head, "scalars": b"".join(
        struct.pack("<I", _u32(value, name))
        for value, name in zip(values, _scalar_names(len(seeds))))}
    nb = _elem_bytes(field_width)
    for suffix, seed, st in zip(_suffixes(len(seeds)), seeds, scheme.stages):
        section["seed" + suffix] = struct.pack("<I", _u32(seed.indep_k, "indep_k")) + b"".join(
            [c.to_bytes(nb, "little") for c in seed.coeffs])
        if st.bitmap.nbits != params.s:
            raise InvariantViolation(
                f"bitmap{suffix} of {st.bitmap.nbits} bits, expected s = {params.s}")
        section["bitmap" + suffix] = struct.pack("<Q", st.bitmap.nbits) + st.bitmap.to_bytes()
    return b"".join([section[name] for name, _, _ in section_layout(head)])


def _parse_header(data: bytes) -> dict:
    if len(data) < 4:
        raise TruncatedSection("shorter than the magic")
    if data[:4] != MAGIC:
        raise BadMagic(f"bad magic {data[:4]!r}")
    if len(data) < 6:
        raise TruncatedSection("truncated before format_version")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {version}, expected {FORMAT_VERSION}")
    if len(data) < HEADER_SIZE:
        raise TruncatedSection("truncated header")
    (_, _, kind, universe_bits, log2_s, d, eps_num, eps_den, indep_k,
     field_width, master_seed) = _HEADER.unpack_from(data, 0)
    if kind not in _CLASSES:
        raise InvariantViolation(f"unknown kind {kind}")
    if not 0 < eps_num < eps_den or math.gcd(eps_num, eps_den) != 1:
        raise InvariantViolation(f"eps = {eps_num}/{eps_den} is not a reduced fraction in (0, 1)")
    if field_width not in FIELD_WIDTHS:
        raise InvariantViolation(f"unsupported field width {field_width}")
    if universe_bits < 1 or d < 1 or indep_k < 1:
        raise InvariantViolation("universe_bits, d and indep_k must be >= 1")
    if log2_s > field_width or universe_bits > field_width:
        raise InvariantViolation("log2_s or universe_bits exceeds the field width")
    if (1 << universe_bits) * d > 1 << field_width:
        raise InvariantViolation("m*d edge indices do not fit in the field")
    return {
        "kind": kind, "universe_bits": universe_bits, "log2_s": log2_s,
        "d": d, "eps": Fraction(eps_num, eps_den), "indep_k": indep_k,
        "field_width": field_width, "master_seed": master_seed,
    }


def section_layout(data: bytes) -> list:
    """(name, offset, length) of every region, from the header alone."""
    h = _parse_header(data)
    stages = _CLASSES[h["kind"]].STAGES
    seed_len = 4 + h["indep_k"] * _elem_bytes(h["field_width"])
    bitmap_len = 8 + (((1 << h["log2_s"]) + 7) >> 3)
    regions = [("header", HEADER_SIZE), ("scalars", 4 * len(_scalar_names(stages)))]
    regions += [(name + suffix, length)
                for name, length in [("seed", seed_len), ("bitmap", bitmap_len)]
                for suffix in _suffixes(stages)]
    layout, pos = [], 0
    for name, length in regions:
        layout.append((name, pos, length))
        pos += length
    return layout


def load(data: bytes) -> Scheme:
    """Parse a scheme file back into its scheme object: the file must be as
    long as section_layout says, and each section is read at its offset."""
    h = _parse_header(data)
    cls = _CLASSES[h["kind"]]
    layout = section_layout(data)
    for name, off, length in layout:
        if off + length > len(data):
            raise TruncatedSection(f"truncated {name}: {len(data)} of {off + length} bytes")
    if off + length != len(data):
        raise InvariantViolation(f"{len(data) - off - length} trailing bytes after sections")
    view = memoryview(data)
    section = {name: view[off:off + length] for name, off, length in layout}
    n_cap, *retries = struct.unpack(f"<{len(section['scalars']) // 4}I", section["scalars"])
    w_size = retries.pop() if cls.STAGES > 1 else 0
    params = _sized(h["universe_bits"], n_cap, h["eps"], h["field_width"],
                    h["d"], h["log2_s"])
    field = FieldSpec(h["field_width"])
    nb = _elem_bytes(field.width_bits)
    stages = []
    for suffix, n in zip(_suffixes(cls.STAGES), retries):
        raw = section["seed" + suffix]
        (count,) = struct.unpack_from("<I", raw)
        if count != h["indep_k"]:
            raise InvariantViolation(f"seed count {count} != header indep_k {h['indep_k']}")
        coeffs = tuple(int.from_bytes(raw[i:i + nb], "little") for i in range(4, len(raw), nb))
        for c in coeffs:
            if c >= field.order:
                raise InvariantViolation(f"seed element {c} outside the field")
        raw = section["bitmap" + suffix]
        (nbits,) = struct.unpack_from("<Q", raw)
        if nbits != 1 << h["log2_s"]:
            raise InvariantViolation(f"bitmap of {nbits} bits, expected s = {1 << h['log2_s']}")
        stages.append(Stage(SeededGraph(params, PolySeed(coeffs, field)),
                            Bitmap(nbits, raw[8:]), n))
    return cls(tuple(stages), h["master_seed"], w_size)
