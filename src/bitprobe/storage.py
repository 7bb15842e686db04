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
    n_cap           u32
    retries         u32            kinds 1 and 3
    retries1/retries2/w_size  3*u32   kind 2
    --- sections ---
    seed section    count:u32 (= indep_k), then count elements of
                    ceil(field_width/8) bytes each, little-endian
    bitmap section  nbits:u64 (= 2^log2_s), then ceil(nbits/8) bytes,
                    bits packed LSB-first within bytes
    kind 1, 3:  one seed section, one bitmap section
    kind 2:     seed1, seed2, bitmap1, bitmap2

Every section offset is computable from the header alone, so the bitmap
can be read without touching the seed and vice versa.
"""

import struct
from fractions import Fraction

from .bits import Bitmap
from .bmrv import BmrvScheme
from .gf import FIELDS_BY_WIDTH, PolySeed
from .graph import GraphParams
from .scheme_one import OneProbeScheme
from .scheme_two import TwoProbeScheme

MAGIC = b"BPS1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBIIIIIIBQ")
HEADER_SIZE = _HEADER.size  # 40

KIND_ONE_PROBE = 1
KIND_TWO_PROBE = 2
KIND_BMRV = 3


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


def _universe_bits(params: GraphParams) -> int:
    u = params.m.bit_length() - 1
    if 1 << u != params.m:
        raise InvariantViolation(f"m={params.m} is not a power of two")
    return u


def _elem_bytes(width: int) -> int:
    return (width + 7) >> 3


def _pack_seed(seed: PolySeed) -> bytes:
    nb = _elem_bytes(seed.field.width_bits)
    out = [struct.pack("<I", _u32(len(seed.coeffs), "indep_k"))]
    out += [c.to_bytes(nb, "little") for c in seed.coeffs]
    return b"".join(out)


def _pack_bitmap(bm: Bitmap) -> bytes:
    return struct.pack("<Q", bm.nbits) + bm.to_bytes()


def _header_bytes(kind, params, indep_k, field_width, master_seed) -> bytes:
    eps = params.eps
    return _HEADER.pack(
        MAGIC, FORMAT_VERSION, kind,
        _u32(_universe_bits(params), "universe_bits"),
        _u32(params.log2_s, "log2_s"),
        _u32(params.d, "d"),
        _u32(eps.numerator, "eps_num"),
        _u32(eps.denominator, "eps_den"),
        _u32(indep_k, "indep_k"),
        field_width,
        master_seed,
    )


def save(scheme) -> bytes:
    """Serialize a scheme; equal schemes produce identical bytes."""
    if not 0 <= scheme.master_seed < 1 << 64:
        raise InvariantViolation("master_seed does not fit in u64")
    params = scheme.params
    if isinstance(scheme, OneProbeScheme):
        head = _header_bytes(KIND_ONE_PROBE, params, scheme.seed.indep_k,
                             scheme.seed.field.width_bits, scheme.master_seed)
        scalars = struct.pack("<II", _u32(params.n_cap, "n_cap"),
                              _u32(scheme.retries_used, "retries"))
        return head + scalars + _pack_seed(scheme.seed) + _pack_bitmap(scheme.bitmap)
    if isinstance(scheme, TwoProbeScheme):
        if scheme.seed1.indep_k != scheme.seed2.indep_k:
            raise InvariantViolation("stage seeds disagree on indep_k")
        head = _header_bytes(KIND_TWO_PROBE, params, scheme.seed1.indep_k,
                             scheme.seed1.field.width_bits, scheme.master_seed)
        scalars = struct.pack("<IIII", _u32(params.n_cap, "n_cap"),
                              _u32(scheme.retries_stage1, "retries1"),
                              _u32(scheme.retries_stage2, "retries2"),
                              _u32(scheme.w_size, "w_size"))
        return (head + scalars
                + _pack_seed(scheme.seed1) + _pack_seed(scheme.seed2)
                + _pack_bitmap(scheme.bitmap1) + _pack_bitmap(scheme.bitmap2))
    if isinstance(scheme, BmrvScheme):
        head = _header_bytes(KIND_BMRV, params, scheme.seed.indep_k,
                             scheme.seed.field.width_bits, scheme.master_seed)
        scalars = struct.pack("<II", _u32(params.n_cap, "n_cap"),
                              _u32(scheme.retries_used, "retries"))
        return head + scalars + _pack_seed(scheme.seed) + _pack_bitmap(scheme.bits)
    raise TypeError(f"cannot serialize {type(scheme).__name__}")


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
    if kind not in (KIND_ONE_PROBE, KIND_TWO_PROBE, KIND_BMRV):
        raise InvariantViolation(f"unknown kind {kind}")
    if eps_den == 0 or eps_num == 0 or eps_num >= eps_den:
        raise InvariantViolation(f"eps = {eps_num}/{eps_den} is not in (0, 1)")
    if field_width not in FIELDS_BY_WIDTH:
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
    two = h["kind"] == KIND_TWO_PROBE
    seed_len = 4 + h["indep_k"] * _elem_bytes(h["field_width"])
    bitmap_len = 8 + (((1 << h["log2_s"]) + 7) >> 3)
    layout = [("header", 0, HEADER_SIZE),
              ("scalars", HEADER_SIZE, 16 if two else 8)]
    pos = layout[-1][1] + layout[-1][2]
    names = (["seed1", "seed2", "bitmap1", "bitmap2"] if two else ["seed", "bitmap"])
    for name in names:
        length = seed_len if name.startswith("seed") else bitmap_len
        layout.append((name, pos, length))
        pos += length
    return layout


class _Reader:
    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedSection(f"truncated {what}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def _read_seed(r: _Reader, h: dict) -> PolySeed:
    count = r.u32("seed count")
    if count != h["indep_k"]:
        raise InvariantViolation(f"seed count {count} != header indep_k {h['indep_k']}")
    field = FIELDS_BY_WIDTH[h["field_width"]]
    nb = _elem_bytes(field.width_bits)
    raw = r.take(count * nb, "seed elements")
    coeffs = tuple(int.from_bytes(raw[i * nb:(i + 1) * nb], "little")
                   for i in range(count))
    for c in coeffs:
        if c >= field.order:
            raise InvariantViolation(f"seed element {c} outside the field")
    return PolySeed(coeffs, field)


def _read_bitmap(r: _Reader, h: dict) -> Bitmap:
    nbits = r.u64("bitmap length")
    if nbits != 1 << h["log2_s"]:
        raise InvariantViolation(f"bitmap of {nbits} bits, expected s = {1 << h['log2_s']}")
    return Bitmap.from_bytes(nbits, r.take((nbits + 7) >> 3, "bitmap bytes"))


def load(data: bytes):
    """Parse a scheme file back into its scheme object."""
    h = _parse_header(data)
    r = _Reader(data, HEADER_SIZE)
    n_cap = r.u32("n_cap")
    m = 1 << h["universe_bits"]
    if not 1 <= n_cap <= m:
        raise InvariantViolation(f"n_cap={n_cap} outside [1, m]")
    params = GraphParams(m=m, n_cap=n_cap, s=1 << h["log2_s"],
                         log2_s=h["log2_s"], d=h["d"], eps=h["eps"])
    if h["kind"] == KIND_TWO_PROBE:
        retries1 = r.u32("retries1")
        retries2 = r.u32("retries2")
        w_size = r.u32("w_size")
        seed1 = _read_seed(r, h)
        seed2 = _read_seed(r, h)
        bm1 = _read_bitmap(r, h)
        bm2 = _read_bitmap(r, h)
        scheme = TwoProbeScheme(params, seed1, bm1, seed2, bm2, w_size,
                                retries1, retries2, h["master_seed"])
    else:
        retries = r.u32("retries")
        seed = _read_seed(r, h)
        bm = _read_bitmap(r, h)
        cls = OneProbeScheme if h["kind"] == KIND_ONE_PROBE else BmrvScheme
        scheme = cls(params, seed, bm, retries, h["master_seed"])
    if r.pos != len(data):
        raise InvariantViolation(f"{len(data) - r.pos} trailing bytes after sections")
    return scheme
