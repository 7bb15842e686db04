"""Binary field arithmetic and the seeded polynomial hash family.

Field elements of GF(2^b) are plain ints in [0, 2^b).  Bit i of an element
is the coefficient of x^i (LSB-first).  Addition is XOR.  Multiplication is
a carry-less product reduced modulo a fixed irreducible polynomial; the
degree-b term is implicit, so ``reduction_poly`` stores only the low part.

Supported widths and their reduction polynomials (all irreducible over
GF(2), verified independently):

    b = 3    x^3 + x + 1                      mask 0x03
    b = 8    x^8 + x^4 + x^3 + x + 1          mask 0x1B
    b = 16   x^16 + x^5 + x^3 + x + 1         mask 0x2B
    b = 32   x^32 + x^7 + x^3 + x^2 + 1       mask 0x8D
    b = 64   x^64 + x^4 + x^3 + x + 1         mask 0x1B

A hash function of the family is a polynomial over one of these fields,
held as a :class:`PolySeed` (coefficient of x^j at position j).  Seeds are
drawn from a deterministic bit stream so that encoding runs are
reproducible; a counter standing in for the stream enumerates the whole
seed space.

Evaluation has two routes with the same values, and this module alone
picks between them.  The compiled one is the Horner loop of ``_clmul.c``
on the CPU's carry-less multiply, a CPython extension built on the first
evaluation and cached (see ``_clmul``).  Its entry points, each given the
coefficient bytes, width and mask that the seed caches once:

- ``poly_eval_block`` hands it a whole array of points;
- ``poly_eval`` hands it one point;
- ``overlap_counts`` hands it left vertices and a packed bitmap, and gets
  back each vertex's count of probe slots on set bits, evaluated and
  tested in one loop with the GIL released.

Where the machine cannot run it, the first two fall back to a numpy
bit-split Horner (``_numpy_block``) and a pure-Python one (``_horner``),
and ``overlap_counts`` gives None, so that ``reduction`` counts on its
numpy edge scan.  ``compiled`` tells which route runs.
``reference_block`` evaluates on the route that ``poly_eval_block`` does
not take, so that the oracle can check it.  Every route rejects a point
outside the field before it evaluates.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _clmul

_REDUCTION_POLYS = {3: 0x03, 8: 0x1B, 16: 0x2B, 32: 0x8D, 64: 0x1B}
FIELD_WIDTHS = tuple(_REDUCTION_POLYS)
# x^w is the XOR of x^f over these f: the shifts that fold a bit above w down.
_FOLD_SHIFTS = {w: tuple(f for f in range(w) if r >> f & 1) for w, r in _REDUCTION_POLYS.items()}


@dataclass(frozen=True)
class FieldSpec:
    """A supported GF(2^b), given by its width; the width fixes the
    reduction polynomial mask."""

    width_bits: int

    def __post_init__(self):
        if self.width_bits not in _REDUCTION_POLYS:
            raise ValueError(
                f"unsupported field width {self.width_bits}; supported: {list(FIELD_WIDTHS)}")

    @property
    def reduction_poly(self) -> int:
        return _REDUCTION_POLYS[self.width_bits]

    @property
    def order(self) -> int:
        return 1 << self.width_bits


GF2_64 = FieldSpec(64)


def _check_element(v: int, field: FieldSpec, name: str) -> None:
    if not 0 <= v < field.order:
        raise ValueError(f"{name}={v} does not fit in {field.width_bits} bits")


def _horner(coeffs, x: int, w: int) -> int:
    """Horner over GF(2^w) for operands already in the field.  A step XORs
    acc << s over the set bits s of x, then folds the bits from w up by the
    reduction polynomial's shifts: twice when a fold at w = 64 overflows."""
    x_bits = [s for s in range(x.bit_length()) if (x >> s) & 1]
    folds = _FOLD_SHIFTS[w]
    mask = (1 << w) - 1
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        prod = 0
        for s in x_bits:
            prod ^= acc << s
        while hi := prod >> w:
            prod &= mask
            for f in folds:
                prod ^= hi << f
        acc = prod ^ c
    return acc


@dataclass(frozen=True)
class PolySeed:
    """Coefficients of a hash polynomial; the scheme's cached word.

    ``coeffs[j]`` is the coefficient of x^j.  The length of the tuple is
    the independence order of the family (degree + 1).
    """

    coeffs: tuple
    field: FieldSpec

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("seed needs at least one coefficient")
        for c in self.coeffs:
            _check_element(c, self.field, "coefficient")
        # (coefficient words as bytes, width, reduction mask): what the
        # compiled loop takes besides the points.  Made with the seed, so
        # that the first query after a load pays nothing for it; not a
        # field, so ==, hash and repr see only coeffs and field.
        words = np.array(self.coeffs, dtype=np.uint64).tobytes()
        object.__setattr__(self, "_kernel_args",
                           (words, self.field.width_bits, self.field.reduction_poly))

    @property
    def indep_k(self) -> int:
        return len(self.coeffs)


def poly_eval(seed: PolySeed, x: int) -> int:
    """Evaluate the seed polynomial at a single field element (Horner)."""
    words, w, mask = seed._kernel_args
    if x < 0 or x >> w:  # _check_element, inline on the serving path
        raise ValueError(f"x={x} does not fit in {w} bits")
    lib = _clmul._lib()
    if lib is None:
        return _horner(seed.coeffs, x, w)
    return lib.horner1(words, x, w, mask)


# ---------------------------------------------------------------------------
# Bulk evaluation over numpy uint64 arrays.
#
# poly_eval_block passes the array to the compiled loop when it is loaded.
# The numpy route below is the fallback and the reference: a carry-less
# 32x32->64 multiply via the 4-way bit-split trick.  Operands are masked
# into four interleaved quarters so that plain integer products never carry
# into a used bit position of their residue class.  Horner multiplies
# by the same point x at every step, so the quarters of x's 32-bit limbs are
# masked once per chunk and a step masks only the accumulator's limbs.  A
# high limb of x that is zero across the chunk is skipped (edge indices are
# below 2^32 whenever m*d <= 2^32): a 64-bit step then takes two 32x32
# products instead of four, and its high word one fold instead of two.
# Chunks of 2^14 points keep each temporary at 128 KiB, inside a 2 MiB L2.
# ---------------------------------------------------------------------------

_U64 = np.uint64
_QMASK = [_U64(0x11111111 * (1 << i)) for i in range(4)]
_QMASK64 = [_U64(0x1111111111111111 * (1 << i)) for i in range(4)]
_S32 = _U64(32)
_CHUNK_POINTS = 1 << 14


def _quarters(limb):
    return [limb & q for q in _QMASK]


def _clmul32(xq, yq):
    """Carry-less product of two 32-bit limbs given as their quarters."""
    z = []
    for r in range(4):
        acc = xq[0] * yq[r]
        for i in (1, 2, 3):
            acc ^= xq[i] * yq[(r - i) & 3]
        acc &= _QMASK64[r]
        z.append(acc)
    return z[0] | z[1] | z[2] | z[3]


def _mul_point(acc, x_quarters, field: FieldSpec, bits):
    """acc * x, schoolbook over the 32-bit limbs whose quarters are given."""
    w = field.width_bits
    a_quarters = [_quarters(acc)] + ([_quarters(acc >> _S32)] if w == 64 else [])
    words = {}  # words[t]: XOR of the limb products shifted up by 32*t bits
    for i, aq in enumerate(a_quarters):
        for j, xq in enumerate(x_quarters):
            z = _clmul32(aq, xq)
            words[i + j] = words[i + j] ^ z if i + j in words else z
    if w < 64:
        # width <= 32: the whole product fits in a uint64; fold the top twice.
        prod = words[0]
        wmask = _U64((1 << w) - 1)
        for _ in range(2):
            hi = prod >> _U64(w)
            prod &= wmask
            for beta in bits:
                prod ^= hi << _U64(beta)
        return prod
    # Fold the high word modulo the field polynomial.  Only a high point
    # limb lifts it past 2^60, where the shifts push bits beyond bit 63;
    # XORed into its low end (the low part has degree <= 4), they fold too.
    lo = words[0] ^ (words[1] << _S32)
    hi = words[1] >> _S32
    if 2 in words:
        hi ^= words[2]
        hi ^= reduce(np.bitwise_xor, [hi >> _U64(64 - beta) for beta in bits if beta])
    for beta in bits:
        lo ^= hi << _U64(beta)
    return lo


def _field_points(seed: PolySeed, xs) -> np.ndarray:
    """xs as a contiguous uint64 array of points in the seed's field."""
    xs = np.ascontiguousarray(xs, dtype=np.uint64)
    w = seed.field.width_bits
    if w < 64 and xs.size and (top := int(xs.max())) >> w:
        raise ValueError(f"x={top} does not fit in {w} bits")
    return xs


def poly_eval_block(seed: PolySeed, xs) -> np.ndarray:
    """Evaluate the seed polynomial at every point of a uint64 array."""
    xs = _field_points(seed, xs)
    lib = _clmul._lib()
    if lib is None:
        return _numpy_block(seed, xs)
    out = np.empty_like(xs)
    words, w, mask = seed._kernel_args
    lib.horner(words, xs, out, w, mask)
    return out


def overlap_counts(seed: PolySeed, rows: np.ndarray, d: int, s: int, packed):
    """Per left vertex r of the contiguous int64 array rows, how many of
    the points r*d + i (i < d) evaluate to a value whose low log2(s) bits
    name a set bit of the LSB-first bytes packed: the compiled loop's fused
    count, which holds one block of points at a time and no neighbor table.
    None where the compiled loop cannot run, and the caller counts on the
    numpy route."""
    lib = _clmul._lib()
    if lib is None:
        return None
    out = np.empty(len(rows), dtype=np.int64)
    words, w, mask = seed._kernel_args
    lib.count(words, rows, out, d, s - 1, packed, w, mask)
    return out


def compiled() -> bool:
    """Whether the compiled loop runs here.  Its ``overlap_counts`` then
    releases the GIL, so another thread's Python runs beside it."""
    return _clmul._lib() is not None


def reference_block(seed: PolySeed, xs) -> tuple:
    """(route name, values): poly_eval_block evaluated on the route that it
    does not take here, numpy under the compiled loop and pure Python under
    the numpy fallback."""
    xs = _field_points(seed, xs)
    if compiled():
        return "numpy", _numpy_block(seed, xs)
    w = seed.field.width_bits
    values = [_horner(seed.coeffs, x, w) for x in xs.ravel().tolist()]
    return "pure-Python", np.array(values, dtype=np.uint64).reshape(xs.shape)


def _numpy_block(seed: PolySeed, xs: np.ndarray) -> np.ndarray:
    """poly_eval_block on the numpy route, for a contiguous uint64 array."""
    out = np.empty_like(xs)
    flat_xs, flat_out = xs.reshape(-1), out.reshape(-1)
    field = seed.field
    bits = _FOLD_SHIFTS[field.width_bits]
    for lo in range(0, flat_xs.size, _CHUNK_POINTS):
        x = flat_xs[lo:lo + _CHUNK_POINTS]
        x_quarters = [_quarters(x)]
        if field.width_bits == 64 and (x >> _S32).any():
            x_quarters.append(_quarters(x >> _S32))
        acc = np.full(x.shape, _U64(seed.coeffs[-1]))
        for c in reversed(seed.coeffs[:-1]):
            acc = _mul_point(acc, x_quarters, field, bits)
            acc ^= _U64(c)
        flat_out[lo:lo + _CHUNK_POINTS] = acc
    return out


# ---------------------------------------------------------------------------
# Seed drawing.
# ---------------------------------------------------------------------------


def default_indep_k(universe_bits: int) -> int:
    """Default independence order: (log2 m)^2 for a 2^u universe."""
    return universe_bits * universe_bits


def draw_seed(rng, indep_k: int, field: FieldSpec = GF2_64) -> PolySeed:
    """Draw the next seed from ``rng`` (anything with ``getrandbits``):
    coefficient j takes bits [j*b, (j+1)*b) of one getrandbits call.

    With indep_k <= 3 the polynomial has degree at most 2, and squaring is
    GF(2)-linear, so the neighbor map is affine over GF(2) in the bits of
    the edge index; no such seed has been seen to pass acceptance."""
    w = field.width_bits
    most = ((1 << 31) - 1) // w  # getrandbits takes a C int
    if not 1 <= indep_k <= most:
        raise ValueError(f"indep_k must be in [1, {most}] in GF(2^{w}), got {indep_k}")
    raw = rng.getrandbits(w * indep_k)
    mask = (1 << w) - 1
    return PolySeed(tuple((raw >> (j * w)) & mask for j in range(indep_k)), field)
