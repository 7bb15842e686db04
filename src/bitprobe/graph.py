"""Left-regular bipartite graphs given by a polynomial seed.

A seeded graph never stores its edge set: the i-th neighbor of left
vertex v is the low log2(s) bits of the seed polynomial evaluated at the
edge index v*d + i.  The seed is the scheme's cached word, so the graph is
exactly the output of the pseudo-random generator.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import Bitmap
from .gf import GF2_64, FieldSpec, PolySeed, poly_eval, poly_eval_block


@dataclass(frozen=True)
class GraphParams:
    """Graph shape: universe m, set capacity n_cap, right part s = 2^log2_s,
    left degree d, error budget eps (exact rational)."""

    m: int
    n_cap: int
    s: int
    log2_s: int
    d: int
    eps: Fraction

    def __post_init__(self):
        if self.n_cap < 1 or self.m < self.n_cap:
            raise ValueError("need m >= n_cap >= 1")
        if self.d < 1:
            raise ValueError("degree must be >= 1")
        if self.log2_s < 0 or self.s != 1 << self.log2_s:
            raise ValueError("s must be the power of two 2^log2_s")
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")


def derive_params(universe_bits: int, n_cap: int, eps,
                  field: FieldSpec = GF2_64) -> GraphParams:
    """Size a graph for a 2^universe_bits universe and sets of <= n_cap.

    d = ceil(2u / eps); s = the smallest power of two >= 2 d^2 n_cap, so
    rounding never more than doubles the right part.
    """
    if universe_bits < 1:
        raise ValueError("universe_bits must be >= 1")
    if n_cap < 1:
        raise ValueError("n_cap must be >= 1")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    m = 1 << universe_bits
    if n_cap > m:
        raise ValueError("n_cap exceeds universe size")
    d = math.ceil(Fraction(2 * universe_bits) / eps)
    if m * d > 1 << field.width_bits:
        raise ValueError(
            f"m*d = {m * d} edge indices do not fit in the "
            f"{field.width_bits}-bit field"
        )
    s_raw = 2 * d * d * n_cap
    log2_s = max(0, (s_raw - 1).bit_length())
    return GraphParams(m=m, n_cap=n_cap, s=1 << log2_s, log2_s=log2_s, d=d, eps=eps)


@dataclass(frozen=True)
class SeededGraph:
    """Graph defined functionally by (params, seed); immutable."""

    params: GraphParams
    seed: PolySeed

    def __post_init__(self):
        w = self.seed.field.width_bits
        if self.params.log2_s > w:
            raise ValueError(f"log2_s={self.params.log2_s} exceeds field width {w}")
        if self.params.m * self.params.d > 1 << w:
            raise ValueError("m*d edge indices do not fit in the seed's field")


def neighbor(g: SeededGraph, v: int, i: int) -> int:
    """The i-th neighbor of left vertex v; one polynomial evaluation."""
    p = g.params
    if not 0 <= v < p.m:
        raise ValueError(f"left vertex {v} out of range [0, {p.m})")
    if not 0 <= i < p.d:
        raise ValueError(f"probe index {i} out of range [0, {p.d})")
    return poly_eval(g.seed, v * p.d + i) & (p.s - 1)


def left_vertices(g: SeededGraph, vs) -> np.ndarray:
    """vs as a contiguous int64 array; non-integers raise, and so does the
    first vertex outside [0, m), named as ``neighbor`` names it."""
    m = g.params.m
    vs = np.asarray(vs)  # an int beyond int64 comes as uint64 or object, named below
    if vs.size and vs.dtype.kind not in "biuO":
        raise ValueError(f"left vertices must be integers, not {vs.dtype}")
    bad = vs[(vs < 0) | (vs >= m)]
    if bad.size:
        raise ValueError(f"left vertex {bad[0]} out of range [0, {m})")
    return np.ascontiguousarray(vs, dtype=np.int64)


def edge_targets(g: SeededGraph, vs) -> np.ndarray:
    """Neighbor table for the given left vertices.

    Returns an int64 array of shape (len(vs), d); row order follows vs.
    """
    p = g.params
    vs = left_vertices(g, vs)
    pts = (vs[:, None].astype(np.uint64) * np.uint64(p.d)
           + np.arange(p.d, dtype=np.uint64)).ravel()
    out = poly_eval_block(g.seed, pts)
    out &= np.uint64(p.s - 1)
    return out.view(np.int64).reshape(len(vs), p.d)


def neighborhood_bitmap(g: SeededGraph, A) -> Bitmap:
    """The stored string: bit w set iff some probe slot of A lands on w."""
    tg = edge_targets(g, sorted(A)).ravel()
    packed = np.zeros((g.params.s + 7) >> 3, dtype=np.uint8)
    np.bitwise_or.at(packed, tg >> 3, np.left_shift(1, tg & 7).astype(np.uint8))
    return Bitmap(g.params.s, packed)
