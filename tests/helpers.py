"""Shared test fixtures: independent reference implementations and toy
graph builders.  The reference code here deliberately reimplements field
arithmetic from scratch so library bugs cannot hide behind themselves.
"""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from bitprobe.bits import Bitmap
from bitprobe.bmrv import BmrvScheme
from bitprobe.graph import ExplicitGraph, GraphParams
from bitprobe.oracle import verify_expander
from bitprobe.scheme import Stage


def naive_gf_mul(a, b, width, poly_mask):
    """Reference GF(2^w) product: bit convolution, then long division."""
    prod = 0
    for i in range(width):
        if (a >> i) & 1:
            for j in range(width):
                if (b >> j) & 1:
                    prod ^= 1 << (i + j)
    full = poly_mask | (1 << width)
    for bit in range(2 * width - 2, width - 1, -1):
        if (prod >> bit) & 1:
            prod ^= full << (bit - width)
    return prod


def sym_mul3(a, b):
    """GF(2^3) product via symbolic rewriting x^3 -> x+1, x^4 -> x^2+x."""
    coeffs = [0] * 5
    for i in range(3):
        for j in range(3):
            if (a >> i) & 1 and (b >> j) & 1:
                coeffs[i + j] ^= 1
    if coeffs[4]:
        coeffs[2] ^= 1
        coeffs[1] ^= 1
    if coeffs[3]:
        coeffs[1] ^= 1
        coeffs[0] ^= 1
    return coeffs[0] | (coeffs[1] << 1) | (coeffs[2] << 2)


class CounterRng:
    """Counter standing in for an rng, for exhaustive seed enumeration.

    ``getrandbits(n)`` returns successive integers 0, 1, 2, ... so that
    ``draw_seed`` walks the full seed space in index order.  Raises once
    the counter no longer fits in n bits (the space is exhausted).
    """

    def __init__(self, start: int = 0):
        self._next = start

    def getrandbits(self, n: int) -> int:
        value = self._next
        if value >= 1 << n:
            raise ValueError(f"seed space of {n} bits exhausted")
        self._next = value + 1
        return value


def naive_poly_eval(coeffs, x, width, poly_mask):
    """Reference power-sum evaluation: sum of c_j * x^j."""
    total = 0
    for j, c in enumerate(coeffs):
        xj = 1
        for _ in range(j):
            xj = naive_gf_mul(xj, x, width, poly_mask)
        total ^= naive_gf_mul(c, xj, width, poly_mask)
    return total


class CountingBitmap(Bitmap):
    """Bitmap that counts get() calls; the probe-accounting instrument."""

    def __init__(self, nbits, buf=None):
        super().__init__(nbits, buf)
        self.reads = 0

    @classmethod
    def wrap(cls, bitmap: Bitmap) -> "CountingBitmap":
        return cls(bitmap.nbits, bytearray(bitmap.to_bytes()))

    def get(self, i):
        self.reads += 1
        return super().get(i)


def with_bitmaps(sch, *bitmaps):
    """The scheme with its stage bitmaps replaced, in stage order."""
    stages = tuple(replace(st, bitmap=bm) for st, bm in zip(sch.stages, bitmaps))
    return replace(sch, stages=stages)


def scheme_of(*stages, kind=BmrvScheme):
    """A scheme of the given kind over hand-built (graph, bitmap) stages,
    e.g. a greedy labeling of an explicit graph."""
    return kind(tuple(Stage(g, bits, 0) for g, bits in stages))


def toy_params(m, s, d, eps, n_cap=1):
    return GraphParams(m=m, n_cap=n_cap, s=s, log2_s=s.bit_length() - 1,
                       d=d, eps=Fraction(eps))


def explicit_graph(rows, s, eps=Fraction(1, 2), n_cap=None):
    """Explicit graph from a list of per-vertex neighbor lists."""
    m = len(rows)
    d = len(rows[0])
    params = toy_params(m, s, d, eps, n_cap=n_cap if n_cap is not None else max(1, m - 1))
    return ExplicitGraph(params, np.array(rows, dtype=np.int64))


def random_explicit_graph(rng: random.Random, m, s, d, eps=Fraction(1, 2), n_cap=None):
    rows = [[rng.randrange(s) for _ in range(d)] for _ in range(m)]
    return explicit_graph(rows, s, eps, n_cap)


# Parameters for which a random graph is a verified expander most of the
# time and the expansion-to-reduction implication is exhaustively checkable.
TINY_M, TINY_S, TINY_D, TINY_K_MAX = 24, 2048, 8, 4
TINY_DELTA = Fraction(1, 8)
TINY_EPS = Fraction(1, 2)  # delta = eps/4


def verified_tiny_expanders(count, master_seed=2024, n_cap=TINY_K_MAX):
    """Deterministically generate `count` oracle-verified tiny expanders."""
    rng = random.Random(master_seed)
    graphs = []
    attempts = 0
    while len(graphs) < count:
        attempts += 1
        if attempts > 20 * count:
            raise RuntimeError("expander generation stalled")
        g = random_explicit_graph(rng, TINY_M, TINY_S, TINY_D, TINY_EPS, n_cap=n_cap)
        if verify_expander(g, TINY_K_MAX, TINY_DELTA):
            graphs.append(g)
    return graphs
