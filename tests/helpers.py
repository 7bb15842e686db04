"""Shared test fixtures: independent reference implementations and toy
graph builders.  The reference code here deliberately reimplements field
arithmetic from scratch so library bugs cannot hide behind themselves.
"""

import functools
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bitprobe.bits import Bitmap
from bitprobe.bmrv import BmrvScheme
from bitprobe.gf import GF2_64, FieldSpec, PolySeed, draw_seed, poly_eval
from bitprobe.graph import GraphParams, SeededGraph, edge_targets, neighbor
from bitprobe.oracle import BudgetExceeded
from bitprobe.scheme import Stage

# The smaller fields, which only the tests use; the library's default is GF2_64.
GF2_3 = FieldSpec(3)
GF2_8 = FieldSpec(8)
GF2_16 = FieldSpec(16)
GF2_32 = FieldSpec(32)

# verify_expander default: total subsets enumerated.
DEFAULT_SUBSET_BUDGET = 200_000


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


def field_mul(a, b, field: FieldSpec = GF2_64):
    """The library's GF(2^b) product: its Horner pass on the polynomial
    a*t at t = b, which rejects an operand outside the field."""
    return poly_eval(PolySeed((0, a), field), b)


def kwise_uniformity_check(field: FieldSpec, indep_k: int, points) -> bool:
    """Exact joint-uniformity check by enumerating every seed of the family.

    Over all |F|^indep_k seeds (drawn in index order through CounterRng),
    the output tuples on the given distinct points must cover
    (F)^len(points) with equal multiplicity.
    """
    if field.width_bits != 3:
        raise ValueError("exhaustive check supports width 3 only")
    if indep_k > 3:
        raise ValueError("indep_k must be <= 3 (at most 512 seeds)")
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("evaluation points must be distinct")
    order = field.order
    n_seeds = order ** indep_k
    n_tuples = order ** len(points)
    expected, rem = divmod(n_seeds, n_tuples)
    if rem or expected == 0:
        return False
    counts = Counter()
    rng = CounterRng()
    for _ in range(n_seeds):
        seed = draw_seed(rng, indep_k, field)
        counts[tuple(poly_eval(seed, x) for x in points)] += 1
    return len(counts) == n_tuples and all(c == expected for c in counts.values())


class FixedProbes:
    """Stands in for a query's rng: ``randrange`` returns the given probe
    indices in order, one per stage."""

    def __init__(self, *indices):
        self._indices = iter(indices)

    def randrange(self, d):
        return next(self._indices)


def naive_poly_eval(coeffs, x, width, poly_mask):
    """Reference power-sum evaluation: sum of c_j * x^j, each power the
    one before times x."""
    total, xj = 0, 1
    for c in coeffs:
        total ^= naive_gf_mul(c, xj, width, poly_mask)
        xj = naive_gf_mul(xj, x, width, poly_mask)
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


def probe_overlap(g: SeededGraph, v: int, marked: Bitmap) -> int:
    """Reference slot overlap: how many of v's probe slots read a 1 in
    ``marked``, by scalar ``neighbor`` and ``Bitmap.get``, one slot at a
    time.  The library counts through ``reduction.slot_overlap_counts``."""
    return sum(marked.get(neighbor(g, v, i)) for i in range(g.params.d))


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


_GF16_ORDER = (1 << 16) - 1  # of the multiplicative group


@functools.cache
def _gf16_tables():
    """Antilog and log tables of GF(2^16) mod x^16 + x^5 + x^3 + x + 1 (the
    library's polynomial) over powers of the generator x + 1, built with
    shifts and XORs alone.  log[0] is 2 * order and exp is zero from there
    up, so a product or quotient with a zero operand looks up 0."""
    powers, a = [], 1
    for _ in range(_GF16_ORDER):
        powers.append(a)
        a ^= a << 1  # times x + 1
        if a >> 16:
            a ^= 0x1002B
    assert a == 1 and len(set(powers)) == _GF16_ORDER  # x + 1 generates
    exp = np.zeros(4 * _GF16_ORDER + 1, dtype=np.int64)
    exp[:2 * _GF16_ORDER] = powers + powers
    log = np.full(1 << 16, 2 * _GF16_ORDER, dtype=np.int64)
    log[powers] = np.arange(_GF16_ORDER)
    return exp, log


def _gf16_mul(a, b):
    exp, log = _gf16_tables()
    return exp[log[a] + log[b]]


def _gf16_div(a, b):
    """a / b for nonzero b."""
    exp, log = _gf16_tables()
    return exp[log[a] - log[b] + _GF16_ORDER]


def interpolating_coeffs(ys) -> np.ndarray:
    """Coefficients (x^0 first) of the polynomial over GF(2^16) of degree
    below n = len(ys) <= 2^16 that takes the value ys[j] at the field
    element j: Newton divided differences, then the Newton form expanded
    by Horner."""
    c = np.array(ys, dtype=np.int64)
    xs = np.arange(len(c), dtype=np.int64)
    for level in range(1, len(c)):
        c[level:] = _gf16_div(c[level:] ^ c[level - 1:-1], xs[level:] ^ xs[:-level])
    coeffs = np.zeros(len(c), dtype=np.int64)
    for j in range(len(c) - 1, -1, -1):  # coeffs <- coeffs * (x + j) + c[j]
        shifted = _gf16_mul(coeffs, xs[j])
        shifted[1:] ^= coeffs[:-1]
        shifted[0] ^= c[j]
        coeffs = shifted
    return coeffs


def edge_table(g):
    """The neighbor table of all of L."""
    return edge_targets(g, range(g.params.m))


def explicit_graph(rows, s, eps=Fraction(1, 2), n_cap=None):
    """A seeded graph with exactly the given per-vertex neighbor lists: its
    GF(2^16) seed polynomial interpolates the table at the edge indices
    0 ... m*d - 1.  Checking the table through ``edge_targets`` also checks
    the bulk evaluator at k = m*d against an independent construction."""
    table = np.array(rows, dtype=np.int64)
    m, d = table.shape
    params = toy_params(m, s, d, eps, n_cap=n_cap if n_cap is not None else max(1, m - 1))
    coeffs = tuple(int(c) for c in interpolating_coeffs(table.ravel()))
    g = SeededGraph(params, PolySeed(coeffs, GF2_16))
    assert np.array_equal(edge_table(g), table)
    return g


def random_rows(rng: random.Random, m, s, d):
    return [[rng.randrange(s) for _ in range(d)] for _ in range(m)]


def random_explicit_graph(rng: random.Random, m, s, d, eps=Fraction(1, 2), n_cap=None):
    return explicit_graph(random_rows(rng, m, s, d), s, eps, n_cap)


def verify_expander(adjacency, k_max, delta, budget=DEFAULT_SUBSET_BUDGET) -> bool:
    """Exhaustively check |Gamma(A)| >= (1-delta) d |A| for every |A| <= k_max
    of an (m, d) neighbor table; neighborhoods are int bitsets."""
    m, d = np.shape(adjacency)
    total = sum(math.comb(m, j) for j in range(1, k_max + 1))
    if total > budget:
        raise BudgetExceeded(f"{total} subsets exceed budget {budget}")
    masks = [sum(1 << w for w in set(map(int, row))) for row in adjacency]
    for j in range(1, k_max + 1):
        need = math.ceil((1 - Fraction(delta)) * d * j)
        for A in itertools.combinations(masks, j):
            if functools.reduce(operator.or_, A).bit_count() < need:
                return False
    return True


def check_reduction_property(adjacency, A, eps) -> bool:
    """The plain reduction property of an (m, d) neighbor table, by brute
    force: at most |A|/2 vertices outside A have >= ceil(eps*d) probe
    slots in Gamma(A)."""
    adjacency = np.asarray(adjacency)
    m, d = adjacency.shape
    A = sorted(set(A))
    gamma = np.zeros(int(adjacency.max()) + 1, dtype=bool)
    gamma[adjacency[A].ravel()] = True
    outside = np.ones(m, dtype=bool)
    outside[A] = False
    slots = gamma[adjacency].sum(axis=1)
    violators = np.count_nonzero(outside & (slots >= math.ceil(Fraction(eps) * d)))
    return violators <= len(A) // 2


# Parameters for which a random graph is a verified expander most of the
# time and the expansion-to-reduction implication is exhaustively checkable.
TINY_M, TINY_S, TINY_D, TINY_K_MAX = 24, 2048, 8, 4
TINY_DELTA = Fraction(1, 8)
TINY_EPS = Fraction(1, 2)  # delta = eps/4


def verified_tiny_expanders(count, master_seed=2024, n_cap=TINY_K_MAX):
    """Deterministically generate `count` exhaustively verified tiny
    expanders; only accepted tables are interpolated."""
    rng = random.Random(master_seed)
    graphs = []
    attempts = 0
    while len(graphs) < count:
        attempts += 1
        if attempts > 20 * count:
            raise RuntimeError("expander generation stalled")
        rows = random_rows(rng, TINY_M, TINY_S, TINY_D)
        if verify_expander(rows, TINY_K_MAX, TINY_DELTA):
            graphs.append(explicit_graph(rows, TINY_S, TINY_EPS, n_cap))
    return graphs


def on_both_routes(argnames: str, cases):
    """Parametrize a test over cases, each on the compiled and on the numpy
    route (the ``route`` fixture of conftest.py).  A case keeps its plain
    id on the compiled route and gains "-numpy" on the numpy route."""
    params = []
    for case in cases:
        case = case if isinstance(case, tuple) else (case,)
        case_id = "-".join(map(str, case))
        params += [pytest.param(*case, "compiled", id=case_id),
                   pytest.param(*case, "numpy", id=f"{case_id}-numpy")]
    return pytest.mark.parametrize(f"{argnames},route", params, indirect=["route"])
