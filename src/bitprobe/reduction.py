"""The one overlap counter, and the reduction check behind seed acceptance.

A left vertex x violates relative to a marked set when at least
ceil(eps*d) of its d probe slots land on marked right vertices.  Slots are
counted with multiplicity, so the count over Gamma(A) is an upper bound on
the distinct-vertex overlap and slot_count/d is exactly the query's
false-positive probability.  The strong property asks for no violators on
a scope; the plain property tolerates up to |A|/2 of them.  Every count
reads the marked set as a packed ``Bitmap``, the bytes a scheme file stores.

``slot_overlap_counts`` is the one counter.  It hands the rows to
``gf.overlap_counts``, which evaluates and tests each slot in one compiled
loop.  Where that loop cannot run, it counts through
``scan_overlap_counts``: the edge scan, then a numpy test of each target's
bit.  The scan is also the reference that the oracle checks the fused
count against.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import Bitmap
from .gf import overlap_counts
from .graph import SeededGraph, edge_targets, left_vertices, neighborhood_bitmap

# Points per scan_overlap_counts chunk: bounds the int64 neighbor table
# (8 bytes per slot, 2 MiB) that a scan holds at once.
SCAN_CHUNK_POINTS = 1 << 18


@dataclass(frozen=True)
class ReductionReport:
    violating: tuple
    scope_size: int
    marked: Bitmap  # the Gamma(A) the scope was counted against, as encoders store it

    @property
    def holds(self) -> bool:
        return not self.violating


def overlap_threshold(d: int, eps) -> int:
    """Violation threshold ceil(eps * d); ties at exactly eps*d violate."""
    return math.ceil(Fraction(eps) * d)


def slot_overlap_counts(g: SeededGraph, marked: Bitmap, rows) -> np.ndarray:
    """Per-row count of probe slots whose target bit is set in ``marked``,
    in row order: the compiled fused count where it runs, else the scan."""
    rows = left_vertices(g, rows)
    counts = overlap_counts(g.seed, rows, g.params.d, g.params.s, marked.to_bytes())
    return scan_overlap_counts(g, marked, rows) if counts is None else counts


def scan_overlap_counts(g: SeededGraph, marked: Bitmap, rows) -> np.ndarray:
    """slot_overlap_counts on the numpy route: the edge scan, then each
    target's bit, SCAN_CHUNK_POINTS points at a time."""
    d = g.params.d
    packed = np.frombuffer(marked.to_bytes(), dtype=np.uint8)
    counts = np.zeros(len(rows), dtype=np.int64)
    rows_per_chunk = max(1, SCAN_CHUNK_POINTS // d)
    for lo in range(0, len(rows), rows_per_chunk):
        hi = min(len(rows), lo + rows_per_chunk)
        tg = edge_targets(g, rows[lo:hi])
        hit = packed.take(tg >> 3)  # bit w is packed[w >> 3] >> (w & 7) & 1
        hit >>= tg.astype(np.uint8) & 7
        hit &= 1
        counts[lo:hi] = hit.sum(axis=1, dtype=np.int64)
    return counts


def check_strong_reduction(g: SeededGraph, A, eps, scope=None) -> ReductionReport:
    """Report every scope vertex with >= ceil(eps*d) slots in Gamma(A).

    ``scope=None`` means all of L outside A.  An explicit scope must be
    disjoint from A; the violating sequence comes back in ascending order.
    """
    p = g.params
    A = set(A)
    if scope is None:
        is_outside = np.ones(p.m, dtype=bool)
        is_outside[left_vertices(g, sorted(A))] = False
        rows = np.flatnonzero(is_outside)
    else:
        scope = set(scope)
        if scope & A:
            raise ValueError("scope must be disjoint from A")
        rows = left_vertices(g, sorted(scope))
    marked = neighborhood_bitmap(g, A)
    counts = slot_overlap_counts(g, marked, rows)
    violating = tuple(int(v) for v in rows[counts >= overlap_threshold(p.d, eps)])
    return ReductionReport(violating, len(rows), marked)
