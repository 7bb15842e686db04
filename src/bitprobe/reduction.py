"""Checkers for the reduction properties that drive seed acceptance.

A left vertex x violates relative to a marked set when at least
ceil(eps*d) of its d probe slots land on marked right vertices.  Slots are
counted with multiplicity, so the count over Gamma(A) is an upper bound on
the distinct-vertex overlap and slot_count/d is exactly the query's
false-positive probability.  The strong property asks for no violators on
a scope; the plain property tolerates up to |A|/2 of them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import Bitmap
from .graph import SeededGraph, edge_targets, marked_neighbors, neighbor

# Points per slot_overlap_counts chunk: bounds the int64 neighbor table
# (8 bytes per slot, 2 MiB) that a scan holds at once.
SCAN_CHUNK_POINTS = 1 << 18


@dataclass(frozen=True)
class ReductionReport:
    violating: tuple
    scope_size: int

    @property
    def holds(self) -> bool:
        return not self.violating


def overlap_threshold(d: int, eps) -> int:
    """Violation threshold ceil(eps * d); ties at exactly eps*d violate."""
    return math.ceil(Fraction(eps) * d)


def probe_overlap(g: SeededGraph, v: int, marked: Bitmap) -> int:
    """Number of probe slots of v whose target bit is set in ``marked``."""
    d = g.params.d
    return sum(marked.get(neighbor(g, v, i)) for i in range(d))


def slot_overlap_counts(g: SeededGraph, marked_flags: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-row slot overlap against a boolean marked array, chunked."""
    d = g.params.d
    rows = np.asarray(rows, dtype=np.int64)
    counts = np.zeros(len(rows), dtype=np.int64)
    rows_per_chunk = max(1, SCAN_CHUNK_POINTS // d)
    for lo in range(0, len(rows), rows_per_chunk):
        hi = min(len(rows), lo + rows_per_chunk)
        tg = edge_targets(g, rows[lo:hi])
        hits = np.flatnonzero(marked_flags[tg.ravel()])
        if hits.size:
            counts[lo:hi] += np.bincount(hits // d, minlength=hi - lo)
    return counts


def check_strong_reduction(g: SeededGraph, A, eps, scope=None) -> ReductionReport:
    """Report every scope vertex with >= ceil(eps*d) slots in Gamma(A).

    ``scope=None`` means all of L outside A.  An explicit scope must be
    disjoint from A; the violating sequence comes back in ascending order.
    """
    p = g.params
    A = set(A)
    if scope is None:
        rows = np.setdiff1d(np.arange(p.m, dtype=np.int64),
                            np.fromiter(A, dtype=np.int64, count=len(A)))
    else:
        scope = set(scope)
        if scope & A:
            raise ValueError("scope must be disjoint from A")
        rows = np.asarray(sorted(scope), dtype=np.int64)
    if not rows.size:
        return ReductionReport((), 0)
    counts = slot_overlap_counts(g, marked_neighbors(g, A), rows)
    violating = tuple(int(v) for v in rows[counts >= overlap_threshold(p.d, eps)])
    return ReductionReport(violating, len(rows))
