"""Greedy alternating relabeling: the one-probe two-sided-error baseline.

Start by labeling Gamma(A) with ones.  Then alternate sides: find every
outside vertex with too many 1-labeled slots and clear all its neighbors;
find every member with too many 0-labeled slots and set all its neighbors;
repeat until the current side is clean.  On a good expander the erroneous
set halves each round, so the loop ends within O(log m) rounds.  A vertex
counts as erroneous when >= ceil(eps*d) of its slots disagree with its
membership, matching the reduction checkers' tie rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import scheme
from .bits import Bitmap
from .graph import SeededGraph, edge_targets
from .reduction import SCAN_CHUNK_POINTS, overlap_threshold, slot_overlap_counts
from .scheme import Scheme, Stage, check_set


class NonConvergence(Exception):
    """Relabeling still had erroneous vertices after the iteration cap."""

    def __init__(self, iterations: int, trace: tuple, pending: int):
        self.iterations = iterations
        self.trace = trace
        self.pending = pending
        super().__init__(
            f"labeling not converged after {iterations} rounds "
            f"(pending erroneous: {pending}, trace: {list(trace)})"
        )


@dataclass(frozen=True)
class Labeling:
    """What greedy_label returns: bits over [0, s); iterations = relabeling
    rounds performed (the initial Gamma(A) marking counts as round 1 when
    A is nonempty); trace = erroneous-set size per subsequent round."""

    bits: Bitmap
    iterations: int
    trace: tuple


def default_max_iters(m: int) -> int:
    return 2 * math.ceil(math.log2(max(m, 2))) + 2


def greedy_label(g: SeededGraph, A, eps) -> Labeling:
    """Run the alternating relabeling for A; raises NonConvergence after
    default_max_iters(m) rounds.  Each round packs the labels into a
    Bitmap, counts its side's slots against it through slot_overlap_counts
    and rewrites only Gamma(erroneous), in chunks of SCAN_CHUNK_POINTS
    points; the last round's Bitmap is the labeling."""
    p = g.params
    threshold = overlap_threshold(p.d, eps)
    members = np.asarray(check_set(A, p), dtype=np.int64)
    is_outside = np.ones(p.m, dtype=bool)
    is_outside[members] = False
    outside = np.flatnonzero(is_outside)
    step = max(1, SCAN_CHUNK_POINTS // p.d)
    labels = np.zeros(p.s, dtype=bool)
    labels[edge_targets(g, members).ravel()] = True

    iterations = 1 if members.size else 0
    trace = []
    outside_turn = True
    while True:
        rows = outside if outside_turn else members
        bits = Bitmap.from_bool_array(labels)
        ones = slot_overlap_counts(g, bits, rows)
        erroneous = rows[(ones if outside_turn else p.d - ones) >= threshold]
        if not erroneous.size:
            break
        if iterations >= default_max_iters(p.m):
            raise NonConvergence(iterations, tuple(trace), int(erroneous.size))
        for lo in range(0, erroneous.size, step):
            labels[edge_targets(g, erroneous[lo:lo + step]).ravel()] = not outside_turn
        iterations += 1
        trace.append(int(erroneous.size))
        outside_turn = not outside_turn

    return Labeling(bits, iterations, tuple(trace))


class BmrvScheme(Scheme):
    """A converged labeling over a seeded graph, ready to answer queries."""

    KIND = 3
    TWO_SIDED = True

    @property
    def graph(self) -> SeededGraph:
        return self.stages[0].graph

    @staticmethod
    def build_stages(A, eps, search):
        """The first seed whose relabeling converges; its labels are the bitmap."""
        def converged(g):
            try:
                return greedy_label(g, A, eps)
            except NonConvergence:
                return None

        g, lab, retries = search(converged, "no seed produced a converged labeling")
        return (Stage(g, lab.bits, retries),), 0


def encode(A, universe_bits: int, eps, **options) -> BmrvScheme:
    """Build the scheme for A; the options are those of `scheme.encode`."""
    return scheme.encode(BmrvScheme, A, universe_bits, eps, **options)


def query(sch: BmrvScheme, x: int, rng) -> bool:
    """Read the label of one random neighbor of x."""
    return scheme.query(sch, x, rng)
