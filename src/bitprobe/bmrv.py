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
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import scheme
from .bits import Bitmap
from .gf import GF2_64, FieldSpec
from .graph import Graph, GraphParams, SeededGraph, edge_targets
from .reduction import overlap_threshold
from .scheme import DEFAULT_MAX_RETRIES, Scheme, Stage, check_set, search


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
    """bits over [0, s); iterations = relabeling rounds performed (the
    initial Gamma(A) marking counts as round 1 when A is nonempty); trace =
    erroneous-set size per subsequent round."""

    bits: Bitmap
    iterations: int
    trace: tuple
    rounds: tuple | None = None


def default_max_iters(m: int) -> int:
    return 2 * math.ceil(math.log2(max(m, 2))) + 2


def greedy_label(g: Graph, A, eps, max_iters: int | None = None,
                 record_rounds: bool = False) -> Labeling:
    """Run the alternating relabeling for A; raises NonConvergence at the cap."""
    p = g.params
    eps = Fraction(eps)
    threshold = overlap_threshold(p.d, eps)
    if max_iters is None:
        max_iters = default_max_iters(p.m)
    A = check_set(A, p)

    targets = edge_targets(g)
    member = np.zeros(p.m, dtype=bool)
    member[A] = True
    labels = np.zeros(p.s, dtype=bool)
    labels[targets[A].ravel()] = True

    iterations = 1 if A else 0
    trace = []
    rounds = [] if record_rounds else None
    outside_turn = True
    while True:
        ones = labels[targets].sum(axis=1)
        if outside_turn:
            erroneous = np.flatnonzero(~member & (ones >= threshold))
        else:
            erroneous = np.flatnonzero(member & (p.d - ones >= threshold))
        if not erroneous.size:
            break
        if iterations >= max_iters:
            raise NonConvergence(iterations, tuple(trace), int(erroneous.size))
        touched = np.unique(targets[erroneous].ravel())
        if record_rounds:
            changed = touched[labels[touched] == outside_turn]
            rounds.append((iterations + 1,
                           "clear" if outside_turn else "set",
                           tuple(int(v) for v in erroneous),
                           tuple(int(w) for w in changed)))
        labels[touched] = not outside_turn
        iterations += 1
        trace.append(int(erroneous.size))
        outside_turn = not outside_turn

    return Labeling(Bitmap.from_bool_array(labels), iterations, tuple(trace),
                    tuple(rounds) if record_rounds else None)


@dataclass(frozen=True)
class LabelingReport:
    max_member_error: Fraction
    max_nonmember_error: Fraction
    eps: Fraction
    passed: bool


def verify_labeling(g: Graph, A, eps, lab: Labeling | Bitmap) -> LabelingReport:
    """Worst wrong-slot fraction per side; passes iff both are <= eps."""
    p = g.params
    eps = Fraction(eps)
    bits = lab.bits if isinstance(lab, Labeling) else lab
    labels = bits.as_bool_array()
    targets = edge_targets(g)
    ones = labels[targets].sum(axis=1)
    member = np.zeros(p.m, dtype=bool)
    idx = sorted(set(A))
    member[idx] = True
    member_err = Fraction(int((p.d - ones[member]).max()), p.d) if idx else Fraction(0)
    outside = ones[~member]
    nonmember_err = Fraction(int(outside.max()), p.d) if outside.size else Fraction(0)
    return LabelingReport(member_err, nonmember_err, eps,
                          member_err <= eps and nonmember_err <= eps)


class BmrvScheme(Scheme):
    """A converged labeling over a seeded graph, ready to answer queries."""

    KIND = 3
    TWO_SIDED = True

    @property
    def graph(self) -> SeededGraph:
        return self.stages[0].graph


def encode_with_params(A, params: GraphParams, *, indep_k: int,
                       master_seed: int = 0,
                       max_retries: int = DEFAULT_MAX_RETRIES,
                       field: FieldSpec = GF2_64,
                       max_iters: int | None = None) -> BmrvScheme:
    """Draw seeds until the greedy relabeling converges for A."""
    def converged(g):
        try:
            return greedy_label(g, A, params.eps, max_iters)
        except NonConvergence:
            return None

    g, lab, retries = search(random.Random(master_seed), params, indep_k, field,
                             max_retries, converged, "no seed produced a converged labeling")
    return BmrvScheme((Stage(g, lab.bits, retries),), master_seed)


def encode(A, universe_bits: int, eps, **options) -> BmrvScheme:
    """Build the scheme for A; options as in `scheme.encode`, plus max_iters."""
    return scheme.encode(encode_with_params, A, universe_bits, eps, **options)


def query(sch: BmrvScheme, x: int, probe_src) -> bool:
    """Read the label of one random (or chosen) neighbor of x."""
    return scheme.query(sch, x, probe_src)
