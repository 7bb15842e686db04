"""Brute-force ground truth: exact error profiles, exhaustive expander
verification on tiny graphs, and exact k-wise uniformity enumeration.

Everything here enumerates; nothing samples.  Budgets are hard limits and
blowing one raises, because an oracle that silently falls back to sampling
is not an oracle.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bmrv import Labeling
from .gf import FieldSpec, poly_eval, seed_from_index
from .graph import ExplicitGraph
from .reduction import slot_overlap_counts
from .scheme import Scheme

# error_profile default: at most 2^20 universe elements times the probe count.
PROBE_BUDGET_ELEMENTS = 1 << 20
# verify_expander default: total subsets enumerated.
DEFAULT_SUBSET_BUDGET = 200_000


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class ErrorProfile:
    """Exact per-element error probabilities for a whole universe."""

    max_member_error: Fraction
    max_nonmember_error: Fraction
    histogram: dict
    false_negative_count: int
    per_element: tuple


def error_profile(target, A, budget: int | None = None) -> ErrorProfile:
    """Enumerate every probe of every universe element and report exact
    (rational) error probabilities.

    ``target`` is a scheme or a ``(graph, labeling)`` pair; ``A`` is the
    stored set the target encodes.  For a scheme of several stages the
    per-element true-answer count over all d^stages probe tuples factors
    exactly into the product of the per-stage slot overlaps, which is what
    gets computed.
    """
    if isinstance(target, Scheme):
        stages = [(st.graph, st.bitmap) for st in target.stages]
    else:
        g, lab = target
        stages = [(g, lab.bits if isinstance(lab, Labeling) else lab)]

    m = stages[0][0].params.m
    d = stages[0][0].params.d
    probes_per_element = d * len(stages)
    cap = budget if budget is not None else PROBE_BUDGET_ELEMENTS * probes_per_element
    if m * probes_per_element > cap:
        raise BudgetExceeded(
            f"{m * probes_per_element} probe evaluations exceed budget {cap}")

    rows = np.arange(m, dtype=np.int64)
    true_rate = np.full(m, Fraction(1))
    for g, bm in stages:
        counts = slot_overlap_counts(g, bm.as_bool_array(), rows)
        true_rate = true_rate * [Fraction(int(c), d) for c in counts]

    members = set(A)
    per_element = tuple(1 - rate if x in members else rate
                        for x, rate in enumerate(true_rate))
    member_errors = [per_element[x] for x in sorted(members)]
    nonmember_errors = [err for x, err in enumerate(per_element) if x not in members]
    return ErrorProfile(max(member_errors, default=Fraction(0)),
                        max(nonmember_errors, default=Fraction(0)),
                        dict(Counter(per_element)),
                        sum(err > 0 for err in member_errors), per_element)


def verify_expander(g: ExplicitGraph, k_max: int, delta,
                    budget: int = DEFAULT_SUBSET_BUDGET) -> bool:
    """Exhaustively check |Gamma(A)| >= (1-delta) d |A| for every |A| <= k_max."""
    p = g.params
    delta = Fraction(delta)
    total = sum(math.comb(p.m, j) for j in range(1, k_max + 1))
    if total > budget:
        raise BudgetExceeded(f"{total} subsets exceed budget {budget}")
    neighbor_sets = [frozenset(int(w) for w in row) for row in g.adjacency]
    for j in range(1, k_max + 1):
        need = (1 - delta) * p.d * j
        for A in itertools.combinations(range(p.m), j):
            gamma = set()
            for v in A:
                gamma |= neighbor_sets[v]
            if len(gamma) < need:
                return False
    return True


def kwise_uniformity_check(field: FieldSpec, indep_k: int, points) -> bool:
    """Exact joint-uniformity check by enumerating every seed of the family.

    Over all |F|^indep_k seeds, the output tuples on the given distinct
    points must cover (F)^len(points) with equal multiplicity.
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
    for idx in range(n_seeds):
        seed = seed_from_index(idx, indep_k, field)
        counts[tuple(poly_eval(seed, x) for x in points)] += 1
    return len(counts) == n_tuples and all(c == expected for c in counts.values())
