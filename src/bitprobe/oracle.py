"""Brute-force ground truth: exact error profiles of stored schemes.

Every error count here enumerates; nothing samples.  Budgets are hard
limits and blowing one raises, because an oracle that silently falls back
to sampling is not an oracle.  ``slot_overlap_counts`` counts each stage
against its stored Bitmap as it is.

The encoder and the oracle share one evaluation kernel and one counter, so
a fault in either would otherwise certify itself.  Samples per stage,
drawn by an rng keyed by the seed, cross-check them:

- on both routes, edge indices, evaluated by the edge scan's
  ``poly_eval_block`` and again by ``gf.reference_block`` on a route that
  the scan does not take: numpy on the compiled route, pure Python on the
  numpy route;
- on the compiled route only, left vertices, whose entries in the full
  fused count that the profile multiplies are counted again by
  ``reduction.scan_overlap_counts``, the edge scan and a numpy bit test.

On the compiled route the fused count evaluates through the very ``horner``
loop that the edge sample checks, and the count sample checks its walk over
the rows, mask and bit test, however it split the rows over threads.  The
edge sample's reference there is numpy alone, and it evaluates in another
order than that loop: from k = 18 on it splits the coefficients into rows
and combines their values by Horner in x^L (see ``gf.reference_block``), so
that its ``EDGE_SAMPLES`` points cost about 2*sqrt(2k) numpy steps instead
of k - 1.  On the numpy route ``slot_overlap_counts`` is
``scan_overlap_counts``, so a count sample there would compare the scan
with itself; it is not drawn, and the edge sample checks the kernel.

Every stage's full count runs on one worker thread.  The compiled count
releases the GIL, so there the calling thread checks the samples
meanwhile; the numpy scan would only contend for the GIL, so there the
samples wait for the count.  The count sample is compared once the
worker has joined, no count is used until every sample has passed, and
the worker is joined before ``error_profile`` returns or raises.
"""

import random
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import compiled, poly_eval_block, reference_block
from .graph import SeededGraph, left_vertices
from .reduction import scan_overlap_counts, slot_overlap_counts
from .scheme import Scheme

# error_profile default: at most 2^20 universe elements times the probe count.
PROBE_BUDGET_ELEMENTS = 1 << 20
# Edges per stage that error_profile re-derives on a second route.
EDGE_SAMPLES = 256
# Left vertices per stage whose full compiled count error_profile re-counts on the scan.
COUNT_SAMPLES = 16


class BudgetExceeded(Exception):
    pass


class KernelMismatch(Exception):
    """The edge scan and its reference route disagree on a sampled edge, or
    the full count and the scan on a sampled left vertex."""


@dataclass(frozen=True, eq=False)
class ErrorProfile:
    """Exact errors over a whole universe, as integer counts: element x is
    answered wrongly by per_element[x] of the ``denominator`` equally likely
    probe tuples.  ``member`` flags the stored set; eps and two_sided are
    the guarantee that ``holds`` checks."""

    per_element: np.ndarray
    denominator: int
    member: np.ndarray
    eps: Fraction
    two_sided: bool

    def _worst(self, side: np.ndarray) -> Fraction:
        errors = self.per_element[side]
        return Fraction(int(errors.max()) if errors.size else 0, self.denominator)

    @property
    def max_member_error(self) -> Fraction:
        return self._worst(self.member)

    @property
    def max_nonmember_error(self) -> Fraction:
        return self._worst(~self.member)

    @property
    def false_negative_count(self) -> int:
        return int(np.count_nonzero(self.per_element[self.member]))

    @property
    def holds(self) -> bool:
        """The verdict.  One-sided (one, two): no member errs and every
        non-member errs below eps.  Two-sided (bmrv): both sides err at
        most eps."""
        if self.two_sided:
            return max(self.max_member_error, self.max_nonmember_error) <= self.eps
        return self.false_negative_count == 0 and self.max_nonmember_error < self.eps


def _check_samples(g: SeededGraph, marked, stage: int):
    """Raise KernelMismatch unless, drawn by an rng keyed by the seed,
    ``EDGE_SAMPLES`` edge indices evaluate the same through
    ``poly_eval_block`` (the route of the edge scan) as through
    ``reference_block`` (a route the scan does not take).  On the compiled
    route, return ``COUNT_SAMPLES`` left vertices drawn next and their
    counts of slots on set bits of ``marked`` through
    ``scan_overlap_counts``, for ``error_profile`` to compare with its full
    count; on the numpy route that count is the scan, so return None."""
    p = g.params
    rng = random.Random(repr(g.seed.coeffs))
    edges = np.array([rng.randrange(p.m * p.d) for _ in range(EDGE_SAMPLES)], dtype=np.uint64)
    scanned = poly_eval_block(g.seed, edges)
    route, reference = reference_block(g.seed, edges)
    bad = np.flatnonzero(scanned != reference)
    if bad.size:
        i = bad[0]
        raise KernelMismatch(f"stage {stage}: edge index {edges[i]} evaluates to {scanned[i]} "
                             f"in the edge scan but to {reference[i]} on the {route} route")
    if not compiled():
        return None
    rows = np.array([rng.randrange(p.m) for _ in range(COUNT_SAMPLES)], dtype=np.int64)
    return rows, scan_overlap_counts(g, marked, rows)


def error_profile(sch: Scheme, A, budget: int | None = None) -> ErrorProfile:
    """Enumerate every probe of every universe element and report exact
    error counts for the scheme that stores A.

    The number of probe tuples (one slot per stage, d^stages of them) that
    answer x true factors into the product of the per-stage slot overlaps.
    The product is exact in int64: derived sizing has 2 d^2 n_cap <= s
    <= 2^64, so d^2 < 2^63.  Each stage's edge scan, and on the compiled
    route its full count, is cross-checked on samples (see
    ``_check_samples``); a disagreement raises KernelMismatch before any
    count is multiplied.  The full counts of all stages run on a worker
    thread, beside this thread's sample checks on the compiled route.  An
    edge sample's KernelMismatch, or else whatever the count raised, or
    else a count sample's, is raised once the worker has ended.
    """
    p = sch.params
    stages = len(sch.stages)
    probes_per_element = p.d * stages
    cap = budget if budget is not None else PROBE_BUDGET_ELEMENTS * probes_per_element
    if p.m * probes_per_element > cap:
        raise BudgetExceeded(
            f"{p.m * probes_per_element} probe evaluations exceed budget {cap}")
    A = left_vertices(sch.stages[0].graph, list(A))
    rows = np.arange(p.m, dtype=np.int64)
    counts, failed = [], []

    def count_stages():
        try:
            counts.extend(slot_overlap_counts(st.graph, st.bitmap, rows) for st in sch.stages)
        except BaseException as e:  # handed to the calling thread, which raises it
            failed.append(e)

    worker = threading.Thread(target=count_stages, name="error_profile count")
    worker.start()
    try:
        if not compiled():  # the numpy scan holds the GIL too, and would only contend
            worker.join()
        samples = [_check_samples(st.graph, st.bitmap, i) for i, st in enumerate(sch.stages, 1)]
    finally:
        worker.join()
    if failed:
        raise failed[0]
    for number, (counted, sample) in enumerate(zip(counts, samples), 1):
        if sample is None:
            continue
        sampled, scan = sample
        bad = np.flatnonzero(counted[sampled] != scan)
        if bad.size:
            i, v = bad[0], sampled[bad[0]]
            raise KernelMismatch(f"stage {number}: left vertex {v} has {counted[v]} probe "
                                 f"slots on set bits in the count but {scan[i]} in the edge scan")
    answered_true = np.ones(p.m, dtype=np.int64)
    for stage_counts in counts:
        answered_true *= stage_counts
    denominator = p.d ** stages
    member = np.zeros(p.m, dtype=bool)
    member[A] = True
    per_element = np.where(member, denominator - answered_true, answered_true)
    return ErrorProfile(per_element, denominator, member, p.eps, sch.TWO_SIDED)
