"""Two-probe scheme with the efficient-encoding structure.

Stage one draws a graph until the misclassified set W (outside vertices
breaking strong reduction) has at most |A|/2 members.  Stage two draws a
second graph checked only on W, which costs O(|W| d) per candidate instead
of a full left scan.  A query ANDs one bit from each stage's bitmap: for
x outside A at least one of the two marginal read-1 probabilities is below
eps, so the product is too.

The stage-one decoder here is a brute-force left scan standing in for an
explicit expander's list decoder, so encoding is polynomial in m rather
than in (n, log m); the interface is the misclassified-set contract, so a
decodable graph could be dropped in.
"""

import random

from . import scheme
from .gf import GF2_64, FieldSpec
from .graph import Graph, GraphParams, SeededGraph, neighborhood_bitmap
from .reduction import check_strong_reduction
from .scheme import DEFAULT_MAX_RETRIES, Scheme, Stage, check_set, search


def compute_misclassified(g1: Graph, A, eps) -> list:
    """W: outside vertices with >= ceil(eps*d) probe slots in Gamma(A)."""
    return list(check_strong_reduction(g1, A, eps, scope=None).violating)


class TwoProbeScheme(Scheme):
    """Two stages, each bitmap the indicator of Gamma(A) in its own graph."""

    KIND = 2
    STAGES = 2

    @property
    def g1(self) -> SeededGraph:
        return self.stages[0].graph

    @property
    def g2(self) -> SeededGraph:
        return self.stages[1].graph


def encode_with_params(A, params: GraphParams, *, indep_k: int,
                       master_seed: int = 0,
                       max_retries: int = DEFAULT_MAX_RETRIES,
                       field: FieldSpec = GF2_64) -> TwoProbeScheme:
    A = check_set(A, params)
    rng = random.Random(master_seed)

    def few_misclassified(g):
        w = compute_misclassified(g, A, params.eps)
        return w if len(w) <= len(A) // 2 else None

    g1, w, retries1 = search(rng, params, indep_k, field, max_retries, few_misclassified,
                             "stage 1: |W| bound failed for every seed")
    g2, _, retries2 = search(
        rng, params, indep_k, field, max_retries,
        lambda g: check_strong_reduction(g, A, params.eps, scope=w).holds or None,
        "stage 2: restricted reduction failed for every seed")
    return TwoProbeScheme((Stage(g1, neighborhood_bitmap(g1, A), retries1),
                           Stage(g2, neighborhood_bitmap(g2, A), retries2)),
                          master_seed, len(w))


def encode(A, universe_bits: int, eps, **options) -> TwoProbeScheme:
    """Build the scheme for A; the options are those of `scheme.encode`."""
    return scheme.encode(encode_with_params, A, universe_bits, eps, **options)


def query(sch: TwoProbeScheme, x: int, probe_src, short_circuit: bool = True) -> bool:
    """AND of one bit from each stage; at most two reads, one if the first
    bit is 0 and short-circuiting is on.  Both probe indices are drawn up
    front either way (the pair is non-adaptive)."""
    return scheme.query(sch, x, probe_src, short_circuit)
