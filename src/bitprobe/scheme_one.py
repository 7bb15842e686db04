"""One-probe membership scheme with one-sided error.

Encoding keeps drawing graph seeds until the strong reduction property
holds for A, then stores the seed (the cached word) next to the packed
indicator of Gamma(A) (the main storage).  A query evaluates the seed
polynomial once to pick a bit position and reads exactly that one bit:
members always read a 1; a non-member reads a 1 with probability
slot_overlap/d < eps.
"""

import random

from . import scheme
from .gf import GF2_64, FieldSpec
from .graph import GraphParams, SeededGraph, neighborhood_bitmap
from .reduction import check_strong_reduction
from .scheme import DEFAULT_MAX_RETRIES, Scheme, Stage, check_set, search


class OneProbeScheme(Scheme):
    """One stage whose bitmap is the indicator of Gamma(A)."""

    KIND = 1

    @property
    def graph(self) -> SeededGraph:
        return self.stages[0].graph


def encode_with_params(A, params: GraphParams, *, indep_k: int,
                       master_seed: int = 0,
                       max_retries: int = DEFAULT_MAX_RETRIES,
                       field: FieldSpec = GF2_64) -> OneProbeScheme:
    """Retry loop over explicit params; `encode` derives them first."""
    A = check_set(A, params)
    g, _, retries = search(
        random.Random(master_seed), params, indep_k, field, max_retries,
        lambda g: check_strong_reduction(g, A, params.eps, scope=None).holds or None,
        "strong reduction failed for every seed")
    return OneProbeScheme((Stage(g, neighborhood_bitmap(g, A), retries),), master_seed)


def encode(A, universe_bits: int, eps, **options) -> OneProbeScheme:
    """Build the scheme for A; the options are those of `scheme.encode`."""
    return scheme.encode(encode_with_params, A, universe_bits, eps, **options)


def query(sch: OneProbeScheme, x: int, probe_src) -> bool:
    """Answer "x in A?" with a single bit read from the stored bitmap."""
    return scheme.query(sch, x, probe_src)
