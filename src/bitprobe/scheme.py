"""The shape every scheme shares: stages of (seeded graph, bitmap).

A stage pairs a pseudo-random graph, given by its polynomial seed (the
cached word), with a bitmap over the graph's right side (the main storage).
`one` and `bmrv` have one stage, `two` has two.  A kind class gives only
`build_stages`, its seed-acceptance rule and stage bitmap; the set check,
the seed stream, the retry loop, the query and the exact rate live here.
"""

import numbers
import random
from dataclasses import dataclass
from fractions import Fraction

from .bits import Bitmap
from .gf import GF2_64, FieldSpec, default_indep_k, draw_seed
from .graph import GraphParams, SeededGraph, derive_params, neighbor
from .reduction import slot_overlap_counts

DEFAULT_MAX_RETRIES = 64


class RetriesExhausted(Exception):
    """Every candidate seed failed verification."""

    def __init__(self, attempts: int, detail: str = "no candidate seed accepted"):
        self.attempts = attempts
        super().__init__(f"{detail} after {attempts} attempts "
                         f"(failure rate {attempts}/{attempts})")


@dataclass(frozen=True)
class Stage:
    """A seeded graph, the bitmap over its right side, and the seeds drawn."""

    graph: SeededGraph
    bitmap: Bitmap
    retries: int


@dataclass(frozen=True)
class Scheme:
    """Stages over graphs of one shape; w_size is |W|, the set that stages
    after the first were checked on.  Subclasses set KIND (the file code),
    STAGES, TWO_SIDED (whether members may err) and build_stages."""

    stages: tuple
    master_seed: int = 0
    w_size: int = 0

    STAGES = 1
    TWO_SIDED = False

    @property
    def params(self) -> GraphParams:
        return self.stages[0].graph.params

    @property
    def bitmap_bits(self) -> int:
        return sum(st.bitmap.nbits for st in self.stages)

    @property
    def cache_bits(self) -> int:
        return sum(st.graph.seed.indep_k * st.graph.seed.field.width_bits
                   for st in self.stages)

    @property
    def retries(self) -> int:
        return sum(st.retries for st in self.stages)


def check_set(A, params: GraphParams) -> list:
    """A sorted and deduplicated, after checking it is integers that fit the graph."""
    A = sorted(set(A))
    if not all(isinstance(x, numbers.Integral) for x in A):
        raise ValueError("elements must be integers")
    if A and (A[0] < 0 or A[-1] >= params.m):
        raise ValueError("element out of range [0, m)")
    if len(A) > params.n_cap:
        raise ValueError(f"|A| = {len(A)} exceeds n_cap = {params.n_cap}")
    return A


def encode(cls, A, universe_bits: int, eps, *, n_cap: int | None = None,
           indep_k: int | None = None, field: FieldSpec = GF2_64, **options):
    """Size the graph for A (n_cap defaults to |A|, indep_k to u^2) and build
    a cls scheme by `encode_with_params` with the other options."""
    A = set(A)  # |A|; check_set sorts and checks it
    if n_cap is None:
        n_cap = max(len(A), 1)
    params = derive_params(universe_bits, n_cap, Fraction(eps), field)
    if indep_k is None:
        indep_k = default_indep_k(universe_bits)
    return encode_with_params(cls, A, params, indep_k=indep_k, field=field, **options)


def encode_with_params(cls, A, params: GraphParams, *, indep_k: int, master_seed: int = 0,
                       max_retries: int = DEFAULT_MAX_RETRIES, field: FieldSpec = GF2_64):
    """Check A, then get the stages and w_size from ``cls.build_stages(A,
    eps, search)``.  ``search(accept, detail)`` draws seeds from master_seed's
    stream until ``accept(graph)`` is not None and returns (graph, that
    result, seeds drawn), or raises RetriesExhausted(detail)."""
    A = check_set(A, params)
    rng = random.Random(master_seed)

    def search(accept, detail: str):
        for attempt in range(1, max_retries + 1):
            g = SeededGraph(params, draw_seed(rng, indep_k, field))
            result = accept(g)
            if result is not None:
                return g, result, attempt
        raise RetriesExhausted(max_retries, detail)

    stages, w_size = cls.build_stages(A, params.eps, search)
    return cls(stages, master_seed, w_size)


def draw_probes(rng, stages: int, d: int) -> list:
    """One probe index per stage, drawn from rng in stage order."""
    drawn = []  # a loop: a comprehension's frame costs more per query on 3.11
    for _ in range(stages):
        drawn.append(rng.randrange(d))
    return drawn


def query(sch: Scheme, x: int, rng) -> bool:
    """AND of one bit from each stage's bitmap.  The reads stop at the
    first 0; the probe indices are all drawn from rng up front (the probes
    are non-adaptive)."""
    stages = sch.stages
    p = stages[0].graph.params
    if not 0 <= x < p.m:
        raise ValueError(f"element {x} out of range [0, {p.m})")
    for st, i in zip(stages, draw_probes(rng, len(stages), p.d)):
        if not st.bitmap.get(neighbor(st.graph, x, i)):
            return False
    return True


def exact_error(sch: Scheme, x: int) -> Fraction:
    """Exact probability that query(x) answers true over uniform probes:
    the product over stages of the share of x's probe slots that read 1."""
    rate = Fraction(1)
    for st in sch.stages:
        (ones,) = slot_overlap_counts(st.graph, st.bitmap, [x])
        rate *= Fraction(int(ones), sch.params.d)
    return rate
