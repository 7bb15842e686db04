"""The shape every scheme shares: stages of (seeded graph, bitmap).

A stage pairs a pseudo-random graph, given by its polynomial seed (the
cached word), with a bitmap over the graph's right side (the main storage).
`one` and `bmrv` have one stage, `two` has two.  The kind modules keep only
the rule that accepts a candidate seed; the encode preamble, the retry
loop, the query and the exact positive rate live here.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bits import Bitmap
from .gf import GF2_64, FieldSpec, default_indep_k, draw_seed
from .graph import GraphParams, SeededGraph, derive_params, neighbor
from .reduction import probe_overlap

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
    after the first were checked on.  Subclasses set KIND (the code in
    scheme files), STAGES, and TWO_SIDED (whether members may err too)."""

    stages: tuple
    master_seed: int = 0
    w_size: int = 0

    STAGES = 1
    TWO_SIDED = False

    @property
    def params(self) -> GraphParams:
        return self.stages[0].graph.params

    @property
    def eps(self) -> Fraction:
        return self.params.eps

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
    """A sorted and deduplicated, after checking it fits the graph."""
    A = sorted(set(A))
    if A and (A[0] < 0 or A[-1] >= params.m):
        raise ValueError("element out of range [0, m)")
    if len(A) > params.n_cap:
        raise ValueError(f"|A| = {len(A)} exceeds n_cap = {params.n_cap}")
    return A


def encode(encode_with_params, A, universe_bits: int, eps, *, n_cap: int | None = None,
           indep_k: int | None = None, field: FieldSpec = GF2_64, **options):
    """Size the graph for A (n_cap defaults to |A|, indep_k to u^2), then
    build with a kind's ``encode_with_params``, which takes the other
    options (master_seed, max_retries, ...); deterministic."""
    A = sorted(set(A))
    if n_cap is None:
        n_cap = max(len(A), 1)
    params = derive_params(universe_bits, n_cap, Fraction(eps), field)
    if indep_k is None:
        indep_k = default_indep_k(universe_bits)
    return encode_with_params(A, params, indep_k=indep_k, field=field, **options)


def search(rng, params: GraphParams, indep_k: int, field: FieldSpec, max_retries: int,
           accept, detail: str):
    """Draw candidate seeds from rng until ``accept(graph)`` returns
    something other than None; returns the graph, that result and the
    number of candidates drawn."""
    for attempt in range(1, max_retries + 1):
        g = SeededGraph(params, draw_seed(rng, indep_k, field))
        result = accept(g)
        if result is not None:
            return g, result, attempt
    raise RetriesExhausted(max_retries, detail)


def resolve_probes(probe_src, stages: int, d: int):
    """One probe index per stage, all fixed before any read: given outright
    (an int for a single stage, a tuple or list of ints for several) or
    drawn from an rng in stage order."""
    if isinstance(probe_src, int):
        probe_src = (probe_src,)
    if not isinstance(probe_src, (tuple, list)):
        return [probe_src.randrange(d) for _ in range(stages)]
    if len(probe_src) != stages:
        raise ValueError(f"{len(probe_src)} probe indices for {stages} stages")
    for i in probe_src:
        if not 0 <= i < d:
            raise ValueError(f"probe index {i} out of range [0, {d})")
    return probe_src


def query(sch: Scheme, x: int, probe_src, short_circuit: bool = True) -> bool:
    """AND of one bit from each stage's bitmap.  The reads stop at the
    first 0 unless short_circuit is off; the probe indices are drawn up
    front either way (the probes are non-adaptive)."""
    p = sch.params
    if not 0 <= x < p.m:
        raise ValueError(f"element {x} out of range [0, {p.m})")
    answer = True
    for st, i in zip(sch.stages, resolve_probes(probe_src, len(sch.stages), p.d)):
        if not st.bitmap.get(neighbor(st.graph, x, i)):
            if short_circuit:
                return False
            answer = False
    return answer


def exact_error(sch: Scheme, x: int) -> Fraction:
    """Exact probability that query(x) answers true over uniform probes:
    the product over stages of the share of x's probe slots that read 1."""
    rate = Fraction(1)
    for st in sch.stages:
        rate *= Fraction(probe_overlap(st.graph, x, st.bitmap), sch.params.d)
    return rate
