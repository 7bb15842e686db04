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

from . import scheme
from .graph import SeededGraph
from .reduction import check_strong_reduction
from .scheme import Scheme, Stage


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

    @staticmethod
    def build_stages(A, eps, search):
        """Stage 1: a seed with |W| <= |A|/2; stage 2: strong reduction on W."""
        def few_misclassified(g):
            report = check_strong_reduction(g, A, eps)
            return report if len(report.violating) <= len(A) // 2 else None

        g1, first, retries1 = search(few_misclassified, "stage 1: |W| bound failed for every seed")
        w = first.violating
        g2, second, retries2 = search(
            lambda g: r if (r := check_strong_reduction(g, A, eps, scope=w)).holds else None,
            "stage 2: restricted reduction failed for every seed")
        return (Stage(g1, first.marked, retries1), Stage(g2, second.marked, retries2)), len(w)


def encode(A, universe_bits: int, eps, **options) -> TwoProbeScheme:
    """Build the scheme for A; the options are those of `scheme.encode`."""
    return scheme.encode(TwoProbeScheme, A, universe_bits, eps, **options)


def query(sch: TwoProbeScheme, x: int, rng) -> bool:
    """AND of one bit from each stage; at most two reads, one if the first
    bit is 0.  Both probe indices are drawn up front (the pair is
    non-adaptive)."""
    return scheme.query(sch, x, rng)
