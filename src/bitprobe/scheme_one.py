"""One-probe membership scheme with one-sided error.

Encoding keeps drawing graph seeds until the strong reduction property
holds for A, then stores the seed (the cached word) next to the packed
indicator of Gamma(A) (the main storage).  A query evaluates the seed
polynomial once to pick a bit position and reads exactly that one bit:
members always read a 1; a non-member reads a 1 with probability
slot_overlap/d < eps.
"""

from . import scheme
from .graph import SeededGraph
from .reduction import check_strong_reduction
from .scheme import Scheme, Stage


class OneProbeScheme(Scheme):
    """One stage whose bitmap is the indicator of Gamma(A)."""

    KIND = 1

    @property
    def graph(self) -> SeededGraph:
        return self.stages[0].graph

    @staticmethod
    def build_stages(A, eps, search):
        """The first seed with the strong reduction property for A."""
        g, report, retries = search(
            lambda g: r if (r := check_strong_reduction(g, A, eps)).holds else None,
            "strong reduction failed for every seed")
        return (Stage(g, report.marked, retries),), 0


def encode(A, universe_bits: int, eps, **options) -> OneProbeScheme:
    """Build the scheme for A; the options are those of `scheme.encode`."""
    return scheme.encode(OneProbeScheme, A, universe_bits, eps, **options)


def query(sch: OneProbeScheme, x: int, rng) -> bool:
    """Answer "x in A?" with a single bit read from the stored bitmap."""
    return scheme.query(sch, x, rng)
