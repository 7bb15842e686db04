"""The benchmark's workloads, generated from the workload seed.

Each workload is a fixed list of instance shapes (kind, u, n, eps, indep_k)
and a number of queries per instance in a stream round.  The seed draws
everything else: the stored sets and the encoders' master seeds once, and
for each stream round its own queried elements and probe randomness.
Keeping the shapes fixed keeps the cost of a pass the same whatever the
seed.  A run repeats one identical pass, so its counts repeat exactly;
every stream round queries afresh, with the same size and distribution,
and the round with a given index repeats exactly for a seed.

Why these shapes (costs measured on a 2-vCPU Xeon, field width 64):

* ``grid-k6`` samples the acceptance grid at indep_k=6, the traffic of the
  suite's criteria 1-2.  The marked-flag arrays run from 16 KiB to 8 MiB,
  on both sides of a 4 MiB L2.  u=14 appears once, at eps=1/2, because a
  u=14 cell at eps=1/8 costs about 11 s of build plus verify, more than a
  third of a run.
* ``default-k`` keeps the CLI defaults (k = u^2), where the multiply kernel
  dominates.  It stays at u=10: a single u=12 instance at k=144 costs about
  24 s of build plus verify, most of a run.
* ``query-k6`` serves a long closed-loop query stream from six u=14
  schemes, one per kind in two sizes (8 KiB and 256 KiB bitmaps).

In every stream round the kinds take turns and half of the queries ask
for members, because ``two`` reads its second bit only when the first one
is 1.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

KINDS = ("one", "two", "bmrv")

# (kind, u, n, eps); kinds take turns and every eps meets two kinds.
_GRID_K6 = (
    ("one", 10, 4, "1/2"), ("two", 10, 16, "1/4"), ("bmrv", 10, 64, "1/8"),
    ("bmrv", 12, 16, "1/2"), ("one", 12, 4, "1/4"), ("two", 12, 64, "1/8"),
    ("one", 14, 64, "1/2"),
)
_DEFAULT_K = (("one", 10, 4, "1/2"), ("two", 10, 16, "1/2"), ("bmrv", 10, 4, "1/4"))
_QUERY_K6 = tuple((kind, 14, n, "1/2") for n in (8, 256) for kind in KINDS)

# name -> (shapes, indep_k or None for the CLI default, queries per instance
#          in a stream round, queries per instance in a window of a round
#          (even, so a window holds as many members as non-members; a
#          millisecond or two of queries), share of the measuring time for
#          passes, the rest going to rounds; 0 makes one pass and then only
#          rounds)
SPECS = {
    "grid-k6": (_GRID_K6, 6, 100, 10, 0.8),
    "default-k": (_DEFAULT_K, None, 50, 2, 0.9),
    "query-k6": (_QUERY_K6, 6, 1000, 10, 0.0),
}


@dataclass(frozen=True)
class Instance:
    """One scheme: built, verified and round-tripped once per pass."""

    kind: str
    u: int
    n: int
    eps: Fraction
    indep_k: int | None  # None leaves --indep-k off, so the CLI default u^2 applies
    elements: tuple
    master_seed: int

    @property
    def m(self) -> int:
        return 1 << self.u

    @property
    def k(self) -> int:
        return self.indep_k if self.indep_k is not None else self.u * self.u


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    per_instance: int  # queries per instance in one stream round
    per_window: int  # queries per instance in one window; divides per_instance
    pass_share: float  # share of the measuring time for passes; 0: one pass
    seed_prefix: str  # prefix of the seeds of the stream rounds and the edge samples

    @property
    def window(self) -> int:
        return self.per_window * len(self.instances)

    def stream(self, rng: random.Random) -> tuple:
        """One stream round: (instance index, element, is_member) triples."""
        return make_stream(self.instances, self.per_instance, rng)


def _queries(rng, elements, m, count):
    """``count`` (element, is_member) pairs, alternating member and non-member."""
    members = set(elements)
    out = []
    for j in range(count):
        if j % 2 == 0:
            out.append((rng.choice(elements), True))
        else:
            x = rng.randrange(m)
            while x in members:
                x = rng.randrange(m)
            out.append((x, False))
    return out


def make_instances(shapes, indep_k, rng):
    out = []
    for kind, u, n, eps in shapes:
        elements = tuple(sorted(rng.sample(range(1 << u), n)))
        out.append(Instance(kind, u, n, Fraction(eps), indep_k, elements, rng.getrandbits(32)))
    return tuple(out)


def make_stream(instances, per_instance, rng):
    """Instances take turns; each alternates member and non-member queries."""
    per_scheme = [_queries(rng, inst.elements, inst.m, per_instance) for inst in instances]
    return tuple((idx, *per_scheme[idx][j])
                 for j in range(per_instance) for idx in range(len(instances)))


def make(name: str, seed: int) -> Workload:
    shapes, indep_k, per_instance, per_window, pass_share = SPECS[name]
    rng = random.Random(f"bitbench:{name}:{seed}")
    instances = make_instances(shapes, indep_k, rng)
    return Workload(name, instances, per_instance, per_window, pass_share,
                    f"bitbench:{name}:{seed}")
