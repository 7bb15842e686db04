"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines live.

Builds here use indep_k=6: seed acceptance is explicitly verified during
encoding, so the independence order only shifts retry statistics, and 6
keeps the full suite inside the stated runtime budgets.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from bitprobe import bmrv, scheme_one, scheme_two, storage
from bitprobe.bmrv import default_max_iters, greedy_label
from bitprobe.cli import main
from bitprobe.gf import default_indep_k, draw_seed
from bitprobe.graph import SeededGraph, derive_params, neighbor
from bitprobe.oracle import error_profile
from bitprobe.reduction import (
    check_strong_reduction,
    slot_overlap_counts,
)
from bitprobe.storage import section_layout

from helpers import (
    GF2_3,
    TINY_EPS,
    TINY_K_MAX,
    CountingBitmap,
    check_reduction_property,
    edge_table,
    kwise_uniformity_check,
    scheme_of,
    verified_tiny_expanders,
    with_bitmaps,
)

GRID_U = (10, 12, 14)
GRID_N = (4, 16, 64)
GRID_EPS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
INSTANCES = 50
INDEP_K = 6


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _eps_str(eps):
    return f"{eps.numerator}/{eps.denominator}"


def _instances(count, rng_seed, us=GRID_U):
    rng = random.Random(rng_seed)
    out = []
    for _ in range(count):
        u = rng.choice(us)
        n = rng.choice(GRID_N)
        eps = rng.choice(GRID_EPS)
        A = sorted(rng.sample(range(1 << u), n))
        out.append((u, n, eps, A, rng.getrandbits(32)))
    return out


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """Scheme files produced by criteria 1-2, reused by criterion 8."""
    return tmp_path_factory.mktemp("schemes")


def _write_set(directory, tag, A):
    path = directory / f"{tag}.txt"
    path.write_text("".join(f"{x}\n" for x in A))
    return str(path)


def _build_and_verify(store, tag, kind, u, eps, A, master_seed):
    set_file = _write_set(store, tag, A)
    scheme_file = str(store / f"{tag}.bps")
    rc = main(["build", set_file, "-o", scheme_file, "--kind", kind,
               "--universe-bits", str(u), "--eps", _eps_str(eps),
               "--indep-k", str(INDEP_K), "--master-seed", str(master_seed)])
    if rc != 0:
        return rc, scheme_file
    rc = main(["verify", scheme_file, set_file,
               "-o", str(store / f"{tag}.csv")])
    return rc, scheme_file


def test_criterion_1_one_probe_correctness(store, capsys):
    t0 = time.perf_counter()
    failures = []
    for idx, (u, n, eps, A, ms) in enumerate(_instances(INSTANCES, 0xACCE91)):
        rc, _ = _build_and_verify(store, f"one_{idx:02d}", "one", u, eps, A, ms)
        if rc != 0:
            failures.append((idx, u, n, _eps_str(eps), rc))
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    _report(1, "one-probe one-sided correctness", not failures,
            f"{INSTANCES} instances exhaustively verified in {elapsed:.1f}s"
            if not failures else f"failing instances: {failures}")


def test_criterion_2_two_probe_correctness(store, capsys):
    t0 = time.perf_counter()
    failures = []
    for idx, (u, n, eps, A, ms) in enumerate(_instances(INSTANCES, 0xACCE92)):
        tag = f"two_{idx:02d}"
        if u <= 12:
            rc, scheme_file = _build_and_verify(store, tag, "two", u, eps, A, ms)
            if rc != 0:
                failures.append((idx, u, n, _eps_str(eps), f"rc={rc}"))
                continue
            sch = storage.load(open(scheme_file, "rb").read())
        else:
            try:
                sch = scheme_two.encode(A, u, eps, indep_k=INDEP_K, master_seed=ms)
            except Exception as exc:  # encode failures count as criterion failures
                failures.append((idx, u, n, _eps_str(eps), repr(exc)))
                continue
            (store / f"{tag}.bps").write_bytes(storage.save(sch))
            _write_set(store, tag, A)
            # one-sidedness: every member probe slot is marked in both stages
            rows = list(A)
            for g, bm in ((sch.g1, sch.stages[0].bitmap), (sch.g2, sch.stages[1].bitmap)):
                counts = slot_overlap_counts(g, bm, rows)
                if not (counts == sch.params.d).all():
                    failures.append((idx, u, n, _eps_str(eps), "member slot unmarked"))
        if sch.w_size > n // 2:
            failures.append((idx, u, n, _eps_str(eps), f"w_size={sch.w_size}"))
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    _report(2, "two-probe one-sided correctness", not failures,
            f"{INSTANCES} instances (pair-exact at u<=12) in {elapsed:.1f}s"
            if not failures else f"failing instances: {failures}")


def test_criterion_3_space_shape(store, capsys):
    problems = []
    for u, n, eps in itertools.product((1, 4, GRID_U[0], 12, 14, 20),
                                       (1, 4, 64), GRID_EPS):
        if n > 1 << u:
            continue
        p = derive_params(u, n, eps)
        want_d = math.ceil(Fraction(2 * u) / eps)
        if p.d != want_d:
            problems.append(f"d({u},{n},{eps})={p.d} want {want_d}")
        if not (2 * p.d * p.d * n <= p.s < 4 * p.d * p.d * n):
            problems.append(f"s({u},{n},{eps})={p.s} outside [2d^2n, 4d^2n)")
    # cache section stays within indep_k * 8 bytes on serialized schemes
    for kind, encode in (("one", scheme_one.encode), ("two", scheme_two.encode)):
        sch = encode([1, 5, 9, 13], 10, Fraction(1, 2), indep_k=INDEP_K,
                     master_seed=7)
        blob = storage.save(sch)
        for name, off, length in section_layout(blob):
            if name.startswith("seed") and length - 4 > INDEP_K * 8:
                problems.append(f"{kind}:{name} section {length - 4} bytes")
    # the default independence order is polylog: exactly log2(m)^2
    for u in GRID_U:
        if default_indep_k(u) != u * u:
            problems.append(f"default_indep_k({u}) != {u * u}")
    capsys.readouterr()
    _report(3, "space shape (d, s bounds, cache size)", not problems,
            "; ".join(problems) if problems else
            "d = ceil(2u/eps), 2d^2 n <= s < 4d^2 n, cache <= indep_k*8 bytes")


def _acceptance_fraction(stream_seed):
    params = derive_params(10, 4, Fraction(1, 2))
    rng = random.Random(stream_seed)
    A = sorted(rng.sample(range(params.m), 4))
    passed = 0
    for _ in range(200):
        g = SeededGraph(params, draw_seed(rng, INDEP_K))
        passed += check_strong_reduction(g, A, params.eps).holds
    return passed / 200


def test_criterion_4_seed_acceptance_rate(capsys):
    t0 = time.perf_counter()
    frac = _acceptance_fraction(0xACCE94)
    if frac < 0.5:  # statistical criterion: rerun once on failure
        frac = _acceptance_fraction(0xACCE95)
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    _report(4, "seed acceptance rate >= 0.5", frac >= 0.5,
            f"fraction {frac:.3f} over 200 seeds in {elapsed:.1f}s")


def test_criterion_5_probe_accounting(capsys):
    rng = random.Random(0xACCE55)
    queries = 100_000
    ok = True
    detail = []

    A = sorted(rng.sample(range(1 << 10), 4))
    one = scheme_one.encode(A, 10, Fraction(1, 2), indep_k=INDEP_K, master_seed=1)
    counting = CountingBitmap.wrap(one.stages[0].bitmap)
    inst = with_bitmaps(one, counting)
    for _ in range(queries):
        scheme_one.query(inst, rng.randrange(1 << 10), rng)
    ok &= counting.reads == queries
    detail.append(f"one-probe: {counting.reads} reads / {queries} queries")

    two = scheme_two.encode(A, 10, Fraction(1, 2), indep_k=INDEP_K, master_seed=2)
    c1 = CountingBitmap.wrap(two.stages[0].bitmap)
    c2 = CountingBitmap.wrap(two.stages[1].bitmap)
    inst2 = with_bitmaps(two, c1, c2)
    worst = 0
    for _ in range(queries):
        before = c1.reads + c2.reads
        scheme_two.query(inst2, rng.randrange(1 << 10), rng)
        worst = max(worst, c1.reads + c2.reads - before)
    ok &= worst <= 2
    detail.append(f"two-probe: max {worst} reads/query, "
                  f"{c1.reads + c2.reads} total")
    capsys.readouterr()
    _report(5, "probe accounting (1 read, <= 2 reads)", ok, "; ".join(detail))


def test_criterion_6_bmrv_convergence(capsys):
    t0 = time.perf_counter()
    rng = random.Random(0xACCE66)
    graphs = verified_tiny_expanders(20, master_seed=0xACCE60)
    problems = []
    for gi, g in enumerate(graphs):
        cap = default_max_iters(g.params.m)
        A = sorted(rng.sample(range(g.params.m), TINY_K_MAX // 2))
        try:
            lab = greedy_label(g, A, TINY_EPS)
        except bmrv.NonConvergence as exc:
            problems.append(f"graph {gi}: {exc}")
            continue
        sizes = [len(A)] + list(lab.trace)
        if any(cur > prev / 2 for prev, cur in zip(sizes, sizes[1:])):
            problems.append(f"graph {gi}: trace {lab.trace} not halving")
        if lab.iterations > cap:
            problems.append(f"graph {gi}: {lab.iterations} rounds > cap {cap}")
        if not error_profile(scheme_of((g, lab.bits)), A).holds:
            problems.append(f"graph {gi}: labeling fails verification")
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    _report(6, "BMRV convergence on verified expanders", not problems,
            "; ".join(problems) if problems else
            f"20 graphs converged within 2ceil(log2 m)+2 rounds in {elapsed:.1f}s")


def test_criterion_7_oracle_equivalences(capsys):
    problems = []

    # (a) expansion implies the reduction property, for every |A| <= k_max/2
    for gi, g in enumerate(verified_tiny_expanders(3, master_seed=0xACCE70)):
        table = edge_table(g)
        for size in range(1, TINY_K_MAX // 2 + 1):
            for A in itertools.combinations(range(g.params.m), size):
                if not check_reduction_property(table, A, TINY_EPS):
                    problems.append(f"reduction property: graph {gi}, A={A}")

    # (b) exact k-wise uniformity over GF(2^3), all point sets, k <= 3
    for k in (1, 2, 3):
        for pts in itertools.combinations(range(8), k):
            if not kwise_uniformity_check(GF2_3, k, pts):
                problems.append(f"kwise: k={k}, points={pts}")
    for k in (1, 2):  # negative control: k+1 points defeat a k-wise family
        if kwise_uniformity_check(GF2_3, k, list(range(k + 1))):
            problems.append(f"kwise negative control failed at k={k}")

    # (c) scalar neighbor vs the bulk edge table on 10^4 random seeded pairs
    rng = random.Random(0xACCE7C)
    params = derive_params(8, 2, Fraction(1, 2))
    g = SeededGraph(params, draw_seed(rng, INDEP_K))
    table = edge_table(g)
    mism = sum(neighbor(g, v, i) != table[v, i]
               for v, i in ((rng.randrange(params.m), rng.randrange(params.d))
                            for _ in range(10_000)))
    if mism:
        problems.append(f"{mism} scalar/bulk mismatches")
    capsys.readouterr()
    _report(7, "oracle equivalences", not problems,
            "; ".join(problems) if problems else
            "expansion=>reduction exhaustive, k-wise exact (+control), 10^4 neighbor pairs")


def test_criterion_8_reproducibility(store, capsys):
    problems = []

    # deterministic rebuilds: same flags, byte-identical files
    for idx, (u, n, eps, A, ms) in enumerate(_instances(6, 0xACCE98, us=(10, 12))):
        set_file = _write_set(store, f"repro_{idx}", A)
        outs = []
        for run in ("a", "b"):
            out = str(store / f"repro_{idx}_{run}.bps")
            rc = main(["build", set_file, "-o", out, "--kind",
                       "one" if idx % 2 else "two",
                       "--universe-bits", str(u), "--eps", _eps_str(eps),
                       "--indep-k", str(INDEP_K), "--master-seed", str(ms)])
            if rc != 0:
                problems.append(f"repro build {idx} rc={rc}")
            outs.append(out)
        if open(outs[0], "rb").read() != open(outs[1], "rb").read():
            problems.append(f"instance {idx}: rebuild differs")

    # save/load is the identity on every scheme produced by criteria 1-2
    files = sorted(store.glob("one_*.bps")) + sorted(store.glob("two_*.bps"))
    if len(files) < 2:  # standalone run: make a small sample
        for idx, (u, n, eps, A, ms) in enumerate(_instances(4, 0xACCE99, us=(10,))):
            kind = "one" if idx % 2 else "two"
            sch = (scheme_one if kind == "one" else scheme_two).encode(
                A, u, eps, indep_k=INDEP_K, master_seed=ms)
            path = store / f"{kind}_fallback_{idx}.bps"
            path.write_bytes(storage.save(sch))
            files.append(path)
    for path in files:
        blob = open(path, "rb").read()
        sch = storage.load(blob)
        if storage.save(sch) != blob:
            problems.append(f"{path.name}: save(load(x)) != x")
        if storage.load(storage.save(sch)) != sch:
            problems.append(f"{path.name}: load o save not identity")
    capsys.readouterr()
    _report(8, "reproducibility and round-trips", not problems,
            "; ".join(problems) if problems else
            f"byte-identical rebuilds; {len(files)} scheme files round-tripped")
