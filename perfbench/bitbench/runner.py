"""Runs one workload in one process and thread, as a closed loop with one client.

Build and verify go through ``bitprobe.cli.main`` in-process, because those
are the user commands.  Queries call each kind's library ``query``: the
``query`` command spends most of its time starting the interpreter.

A run repeats one pass over the workload's instances (build, verify,
round-trip each) and runs query stream rounds over the same schemes.  Each
round draws its own queries from the workload seed, the phase and the
round's index, so queries do not repeat from round to round.  From the
second pass on, rounds run after each instance for the workload's query
share of the time, so queries are sampled across the whole run; when no
further pass fits, rounds fill the rest.  ``query-k6`` makes one pass and
then only rounds.  ``build_s`` and ``verify_s`` sum, over the instances,
each instance's fastest call across the passes: a pass clear of the slow
spells described below.  A total over the whole run would only measure
the length of the run.

Queries run in windows of a millisecond or two (``Workload.window``)
between timed reference loops of fixed pure-Python work.  On a shared host,
other tenants slow interpreter-bound code by up to 1.8x, in spells that
come and go within a second and at times last a whole run; the reference
loop slows by the same factor as the queries next to it.  So each window's
latencies are scaled to the reference speed, at which the loop takes
``REFERENCE_NS``, by the mean of the two loops around the window.  The
latencies of up to ``KEPT_WINDOWS`` windows are kept, a uniform sample
beyond that, in buffers written when the phase starts, so the benchmark's
own memory does not grow with the number of queries and ``peak_rss_mb``
measures the program.

Correctness checks run between the timed calls and count their failures
against the operations attempted.
"""

import contextlib
import hashlib
import io
import random
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from bitprobe import bmrv, cli, scheme_one, scheme_two

from . import checks, tracing, workloads

SETUP_REPEATS = 7
KEPT_WINDOWS = 20_000  # query windows whose latencies are kept (a uniform sample beyond that)
REFERENCE_ITERATIONS = 800
REFERENCE_NS = 200_000  # the reference loop's time between slow spells on a 2-vCPU Xeon
MAX_REASONS = 20
_QUERY_MODULES = {"one": scheme_one, "two": scheme_two, "bmrv": bmrv}


def _eps_arg(eps) -> str:
    return f"{eps.numerator}/{eps.denominator}"


def reference_ns() -> int:
    """Wall time of a fixed stretch of pure-Python integer work, none of it
    the program's: it tracks how fast the host runs interpreter-bound code
    at this moment."""
    t0 = perf_counter_ns()
    acc = 0x9E3779B97F4A7C15
    for j in range(REFERENCE_ITERATIONS):
        low = acc & -acc
        acc = ((acc << 1) ^ (low.bit_length() << 7) ^ j) & 0xFFFFFFFFFFFFFFFF
    return perf_counter_ns() - t0


class Phase:
    """Timings of one stretch of measurement (the plain or the traced half)."""

    def __init__(self, name: str, window: int):
        self.name = name  # part of the seed of each of its stream rounds
        self.window = window  # queries per window
        self.build_s = {}  # instance index -> wall time of its build in each pass
        self.verify_s = {}
        self.pass_s = []  # build plus verify time of each pass
        self.passes = 0
        self.rounds = 0  # stream rounds run
        self.windows = 0  # full query windows timed over every round
        self.samples = 0  # queries timed over every round
        self.scaled_wall_s = 0.0  # wall time of the full windows, at the reference speed
        self._reservoir = random.Random(f"{name}:reservoir")
        # Written now (ones, not zeros) so that their pages are resident from the start.
        self._latency_ns = np.ones((KEPT_WINDOWS, window), dtype=np.float32)
        self._reference_ns = np.ones((KEPT_WINDOWS, 2), dtype=np.float64)

    def add_window(self, latency_ns: list, wall_ns: int, before: int, after: int) -> None:
        """Count a window of queries between two reference loops that took
        ``before`` and ``after`` ns; its latencies are scaled to the
        reference speed by their mean.  Past ``KEPT_WINDOWS`` windows, a
        uniform sample of them is kept.  A window short of a query that
        failed is left out."""
        self.samples += len(latency_ns)
        if len(latency_ns) != self.window:
            return
        scale = 2 * REFERENCE_NS / (before + after)
        self.scaled_wall_s += wall_ns * scale / 1e9
        if self.windows < KEPT_WINDOWS:
            row = self.windows
        else:
            row = self._reservoir.randrange(self.windows + 1)
        self.windows += 1
        if row < KEPT_WINDOWS:
            self._latency_ns[row] = latency_ns
            self._reference_ns[row] = before, after

    def kept(self):
        """Latencies (ns) of the windows kept, scaled to the reference speed,
        and their reference times (before, after)."""
        rows = min(self.windows, KEPT_WINDOWS)
        refs = self._reference_ns[:rows]
        scale = 2 * REFERENCE_NS / refs.sum(axis=1)
        return (self._latency_ns[:rows] * scale[:, None].astype(np.float32)).ravel(), refs

    def metrics(self, scheme_bytes: int) -> dict:
        lat, _ = self.kept()
        p50, p99 = (np.percentile(lat, [50, 99]) / 1e3) if lat.size else (0.0, 0.0)
        return {
            "build_s": sum(min(times) for times in self.build_s.values()),
            "verify_s": sum(min(times) for times in self.verify_s.values()),
            "query_p50_us": float(p50),
            "query_p99_us": float(p99),
            "query_qps": self.windows * self.window / self.scaled_wall_s if self.windows else 0.0,
            "scheme_bytes": scheme_bytes,
        }


class Runner:
    """Executes a workload's passes and stream rounds and keeps the ledger of
    attempted and failed operations (builds, verifies, round-trips, queries)."""

    def __init__(self, workload: workloads.Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.digests = {}  # instance index -> sha256 of its first scheme file
        self.schemes = {}  # instance index -> scheme loaded from its file
        self.scheme_bytes = 0
        self._sink = io.StringIO()
        self.paths = [(workdir / f"{i}.set", workdir / f"{i}.bps", workdir / f"{i}.csv")
                      for i in range(len(workload.instances))]

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for inst, (set_path, _, _) in zip(self.workload.instances, self.paths):
            set_path.write_text("".join(f"{x}\n" for x in inst.elements))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)

    def _untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _cli(self, argv):
        """Run one CLI command; returns (exit code, error text or None)."""
        self._sink.seek(0)
        self._sink.truncate()
        try:
            with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
                rc = cli.main([str(a) for a in argv])
            return rc, (self._sink.getvalue().strip() if rc else None)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2, self._sink.getvalue()
        except Exception as exc:  # a crash of the program under test is a failed operation
            return None, repr(exc)

    def build(self, idx: int) -> float | None:
        """Timed ``bitprobe build``; returns its wall time, or None on failure."""
        inst = self.workload.instances[idx]
        set_path, scheme_path, _ = self.paths[idx]
        argv = ["build", set_path, "-o", scheme_path, "--kind", inst.kind,
                "--universe-bits", inst.u, "--eps", _eps_arg(inst.eps),
                "--master-seed", inst.master_seed]
        if inst.indep_k is not None:
            argv += ["--indep-k", inst.indep_k]
        self.attempted += 1
        t0 = perf_counter()
        rc, error = self._cli(argv)
        elapsed = perf_counter() - t0
        if rc != 0:
            self.fail(f"build {idx} ({inst.kind}): exit {rc} {error or ''}".strip())
            return None
        with self._untraced():
            try:
                problem = self._check_build(idx, scheme_path.read_bytes())
            except Exception as exc:  # an unreadable scheme file is a failed build
                problem = repr(exc)
        if problem:
            self.fail(f"build {idx} ({inst.kind}): {problem}")
            return None
        return elapsed

    def _check_build(self, idx: int, data: bytes):
        digest = hashlib.sha256(data).hexdigest()
        if idx in self.digests:
            if digest != self.digests[idx]:
                return "rebuild with the same flags gave different bytes"
            return None
        self.digests[idx] = digest
        rng = random.Random(f"{self.workload.seed_prefix}:edges:{idx}")
        return checks.edge_sample_problem(checks.load(data), rng)

    def verify(self, idx: int) -> float:
        """Timed ``bitprobe verify``, then the kind's own verdict from its CSV."""
        inst = self.workload.instances[idx]
        set_path, scheme_path, csv_path = self.paths[idx]
        self.attempted += 1
        t0 = perf_counter()
        rc, error = self._cli(["verify", scheme_path, set_path, "-o", csv_path])
        elapsed = perf_counter() - t0
        if rc not in (0, 1):  # 1 may be the CLI's one-sided verdict on a good bmrv scheme
            self.fail(f"verify {idx} ({inst.kind}): exit {rc} {error or ''}".strip())
            return elapsed
        with self._untraced():
            try:
                problem = checks.verdict_problem(inst.kind, csv_path, inst.elements,
                                                 inst.eps, inst.m)
            except (OSError, ValueError) as exc:  # missing or malformed profile CSV
                problem = repr(exc)
        if problem:
            self.fail(f"verify {idx}: {problem}")
        return elapsed

    def roundtrip(self, idx: int) -> bool:
        """``save(load(b)) == b``; keeps the loaded scheme for the queries."""
        self.attempted += 1
        with self._untraced():
            data = self.paths[idx][1].read_bytes()
            try:
                scheme, problem = checks.roundtrip_problem(data)
            except Exception as exc:  # a load that raises is a failed round-trip
                scheme, problem = None, repr(exc)
        if problem:
            self.fail(f"round-trip {idx}: {problem}")
            self.schemes.pop(idx, None)
            return False
        self.schemes[idx] = scheme
        return True

    def run_round(self, phase: Phase) -> None:
        """One stream round of timed closed-loop queries, in windows between
        reference loops.  Its queried elements, then its probe indices, come
        from one generator seeded with the workload seed, the phase and the
        round's index.  A member of ``one`` or ``two`` must answer true."""
        rng = random.Random(f"{self.workload.seed_prefix}:{phase.name}:{phase.rounds}")
        stream = self.workload.stream(rng)
        instances = self.workload.instances
        tracer = self.tracer
        clock = perf_counter_ns
        attempted = 0
        after = reference_ns()
        for start in range(0, len(stream), phase.window):
            before = after
            latency = []
            begin = clock()
            for idx, x, member in stream[start:start + phase.window]:
                scheme = self.schemes.get(idx)
                if scheme is None:
                    continue
                kind = instances[idx].kind
                query = _QUERY_MODULES[kind].query
                if tracer:
                    tracer.instance = idx
                attempted += 1
                t0 = clock()
                try:
                    answer = query(scheme, x, rng)
                except Exception as exc:  # a query that raises is a failed operation
                    self.fail(f"query {idx} x={x}: {exc!r}")
                    continue
                latency.append(clock() - t0)
                if member and not answer and kind != "bmrv":
                    self.fail(f"query {idx} ({kind}): member {x} answered false")
            wall = clock() - begin
            after = reference_ns()
            phase.add_window(latency, wall, before, after)
        phase.rounds += 1
        self.attempted += attempted

    def run_pass(self, phase: Phase, query_ratio: float = 0.0) -> None:
        """Build, verify and round-trip every instance; after each one, stream
        rounds for ``query_ratio`` times the time the instance took."""
        scheme_bytes = 0
        pass_s = 0.0
        for idx in range(len(self.workload.instances)):
            t0 = perf_counter()
            with self._segment("pass", phase.passes):
                if self.tracer:
                    self.tracer.instance = idx
                built = self.build(idx)
                if built is None:
                    self.schemes.pop(idx, None)
                    continue
                verified = self.verify(idx)
                phase.build_s.setdefault(idx, []).append(built)
                phase.verify_s.setdefault(idx, []).append(verified)
                pass_s += built + verified
                scheme_bytes += self.paths[idx][1].stat().st_size
                self.roundtrip(idx)
            self.rounds_for(phase, query_ratio * (perf_counter() - t0))
        phase.pass_s.append(pass_s)
        phase.passes += 1
        self.scheme_bytes = scheme_bytes

    def rounds_for(self, phase: Phase, seconds: float) -> None:
        """Stream rounds until ``seconds`` have been spent on them."""
        end = perf_counter() + seconds
        while perf_counter() < end:
            with self._segment("round", phase.rounds):
                self.run_round(phase)

    def _segment(self, kind, number):
        return self.tracer.segment(kind, number) if self.tracer else contextlib.nullcontext()

    def measure(self, seconds: float, phase: Phase) -> None:
        """Passes while the next would end within ``seconds`` (``query-k6``:
        one pass), then stream rounds while the next would; at least one of
        each.  The first pass builds every scheme before any round runs."""
        start = perf_counter()
        share = self.workload.pass_share
        ratio = (1 - share) / share if share else 0.0
        longest = 0.0
        while True:
            t0 = perf_counter()
            self.run_pass(phase, ratio if phase.passes else 0.0)
            longest = max(longest, perf_counter() - t0)
            if not share or perf_counter() - start + longest > seconds:
                break
        longest = 0.0
        while not phase.rounds or perf_counter() - start + longest <= seconds:
            t0 = perf_counter()
            with self._segment("round", phase.rounds):
                self.run_round(phase)
            longest = max(longest, perf_counter() - t0)


def warm_up(workdir: Path) -> None:
    """One small build, verify and query of each kind: first calls into every
    kernel, outside the timed runs."""
    rng = random.Random("warm-up")
    warm = workloads.make_instances([(kind, 8, 4, "1/2") for kind in workloads.KINDS], 6, rng)
    runner = Runner(workloads.Workload("warm-up", warm, 2, 1, 0.0, "warm-up"), workdir)
    runner.write_inputs()
    phase = Phase("warm-up", runner.workload.window)
    runner.run_pass(phase)
    runner.run_round(phase)
    if runner.failed:
        raise RuntimeError(f"warm-up failed: {runner.reasons}")


def setup(name: str, seed: int, workdir: Path):
    """Input generation, set-file writing and the warm-up, repeated; returns
    the runner and the median set-up time."""
    times = []
    runner = None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        runner = Runner(workloads.make(name, seed), workdir / name)
        runner.write_inputs()
        warm_up(workdir / "warm-up")
        times.append(perf_counter() - t0)
    return runner, statistics.median(times)


@dataclass
class Result:
    metrics: dict  # name -> {"value", "unit"}
    runner: Runner
    phases: dict  # "plain" and, in a traced run, "traced"
    tracer: tracing.Tracer | None = None


E2E_UNITS = {
    "build_s": "s", "verify_s": "s", "query_p50_us": "us", "query_p99_us": "us",
    "query_qps": "1/s", "scheme_bytes": "B", "peak_rss_mb": "MiB", "setup_s": "s",
}


def run(runner: Runner, seconds: float, setup_s: float, trace: bool) -> Result:
    """Measure a prepared runner; with ``trace`` the first half of the time
    runs plain and the second half traced, and the result holds the
    per-layer metrics instead of the end-to-end ones."""
    plain = Phase("plain", runner.workload.window)
    if not trace:
        runner.measure(seconds, plain)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = plain.metrics(runner.scheme_bytes)
        values["peak_rss_mb"] = peak_rss_mb
        values["setup_s"] = setup_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        return Result(metrics, runner, {"plain": plain})

    runner.measure(seconds / 2, plain)
    tracer = tracing.Tracer()
    traced = Phase("traced", runner.workload.window)
    runner.tracer = tracer
    try:
        with tracing.patched(tracer):
            tracer.active = True
            runner.measure(seconds / 2, traced)
            tracer.active = False
    finally:
        runner.tracer = None
    before = plain.metrics(runner.scheme_bytes)
    after = traced.metrics(runner.scheme_bytes)
    overhead = {key: after[key] - before[key] for key in ("build_s", "verify_s", "query_p50_us")}
    metrics, violations = tracing.layer_metrics(
        tracer, runner.workload.instances, overhead, statistics.median(traced.pass_s))
    for _ in range(violations):
        runner.fail("a query read more or fewer bits than its kind's probe bound")
    return Result(metrics, runner, {"plain": plain, "traced": traced}, tracer)
