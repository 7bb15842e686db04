"""bitprobe benchmark: build / verify / query end to end, per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-k6 --seed 1 --seconds 36 --trace 0

The program under test is the package in ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Scratch files,
the full result with its environment, and the traced run's spans go to
``.perfbench_work/`` in the checkout.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("grid-k6", "default-k", "query-k6")
IMPORT_REPEATS = 5
# Run in a fresh interpreter: prints how long the imports of a run take.
_TIME_IMPORTS = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                 "import numpy, bitprobe, bitbench.runner; print(time.perf_counter() - t0)")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own (a work tree around it would give another commit)."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on this host
        return None
    top, _, commit = done.stdout.partition("\n")
    return commit.strip() if done.returncode == 0 and Path(top).resolve() == ROOT else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _environment(seed, numpy_version):
    digest = hashlib.sha256()
    for path in sorted((SRC / "bitprobe").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _import_s() -> float:
    """Median over fresh interpreters of the time the run's imports take;
    each child process is waited for (and killed on a timeout)."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", _TIME_IMPORTS, str(SRC), str(BENCH)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "bitprobe" / "__init__.py").is_file():
        print(f"benchmark: no program to measure: {SRC / 'bitprobe'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import bitprobe
    from bitbench import runner, tracing
    if not Path(bitprobe.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: imported bitprobe from {bitprobe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import_s = _import_s()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    prepared, setup_s = runner.setup(args.workload, args.seed, WORKDIR)
    result = runner.run(prepared, args.seconds, import_s + setup_s, bool(args.trace))
    ledger = result.runner
    env = _environment(args.seed, numpy.__version__)
    plain = result.phases["plain"]
    print("env " + json.dumps(env, sort_keys=True))
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={plain.passes} rounds={plain.rounds} "
          f"query_samples={plain.kept()[0].size}/{plain.samples} "
          f"reference_us_median={float(numpy.median(plain.kept()[1])) / 1e3 if plain.windows else 0} "
          f"attempted={ledger.attempted} "
          f"failed={ledger.failed} fail_ratio={ledger.failed / max(ledger.attempted, 1)}")
    for reason in ledger.reasons:
        print(f"failure {reason}")
    out = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
           "failed": ledger.failed, "metrics": result.metrics}
    stem = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"env": env, "reasons": ledger.reasons, **out}, indent=1, sort_keys=True))
    if result.tracer is not None:
        tracing.save_spans(result.tracer, stem.with_suffix(".spans.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
