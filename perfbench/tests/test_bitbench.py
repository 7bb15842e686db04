"""Tests of the benchmark itself, on tiny instances (u=8).

Run from the root of the repository: ``python3 -m pytest perfbench/tests``.
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from bitbench import checks, runner, tracing, workloads  # noqa: E402
from bitprobe import bmrv, cli, graph, reduction, storage  # noqa: E402

# Counts a run must repeat exactly for the same workload seed.
DETERMINISTIC = ("gf.poly_eval_block.points", "reduction.check_strong_reduction.calls",
                 "bits.get.calls", "storage.bytes")


def tiny(seed=0):
    """Passes and rounds share the time, so rounds also run between instances."""
    rng = random.Random(f"tiny:{seed}")
    instances = workloads.make_instances(
        [(kind, 8, 4, "1/2") for kind in workloads.KINDS], 6, rng)
    return workloads.Workload("tiny", instances, 10, 5, 0.5, f"tiny:{seed}")


def prepared(workload, directory):
    bench = runner.Runner(workload, directory)
    bench.write_inputs()
    return bench


def test_flipped_member_bit_counts_as_failure(tmp_path):
    bench = prepared(tiny(), tmp_path)
    idx = 0
    inst = bench.workload.instances[idx]
    assert inst.kind == "one"
    assert bench.build(idx) is not None
    assert bench.failed == 0

    scheme_path = bench.paths[idx][1]
    data = bytearray(scheme_path.read_bytes())
    pos = graph.neighbor(storage.load(bytes(data)).graph, inst.elements[0], 0)
    layout = {name: offset for name, offset, _ in storage.section_layout(bytes(data))}
    byte = layout["bitmap"] + 8 + (pos >> 3)  # 8: the section's bit-count prefix
    data[byte] &= ~(1 << (pos & 7)) & 0xFF
    scheme_path.write_bytes(bytes(data))

    bench.verify(idx)
    assert bench.failed / bench.attempted > 0
    assert "verdict fails" in bench.reasons[0]


def test_verdict_is_one_sided_for_one_and_two_sided_for_bmrv(tmp_path):
    profile = tmp_path / "profile.csv"
    rows = ["element,membership,exact_error_num,exact_error_den",
            "0,1,1,4",  # a member wrong a quarter of the time
            "1,0,1,8"]
    profile.write_text("\n".join(rows) + "\n")
    eps = Fraction(1, 2)
    assert checks.verdict_problem("bmrv", profile, [0], eps, 2) is None
    assert checks.verdict_problem("one", profile, [0], eps, 2) is not None
    assert checks.verdict_problem("two", profile, [0], eps, 2) is not None
    assert checks.verdict_problem("bmrv", profile, [0], Fraction(1, 8), 2) is not None
    assert checks.verdict_problem("bmrv", profile, [0], eps, 4) is not None  # rows missing


def test_traced_run_rebinds_every_name_and_restores_them(tmp_path):
    originals = (graph.edge_targets, reduction.edge_targets, bmrv.edge_targets,
                 dict(cli._ENCODERS), storage.Bitmap.__dict__["from_bool_array"])
    result = runner.run(prepared(tiny(), tmp_path), 1.0, 0.0, trace=True)
    values = {name: metric["value"] for name, metric in result.metrics.items()}
    assert result.phases["traced"].passes >= 2

    assert values["graph.edge_targets.calls_via_reduction"] > 0
    assert values["graph.edge_targets.calls_via_bmrv"] > 0
    assert values["graph.edge_targets.calls"] == sum(
        values[f"graph.edge_targets.calls_via_{m}"] for m in ("graph", "reduction", "bmrv"))
    for name in ("scheme_one.encode.self_s", "scheme_two.encode.self_s", "bmrv.encode.self_s",
                 "bits.from_bool_array.s", "storage.load.s", "oracle.error_profile.self_s"):
        assert values[name] > 0, name
    assert values["bits.reads_per_query.one"] == 1
    assert 1 <= values["bits.reads_per_query.two"] <= 2
    assert values["bits.reads_per_query.bmrv"] == 1
    assert result.runner.failed == 0
    assert [name for name, _ in tracing.LAYER_METRICS] == list(values)
    assert (graph.edge_targets, reduction.edge_targets, bmrv.edge_targets,
            dict(cli._ENCODERS), storage.Bitmap.__dict__["from_bool_array"]) == originals


def test_same_seed_gives_identical_counts(tmp_path):
    seen = []
    for attempt in range(2):
        bench = prepared(tiny(seed=3), tmp_path / str(attempt))
        result = runner.run(bench, 1.0, 0.0, trace=True)
        counts = {name: result.metrics[name]["value"] for name in DETERMINISTIC}
        seen.append(dict(counts, scheme_bytes=bench.scheme_bytes))
    assert seen[0] == seen[1]
    assert all(value > 0 for value in seen[0].values())


def test_workload_inputs_follow_the_seed():
    for name in workloads.SPECS:
        a, b, c = workloads.make(name, 5), workloads.make(name, 5), workloads.make(name, 6)
        assert a == b
        assert a != c
        shape = [(i.kind, i.u, i.n, i.eps, i.indep_k) for i in a.instances]
        assert shape == [(i.kind, i.u, i.n, i.eps, i.indep_k) for i in c.instances]
        rng = random.Random(0)
        assert [q[0] for q in a.stream(rng)] == [q[0] for q in c.stream(rng)]


def test_stream_rounds_query_afresh_and_repeat_for_a_seed(tmp_path, monkeypatch):
    bench = prepared(tiny(), tmp_path)
    for idx in range(len(bench.workload.instances)):
        assert bench.build(idx) is not None
        assert bench.roundtrip(idx)
    asked = []

    def record(scheme, x, rng):
        asked.append((x, rng.random()))
        return True

    for kind in workloads.KINDS:
        monkeypatch.setitem(runner._QUERY_MODULES, kind, SimpleNamespace(query=record))

    round_size = bench.workload.per_instance * len(bench.workload.instances)

    def rounds(count):
        phase = runner.Phase("plain", bench.workload.window)
        seen = []
        for _ in range(count):
            asked.clear()
            bench.run_round(phase)
            seen.append(list(asked))
        assert phase.samples == count * round_size
        return seen

    first, second = rounds(2)
    assert len(first) == round_size
    assert first != second
    assert rounds(1) == [first]


def test_phase_scales_windows_to_the_reference_speed_and_keeps_a_bounded_sample():
    phase = runner.Phase("plain", 2)
    ref = runner.REFERENCE_NS
    phase.add_window([100, 300], 500, ref, ref)  # at the reference speed
    phase.add_window([200, 600], 1000, ref, 3 * ref)  # at half of it, on average
    phase.add_window([7], 7, ref, ref)  # short of a failed query: left out
    latencies, references = phase.kept()
    assert sorted(latencies.tolist()) == [100, 100, 300, 300]
    assert references.tolist() == [[ref, ref], [ref, 3 * ref]]
    assert (phase.windows, phase.samples) == (2, 5)
    assert phase.metrics(0)["query_qps"] == 4 / 1000e-9

    for _ in range(runner.KEPT_WINDOWS):
        phase.add_window([1, 1], 2, ref, ref)
    assert phase.windows == runner.KEPT_WINDOWS + 2
    assert phase.kept()[0].size == 2 * runner.KEPT_WINDOWS


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-k6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
