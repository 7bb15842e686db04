import csv
import io
from fractions import Fraction

import pytest

from bitprobe import cli, scheme_one, storage
from bitprobe.bits import Bitmap
from bitprobe.cli import main
from bitprobe.graph import neighbor
from bitprobe.storage import section_layout

from helpers import with_bitmaps


def write_set(tmp_path, elements, name="set.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{x}\n" for x in elements))
    return str(path)


def parse_summary(line):
    return dict(kv.split("=", 1) for kv in line.strip().split())


def build(tmp_path, elements, capsys, *, kind="one", u=10, eps="1/2",
          extra=(), name="scheme.bps"):
    out = str(tmp_path / name)
    rc = main(["build", write_set(tmp_path, elements), "-o", out,
               "--kind", kind, "--universe-bits", str(u), "--eps", eps,
               "--indep-k", "6", *extra])
    assert rc == 0
    return out, parse_summary(capsys.readouterr().out)


def test_build_summary_matches_derived_sizing(tmp_path, capsys):
    _, summary = build(tmp_path, [1, 2, 3, 4], capsys, u=10, eps="1/2")
    assert summary["bitmap_bits"] == "16384"
    assert summary["cache_bits"] == str(6 * 64)
    assert summary["retries_used"] == "1"
    assert "wall_ms" in summary


def test_build_empty_set(tmp_path, capsys):
    out, summary = build(tmp_path, [], capsys, u=6)
    assert summary["retries_used"] == "1"
    sch = storage.load(open(out, "rb").read())
    assert sch.stages[0].bitmap.popcount() == 0


def test_build_is_byte_identical_across_runs(tmp_path, capsys):
    out1, _ = build(tmp_path, [5, 9], capsys, name="a.bps")
    out2, _ = build(tmp_path, [5, 9], capsys, name="b.bps")
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_build_rejects_duplicates_and_overflow(tmp_path, capsys):
    rc = main(["build", write_set(tmp_path, [1, 1]), "-o", str(tmp_path / "x"),
               "--universe-bits", "4", "--eps", "1/2"])
    assert rc == 2
    rc = main(["build", write_set(tmp_path, [16]), "-o", str(tmp_path / "x"),
               "--universe-bits", "4", "--eps", "1/2"])
    assert rc == 2
    capsys.readouterr()


def test_build_retries_exhausted_exit_code(tmp_path, capsys):
    rc = main(["build", write_set(tmp_path, [1]), "-o", str(tmp_path / "x"),
               "--universe-bits", "4", "--eps", "1/2", "--max-retries", "0"])
    assert rc == 2
    capsys.readouterr()


def test_query_member_and_nonmember(tmp_path, capsys):
    out, _ = build(tmp_path, [7, 30, 100, 512], capsys, u=10, eps="1/2")
    rc = main(["query", out, "7", "--trials", "64"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("answer=true probe_index=")
    assert "bit_position=" in lines[0]
    assert "positive_rate=1.0" in lines[1]

    rc = main(["query", out, "8", "--exact"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    rate = Fraction(lines[1].split("=", 1)[1])
    assert rate < Fraction(1, 2)


def test_query_empty_scheme(tmp_path, capsys):
    out, _ = build(tmp_path, [], capsys, u=6)
    rc = main(["query", out, "13", "--trials", "16"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("answer=false")
    assert "positive_rate=0.0" in lines[1]


def test_query_two_probe_trace(tmp_path, capsys):
    out, _ = build(tmp_path, [3, 40], capsys, kind="two", u=7, eps="1/4")
    rc = main(["query", out, "3", "--exact"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("answer=true probe_indices=")
    assert "bit_positions=" in lines[0]
    assert lines[1] == "positive_rate=1/1"


def test_query_element_out_of_range(tmp_path, capsys):
    out, _ = build(tmp_path, [1], capsys, u=6)
    assert main(["query", out, "64"]) == 2
    capsys.readouterr()


def test_verify_pass_and_csv_profile(tmp_path, capsys):
    elements = [2, 17, 40, 77]
    out, _ = build(tmp_path, elements, capsys, u=8, eps="1/2")
    csv_path = str(tmp_path / "profile.csv")
    rc = main(["verify", out, write_set(tmp_path, elements), "-o", csv_path])
    assert rc == 0
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 256
    for row in rows:
        err = Fraction(int(row["exact_error_num"]), int(row["exact_error_den"]))
        if row["membership"] == "1":
            assert err == 0
        else:
            assert err < Fraction(1, 2)
    assert {r["element"] for r in rows if r["membership"] == "1"} == \
        {str(x) for x in elements}


def test_verify_detects_corrupted_bitmap(tmp_path, capsys):
    elements = [4, 99]
    out, _ = build(tmp_path, elements, capsys, u=8, eps="1/2")
    blob = bytearray(open(out, "rb").read())
    scheme = storage.load(bytes(blob))
    # clear the bit the first member's probe 0 reads: a false negative now exists
    pos = neighbor(scheme.graph, 4, 0)
    layout = {name: (off, ln) for name, off, ln in section_layout(bytes(blob))}
    off = layout["bitmap"][0] + 8 + (pos >> 3)
    blob[off] &= ~(1 << (pos & 7)) & 0xFF
    open(out, "wb").write(bytes(blob))
    rc = main(["verify", out, write_set(tmp_path, elements)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "false_negatives=" in err and "verdict=fail" in err


def test_verify_budget_exceeded(tmp_path, capsys, monkeypatch):
    elements = [1, 2]
    out, _ = build(tmp_path, elements, capsys, u=8)
    monkeypatch.setenv("BITPROBE_BUDGET", "16")
    rc = main(["verify", out, write_set(tmp_path, elements)])
    assert rc == 3
    capsys.readouterr()


def test_bench_grid_and_empty_grid(tmp_path, capsys):
    rc = main(["bench", "--u-list", "6,7", "--n-list", "2", "--eps-list",
               "1/2", "--trials", "2", "--indep-k", "5",
               "--master-seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "ok"
        assert int(row["bitmap_bits"]) > 0
        err = Fraction(int(row["max_error_num"]), int(row["max_error_den"]))
        assert err < Fraction(1, 2)
        assert float(row["accept_rate"]) > 0
        assert Fraction(row["eps"]) == Fraction(1, 2)

    rc = main(["bench"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1  # header only


def test_bmrv_build_query_verify(tmp_path, capsys):
    # at this sizing the first relabeling pass already finds nothing to fix,
    # so the labeling is exactly the neighborhood indicator: one-sided here
    elements = [3, 170]
    out, summary = build(tmp_path, elements, capsys, kind="bmrv", u=8, eps="1/2")
    assert summary["bitmap_bits"] == "4096"  # d=32, next_pow2(2*32^2*2)
    rc = main(["query", out, "3", "--exact"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("answer=true")
    assert lines[1] == "positive_rate=1/1"
    rc = main(["verify", out, write_set(tmp_path, elements),
               "-o", str(tmp_path / "bmrv.csv")])
    assert rc == 0
    capsys.readouterr()


def test_bmrv_verify_is_two_sided(tmp_path, capsys):
    # master seed 20 relabels: the member keeps 1 of its d=4 slots at 0, an
    # error of 1/4 that the two-sided guarantee (at most eps) allows
    out, _ = build(tmp_path, [0], capsys, kind="bmrv", u=1,
                   extra=("--master-seed", "20"))
    set_file = write_set(tmp_path, [0])
    rc = main(["verify", out, set_file, "-o", str(tmp_path / "bmrv.csv")])
    err = capsys.readouterr().err
    assert "max_member_error=1/4" in err and "verdict=pass" in err
    assert rc == 0

    blob = bytearray(open(out, "rb").read())
    off = {name: off for name, off, _ in section_layout(bytes(blob))}["bitmap"]
    blob[off + 8:] = bytes(len(blob) - off - 8)  # every member now errs
    open(out, "wb").write(bytes(blob))
    rc = main(["verify", out, set_file, "-o", str(tmp_path / "bmrv.csv")])
    assert rc == 1
    assert "verdict=fail" in capsys.readouterr().err


def test_bench_status_checks_the_guarantee(tmp_path, capsys, monkeypatch):
    def encode_empty(*args, **kwargs):
        sch = scheme_one.encode(*args, **kwargs)
        return with_bitmaps(sch, Bitmap(sch.params.s))

    monkeypatch.setitem(cli._ENCODERS, "one", encode_empty)
    rc = main(["bench", "--u-list", "6", "--n-list", "2", "--eps-list", "1/2",
               "--trials", "1", "--indep-k", "4"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["status"] == "violated"
    assert rc == 1


def test_bench_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--u-list", "4", "--eps-list", "1/2", "--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bench_two_probe_cell(tmp_path, capsys):
    rc = main(["bench", "--u-list", "6", "--n-list", "2", "--eps-list", "1/2",
               "--kind", "two", "--trials", "1", "--indep-k", "4"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["status"] == "ok"
    # d = 24, s = next_pow2(2 * 24^2 * 2) = 4096; two stages
    assert int(rows[0]["bitmap_bits"]) == 2 * 4096


# stdout of `query` on the instance of GOLDEN_SHA256 in test_storage.py at
# k=6, recorded before the kinds shared one query path: the text, the probe
# indices drawn from --master-seed and the positions they read must not move.
GOLDEN_QUERY = {
    ("one", 17, "--master-seed 5"):
        "answer=true probe_index=19 bit_position=3077\n",
    ("one", 17, "--exact"):
        "answer=true probe_index=12 bit_position=2426\npositive_rate=1/1\n",
    ("one", 17, "--trials 64"):
        "answer=true probe_index=12 bit_position=2426\npositive_rate=1.0 trials=64\n",
    ("one", 51, "--master-seed 5"):
        "answer=true probe_index=19 bit_position=2037\n",
    ("one", 51, "--exact"):
        "answer=false probe_index=12 bit_position=1474\npositive_rate=1/12\n",
    ("one", 51, "--trials 64"):
        "answer=false probe_index=12 bit_position=1474\npositive_rate=0.09375 trials=64\n",
    ("two", 17, "--master-seed 5"):
        "answer=true probe_indices=19,8 bit_positions=3077,3261\n",
    ("two", 17, "--exact"):
        "answer=true probe_indices=12,13 bit_positions=2426,2156\npositive_rate=1/1\n",
    ("two", 17, "--trials 64"):
        "answer=true probe_indices=12,13 bit_positions=2426,2156\npositive_rate=1.0 trials=64\n",
    ("two", 2, "--master-seed 5"):
        "answer=false probe_indices=19,8 bit_positions=4518,5144\n",
    ("two", 2, "--exact"):
        "answer=false probe_indices=12,13 bit_positions=2276,1463\npositive_rate=1/576\n",
    ("two", 2, "--trials 64"):
        "answer=false probe_indices=12,13 bit_positions=2276,1463\npositive_rate=0.015625 trials=64\n",
    ("bmrv", 17, "--master-seed 5"):
        "answer=true probe_index=19 bit_position=3077\n",
    ("bmrv", 17, "--exact"):
        "answer=true probe_index=12 bit_position=2426\npositive_rate=1/1\n",
    ("bmrv", 17, "--trials 64"):
        "answer=true probe_index=12 bit_position=2426\npositive_rate=1.0 trials=64\n",
    ("bmrv", 59, "--master-seed 5"):
        "answer=false probe_index=19 bit_position=7270\n",
    ("bmrv", 59, "--exact"):
        "answer=false probe_index=12 bit_position=4997\npositive_rate=1/8\n",
    ("bmrv", 59, "--trials 64"):
        "answer=false probe_index=12 bit_position=4997\npositive_rate=0.171875 trials=64\n",
}


@pytest.mark.parametrize("kind", ["one", "two", "bmrv"])
def test_query_output_matches_golden(tmp_path, capsys, kind):
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, kind=kind, u=6,
                   extra=("--master-seed", "7"))
    cases = {key: text for key, text in GOLDEN_QUERY.items() if key[0] == kind}
    for (_, x, flags), text in cases.items():
        assert main(["query", out, str(x), *flags.split()]) == 0
        assert capsys.readouterr().out == text
