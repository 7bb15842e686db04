import csv
import hashlib
import io
import re
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitprobe import _clmul, cli, gf, graph, oracle, reduction, scheme_one, storage
from bitprobe.bits import Bitmap
from bitprobe.cli import main
from bitprobe.graph import neighbor
from bitprobe.oracle import ErrorProfile
from bitprobe.storage import section_layout

from helpers import on_both_routes, with_bitmaps


def write_set(tmp_path, elements, name="set.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{x}\n" for x in elements))
    return str(path)


def parse_summary(line):
    return dict(kv.split("=", 1) for kv in line.strip().split())


def build(tmp_path, elements, capsys, *, kind="one", u=10, eps="1/2", indep_k=6,
          extra=(), name="scheme.bps"):
    """Build a scheme at k = indep_k, or at the CLI's default k where it is None."""
    out = str(tmp_path / name)
    k_flag = () if indep_k is None else ("--indep-k", str(indep_k))
    rc = main(["build", write_set(tmp_path, elements), "-o", out,
               "--kind", kind, "--universe-bits", str(u), "--eps", eps, *k_flag, *extra])
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
    sch = storage.load(Path(out).read_bytes())
    assert sch.stages[0].bitmap.as_bool_array().sum() == 0


def test_build_is_byte_identical_across_runs(tmp_path, capsys):
    out1, _ = build(tmp_path, [5, 9], capsys, name="a.bps")
    out2, _ = build(tmp_path, [5, 9], capsys, name="b.bps")
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_build_rejects_duplicates_and_overflow(tmp_path, capsys):
    rc = main(["build", write_set(tmp_path, [1, 1]), "-o", str(tmp_path / "x"),
               "--universe-bits", "4", "--eps", "1/2"])
    assert rc == 2
    # 40,001 lines with one duplicate: named, and found in linear time
    elements = list(range(0, 80_000, 2)) + [31_336]
    rc = main(["build", write_set(tmp_path, elements), "-o", str(tmp_path / "x"),
               "--universe-bits", "20", "--eps", "1/2"])
    assert rc == 2
    assert "duplicate elements [31336]" in capsys.readouterr().err
    rc = main(["build", write_set(tmp_path, [16]), "-o", str(tmp_path / "x"),
               "--universe-bits", "4", "--eps", "1/2"])
    assert rc == 2
    capsys.readouterr()


def test_build_retries_exhausted_exit_code(tmp_path, capsys):
    # at indep_k=1 the polynomial is a constant: every probe slot of every
    # element lands on one bit, so no seed passes the reduction check
    rc = main(["build", write_set(tmp_path, [1]), "-o", str(tmp_path / "x"),
               "--universe-bits", "4", "--eps", "1/2", "--max-retries", "1",
               "--indep-k", "1"])
    assert rc == 2
    assert "after 1 attempts (failure rate 1/1)" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_build_rejects_master_seed_outside_u64(tmp_path, capsys, seed):
    out = tmp_path / "x.bps"
    rc = main(["build", write_set(tmp_path, [1]), "-o", str(out), "--universe-bits", "4",
               "--eps", "1/2", "--indep-k", "6", "--master-seed", str(seed)])
    assert rc == 2
    assert f"build failed: --master-seed {seed} outside [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "SET", "-o", "OUT", "--universe-bits", "4", "--eps", "1/2", "--max-retries", "-3"],
    ["build", "SET", "-o", "OUT", "--universe-bits", "4", "--eps", "1/2", "--max-retries", "0"],
    ["query", "OUT", "1", "--trials", "-5"],
    ["query", "OUT", "1", "--trials", "\u0667"],  # an Arabic-Indic 7: int() takes it
    ["build", "SET", "-o", "OUT", "--universe-bits", "4", "--eps", "1/2", "--indep-k", "\u0667"],
    ["build", "SET", "-o", "OUT", "--universe-bits", "4", "--eps", "1/2", "--n-cap", "+1_0"],
    ["build", "SET", "-o", "OUT", "--universe-bits", "4", "--eps", "1/2",
     "--field-width", "\u0668"],
    ["query", "OUT", "+1_0"],
    ["query", "OUT", "\u0667"],
    ["bench", "--u-list", "4", "--eps-list", "1/2", "--n-list", "1,+1_0"],
    ["bench", "--u-list", "4", "--eps-list", "1/2", "--indep-k", "\u0667"],
])
def test_count_flags_reject_values_below_their_range(tmp_path, capsys, argv):
    out, _ = build(tmp_path, [1], capsys, u=4)
    paths = {"SET": write_set(tmp_path, [1]), "OUT": out}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(arg, arg) for arg in argv])
    assert exc.value.code == 2
    assert "expected an integer >=" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["+1_0", "\u0667"])
@pytest.mark.parametrize("argv", [
    ["build", "SET", "-o", "OUT", "--universe-bits", "4", "--eps", "1/2", "--master-seed"],
    ["query", "OUT", "1", "--master-seed"],
    ["bench", "--u-list", "4", "--eps-list", "1/2", "--master-seed"],
])
def test_master_seed_takes_decimal_digits_only(tmp_path, capsys, argv, seed):
    out, _ = build(tmp_path, [1], capsys, u=4)
    paths = {"SET": write_set(tmp_path, [1]), "OUT": out}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(arg, arg) for arg in argv] + [seed])
    assert exc.value.code == 2
    assert f"expected a decimal integer, got {seed!r}" in capsys.readouterr().err


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


def test_query_exact_and_trials_are_exclusive(tmp_path, capsys):
    out, _ = build(tmp_path, [1], capsys, u=4)
    with pytest.raises(SystemExit) as exc:
        main(["query", out, "1", "--exact", "--trials", "3"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_pass_and_csv_profile(tmp_path, capsys):
    elements = [2, 17, 40, 77]
    out, _ = build(tmp_path, elements, capsys, u=8, eps="1/2")
    csv_path = str(tmp_path / "profile.csv")
    rc = main(["verify", out, write_set(tmp_path, elements), "-o", csv_path])
    assert rc == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
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
    blob = bytearray(Path(out).read_bytes())
    scheme = storage.load(bytes(blob))
    # clear the bit the first member's probe 0 reads: a false negative now exists
    pos = neighbor(scheme.graph, 4, 0)
    layout = {name: (off, ln) for name, off, ln in section_layout(bytes(blob))}
    off = layout["bitmap"][0] + 8 + (pos >> 3)
    blob[off] &= ~(1 << (pos & 7)) & 0xFF
    Path(out).write_bytes(bytes(blob))
    rc = main(["verify", out, write_set(tmp_path, elements)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "false_negatives=" in err and "verdict=fail" in err


# sha256 of the `verify` CSV, the exit code and the stderr line on the
# GOLDEN_SHA256 instances at k=6 (test_storage.py), recorded before the oracle
# counted errors in integers; "cut" clears the bit that member 3's probe 0
# reads in the last stage, so member 3 errs.
GOLDEN_VERIFY = {
    ("one", "intact"): (0, "2e21f27301a13134d1e8455e290dfdb61d8fb9e61d91a0d6dbe19caff68f76d3",
        "false_negatives=0 max_member_error=0/1 max_nonmember_error=1/8 eps=1/2 verdict=pass\n"),
    ("one", "cut"): (1, "ae96f4cdb9293de2331e3a39b3639d5594c099dc5a89dc809e8a4ddc0c251c00",
        "false_negatives=1 max_member_error=1/24 max_nonmember_error=1/8 eps=1/2 verdict=fail\n"),
    ("two", "intact"): (0, "2febce61a8f8f85a37b221313716f0a4177913df37ab034dcf70832b45b9c041",
        "false_negatives=0 max_member_error=0/1 max_nonmember_error=1/288 eps=1/2 verdict=pass\n"),
    ("two", "cut"): (1, "f7477553a375d3b34e464e0ab61197697031c5f5ca19237d4117ee11c1b29de5",
        "false_negatives=1 max_member_error=1/24 max_nonmember_error=1/288 eps=1/2 verdict=fail\n"),
    ("bmrv", "intact"): (0, "2e21f27301a13134d1e8455e290dfdb61d8fb9e61d91a0d6dbe19caff68f76d3",
        "false_negatives=0 max_member_error=0/1 max_nonmember_error=1/8 eps=1/2 verdict=pass\n"),
    ("bmrv", "cut"): (0, "ae96f4cdb9293de2331e3a39b3639d5594c099dc5a89dc809e8a4ddc0c251c00",
        "false_negatives=1 max_member_error=1/24 max_nonmember_error=1/8 eps=1/2 verdict=pass\n"),
}


@on_both_routes("kind", ["one", "two", "bmrv"])
def test_verify_output_matches_golden(tmp_path, capsys, kind, route):
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, kind=kind, u=6,
                   extra=("--master-seed", "7"))
    set_file = write_set(tmp_path, [3, 17, 40, 58])
    for variant in ("intact", "cut"):
        if variant == "cut":
            sch = storage.load(Path(out).read_bytes())
            flags = [st.bitmap.as_bool_array() for st in sch.stages]
            flags[-1][neighbor(sch.stages[-1].graph, 3, 0)] = False
            bitmaps = map(Bitmap.from_bool_array, flags)
            Path(out).write_bytes(storage.save(with_bitmaps(sch, *bitmaps)))
        csv_path = tmp_path / f"{variant}.csv"
        rc = main(["verify", out, set_file, "-o", str(csv_path)])
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert (rc, digest, capsys.readouterr().err) == GOLDEN_VERIFY[kind, variant]


def test_profile_csv_is_what_csv_writer_writes():
    # rows past two writes; errors at 0, in lowest terms and not
    rng = np.random.default_rng(5)
    m, den = 2 * cli._ROWS_PER_WRITE + 3, 24 * 24
    errors = rng.integers(0, den + 1, m)
    member = rng.random(m) < 0.1
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["element", "membership", "exact_error_num", "exact_error_den"])
    rates = [Fraction(e, den) for e in errors.tolist()]
    writer.writerows([x, int(member[x]), r.numerator, r.denominator] for x, r in enumerate(rates))
    got = io.StringIO(newline="")
    cli._write_profile(ErrorProfile(errors, den, member, Fraction(1, 2), False), got)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("indep_k", [None, 6], ids=["default-k", "k6"])
def test_verify_fails_when_the_compiled_route_disagrees_with_numpy(tmp_path, capsys,
                                                                   monkeypatch, indep_k):
    # the default k = 36 at u = 6 takes the split numpy reference (B = 4),
    # k = 6 the one-row one
    lib = _clmul._lib()
    if lib is None:
        pytest.skip("the compiled route is not loaded")
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, u=6, indep_k=indep_k)
    assert storage.load(Path(out).read_bytes()).stages[0].graph.seed.indep_k == (indep_k or 36)

    class FlipFirstPoint:
        """The compiled loop, but bit 0 of the first point of a bulk call flips."""
        horner1 = lib.horner1
        count = lib.count

        @staticmethod
        def horner(coeffs, xs, out, w, mask):
            lib.horner(coeffs, xs, out, w, mask)
            out[0] ^= 1

    monkeypatch.setattr(_clmul, "_lib", FlipFirstPoint)
    csv_path = tmp_path / "profile.csv"
    assert main(["verify", out, write_set(tmp_path, [3, 17, 40, 58]), "-o", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"verify failed: stage 1: edge index \d+ evaluates to \d+ in the edge "
                        r"scan but to \d+ on the numpy route\n", err), err
    assert not csv_path.exists()
    assert main(["bench", "--u-list", "6", "--n-list", "2", "--eps-list", "1/2",
                 "--trials", "1", "--indep-k", "6"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["status"] == "KernelMismatch"


def miscount(lib, end: slice):
    """The compiled loop, but the fused count adds 1 to the rows at ``end``
    of every call: out[:1] its first row, out[-1:] its last."""

    class Miscount:
        horner = lib.horner
        horner1 = lib.horner1

        @staticmethod
        def count(coeffs, rows, out, d, top, packed, w, mask):
            lib.count(coeffs, rows, out, d, top, packed, w, mask)
            out[end] += 1

    return Miscount


def verify_fails_on_a_miscounted_row(tmp_path, capsys, out):
    """verify of the scheme file out exits 1, writes no CSV, and names a row
    whose count is its scan's plus 1."""
    csv_path = tmp_path / "profile.csv"
    assert main(["verify", out, write_set(tmp_path, [3, 17, 40, 58]), "-o", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"verify failed: stage 1: left vertex \d+ has (\d+) probe slots on set "
                        r"bits in the count but (\d+) in the edge scan\n", err), err
    counted, scanned = map(int, re.findall(r"has (\d+) .* but (\d+) ", err)[0])
    assert counted == scanned + 1
    assert not csv_path.exists()


def test_verify_fails_when_the_fused_count_disagrees_with_the_scan(tmp_path, capsys,
                                                                  monkeypatch):
    lib = _clmul._lib()
    if lib is None:
        pytest.skip("the compiled route is not loaded")
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, u=6)
    monkeypatch.setattr(_clmul, "_lib", miscount(lib, slice(None, 1)))
    verify_fails_on_a_miscounted_row(tmp_path, capsys, out)
    assert main(["bench", "--u-list", "6", "--n-list", "2", "--eps-list", "1/2",
                 "--trials", "1", "--indep-k", "6"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["status"] == "KernelMismatch"


@pytest.mark.parametrize("kind", ["one", "two"])
def test_query_exact_fails_when_the_fused_count_disagrees_with_the_scan(tmp_path, capsys,
                                                                       monkeypatch, kind):
    # --exact counts x's slots through the oracle, so its one row is
    # sampled and checked as verify checks every row
    lib = _clmul._lib()
    if lib is None:
        pytest.skip("the compiled route is not loaded")
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, kind=kind, u=6)
    monkeypatch.setattr(_clmul, "_lib", miscount(lib, slice(None, 1)))
    assert main(["query", out, "5", "--exact"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("answer=") and "positive_rate" not in captured.out
    match = re.fullmatch(r"query failed: stage 1: left vertex 5 has (\d+) probe slots on set "
                         r"bits in the count but (\d+) in the edge scan\n", captured.err)
    assert match and int(match[1]) == int(match[2]) + 1, captured.err


@pytest.mark.parametrize("master_seed", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("end", [slice(None, 1), slice(-1, None)], ids=["first", "last"])
def test_verify_fails_when_the_first_or_last_row_is_miscounted(tmp_path, capsys, monkeypatch,
                                                                end, master_seed):
    # the count sample always holds rows 0 and m - 1, whichever rows its
    # seed draws: a fault in one of them alone is caught under every seed
    lib = _clmul._lib()
    if lib is None:
        pytest.skip("the compiled route is not loaded")
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, u=6,
                   extra=("--master-seed", str(master_seed)))
    monkeypatch.setattr(_clmul, "_lib", miscount(lib, end))
    verify_fails_on_a_miscounted_row(tmp_path, capsys, out)


def test_verify_fails_when_only_the_large_counts_are_wrong(tmp_path, capsys, monkeypatch):
    # a fault in calls of more rows than a count sample, as the full counts
    # that count splits over threads are, shows in the counts the profile
    # multiplies; here every partial overlap reads 0, so without that check
    # every non-member would look error-free and the verdict would hold
    if not gf.compiled():
        pytest.skip("the compiled route is not loaded")
    members = [3, 17, 40, 58]
    out, _ = build(tmp_path, members, capsys, u=6)
    count = reduction.overlap_counts

    def lose_partial_overlaps(seed, rows, d, s, packed):
        counts = count(seed, rows, d, s, packed)
        if len(rows) > oracle.COUNT_SAMPLES:
            counts[counts < d] = 0
        return counts

    monkeypatch.setattr(reduction, "overlap_counts", lose_partial_overlaps)
    mismatch = (r"stage 1: left vertex \d+ has 0 probe slots on set bits in the count but "
                r"[1-9]\d* in the edge scan")
    with pytest.raises(oracle.KernelMismatch, match=f"^{mismatch}$"):
        oracle.error_profile(storage.load(Path(out).read_bytes()), members)
    csv_path = tmp_path / "profile.csv"
    assert main(["verify", out, write_set(tmp_path, members), "-o", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"verify failed: {mismatch}\n", err), err
    assert not csv_path.exists()


def test_verify_fails_when_the_numpy_route_disagrees_with_pure_python(tmp_path, capsys,
                                                                      monkeypatch):
    # on the fallback the sample must not be checked against the route it checks
    monkeypatch.setattr(_clmul, "_lib", lambda: None)
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, u=6)
    numpy_block = gf._numpy_block

    def flip_first_point(seed, xs):
        values = numpy_block(seed, xs)
        values[:1] ^= np.uint64(1)
        return values

    monkeypatch.setattr(gf, "_numpy_block", flip_first_point)
    csv_path = tmp_path / "profile.csv"
    assert main(["verify", out, write_set(tmp_path, [3, 17, 40, 58]), "-o", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"verify failed: stage 1: edge index \d+ evaluates to \d+ in the edge "
                        r"scan but to \d+ on the pure-Python route\n", err), err
    assert not csv_path.exists()


@on_both_routes("fault", ["sample", "count", "both"])
def test_a_failing_verify_joins_its_count_thread(tmp_path, capsys, monkeypatch, fault, route):
    # the oracle counts on a thread beside the samples: a sample's mismatch
    # wins, a count's own error surfaces as it is, and no thread outlives it
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, u=6)
    reference_block, slot_overlap_counts = oracle.reference_block, oracle.slot_overlap_counts

    def flip_first_point(seed, xs):
        name, values = reference_block(seed, xs)
        values[:1] ^= np.uint64(1)
        return name, values

    def slow_count(g, marked, rows):
        if len(rows) == g.params.m:  # the full count, not a sample's
            time.sleep(0.05)  # still running when the samples fail
            if fault != "sample":
                raise MemoryError("no room for the counts")
        return slot_overlap_counts(g, marked, rows)

    if fault != "count":
        monkeypatch.setattr(oracle, "reference_block", flip_first_point)
    monkeypatch.setattr(oracle, "slot_overlap_counts", slow_count)
    threads = threading.active_count()
    rc = main(["verify", out, write_set(tmp_path, [3, 17, 40, 58])])
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    if fault == "count":
        assert (rc, err) == (2, "verify failed: no room for the counts\n")
    else:
        assert rc == 1
        assert re.fullmatch(r"verify failed: stage 1: edge index \d+ evaluates to \d+ in the "
                            r"edge scan but to \d+ on the [a-zP-]+ route\n", err), err


def test_verify_budget_exceeded(tmp_path, capsys, monkeypatch):
    elements = [1, 2]
    out, _ = build(tmp_path, elements, capsys, u=8)
    monkeypatch.setenv("BITPROBE_BUDGET", "16")
    rc = main(["verify", out, write_set(tmp_path, elements)])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("raw", ["abc", "-5", "\u0667"])
def test_malformed_budget_fails_as_bad_input(tmp_path, capsys, monkeypatch, raw, command):
    out, _ = build(tmp_path, [1, 2], capsys, u=6)
    csv_path = tmp_path / "out.csv"
    argv = {"verify": ["verify", out, write_set(tmp_path, [1, 2])],
            "bench": ["bench", "--u-list", "6", "--eps-list", "1/2", "--trials", "1"]}
    monkeypatch.setenv("BITPROBE_BUDGET", raw)
    rc = main(argv[command] + ["-o", str(csv_path)])
    assert rc == 2
    assert f"BITPROBE_BUDGET must be an integer >= 0, got {raw!r}" in capsys.readouterr().err
    assert not csv_path.exists()  # rejected before any work


@pytest.mark.parametrize("command", ["query", "verify"])
def test_out_of_memory_fails_as_bad_input(tmp_path, capsys, monkeypatch, command):
    # exit 1 means a violated guarantee, which running out of memory is not
    out, _ = build(tmp_path, [1, 2], capsys, u=6)

    def load(data):
        raise MemoryError("no room for the scheme")

    monkeypatch.setattr(storage, "load", load)
    argv = {"query": ["query", out, "1"], "verify": ["verify", out, write_set(tmp_path, [1, 2])]}
    assert main(argv[command]) == 2
    assert capsys.readouterr().err == f"{command} failed: no room for the scheme\n"


@pytest.mark.parametrize("command", ["build", "verify", "bench"])
def test_unwritable_output_fails_as_bad_input(tmp_path, capsys, command):
    out, _ = build(tmp_path, [1, 2], capsys, u=6)
    set_file = write_set(tmp_path, [1, 2])
    argv = {"build": ["build", set_file, "--universe-bits", "6", "--eps", "1/2",
                      "--indep-k", "6"],
            "verify": ["verify", out, set_file],
            "bench": ["bench", "--u-list", "6", "--eps-list", "1/2", "--trials", "1",
                      "--indep-k", "6"]}
    rc = main(argv[command] + ["-o", str(tmp_path / "no-such-dir" / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: ") and "no-such-dir" in err


# Set files hold one element per line as ASCII digits alone: no sign, no
# underscore, no other script's digits, though int() takes all of these.
NON_DECIMAL = st.one_of(
    st.sampled_from(["+3", "1_1", "\u0667", "\uff13", "-1", "0x1", "1.0", "1e1", "3 4"]),
    st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
            min_size=1))
# tmp_path is shared by the examples of a test: each example rewrites its files.
TMP_PATH_OK = [HealthCheck.function_scoped_fixture]


def _non_decimal(line):
    """Whether the stripped line is nonblank and not ASCII digits alone."""
    text = line.strip()
    return bool(text) and not (text.isascii() and text.isdigit())


@settings(max_examples=60, deadline=None, suppress_health_check=TMP_PATH_OK)
@given(elements=st.lists(st.integers(0, 15), unique=True, max_size=4),
       bad=NON_DECIMAL.filter(_non_decimal),
       at=st.integers(0, 4))
def test_set_file_rejects_every_non_decimal_line(tmp_path, capsys, elements, bad, at):
    lines = [str(x) for x in elements]
    lines.insert(at, bad)
    set_file = tmp_path / "set.txt"
    set_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "bad.bps"
    out.unlink(missing_ok=True)
    rc = main(["build", str(set_file), "-o", str(out), "--universe-bits", "4",
               "--eps", "1/2", "--indep-k", "6"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("build failed: ")
    assert not out.exists()


@settings(max_examples=25, deadline=None, suppress_health_check=TMP_PATH_OK)
@given(elements=st.lists(st.integers(0, 15), unique=True, max_size=4),
       layout=st.lists(st.tuples(st.sampled_from(["", " ", "\t", "0", "00"]),
                                 st.sampled_from(["", " ", "\t"]),
                                 st.sampled_from(["\n", "\r\n", "\n\n", "\n \n"])),
                       min_size=4, max_size=4))
def test_set_file_decimal_lines_build_the_library_scheme(tmp_path, capsys, elements, layout):
    # padding, leading zeros, blank lines and CRLF endings leave the set as it is
    text = "".join(f"{pad}{x}{tail}{end}" for x, (pad, tail, end) in zip(elements, layout))
    set_file = tmp_path / "set.txt"
    set_file.write_text(text, encoding="utf-8", newline="")
    out = tmp_path / "good.bps"
    assert main(["build", str(set_file), "-o", str(out), "--universe-bits", "4",
                 "--eps", "1/2", "--indep-k", "6"]) == 0
    capsys.readouterr()
    want = storage.save(scheme_one.encode(elements, 4, Fraction(1, 2), indep_k=6))
    assert out.read_bytes() == want


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

    blob = bytearray(Path(out).read_bytes())
    off = {name: off for name, off, _ in section_layout(bytes(blob))}["bitmap"]
    blob[off + 8:] = bytes(len(blob) - off - 8)  # every member now errs
    Path(out).write_bytes(bytes(blob))
    rc = main(["verify", out, set_file, "-o", str(tmp_path / "bmrv.csv")])
    assert rc == 1
    assert "verdict=fail" in capsys.readouterr().err


@pytest.mark.parametrize("bad_trial", [0, 2])
def test_bench_status_checks_the_guarantee(tmp_path, capsys, monkeypatch, bad_trial):
    # every build of the cell is verified, not only the last one
    builds = []

    def encode_one_empty(*args, **kwargs):
        sch = scheme_one.encode(*args, **kwargs)
        builds.append(sch)
        return with_bitmaps(sch, Bitmap(sch.params.s)) if len(builds) == bad_trial + 1 else sch

    monkeypatch.setitem(cli._ENCODERS, "one", encode_one_empty)
    rc = main(["bench", "--u-list", "6", "--n-list", "2", "--eps-list", "1/2",
               "--trials", "3", "--indep-k", "4"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(builds) == 3
    assert rows[0]["status"] == "violated"
    # the empty bitmap answers false for its members: error 1
    assert (rows[0]["max_error_num"], rows[0]["max_error_den"]) == ("1", "1")
    assert rc == 1


# Encodes that cannot run: a seed of 2^32 coefficients would be drawn by
# one getrandbits call of 2^38 bits, and the scan of 2^56 elements asks for
# 512 PiB, more than the (at most 57-bit) virtual addresses of current
# 64-bit processors reach, so both fail at once without allocating.
UNRUNNABLE_ENCODES = [
    (6, ["--indep-k", str(1 << 32)], "ValueError"),
    (56, [], "MemoryError"),
    (63, [], "ValueError"),
]


@pytest.mark.parametrize("u,flags,error", UNRUNNABLE_ENCODES)
def test_build_that_cannot_run_fails_as_bad_input(tmp_path, capsys, u, flags, error):
    out = tmp_path / "x.bps"
    rc = main(["build", write_set(tmp_path, [1, 2]), "-o", str(out),
               "--universe-bits", str(u), "--eps", "1/2", *flags])
    assert rc == 2
    assert "build failed: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("u,flags,error", UNRUNNABLE_ENCODES)
def test_bench_cell_that_cannot_run_reports_its_error(capsys, u, flags, error):
    rc = main(["bench", "--u-list", str(u), "--n-list", "2", "--eps-list", "1/2",
               "--trials", "1", *flags])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["status"] == error
    assert rc == 0


def test_bench_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--u-list", "4", "--eps-list", "1/2", "--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["build", "SET", "-o", "OUT", "--universe-bits", "65", "--eps", "1/2"],
    ["bench", "--u-list", "4,65", "--eps-list", "1/2"],
])
def test_universe_bits_above_the_widest_field_fail_at_parse_time(tmp_path, capsys, argv):
    paths = {"SET": write_set(tmp_path, [1]), "OUT": str(tmp_path / "x.bps")}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(arg, arg) for arg in argv])
    assert exc.value.code == 2
    assert "expected an integer in [1, 64], got '65'" in capsys.readouterr().err
    assert not (tmp_path / "x.bps").exists()


def test_build_over_n_cap_fails_with_the_set_check(tmp_path, capsys):
    out = tmp_path / "x.bps"
    rc = main(["build", write_set(tmp_path, [1, 2, 3]), "-o", str(out),
               "--universe-bits", "4", "--eps", "1/2", "--n-cap", "2"])
    assert rc == 2
    assert "build failed: |A| = 3 exceeds n_cap = 2" in capsys.readouterr().err
    assert not out.exists()


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


@on_both_routes("kind", ["one", "two", "bmrv"])
def test_query_output_matches_golden(tmp_path, capsys, kind, route):
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, kind=kind, u=6,
                   extra=("--master-seed", "7"))
    cases = {key: text for key, text in GOLDEN_QUERY.items() if key[0] == kind}
    for (_, x, flags), text in cases.items():
        assert main(["query", out, str(x), *flags.split()]) == 0
        assert capsys.readouterr().out == text


def test_query_evaluates_each_stage_polynomial_once(tmp_path, capsys, monkeypatch):
    out, _ = build(tmp_path, [3, 17, 40, 58], capsys, kind="two", u=6,
                   extra=("--master-seed", "7"))
    calls = []

    def counting_poly_eval(seed, x):
        calls.append(x)
        return poly_eval(seed, x)

    poly_eval = graph.poly_eval
    monkeypatch.setattr(graph, "poly_eval", counting_poly_eval)
    for x, answer in ((3, "true"), (5, "false")):
        calls.clear()
        assert main(["query", out, str(x)]) == 0
        assert capsys.readouterr().out.startswith(f"answer={answer} ")
        assert len(calls) == 2
