"""The compiled Horner loop: equal to both fallback routes, built lazily
into the cache, and replaced by the fallback wherever it cannot run."""

import functools
import hashlib
import importlib.util
import os
import platform
import random
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitprobe import _clmul, bmrv, gf, scheme_one, scheme_two, storage
from bitprobe.bits import Bitmap
from bitprobe.gf import GF2_64, PolySeed, poly_eval, poly_eval_block

from helpers import GF2_3, GF2_8, GF2_16, GF2_32, naive_poly_eval, on_both_routes, with_bitmaps

ROOT = Path(__file__).resolve().parents[1]
ALL_FIELDS = [GF2_3, GF2_8, GF2_16, GF2_32, GF2_64]
KINDS = {"one": scheme_one, "two": scheme_two, "bmrv": bmrv}
can_build = pytest.mark.skipif(
    shutil.which("gcc") is None
    or not Path(sysconfig.get_path("include"), "Python.h").is_file()
    or platform.machine() not in ("x86_64", "AMD64"),
    reason="gcc, the Python headers or x86-64 is missing")


def child_env(**changes):
    """This process's environment for a child: the package on its path,
    then the given changes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(changes)
    return env


@pytest.fixture
def reload_kernel():
    """Forget the loaded kernel before and after the test, so that the
    next evaluation loads it again under the environment of its time."""
    _clmul._lib.cache_clear()
    yield
    _clmul._lib.cache_clear()


@can_build
def test_kernel_loads_where_gcc_is_installed():
    # without this the suite could run only the fallback and pass
    assert _clmul._lib() is not None


@can_build
def test_kernel_source_compiles_without_warnings():
    # under the flags of the real build, less those that only shape the output
    flags = [f for f in _clmul._flags() if f not in ("-shared", "-fPIC")]
    check = subprocess.run(["gcc", *flags, "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
                            str(_clmul._SOURCE)], capture_output=True, text=True)
    assert check.returncode == 0, check.stderr


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_compiled_loop_equals_both_fallback_routes(field, data):
    element = st.sampled_from([0, 1, field.order - 1]) | st.integers(0, field.order - 1)
    k = data.draw(st.integers(1, 200))
    coeffs = tuple(data.draw(st.lists(element, min_size=k, max_size=k)))
    xs = data.draw(st.lists(element, max_size=11))  # one full run of 8 lanes, then single ones
    seed = PolySeed(coeffs, field)
    points = np.array(xs, dtype=np.uint64)
    bulk = poly_eval_block(seed, points).tolist()
    assert bulk == gf._numpy_block(seed, points).tolist()
    assert bulk == [gf._horner(coeffs, x, field.width_bits) for x in xs]
    assert bulk == [poly_eval(seed, x) for x in xs]


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_fold_decision_at_its_bound(field, data):
    # A Horner step folds once when every point of the call is below
    # 2^(w - deg(mask) + 1), else twice: draw points on both sides of that
    # bound into one call, short ones first, and count rows of odd d whose
    # first point lies below it and whose last point does not.
    compiled_lib()
    w, mask, order = field.width_bits, field.reduction_poly, field.order
    bound = min(order, 1 << (w - mask.bit_length() + 2))
    element = st.integers(0, order - 1)
    short = st.sampled_from([0, bound - 2, bound - 1]) | st.integers(0, bound - 1)
    long = st.sampled_from([bound, bound + 1, order - 1]) | st.integers(bound, order - 1)
    coeffs = tuple(data.draw(st.lists(element, min_size=2, max_size=24)))
    seed = PolySeed(coeffs, field)
    longs = data.draw(st.lists(long, max_size=9)) if bound < order else []  # GF(2^3): none
    xs = [data.draw(short)] + data.draw(st.permutations(
        data.draw(st.lists(short, max_size=9)) + longs))
    points = np.array(xs, dtype=np.uint64)
    bulk = poly_eval_block(seed, points).tolist()
    assert bulk == gf._numpy_block(seed, points).tolist()
    assert bulk == [gf._horner(coeffs, x, w) for x in xs]
    assert bulk == [poly_eval(seed, x) for x in xs]

    d = data.draw(st.integers(1, min(20, (order - 1) // 2))) * 2 + 1
    last_row = (min(order, 1 << 63) - d) // d  # the last row in the field and in int64
    cross = (bound - 1) // d  # holds bound - 1 and, as bound % d != 0, bound too
    rows = data.draw(st.lists(st.integers(0, min(cross, last_row)), max_size=4))
    if cross <= last_row:
        rows.append(cross)
    rows += data.draw(st.lists(st.integers(min(cross + 1, last_row), last_row), max_size=2))
    rows = np.array(rows, dtype=np.int64)
    top = (1 << data.draw(st.integers(3, 9))) - 1
    packed = data.draw(st.binary(min_size=(top + 1) // 8, max_size=(top + 1) // 8))
    counts = gf.overlap_counts(seed, rows, d, top + 1, packed).tolist()
    values = gf._numpy_block(seed, (rows[:, None] * d + np.arange(d)).astype(np.uint64)) & top
    bits = np.frombuffer(packed, dtype=np.uint8)[values >> 3] >> (values & 7).astype(np.uint8) & 1
    assert counts == bits.sum(axis=1).tolist()


def sample_values():
    """Bulk and single evaluations of a fixed GF(2^64) seed."""
    seed = PolySeed(tuple(range(3, 40, 3)) + ((1 << 64) - 1,), GF2_64)
    xs = [0, 1, 7, (1 << 32) + 5, (1 << 64) - 1] * 3
    return (poly_eval_block(seed, np.array(xs, dtype=np.uint64)).tolist(),
            [poly_eval(seed, x) for x in xs])


@pytest.mark.parametrize("missing", ["cache directory", "gcc", "Python headers"])
def test_fallback_where_the_kernel_cannot_build(tmp_path, monkeypatch, reload_kernel, missing):
    want = sample_values()
    cache_home = tmp_path / "cache"
    if missing == "cache directory":
        cache_home.write_text("")  # a file where the cache directory would go
    elif missing == "gcc":
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    else:
        get_path = sysconfig.get_path
        monkeypatch.setattr(sysconfig, "get_path", lambda name, *rest, **options: (
            str(tmp_path) if name == "include" else get_path(name, *rest, **options)))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    _clmul._lib.cache_clear()
    assert _clmul._lib() is None
    assert sample_values() == want
    if missing != "cache directory":
        assert os.listdir(cache_home / "bitprobe") == []  # no temporary file left


@pytest.mark.parametrize("fault", [subprocess.CalledProcessError(1, "gcc"),
                                   subprocess.TimeoutExpired("gcc", 120)], ids=["fails", "times out"])
def test_a_build_that_fails_raises_os_error(tmp_path, monkeypatch, fault):
    def run(argv, **options):
        raise fault

    monkeypatch.setattr(subprocess, "run", run)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(OSError, match="^building _clmul.c failed: "):
        _clmul._shared_object()
    assert os.listdir(tmp_path / "bitprobe") == []  # no temporary file left


def test_fallback_where_the_module_init_raises(monkeypatch, reload_kernel):
    # as it does on a CPU without PCLMULQDQ
    want = sample_values()

    def no_pclmul(spec):
        raise ImportError("the CPU has no PCLMULQDQ")

    monkeypatch.setattr(importlib.util, "module_from_spec", no_pclmul)
    _clmul._lib.cache_clear()
    assert _clmul._lib() is None
    assert sample_values() == want


def test_cached_library_is_keyed_by_the_interpreter_abi(monkeypatch):
    here = _clmul._cached_path()
    get_config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
        ".cpython-399-x86_64-linux-gnu.so" if name == "EXT_SUFFIX" else get_config_var(name)))
    there = _clmul._cached_path()
    assert there.parent == here.parent
    # the hash moves, not only the suffix
    assert there.name.split(".")[0] != here.name.split(".")[0]


def test_nothing_is_built_off_x86_64(tmp_path, monkeypatch, reload_kernel):
    want = sample_values()
    gcc_calls = []
    run = subprocess.run

    def spy(argv, **options):
        gcc_calls.append(argv)
        return run(argv, **options)

    monkeypatch.setattr(subprocess, "run", spy)
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # an empty cache: loading needs a build
    _clmul._lib.cache_clear()
    assert _clmul._lib() is None
    assert sample_values() == want
    assert gcc_calls == []


@can_build
def test_two_processes_building_at_once_share_one_library(tmp_path):
    # each child also shows that the compiled route imports no ffi package,
    # and a third, loading from the cache, that a cached load runs no build
    script = ("import sys\n"
              "from bitprobe import _clmul, gf\n"
              "assert _clmul._lib() is not None\n"
              "print(gf.poly_eval(gf.PolySeed((3, 5, 1 << 63), gf.GF2_64), 11),\n"
              "      sorted({'cffi', 'pycparser'} & set(sys.modules)),\n"
              "      'subprocess' in sys.modules)\n")
    env = child_env(XDG_CACHE_HOME=str(tmp_path))

    def start():
        return subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    children = [start() for _ in range(2)]
    outputs = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0, 0], outputs
    want = naive_poly_eval((3, 5, 1 << 63), 11, 64, GF2_64.reduction_poly)
    assert [out.rpartition(" ")[0] for out, _ in outputs] == [f"{want} []"] * 2
    cached = start()
    assert cached.communicate(timeout=120) == (f"{want} [] False\n", "")
    [library] = os.listdir(tmp_path / "bitprobe")
    assert library.startswith("clmul-")
    assert library.endswith(sysconfig.get_config_var("EXT_SUFFIX"))


@can_build
def test_threads_loading_at_once_all_get_the_module():
    # the first call sets up sysconfig lazily, which a second thread must
    # not see half done; the cache is warm, so no thread builds
    assert _clmul._lib() is not None
    script = ("import threading\n"
              "from bitprobe import _clmul\n"
              "start = threading.Barrier(4)\n"
              "loaded = []\n"
              "def load():\n"
              "    start.wait()\n"
              "    loaded.append(_clmul._lib() is not None)\n"
              "threads = [threading.Thread(target=load) for _ in range(4)]\n"
              "for t in threads:\n"
              "    t.start()\n"
              "for t in threads:\n"
              "    t.join(60)\n"
              "print(loaded, [t.is_alive() for t in threads])\n")
    child = subprocess.run([sys.executable, "-c", script], env=child_env(), text=True,
                           capture_output=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"{[True] * 4} {[False] * 4}\n", child.stderr


def compiled_lib():
    lib = _clmul._lib()
    if lib is None:
        pytest.skip("the compiled route is not loaded")
    return lib


WORDS = np.arange(1, 7, dtype=np.uint64).tobytes()  # six coefficients
GF64 = (64, GF2_64.reduction_poly)
PACKED = bytes([2]) + bytes(7)  # bits 0 to 63, of which bit 1 alone is set: top = s - 1 = 63
BAD_CALLS = {
    "empty coefficients": lambda lib, xs, out: lib.horner(b"", xs, out, *GF64),
    "empty coefficients, one point": lambda lib, xs, out: lib.horner1(b"", 5, *GF64),
    "coefficients of 12 bytes": lambda lib, xs, out: lib.horner(WORDS[:12], xs, out, *GF64),
    "coefficients of 12 bytes, one point": lambda lib, xs, out: lib.horner1(WORDS[:12], 5, *GF64),
    "xs longer than out": lambda lib, xs, out: lib.horner(WORDS, np.append(xs, xs), out, *GF64),
    "out longer than xs": lambda lib, xs, out: lib.horner(WORDS, xs[:7], out, *GF64),
    "read-only out": lambda lib, xs, out: lib.horner(WORDS, xs, read_only(out), *GF64),
    "int64 xs": lambda lib, xs, out: lib.horner(WORDS, xs.astype(np.int64), out, *GF64),
    "strided xs": lambda lib, xs, out: lib.horner(WORDS, np.repeat(xs, 2)[::2], out, *GF64),
    "negative x": lambda lib, xs, out: lib.horner1(WORDS, -1, *GF64),
    "x of 2^64": lambda lib, xs, out: lib.horner1(WORDS, 1 << 64, *GF64),
    "width 65": lambda lib, xs, out: lib.horner(WORDS, xs, out, 65, GF64[1]),
    "width 0, one point": lambda lib, xs, out: lib.horner1(WORDS, 5, 0, GF64[1]),
    "count, rows longer than out": lambda lib, xs, out: lib.count(
        WORDS, np.append(xs, xs), out, 4, 63, PACKED, *GF64),
    "count, out longer than rows": lambda lib, xs, out: lib.count(
        WORDS, xs[:7], out, 4, 63, PACKED, *GF64),
    "count, read-only out": lambda lib, xs, out: lib.count(
        WORDS, xs, read_only(out), 4, 63, PACKED, *GF64),
    "count, strided rows": lambda lib, xs, out: lib.count(
        WORDS, np.repeat(xs, 2)[::2], out, 4, 63, PACKED, *GF64),
    "count, int32 rows": lambda lib, xs, out: lib.count(
        WORDS, xs.astype(np.int32), out, 4, 63, PACKED, *GF64),
    "count, packed a byte short of bit top": lambda lib, xs, out: lib.count(
        WORDS, xs, out, 4, 63, PACKED[:7], *GF64),
    "count, d of 0": lambda lib, xs, out: lib.count(WORDS, xs, out, 0, 63, PACKED, *GF64),
    "count, points beyond the field": lambda lib, xs, out: lib.count(
        WORDS[:8], xs, out, 33, 63, PACKED, 8, 0x1B),  # row 7's last point is 263
    "count, points beyond 2^64": lambda lib, xs, out: lib.count(
        WORDS, xs * np.uint64(1 << 61), out, 8, 63, PACKED, *GF64),
}


def read_only(array):
    view = array.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("case", list(BAD_CALLS))
def test_compiled_entry_points_reject_bad_arguments(case):
    lib = compiled_lib()
    xs, out = np.arange(8, dtype=np.uint64), np.full(8, 7, dtype=np.uint64)
    with pytest.raises((ValueError, OverflowError)):
        BAD_CALLS[case](lib, xs, out)
    assert out.tolist() == [7] * 8  # nothing written


def test_count_takes_int64_rows_and_the_last_row_that_fits():
    # the bad count cases fail on one argument each; mended, they count
    lib = compiled_lib()
    rows, out = np.array([0, 7], dtype=np.int64), np.full(2, 7, dtype=np.int64)
    lib.count(WORDS[:8], rows, out, 32, 63, PACKED, 8, 0x1B)  # row 7 ends at 255
    assert out.tolist() == [32, 32]  # the constant polynomial 1 reads bit 1 in every slot


@can_build
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or not Path("/proc/self/task").is_dir(),
                    reason="no affinity mask or no /proc/self/task")
def test_count_threads_follow_the_affinity_mask_and_end_with_the_call():
    # a watcher lists the process's threads while a count of 2^12 rows x
    # 64 slots x 100 coefficients runs with the GIL released: one worker
    # per further CPU of the mask (at most 4 in all), none on a mask of one
    # CPU, and none left once the count has returned (a joined thread
    # leaves /proc/self/task a moment after its join)
    script = ("import os, threading, time\n"
              "import numpy as np\n"
              "from bitprobe import _clmul\n"
              "lib = _clmul._lib()\n"
              "words = np.arange(1, 101, dtype=np.uint64)\n"
              "rows, out = np.arange(1 << 12), np.empty(1 << 12, dtype=np.int64)\n"
              "def threads():\n"
              "    return len(os.listdir('/proc/self/task'))\n"
              "def peak():\n"
              "    base, seen, done = threads(), [], threading.Event()\n"
              "    def watch():\n"
              "        while not done.is_set():\n"
              "            seen.append(threads())\n"
              "    watcher = threading.Thread(target=watch)\n"
              "    watcher.start()\n"
              "    lib.count(words, rows, out, 64, 1023, bytes(128), 64, 0x1B)\n"
              "    done.set()\n"
              "    watcher.join(60)\n"
              "    for _ in range(1000):\n"
              "        if threads() == base:\n"
              "            break\n"
              "        time.sleep(0.001)\n"
              "    return max(seen) - base - 1, threads() - base\n"
              "many = peak()\n"
              "os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])\n"
              "print(many, peak())\n")
    child = subprocess.run([sys.executable, "-c", script], env=child_env(), text=True,
                           capture_output=True, timeout=120)
    assert child.returncode == 0, child.stderr
    workers = min(len(os.sched_getaffinity(0)), 4) - 1
    assert child.stdout == f"{(workers, 0)} {(0, 0)}\n"


@on_both_routes("x", [-1, 1 << 64])
def test_point_outside_the_field_raises_the_same_error(x, route):
    with pytest.raises(ValueError, match=f"^x={x} does not fit in 64 bits$"):
        poly_eval(PolySeed((3, 5), GF2_64), x)


@functools.cache
def u14_scheme(kind, indep_k):
    """A u=14, n=8, eps=1/2 scheme as query-k6 serves them; the bytes are
    the same on either route, so it is built once."""
    members = sorted(random.Random(14).sample(range(1 << 14), 8))
    return members, KINDS[kind].encode(members, 14, Fraction(1, 2), indep_k=indep_k)


class LoggedBitmap(Bitmap):
    """A stage bitmap that feeds the position of every read to a digest."""

    def __init__(self, bitmap, digest):
        super().__init__(bitmap.nbits, bitmap.to_bytes())
        self.digest = digest

    def get(self, i):
        self.digest.update(b"%d," % i)
        return super().get(i)


def query_stream_digest(kind, indep_k):
    """sha256 of 2,000 library queries (members and random elements in
    turn) from one fixed rng: the bit positions each reads and its answer,
    then the rng's state."""
    members, sch = u14_scheme(kind, indep_k)
    digest = hashlib.sha256()
    sch = with_bitmaps(sch, *(LoggedBitmap(st.bitmap, digest) for st in sch.stages))
    rng, elements = random.Random(2024), random.Random(7)
    for i in range(2000):
        x = members[i % 8] if i % 2 else elements.randrange(1 << 14)
        digest.update(b"1;" if KINDS[kind].query(sch, x, rng) else b"0;")
    digest.update(repr(rng.getstate()).encode())
    return digest.hexdigest()


# Recorded on the cffi-loaded loop: a faster query path must draw the same
# probe indices from the rng and read the same bits.  `one` and `bmrv` agree
# here: both accept the same first seed, and at this sizing bmrv's labeling
# is the neighborhood bitmap.
GOLDEN_QUERY_STREAM = {
    ("one", 6): "405c7560068ab809b92483aa4c70020ab5b7f8d96dd3f83516eb8874b1e8764b",
    ("one", None): "2cc1b381f8d05aea07f0201f34e685ea69fbcc31ec00162a93cb3c24ae9225c0",
    ("two", 6): "abf962d65a5578214f3db1d3c1adb3347877a638866c237e68270ebb514b4016",
    ("two", None): "835a0a45d6899d653867a11a547f95ffead9d992a0f46b9df9cc1333ff488ff4",
    ("bmrv", 6): "405c7560068ab809b92483aa4c70020ab5b7f8d96dd3f83516eb8874b1e8764b",
    ("bmrv", None): "2cc1b381f8d05aea07f0201f34e685ea69fbcc31ec00162a93cb3c24ae9225c0",
}


def test_a_loaded_seed_brings_its_coefficient_words():
    # the first query after a load builds nothing: the words are made with
    # the seed, and ==, hash and repr do not see them
    _, sch = u14_scheme("one", 6)
    seed = storage.load(storage.save(sch)).stages[0].graph.seed
    words = np.array(seed.coeffs, dtype=np.uint64).tobytes()
    assert vars(seed)["_kernel_args"] == (words, 64, GF2_64.reduction_poly)
    twin = PolySeed(seed.coeffs, seed.field)
    assert (seed, hash(seed), repr(seed)) == (twin, hash(twin), repr(twin))
    assert "_kernel_args" not in repr(seed)


@on_both_routes("kind,indep_k", list(GOLDEN_QUERY_STREAM))
def test_query_stream_matches_golden(kind, indep_k, route):
    assert query_stream_digest(kind, indep_k) == GOLDEN_QUERY_STREAM[kind, indep_k]
