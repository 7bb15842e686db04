"""The compiled Horner loop: equal to both fallback routes, built lazily
into the cache, and replaced by the fallback wherever it cannot run."""

import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitprobe import _clmul, gf
from bitprobe.gf import GF2_3, GF2_8, GF2_16, GF2_32, GF2_64, PolySeed, poly_eval, poly_eval_block

from helpers import naive_poly_eval

ROOT = Path(__file__).resolve().parents[1]
ALL_FIELDS = [GF2_3, GF2_8, GF2_16, GF2_32, GF2_64]
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not installed")


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


@needs_gcc
@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="not x86-64")
def test_kernel_loads_where_gcc_is_installed():
    # without this the suite could run only the fallback and pass
    assert _clmul._lib() is not None


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


def sample_values():
    """Bulk and single evaluations of a fixed GF(2^64) seed."""
    seed = PolySeed(tuple(range(3, 40, 3)) + ((1 << 64) - 1,), GF2_64)
    xs = [0, 1, 7, (1 << 32) + 5, (1 << 64) - 1] * 3
    return (poly_eval_block(seed, np.array(xs, dtype=np.uint64)).tolist(),
            [poly_eval(seed, x) for x in xs])


@pytest.mark.parametrize("missing", ["cache directory", "gcc"])
def test_fallback_where_the_kernel_cannot_build(tmp_path, monkeypatch, reload_kernel, missing):
    want = sample_values()
    cache_home = tmp_path / "cache"
    if missing == "cache directory":
        cache_home.write_text("")  # a file where the cache directory would go
    else:
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    _clmul._lib.cache_clear()
    assert _clmul._lib() is None
    assert sample_values() == want
    if missing == "gcc":
        assert os.listdir(cache_home / "bitprobe") == []  # no temporary file left


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


@needs_gcc
def test_two_processes_building_at_once_share_one_library(tmp_path):
    script = ("from bitprobe import _clmul, gf\n"
              "assert _clmul._lib() is not None\n"
              "print(gf.poly_eval(gf.PolySeed((3, 5, 1 << 63), gf.GF2_64), 11))\n")
    env = child_env(XDG_CACHE_HOME=str(tmp_path))
    children = [subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for _ in range(2)]
    outputs = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0, 0], outputs
    want = naive_poly_eval((3, 5, 1 << 63), 11, 64, GF2_64.reduction_poly)
    assert [out for out, _ in outputs] == [f"{want}\n"] * 2
    [library] = os.listdir(tmp_path / "bitprobe")
    assert library.startswith("clmul-") and library.endswith(".so")
