"""Build and load the compiled Horner loop of ``_clmul.c``.

The C file is a CPython extension module.  Nothing happens at import: the
first call of :func:`_lib` compiles it with plain
``gcc -O2 -shared -fPIC -pthread`` against the running interpreter's
headers into
``${XDG_CACHE_HOME:-~/.cache}/bitprobe/clmul-<hash><EXT_SUFFIX>``, unless
that file is already there, and loads it with
``importlib.machinery.ExtensionFileLoader``.  The hash, the one
``importlib.util.source_hash`` keys bytecode with, covers the source, the
flags and the interpreter's ``EXT_SUFFIX``, so an edit builds a new file and
a library built for one interpreter ABI never loads in another; a cached
load imports no ``hashlib``.
A build goes to a temporary file that ``os.replace`` publishes, so
processes building at once each load a whole library.  A lock makes
threads that call :func:`_lib` at once for the first time take turns, so
the first builds and loads while the others wait for it.

Off x86-64, where the C file does not compile, nothing is built.  There,
and wherever gcc, the Python headers or a writable cache is missing, or
the CPU lacks PCLMULQDQ (the module's init raises ImportError), :func:`_lib`
gives None.  ``gf`` alone calls it, and picks the route by its answer:
no setting does, so the route depends only on what the machine has.
"""

import functools
import os
import sysconfig
import threading
from pathlib import Path

_SOURCE = Path(__file__).with_name("_clmul.c")
_MODULE = "bitprobe._clmul_ext"  # the name PyInit__clmul_ext registers
# Python 3.11's sysconfig publishes its config dict before it fills it, so a
# second thread may read EXT_SUFFIX as None while the first loads.
_FIRST_LOAD = threading.Lock()


def _flags() -> tuple:
    return ("-O2", "-shared", "-fPIC", "-pthread", "-I" + sysconfig.get_path("include"))


def _cached_path() -> Path:
    """Where the library for this source, these flags and this interpreter
    ABI lives in the cache."""
    import importlib.util

    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    tag = importlib.util.source_hash(b"\0".join(
        [_SOURCE.read_bytes(), *(f.encode() for f in _flags()), suffix.encode()])).hex()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bitprobe"
    return cache / f"clmul-{tag}{suffix}"


def _shared_object() -> Path:
    """The compiled library's path, building it first when it is not cached.
    A build that cannot run, fails or times out raises OSError."""
    path = _cached_path()
    if path.is_file():
        return path
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="clmul-", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(["gcc", *_flags(), "-o", tmp, str(_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    except subprocess.SubprocessError as e:
        raise OSError(f"building {_SOURCE.name} failed: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def _lib():
    """The loaded extension module, or None when the compiled route cannot
    run here.  Threads that miss the cache at once load one at a time."""
    import importlib.util
    import platform
    from importlib.machinery import ExtensionFileLoader

    with _FIRST_LOAD:
        if platform.machine() not in ("x86_64", "AMD64"):
            return None
        try:
            loader = ExtensionFileLoader(_MODULE, str(_shared_object()))
            spec = importlib.util.spec_from_loader(_MODULE, loader)
            return importlib.util.module_from_spec(spec)
        except (ImportError, OSError):
            return None
