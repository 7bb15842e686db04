"""Build and load the compiled Horner loop of ``_clmul.c``.

Nothing happens at import: the first call of :func:`_lib` compiles the C
file with plain ``gcc -O2 -shared -fPIC`` into
``${XDG_CACHE_HOME:-~/.cache}/bitprobe/clmul-<sha256>.so`` (the hash covers
the source and the flags, so an edit builds a new file), unless that file
is already there, and loads it with cffi in ABI mode, which needs no Python
headers.  A build goes to a temporary file that ``os.replace`` publishes,
so processes building at once each load a whole library.

Off x86-64, where the C file does not compile, nothing is built.  There,
and wherever cffi, gcc, a writable cache or the CPU's PCLMULQDQ is missing,
:func:`_lib` gives None and ``gf`` runs its numpy and pure-Python routes
instead; those give the same values.  No setting picks the route: it
depends only on what the machine has.
"""

import functools
import os
from pathlib import Path

_SOURCE = Path(__file__).with_name("_clmul.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
_CDEF = """
int has_pclmul(void);
void horner(const uint64_t *coeffs, size_t k, const uint64_t *xs, uint64_t *out,
            size_t n, int w, uint64_t mask);
uint64_t horner1(const uint64_t *coeffs, size_t k, uint64_t x, int w, uint64_t mask);
"""


@functools.cache
def _ffi():
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    return ffi


def _shared_object() -> Path:
    """The compiled library's path, building it first when it is not cached."""
    import hashlib
    import subprocess
    import tempfile

    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source + "\0".join(_FLAGS).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bitprobe"
    path = cache / f"clmul-{tag}.so"
    if path.is_file():
        return path
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="clmul-", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        subprocess.run(["gcc", *_FLAGS, "-o", tmp, str(_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def _lib():
    """The loaded library, or None when the compiled route cannot run here."""
    import platform
    import subprocess

    if platform.machine() not in ("x86_64", "AMD64"):
        return None
    try:
        lib = _ffi().dlopen(str(_shared_object()))
    except (ImportError, OSError, subprocess.SubprocessError):
        return None
    return lib if lib.has_pclmul() else None
