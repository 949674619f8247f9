"""The package's one C library: the tick kernel ``_tick.c``, the normal
draw and clock synthesis ``_normal.c``, the Chebyshev window's main-lobe
sum ``_window.c`` and the CSV writer ``_csv.c``.

The first call of ``library()`` in a process compiles the four sources with
one gcc call into ``__pycache__`` beside them, or loads the library an
earlier process built there, declares its five functions and fills the
CSV writer's table of powers of ten, ``g_table()``; importing the package
builds and loads nothing.  ``nodes._tick_loop_fast`` calls
``tick_loop``, ``oscillator.standard_normal`` ``normal_fill``,
``oscillator.synthesize_phase`` ``synth_phase``, ``spectral.cheb_window``
``cheb_main_lobe`` and ``cli._write_csv`` ``csv_text``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import stat
import threading
from pathlib import Path

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("_tick.c", "_normal.c", "_window.c", "_csv.c"))


def flags() -> tuple[str, ...]:
    """gcc's flags for the library, whose CSV writer includes the
    interpreter's headers; raises FileNotFoundError if Python.h is not
    where they should be."""
    import sysconfig

    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise FileNotFoundError(f"the interpreter's C headers (Python.h) are not in "
                                f"{include}; they are needed to build the package's C "
                                f"library from {', '.join(s.name for s in SOURCES)}")
    # never -ffast-math or -march=native; without -ffp-contract=off gcc fuses
    # a*b + c into one FMA where the target has it (aarch64), which changes bits
    return ("-O2", "-ffp-contract=off", "-fPIC", "-shared", f"-I{include}")


def build(sources, cache: Path, flags: tuple[str, ...]) -> Path:
    """The shared library gcc compiles from ``sources`` with ``flags``, built
    into ``cache`` on the first call and loaded from there afterwards.

    The file name ``_native-<SOABI>-<key>.so`` carries the interpreter's
    ``SOABI`` and a sha256 of the sources' names and bytes, the flags and
    the ``SOABI``, so an edited source, changed flags or another interpreter
    build a new library.  gcc compiles copies of the hashed bytes, one
    translation unit each, in a temporary directory inside ``cache``, and
    the library is renamed into place, so processes building at once each
    install a whole file.  Installing a library unlinks every other ``.so``
    in ``cache`` but other interpreters' ``_native`` libraries, since
    nothing loads those again; one that a concurrent build unlinked first
    is skipped.  A process that has loaded a library keeps it mapped.
    Raises FileNotFoundError naming gcc if it is not on PATH, OSError
    naming ``cache`` if it cannot be written, and PermissionError if every
    user can write it, since a library there could be anyone's.
    """
    import hashlib
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    texts = {source.name: source.read_bytes() for source in sources}
    names = ", ".join(texts)
    abi = sysconfig.get_config_var("SOABI") or ""
    digest = hashlib.sha256()
    for name, text in texts.items():
        digest.update(b"%s\0%d\0%s" % (name.encode(), len(text), text))
    digest.update("\0".join((*flags, abi)).encode())
    lib = cache / f"_native-{abi}-{digest.hexdigest()[:16]}.so"
    try:
        cache.mkdir(mode=0o755, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write the cache directory {cache} for {names}: "
                      f"{exc}") from exc
    if cache.stat().st_mode & stat.S_IWOTH:
        raise PermissionError(f"refusing to build or load {names} in {cache}, "
                              f"which every user can write")
    if lib.exists():
        return lib
    gcc = shutil.which("gcc")
    if gcc is None:
        raise FileNotFoundError(f"the C compiler gcc is not on PATH; "
                                f"it is needed to build {names}")
    try:
        tmp = tempfile.mkdtemp(dir=cache)
    except OSError as exc:
        raise OSError(f"cannot write the cache directory {cache} for {names}: "
                      f"{exc}") from exc
    try:
        # compile the bytes that were hashed, not files that may change
        for name, text in texts.items():
            Path(tmp, name).write_bytes(text)
        proc = subprocess.run([gcc, *flags, "-o", lib.name, *texts, "-lm"], cwd=tmp,
                              capture_output=True)
        if proc.returncode:
            raise OSError(f"gcc could not build {names}:\n"
                          f"{proc.stderr.decode(errors='replace')}")
        os.replace(os.path.join(tmp, lib.name), lib)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for old in cache.glob("*.so"):
        # the same length as lib's name: not a longer SOABI that begins with this one
        this_abi = old.name.startswith(f"_native-{abi}-") and len(old.name) == len(lib.name)
        if old != lib and (this_abi or not old.name.startswith("_native-")):
            old.unlink(missing_ok=True)
    return lib


# the powers 10^k of the CSV writer's float formatter, k in [G_K_MIN, G_K_MAX]
G_K_MIN, G_K_MAX = -292, 324


def g_table() -> list[int]:
    """Schubfach's g(k) = floor(10^k * 2^(127 - floor(log2 10^k))) + 1, for
    k from G_K_MIN to G_K_MAX, as the high and low 64 bits of each: the
    ``g_table`` array of ``_csv.c``."""
    out = []
    for k in range(G_K_MIN, G_K_MAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        # floor(log2 10^k), where 10^-k for k < 0 is no power of two
        r = num.bit_length() - 1 if k >= 0 else -den.bit_length()
        g = (num << max(127 - r, 0)) // (den << max(r - 127, 0)) + 1
        out += (g >> 64, g & (2**64 - 1))
    return out


def cache_once(fn):
    """``functools.cache`` of the argument-less ``fn``, whose calls take a
    lock, so threads that call it at once before it is cached run ``fn``
    once and share its result; ``cache_clear`` and ``cache_info`` are the
    cache's."""
    cached, lock = functools.cache(fn), threading.Lock()

    @functools.wraps(fn)
    def call():
        with lock:
            return cached()
    call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
    return call


@cache_once
def library() -> ctypes.CDLL:
    """The library, loaded on the first call of the process, with its
    functions ``tick_loop``, ``normal_fill``, ``synth_phase``,
    ``cheb_main_lobe`` and ``csv_text`` declared and its ``g_table``
    filled from ``g_table()``; threads calling it at once build and load
    it once.

    ``csv_text`` calls the C API, so it is bound as a ``PYFUNCTYPE`` and
    is called holding the interpreter lock, which it releases while it
    formats rows; the other four release it for their whole call."""
    lib = ctypes.CDLL(str(build(SOURCES, SOURCES[0].parent / "__pycache__", flags())))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.tick_loop.argtypes = [i64, *[f64] * 6, ptr, ptr, *[f64] * 5, ptr, f64, i64,
                              ctypes.c_int, ctypes.c_int, f64, *[ptr] * 8]
    lib.tick_loop.restype = i64
    lib.normal_fill.argtypes = [ptr, i64, f64, ptr]
    lib.normal_fill.restype = None
    lib.synth_phase.argtypes = [ptr, i64, *[f64] * 4, ptr, ptr]
    lib.synth_phase.restype = None
    lib.cheb_main_lobe.argtypes = [i64, i64, i64, *[ptr] * 4]
    lib.cheb_main_lobe.restype = None
    lib.csv_text = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.py_object, ctypes.c_ssize_t,
                                     ctypes.c_ssize_t, ctypes.py_object)(("csv_text", lib))
    table = g_table()
    (ctypes.c_uint64 * len(table)).in_dll(lib, "g_table")[:] = table
    return lib
