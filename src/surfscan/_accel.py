"""Numba acceleration shim.

Hot kernels in :mod:`surfscan.kernels` are written as scalar loops and
decorated with ``njit`` from this module.  When numba is installed (the
``jit`` extra) and the environment variable ``SURFSCAN_NUMBA`` is not set
to ``0``/``false``/``off``, those loops are JIT-compiled (with an on-disk
cache) and are the kernels that run.  Otherwise ``njit`` is a pass-through:
the scalar loops stay plain Python and serve as the bitwise test oracle,
while the vectorized numpy kernels in :mod:`surfscan.kernels` are the
no-numba path.  ``benchmarks/bench_kernels.py`` compares the paths.
"""

import os

__all__ = ["NUMBA_ENABLED", "njit", "py_func"]


def _env_enabled() -> bool:
    return os.environ.get("SURFSCAN_NUMBA", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


NUMBA_ENABLED = _env_enabled()

if NUMBA_ENABLED:
    try:
        from numba import njit as _numba_njit
    except ImportError:
        NUMBA_ENABLED = False

if NUMBA_ENABLED:

    def njit(*args, **kwargs):
        kwargs.setdefault("cache", True)
        return _numba_njit(*args, **kwargs)

else:

    def njit(*args, **kwargs):
        # Pass-through decorator: @njit, @njit() and @njit(cache=True) all
        # return the undecorated function.
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(func):
            return func

        return wrap


def py_func(kernel):
    """Return the pure-Python implementation behind a (possibly) jitted kernel."""
    return getattr(kernel, "py_func", kernel)
