"""Numba acceleration shim.

Hot kernels in :mod:`surfscan.kernels` are written as scalar loops and
decorated with ``njit`` from this module.  When numba is installed (the
``jit`` extra), those loops are JIT-compiled (with an on-disk cache) and
are the kernels that run.  Otherwise ``njit`` is a pass-through: the scalar
loops stay plain Python and serve as the bitwise test oracle, while the
vectorized numpy kernels in :mod:`surfscan.kernels` are the no-numba path.
``benchmarks/bench_kernels.py`` compares the paths.
"""

__all__ = ["NUMBA_ENABLED", "njit", "py_func"]

try:
    from numba import njit as _numba_njit
except ImportError:
    NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = True

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
