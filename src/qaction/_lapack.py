"""LAPACK routines called through the library numpy has already loaded.

numpy's linear-algebra extension links a LAPACK. In the numpy wheels it is
scipy-openblas built with 64-bit integers (ILP64), and its routines are exported
as ``scipy_<routine>_64_``. Calling them through ``ctypes`` costs no import;
scipy's wrappers of the same routines cost its start-up (about 0.12 s), and run
only where numpy's LAPACK exports no ILP64 names (MKL or Accelerate, say): the one
place qaction imports scipy. Routines: Anderson et al., *LAPACK Users' Guide*,
3rd ed. (SIAM, 1999).
"""
from __future__ import annotations

import ctypes
import functools

import numpy as np

_INT, _DOUBLE, _ARRAY = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
# Fortran argument lists: every argument by reference, then one hidden length per character argument
_SIGNATURES = {
    "dstebz": (ctypes.c_char_p, ctypes.c_char_p, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _ARRAY, _ARRAY,
               _INT, _INT, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _INT, ctypes.c_size_t, ctypes.c_size_t),
    "dstein": (_INT, _ARRAY, _ARRAY, _INT, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _INT, _ARRAY, _ARRAY, _ARRAY, _INT),
    "dgtsv": (_INT, _INT, _ARRAY, _ARRAY, _ARRAY, _ARRAY, _INT, _INT),
    "dgbsv": (_INT, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _ARRAY, _INT, _INT),
    "dpbtrf": (ctypes.c_char_p, _INT, _INT, _ARRAY, _INT, _INT, ctypes.c_size_t),
    "dpbtrs": (ctypes.c_char_p, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT, ctypes.c_size_t),
}


@functools.lru_cache(maxsize=1)
def _routines():
    """The routines by name, from numpy's LAPACK, or None when one has no ILP64 name there."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    found = {}
    for routine, argtypes in _SIGNATURES.items():
        name = next((n for n in (f"scipy_{routine}_64_", f"{routine}_64_") if hasattr(lib, n)), None)
        if name is None:
            return None
        found[routine] = getattr(lib, name)
        found[routine].argtypes, found[routine].restype = argtypes, None
    return found


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(ctypes.c_void_p)  # holds the array alive through the call


def _int(v: int):
    return ctypes.byref(ctypes.c_int64(v))


def _double(v: float):
    return ctypes.byref(ctypes.c_double(v))


def _call(lapack: dict, routine: str, *args, chars: int = 0):
    """Call a routine with ``args``, then its info argument and ``chars`` hidden lengths; raise on info != 0."""
    info = ctypes.c_int64()
    lapack[routine](*args, ctypes.byref(info), *[1] * chars)
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of {routine}")
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (info = {info.value})")


def eigh_tridiagonal(d, e, k: int) -> tuple:
    """(w, z): the lowest k eigenvalues (ascending) of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, and their unit
    eigenvectors as the rows of z.

    ?stebz finds the values by bisection and ?stein the vectors by inverse
    iteration, as ``scipy.linalg.eigh_tridiagonal(select="i")`` does.
    Raises ValueError on non-finite input.
    """
    d = np.ascontiguousarray(d, dtype=float)
    e = np.ascontiguousarray(e, dtype=float)
    n = len(d)
    if d.shape != (n,) or e.shape != (n - 1,) or not 1 <= k <= n:
        raise ValueError(f"no lowest {k} eigenvalues of a {n} x {n} tridiagonal with {e.shape} off-diagonal")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal matrix holds non-finite values")
    lapack = _routines()
    if lapack is None:
        import scipy.linalg

        w, z = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        return w, z.T
    m, nsplit = ctypes.c_int64(), ctypes.c_int64()
    w, iblock, isplit = np.empty(n), np.empty(n, np.int64), np.empty(n, np.int64)
    _call(
        lapack, "dstebz", b"I", b"B", _int(n), _double(0.0), _double(1.0), _int(1), _int(k),
        _double(0.0), _ptr(d), _ptr(e), ctypes.byref(m), ctypes.byref(nsplit), _ptr(w),
        _ptr(iblock), _ptr(isplit), _ptr(np.empty(4 * n)), _ptr(np.empty(3 * n, np.int64)), chars=2,
    )
    w = w[: m.value]
    z = np.empty((m.value, n))  # Fortran's n x m, column j in row j
    _call(
        lapack, "dstein", _int(n), _ptr(d), _ptr(e), _int(m.value), _ptr(w), _ptr(iblock), _ptr(isplit), _ptr(z),
        _int(n), _ptr(np.empty(5 * n)), _ptr(np.empty(n, np.int64)), _ptr(np.empty(m.value, np.int64)),
    )
    order = np.argsort(w, kind="stable")  # block order to ascending
    return w[order], z[order]


def solve_banded(bandwidth: int, ab, b) -> np.ndarray:
    """x with A x = b, for A with ``bandwidth`` sub- and super-diagonals
    stored as ``scipy.linalg.solve_banded((bandwidth, bandwidth), ab, b)``
    takes it: ?gtsv when A is tridiagonal, ?gbsv otherwise.

    Raises ValueError on non-finite input and LinAlgError when A is singular.
    """
    ab = np.asarray(ab, dtype=float)
    x = np.array(b, dtype=float)
    n = len(x)
    if bandwidth < 1 or x.shape != (n,) or ab.shape != (2 * bandwidth + 1, n):
        raise ValueError(f"banded system of bandwidth {bandwidth} with shapes {ab.shape} and {x.shape}")
    if not (np.isfinite(ab).all() and np.isfinite(x).all()):
        raise ValueError("banded system holds non-finite values")
    lapack = _routines()
    if lapack is None:
        import scipy.linalg

        return scipy.linalg.solve_banded((bandwidth, bandwidth), ab, x)
    if bandwidth == 1:
        dl, d, du = ab[2, :-1].copy(), ab[1].copy(), ab[0, 1:].copy()
        _call(lapack, "dgtsv", _int(n), _int(1), _ptr(dl), _ptr(d), _ptr(du), _ptr(x), _int(n))
    else:
        rows = 3 * bandwidth + 1  # ?gbtrf's fill-in takes another ``bandwidth`` rows on top
        lu = np.zeros((n, rows))  # Fortran's rows x n
        lu[:, bandwidth:] = ab.T
        _call(
            lapack, "dgbsv", _int(n), _int(bandwidth), _int(bandwidth), _int(1), _ptr(lu), _int(rows),
            _ptr(np.empty(n, np.int64)), _ptr(x), _int(n),
        )
    return x


def cholesky_banded(ab) -> np.ndarray:
    """?pbtrf as ``scipy.linalg.cholesky_banded(ab, lower=True)``: the lower factor of a positive definite
    band matrix A, both in lower band storage ab[i - j, j] = A[i, j]. Raises ValueError on non-finite
    input and LinAlgError when A is not positive definite."""
    c = np.array(ab, dtype=float, order="F")  # Fortran's ldab x n
    if not np.isfinite(c).all():
        raise ValueError("band matrix holds non-finite values")
    lapack = _routines()
    if lapack is None:
        import scipy.linalg

        return scipy.linalg.cholesky_banded(c, lower=True)
    _call(lapack, "dpbtrf", b"L", _int(c.shape[1]), _int(c.shape[0] - 1), _ptr(c), _int(c.shape[0]), chars=1)
    return c


def cho_solve_banded(c: np.ndarray, b) -> np.ndarray:
    """?pbtrs: x with A x = b from ``cholesky_banded``'s factor c of A, as
    ``scipy.linalg.cho_solve_banded((c, True), b)``."""
    c, x = np.asfortranarray(c, dtype=float), np.array(b, dtype=float)
    if c.ndim != 2 or x.shape != (c.shape[1],):
        raise ValueError(f"banded factor of shape {c.shape} and right-hand side of shape {x.shape}")
    lapack = _routines()
    if lapack is None:
        import scipy.linalg

        return scipy.linalg.cho_solve_banded((c, True), x, check_finite=False)
    n, ldab = len(x), c.shape[0]
    _call(lapack, "dpbtrs", b"L", _int(n), _int(ldab - 1), _int(1), _ptr(c), _int(ldab), _ptr(x), _int(n), chars=1)
    return x
