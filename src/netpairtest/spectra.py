"""Leading eigenpairs of the adjacency matrix.

The top eigenpairs come from restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) on a dense array or a sparse matrix, with a
fixed start vector and a fixed generator for restarts, so results are
bit-reproducible for a fixed BLAS build and thread count, whatever the
input's memory layout. :func:`deflated_ritz` solves the same way, loosely,
for the largest eigenvalue left once the top pairs are removed: enough to
bound the next eigenvalue without converging it. Eigenpairs are sorted by
eigenvalue magnitude and carry a deterministic, data-only sign convention:
in every eigenvector the entry of largest absolute value is positive (ties
broken by smallest index). Both downstream test statistics are invariant
to column sign flips, so any fixed convention works; this one needs no
ground truth. The module computes eigenpairs only: the domain of each
pair-test covariance (the least K, the degenerate-node rule) is defined in
:mod:`~.estimation`.

ARPACK's own BLAS calls run on scipy's OpenBLAS. The products of ``x`` it
asks for run on numpy's: for a dense ``x``, the BLAS symmetric product
``dsymv`` (:func:`_product`), which reads the lower triangle alone and so
moves half the memory of ``x @ y`` per Lanczos step. A dense ``x`` must
therefore be exactly symmetric. The product is called through ``ctypes``,
which releases the GIL, so Monte Carlo worker threads solve side by side;
like ``x @ y`` it is bit-reproducible for a fixed build and thread count.
A sparse ``x``, and any ``x`` where numpy's library lacks the symbol, takes
``x @ y``. Where the two libraries each bundle their own OpenBLAS, each
keeps its own pool of worker threads, and a solve that woke both pools at
every Lanczos step left one pool's idle workers spinning on the cores the
other needed. So :func:`_arpack` limits scipy's OpenBLAS to the calling
thread for the solve, and gives the thread back its setting after it, where
scipy's library has that per-thread limit. The product and both libraries'
per-thread limits are looked up once, at import (:data:`_SYMV`,
:data:`_LIMITS`); the Monte Carlo harness reads the same table of limits to
limit its workers (:func:`_limit_blas_threads`).
"""

from __future__ import annotations

import ctypes
import importlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .graph_io import as_matrix

__all__ = [
    "Spectrum",
    "top_eigenpairs",
    "deflated_ritz",
    "orient_signs",
]

ORTHONORMALITY_TOL = 1e-8
# magnitudes this close (relative) are tied; ARPACK returns the two members
# of a +/- pair with magnitudes that differ in the last bits
TIE_REL_TOL = 1e-12
# seed of the ARPACK start vector and of its restart vectors
START_SEED = 0
# relative ARPACK tolerance of deflated_ritz: its residual, not its Ritz
# value, enters the bound on the next eigenvalue, and a margin covers what
# a loose residual misses (estimation.RITZ_BOUND_MARGIN), so one pass of
# ARPACK's 20-vector basis is enough
DEFLATED_TOL = 0.1
# OpenBLAS's limit on the BLAS threads of the calling thread alone
_THREAD_LIMIT = "openblas_set_num_threads_local"
# numpy's CBLAS symmetric matrix-vector product; numpy's wheels link an
# ILP64 OpenBLAS whose CBLAS names carry this prefix and suffix
_SYMV_NAME = "scipy_cblas_dsymv64_"
# its CBLAS enums: row-major storage, read the lower triangle
_ROW_MAJOR, _LOWER = 101, 122
# extension modules that link numpy's and scipy's OpenBLAS
_BLAS_MODULES = ("numpy._core._multiarray_umath", "scipy.linalg._fblas")


@dataclass(frozen=True)
class Spectrum:
    """Top-m eigenpairs of a symmetric matrix.

    ``values`` is sorted by nonincreasing magnitude, ``vectors`` holds the
    matching orthonormal eigenvectors as columns, ``residuals`` the per-pair
    norms ||X v - d v|| recorded at construction time.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    @property
    def m(self) -> int:
        return len(self.values)


def _orthonormal(vectors: np.ndarray) -> bool:
    """Whether the columns of ``vectors`` are orthonormal to
    :data:`ORTHONORMALITY_TOL`."""
    gram = vectors.T @ vectors
    return bool(np.max(np.abs(gram - np.eye(gram.shape[0])))
                <= ORTHONORMALITY_TOL)


def _sort_order(values: np.ndarray, m: int) -> np.ndarray:
    # magnitude descending; magnitudes within TIE_REL_TOL of the largest one
    # of their run are tied and put the larger signed value first, so a +/-
    # pair comes out positive first from any solver; then by index
    mags = np.abs(values)
    tie = np.empty(len(values), dtype=np.int64)
    group, lead = -1, np.inf
    for pos in np.argsort(-mags, kind="stable"):
        if mags[pos] < lead * (1.0 - TIE_REL_TOL):
            group, lead = group + 1, mags[pos]
        tie[pos] = group
    idx = np.arange(len(values))
    return np.lexsort((idx, -values, tie))[:m]


def _blas_function(module: str, name: str, argtypes: list, restype):
    """Function ``name`` of the OpenBLAS that extension ``module`` links,
    looked up in its dependencies, with the given C signature; None where
    the library lacks it."""
    try:
        library = ctypes.CDLL(importlib.import_module(module).__file__)
        function = getattr(library, name)
    except (ImportError, OSError, AttributeError):
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


# the per-thread limits (:data:`_THREAD_LIMIT`) of numpy's and of scipy's
# OpenBLAS, looked up once; each sets the calling thread's BLAS thread count
# and returns the previous one; None where a library lacks it
_LIMITS = tuple(_blas_function(module, _THREAD_LIMIT, [ctypes.c_int],
                               ctypes.c_int)
                for module in _BLAS_MODULES)
# numpy's dsymv: (order, uplo, n, alpha, a, lda, x, incx, beta, y, incy),
# y = alpha a x + beta y; None where numpy's library lacks it
_SYMV = _blas_function(
    _BLAS_MODULES[0], _SYMV_NAME,
    [ctypes.c_int, ctypes.c_int, ctypes.c_int64, ctypes.c_double,
     ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
     ctypes.c_double, ctypes.c_void_p, ctypes.c_int64], None)


def _integer_count(count, name: str) -> int:
    """``count`` as an int; ``ValueError``, naming it ``name``, for anything
    but a Python or numpy integer, a bool included, before it can reach the
    eigensolver."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {count!r}")
    return int(count)


def _limit_blas_threads() -> None:
    """Run the calling thread's BLAS calls on that thread alone, in both
    libraries, through both limits of :data:`_LIMITS`, which must be
    present. Other threads keep their settings."""
    for limit in _LIMITS:
        limit(1)


def _arpack(op, k: int, tol: float):
    """``eigsh`` for the ``k`` largest-magnitude eigenpairs of ``op``, from
    the fixed start vector and restart generator; None where ARPACK cannot
    run (k >= n - 1) or fails. scipy's OpenBLAS runs on the calling thread
    alone during the solve, where it has a per-thread limit."""
    n = op.shape[0]
    if k >= n - 1:
        return None
    rng = np.random.default_rng(START_SEED)
    limit = _LIMITS[1]
    previous = limit(1) if limit is not None else None
    try:
        return scipy.sparse.linalg.eigsh(
            op, k=k, which="LM", tol=tol, v0=rng.standard_normal(n), rng=rng)
    except scipy.sparse.linalg.ArpackError:
        return None
    finally:
        if previous is not None:
            limit(previous)


def _product(x):
    """The product y -> x @ y of symmetric ``x`` that ARPACK asks for.

    A square C-contiguous float64 array is read through its lower triangle
    by numpy's dsymv (:data:`_SYMV`), outside the GIL; the function holds
    ``x``, so its buffer outlives every call. Any other ``x``, or any ``x``
    where the symbol is missing, takes ``x @ y``."""
    if (_SYMV is None or not isinstance(x, np.ndarray) or x.dtype != float
            or not x.flags.c_contiguous or x.ndim != 2
            or x.shape[0] != x.shape[1]):
        return lambda y: x @ y
    n = x.shape[0]

    def symv(y):
        y = np.ascontiguousarray(y, dtype=float).reshape(n)
        out = np.empty(n)
        _SYMV(_ROW_MAJOR, _LOWER, n, 1.0, x.ctypes.data, n, y.ctypes.data, 1,
              0.0, out.ctypes.data, 1)
        return out

    return symv


def top_eigenpairs(x, m: int) -> Spectrum:
    """The ``m`` eigenpairs of largest eigenvalue magnitude of symmetric
    ``x``, a dense array or a scipy sparse matrix.

    ARPACK (implicitly restarted Lanczos) computes them to machine
    precision from a fixed start vector. It reads a dense ``x`` through its
    lower triangle (:func:`_product`), so a dense ``x`` must be exactly
    symmetric. A dense symmetric eigendecomposition
    stands in only where ARPACK cannot run: for ``m >= n - 1``, or when ARPACK
    fails (for instance on the zero matrix, where every start vector maps to
    zero) or returns columns that are not orthonormal (as on entries of
    magnitude near 1e-300). ``m`` must be an integer
    (:func:`_integer_count`) in [1, n]. A non-finite entry of ``x`` raises
    ValueError on the dense path, which ARPACK's output on such an ``x``
    always takes.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= _integer_count(m, "m") <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    op = scipy.sparse.linalg.LinearOperator(x.shape, matvec=_product(x),
                                            dtype=float)
    found = _arpack(op, m, 0)
    if found is None or not _orthonormal(found[1]):
        dense = x.toarray() if scipy.sparse.issparse(x) else x
        if not np.isfinite(dense).all():
            raise ValueError("adjacency matrix entries must be finite")
        found = np.linalg.eigh(dense)
    vals, vecs = found
    order = _sort_order(vals, m)
    values = vals[order]
    vectors = vecs[:, order]
    residuals = np.linalg.norm(x @ vectors - vectors * values, axis=0)
    return orient_signs(Spectrum(values=values, vectors=vectors,
                                 residuals=residuals))


def deflated_ritz(x, spec: Spectrum) -> tuple[float, float] | None:
    """Ritz value theta of largest magnitude of the deflated operator
    y -> X y - V (D (V^T y)), with V, D the pairs of ``spec``, and its
    residual norm ||Op u - theta u|| for the unit Ritz vector u.

    The operator keeps the eigenvalues of ``x`` beyond ``spec``, so theta
    approximates the next one, d_{m+1}, and some eigenvalue of the operator
    lies within the residual of theta; not necessarily the largest one, so
    |theta| + ||r|| may fall short of |d_{m+1}| (see
    :func:`~.estimation.grow_spectrum`). ARPACK runs to the loose relative
    tolerance :data:`DEFLATED_TOL` from the start vector of
    :func:`top_eigenpairs`, which it meets after one pass of its 20-vector
    basis on the graphs measured. None where ARPACK cannot run or fails.
    """
    x = as_matrix(x)
    v, d = spec.vectors, spec.values
    product = _product(x)

    def matvec(y):
        y = np.ravel(y)
        return product(y) - v @ (d * (v.T @ y))

    op = scipy.sparse.linalg.LinearOperator(x.shape, matvec=matvec,
                                            dtype=float)
    found = _arpack(op, 1, DEFLATED_TOL)
    if found is None:
        return None
    theta, u = float(found[0][0]), found[1][:, 0]
    return theta, float(np.linalg.norm(matvec(u) - theta * u))


def orient_signs(spec: Spectrum) -> Spectrum:
    """Flip eigenvector columns so the largest-magnitude entry is positive.

    Idempotent; ties resolve to the smallest index (first argmax).
    """
    vectors = spec.vectors.copy()
    for k in range(spec.m):
        col = vectors[:, k]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            vectors[:, k] = -col
    return Spectrum(values=spec.values, vectors=vectors,
                    residuals=spec.residuals)
