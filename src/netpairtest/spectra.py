"""Leading eigenpairs of the adjacency matrix.

The top eigenpairs come from restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) on a dense array or a sparse matrix, with a
fixed start vector and a fixed generator for restarts, so results are
bit-reproducible for a fixed BLAS build and thread count, whatever the
input's memory layout. :func:`deflated_ritz` solves the same way, loosely
and on a Lanczos basis of :data:`DEFLATED_NCV` vectors in place of
ARPACK's default 20, for the largest eigenvalue left once the top pairs are
removed: enough to bound the next eigenvalue without converging it.
Eigenpairs are sorted by eigenvalue magnitude, a tied +/- pair positive
first (:func:`_sort_order`, which :func:`~.oracle.ground_truth` shares),
and carry a deterministic, data-only sign convention: in every eigenvector
the entry of largest absolute value is positive (ties broken by smallest
index). Both downstream test statistics are invariant to column sign
flips, so any fixed convention works; this one needs no ground truth. The
module computes eigenpairs only: the domain of each pair-test covariance
(the least K, the degenerate-node rule) is defined in :mod:`~.estimation`.

ARPACK's own BLAS calls run on scipy's OpenBLAS. The products of ``x`` it
asks for run on numpy's: for a dense ``x``, the BLAS symmetric product
``dsymv`` (:func:`_product`), which reads the lower triangle alone and so
moves half the memory of ``x @ y`` per Lanczos step. A dense ``x`` must
therefore be exactly symmetric. The product is called through ``ctypes``,
which releases the GIL, so Monte Carlo worker threads solve side by side;
like ``x @ y`` it is bit-reproducible for a fixed build and thread count.
Both solves read ``x`` through one operator, :func:`_operator`, which
checks each product before ARPACK reads it
(:func:`~.graph_io._check_product`). No product X V is formed after a
solve: for eigenpairs X V = V D, so a :class:`Spectrum` is its values and
vectors alone, and the refinement reads diag(W0^2) from them and the
entries of ``x`` (:func:`~.estimation.diag_residual_square`). A sparse
``x``, and any ``x`` where numpy's library lacks the symbol, takes
``x @ y``. Where the two libraries each bundle their own OpenBLAS, each
keeps its own pool of worker threads, and a solve that woke both pools at
every Lanczos step left one pool's idle workers spinning on the cores the
other needed. So
:func:`_arpack` limits scipy's OpenBLAS to the calling thread for the
solve, and gives the thread back its setting after it, where scipy's
library has that per-thread limit. The product and both libraries'
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

from .graph_io import _check_finite, _check_product, as_matrix

__all__ = [
    "Spectrum",
    "top_eigenpairs",
    "deflated_ritz",
]

ORTHONORMALITY_TOL = 1e-8
# magnitudes this close (relative) are tied; ARPACK returns the two members
# of a +/- pair with magnitudes that differ in the last bits
TIE_REL_TOL = 1e-12
# seed of the ARPACK start vector and of its restart vectors
START_SEED = 0
# relative ARPACK tolerance of deflated_ritz: its residual, not its Ritz
# value, enters the bound on the next eigenvalue, and a margin covers what
# a loose residual misses (estimation.RITZ_BOUND_MARGIN)
DEFLATED_TOL = 0.1
# Lanczos basis size of deflated_ritz: ARPACK tests convergence only once
# its basis is full, and one pass of 8 vectors met DEFLATED_TOL on the
# graphs measured, in 10 products of x against 22 for eigsh's default 20
DEFLATED_NCV = 8
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
    """Top-m eigenpairs of a symmetric matrix X.

    ``values`` is sorted by nonincreasing magnitude and ``vectors`` holds
    the matching orthonormal eigenvectors as columns, each with the sign
    convention of the module.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def m(self) -> int:
        return len(self.values)


def _orthonormal(vectors: np.ndarray) -> bool:
    """Whether the columns of ``vectors`` are orthonormal to
    :data:`ORTHONORMALITY_TOL`."""
    gram = vectors.T @ vectors
    return bool(np.max(np.abs(gram - np.eye(gram.shape[0])))
                <= ORTHONORMALITY_TOL)


def _tie_groups(values: np.ndarray) -> np.ndarray:
    # magnitude group of each value, 0 for the largest; magnitudes within
    # TIE_REL_TOL of the largest one of their run are tied
    mags = np.abs(values)
    tie = np.empty(len(values), dtype=np.int64)
    group, lead = -1, np.inf
    for pos in np.argsort(-mags, kind="stable"):
        if mags[pos] < lead * (1.0 - TIE_REL_TOL):
            group, lead = group + 1, mags[pos]
        tie[pos] = group
    return tie


def _sort_order(values: np.ndarray, m: int) -> np.ndarray:
    # magnitude descending; tied magnitudes (_tie_groups) put the larger
    # signed value first, so a +/- pair comes out positive first from any
    # solver; then by index
    idx = np.arange(len(values))
    return np.lexsort((idx, -values, _tie_groups(values)))[:m]


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


def _integer_count(count, name: str, least: int | None = None) -> int:
    """``count`` as an int; ``ValueError``, naming it ``name``, for anything
    but a Python or numpy integer, a bool included, before it can reach the
    eigensolver, and for a count below ``least``."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {count!r}")
    if least is not None and count < least:
        raise ValueError(f"{name} must be at least {least}, got {count}")
    return int(count)


def _limit_blas_threads() -> None:
    """Run the calling thread's BLAS calls on that thread alone, in both
    libraries, through both limits of :data:`_LIMITS`, which must be
    present. Other threads keep their settings."""
    for limit in _LIMITS:
        limit(1)


def _arpack(op, k: int, tol: float, ncv: int | None = None):
    """``eigsh`` for the ``k`` largest-magnitude eigenpairs of ``op``, from
    the fixed start vector and restart generator, on a Lanczos basis of
    ``ncv`` vectors (eigsh's default where None; eigsh takes at most n);
    None where ARPACK cannot run (k >= n - 1) or fails. scipy's OpenBLAS
    runs on the calling thread alone during the solve, where it has a
    per-thread limit."""
    n = op.shape[0]
    if k >= n - 1:
        return None
    rng = np.random.default_rng(START_SEED)
    limit = _LIMITS[1]
    previous = limit(1) if limit is not None else None
    try:
        return scipy.sparse.linalg.eigsh(
            op, k=k, which="LM", tol=tol, v0=rng.standard_normal(n), rng=rng,
            ncv=ncv)
    except scipy.sparse.linalg.ArpackError:
        return None
    finally:
        if previous is not None:
            limit(previous)


def _product(x):
    """y -> x @ y for ``x``, an :func:`~.graph_io.as_matrix` result: numpy's
    dsymv (:data:`_SYMV`) on the lower triangle of a dense ``x``, outside
    the GIL (the function holds ``x``, so its buffer outlives every call);
    ``x @ y`` for a sparse ``x`` or where the symbol is missing."""
    if _SYMV is None or scipy.sparse.issparse(x):
        return lambda y: x @ y
    n = x.shape[0]

    def symv(y):
        y = np.ascontiguousarray(y, dtype=float).reshape(n)
        out = np.empty(n)
        _SYMV(_ROW_MAJOR, _LOWER, n, 1.0, x.ctypes.data, n, y.ctypes.data, 1,
              0.0, out.ctypes.data, 1)
        return out

    return symv


def _operator(x, spec: Spectrum | None = None):
    """ARPACK's operator on ``x``, an :func:`~.graph_io.as_matrix` result:
    y -> X y (:func:`_product`, checked by :func:`~.graph_io._check_product`)
    less V (D (V^T y)) for the pairs of ``spec`` where one is given."""
    product = _product(x)

    def matvec(y):
        y = np.ravel(y)
        out = product(y)
        _check_product(x, out)
        if spec is not None:
            out -= spec.vectors @ (spec.values * (spec.vectors.T @ y))
        return out

    return scipy.sparse.linalg.LinearOperator(x.shape, matvec=matvec,
                                              dtype=float)


def top_eigenpairs(x, m: int) -> Spectrum:
    """The ``m`` eigenpairs of largest eigenvalue magnitude of symmetric
    ``x``, a dense array or a scipy sparse matrix.

    ARPACK (implicitly restarted Lanczos) computes them to machine
    precision from a fixed start vector. It reads a dense ``x`` through its
    lower triangle (:func:`_product`), so a dense ``x`` must be exactly
    symmetric. A dense symmetric eigendecomposition stands in only where
    ARPACK cannot run: for ``m >= n - 1``, or when ARPACK fails (for
    instance on the zero matrix, where every start vector maps to zero) or
    returns columns that are not orthonormal (as on entries of magnitude
    near 1e-300). ``m`` must be an integer (:func:`_integer_count`) in
    [1, n]. A non-finite entry of ``x`` raises ValueError before ARPACK
    reads a product of :func:`_operator`: it makes the first one non-finite,
    as the start vector has no zero entry. A non-finite product or dense
    spectrum of a finite ``x`` raises "adjacency matrix products overflow"
    (:func:`~.graph_io._check_product`). Each eigenvector is signed by the
    module's convention; no product of ``x`` is formed after the solve.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= _integer_count(m, "m") <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    found = _arpack(_operator(x), m, 0)
    if found is None or not _orthonormal(found[1]):
        _check_finite(x)
        found = np.linalg.eigh(x.toarray() if scipy.sparse.issparse(x) else x)
        _check_product(x, found[0])
    vals, vecs = found
    order = _sort_order(vals, m)
    # fresh columns, flipped in place; the bits of later products with V
    # follow the layout, so the spectrum keeps a C-ordered copy
    vectors = vecs[:, order]
    lead = np.argmax(np.abs(vectors), axis=0)
    vectors[:, vectors[lead, np.arange(m)] < 0] *= -1.0
    return Spectrum(values=vals[order], vectors=vectors.copy(order="C"))


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
    :func:`top_eigenpairs`, on a basis of :data:`DEFLATED_NCV` vectors
    (at most n), which met it after one pass, 10 products of ``x`` with
    the residual's, on every graph measured. The solve and its residual
    read ``x`` through :func:`_operator`, so a non-finite entry or an
    overflowing product raises ValueError; None where ARPACK cannot run or
    fails.
    """
    x = as_matrix(x)
    op = _operator(x, spec)
    found = _arpack(op, 1, DEFLATED_TOL, DEFLATED_NCV)
    if found is None:
        return None
    theta, u = float(found[0][0]), found[1][:, 0]
    return theta, float(np.linalg.norm(op.matvec(u) - theta * u))

