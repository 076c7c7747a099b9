"""Leading eigenpairs of the adjacency matrix.

The top eigenpairs come from restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) on a dense array or a sparse matrix, with a
fixed start vector and a fixed generator for restarts, so results are
bit-reproducible. :func:`deflated_ritz` solves the same way, loosely, for
the largest eigenvalue left once the top pairs are removed: enough to bound
the next eigenvalue without converging it. Eigenpairs are sorted by
eigenvalue magnitude and carry a deterministic, data-only sign convention:
in every eigenvector the entry of largest absolute value is positive (ties
broken by smallest index). Both downstream test statistics are invariant
to column sign flips, so any fixed convention works; this one needs no
ground truth. The module computes eigenpairs only: the domain of each
pair-test covariance (the least K, the degenerate-node rule) is defined in
:mod:`~.estimation`.
"""

from __future__ import annotations

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
RESIDUAL_TOL = 1e-6
# magnitudes this close (relative) are tied; ARPACK returns the two members
# of a +/- pair with magnitudes that differ in the last bits
TIE_REL_TOL = 1e-12
# seed of the ARPACK start vector and of its restart vectors
START_SEED = 0
# relative ARPACK tolerance of deflated_ritz: its residual, not its Ritz
# value, enters the bound on the next eigenvalue
DEFLATED_TOL = 1e-3


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

    def check(self) -> None:
        """Assert the structural invariants (ordering, orthonormality,
        residual bounds, sign convention)."""
        mags = np.abs(self.values)
        if self.m and np.any(np.diff(mags) > TIE_REL_TOL * max(1.0, mags[0])):
            raise AssertionError("eigenvalue magnitudes not nonincreasing")
        if not _orthonormal(self.vectors):
            raise AssertionError("eigenvectors not orthonormal")
        bound = RESIDUAL_TOL * max(1.0, mags[0] if self.m else 1.0)
        if np.any(self.residuals > bound):
            raise AssertionError("eigen-residual exceeds tolerance")
        for k in range(self.m):
            col = self.vectors[:, k]
            lead = int(np.argmax(np.abs(col)))
            if col[lead] < 0:
                raise AssertionError(f"column {k} violates sign convention")


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


def _arpack(op, k: int, tol: float):
    """``eigsh`` for the ``k`` largest-magnitude eigenpairs of ``op``, from
    the fixed start vector and restart generator; None where ARPACK cannot
    run (k >= n - 1) or fails."""
    n = op.shape[0]
    if k >= n - 1:
        return None
    rng = np.random.default_rng(START_SEED)
    try:
        return scipy.sparse.linalg.eigsh(
            op, k=k, which="LM", tol=tol, v0=rng.standard_normal(n), rng=rng)
    except scipy.sparse.linalg.ArpackError:
        return None


def top_eigenpairs(x, m: int) -> Spectrum:
    """The ``m`` eigenpairs of largest eigenvalue magnitude of symmetric
    ``x``, a dense array or a scipy sparse matrix.

    ARPACK (implicitly restarted Lanczos) computes them to machine
    precision from a fixed start vector. A dense symmetric eigendecomposition
    stands in only where ARPACK cannot run: for ``m >= n - 1``, or when ARPACK
    fails (for instance on the zero matrix, where every start vector maps to
    zero) or returns columns that are not orthonormal (as on entries of
    magnitude near 1e-300).
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    found = _arpack(x, m, 0)
    if found is None or not _orthonormal(found[1]):
        found = np.linalg.eigh(x.toarray() if scipy.sparse.issparse(x) else x)
    vals, vecs = found
    order = _sort_order(vals, m)
    values = vals[order]
    vectors = vecs[:, order]
    residuals = np.linalg.norm(x @ vectors - vectors * values[None, :], axis=0)
    return orient_signs(Spectrum(values=values, vectors=vectors,
                                 residuals=residuals))


def deflated_ritz(x, spec: Spectrum) -> tuple[float, float] | None:
    """Ritz value theta of largest magnitude of the deflated operator
    y -> X y - V (D (V^T y)), with V, D the pairs of ``spec``, and its
    residual norm ||Op u - theta u|| for the unit Ritz vector u.

    The operator keeps the eigenvalues of ``x`` beyond ``spec``, so theta
    approximates the next one, d_{m+1}, and some eigenvalue of the operator
    lies within the residual of theta. ARPACK runs to the loose relative
    tolerance :data:`DEFLATED_TOL` from the start vector of
    :func:`top_eigenpairs`. None where ARPACK cannot run or fails.
    """
    x = as_matrix(x)
    v, d = spec.vectors, spec.values

    def matvec(y):
        y = np.ravel(y)
        return x @ y - v @ (d * (v.T @ y))

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
