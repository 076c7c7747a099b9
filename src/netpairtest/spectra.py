"""Leading eigenpairs of the adjacency matrix.

The top eigenpairs come from restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) on a dense array or a sparse matrix, with a
fixed start vector and a fixed generator for restarts, so results are
bit-reproducible. Eigenpairs are sorted by eigenvalue magnitude and carry a
deterministic, data-only sign convention: in every eigenvector the entry of
largest absolute value is positive (ties broken by smallest index). Both
downstream test statistics are invariant to column sign flips, so any fixed
convention works; this one needs no ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .graph_io import as_matrix

__all__ = [
    "Spectrum",
    "DegenerateNodeError",
    "top_eigenpairs",
    "orient_signs",
]

ORTHONORMALITY_TOL = 1e-8
RESIDUAL_TOL = 1e-6
DEGENERACY_REL_TOL = 1e-10
# magnitudes this close (relative) are tied; ARPACK returns the two members
# of a +/- pair with magnitudes that differ in the last bits
TIE_REL_TOL = 1e-12
# seed of the ARPACK start vector and of its restart vectors
START_SEED = 0


class DegenerateNodeError(ValueError):
    """Leading-eigenvector entry too close to zero for a ratio statistic."""


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
        gram = self.vectors.T @ self.vectors
        if np.max(np.abs(gram - np.eye(self.m))) > ORTHONORMALITY_TOL:
            raise AssertionError("eigenvectors not orthonormal")
        bound = RESIDUAL_TOL * max(1.0, mags[0] if self.m else 1.0)
        if np.any(self.residuals > bound):
            raise AssertionError("eigen-residual exceeds tolerance")
        for k in range(self.m):
            col = self.vectors[:, k]
            lead = int(np.argmax(np.abs(col)))
            if col[lead] < 0:
                raise AssertionError(f"column {k} violates sign convention")


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


def top_eigenpairs(x, m: int) -> Spectrum:
    """The ``m`` eigenpairs of largest eigenvalue magnitude of symmetric
    ``x``, a dense array or a scipy sparse matrix.

    ARPACK (implicitly restarted Lanczos) computes them to machine
    precision from a fixed start vector. A dense symmetric eigendecomposition
    stands in only where ARPACK cannot run: for ``m >= n - 1``, or when ARPACK
    fails (for instance on the zero matrix, where every start vector maps to
    zero).
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    vals = None
    if m < n - 1:
        rng = np.random.default_rng(START_SEED)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                x, k=m, which="LM", tol=0, v0=rng.standard_normal(n), rng=rng)
        except scipy.sparse.linalg.ArpackError:
            pass
    if vals is None:
        vals, vecs = np.linalg.eigh(x.toarray() if scipy.sparse.issparse(x)
                                    else x)
    order = _sort_order(vals, m)
    values = vals[order]
    vectors = vecs[:, order]
    residuals = np.linalg.norm(x @ vectors - vectors * values[None, :], axis=0)
    return orient_signs(Spectrum(values=values, vectors=vectors,
                                 residuals=residuals))


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


def degeneracy_threshold(vectors: np.ndarray) -> float:
    """Magnitude below which an entry of the leading eigenvector, column 0
    of ``vectors``, counts as zero."""
    return DEGENERACY_REL_TOL * np.max(np.abs(vectors[:, 0]))
