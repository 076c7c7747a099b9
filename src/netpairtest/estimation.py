"""Estimation of the community count, refined noise matrix, and plug-in
covariance matrices for the pair tests.

The community count is estimated by counting eigenvalues whose square exceeds
2.01 * log(n) * (maximum degree). Only the first eigenvalue below that
threshold decides the count, so :func:`grow_spectrum` solves the top pairs to
machine precision and, when all of them clear the threshold, bounds the next
eigenvalue by one loose solve on the deflated matrix instead of converging
more pairs; only a bound too close to the threshold to decide costs a
doubled solve.

Noise variances come from a one-step refinement: deflate the adjacency
matrix by its leading eigenpairs, shrink the eigenvalues using the diagonal
of the squared residual, deflate again with the shrunken eigenvalues, and
square the result entrywise.

Everything up to the shrunken eigenvalues depends on the graph, not on the
pair, so :func:`fit` computes it once; the covariance of a pair (i, j) then
reads only rows i and j of the squared residual, which :class:`Fit` forms on
demand. No step forms an n x n matrix: the adjacency matrix may be a dense
array or a sparse matrix, and only products of it with n x k blocks are
taken.

Each covariance formula has one definition, :func:`sigma1_matrix` and
:func:`sigma2_matrix`. :func:`estimate_sigma1` and :func:`estimate_sigma2`
evaluate it on a :class:`Fit` for the plug-in estimate, or on an oracle
ground truth for the exact covariance. They also hold each covariance's
domain: the least K of its test, :data:`MIN_K`, and for the ratios of the
G test a leading-eigenvector entry away from zero
(:func:`degeneracy_threshold`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .graph_io import as_matrix, max_degree
from .spectra import Spectrum, deflated_ritz, top_eigenpairs

__all__ = [
    "MIN_K",
    "DegenerateNodeError",
    "KEstimate",
    "Fit",
    "CovarianceEstimate",
    "grow_spectrum",
    "diag_residual_square",
    "refine_eigenvalues",
    "fit",
    "estimate_sigma1",
    "estimate_sigma2",
]

K_THRESHOLD_CONSTANT = 2.01
# least K of each test: the floor of an estimated K, the least k_override;
# the test has K - MIN_K + 1 degrees of freedom
MIN_K = {"T": 1, "G": 2}
DEGENERACY_REL_TOL = 1e-10


class DegenerateNodeError(ValueError):
    """Leading-eigenvector entry too close to zero for a ratio statistic."""


@dataclass(frozen=True)
class KEstimate:
    """Community-count estimate: ``k_hat`` eigenvalues of ``eigenvalues``
    (the retained ones, by nonincreasing magnitude) have a square above
    ``threshold``. ``next_bound`` bounds |d_{k_hat+1}| from above, so
    |d_{k_hat}| / next_bound bounds the eigen-gap from below: the retained
    value |d_{k_hat+1}| itself, the bound of the deflated check of
    :func:`grow_spectrum`, 0 when no eigenvalue is left, and inf when
    nothing bounds it."""

    k_hat: int
    threshold: float
    eigenvalues: np.ndarray
    next_bound: float


@dataclass(frozen=True)
class Fit:
    """A graph fitted once for any number of pair tests.

    ``x`` is the symmetric adjacency matrix, ``k`` the community count in
    use and ``k_estimate`` the thresholding estimate it came from (None
    when ``k`` was fixed by the caller); ``d_tilde`` holds the refined
    top-``k`` eigenvalues. The variance estimate is sigma2 = W_hat * W_hat
    (entrywise) with the refined residual W_hat = X - V diag(d_tilde) V^T,
    which is symmetric because X is.
    """

    x: np.ndarray | scipy.sparse.sparray | scipy.sparse.spmatrix
    spectrum: Spectrum
    k: int
    d_tilde: np.ndarray
    k_estimate: KEstimate | None = None

    @property
    def k_source(self) -> str:
        return "override" if self.k_estimate is None else "estimated"

    @property
    def vectors(self) -> np.ndarray:
        return self.spectrum.vectors[:, :self.k]

    @property
    def values(self) -> np.ndarray:
        return self.spectrum.values[:self.k]

    @property
    def locations(self) -> np.ndarray:
        """Eigenvalue locations of the ratio covariance: the empirical
        eigenvalues themselves."""
        return self.values

    def sigma2_rows(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows i and j of sigma2, in O(n k) time and memory: row i of
        W_hat is X[i, :] - (v_i * d_tilde) V^T."""
        v = self.vectors
        rows = [i, j]
        w = _dense(self.x[rows]) - (v[rows] * self.d_tilde) @ v.T
        w *= w
        return w[0], w[1]


def _dense(a) -> np.ndarray:
    return a.toarray() if scipy.sparse.issparse(a) else a


@dataclass(frozen=True)
class CovarianceEstimate:
    matrix: np.ndarray
    condition_estimate: float


def k_threshold(n: int, dmax: int) -> float:
    return K_THRESHOLD_CONSTANT * np.log(n) * dmax


def estimate_k_from_values(values: np.ndarray, n: int, dmax: int) -> KEstimate:
    """Count eigenvalues with square above the degree-based threshold.

    ``values`` are the retained largest-magnitude eigenvalues; the count is
    the community-count estimate only if it stops short of ``len(values)``
    or ``values`` is the whole spectrum (see :func:`grow_spectrum`).
    """
    values = np.asarray(values)
    thr = k_threshold(n, dmax)
    k_hat = int(np.sum(np.abs(values) ** 2 > thr))
    if k_hat < len(values):
        bound = float(abs(values[k_hat]))
    else:
        bound = 0.0 if len(values) == n else np.inf
    return KEstimate(k_hat=k_hat, threshold=thr, eigenvalues=values,
                     next_bound=bound)


def grow_spectrum(x, m: int = 3) -> tuple[Spectrum, KEstimate]:
    """Top eigenpairs of ``x``, at least min(m, n) of them and just enough
    to estimate K.

    The top ``m`` pairs are solved to machine precision. If one of them
    falls below the counting threshold, it decides the count. If all of
    them clear it, one loose solve on the deflated matrix
    (:func:`~.spectra.deflated_ritz`) gives a Ritz value theta of the next
    eigenvalue d_{m+1} with residual r; when |theta| + ||r|| lies below the
    square root of the threshold, K is m and ``next_bound`` records that
    bound. Otherwise, d_{m+1} clears the threshold or the bound cannot
    tell, the top 2m pairs are solved, then 4m, ... up to n. The bound
    trusts the deflated solve to find the largest remaining eigenvalue, as
    the m-pair solve trusts ARPACK to find the top m; with that, the
    estimate equals the one from the whole spectrum.
    """
    n = x.shape[0]
    dmax = max_degree(x)
    m = min(m, n)
    while True:
        spec = top_eigenpairs(x, m)
        est = estimate_k_from_values(spec.values, n, dmax)
        if est.k_hat < m or m == n:
            return spec, est
        ritz = deflated_ritz(x, spec)
        if ritz is not None:
            bound = abs(ritz[0]) + ritz[1]
            if bound ** 2 < est.threshold:
                return spec, replace(est, next_bound=bound)
        m = min(2 * m, n)


def diag_residual_square(x, spec: Spectrum, k: int) -> np.ndarray:
    """diag(W0^2) of the initial residual W0 = X - V diag(d) V^T over the top
    ``k`` pairs of symmetric ``x``, without forming W0.

    With orthonormal V, row i of W0 has squared norm
    sum_l x_il^2 - 2 sum_k d_k (X V)_ik v_ik + sum_k d_k^2 v_ik^2, which
    costs one product of ``x`` with an n x k block.
    """
    if k > spec.m:
        raise ValueError(f"k={k} exceeds retained spectrum size {spec.m}")
    v, d = spec.vectors[:, :k], spec.values[:k]
    if scipy.sparse.issparse(x):  # CSR: square the stored entries only
        row_sq = scipy.sparse.csr_array((x.data * x.data, x.indices, x.indptr),
                                        shape=x.shape) @ np.ones(x.shape[0])
    else:
        row_sq = np.einsum("ij,ij->i", x, x)
    return row_sq - 2.0 * np.einsum("ik,ik->i", x @ v, v * d) \
        + (v * v) @ (d * d)


def refine_eigenvalues(spec: Spectrum, w0_sq_diag: np.ndarray,
                       k: int) -> np.ndarray:
    """Shrink the leading eigenvalues using the diagonal of the squared
    initial residual: d~ = [1/d + v^T diag(W0^2) v / d^3]^(-1).

    ``w0_sq_diag`` is diag(W0^2), the row sums of squared residual entries
    (see :func:`diag_residual_square`). An eigenvalue of magnitude at most
    n * eps * |d_1| is zero to working precision and cannot be refined.
    """
    d = spec.values[:k]
    n = spec.vectors.shape[0]
    if np.any(np.abs(d) <= n * np.finfo(float).eps * abs(spec.values[0])):
        raise ZeroDivisionError("cannot refine a zero eigenvalue")
    v = spec.vectors[:, :k]
    quad = np.einsum("ik,i,ik->k", v, w0_sq_diag, v)
    return 1.0 / (1.0 / d + quad / d**3)


def fit(x, k: int | None = None, *, spectrum: Spectrum | None = None,
        floor: int = 1) -> Fit:
    """Fit ``x``, a symmetric dense array or sparse matrix, once for many
    pair tests.

    ``k`` fixes the community count; when omitted it is estimated by
    thresholding the spectrum with :func:`grow_spectrum` and floored at
    ``floor``; the tests pass the least K they accept, ``MIN_K[method]``.
    For a fixed ``k``, ``spectrum`` may supply precomputed eigenpairs of
    ``x``; by default the top max(k, 1) pairs are computed. The refinement
    costs O(nnz k); no n x n matrix is formed.

    Raises
    ------
    ValueError
        If ``k`` lies outside [0, n], or ``spectrum`` is given without
        ``k``.
    ZeroDivisionError
        If one of the top ``k`` eigenvalues is zero to working precision.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    est = None
    if k is None:
        if spectrum is not None:
            raise ValueError("a supplied spectrum needs a fixed k")
        spectrum, est = grow_spectrum(x)
        k = max(est.k_hat, floor)
    elif spectrum is None:
        spectrum = top_eigenpairs(x, max(k, 1))
    d_tilde = refine_eigenvalues(spectrum, diag_residual_square(x, spectrum, k),
                                 k)
    return Fit(x=x, spectrum=spectrum, k=k, d_tilde=d_tilde, k_estimate=est)


def check_k(k: int, method: str) -> None:
    """Raise ``ValueError`` unless ``k`` is at least ``MIN_K[method]``."""
    if k < MIN_K[method]:
        raise ValueError(f"the {method} test needs k >= {MIN_K[method]}")


def degeneracy_threshold(vectors: np.ndarray) -> float:
    """Magnitude below which an entry of the leading eigenvector, column 0
    of ``vectors``, counts as zero."""
    return DEGENERACY_REL_TOL * np.max(np.abs(vectors[:, 0]))


def _condition(mat: np.ndarray) -> float:
    try:
        return float(np.linalg.cond(mat, 2))
    except np.linalg.LinAlgError:
        return np.inf


def sigma1_matrix(v: np.ndarray, d: np.ndarray, s_i: np.ndarray,
                  s_j: np.ndarray, i: int, j: int) -> np.ndarray:
    """Covariance of the difference of eigenvector rows i and j, evaluated
    from eigenpairs (``v``, ``d``) and rows ``s_i``, ``s_j`` of an entrywise
    variance matrix sigma2.

    Entry (a, b) is [ sum_{t in {i,j}} sum_l sigma2[t,l] v_a(l) v_b(l)
    - sigma2[i,j] (v_a(j) v_b(i) + v_a(i) v_b(j)) ] / (d_a d_b).
    """
    core = (v * (s_i + s_j)[:, None]).T @ v
    cross = s_i[j] * (np.outer(v[j], v[i]) + np.outer(v[i], v[j]))
    return (core - cross) / np.outer(d, d)


def estimate_sigma1(model, i: int, j: int) -> CovarianceEstimate:
    """Covariance of the row difference of nodes ``i`` and ``j``, k x k.

    ``model`` is a :class:`Fit`, which gives the plug-in estimate, or an
    oracle ``GroundTruth``, which gives the exact covariance: both supply
    ``k``, ``vectors``, ``values`` and ``sigma2_rows``.
    """
    if i == j:
        raise ValueError("nodes must be distinct")
    check_k(model.k, "T")
    mat = sigma1_matrix(model.vectors, model.values, *model.sigma2_rows(i, j),
                        i, j)
    return CovarianceEstimate(matrix=mat, condition_estimate=_condition(mat))


def sigma2_matrix(vectors: np.ndarray, values: np.ndarray, t: np.ndarray,
                  s_i: np.ndarray, s_j: np.ndarray, i: int,
                  j: int) -> np.ndarray:
    """Covariance of the difference of the ratio vectors
    (v_2(i)/v_1(i), ..., v_k(i)/v_1(i)) of nodes i and j, evaluated from
    eigenpairs, eigenvalue locations ``t`` and rows ``s_i``, ``s_j`` of an
    entrywise variance matrix.

    ``values`` and ``t`` coincide for the plug-in estimator; the exact
    population version passes the deterministic eigenvalue locations as
    ``t``. Indices a, b range over the k-1 ratio components (eigenvectors
    2..k). The first sum skips l = j, the second skips l = i, and the
    (i, j) variance enters through a rank-one cross term.
    """
    k = len(values)
    t1 = t[0]
    trest = t[1:]
    v1i, v1j = vectors[i, 0], vectors[j, 0]
    vrest = vectors[:, 1:k]
    v1 = vectors[:, 0]

    a = (t1 / trest)[None, :] * vrest / v1i - np.outer(v1, vectors[i, 1:k]) / v1i**2
    b = (t1 / trest)[None, :] * vrest / v1j - np.outer(v1, vectors[j, 1:k]) / v1j**2

    s2i = s_i.copy()
    s2i[j] = 0.0
    s2j = s_j.copy()
    s2j[i] = 0.0
    term_i = (a * s2i[:, None]).T @ a
    term_j = (b * s2j[:, None]).T @ b
    c = a[j] - b[i]
    return (term_i + term_j + s_i[j] * np.outer(c, c)) / t1**2


def estimate_sigma2(model, i: int, j: int) -> CovarianceEstimate:
    """Covariance of the ratio difference of nodes ``i`` and ``j``,
    (k-1) x (k-1).

    ``model`` is a :class:`Fit` or an oracle ``GroundTruth``, as for
    :func:`estimate_sigma1`; its ``locations`` are the eigenvalue locations,
    which a fit estimates by its empirical eigenvalues. A node whose
    leading-eigenvector entry lies below :func:`degeneracy_threshold` has no
    ratio and raises :class:`DegenerateNodeError`.
    """
    if i == j:
        raise ValueError("nodes must be distinct")
    check_k(model.k, "G")
    v = model.vectors
    eps = degeneracy_threshold(v)
    for node in (i, j):
        if abs(v[node, 0]) < eps:
            raise DegenerateNodeError(
                f"leading-eigenvector entry at node {node} is degenerate"
            )
    mat = sigma2_matrix(v, model.values, model.locations,
                        *model.sigma2_rows(i, j), i, j)
    return CovarianceEstimate(matrix=mat, condition_estimate=_condition(mat))
