"""Estimation of the community count, refined noise matrix, and plug-in
covariance matrices for the pair tests.

The community count is estimated by counting eigenvalues whose square exceeds
2.01 * log(n) * (maximum degree). Only the first eigenvalue below that
threshold decides the count, so :func:`grow_spectrum` solves the top pairs to
machine precision and, when all of them clear the threshold, bounds the next
eigenvalue by one loose solve on the deflated matrix, widened by
:data:`RITZ_BOUND_MARGIN`, instead of converging more pairs; only a bound
too close to the threshold to decide costs a doubled solve. The count is
taken on the values of the spectrum that :func:`grow_spectrum` returns.

Noise variances come from a one-step refinement: deflate the adjacency
matrix by its leading eigenpairs, shrink the eigenvalues using the diagonal
of the squared residual, deflate again with the shrunken eigenvalues, and
square the result entrywise.

Everything up to the shrunken eigenvalues depends on the graph, not on the
pair, so :func:`fit` computes it once. No step forms an n x n matrix: the
adjacency matrix may be a dense array or a sparse matrix, and only products
of it with n x k blocks are taken.

Both tests compare a per-node contrast, and besides :data:`MIN_K` only
:func:`_contrast` tells them apart: the eigenvector row for T, the ratio
vector v_i[1:] / v_i[0] for G, with the map of its first-order move, its
scale and which nodes are degenerate (:func:`degeneracy_threshold`).
:func:`node_moments` reads the rows of m nodes once (O(m n k^2) time,
O(m n) memory) and keeps each node's contrast and moment plus the m x m
variances between the nodes, in the order given, so that the covariance of
any pair of its rows costs O(k^3). One body gives both covariances,
:func:`estimate_sigma1` and :func:`estimate_sigma2`, at two nodes of a
:class:`Fit` (the plug-in estimate) or of an oracle ground truth (the exact
one), or at two rows of its :class:`NodeMoments`, for one pair or a stack
of pairs, an empty one included; :func:`check_nodes` checks every node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .graph_io import as_matrix, max_degree
from .spectra import Spectrum, _integer_count, deflated_ritz, top_eigenpairs

__all__ = [
    "MIN_K",
    "DegenerateNodeError",
    "KEstimate",
    "Fit",
    "CovarianceEstimate",
    "NodeMoments",
    "grow_spectrum",
    "diag_residual_square",
    "refine_eigenvalues",
    "fit",
    "node_moments",
    "estimate_sigma1",
    "estimate_sigma2",
]

K_THRESHOLD_CONSTANT = 2.01
# relative widening of the deflated check's |theta| + ||r||: a Ritz residual
# bounds the distance to some eigenvalue, not to the largest one, and the
# bare sum fell short of |d_{K+1}| by up to 1.30% on the graphs measured
RITZ_BOUND_MARGIN = 0.1
# least K of each test: the floor of an estimated K, the least k_override;
# the test has K - MIN_K + 1 degrees of freedom
MIN_K = {"T": 1, "G": 2}
DEGENERACY_REL_TOL = 1e-10


class DegenerateNodeError(ValueError):
    """Leading-eigenvector entry too close to zero for a ratio statistic;
    ``node`` is the node's row index, None where not known."""

    def __init__(self, *args, node: int | None = None):
        super().__init__(*args)
        self.node = node


@dataclass(frozen=True)
class KEstimate:
    """Community-count estimate: ``k_hat`` values of the spectrum
    :func:`grow_spectrum` returns with it have a square above
    ``threshold``. ``next_bound`` bounds |d_{k_hat+1}| from above, so
    |d_{k_hat}| / next_bound bounds the eigen-gap from below: the retained
    value |d_{k_hat+1}| itself, the bound (|theta| + ||r||) *
    (1 + :data:`RITZ_BOUND_MARGIN`) of the deflated check of
    :func:`grow_spectrum`, 0 when no eigenvalue is left, and inf when
    nothing bounds it."""

    k_hat: int
    threshold: float
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

    def sigma2_rows(self, nodes) -> np.ndarray:
        """Rows ``nodes`` of sigma2, an m x n array for m nodes, in O(m n k)
        time and O(m n) memory: row i of W_hat is
        X[i, :] - sum_a d_tilde_a v_ia V[:, a]. Each term is formed as
        d_tilde_a (v_ia v_la), so that sigma2[i, l] and sigma2[l, i] agree
        to the last bit and a pair's covariance does not depend on the
        order of its nodes."""
        v, nodes = self.vectors, np.atleast_1d(nodes)
        w = np.asarray(_dense(self.x[nodes]), dtype=float)  # a copy
        term = np.empty_like(w)
        for a in range(self.k):
            np.multiply.outer(v[nodes, a], v[:, a], out=term)
            term *= self.d_tilde[a]
            w -= term
        w *= w
        return w


def _dense(a) -> np.ndarray:
    return a.toarray() if scipy.sparse.issparse(a) else a


@dataclass(frozen=True)
class CovarianceEstimate:
    """A covariance and its 2-norm condition number; for a stack of p
    pairs, ``matrix`` is p x r x r and ``condition_estimate`` has length
    p."""

    matrix: np.ndarray
    condition_estimate: float | np.ndarray


@dataclass(frozen=True)
class NodeMoments:
    """What the covariances of the ``method`` test read from a :class:`Fit`
    or an oracle ``GroundTruth``, one row per node in the order given.

    A node's ``contrast`` c_i moves to first order by B_i^T (W V)_i / s,
    with its map B_i (``maps``) and the ``scale`` s (:func:`_contrast`);
    ``rows`` = V[nodes]. A ``degenerate`` node has NaN contrast, map and
    moment. Row i of ``moments`` is A_i^T diag(sigma2[i, :]) A_i in the
    basis A_i = V B_i, and ``cross`` = sigma2[nodes][:, nodes] holds the
    variances between the nodes.
    """

    method: str
    contrast: np.ndarray
    maps: np.ndarray
    rows: np.ndarray
    scale: np.ndarray
    degenerate: np.ndarray
    moments: np.ndarray
    cross: np.ndarray


def k_threshold(n: int, dmax: int) -> float:
    return K_THRESHOLD_CONSTANT * np.log(n) * dmax


def estimate_k_from_values(values: np.ndarray, n: int, dmax: int) -> KEstimate:
    """Count eigenvalues with square above the degree-based threshold.

    ``values`` are the retained largest-magnitude eigenvalues; the count is
    the community-count estimate only if it stops short of ``len(values)``
    or ``values`` is the whole spectrum (see :func:`grow_spectrum`).
    """
    thr = k_threshold(n, dmax)
    k_hat = int(np.sum(np.abs(values) ** 2 > thr))
    if k_hat < len(values):
        bound = float(abs(values[k_hat]))
    else:
        bound = 0.0 if len(values) == n else np.inf
    return KEstimate(k_hat=k_hat, threshold=thr, next_bound=bound)


def grow_spectrum(x, m: int = 3) -> tuple[Spectrum, KEstimate]:
    """Top eigenpairs of ``x``, at least min(m, n) of them and just enough
    to estimate K, and the estimate counted on their values.

    The top ``m`` pairs are solved to machine precision. If one of them
    falls below the counting threshold, it decides the count. If all of
    them clear it, one loose solve on the deflated matrix
    (:func:`~.spectra.deflated_ritz`) gives a Ritz value theta of the next
    eigenvalue d_{m+1} with residual r. Its bound is
    (|theta| + ||r||) * (1 + :data:`RITZ_BOUND_MARGIN`); when it lies below
    the square root of the threshold, K is m and ``next_bound`` records it.
    Otherwise, d_{m+1} clears the threshold or the bound cannot tell, the
    top 2m pairs are solved, then 4m, ... up to n.

    The residual bounds the distance from theta to some eigenvalue of the
    deflated matrix, not to the largest one, so the bare |theta| + ||r||
    is no bound on |d_{m+1}|. Against the dense eigenvalues it fell short
    on 7 of the 154 simulated graphs (models 1 and 2, n = 400 to 3000) on
    which the check ran, by up to 1.30% (model 1, n = 400); at a 1e-3 stop
    on ARPACK's default basis it still fell short, 22.0810 against
    22.0845 on an n = 2000 model-1 graph. The margin covers these
    shortfalls seven times over. As the m-pair solve
    trusts ARPACK to find the top m, the check trusts it to come within
    the margin of the largest remaining eigenvalue; with that, the
    estimate equals the one from the whole spectrum. ``x`` is converted
    (:func:`~.graph_io.as_matrix`) once, not by every solve.
    """
    x = as_matrix(x)
    n = x.shape[0]
    m = min(_integer_count(m, "m"), n)
    dmax = max_degree(x)
    while True:
        spec = top_eigenpairs(x, m)
        est = estimate_k_from_values(spec.values, n, dmax)
        if est.k_hat < m or m == n:
            return spec, est
        ritz = deflated_ritz(x, spec)
        if ritz is not None:
            bound = (abs(ritz[0]) + ritz[1]) * (1.0 + RITZ_BOUND_MARGIN)
            if bound ** 2 < est.threshold:
                return spec, replace(est, next_bound=bound)
        m = min(2 * m, n)


def _check_spectrum(spec: Spectrum, n: int, k: int) -> None:
    """Raise unless ``spec`` is a :class:`~.spectra.Spectrum` of an n-node
    matrix with at least ``k`` pairs: ``TypeError`` for any other object,
    ``ValueError`` "spectrum vectors must be n x m, got shape ..." or
    "spectrum products must be n x m, got shape ..." where either is not
    n x m for its m values, and "k=... exceeds retained spectrum size m"."""
    if not isinstance(spec, Spectrum):
        raise TypeError(f"spectrum must be a Spectrum, got "
                        f"{type(spec).__name__}")
    for name in ("vectors", "products"):
        shape = np.shape(getattr(spec, name))
        if shape != (n, spec.m):
            raise ValueError(f"spectrum {name} must be {n} x {spec.m}, got "
                             f"shape {shape}")
    if k > spec.m:
        raise ValueError(f"k={k} exceeds retained spectrum size {spec.m}")


def diag_residual_square(x, spec: Spectrum, k: int) -> np.ndarray:
    """diag(W0^2) of the initial residual W0 = X - V diag(d) V^T over the top
    ``k`` pairs of symmetric ``x``, without forming W0.

    With orthonormal V, row i of W0 has squared norm
    sum_l x_il^2 - 2 sum_k d_k (X V)_ik v_ik + sum_k d_k^2 v_ik^2. The
    product X V is the one the spectrum holds (``spec.products``), so the
    only pass over ``x`` here squares its entries. ``spec`` must be a
    spectrum of ``x`` that holds at least ``k`` pairs
    (:func:`_check_spectrum`).
    """
    x = as_matrix(x)
    _check_spectrum(spec, x.shape[0], k)
    v, d = spec.vectors[:, :k], spec.values[:k]
    if scipy.sparse.issparse(x):  # CSR: square the stored entries only
        row_sq = scipy.sparse.csr_array((x.data * x.data, x.indices, x.indptr),
                                        shape=x.shape) @ np.ones(x.shape[0])
    else:
        row_sq = np.einsum("ij,ij->i", x, x)
    xv = spec.products[:, :k]
    return row_sq - 2.0 * np.einsum("ik,ik->i", xv, v * d) + (v * v) @ (d * d)


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
    pair tests. The eigensolver reads a dense ``x`` through one triangle
    (:func:`~.spectra.top_eigenpairs`), so it must be exactly symmetric.

    ``k`` fixes the community count; when omitted it is estimated by
    thresholding the spectrum with :func:`grow_spectrum` and floored at
    ``floor``; the tests pass the least K they accept, ``MIN_K[method]``.
    A floor above the pairs the estimate solved has them solved to it.
    For a fixed ``k``, ``spectrum`` may supply precomputed eigenpairs of
    ``x``; by default the top max(k, 1) pairs are computed. The refinement
    costs O(nnz k); no n x n matrix is formed.

    Raises
    ------
    ValueError
        If ``k``, or ``floor`` where K is estimated, is not an integer
        (:func:`~.spectra._integer_count`) or lies outside [0, n],
        ``spectrum`` is given without ``k``, or ``spectrum`` is not one of
        an n-node matrix with at least ``k`` pairs and their products
        (:func:`_check_spectrum`).
    TypeError
        If ``spectrum`` is not a :class:`~.spectra.Spectrum`.
    ZeroDivisionError
        If one of the top ``k`` eigenvalues is zero to working precision.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if k is not None and not 0 <= _integer_count(k, "k") <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    est = None
    if k is None:
        if spectrum is not None:
            raise ValueError("a supplied spectrum needs a fixed k")
        floor = _integer_count(floor, "floor")
        if not 0 <= floor <= n:
            raise ValueError(f"floor must lie in [0, {n}], got {floor}")
        spectrum, est = grow_spectrum(x)
        k = max(est.k_hat, floor)
        if k > spectrum.m:
            spectrum = top_eigenpairs(x, k)
    elif spectrum is None:
        spectrum = top_eigenpairs(x, max(k, 1))
    d_tilde = refine_eigenvalues(spectrum, diag_residual_square(x, spectrum, k),
                                 k)
    return Fit(x=x, spectrum=spectrum, k=k, d_tilde=d_tilde, k_estimate=est)


def check_k(k: int | None, method: str) -> None:
    """Raise ``ValueError`` unless ``method`` is a key of :data:`MIN_K` and
    ``k`` is None (to be estimated) or an integer
    (:func:`~.spectra._integer_count`) of at least ``MIN_K[method]``."""
    if not isinstance(method, str) or method not in MIN_K:
        raise ValueError(f"unknown method {method!r}")
    if k is not None and _integer_count(k, "k") < MIN_K[method]:
        raise ValueError(f"the {method} test needs k >= {MIN_K[method]}")


def degeneracy_threshold(vectors: np.ndarray) -> float:
    """Magnitude below which an entry of the leading eigenvector, column 0
    of ``vectors``, counts as zero."""
    return DEGENERACY_REL_TOL * np.max(np.abs(vectors[:, 0]))


def _integer_nodes(nodes) -> np.ndarray:
    """``nodes`` as an integer array; ``ValueError`` for any other dtype and
    for a bool anywhere among them, which numpy would read as node 0 or 1."""
    arr = np.asarray(nodes)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"nodes must be integers, got dtype {arr.dtype}")
    if not isinstance(nodes, np.ndarray) and any(
            isinstance(v, (bool, np.bool_))
            for v in np.asarray(nodes, dtype=object).flat):
        raise ValueError("nodes must be integers, got a bool")
    return arr


def check_nodes(nodes, n: int) -> np.ndarray:
    """``nodes`` as an integer array (:func:`_integer_nodes`); ``ValueError``
    unless they are one-dimensional, distinct and in [0, n)."""
    nodes = _integer_nodes(nodes)
    if nodes.ndim != 1:
        raise ValueError(f"nodes must be one-dimensional, got shape "
                         f"{nodes.shape}")
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("nodes must be distinct")
    _check_range(nodes, n, "node")
    return nodes


def _check_range(index: np.ndarray, n: int, name: str) -> None:
    """``ValueError`` at the first entry of ``index`` outside [0, n)."""
    outside = (index < 0) | (index >= n)
    if outside.any():
        raise ValueError(f"{name} {index[np.argmax(outside)]} outside the "
                         f"{name} range [0, {n})")


def degenerate_node(node, label=None) -> DegenerateNodeError:
    """The error of the degenerate node of row ``node``, named ``label`` in
    its message (by default the row index itself)."""
    return DegenerateNodeError(
        f"leading-eigenvector entry at node "
        f"{node if label is None else label} is degenerate", node=int(node))


def _contrast(model, rows: np.ndarray, method: str):
    """The ``method`` test's (contrast, maps, scale, degenerate) at the
    eigenvector rows ``rows`` of ``model``, as :class:`NodeMoments` holds
    them: for T the rows, the identity and the eigenvalues; for G the
    ratios, their :func:`_ratio_maps` and t_1, never dividing by a
    degenerate node.
    """
    if method == "T":
        m, k = rows.shape
        return (rows, np.broadcast_to(np.eye(k), (m, k, k)), model.values,
                np.zeros(m, dtype=bool))
    t = model.locations
    degenerate = np.abs(rows[:, 0]) < degeneracy_threshold(model.vectors)
    ok = ~degenerate
    ratios = np.full((len(rows), model.k - 1), np.nan)
    ratios[ok] = rows[ok, 1:] / rows[ok, :1]
    maps = np.full((len(rows), model.k, model.k - 1), np.nan)
    maps[ok] = _ratio_maps(rows[ok], t)
    return ratios, maps, np.full(model.k - 1, t[0]), degenerate


def _ratio_maps(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """B_i for each row v_i of V, k x (k-1): the ratio vector
    (v_2(i)/v_1(i), ..., v_k(i)/v_1(i)) moves by B_i^T (W V)_i / t_1 to
    first order, t being the eigenvalue locations. Its first row is
    -v_i[1:] / v_1(i)^2 and the rows below it are diag(t_1 / t[1:]) / v_1(i).
    """
    m, k = rows.shape
    maps = np.zeros((m, k, k - 1))
    maps[:, 0] = -rows[:, 1:] / rows[:, :1] ** 2
    diag = np.arange(k - 1)
    maps[:, diag + 1, diag] = (t[0] / t[1:]) / rows[:, :1]
    return maps


def node_moments(model, nodes, method: str) -> NodeMoments:
    """The :class:`NodeMoments` of the ``method`` test of ``model`` at
    ``nodes``, checked (:func:`check_nodes`) and kept in the order given,
    from one call of ``model.sigma2_rows``: O(m n k^2) time and O(m n)
    memory for m nodes; no bit of a node's row depends on the others.

    Each node's moment is summed in its own contrast basis A_i, not formed
    as B_i^T (V^T diag(sigma2[i, :]) V) B_i: the columns of V B_i nearly
    cancel where the two eigenvectors of a ratio move together, and the
    V basis loses that many digits.
    """
    check_k(model.k, method)
    v = model.vectors
    nodes = check_nodes(nodes, len(v))
    rows = v[nodes]
    contrast, maps, scale, degenerate = _contrast(model, rows, method)
    sigma2 = model.sigma2_rows(nodes)
    width = maps.shape[2]
    moments = np.empty((len(nodes), width, width))
    for r, (b, row) in enumerate(zip(maps, sigma2)):
        a = v @ b
        moments[r] = (a * row[:, None]).T @ a
    return NodeMoments(method=method, contrast=contrast, maps=maps,
                       rows=rows, scale=scale, degenerate=degenerate,
                       moments=moments, cross=sigma2[:, nodes])


def _condition(mat: np.ndarray) -> float:
    try:
        return float(np.linalg.cond(mat, 2))
    except np.linalg.LinAlgError:
        return np.inf


def _estimate(mats: np.ndarray, scalar: bool) -> CovarianceEstimate:
    """Stacked covariances with their condition numbers: inf for a matrix
    that is not finite, so that it fails alone."""
    cond = np.full(len(mats), np.inf)
    finite = np.isfinite(mats).all(axis=(1, 2))
    try:
        cond[finite] = np.linalg.cond(mats[finite], 2)
    except np.linalg.LinAlgError:  # one SVD that fails fails its matrix only
        cond[finite] = [_condition(mat) for mat in mats[finite]]
    if scalar:
        return CovarianceEstimate(matrix=mats[0],
                                  condition_estimate=float(cond[0]))
    return CovarianceEstimate(matrix=mats, condition_estimate=cond)


def _pair_arrays(i, j) -> tuple[np.ndarray, np.ndarray, bool]:
    """Nodes ``i`` and ``j`` as equal-length index arrays, and whether they
    were single nodes; each must be integers (:func:`_integer_nodes`). An
    empty input, such as ``[]``, keeps its shape and reads as integer nodes:
    an empty stack where it is one-dimensional."""
    scalar = np.ndim(i) == 0 and np.ndim(j) == 0
    i, j = (np.atleast_1d(_integer_nodes(a) if np.size(a)
                          else np.zeros(np.shape(a), int)) for a in (i, j))
    if i.ndim != 1 or i.shape != j.shape:
        raise ValueError("i and j must be nodes or equal-length node arrays")
    if np.any(i == j):
        raise ValueError("nodes must be distinct")
    return i, j, scalar


def _covariance(model, i, j, method: str) -> CovarianceEstimate:
    """Covariance of the contrast difference c_i - c_j of the ``method``
    test: (N_i + N_j - sigma2[i, j] (u w^T + w u^T)) / (s s^T), with the
    node moments N and scale s of :class:`NodeMoments`, u = B_i^T v_j and
    w = B_j^T v_i.

    Rows i and j of W are independent but for the one entry w_ij = w_ji
    that both hold, whose coefficient is u - w. N_i and N_j count it as
    sigma2[i, j] (u u^T + w w^T), and the correction turns that into
    sigma2[i, j] (u - w)(u - w)^T.
    """
    i, j, scalar = _pair_arrays(i, j)
    mom, p, q = model, i, j
    if not isinstance(model, NodeMoments):
        nodes, rows = np.unique(np.concatenate([i, j]), return_inverse=True)
        mom, (p, q) = node_moments(model, nodes, method), rows.reshape(2, -1)
    elif mom.method != method:
        raise ValueError(f"these are moments of the {mom.method} test")
    _check_range(np.concatenate([p, q]), len(mom.rows), "row")
    degenerate = mom.degenerate[p] | mom.degenerate[q]
    if degenerate.any():
        r = np.argmax(degenerate)
        raise degenerate_node(i[r] if mom.degenerate[p[r]] else j[r])
    u = (mom.rows[q][:, None, :] @ mom.maps[p])[:, 0]
    w = (mom.rows[p][:, None, :] @ mom.maps[q])[:, 0]
    mats = mom.moments[p] + mom.moments[q] - mom.cross[p, q][:, None, None] * (
        u[:, :, None] * w[:, None, :] + w[:, :, None] * u[:, None, :])
    return _estimate(mats / np.outer(mom.scale, mom.scale), scalar)


def estimate_sigma1(model, i, j) -> CovarianceEstimate:
    """Covariance of the row difference of nodes ``i`` and ``j``, k x k
    (:func:`_covariance` with B_i = I and s = d).

    ``model`` is a :class:`Fit`, which gives the plug-in estimate, or an
    oracle ``GroundTruth``, which gives the exact covariance: both supply
    ``k``, ``vectors``, ``values`` and ``sigma2_rows``, and ``i`` and ``j``
    are their node ids. It may also be the T test's :class:`NodeMoments` of
    either, and ``i`` and ``j`` are then its rows. They may be equal-length
    arrays; the estimate then stacks one covariance per pair (i[r], j[r]).
    """
    return _covariance(model, i, j, "T")


def estimate_sigma2(model, i, j) -> CovarianceEstimate:
    """Covariance of the ratio difference of nodes ``i`` and ``j``,
    (k-1) x (k-1) (:func:`_covariance` with B_i of :func:`_ratio_maps` and
    s = t_1).

    ``model`` is as for :func:`estimate_sigma1`, with the G test's
    :class:`NodeMoments`, and so are ``i`` and ``j``, rows of ``model``.
    Its ``locations`` are the eigenvalue locations t, which a fit estimates
    by its empirical eigenvalues. A degenerate node has no ratio and raises
    :class:`DegenerateNodeError`, which names the row of ``model``.
    """
    return _covariance(model, i, j, "G")
