"""Pairwise membership-profile tests and chi-square p-values.

Two Hotelling-type statistics are provided for the null hypothesis that two
nodes share the same membership profile:

* ``T``: quadratic form in the difference of eigenvector rows, null limit
  chi-square with K degrees of freedom (equal-degree models).
* ``G``: quadratic form in the difference of componentwise eigenvector
  ratios, null limit chi-square with K-1 degrees of freedom (degree-corrected
  models).

Both are Hotelling forms in a per-node contrast difference, whose width is
the degrees of freedom; covariances are plugged in from the one-step refined
noise estimate, and a numerically singular plug-in raises instead of being
silently regularized. Every form is solved by numpy's stacked solve, which
factors each covariance on its own, and decided by its chi-square tail:
:func:`reject` reads the p-value. Both tests take an adjacency matrix or a
:class:`~.estimation.Fit` of one, so that many pairs share a single fit.
Every pair test enters through one function, which checks the nodes before
any fit, fixes K, fits and reads the nodes' :class:`~.estimation.NodeMoments`
and rows once. One stacked core tests pairs of those rows:
:func:`pvalue_matrix` runs it on blocks of n pairs, :func:`test_T`,
:func:`test_G` and the Monte Carlo harness on one pair. A pair that fails
(degenerate node, singular covariance) fails alone; only the one-pair test
raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from .estimation import (
    MIN_K,
    DegenerateNodeError,
    Fit,
    NodeMoments,
    check_k,
    check_nodes,
    degenerate_node,
    estimate_sigma1,
    estimate_sigma2,
    fit,
    node_moments,
)
from .graph_io import as_matrix

__all__ = [
    "TEST_FAILURES",
    "TestResult",
    "PValueMatrix",
    "SingularCovarianceError",
    "test_T",
    "test_G",
    "reject",
    "pvalue_matrix",
    "chi2_sf",
]

CONDITION_LIMIT = 1e12


class SingularCovarianceError(np.linalg.LinAlgError):
    """Plug-in covariance too ill-conditioned to invert meaningfully."""


# errors of a fit or a test that fail it instead of stopping a study
TEST_FAILURES = (SingularCovarianceError, DegenerateNodeError,
                 ZeroDivisionError)


@dataclass(frozen=True)
class TestResult:
    method: str
    statistic: float
    df: int
    p_value: float
    k_used: int
    condition_estimate: float


@dataclass(frozen=True)
class PValueMatrix:
    """Symmetric matrix of pairwise p-values with unit diagonal.

    Failed pairs (degenerate node, singular covariance, zero eigenvalue
    among the top K) are NaN.
    """

    nodes: tuple
    matrix: np.ndarray
    method: str


def chi2_sf(x, df: int):
    """Chi-square survival function, the regularized upper incomplete gamma
    Q(df/2, x/2), of a statistic (a float) or an array of them."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("statistic must be nonnegative")
    if df < 1:
        raise ValueError("degrees of freedom must be positive")
    q = scipy.special.gammaincc(df / 2.0, x / 2.0)
    return float(q) if q.ndim == 0 else q


def _fitted_moments(x, nodes, method: str, k_override: int | None):
    """(fit, NodeMoments of ``nodes``, their rows) of ``x`` for ``method``,
    nodes checked before any fit; a supplied :class:`Fit` fixes K and must
    meet the same least K as ``k_override``; any other ``x`` is converted
    (:func:`~.graph_io.as_matrix`), which checks that it is square."""
    given = isinstance(x, Fit)
    if not given:
        x = as_matrix(x)
    check_nodes(nodes, (x.x if given else x).shape[0])
    if given and k_override is not None:
        raise ValueError("a Fit already fixes k")
    k = x.k if given else k_override
    check_k(k, method)
    fitted = x if given else fit(x, k, floor=MIN_K[method])
    moments = node_moments(fitted, nodes, method)
    return fitted, moments, moments.positions(nodes)


@dataclass(frozen=True)
class _PairTests:
    """Tests of a stack of pairs: a pair failed, with NaN statistic and
    p-value, iff a node is degenerate or its ``condition`` fails the limit."""

    statistic: np.ndarray
    p_value: np.ndarray
    condition: np.ndarray
    df: int


def _test_pairs(mom: NodeMoments, p: np.ndarray, q: np.ndarray) -> _PairTests:
    """The ``mom.method`` test of every pair of rows (p[r], q[r]) of
    ``mom``, in stacked numpy calls: degeneracy mask, covariances, condition
    check against :data:`CONDITION_LIMIT`, solve and p-values.

    The covariance estimators, given the pairs' node ids, are read from the
    module globals at each call, so a replaced binding takes effect. A pair
    fails alone and builds no error: a degenerate node (G), or a covariance
    that is not finite or whose condition estimate exceeds the limit. The
    test has as many degrees of freedom as its contrast has components.
    ``np.linalg.solve`` runs LAPACK on each matrix of a stack, at every
    width, so a pair's statistic does not depend on the pairs tested with
    it. Every step takes an empty stack, so pairs that all fail take the
    same path.
    """
    pairs = len(p)
    stat, cond = np.full(pairs, np.nan), np.full(pairs, np.nan)
    degenerate = mom.degenerate[p] | mom.degenerate[q]
    live = np.flatnonzero(~degenerate)
    a, b = p[live], q[live]
    sigma = estimate_sigma1 if mom.method == "T" else estimate_sigma2
    cov = sigma(mom, mom.nodes[a], mom.nodes[b])
    cond[live] = cov.condition_estimate
    ok = cond[live] <= CONDITION_LIMIT  # False for inf and NaN
    rhs = (mom.contrast[a] - mom.contrast[b])[ok]
    sol = np.linalg.solve(cov.matrix[ok], rhs[..., None])[..., 0]
    stat[live[ok]] = (rhs * sol).sum(axis=1)
    df = mom.contrast.shape[1]
    p_value = np.full(pairs, np.nan)
    tested = ~np.isnan(stat)
    p_value[tested] = chi2_sf(np.maximum(stat[tested], 0.0), df)
    return _PairTests(statistic=stat, p_value=p_value, condition=cond, df=df)


def _pair_test(x: np.ndarray | Fit, i: int, j: int, method: str,
               k_override: int | None = None) -> TestResult:
    """The ``method`` test of nodes ``i`` and ``j`` of ``x``, a matrix or a
    Fit: :func:`_test_pairs` of one pair, or its error."""
    fitted, mom, rows = _fitted_moments(x, (i, j), method, k_override)
    res = _test_pairs(mom, rows[:1], rows[1:])
    cond = res.condition[0]
    degenerate = mom.degenerate[rows]
    if degenerate.any():
        raise degenerate_node(i if degenerate[0] else j)
    if not cond <= CONDITION_LIMIT:
        raise SingularCovarianceError(
            f"covariance condition estimate {cond:.3g} "
            f"exceeds {CONDITION_LIMIT:.0e}")
    return TestResult(method=method, statistic=float(res.statistic[0]),
                      df=res.df, p_value=float(res.p_value[0]),
                      k_used=fitted.k, condition_estimate=float(cond))


def test_T(x: np.ndarray | Fit, i: int, j: int,
           k_override: int | None = None) -> TestResult:
    """Row-difference test of whether nodes ``i`` and ``j`` share a
    membership profile.

    ``x`` is an adjacency matrix, or a :class:`Fit` from :func:`fit` to
    share one fit across many pairs (then ``k_override`` must be omitted).
    When ``k_override`` is omitted, K is estimated from the spectrum by
    thresholding (floored at ``MIN_K["T"]`` = 1). ``i`` and ``j`` are
    distinct 0-based node indices.

    Raises ValueError, before any fit: "adjacency matrix must be square"
    for an ``x`` that is not a square matrix; "node ... outside the node
    range [0, n)", "nodes must be distinct" or "nodes must be integers,
    ..." for the nodes; "a Fit already fixes k" for a ``k_override`` with
    a :class:`Fit`; "k must be an integer, got ..." or "the T test needs
    k >= 1" for a ``k_override`` that is not a count of at least
    ``MIN_K["T"]``, and "k must lie in [0, n], got ..." for one above n.
    A non-finite entry of ``x`` raises "adjacency matrix entries must be
    finite".
    """
    return _pair_test(x, i, j, "T", k_override)


def test_G(x: np.ndarray | Fit, i: int, j: int,
           k_override: int | None = None) -> TestResult:
    """Ratio-difference test of whether nodes ``i`` and ``j`` share a
    membership profile under degree heterogeneity.

    ``x`` is an adjacency matrix or a :class:`Fit`, as for :func:`test_T`,
    and fails as it does, with "the G test needs k >= 2". K defaults to
    the thresholding estimate floored at ``MIN_K["G"]`` = 2; degrees of
    freedom are K-1.
    """
    return _pair_test(x, i, j, "G", k_override)


def _check_alpha(alpha) -> None:
    """ValueError unless 0 < alpha < 1; TypeError for a non-number."""
    try:
        inside = 0 < alpha < 1
    except TypeError:
        raise TypeError(f"alpha must be a number, got {alpha!r}") from None
    if not inside:
        raise ValueError("alpha must lie in (0, 1)")


def reject(result: TestResult, alpha: float) -> bool:
    """True iff the p-value lies below ``alpha``: the statistic exceeds the
    upper-alpha chi-square quantile. ``alpha`` is checked first
    (:func:`_check_alpha`)."""
    _check_alpha(alpha)
    return bool(result.p_value < alpha)


def pvalue_matrix(x: np.ndarray | Fit, nodes, method: str = "T",
                  k_override: int | None = None) -> PValueMatrix:
    """Pairwise p-value matrix over ``nodes``; the graph is fitted once
    (spectrum, K, refined eigenvalues) and the fit is shared across pairs.
    ``x`` is an adjacency matrix, or a :class:`Fit` of one (then
    ``k_override`` must be omitted), as for :func:`test_T`. Beyond the fit,
    m nodes cost O(m n k^2) for their moments and O(k^3) per pair, in
    O(m n + m^2) memory.

    Raises ValueError "need at least two distinct nodes" for fewer than
    two, "unknown method ..." for a ``method`` other than "T" or "G" in
    either case, and the errors of the pair tests' checks (``x``, the
    nodes, ``k_override``) as :func:`test_T` does; TypeError "nodes must be
    a sequence of node indices, got ..." for ``nodes`` that are not
    iterable."""
    try:
        nodes = list(nodes)
    except TypeError:
        raise TypeError(f"nodes must be a sequence of node indices, got "
                        f"{nodes!r}") from None
    if len(nodes) < 2:
        raise ValueError("need at least two distinct nodes")
    if isinstance(method, str):
        method = method.upper()
    check_k(None, method)
    m = len(nodes)
    out = np.ones((m, m))
    try:
        fitted, moments, rows = _fitted_moments(x, nodes, method, k_override)
    except TEST_FAILURES:
        # a zero eigenvalue among the top K fails every pair alike
        out[~np.eye(m, dtype=bool)] = np.nan
        return PValueMatrix(nodes=tuple(nodes), matrix=out, method=method)
    # the upper-triangle pairs in stacked blocks of n, so that a block's
    # temporaries stay O(n k^2); each pair is solved on its own matrix, so
    # the bits do not depend on the blocks
    first, second = np.triu_indices(m, 1)
    n = fitted.x.shape[0]
    for start in range(0, len(first), n):
        s, t = first[start:start + n], second[start:start + n]
        out[s, t] = out[t, s] = _test_pairs(moments, rows[s], rows[t]).p_value
    return PValueMatrix(nodes=tuple(nodes), matrix=out, method=method)
