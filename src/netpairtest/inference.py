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
silently regularized. Both tests take an adjacency matrix or a
:class:`~.estimation.Fit` of one, so that many pairs share a single fit.
One stacked core tests any number of pairs of a fit from the contrasts,
degeneracy and moments of :func:`~.estimation.node_moments`:
:func:`pvalue_matrix` runs it one output row at a time on the moments of all
its nodes, read once, and :func:`test_T`, :func:`test_G` and the Monte Carlo
harness run it on one pair. A pair that fails (degenerate node, singular
covariance) fails alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special
import scipy.stats

from .estimation import (
    MIN_K,
    DegenerateNodeError,
    Fit,
    check_k,
    degenerate_pairs,
    estimate_sigma1,
    estimate_sigma2,
    fit,
    node_moments,
)

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


def _fitted(x, k_override: int | None, method: str) -> Fit:
    """``x`` fitted for the ``method`` test; a supplied :class:`Fit` fixes K
    and must meet the same least K as ``k_override``."""
    given = isinstance(x, Fit)
    if given and k_override is not None:
        raise ValueError("a Fit already fixes k")
    k = x.k if given else k_override
    if k is not None:
        check_k(k, method)
    return x if given else fit(x, k, floor=MIN_K[method])


def _check_nodes(x, nodes) -> None:
    """``nodes`` must be distinct node indices of ``x``, a matrix or a
    :class:`Fit`."""
    if len(set(nodes)) != len(nodes):
        raise ValueError("nodes must be distinct")
    n = np.shape(x.x if isinstance(x, Fit) else x)[0]
    for node in nodes:
        if not 0 <= node < n:
            raise ValueError(f"node {node} outside the node range [0, {n})")


@dataclass(frozen=True)
class _PairTests:
    """Tests of a stack of pairs: pair r failed, with NaN statistic and
    p-value, iff ``errors`` maps r to its typed error."""

    statistic: np.ndarray
    p_value: np.ndarray
    condition: np.ndarray
    df: int
    errors: dict


def _test_pairs(model, i: np.ndarray, j: np.ndarray,
                method: str) -> _PairTests:
    """The ``method`` test of every pair (i[r], j[r]) on one fit, in stacked
    numpy calls: degeneracy mask, covariances, condition check against
    :data:`CONDITION_LIMIT`, solve and p-values.

    ``model`` is a :class:`Fit`, or its :class:`~.estimation.NodeMoments`
    at every node of the pairs, which hold each node's contrast and whether
    it is degenerate. The covariance estimators are read from the module
    globals at each call, so a replaced binding takes effect. A pair fails
    alone: a degenerate node (G), or a covariance that is not finite or
    whose condition estimate exceeds the limit. The test has as many
    degrees of freedom as its contrast has components.
    """
    mom = node_moments(model, np.concatenate([i, j]), method)
    pairs = len(i)
    stat, cond = np.full(pairs, np.nan), np.full(pairs, np.nan)
    errors = degenerate_pairs(mom, i, j)
    live = np.setdiff1d(np.arange(pairs), list(errors))
    if live.size:
        a, b = i[live], j[live]
        sigma = estimate_sigma1 if method == "T" else estimate_sigma2
        cov = sigma(mom, a, b)
        diff = mom.contrast[mom.positions(a)] - mom.contrast[mom.positions(b)]
        cond[live] = cov.condition_estimate
        ok = cond[live] <= CONDITION_LIMIT  # False for inf and NaN
        for r in live[~ok]:
            errors[int(r)] = SingularCovarianceError(
                f"covariance condition estimate {cond[r]:.3g} "
                f"exceeds {CONDITION_LIMIT:.0e}")
        if ok.any():
            mats, rhs = cov.matrix[ok], diff[ok]
            if mats.shape[-1] == 1:
                # scipy divides for one 1 x 1 system but calls LAPACK for a
                # stack of them; dividing for every stack keeps a pair's
                # statistic independent of the pairs tested with it
                sol = rhs / mats[:, 0]
            else:
                sol = scipy.linalg.solve(mats, rhs[..., None],
                                         assume_a="sym")[..., 0]
            stat[live[ok]] = (rhs * sol).sum(axis=1)
    df = mom.contrast.shape[1]
    p_value = np.full(pairs, np.nan)
    tested = ~np.isnan(stat)
    p_value[tested] = chi2_sf(np.maximum(stat[tested], 0.0), df)
    return _PairTests(statistic=stat, p_value=p_value, condition=cond, df=df,
                      errors=errors)


def _pair_test(fitted: Fit, i: int, j: int, method: str) -> TestResult:
    """The ``method`` test of nodes ``i`` and ``j`` on a shared fit: the
    one-pair case of :func:`_test_pairs`, whose typed error it raises."""
    res = _test_pairs(fitted, np.array([i]), np.array([j]), method)
    if res.errors:
        raise res.errors[0]
    return TestResult(method=method, statistic=float(res.statistic[0]),
                      df=res.df, p_value=float(res.p_value[0]),
                      k_used=fitted.k,
                      condition_estimate=float(res.condition[0]))


def test_T(x: np.ndarray | Fit, i: int, j: int,
           k_override: int | None = None) -> TestResult:
    """Row-difference test of whether nodes ``i`` and ``j`` share a
    membership profile.

    ``x`` is an adjacency matrix, or a :class:`Fit` from :func:`fit` to
    share one fit across many pairs (then ``k_override`` must be omitted).
    When ``k_override`` is omitted, K is estimated from the spectrum by
    thresholding (floored at ``MIN_K["T"]`` = 1). ``i`` and ``j`` are
    distinct 0-based node indices.
    """
    _check_nodes(x, (i, j))
    return _pair_test(_fitted(x, k_override, "T"), i, j, "T")


def test_G(x: np.ndarray | Fit, i: int, j: int,
           k_override: int | None = None) -> TestResult:
    """Ratio-difference test of whether nodes ``i`` and ``j`` share a
    membership profile under degree heterogeneity.

    ``x`` is an adjacency matrix or a :class:`Fit`, as for :func:`test_T`.
    K defaults to the thresholding estimate floored at ``MIN_K["G"]`` = 2;
    degrees of freedom are K-1.
    """
    _check_nodes(x, (i, j))
    return _pair_test(_fitted(x, k_override, "G"), i, j, "G")


def reject(result: TestResult, alpha: float) -> bool:
    """True iff the statistic exceeds the upper-alpha chi-square quantile
    (strict inequality), equivalently p-value < alpha."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    quantile = scipy.stats.chi2.ppf(1.0 - alpha, result.df)
    return bool(result.statistic > quantile)


def pvalue_matrix(x: np.ndarray | Fit, nodes, method: str = "T",
                  k_override: int | None = None) -> PValueMatrix:
    """Pairwise p-value matrix over ``nodes``; the graph is fitted once
    (spectrum, K, refined eigenvalues) and the fit is shared across pairs.
    ``x`` is an adjacency matrix, or a :class:`Fit` of one (then
    ``k_override`` must be omitted), as for :func:`test_T`. Beyond the fit,
    m nodes cost O(m n k^2) for their moments and O(k^3) per pair, in
    O(m n + m^2) memory."""
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ValueError("need at least two distinct nodes")
    _check_nodes(x, nodes)
    method = method.upper()
    if method not in MIN_K:
        raise ValueError(f"unknown method {method!r}")
    m = len(nodes)
    out = np.ones((m, m))
    try:
        fitted = _fitted(x, k_override, method)
    except TEST_FAILURES:
        # a zero eigenvalue among the top K fails every pair alike
        out[~np.eye(m, dtype=bool)] = np.nan
        return PValueMatrix(nodes=tuple(nodes), matrix=out, method=method)
    # one output row at a time, node s against the later nodes, so that the
    # temporaries of a row stay O(m k^2)
    idx = np.asarray(nodes)
    moments = node_moments(fitted, idx, method)
    for s in range(m - 1):
        row = _test_pairs(moments, np.full(m - 1 - s, idx[s]), idx[s + 1:],
                          method).p_value
        out[s, s + 1:] = out[s + 1:, s] = row
    return PValueMatrix(nodes=tuple(nodes), matrix=out, method=method)
