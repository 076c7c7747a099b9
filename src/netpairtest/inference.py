"""Pairwise membership-profile tests and chi-square p-values.

Two Hotelling-type statistics are provided for the null hypothesis that two
nodes share the same membership profile:

* ``T``: quadratic form in the difference of eigenvector rows, null limit
  chi-square with K degrees of freedom (equal-degree models).
* ``G``: quadratic form in the difference of componentwise eigenvector
  ratios, null limit chi-square with K-1 degrees of freedom (degree-corrected
  models).

Covariance matrices are plugged in from the one-step refined noise estimate;
a numerically singular plug-in raises instead of being silently regularized.
Both tests take either an adjacency matrix or a :class:`~.estimation.Fit`
of one, so that many pairs of one graph share a single fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special
import scipy.stats

from .estimation import (
    CovarianceEstimate,
    Fit,
    estimate_sigma1,
    estimate_sigma2,
    fit,
)
from .spectra import DegenerateNodeError

__all__ = [
    "MIN_K",
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


# least K of each test: the floor of an estimated K, the least k_override;
# the test has K - MIN_K + 1 degrees of freedom
MIN_K = {"T": 1, "G": 2}
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


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function, the regularized upper incomplete gamma
    Q(df/2, x/2)."""
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    if df < 1:
        raise ValueError("degrees of freedom must be positive")
    return float(scipy.special.gammaincc(df / 2.0, x / 2.0))


def _quadratic_form(diff: np.ndarray, cov: CovarianceEstimate) -> float:
    if not np.isfinite(cov.condition_estimate) or \
            cov.condition_estimate > CONDITION_LIMIT:
        raise SingularCovarianceError(
            f"covariance condition estimate {cov.condition_estimate:.3g} "
            f"exceeds {CONDITION_LIMIT:.0e}"
        )
    sol = scipy.linalg.solve(cov.matrix, diff, assume_a="sym")
    return float(diff @ sol)


def _fitted(x, k_override: int | None, method: str) -> Fit:
    """``x`` fitted for the ``method`` test; a supplied :class:`Fit` fixes K
    and must meet the same least K as ``k_override``."""
    given = isinstance(x, Fit)
    if given and k_override is not None:
        raise ValueError("a Fit already fixes k")
    k = x.k if given else k_override
    if k is not None and k < MIN_K[method]:
        raise ValueError(f"the {method} test needs k >= {MIN_K[method]}")
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


def _pair_test(fitted: Fit, i: int, j: int, method: str) -> TestResult:
    """The ``method`` test of nodes ``i`` and ``j`` on a shared fit. The
    covariance estimators are read from the module globals at each call, so
    a replaced binding takes effect. The G contrast divides by the
    leading-eigenvector entries only after ``estimate_sigma2`` has checked
    that neither is degenerate."""
    k, v = fitted.k, fitted.vectors
    if method == "T":
        cov = estimate_sigma1(fitted, i, j)
        diff = v[i] - v[j]
    else:
        cov = estimate_sigma2(fitted, i, j)
        diff = v[i, 1:] / v[i, 0] - v[j, 1:] / v[j, 0]
    stat = _quadratic_form(diff, cov)
    df = k - MIN_K[method] + 1
    return TestResult(method=method, statistic=stat, df=df,
                      p_value=chi2_sf(max(stat, 0.0), df), k_used=k,
                      condition_estimate=cov.condition_estimate)


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


def pvalue_matrix(x: np.ndarray, nodes, method: str = "T",
                  k_override: int | None = None) -> PValueMatrix:
    """Pairwise p-value matrix over ``nodes``; the graph is fitted once
    (spectrum, K, refined eigenvalues) and the fit is shared across pairs."""
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
    for s in range(m):
        for t in range(s + 1, m):
            try:
                out[s, t] = out[t, s] = _pair_test(fitted, nodes[s], nodes[t],
                                                   method).p_value
            except TEST_FAILURES:
                out[s, t] = out[t, s] = np.nan
    return PValueMatrix(nodes=tuple(nodes), matrix=out, method=method)
