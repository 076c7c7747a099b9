"""Ground-truth quantities available only in simulation.

Given known model parameters this module exposes the exact eigenstructure of
the mean matrix, the true Bernoulli noise variances, and the deterministic
locations of the leading empirical eigenvalues (roots of a truncated
resolvent-series equation). A :class:`GroundTruth` answers the questions a
fit answers, so the population covariance matrices of the two test
statistics come from ``estimation.estimate_sigma1`` and
``estimation.estimate_sigma2`` evaluated on it. These are consumed by
verification code, not by end users analyzing observed networks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .estimation import estimate_sigma1, estimate_sigma2, fit
from .models import (
    DCMMParams,
    build_mean_matrix,
    model1_params,
    model2_params,
    sample_adjacency,
)
from .spectra import top_eigenpairs

__all__ = [
    "GroundTruth",
    "ground_truth",
    "compute_tk",
    "covariance_trend",
    "expansion_residual",
    "RootBracketError",
]

RANK_REL_TOL = 1e-8
SERIES_LENGTH_CAP = 12


class RootBracketError(ArithmeticError):
    """The eigenvalue-location equation has no sign change on its bracket."""


@dataclass(frozen=True)
class GroundTruth:
    """Exact eigenstructure and noise variances of a simulation model.

    ``t`` holds the deterministic eigenvalue locations once computed (None
    until :func:`compute_tk` results are attached via :func:`with_tk`).
    ``k``, ``vectors``, ``values``, ``locations`` and ``sigma2_rows`` read
    it as an ``estimation.Fit`` reads a graph, so the covariance functions
    of ``estimation`` take either.
    """

    h: np.ndarray
    v: np.ndarray
    d: np.ndarray
    var_w: np.ndarray
    self_loops: bool
    t: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def k(self) -> int:
        return len(self.d)

    @property
    def vectors(self) -> np.ndarray:
        return self.v

    @property
    def values(self) -> np.ndarray:
        return self.d

    @property
    def locations(self) -> np.ndarray:
        if self.t is None:
            raise ValueError("attach eigenvalue locations first (with_tk)")
        return self.t

    def sigma2_rows(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self.var_w[i], self.var_w[j]


def ground_truth(params: DCMMParams, self_loops: bool = False) -> GroundTruth:
    """Exact eigendecomposition of the mean matrix restricted to its nonzero
    eigenvalues, plus the Bernoulli variance of every noise entry.

    Raises if the mean matrix has numerical rank below the declared community
    count.
    """
    h = build_mean_matrix(params)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(-np.abs(vals), kind="stable")
    nonzero = np.abs(vals[order]) > RANK_REL_TOL * np.abs(vals[order[0]])
    rank = int(np.sum(nonzero))
    if rank < params.K:
        raise ValueError(
            f"mean matrix has numerical rank {rank} < K={params.K}"
        )
    keep = order[:params.K]
    var_w = h * (1.0 - h)
    if not self_loops:
        # diagonal noise is deterministic (-h_ii) without self loops
        np.fill_diagonal(var_w, 0.0)
    return GroundTruth(h=h, v=vecs[:, keep], d=vals[keep], var_w=var_w,
                       self_loops=self_loops)


def with_tk(gt: GroundTruth, moment_samples: int, seed=0) -> GroundTruth:
    """Return a copy of ``gt`` with all deterministic eigenvalue locations
    attached; the noise moments come from ``moment_samples`` draws seeded
    by ``seed``."""
    moments = noise_moment_tables(gt, moment_samples, seed, series_length(gt))
    t = np.array([compute_tk(gt, k, moments) for k in range(gt.k)])
    return replace(gt, t=t)


def eigen_gap_constant(gt: GroundTruth) -> float:
    """Ratio-gap constant implied by the instance's eigenvalues: the smallest
    magnitude ratio between consecutive-in-magnitude eigenvalues (skipping
    exact +/- pairs), minus one."""
    d = gt.d
    best = np.inf
    for i in range(gt.k):
        for j in range(i + 1, gt.k):
            if abs(d[i] + d[j]) < 1e-12 * abs(d[i]):
                continue
            best = min(best, abs(d[i]) / abs(d[j]))
    if not np.isfinite(best):
        return 1.0  # single eigenvalue (or only +/- pairs); any bracket works
    if best <= 1.0 + 1e-12:
        raise ValueError("eigenvalue magnitudes too close; no ratio gap")
    return best - 1.0


def _bracket(d_k: float, c0: float) -> tuple[float, float]:
    if d_k > 0:
        return d_k / (1.0 + c0 / 2.0), (1.0 + c0 / 2.0) * d_k
    return (1.0 + c0 / 2.0) * d_k, d_k / (1.0 + c0 / 2.0)


def noise_amplitude(gt: GroundTruth) -> float:
    """Maximum standard deviation of a noise-matrix column sum."""
    return float(np.sqrt(gt.var_w.sum(axis=0).max()))


def series_length(gt: GroundTruth) -> int:
    """Truncation length of the resolvent moment series: the smallest L with
    (alpha/|z|)^L below min(n^-4, |z|^-4) over every bracket, capped at
    ``SERIES_LENGTH_CAP`` for small instances."""
    c0 = eigen_gap_constant(gt)
    alpha = noise_amplitude(gt)
    if alpha == 0.0:
        return 2
    zmin = np.inf
    zmax = 0.0
    for d_k in gt.d:
        a, b = _bracket(d_k, c0)
        zmin = min(zmin, min(abs(a), abs(b)))
        zmax = max(zmax, max(abs(a), abs(b)))
    if alpha >= zmin:
        return SERIES_LENGTH_CAP
    rhs = min(gt.n ** -4.0, zmax ** -4.0)
    l = int(np.ceil(np.log(rhs) / np.log(alpha / zmin)))
    return max(2, min(l, SERIES_LENGTH_CAP))


def noise_moment_tables(gt: GroundTruth, moment_samples: int, seed,
                        length: int) -> dict[int, np.ndarray]:
    """Monte Carlo estimates of V^T E[W^l] V for l = 2..length.

    Each sample draws a full noise matrix W = X - H and accumulates the
    projected powers by repeated matrix-vector products against V, so the
    cost per sample is O(length * n^2 * K).
    """
    if moment_samples < 1:
        raise ValueError("need at least one moment sample")
    rng = np.random.default_rng(seed)
    acc = {l: np.zeros((gt.k, gt.k)) for l in range(2, length + 1)}
    for _ in range(moment_samples):
        w = sample_adjacency(gt.h, rng, self_loops=gt.self_loops) - gt.h
        y = gt.v
        for l in range(1, length + 1):
            y = w @ y
            if l >= 2:
                acc[l] += gt.v.T @ y
    return {l: m / moment_samples for l, m in acc.items()}


def _resolvent_series(moments: dict[int, np.ndarray], k_dim: int, z: float
                      ) -> np.ndarray:
    """R(V, V, z) as a K x K matrix: -I/z - sum_l z^-(l+1) V^T E[W^l] V."""
    r = -np.eye(k_dim) / z
    for l, c in moments.items():
        r = r - c / z ** (l + 1)
    return r


def compute_tk(gt: GroundTruth, k: int,
               moments: dict[int, np.ndarray]) -> float:
    """Deterministic location of the k-th empirical eigenvalue: the root of
    the truncated resolvent-series equation on the bracket around d_k.

    ``moments`` are the tables of :func:`noise_moment_tables`. With zero
    noise the equation reduces to 1 - d_k/z = 0 and the root is d_k itself.
    Raises :class:`RootBracketError` when the equation has no sign change on
    the bracket, as when the noise is large against the eigen-gap.
    """
    if gt.d[k] == 0:
        raise ZeroDivisionError("zero population eigenvalue")
    c0 = eigen_gap_constant(gt)
    a, b = _bracket(gt.d[k], c0)
    rest = [m for m in range(gt.k) if m != k]
    d_rest = gt.d[rest]

    def objective(z: float) -> float:
        r = _resolvent_series(moments, gt.k, z)
        r_kk = r[k, k]
        if rest:
            r_kr = r[k, rest]
            r_rr = r[np.ix_(rest, rest)]
            inner = np.linalg.solve(np.diag(1.0 / d_rest) + r_rr, r_kr)
            r_kk = r_kk - r_kr @ inner
        return 1.0 + gt.d[k] * r_kk

    fa, fb = objective(a), objective(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise RootBracketError(
            f"no sign change on bracket [{a:.6g}, {b:.6g}] for eigenvalue "
            f"{k}; f(a)={fa:.3g}, f(b)={fb:.3g}"
        )
    return float(scipy.optimize.brentq(objective, a, b,
                                       xtol=1e-12 * abs(gt.d[k]),
                                       rtol=8.9e-16))


def covariance_trend(model: int, signal: float, sizes, reps: int,
                     seed=0) -> list[float]:
    """Mean over ``reps`` samples, at each n in ``sizes``, of the scaled
    2-norm error of the plug-in covariance of model 1's T test (scale
    n^2 theta) or model 2's G test (scale n min(theta)^2).

    The design has n0 = n // 5, rho = 0.2 and degree level ``signal`` (theta,
    or r^2 for model 2); the pair is the first two nodes of the first mixed
    group. Sample r at size n is seeded by SeedSequence(seed, spawn_key=(n,))
    .spawn(reps)[r]. The exact covariance is the same covariance function
    evaluated on the ground truth, taken in each sample's fitted sign basis.
    Every size is checked (ValueError) before any is sampled.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    for n in sizes:
        mixed = n - 3 * (n // 5)  # nodes in the four mixed groups
        if mixed % 4 or mixed < 8:
            raise ValueError(f"size {n} has no layout with two nodes in the "
                             "first mixed group (n0 = n // 5)")
    means = []
    for n in sizes:
        n0 = n // 5
        if model == 1:
            gt = ground_truth(model1_params(n, n0, 0.2, signal))
            scale = n**2 * signal
            sigma = estimate_sigma1
        else:
            params = model2_params(n, n0, 0.2, float(np.sqrt(signal)), seed)
            gt = with_tk(ground_truth(params), moment_samples=100, seed=seed)
            scale = n * float(params.theta.min()) ** 2
            sigma = estimate_sigma2
        i, j = 3 * n0, 3 * n0 + 1
        errs = []
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(n,))
        for rep_ss in ss.spawn(reps):
            fitted = fit(sample_adjacency(gt.h, np.random.default_rng(rep_ss)),
                         gt.k)
            flips = np.einsum("ik,ik->k", fitted.vectors, gt.v) < 0
            aligned = replace(gt, v=np.where(flips, -gt.v, gt.v))
            err = sigma(fitted, i, j).matrix - sigma(aligned, i, j).matrix
            errs.append(scale * np.linalg.norm(err, 2))
        means.append(float(np.mean(errs)))
    return means


def expansion_residual(gt: GroundTruth, x_samples, k: int, i: int) -> dict:
    """Empirical check of the first-order eigenvector expansion.

    For each sampled adjacency matrix the residual is
    t_k (vhat_k(i) - v_k(i)) - (W v_k)(i), with vhat_k sign-aligned to the
    population eigenvector. Returns the median and 95th percentile of
    |residual| * sqrt(n) across samples.
    """
    t_k = gt.locations[k]
    v_k = gt.v[:, k]
    scaled = []
    for x in x_samples:
        w = x - gt.h
        spec = top_eigenpairs(x, k + 1)
        vhat = spec.vectors[:, k]
        if vhat @ v_k < 0:
            vhat = -vhat
        r = t_k * (vhat[i] - v_k[i]) - (w @ v_k)[i]
        scaled.append(abs(r) * np.sqrt(gt.n))
    scaled = np.asarray(scaled)
    return {
        "median": float(np.median(scaled)),
        "p95": float(np.percentile(scaled, 95)),
        "samples": scaled,
    }
