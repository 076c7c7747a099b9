"""Ground-truth quantities available only in simulation.

Given known model parameters this module exposes the exact eigenstructure of
the mean matrix, the true Bernoulli noise variances, and the deterministic
locations of the leading empirical eigenvalues (roots of the resolvent-series
equation, truncated after the fourth noise moment). These draw no random
numbers: the eigenpairs come from the rank-K factor of the mean matrix and
the noise moments from closed forms. A :class:`GroundTruth` holds H and
its eigenpairs, and reads the variances h(1 - h) of the rows asked for
from H. It answers the questions a fit answers, so the population
covariance matrices of the two test statistics come from
``estimation.estimate_sigma1`` and ``estimation.estimate_sigma2``
evaluated on it. :func:`covariance_trend` takes its designs from
``models.design_params``, its pair from ``models.study_pair`` and each
model's test from ``models.MODEL_TESTS``. These are consumed by
verification code, not by end users analyzing observed networks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimation import _covariance, fit
from .models import (
    MODEL_TESTS,
    DCMMParams,
    build_mean_matrix,
    design_params,
    sample_adjacency,
    study_pair,
)
from .spectra import _integer_count, _sort_order, _tie_groups, top_eigenpairs

__all__ = [
    "GroundTruth",
    "ground_truth",
    "compute_tk",
    "covariance_trend",
    "expansion_residual",
    "RootBracketError",
]

RANK_REL_TOL = 1e-8


class RootBracketError(ArithmeticError):
    """The eigenvalue-location equation has no sign change on its bracket."""


@dataclass(frozen=True)
class GroundTruth:
    """Exact top-K eigenpairs of a simulation model's mean matrix ``h``.

    ``t`` holds the deterministic eigenvalue locations once computed (None
    until :func:`compute_tk` results are attached via :func:`with_tk`).
    ``k``, ``vectors``, ``values``, ``locations`` and ``sigma2_rows`` read
    it as an ``estimation.Fit`` reads a graph, so the covariance functions
    of ``estimation`` take either.
    """

    h: np.ndarray
    vectors: np.ndarray
    values: np.ndarray
    self_loops: bool
    t: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def locations(self) -> np.ndarray:
        if self.t is None:
            raise ValueError("attach eigenvalue locations first (with_tk)")
        return self.t

    def sigma2_rows(self, nodes) -> np.ndarray:
        """Rows ``nodes`` of the noise variances h (1 - h), m x n; without
        self loops the diagonal noise is the constant -h_ii, of variance 0."""
        nodes = np.atleast_1d(nodes)
        h = self.h[nodes]
        var = h * (1.0 - h)
        if not self.self_loops:
            var[np.arange(len(nodes)), nodes] = 0.0
        return var


def ground_truth(params: DCMMParams, self_loops: bool = False) -> GroundTruth:
    """Exact top-K eigenpairs of the mean matrix, whose noise variances
    :meth:`GroundTruth.sigma2_rows` reads from H itself.

    The eigenpairs come from the rank-K factor H = A P A^T, A = diag(theta)
    Pi: with A = QR, H = Q (R P R^T) Q^T, so the K x K eigendecomposition
    R P R^T = U diag(d) U^T gives V = QU. Raises if H has numerical rank
    below the declared community count.
    """
    h = build_mean_matrix(params)
    q, r = np.linalg.qr(params.theta[:, None] * params.pi)
    vals, vecs = np.linalg.eigh(r @ params.p_matrix @ r.T)
    order = _sort_order(vals, len(vals))
    vals, vecs = vals[order], vecs[:, order]
    rank = int(np.sum(np.abs(vals) > RANK_REL_TOL * np.abs(vals[0])))
    if rank < params.K:
        raise ValueError(f"mean matrix has numerical rank {rank} < "
                         f"K={params.K}")
    return GroundTruth(h=h, vectors=q @ vecs, values=vals,
                       self_loops=self_loops)


def with_tk(gt: GroundTruth) -> GroundTruth:
    """Return a copy of ``gt`` with all deterministic eigenvalue locations
    attached, from the exact moments of :func:`noise_moments`."""
    moments = noise_moments(gt)
    t = np.array([compute_tk(gt, k, moments) for k in range(gt.k)])
    return replace(gt, t=t)


def eigen_gap_constant(gt: GroundTruth) -> float:
    """Ratio-gap constant implied by the instance's eigenvalues: the smallest
    magnitude ratio between consecutive tied groups of magnitudes
    (:func:`~.spectra._tie_groups`), minus one. A group may hold a +/- pair,
    not two values of one sign."""
    tie = _tie_groups(gt.values)
    groups = [gt.values[tie == g] for g in range(tie.max(initial=-1) + 1)]
    if any(len(np.unique(np.sign(g))) < len(g) for g in groups):
        raise ValueError("eigenvalue magnitudes too close; no ratio gap")
    if len(groups) < 2:
        return 1.0  # single eigenvalue (or a +/- pair); any bracket works
    best = min(np.abs(upper).min() / np.abs(lower).max()
               for upper, lower in zip(groups, groups[1:]))
    if best <= 1.0 + 1e-12:
        raise ValueError("eigenvalue magnitudes too close; no ratio gap")
    return best - 1.0


def noise_moments(gt: GroundTruth) -> dict[int, np.ndarray]:
    """V^T E[W^l] V for l = 2, 3, 4, in closed form, in O(n^2 K).

    Off the diagonal the entries of W = X - H are independent with mean 0,
    variance sigma = h(1 - h) and central moments mu3 = sigma(1 - 2h),
    mu4 = sigma(1 - 3 sigma). Without self loops the diagonal of W is the
    constant delta = -diag(h) and sigma, mu3, mu4 have zero diagonals; with
    them the diagonal is random like the rest and delta = 0. E[W^l]_ab sums
    the expected products of W's entries along the walks of length l from
    a to b, and a walk's term vanishes when some random entry appears on it
    exactly once. Counting the walks left, with s = rowsum(sigma),
    D = diag(delta) and M3 = mu3:

        E[W^2] = diag(delta^2 + s)
        E[W^3] = diag(delta^3 + 2 delta s + sigma delta) + M3
        E[W^4] = diag(delta^4 + 3 delta^2 s + 2 delta (sigma delta)
                      + sigma delta^2 + s^2 - 2 rowsum(sigma^2)
                      + rowsum(mu4) + sigma s) + 2 (D M3 + M3 D)

    (products of vectors entrywise, sigma times a vector a matrix product).
    """
    v, h, sigma = gt.vectors, gt.h, gt.sigma2_rows(np.arange(gt.n))
    delta = np.zeros(gt.n) if gt.self_loops else -np.diag(h)
    s = sigma.sum(axis=1)
    sigma_sq = np.einsum("ab,ab->a", sigma, sigma)  # rowsum(sigma^2)
    mu4_sum = s - 3.0 * sigma_sq  # rowsum(mu4)
    sigma_delta = sigma @ delta
    m3_v = (sigma * (1.0 - 2.0 * h)) @ v
    diag4 = (delta**4 + 3.0 * delta**2 * s + 2.0 * delta * sigma_delta
             + sigma @ delta**2 + s**2 - 2.0 * sigma_sq + mu4_sum
             + sigma @ s)
    dm3 = (delta[:, None] * v).T @ m3_v  # V^T D M3 V; M3 D is its transpose

    def project(g: np.ndarray) -> np.ndarray:
        return (v * g[:, None]).T @ v

    return {
        2: project(delta**2 + s),
        3: project(delta**3 + 2.0 * delta * s + sigma_delta) + v.T @ m3_v,
        4: project(diag4) + 2.0 * (dm3 + dm3.T),
    }


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

    ``moments`` are those of :func:`noise_moments`. With zero noise the
    equation reduces to 1 - d_k/z = 0 and the root is d_k itself. Raises
    :class:`RootBracketError` when the equation has no sign change on the
    bracket (1 +- c0/2) d_k, as for model 2 below n of about 300, where the
    root lies past the bracket. ``scipy.optimize``, which nothing else in
    the package uses, is imported here, on first use.
    """
    import scipy.optimize

    if gt.values[k] == 0:
        raise ZeroDivisionError("zero population eigenvalue")
    c0 = eigen_gap_constant(gt)
    a, b = sorted((gt.values[k] / (1.0 + c0 / 2.0),
                   (1.0 + c0 / 2.0) * gt.values[k]))
    rest = [m for m in range(gt.k) if m != k]
    d_rest = gt.values[rest]

    def objective(z: float) -> float:
        r = _resolvent_series(moments, gt.k, z)
        r_kk = r[k, k]
        if rest:
            r_kr = r[k, rest]
            r_rr = r[np.ix_(rest, rest)]
            inner = np.linalg.solve(np.diag(1.0 / d_rest) + r_rr, r_kr)
            r_kk = r_kk - r_kr @ inner
        return 1.0 + gt.values[k] * r_kk

    fa, fb = objective(a), objective(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise RootBracketError(
            f"no sign change on bracket [{a:.6g}, {b:.6g}] for eigenvalue "
            f"{k}; f(a)={fa:.3g}, f(b)={fb:.3g}")
    return float(scipy.optimize.brentq(objective, a, b,
                                       xtol=1e-12 * abs(gt.values[k]),
                                       rtol=8.9e-16))


def covariance_trend(model: int, signal: float, sizes, reps: int,
                     seed=0) -> list[float]:
    """Mean over ``reps`` samples, at each n in ``sizes``, of the scaled
    2-norm error of the plug-in covariance of the model's test
    (:data:`~.models.MODEL_TESTS`): model 1's T test at scale n^2 theta,
    model 2's G test at scale n min(theta)^2.

    The design (:func:`~.models.design_params`) has n0 = n // 5, rho = 0.2
    and degree level ``signal`` (theta, or r^2 for model 2); the pair is the
    size pair of :func:`~.models.study_pair`, two nodes of the first mixed
    group. Sample r at size n is seeded by SeedSequence(seed, spawn_key=(n,))
    .spawn(reps)[r]. The exact covariance is the same covariance function
    evaluated on the ground truth, taken in each sample's fitted sign basis.
    ``sizes`` may be any iterable, a generator included; it is read once.
    ``reps`` (>= 1), ``seed`` (>= 0) and every size are checked
    (ValueError) before any size is sampled.
    """
    _integer_count(reps, "reps", 1)
    _integer_count(seed, "seed", 0)
    sizes = tuple(sizes)
    pairs = [study_pair(n, n // 5, "size") for n in sizes]
    means = []
    for n, (i, j) in zip(sizes, pairs):
        params = design_params(model, n, n // 5, 0.2, signal, seed)
        gt = ground_truth(params)
        method = MODEL_TESTS[model]
        if model == 1:
            scale = n**2 * signal
        else:  # model 2's G test reads the eigenvalue locations
            gt = with_tk(gt)
            scale = n * float(params.theta.min()) ** 2
        errs = []
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(n,))
        for rep_ss in ss.spawn(reps):
            fitted = fit(sample_adjacency(gt.h, np.random.default_rng(rep_ss)),
                         gt.k)
            flips = np.einsum("ik,ik->k", fitted.vectors, gt.vectors) < 0
            aligned = replace(gt, vectors=np.where(flips, -1, 1) * gt.vectors)
            err = (_covariance(fitted, i, j, method).matrix
                   - _covariance(aligned, i, j, method).matrix)
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
    v_k = gt.vectors[:, k]
    scaled = []
    for x in x_samples:
        spec = top_eigenpairs(x, k + 1)
        vhat = spec.vectors[:, k]
        if vhat @ v_k < 0:
            vhat = -vhat
        r = t_k * (vhat[i] - v_k[i]) - (x[i] - gt.h[i]) @ v_k
        scaled.append(abs(r) * np.sqrt(gt.n))
    scaled = np.asarray(scaled)
    return {"median": float(np.median(scaled)),
            "p95": float(np.percentile(scaled, 95)), "samples": scaled}
