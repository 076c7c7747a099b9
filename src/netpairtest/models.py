"""Degree-corrected mixed membership models and Bernoulli network sampling.

The mean (probability) matrix is H = diag(theta) * Pi * P * Pi^T * diag(theta),
where each row of Pi is a membership probability vector on the simplex and P
is a symmetric nonsingular community mixing matrix. The simulation designs
used throughout ship as two deterministic constructors:

* :func:`model1_params` -- three pure blocks plus four mixed groups with a
  common scalar degree parameter (mixed membership special case).
* :func:`model2_params` -- same membership layout with random per-node degree
  parameters 1/theta_i ~ Uniform[1/r, 2/r].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DCMMParams",
    "build_mean_matrix",
    "sample_adjacency",
    "model1_params",
    "model2_params",
    "save_params",
    "load_params",
]

SIMPLEX_TOL = 1e-12

# mixed-group membership vectors, fixed across both simulation models
MIXED_GROUPS = (
    (0.2, 0.6, 0.2),
    (0.6, 0.2, 0.2),
    (0.2, 0.2, 0.6),
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
)


@dataclass(frozen=True)
class DCMMParams:
    """Parameters of a degree-corrected mixed membership model.

    ``theta`` holds the per-node degree parameters (for the equal-degree
    special case every entry equals sqrt of the scalar degree level, so that
    diag(theta)^2 = theta * I). ``meta`` records the generating recipe for
    round-tripping through parameter files.
    """

    n: int
    K: int
    theta: np.ndarray
    pi: np.ndarray
    p_matrix: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        p = np.asarray(self.p_matrix, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "p_matrix", p)

        if self.K < 1:
            raise ValueError("community count K must be >= 1")
        if theta.shape != (self.n,):
            raise ValueError("theta must have one entry per node")
        if np.any(theta <= 0) or np.any(theta > 1):
            raise ValueError("degree parameters must lie in (0, 1]")
        if pi.shape != (self.n, self.K):
            raise ValueError("membership matrix must be n x K")
        if np.any(pi < 0) or np.any(np.abs(pi.sum(axis=1) - 1.0) > SIMPLEX_TOL):
            raise ValueError("membership rows must lie on the simplex")
        if p.shape != (self.K, self.K) or not np.allclose(p, p.T, atol=0):
            raise ValueError("mixing matrix must be symmetric K x K")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("mixing matrix entries must lie in [0, 1]")
        if self.K > 0 and abs(np.linalg.det(p)) < 1e-14:
            raise ValueError("mixing matrix must be nonsingular")


def build_mean_matrix(params: DCMMParams) -> np.ndarray:
    """Mean matrix H = diag(theta) Pi P Pi^T diag(theta), exactly symmetric.

    Raises
    ------
    ValueError
        If any implied connection probability falls outside [0, 1].
    """
    a = params.theta[:, None] * params.pi
    h = a @ params.p_matrix @ a.T
    h = (h + h.T) / 2.0
    if h.min() < -1e-15 or h.max() > 1.0 + 1e-12:
        raise ValueError(
            f"mean matrix entries outside [0, 1]: min {h.min()}, max {h.max()}"
        )
    np.clip(h, 0.0, 1.0, out=h)
    return h


def sample_adjacency(h: np.ndarray, seed, self_loops: bool = False) -> np.ndarray:
    """Sample a symmetric 0/1 adjacency matrix with independent Bernoulli
    upper-triangle entries of success probability ``h[i, j]``.

    ``seed`` may be anything accepted by :func:`numpy.random.default_rng`.
    The same seed reproduces the sample bit for bit. The draw is one
    (n, n) block of uniforms, of which only the strict upper triangle (and
    the diagonal, with ``self_loops``) is used, so a generator passed as
    ``seed`` always advances by n * n uniforms.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if h.min() < 0 or h.max() > 1:
        raise ValueError("mean matrix entries must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    u = rng.random((n, n))
    upper = np.triu(u < h, 1)
    upper |= upper.T
    x = upper.astype(float)
    if self_loops:
        x[np.diag_indices(n)] = (np.diag(u) < np.diag(h)).astype(float)
    return x


def _model_memberships(n: int, n0: int) -> np.ndarray:
    if n < 1 or n0 < 0:
        raise ValueError(f"need n >= 1 and n0 >= 0, got n={n}, n0={n0}")
    if n - 3 * n0 < 0 or (n - 3 * n0) % 4 != 0:
        raise ValueError(
            f"n - 3*n0 = {n - 3 * n0} must be nonnegative and divisible by 4"
        )
    m = (n - 3 * n0) // 4
    pi = np.zeros((n, 3))
    for k in range(3):
        pi[k * n0:(k + 1) * n0, k] = 1.0
    for g, vec in enumerate(MIXED_GROUPS):
        start = 3 * n0 + g * m
        pi[start:start + m] = vec
    return pi


def _model_mixing(rho: float) -> np.ndarray:
    p = np.eye(3)
    for i in range(3):
        for j in range(3):
            if i != j:
                p[i, j] = rho / abs(i - j)
    return p


def model1_params(n: int, n0: int, rho: float, theta: float) -> DCMMParams:
    """Mixed membership design: 3 pure blocks of size ``n0`` followed by four
    equal mixed groups; scalar degree level ``theta`` stored per node as its
    square root."""
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    pi = _model_memberships(n, n0)
    return DCMMParams(
        n=n, K=3,
        theta=np.full(n, np.sqrt(theta)),
        pi=pi,
        p_matrix=_model_mixing(rho),
        meta={"model": 1, "n": n, "n0": n0, "rho": rho, "theta": theta},
    )


def model2_params(n: int, n0: int, rho: float, r: float, seed) -> DCMMParams:
    """Degree-corrected design: memberships and mixing as in model 1, with
    1/theta_i drawn i.i.d. from Uniform[1/r, 2/r], so theta_i in [r/2, r]."""
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    pi = _model_memberships(n, n0)
    rng = np.random.default_rng(seed)
    inv_theta = rng.uniform(1.0 / r, 2.0 / r, size=n)
    seed_repr = seed if isinstance(seed, int) else None
    return DCMMParams(
        n=n, K=3,
        theta=1.0 / inv_theta,
        pi=pi,
        p_matrix=_model_mixing(rho),
        meta={"model": 2, "n": n, "n0": n0, "rho": rho, "r2": r * r,
              "seed": seed_repr},
    )


def pure_and_mixed_indices(n: int, n0: int) -> dict:
    """First node index of each pure block and mixed group in the
    deterministic layout used by the simulation designs."""
    m = (n - 3 * n0) // 4
    return {
        "pure": [k * n0 for k in range(3)],
        "mixed": [3 * n0 + g * m for g in range(4)],
        "group_size": m,
    }


def save_params(params: DCMMParams, path) -> None:
    """Write the generating recipe of a model-1/model-2 parameter set as a
    flat key=value text file."""
    if not params.meta:
        raise ValueError("only parameter sets built by the model constructors "
                         "carry a serializable recipe")
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in params.meta.items():
            fh.write(f"{key}={value}\n")


def load_params(path) -> DCMMParams:
    """Rebuild a parameter set from a file written by :func:`save_params`."""
    kv = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    model = int(kv["model"])
    n, n0, rho = int(kv["n"]), int(kv["n0"]), float(kv["rho"])
    if model == 1:
        return model1_params(n, n0, rho, float(kv["theta"]))
    if model == 2:
        seed = kv.get("seed")
        if seed in (None, "", "None"):
            raise ValueError("model-2 parameter file lacks a seed; the degree "
                             "draw cannot be replayed")
        return model2_params(n, n0, rho, float(kv["r2"]) ** 0.5, int(seed))
    raise ValueError(f"unknown model tag {model}")
