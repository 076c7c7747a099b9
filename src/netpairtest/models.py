"""Degree-corrected mixed membership models and Bernoulli network sampling.

The mean (probability) matrix is H = diag(theta) * Pi * P * Pi^T * diag(theta),
where each row of Pi is a membership probability vector on the simplex and P
is a symmetric nonsingular community mixing matrix. The simulation designs
used throughout ship as two deterministic constructors:

* :func:`model1_params` -- three pure blocks plus four mixed groups with a
  common scalar degree parameter (mixed membership special case).
* :func:`model2_params` -- same membership layout with random per-node degree
  parameters 1/theta_i ~ Uniform[1/r, 2/r].

This module states each design once, for the studies (``harness``,
``oracle``, ``simulate``): which models exist and the test each is studied
with (:data:`MODEL_TESTS`), their community count (:data:`DESIGN_K`), their
node layout (:func:`pure_and_mixed_indices`, the one checked layout that
the constructors and :func:`study_pair` read), their parameters at a signal
(:func:`design_params`) and the node pair a study tests
(:func:`study_pair`). A parameter set is rebuilt by calling its constructor
again with the same arguments (and, for model 2, the same seed);
``simulate`` writes them into the header of its edge-list file.

Neither :func:`build_mean_matrix` nor :func:`sample_adjacency` holds more
than its n x n result and a few blocks of rows: H is symmetrised in place,
one pair of square tiles at a time, and the network is drawn
:data:`SAMPLE_ROWS` rows at a time, straight into its result, which a
Monte Carlo worker reuses from one replication to the next
(:func:`_sample_into`). The range of H is checked once where it enters:
:func:`build_mean_matrix` checks and clips the H it builds, and
:func:`sample_adjacency` checks the shape and range of its ``h`` before the
first uniform is drawn, so the worker's draw from a built H checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import _integer_count

__all__ = [
    "DCMMParams",
    "build_mean_matrix",
    "sample_adjacency",
    "model1_params",
    "model2_params",
    "design_params",
    "study_pair",
]

SIMPLEX_TOL = 1e-12
# side of the square tiles in which build_mean_matrix symmetrises H, and
# rows per block of uniforms in sample_adjacency: a block of a few thousand
# columns stays in cache between its draw and its use
TILE = 128
SAMPLE_ROWS = 128

# community count of both simulation designs
DESIGN_K = 3
# the simulation models and the test each is studied with: T for model 1's
# common degree level, G for model 2's per-node degrees
MODEL_TESTS = {1: "T", 2: "G"}
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
    diag(theta)^2 = theta * I).
    """

    n: int
    K: int
    theta: np.ndarray
    pi: np.ndarray
    p_matrix: np.ndarray

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
        # each range check is written so that NaN fails it
        if not np.all((theta > 0) & (theta <= 1)):
            raise ValueError("degree parameters must lie in (0, 1]")
        if pi.shape != (self.n, self.K):
            raise ValueError("membership matrix must be n x K")
        if not (np.all(pi >= 0)
                and np.all(np.abs(pi.sum(axis=1) - 1.0) <= SIMPLEX_TOL)):
            raise ValueError("membership rows must lie on the simplex")
        if p.shape != (self.K, self.K) or not np.allclose(p, p.T, atol=0):
            raise ValueError("mixing matrix must be symmetric K x K")
        if not np.all((p >= 0) & (p <= 1)):
            raise ValueError("mixing matrix entries must lie in [0, 1]")
        if self.K > 0 and abs(np.linalg.det(p)) < 1e-14:
            raise ValueError("mixing matrix must be nonsingular")


def build_mean_matrix(params: DCMMParams) -> np.ndarray:
    """Mean matrix H = diag(theta) Pi P Pi^T diag(theta), exactly symmetric.

    The product G = A P A^T (A = diag(theta) Pi) is symmetrised in place as
    (G + G^T) / 2, one pair of :data:`TILE`-square tiles at a time, and
    clipped to [0, 1]; besides H only the n x K factor is held.

    Raises
    ------
    ValueError
        If any implied connection probability falls outside [0, 1].
    """
    a = params.theta[:, None] * params.pi
    h = a @ params.p_matrix @ a.T
    n = h.shape[0]
    lo, hi = np.inf, -np.inf
    for r in range(0, n, TILE):
        for c in range(r, n, TILE):
            upper = h[r:r + TILE, c:c + TILE]
            lower = h[c:c + TILE, r:r + TILE]
            tile = (upper + lower.T) / 2.0
            lo, hi = np.minimum(lo, tile.min()), np.maximum(hi, tile.max())
            np.clip(tile, 0.0, 1.0, out=tile)
            upper[...] = tile
            lower[...] = tile.T
    if lo < -1e-15 or hi > 1.0 + 1e-12:
        raise ValueError(
            f"mean matrix entries outside [0, 1]: min {lo}, max {hi}")
    return h


def sample_adjacency(h: np.ndarray, seed, self_loops: bool = False) -> np.ndarray:
    """Sample a symmetric 0/1 adjacency matrix with independent Bernoulli
    upper-triangle entries of success probability ``h[i, j]``.

    ``seed`` may be anything accepted by :func:`numpy.random.default_rng`.
    The same seed reproduces the sample bit for bit. The draw is the
    row-major stream of one (n, n) block of uniforms, of which only the
    strict upper triangle (and the diagonal, with ``self_loops``) is used,
    so a generator passed as ``seed`` advances by n * n uniforms. An ``h``
    that is not a square matrix, or has an entry outside [0, 1], NaN
    included, raises ValueError before any draw.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("mean matrix must be square")
    # min and max propagate NaN, which fails both comparisons
    if not (h.min(initial=0) >= 0 and h.max(initial=1) <= 1):
        raise ValueError("mean matrix entries must lie in [0, 1]")
    n = h.shape[0]
    return _sample_into(np.empty((n, n)), h, seed, self_loops)


def _sample_into(out: np.ndarray, h: np.ndarray, seed,
                 self_loops: bool) -> np.ndarray:
    """:func:`sample_adjacency` written into the n x n float array ``out``,
    which every entry of the sample overwrites. ``h`` is not checked: its
    entries must lie in [0, 1], as those of :func:`build_mean_matrix` do.

    The uniforms are drawn :data:`SAMPLE_ROWS` rows at a time, in the order
    of one (n, n) draw. Each block of rows writes its entries from the
    diagonal on and their mirror below it; the rows' entries left of the
    diagonal were mirrored by earlier blocks.
    """
    n = h.shape[0]
    rng = np.random.default_rng(seed)
    block = np.empty((min(SAMPLE_ROWS, n), n))
    for r0 in range(0, n, SAMPLE_ROWS):
        r1 = min(r0 + SAMPLE_ROWS, n)
        u = rng.random(out=block[:r1 - r0])
        edges = u[:, r0:] < h[r0:r1, r0:]
        square = np.triu(edges[:, :r1 - r0], 0 if self_loops else 1)
        out[r0:r1, r0:r1] = square | square.T
        out[r0:r1, r1:] = edges[:, r1 - r0:]
        out[r1:, r0:r1] = edges[:, r1 - r0:].T
    return out


def _model_memberships(n: int, n0: int) -> np.ndarray:
    layout = pure_and_mixed_indices(n, n0)
    pi = np.zeros((n, DESIGN_K))
    for k, first in enumerate(layout["pure"]):
        pi[first:first + n0, k] = 1.0
    m = layout["group_size"]
    for first, vec in zip(layout["mixed"], MIXED_GROUPS):
        pi[first:first + m] = vec
    return pi


def _model_mixing(rho: float) -> np.ndarray:
    p = np.eye(DESIGN_K)
    for i in range(DESIGN_K):
        for j in range(DESIGN_K):
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
        n=n, K=DESIGN_K,
        theta=np.full(n, np.sqrt(theta)),
        pi=pi,
        p_matrix=_model_mixing(rho),
    )


def model2_params(n: int, n0: int, rho: float, r: float, seed) -> DCMMParams:
    """Degree-corrected design: memberships and mixing as in model 1, with
    1/theta_i drawn i.i.d. from Uniform[1/r, 2/r], so theta_i in [r/2, r]."""
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    pi = _model_memberships(n, n0)
    rng = np.random.default_rng(seed)
    inv_theta = rng.uniform(1.0 / r, 2.0 / r, size=n)
    return DCMMParams(
        n=n, K=DESIGN_K,
        theta=1.0 / inv_theta,
        pi=pi,
        p_matrix=_model_mixing(rho),
    )


def pure_and_mixed_indices(n: int, n0: int) -> dict:
    """First node index of each pure block and mixed group, and the mixed
    groups' size, in the deterministic layout of the simulation designs:
    :data:`DESIGN_K` pure blocks of ``n0`` nodes, then one equal group per
    vector of :data:`MIXED_GROUPS`. ValueError unless ``n`` and ``n0`` are
    integers (:func:`~.spectra._integer_count`) and ``n`` nodes have that
    layout."""
    if _integer_count(n, "n") < 1 or _integer_count(n0, "n0") < 0:
        raise ValueError(f"need n >= 1 and n0 >= 0, got n={n}, n0={n0}")
    first_mixed = DESIGN_K * n0
    mixed, groups = n - first_mixed, len(MIXED_GROUPS)
    if mixed < 0 or mixed % groups != 0:
        raise ValueError(f"n - {DESIGN_K}*n0 = {mixed} must be nonnegative "
                         f"and divisible by {groups}")
    m = mixed // groups
    return {
        "pure": [k * n0 for k in range(DESIGN_K)],
        "mixed": [first_mixed + g * m for g in range(groups)],
        "group_size": m,
    }


def design_params(model: int, n: int, n0: int, rho: float, signal: float,
                  seed) -> DCMMParams:
    """Parameters of simulation model 1 or 2 at degree signal ``signal``:
    model 1 at theta = signal, model 2 at r = sqrt(signal) with its degree
    parameters drawn from ``seed`` (unused by model 1). A model-2 signal
    r2 is checked against (0, 1] before its root is taken; a model outside
    :data:`MODEL_TESTS` raises ValueError."""
    if model not in MODEL_TESTS:
        raise ValueError(f"model must be "
                         f"{' or '.join(map(str, MODEL_TESTS))}, got {model}")
    if model == 1:
        return model1_params(n, n0, rho, signal)
    if not 0 < signal <= 1:
        raise ValueError("r2 must lie in (0, 1]")
    return model2_params(n, n0, rho, float(np.sqrt(signal)), seed)


def study_pair(n: int, n0: int, pair_mode: str) -> tuple[int, int]:
    """The pair a study tests: two nodes of the first mixed group ("size",
    a true null), or the first mixed node and the first node of pure
    community 2 ("power"). ValueError, starting ``size {n} ``, when the
    layout of ``n`` nodes with pure blocks of ``n0``
    (:func:`pure_and_mixed_indices`) has no such pair."""
    if pair_mode not in ("size", "power"):
        raise ValueError("pair_mode must be size or power")
    size = pair_mode == "size"
    min_n0, per_group, need = (
        (0, 2, "two nodes in the first mixed group") if size
        else (1, 1, "a node in the first mixed group and n0 >= 1"))
    try:
        layout = pure_and_mixed_indices(n, n0)
        found = n0 >= min_n0 and layout["group_size"] >= per_group
    except ValueError:
        found = False
    if not found:
        raise ValueError(f"size {n} with n0 = {n0} has no {pair_mode} pair: "
                         f"it needs {need}")
    first_mixed = layout["mixed"][0]
    return ((first_mixed, first_mixed + 1) if size
            else (first_mixed, layout["pure"][1]))
