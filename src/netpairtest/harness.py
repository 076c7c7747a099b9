"""Monte Carlo experiment driver for size/power studies, community-count
accuracy, and null-distribution sampling.

Replication r at grid point g always draws its randomness from the seed
sequence (master_seed, spawn_key=(g, r)), so reports are bit-reproducible
and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy.stats

from .estimation import fit, grow_spectrum
from .inference import SingularCovarianceError, reject, test_G, test_T
from .models import (
    build_mean_matrix,
    model1_params,
    model2_params,
    pure_and_mixed_indices,
    sample_adjacency,
)
from .spectra import DegenerateNodeError

__all__ = [
    "ExperimentConfig",
    "GridPointReport",
    "ExperimentReport",
    "run_size_power",
    "run_k_accuracy",
    "null_histogram",
]

TRUE_K = 3
FAILURE_FRACTION_LIMIT = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one Monte Carlo study.

    ``signal_grid`` holds theta values (model 1) or r^2 values (model 2);
    ``pair_mode`` selects the node pair: "size" tests two nodes of the first
    mixed group (a true null), "power" tests a first-mixed-group node against
    a pure community-2 node.
    """

    model: int
    n: int
    n0: int
    rho: float
    signal_grid: tuple
    replications: int = 200
    alpha: float = 0.05
    k_mode: str = "true_k"
    master_seed: int = 0
    pair_mode: str = "size"
    self_loops: bool = False

    def __post_init__(self):
        if self.model not in (1, 2):
            raise ValueError("model must be 1 or 2")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.signal_grid:
            raise ValueError("signal grid must be nonempty")
        if self.k_mode not in ("true_k", "estimated_k"):
            raise ValueError("k_mode must be true_k or estimated_k")
        if self.pair_mode not in ("size", "power"):
            raise ValueError("pair_mode must be size or power")

    def node_pair(self) -> tuple[int, int]:
        layout = pure_and_mixed_indices(self.n, self.n0)
        first_mixed = layout["mixed"][0]
        if self.pair_mode == "size":
            return first_mixed, first_mixed + 1
        return first_mixed, layout["pure"][1]


@dataclass(frozen=True)
class GridPointReport:
    signal: float
    rejection_rate: float
    replications: int
    failures: int
    statistics: np.ndarray
    k_hat_counts: dict = field(default_factory=dict)
    valid: bool = True


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    points: tuple
    wall_seconds: float

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("model,n,signal,metric,value,replications,failures\n")
            for pt in self.points:
                base = (f"{self.config.model},{self.config.n},{pt.signal}")
                fh.write(f"{base},rejection_rate,{pt.rejection_rate:.6f},"
                         f"{pt.replications},{pt.failures}\n")
                for k_val, count in sorted(pt.k_hat_counts.items()):
                    fh.write(f"{base},k_hat_{k_val},{count},"
                             f"{pt.replications},{pt.failures}\n")


def _rep_rng(cfg: ExperimentConfig, grid_idx: int, rep: int, stream: int = 0):
    ss = np.random.SeedSequence(entropy=cfg.master_seed,
                                spawn_key=(grid_idx, rep, stream))
    return np.random.default_rng(ss)


def _sample(cfg: ExperimentConfig, grid_idx: int, signal: float,
            rep: int) -> np.ndarray:
    """The network of replication ``rep`` at grid point ``grid_idx``."""
    if cfg.model == 1:
        params = model1_params(cfg.n, cfg.n0, cfg.rho, signal)
    else:
        params = model2_params(cfg.n, cfg.n0, cfg.rho, np.sqrt(signal),
                               _rep_rng(cfg, grid_idx, rep, stream=1))
    h = build_mean_matrix(params)
    return sample_adjacency(h, _rep_rng(cfg, grid_idx, rep), cfg.self_loops)


def _replicate(cfg: ExperimentConfig, grid_idx: int, signal: float, rep: int,
               i: int, j: int):
    """One replication: sample a network, run the matching test, and return
    (statistic or None, rejected or None, k_hat or None)."""
    x = _sample(cfg, grid_idx, signal, rep)
    if cfg.k_mode == "true_k":
        fitted = fit(x, TRUE_K)
        k_hat = None
    else:
        fitted = fit(x, floor=1 if cfg.model == 1 else 2)
        k_hat = fitted.k_estimate.k_hat
    runner = test_T if cfg.model == 1 else test_G
    try:
        res = runner(fitted, i, j)
    except (SingularCovarianceError, DegenerateNodeError):
        return None, None, k_hat
    return res.statistic, reject(res, cfg.alpha), k_hat


def run_size_power(cfg: ExperimentConfig) -> ExperimentReport:
    """Rejection rate of the matching test (T for model 1, G for model 2) at
    every grid point. Replications that fail numerically are tallied and
    excluded from the denominator; a grid point with more than 1% failures
    is flagged invalid."""
    start = perf_counter()
    i, j = cfg.node_pair()
    points = []
    for gi, signal in enumerate(cfg.signal_grid):
        stats, rejects, failures = [], [], 0
        k_counts: dict[int, int] = {}
        for rep in range(cfg.replications):
            stat, rej, k_hat = _replicate(cfg, gi, signal, rep, i, j)
            if k_hat is not None:
                k_counts[k_hat] = k_counts.get(k_hat, 0) + 1
            if stat is None:
                failures += 1
                continue
            stats.append(stat)
            rejects.append(rej)
        valid = failures <= FAILURE_FRACTION_LIMIT * cfg.replications
        rate = float(np.mean(rejects)) if rejects else np.nan
        points.append(GridPointReport(
            signal=signal, rejection_rate=rate,
            replications=cfg.replications, failures=failures,
            statistics=np.asarray(stats), k_hat_counts=k_counts, valid=valid))
    return ExperimentReport(config=cfg, points=tuple(points),
                            wall_seconds=perf_counter() - start)


def run_k_accuracy(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequency table of the community-count estimate at every grid point
    (eigenvalues only; no tests are run)."""
    start = perf_counter()
    points = []
    for gi, signal in enumerate(cfg.signal_grid):
        k_counts: dict[int, int] = {}
        for rep in range(cfg.replications):
            est = grow_spectrum(_sample(cfg, gi, signal, rep))[1]
            k_counts[est.k_hat] = k_counts.get(est.k_hat, 0) + 1
        points.append(GridPointReport(
            signal=signal, rejection_rate=np.nan,
            replications=cfg.replications, failures=0,
            statistics=np.empty(0), k_hat_counts=k_counts))
    return ExperimentReport(config=cfg, points=tuple(points),
                            wall_seconds=perf_counter() - start)


def null_histogram(cfg: ExperimentConfig) -> dict:
    """Null-statistic samples at the first grid point plus their
    Kolmogorov-Smirnov distance to the limiting chi-square law."""
    if cfg.pair_mode != "size":
        raise ValueError("null sampling requires pair_mode='size'")
    report = run_size_power(cfg)
    samples = report.points[0].statistics
    df = TRUE_K if cfg.model == 1 else TRUE_K - 1
    ks = scipy.stats.kstest(samples, scipy.stats.chi2(df).cdf)
    return {
        "samples": samples,
        "df": df,
        "ks_distance": float(ks.statistic),
        "report": report,
    }
