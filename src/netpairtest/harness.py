"""Monte Carlo experiment driver for size/power studies, community-count
accuracy, and null-distribution sampling.

Replication r at grid point g always draws its randomness from the seed
sequence (master_seed, spawn_key=(g, r, 0)), so reports are bit-reproducible
and independent of execution order. That draw is one (n, n) block of
uniforms, of which the sampler uses only the upper triangle; model 2 draws
its degree parameters from a second stream, spawn_key=(g, r, 1). Model 1's
mean matrix is the same for every replication and is built once per grid
point, so a replication costs its draw, its fit and its test.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy.stats

from .estimation import MIN_K, fit, grow_spectrum
from .inference import TEST_FAILURES, _pair_test, reject
from .models import (
    build_mean_matrix,
    model1_params,
    model2_params,
    pure_and_mixed_indices,
    sample_adjacency,
)

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
# where a replication's time goes; the K estimate counts as part of the fit
STAGES = ("sample", "fit", "test")


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

    @property
    def method(self) -> str:
        """The test that matches the model: T for model 1, G for model 2."""
        return "T" if self.model == 1 else "G"

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
    # name of each failure's exception -> its count; sums to ``failures``
    failure_counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-grid-point results of a study. ``stage_seconds`` maps each of
    :data:`STAGES` to the seconds spent in it, summed over all replications;
    the rest of ``wall_seconds`` is bookkeeping."""

    config: ExperimentConfig
    points: tuple
    wall_seconds: float
    stage_seconds: dict


def _rep_rng(cfg: ExperimentConfig, grid_idx: int, rep: int, stream: int = 0):
    ss = np.random.SeedSequence(entropy=cfg.master_seed,
                                spawn_key=(grid_idx, rep, stream))
    return np.random.default_rng(ss)


def _samples(cfg: ExperimentConfig, grid_idx: int, signal: float):
    """The networks of replications 0, 1, ... at grid point ``grid_idx``.

    Model 1's mean matrix does not depend on the replication, so it is built
    once per grid point; model 2 draws its degree parameters per replication
    (stream 1) and builds its mean matrix each time."""
    if cfg.model == 1:
        h = build_mean_matrix(model1_params(cfg.n, cfg.n0, cfg.rho, signal))
    for rep in range(cfg.replications):
        if cfg.model == 2:
            h = build_mean_matrix(model2_params(
                cfg.n, cfg.n0, cfg.rho, np.sqrt(signal),
                _rep_rng(cfg, grid_idx, rep, stream=1)))
        yield sample_adjacency(h, _rep_rng(cfg, grid_idx, rep))


class _StageClock:
    """Seconds spent per stage, summed over every ``with clock(stage):``."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)

    @contextmanager
    def __call__(self, stage: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] += perf_counter() - start


def _replicate(cfg: ExperimentConfig, x: np.ndarray, i: int, j: int,
               clock: _StageClock):
    """One replication on the sampled network ``x``: run the matching test
    and return (statistic or None, rejected or None, k_hat or None, failure
    or None). k_hat is the K estimate, recorded in ``estimated_k`` mode
    before the refinement, so a replication whose fit or test raises one of
    ``TEST_FAILURES`` keeps its k_hat but gives no statistic; the failure is
    then the name of the exception."""
    k_hat = None
    try:
        with clock("fit"):
            if cfg.k_mode == "true_k":
                fitted = fit(x, TRUE_K)
            else:
                spec, est = grow_spectrum(x)
                k_hat = est.k_hat
                fitted = fit(x, max(k_hat, MIN_K[cfg.method]), spectrum=spec)
        with clock("test"):
            res = _pair_test(fitted, i, j, cfg.method)
            rejected = reject(res, cfg.alpha)
    except TEST_FAILURES as exc:
        return None, None, k_hat, type(exc).__name__
    return res.statistic, rejected, k_hat, None


def run_size_power(cfg: ExperimentConfig) -> ExperimentReport:
    """Rejection rate of the matching test (T for model 1, G for model 2) at
    every grid point. Replications that fail numerically are tallied and
    excluded from the denominator; a grid point with more than 1% failures
    is flagged invalid."""
    start = perf_counter()
    clock = _StageClock()
    i, j = cfg.node_pair()
    points = []
    for gi, signal in enumerate(cfg.signal_grid):
        stats, rejects = [], []
        k_counts: dict[int, int] = {}
        causes: dict[str, int] = {}
        samples = _samples(cfg, gi, signal)
        for _ in range(cfg.replications):
            with clock("sample"):
                x = next(samples)
            stat, rej, k_hat, failure = _replicate(cfg, x, i, j, clock)
            del x  # free this network before the next one is drawn
            if k_hat is not None:
                k_counts[k_hat] = k_counts.get(k_hat, 0) + 1
            if failure is not None:
                causes[failure] = causes.get(failure, 0) + 1
                continue
            stats.append(stat)
            rejects.append(rej)
        failures = sum(causes.values())
        valid = failures <= FAILURE_FRACTION_LIMIT * cfg.replications
        rate = float(np.mean(rejects)) if rejects else np.nan
        points.append(GridPointReport(
            signal=signal, rejection_rate=rate,
            replications=cfg.replications, failures=failures,
            statistics=np.asarray(stats), k_hat_counts=k_counts, valid=valid,
            failure_counts=causes))
    return ExperimentReport(config=cfg, points=tuple(points),
                            wall_seconds=perf_counter() - start,
                            stage_seconds=clock.seconds)


def run_k_accuracy(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequency table of the community-count estimate at every grid point
    (eigenvalues only; no tests are run)."""
    start = perf_counter()
    clock = _StageClock()
    points = []
    for gi, signal in enumerate(cfg.signal_grid):
        k_counts: dict[int, int] = {}
        samples = _samples(cfg, gi, signal)
        for _ in range(cfg.replications):
            with clock("sample"):
                x = next(samples)
            with clock("fit"):
                est = grow_spectrum(x)[1]
            del x  # free this network before the next one is drawn
            k_counts[est.k_hat] = k_counts.get(est.k_hat, 0) + 1
        points.append(GridPointReport(
            signal=signal, rejection_rate=np.nan,
            replications=cfg.replications, failures=0,
            statistics=np.empty(0), k_hat_counts=k_counts))
    return ExperimentReport(config=cfg, points=tuple(points),
                            wall_seconds=perf_counter() - start,
                            stage_seconds=clock.seconds)


def null_histogram(cfg: ExperimentConfig) -> dict:
    """Null-statistic samples at the first grid point plus their
    Kolmogorov-Smirnov distance to the limiting chi-square law."""
    if cfg.pair_mode != "size":
        raise ValueError("null sampling requires pair_mode='size'")
    report = run_size_power(cfg)
    samples = report.points[0].statistics
    df = TRUE_K - MIN_K[cfg.method] + 1
    ks = scipy.stats.kstest(samples, scipy.stats.chi2(df).cdf)
    return {
        "samples": samples,
        "df": df,
        "ks_distance": float(ks.statistic),
        "report": report,
    }
