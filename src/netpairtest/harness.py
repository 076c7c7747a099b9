"""Monte Carlo experiment driver for size/power studies, community-count
accuracy, and null-distribution sampling.

Both studies run one loop and differ only in what a replication does with
its network, drawn from :func:`~.models.design_params`: test the pair of
:func:`~.models.study_pair` with the model's test
(:data:`~.models.MODEL_TESTS`) at the design's K
(:data:`~.models.DESIGN_K`) or at its estimate, or only estimate K. A
study's design is checked whole when its :class:`ExperimentConfig` is
made, by building the parameters of every grid point, so a bad signal,
layout or rho fails before the first replication runs.

Replication r at grid point g always draws its randomness from the seed
sequence (master_seed, spawn_key=(g, r, 0)), so reports are bit-reproducible
and independent of execution order. That draw is one (n, n) block of
uniforms, of which the sampler uses only the upper triangle; model 2 draws
its degree parameters from a second stream, spawn_key=(g, r, 1). Model 1's
mean matrix is the same for every replication and is built once per grid
point, so a replication costs its draw, its fit and its test.

A study runs its replications on a pool of worker threads, one per usable
core and at most one per replication. Each worker limits the OpenBLAS of
numpy and that of scipy to one thread for itself, by the per-thread limits
that :mod:`~.spectra` looks up once (:data:`~.spectra._LIMITS`), so the
workers' fits run side by side instead of competing for the cores with two
BLAS thread pools, and each draws its networks into one n x n array of its
own, kept in a ``threading.local`` of the study. The results are merged in
replication order, so a report, and the first uncaught error, is the same
for any number of workers. Where either library has no per-thread limit,
the pool has one worker, which limits nothing and runs at the process's
BLAS thread count; its statistics then differ from those of limited
workers in the last bits (about 1e-14 relative).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from . import spectra
from .estimation import MIN_K, fit, grow_spectrum
from .inference import TEST_FAILURES, _check_alpha, _pair_test, reject
from .models import (
    DESIGN_K,
    MODEL_TESTS,
    _sample_into,
    build_mean_matrix,
    design_params,
    study_pair,
)

__all__ = [
    "ExperimentConfig",
    "GridPointReport",
    "ExperimentReport",
    "run_size_power",
    "run_k_accuracy",
    "null_histogram",
]

FAILURE_FRACTION_LIMIT = 0.01
# where a replication's time goes; the K estimate counts as part of the fit
STAGES = ("sample", "fit", "test")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one Monte Carlo study.

    ``signal_grid`` holds theta values (model 1) or r^2 values (model 2);
    ``pair_mode`` selects the node pair of :func:`~.models.study_pair`:
    "size" tests two nodes of the first mixed group (a true null), "power"
    tests a first-mixed-group node against a pure community-2 node.
    Construction checks the counts (:func:`~.spectra._integer_count`) and
    builds each grid point's parameters (:func:`~.models.design_params`,
    with a fixed seed, then discarded), so a bad count, model, layout, rho
    or signal raises ValueError here, and an ``alpha`` that is not a number
    (:func:`~.inference._check_alpha`) or a ``signal_grid`` that is not a
    sequence TypeError "signal_grid must be a sequence of signals, got ...".
    The grid is stored as the tuple of its signals, so a generator grid is
    not spent by the check.
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
        spectra._integer_count(self.replications, "replications", 1)
        spectra._integer_count(self.master_seed, "master_seed", 0)
        _check_alpha(self.alpha)
        try:
            signals = tuple(self.signal_grid)
        except TypeError:
            raise TypeError(f"signal_grid must be a sequence of signals, got "
                            f"{self.signal_grid!r}") from None
        object.__setattr__(self, "signal_grid", signals)
        if not signals:
            raise ValueError("signal grid must be nonempty")
        if self.k_mode not in ("true_k", "estimated_k"):
            raise ValueError("k_mode must be true_k or estimated_k")
        if self.pair_mode not in ("size", "power"):
            raise ValueError("pair_mode must be size or power")
        for signal in signals:
            design_params(self.model, self.n, self.n0, self.rho, signal, 0)

    @property
    def method(self) -> str:
        """The test of the model (:data:`~.models.MODEL_TESTS`)."""
        return MODEL_TESTS[self.model]


@dataclass(frozen=True)
class GridPointReport:
    """One grid point's results. ``failures`` sums ``failure_counts`` (by
    exception name); at most :data:`FAILURE_FRACTION_LIMIT` x
    ``replications`` of them leave the point ``valid``."""

    signal: float
    rejection_rate: float
    replications: int
    statistics: np.ndarray
    k_hat_counts: dict = field(default_factory=dict)
    failure_counts: dict = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return sum(self.failure_counts.values())

    @property
    def valid(self) -> bool:
        return self.failures <= FAILURE_FRACTION_LIMIT * self.replications


@dataclass(frozen=True)
class ExperimentReport:
    """Per-grid-point results of a study. ``workers`` is the number of
    worker threads the replications ran on, 1 where the BLAS libraries have
    no per-thread limit. ``stage_seconds`` maps each of :data:`STAGES` to
    the seconds spent in it, summed over all replications and all workers,
    so on several workers the stages add up to more than ``wall_seconds``;
    on one, the rest of ``wall_seconds`` is bookkeeping."""

    config: ExperimentConfig
    points: tuple
    wall_seconds: float
    stage_seconds: dict
    workers: int


def _rep_rng(cfg: ExperimentConfig, grid_idx: int, rep: int, stream: int = 0):
    ss = np.random.SeedSequence(entropy=cfg.master_seed,
                                spawn_key=(grid_idx, rep, stream))
    return np.random.default_rng(ss)


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
                fitted = fit(x, DESIGN_K)
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


def _estimate_k(x: np.ndarray, clock: _StageClock):
    """:func:`_replicate` for the community-count study: K only."""
    with clock("fit"):
        k_hat = grow_spectrum(x)[1].k_hat
    return None, None, k_hat, None


def _workers(replications: int) -> int:
    """Worker threads for a study: one per usable core, at most one per
    replication."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    return min(cores, replications)


def _replication(cfg: ExperimentConfig, replicate, networks: threading.local,
                 gi: int, signal: float, h, rep: int):
    """Draw replication ``rep`` of grid point ``gi`` into the calling
    worker's n x n array ``networks.x``, made at its first replication, and
    return ``replicate(x, clock)`` with the replication's stage seconds.
    ``h`` is the mean matrix of model 1; model 2 builds its own."""
    clock = _StageClock()
    x = getattr(networks, "x", None)
    if x is None:
        x = networks.x = np.empty((cfg.n, cfg.n))
    with clock("sample"):
        if h is None:
            h = build_mean_matrix(design_params(
                cfg.model, cfg.n, cfg.n0, cfg.rho, signal,
                _rep_rng(cfg, gi, rep, stream=1)))
        _sample_into(x, h, _rep_rng(cfg, gi, rep), False)
    return (*replicate(x, clock), clock.seconds)


def _study(cfg: ExperimentConfig, replicate) -> ExperimentReport:
    """Tally ``replicate(x, clock)`` over every network of every grid point,
    on the worker threads of the module docstring. Replications that fail
    numerically are excluded from the denominator; a grid point with more
    than 1% failures is flagged invalid."""
    start = perf_counter()
    limited = None not in spectra._LIMITS
    workers = _workers(cfg.replications) if limited else 1
    networks = threading.local()  # each worker's n x n array, reused
    clock = _StageClock()
    points = []
    with ThreadPoolExecutor(workers, initializer=(
            spectra._limit_blas_threads if limited else None)) as pool:
        for gi, signal in enumerate(cfg.signal_grid):
            h = None
            if cfg.model == 1:  # model 1's H is the same for every replication
                with clock("sample"):
                    h = build_mean_matrix(design_params(
                        cfg.model, cfg.n, cfg.n0, cfg.rho, signal, None))
            stats, rejects = [], []
            k_counts: dict[int, int] = {}
            causes: dict[str, int] = {}
            for stat, rej, k_hat, failure, seconds in pool.map(
                    partial(_replication, cfg, replicate, networks, gi,
                            signal, h), range(cfg.replications)):
                for stage, sec in seconds.items():
                    clock.seconds[stage] += sec
                if k_hat is not None:
                    k_counts[k_hat] = k_counts.get(k_hat, 0) + 1
                if failure is not None:
                    causes[failure] = causes.get(failure, 0) + 1
                elif stat is not None:
                    stats.append(stat)
                    rejects.append(rej)
            rate = float(np.mean(rejects)) if rejects else np.nan
            points.append(GridPointReport(
                signal=signal, rejection_rate=rate,
                replications=cfg.replications,
                statistics=np.asarray(stats), k_hat_counts=k_counts,
                failure_counts=causes))
    return ExperimentReport(config=cfg, points=tuple(points),
                            wall_seconds=perf_counter() - start,
                            stage_seconds=clock.seconds, workers=workers)


def run_size_power(cfg: ExperimentConfig) -> ExperimentReport:
    """Rejection rate of the matching test (T for model 1, G for model 2) at
    every grid point, on the pair of :func:`~.models.study_pair`, which is
    checked (ValueError) before any network is drawn."""
    i, j = study_pair(cfg.n, cfg.n0, cfg.pair_mode)
    return _study(cfg, lambda x, clock: _replicate(cfg, x, i, j, clock))


def run_k_accuracy(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequency table of the community-count estimate at every grid point
    (eigenvalues only; no tests are run, and no pair is needed)."""
    return _study(cfg, _estimate_k)


def null_histogram(cfg: ExperimentConfig) -> dict:
    """Null-statistic samples at the first grid point plus their
    Kolmogorov-Smirnov distance to the limiting chi-square law. Every
    sample is tested at the design's K (:data:`~.models.DESIGN_K`), so that
    they share that law's degrees of freedom: ``k_mode`` must be "true_k".
    ``scipy.stats``, which takes longer to import than the rest of the
    package, is imported here, on first use."""
    import scipy.stats

    if cfg.pair_mode != "size":
        raise ValueError("null sampling requires pair_mode='size'")
    if cfg.k_mode != "true_k":
        raise ValueError("null sampling requires k_mode='true_k'")
    report = run_size_power(cfg)
    samples = report.points[0].statistics
    df = DESIGN_K - MIN_K[cfg.method] + 1
    ks = scipy.stats.kstest(samples, scipy.stats.chi2(df).cdf)
    return {
        "samples": samples,
        "df": df,
        "ks_distance": float(ks.statistic),
        "report": report,
    }
