import ctypes
import pickle
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import netpairtest as npt
from netpairtest import harness, spectra
from netpairtest.harness import GridPointReport
from netpairtest.models import pure_and_mixed_indices, study_pair


TINY1 = dict(model=1, n=120, n0=24, rho=0.2, signal_grid=(0.9,),
             replications=8, master_seed=3)
TINY2 = dict(model=2, n=120, n0=24, rho=0.2, signal_grid=(0.9,),
             replications=8, master_seed=3)


def test_config_validation():
    with pytest.raises(ValueError):
        npt.ExperimentConfig(**{**TINY1, "model": 3})
    with pytest.raises(ValueError):
        npt.ExperimentConfig(**{**TINY1, "replications": 0})
    with pytest.raises(ValueError):
        npt.ExperimentConfig(**{**TINY1, "alpha": 1.5})
    with pytest.raises(ValueError):
        npt.ExperimentConfig(**{**TINY1, "signal_grid": ()})
    with pytest.raises(ValueError):
        npt.ExperimentConfig(**{**TINY1, "k_mode": "oracle"})
    with pytest.raises(ValueError):
        npt.ExperimentConfig(**{**TINY1, "pair_mode": "both"})


@pytest.mark.parametrize("bad, message", [
    (dict(model=1, signal_grid=(0.9, 1.2)), r"theta must lie in \(0, 1\]"),
    (dict(model=2, signal_grid=(0.9, 0.0)), r"r2 must lie in \(0, 1\]"),
    (dict(n=601, n0=100), "n - 3\\*n0 = 301 must be nonnegative"),
    (dict(rho=1.5), r"mixing matrix entries must lie in \[0, 1\]"),
    (dict(model=3), "model must be 1 or 2, got 3"),
    # a seed that is not a nonnegative integer failed at the first
    # replication's SeedSequence, or (True) ran as seed 1
    (dict(master_seed="a"), "master_seed must be an integer"),
    (dict(master_seed=1.5), "master_seed must be an integer"),
    (dict(master_seed=True), "master_seed must be an integer, got True"),
    (dict(master_seed=-1), "master_seed must be at least 0"),
    # an array grid raised numpy's "truth value ... is ambiguous"
    (dict(signal_grid=np.array([0.9, 1.2])), r"theta must lie in \(0, 1\]"),
])
def test_config_checks_the_whole_design_before_any_replication(
        monkeypatch, bad, message):
    # the design was checked grid point by grid point, so a bad last signal
    # failed only after every earlier point had run its replications
    def no_draw(*args, **kwargs):
        raise AssertionError("a replication ran before the design was checked")

    monkeypatch.setattr(harness, "_sample_into", no_draw)
    calls = _counting_build(monkeypatch)
    with pytest.raises(ValueError, match=message):
        npt.ExperimentConfig(**{**dict(model=1, n=1500, n0=300, rho=0.2,
                                       signal_grid=(0.9,)), **bad})
    assert calls == []


def test_any_iterable_grid_is_kept_as_a_tuple():
    # a generator grid was spent by the design check, and the study then
    # ran no grid point at all
    want = npt.run_size_power(npt.ExperimentConfig(
        **{**TINY1, "signal_grid": (0.5, 0.9)}))
    for grid in ((s for s in (0.5, 0.9)), np.array([0.5, 0.9])):
        cfg = npt.ExperimentConfig(**{**TINY1, "signal_grid": grid})
        assert cfg.signal_grid == (0.5, 0.9)
        got = npt.run_size_power(cfg)
        assert len(got.points) == 2
        for a, b in zip(got.points, want.points):
            assert (a.signal, a.rejection_rate, a.replications,
                    a.k_hat_counts, a.failure_counts) == \
                (b.signal, b.rejection_rate, b.replications, b.k_hat_counts,
                 b.failure_counts)
            assert a.statistics.tobytes() == b.statistics.tobytes()


def test_node_pair_layout(monkeypatch):
    n, n0 = TINY1["n"], TINY1["n0"]
    assert study_pair(n, n0, "size") == (72, 73)  # two first-mixed-group nodes
    assert study_pair(n, n0, "power") == (72, 24)  # mixed vs pure community 2
    assert study_pair(34, 10, "power") == (30, 10)  # one node per group
    # layouts that are not layouts at all have no pair either
    for n, n0 in ((141, 20), (4, 0), (9, -1), (-20, -4)):
        with pytest.raises(ValueError, match=f"^size {n} with n0 = {n0} "):
            study_pair(n, n0, "size")
    with pytest.raises(ValueError, match="pair_mode"):
        study_pair(120, 24, "both")
    # the mixed groups of (34, 10) hold one node each and those of (30, 10)
    # none; with n0 = 0 there is no pure community 2. The size/power study
    # stops before it builds a mean matrix; the K study needs no pair.
    calls = _counting_build(monkeypatch)
    for model in (1, 2):
        for n, n0, pair_mode in ((34, 10, "size"), (30, 10, "size"),
                                 (30, 10, "power"), (120, 0, "power")):
            cfg = npt.ExperimentConfig(**{**TINY1, "model": model, "n": n,
                                          "n0": n0, "pair_mode": pair_mode,
                                          "replications": 2})
            with pytest.raises(ValueError, match=f"^size {n} "):
                npt.run_size_power(cfg)
            assert calls == []
            counts = npt.run_k_accuracy(cfg).points[0].k_hat_counts
            assert sum(counts.values()) == 2
            calls.clear()


def test_run_size_power_structure():
    cfg = npt.ExperimentConfig(**TINY1)
    report = npt.run_size_power(cfg)
    assert len(report.points) == 1
    pt = report.points[0]
    assert pt.signal == 0.9
    assert pt.replications == 8
    assert 0.0 <= pt.rejection_rate <= 1.0
    assert len(pt.statistics) + pt.failures == 8
    assert report.wall_seconds > 0


def test_run_size_power_reproducible():
    cfg = npt.ExperimentConfig(**TINY2)
    a = npt.run_size_power(cfg)
    b = npt.run_size_power(cfg)
    assert np.array_equal(a.points[0].statistics, b.points[0].statistics)


def test_power_exceeds_size_on_strong_signal():
    size = npt.run_size_power(npt.ExperimentConfig(
        model=1, n=200, n0=40, rho=0.2, signal_grid=(0.9,),
        replications=25, master_seed=0, pair_mode="size"))
    power = npt.run_size_power(npt.ExperimentConfig(
        model=1, n=200, n0=40, rho=0.2, signal_grid=(0.9,),
        replications=25, master_seed=0, pair_mode="power"))
    assert power.points[0].rejection_rate > size.points[0].rejection_rate
    assert power.points[0].rejection_rate >= 0.9


def test_estimated_k_mode_records_counts():
    cfg = npt.ExperimentConfig(**{**TINY1, "k_mode": "estimated_k"})
    report = npt.run_size_power(cfg)
    counts = report.points[0].k_hat_counts
    assert sum(counts.values()) == 8


def test_run_k_accuracy():
    cfg = npt.ExperimentConfig(**{**TINY1, "replications": 6})
    report = npt.run_k_accuracy(cfg)
    counts = report.points[0].k_hat_counts
    assert sum(counts.values()) == 6
    assert all(k >= 0 for k in counts)


def test_null_histogram_requires_size_pair():
    cfg = npt.ExperimentConfig(**{**TINY1, "pair_mode": "power"})
    with pytest.raises(ValueError):
        npt.null_histogram(cfg)
    # with K estimated, each replication is tested at its own K, so the
    # samples do not share one chi-square law's degrees of freedom
    for tiny in (TINY1, TINY2):
        cfg = npt.ExperimentConfig(**{**tiny, "k_mode": "estimated_k"})
        with pytest.raises(ValueError, match="k_mode='true_k'"):
            npt.null_histogram(cfg)


def test_null_histogram_output():
    out = npt.null_histogram(npt.ExperimentConfig(**TINY1))
    assert out["df"] == 3
    assert 0.0 <= out["ks_distance"] <= 1.0
    assert len(out["samples"]) <= 8
    out2 = npt.null_histogram(npt.ExperimentConfig(**TINY2))
    assert out2["df"] == 2


def test_gridpoint_invalid_flag():
    # failures and validity are read from the failure counts, so they
    # cannot disagree with them
    pt = GridPointReport(signal=0.5, rejection_rate=0.1, replications=10,
                         statistics=np.empty(0),
                         failure_counts={"ZeroDivisionError": 5})
    assert pt.failures == 5
    assert not pt.valid
    for failed, valid in ((0, True), (1, True), (2, False)):
        pt = GridPointReport(signal=0.5, rejection_rate=0.1,
                             replications=100, statistics=np.empty(0),
                             failure_counts={"A": failed} if failed else {})
        assert (pt.failures, pt.valid) == (failed, valid)
    with pytest.raises(TypeError):
        GridPointReport(signal=0.5, rejection_rate=0.1, replications=10,
                        failures=5, statistics=np.empty(0), valid=True)


def _counting_build(monkeypatch):
    calls = []
    build = harness.build_mean_matrix

    def counted(params):
        # model 1 gives every node one degree parameter, model 2 draws them
        calls.append(1 if np.all(params.theta == params.theta[0]) else 2)
        return build(params)

    monkeypatch.setattr(harness, "build_mean_matrix", counted)
    return calls


@pytest.mark.parametrize("run", [npt.run_size_power, npt.run_k_accuracy])
def test_mean_matrix_built_once_per_grid_point_for_model_1(monkeypatch, run):
    calls = _counting_build(monkeypatch)
    run(npt.ExperimentConfig(**{**TINY1, "signal_grid": (0.9, 0.5),
                                "replications": 3}))
    assert calls == [1, 1]
    calls.clear()
    run(npt.ExperimentConfig(**{**TINY2, "signal_grid": (0.9, 0.5),
                                "replications": 3}))
    assert calls == [2] * 6


def _per_replication_statistics(cfg, grid_idx=0):
    """Statistics, failures by exception name and K estimates of grid point
    ``grid_idx``, each replication sampled from its own freshly built mean
    matrix, fitted at the true K and, apart from that, given to
    ``grow_spectrum``; the pair comes from the layout indices."""
    layout = pure_and_mixed_indices(cfg.n, cfg.n0)
    i = layout["mixed"][0]
    j = i + 1 if cfg.pair_mode == "size" else layout["pure"][1]
    signal = cfg.signal_grid[grid_idx]
    runner = npt.test_T if cfg.model == 1 else npt.test_G
    stats, failures, k_counts = [], Counter(), Counter()
    for rep in range(cfg.replications):
        if cfg.model == 1:
            params = npt.model1_params(cfg.n, cfg.n0, cfg.rho, signal)
        else:
            params = npt.model2_params(
                cfg.n, cfg.n0, cfg.rho, np.sqrt(signal),
                harness._rep_rng(cfg, grid_idx, rep, stream=1))
        x = npt.sample_adjacency(npt.build_mean_matrix(params),
                                 harness._rep_rng(cfg, grid_idx, rep))
        k_counts[npt.grow_spectrum(x)[1].k_hat] += 1
        try:
            stats.append(runner(npt.fit(x, 3), i, j).statistic)
        except npt.inference.TEST_FAILURES as exc:
            failures[type(exc).__name__] += 1
    return np.asarray(stats), failures, k_counts


@pytest.mark.parametrize("tiny", [TINY1, TINY2], ids=["model1", "model2"])
def test_statistics_equal_a_per_replication_loop(tiny):
    cfg = npt.ExperimentConfig(**tiny)
    point = npt.run_size_power(cfg).points[0]
    stats, failures, _ = _per_replication_statistics(cfg)
    assert point.statistics.tobytes() == stats.tobytes()
    assert point.failures == failures.total()
    assert point.failure_counts == failures


@pytest.mark.parametrize("tiny", [TINY1, TINY2], ids=["model1", "model2"])
def test_k_counts_equal_a_per_replication_loop(tiny):
    # both studies count the K estimate of every replication, at every grid
    # point, as grow_spectrum gives it for each network on its own (model 2
    # estimates K = 1 or 0 at signal 0.6)
    cfg = npt.ExperimentConfig(**{**tiny, "signal_grid": (0.9, 0.6),
                                  "k_mode": "estimated_k"})
    accuracy = npt.run_k_accuracy(cfg).points
    size_power = npt.run_size_power(cfg).points
    for g in range(2):
        counts = _per_replication_statistics(cfg, g)[2]
        assert accuracy[g].k_hat_counts == counts
        assert size_power[g].k_hat_counts == counts


@pytest.mark.parametrize("run", [npt.run_size_power, npt.run_k_accuracy])
def test_stage_seconds_add_up_to_the_wall_time(run, monkeypatch):
    # a study of about 0.2 s, so a millisecond of timer jitter is far
    # inside the 10% bound; on one worker the stages run one at a time
    monkeypatch.setattr(harness, "_workers", lambda replications: 1)
    report = run(npt.ExperimentConfig(**{**TINY1, "n": 400, "n0": 80,
                                         "replications": 20}))
    stages = report.stage_seconds
    assert set(stages) == {"sample", "fit", "test"}
    assert all(s >= 0 for s in stages.values())
    assert stages["sample"] > 0 and stages["fit"] > 0
    assert abs(sum(stages.values()) - report.wall_seconds) \
        <= 0.1 * report.wall_seconds


@pytest.mark.parametrize("model", [1, 2])
@pytest.mark.parametrize("k_mode", ["true_k", "estimated_k"])
def test_zero_eigenvalue_replications_count_as_failures(model, k_mode):
    # at signal 0.01 most n=24 networks have fewer than K nonzero
    # eigenvalues, so the refinement fails; the study goes on without them
    cfg = npt.ExperimentConfig(model=model, n=24, n0=4, rho=0.2,
                               signal_grid=(0.01,), replications=20,
                               k_mode=k_mode)
    point = npt.run_size_power(cfg).points[0]
    assert point.failures > 0
    assert len(point.statistics) + point.failures == 20
    assert not point.valid
    # each failure counted once under its cause; the zero eigenvalues show
    # up as ZeroDivisionError, next to singular covariances (T) or
    # degenerate nodes (G) of the networks that could be refined
    assert sum(point.failure_counts.values()) == point.failures
    other = "SingularCovarianceError" if model == 1 else "DegenerateNodeError"
    assert set(point.failure_counts) == {"ZeroDivisionError", other}
    if k_mode == "true_k":
        assert point.failure_counts == _per_replication_statistics(cfg)[1]
    if k_mode == "estimated_k":
        # a failed replication still counts its K estimate
        assert sum(point.k_hat_counts.values()) == 20
        assert point.k_hat_counts == \
            npt.run_k_accuracy(cfg).points[0].k_hat_counts


def _limited():
    if None in spectra._LIMITS:
        pytest.skip("numpy's or scipy's BLAS has no per-thread limit")


def _without_thread_limits(monkeypatch):
    """Rebuild the table of per-thread limits as the lookup reads it from
    libraries that lack the limit: None for each."""
    limits = tuple(spectra._blas_function(module, "no_such_symbol",
                                          [ctypes.c_int], ctypes.c_int)
                   for module in spectra._BLAS_MODULES)
    assert limits == (None, None)
    monkeypatch.setattr(spectra, "_LIMITS", limits)


@pytest.mark.parametrize("run", [npt.run_size_power, npt.run_k_accuracy])
def test_stage_seconds_count_worker_seconds(run, monkeypatch):
    # two workers spend up to twice the wall time in the stages together,
    # and no less than the wall time but for the calling thread's share
    _limited()
    monkeypatch.setattr(harness, "_workers", lambda replications: 2)
    report = run(npt.ExperimentConfig(**{**TINY1, "n": 400, "n0": 80,
                                         "replications": 20}))
    assert report.workers == 2
    total = sum(report.stage_seconds.values())
    assert 0.9 * report.wall_seconds <= total \
        <= 1.1 * report.workers * report.wall_seconds


# model 1 and 2, true and estimated K, and a signal-0.01 point at n=24 whose
# networks fail with zero eigenvalues next to singular covariances (T) or
# degenerate nodes (G), so failure_counts has two keys in replication order
_STUDIES = [
    {**TINY1, "signal_grid": (0.9, 0.5), "replications": 6},
    {**TINY2, "signal_grid": (0.9, 0.5), "replications": 6},
    {**TINY1, "replications": 6, "k_mode": "estimated_k"},
    {**TINY2, "replications": 6, "k_mode": "estimated_k"},
    dict(model=1, n=24, n0=4, rho=0.2, signal_grid=(0.01,), replications=20),
    dict(model=2, n=24, n0=4, rho=0.2, signal_grid=(0.01,), replications=20),
]


def _points(run, cfg, monkeypatch, workers):
    monkeypatch.setattr(harness, "_workers", lambda replications: workers)
    report = run(cfg)
    assert report.workers == workers
    return pickle.dumps((report.config, report.points))


@pytest.mark.parametrize("study", _STUDIES,
                         ids=["m1", "m2", "m1-khat", "m2-khat", "m1-zero",
                              "m2-zero"])
@pytest.mark.parametrize("run", [npt.run_size_power, npt.run_k_accuracy])
def test_reports_do_not_depend_on_the_worker_count(run, study, monkeypatch):
    # four workers on two cores, switching threads every microsecond: a
    # network array shared by two replications, or a result merged out of
    # order, would change the report
    _limited()
    cfg = npt.ExperimentConfig(**study)
    one = _points(run, cfg, monkeypatch, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _points(run, cfg, monkeypatch, 2) == one
        assert _points(run, cfg, monkeypatch, 4) == one
    finally:
        sys.setswitchinterval(interval)
    if study["n"] == 24 and run is npt.run_size_power:
        counts = pickle.loads(one)[1][0].failure_counts
        assert len(counts) == 2
        assert list(counts.items()) == \
            list(_per_replication_statistics(cfg)[1].items())


def test_the_first_uncaught_error_in_replication_order(monkeypatch):
    # replications 2 and 4 raise; whichever worker gets there first, the
    # study raises replication 2's error, as the loop in the calling thread
    cfg = npt.ExperimentConfig(**{**TINY1, "replications": 6})
    edges = [npt.sample_adjacency(harness.build_mean_matrix(
        npt.model1_params(120, 24, 0.2, 0.9)), harness._rep_rng(cfg, 0, r))
        .sum() for r in range(6)]
    grow = harness.grow_spectrum

    def failing(x):
        if x.sum() in (edges[2], edges[4]):
            raise RuntimeError(f"network with {x.sum()} edges")
        return grow(x)

    monkeypatch.setattr(harness, "grow_spectrum", failing)
    expected = f"^network with {edges[2]} edges$"
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_workers", lambda reps: workers)
        with pytest.raises(RuntimeError, match=expected):
            npt.run_k_accuracy(cfg)
    _without_thread_limits(monkeypatch)
    with pytest.raises(RuntimeError, match=expected):
        npt.run_k_accuracy(cfg)


@pytest.mark.parametrize("tiny", [TINY1, TINY2], ids=["model1", "model2"])
def test_each_worker_draws_into_one_array_of_its_own(tiny, monkeypatch):
    # six replications on two workers: every draw of a worker thread lands
    # in that worker's one array, and no two workers share an array
    _limited()
    monkeypatch.setattr(harness, "_workers", lambda replications: 2)
    arrays = {}
    sample = harness._sample_into

    def recorded(x, *args):
        arrays.setdefault(threading.get_ident(), set()).add(id(x))
        return sample(x, *args)

    monkeypatch.setattr(harness, "_sample_into", recorded)
    report = npt.run_size_power(npt.ExperimentConfig(
        **{**tiny, "replications": 6}))
    assert report.workers == 2
    assert threading.get_ident() not in arrays
    assert 1 <= len(arrays) <= 2
    assert all(len(ids) == 1 for ids in arrays.values())
    assert len(set.union(*arrays.values())) == len(arrays)


@pytest.mark.parametrize("tiny", [TINY1, TINY2], ids=["model1", "model2"])
def test_without_a_per_thread_limit_the_study_runs_on_one_worker(
        tiny, monkeypatch):
    _without_thread_limits(monkeypatch)
    threads = set()
    sample = harness._sample_into

    def recorded(*args):
        threads.add(threading.get_ident())
        return sample(*args)

    monkeypatch.setattr(harness, "_sample_into", recorded)
    cfg = npt.ExperimentConfig(**tiny)
    reports = []
    for run in (npt.run_size_power, npt.run_k_accuracy):
        threads.clear()
        reports.append(run(cfg))
        assert reports[-1].workers == 1
        # every draw on one worker thread, not the calling one
        assert len(threads) == 1 and threading.get_ident() not in threads
    size, k_study = reports
    stats, failures, k_counts = _per_replication_statistics(cfg)
    assert size.points[0].statistics.tobytes() == stats.tobytes()
    assert size.points[0].failure_counts == failures
    assert k_study.points[0].k_hat_counts == k_counts


def test_the_package_imports_without_scipy_stats():
    # scipy.stats took most of the package's import time, and
    # scipy.optimize 0.13 s of it; only null_histogram uses the one and
    # oracle.compute_tk the other, and each imports it when called
    src = str(Path(npt.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import netpairtest; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
