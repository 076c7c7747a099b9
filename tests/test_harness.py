from collections import Counter

import numpy as np
import pytest

import netpairtest as npt
from netpairtest import harness
from netpairtest.harness import GridPointReport


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


def test_node_pair_layout():
    cfg = npt.ExperimentConfig(**TINY1)
    assert cfg.node_pair() == (72, 73)  # two nodes of the first mixed group
    power = npt.ExperimentConfig(**{**TINY1, "pair_mode": "power"})
    assert power.node_pair() == (72, 24)  # mixed node vs pure community 2


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


def test_null_histogram_output():
    out = npt.null_histogram(npt.ExperimentConfig(**TINY1))
    assert out["df"] == 3
    assert 0.0 <= out["ks_distance"] <= 1.0
    assert len(out["samples"]) <= 8
    out2 = npt.null_histogram(npt.ExperimentConfig(**TINY2))
    assert out2["df"] == 2


def test_gridpoint_invalid_flag():
    pt = GridPointReport(signal=0.5, rejection_rate=0.1, replications=10,
                         failures=5, statistics=np.empty(0), valid=False)
    assert not pt.valid


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


def _per_replication_statistics(cfg):
    """Statistics and failures by exception name of the first grid point,
    each replication sampled from its own freshly built mean matrix and
    fitted at the true K."""
    i, j = cfg.node_pair()
    signal = cfg.signal_grid[0]
    runner = npt.test_T if cfg.model == 1 else npt.test_G
    stats, failures = [], Counter()
    for rep in range(cfg.replications):
        if cfg.model == 1:
            params = npt.model1_params(cfg.n, cfg.n0, cfg.rho, signal)
        else:
            params = npt.model2_params(cfg.n, cfg.n0, cfg.rho, np.sqrt(signal),
                                       harness._rep_rng(cfg, 0, rep, stream=1))
        x = npt.sample_adjacency(npt.build_mean_matrix(params),
                                 harness._rep_rng(cfg, 0, rep))
        try:
            stats.append(runner(npt.fit(x, 3), i, j).statistic)
        except npt.inference.TEST_FAILURES as exc:
            failures[type(exc).__name__] += 1
    return np.asarray(stats), failures


@pytest.mark.parametrize("tiny", [TINY1, TINY2], ids=["model1", "model2"])
def test_statistics_equal_a_per_replication_loop(tiny):
    cfg = npt.ExperimentConfig(**tiny)
    point = npt.run_size_power(cfg).points[0]
    stats, failures = _per_replication_statistics(cfg)
    assert point.statistics.tobytes() == stats.tobytes()
    assert point.failures == failures.total()
    assert point.failure_counts == failures


@pytest.mark.parametrize("run", [npt.run_size_power, npt.run_k_accuracy])
def test_stage_seconds_add_up_to_the_wall_time(run):
    # a study of about 0.2 s, so a millisecond of timer jitter is far
    # inside the 10% bound
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
