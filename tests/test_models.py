import numpy as np
import pytest

import netpairtest as npt
from netpairtest.models import (
    MIXED_GROUPS,
    DCMMParams,
    load_params,
    pure_and_mixed_indices,
    save_params,
)


def test_mixed_groups_on_simplex():
    for vec in MIXED_GROUPS:
        assert len(vec) == 3
        assert abs(sum(vec) - 1.0) < 1e-12
        assert all(c > 0 for c in vec)


def test_layout_indices():
    layout = pure_and_mixed_indices(140, 20)
    assert layout["pure"] == [0, 20, 40]
    assert layout["group_size"] == 20
    assert layout["mixed"] == [60, 80, 100, 120]


def test_model1_mean_matrix_entries():
    params = npt.model1_params(140, 20, 0.3, 0.8)
    h = npt.build_mean_matrix(params)
    # two pure nodes of the same community connect with probability theta
    assert h[0, 1] == pytest.approx(0.8)
    # pure communities 1 and 2: theta * rho / 1; communities 1 and 3: / 2
    assert h[0, 20] == pytest.approx(0.8 * 0.3)
    assert h[0, 40] == pytest.approx(0.8 * 0.3 / 2)
    assert np.array_equal(h, h.T)
    # rank 3 at relative tolerance 1e-8 of the largest singular value
    assert np.linalg.matrix_rank(h, tol=1e-8 * np.linalg.norm(h, 2)) == 3


def test_model1_validation():
    with pytest.raises(ValueError, match="theta"):
        npt.model1_params(140, 20, 0.2, 0.0)
    with pytest.raises(ValueError, match="divisible by 4"):
        npt.model1_params(141, 20, 0.2, 0.5)


def test_model2_theta_range_and_replay():
    params = npt.model2_params(140, 20, 0.2, 0.8, seed=11)
    assert np.all(params.theta >= 0.4 - 1e-12)
    assert np.all(params.theta <= 0.8 + 1e-12)
    replay = npt.model2_params(140, 20, 0.2, 0.8, seed=11)
    assert np.array_equal(params.theta, replay.theta)
    other = npt.model2_params(140, 20, 0.2, 0.8, seed=12)
    assert not np.array_equal(params.theta, other.theta)


def test_sample_adjacency_shape_and_symmetry():
    params = npt.model1_params(80, 16, 0.2, 0.9)
    h = npt.build_mean_matrix(params)
    x = npt.sample_adjacency(h, seed=0)
    assert np.array_equal(x, x.T)
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert np.all(np.diag(x) == 0)
    # same seed bit-identical, different seed different
    assert np.array_equal(x, npt.sample_adjacency(h, seed=0))
    assert not np.array_equal(x, npt.sample_adjacency(h, seed=1))


def test_sample_adjacency_self_loops():
    h = np.full((40, 40), 1.0)
    x = npt.sample_adjacency(h, seed=0, self_loops=True)
    assert np.all(np.diag(x) == 1.0)


def test_sample_adjacency_mean():
    # empirical edge frequency tracks the mean matrix
    params = npt.model1_params(400, 80, 0.2, 0.6)
    h = npt.build_mean_matrix(params)
    x = npt.sample_adjacency(h, seed=3)
    mask = ~np.eye(400, dtype=bool)
    assert abs(x[mask].mean() - h[mask].mean()) < 0.005


def test_sample_adjacency_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        npt.sample_adjacency(np.full((4, 4), 1.5), seed=0)


def test_params_validation():
    n = 6
    pi = np.tile([0.5, 0.5], (n, 1))
    p = np.eye(2)
    theta = np.full(n, 0.5)
    DCMMParams(n=n, K=2, theta=theta, pi=pi, p_matrix=p)
    with pytest.raises(ValueError, match="degree parameters"):
        DCMMParams(n=n, K=2, theta=np.full(n, 1.5), pi=pi, p_matrix=p)
    with pytest.raises(ValueError, match="simplex"):
        DCMMParams(n=n, K=2, theta=theta, pi=pi * 2, p_matrix=p)
    with pytest.raises(ValueError, match="symmetric"):
        DCMMParams(n=n, K=2, theta=theta, pi=pi,
                   p_matrix=np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ValueError, match="nonsingular"):
        DCMMParams(n=n, K=2, theta=theta, pi=pi,
                   p_matrix=np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="one entry per node"):
        DCMMParams(n=n, K=2, theta=theta[:-1], pi=pi, p_matrix=p)


def test_save_load_roundtrip_model1(tmp_path):
    params = npt.model1_params(140, 20, 0.3, 0.8)
    path = tmp_path / "params.txt"
    save_params(params, path)
    back = load_params(path)
    assert back.meta == params.meta
    assert np.array_equal(back.theta, params.theta)
    assert np.array_equal(back.pi, params.pi)


def test_save_load_roundtrip_model2(tmp_path):
    params = npt.model2_params(140, 20, 0.2, 0.8, seed=5)
    path = tmp_path / "params.txt"
    save_params(params, path)
    back = load_params(path)
    assert np.array_equal(back.theta, params.theta)


def test_load_model2_without_seed_fails(tmp_path):
    params = npt.model2_params(140, 20, 0.2, 0.8,
                               seed=np.random.default_rng(0))
    path = tmp_path / "params.txt"
    save_params(params, path)
    with pytest.raises(ValueError, match="seed"):
        load_params(path)


def test_save_requires_recipe(tmp_path):
    n = 6
    params = DCMMParams(n=n, K=2, theta=np.full(n, 0.5),
                        pi=np.tile([0.5, 0.5], (n, 1)), p_matrix=np.eye(2))
    with pytest.raises(ValueError, match="recipe"):
        save_params(params, tmp_path / "p.txt")
