import numpy as np
import pytest

import netpairtest as npt
from netpairtest import oracle
from netpairtest.estimation import (
    DegenerateNodeError,
    sigma1_matrix,
    sigma2_matrix,
)
from netpairtest.models import DCMMParams
from netpairtest.oracle import (
    covariance_trend,
    eigen_gap_constant,
    noise_amplitude,
    noise_moment_tables,
    series_length,
    with_tk,
)


@pytest.fixture(scope="module")
def gt_model1():
    params = npt.model1_params(200, 40, 0.2, 0.9)
    return npt.ground_truth(params)


def test_ground_truth_eigenstructure(gt_model1):
    gt = gt_model1
    assert gt.k == 3
    assert np.allclose(gt.v.T @ gt.v, np.eye(3), atol=1e-10)
    recon = (gt.v * gt.d[None, :]) @ gt.v.T
    assert np.allclose(recon, gt.h, atol=1e-8)  # H has exact rank 3
    # Bernoulli variances off the diagonal, zero on it (no self loops)
    off = ~np.eye(gt.n, dtype=bool)
    assert np.allclose(gt.var_w[off], (gt.h * (1 - gt.h))[off])
    assert np.all(np.diag(gt.var_w) == 0)


def test_ground_truth_self_loops():
    params = npt.model1_params(80, 16, 0.2, 0.9)
    gt = npt.ground_truth(params, self_loops=True)
    assert np.allclose(np.diag(gt.var_w), np.diag(gt.h * (1 - gt.h)))


def test_ground_truth_rank_deficient():
    # declared K=3 but only two communities carry mass: rank 2 mean matrix
    n = 12
    pi = np.zeros((n, 3))
    pi[: n // 2, 0] = 1.0
    pi[n // 2:, 1] = 1.0
    params = DCMMParams(n=n, K=3, theta=np.full(n, 0.5), pi=pi,
                        p_matrix=np.eye(3))
    with pytest.raises(ValueError, match="rank"):
        npt.ground_truth(params)


def test_zero_noise_tk_exact():
    # 0/1 mean matrix (two cliques with self loops): no noise, so the
    # deterministic eigenvalue locations coincide with d_k exactly
    n = 7
    pi = np.zeros((n, 2))
    pi[:4, 0] = 1.0
    pi[4:, 1] = 1.0
    params = DCMMParams(n=n, K=2, theta=np.ones(n), pi=pi, p_matrix=np.eye(2))
    gt = npt.ground_truth(params, self_loops=True)
    assert noise_amplitude(gt) == 0.0
    gt = with_tk(gt, moment_samples=3, seed=0)
    assert np.all(np.abs(gt.t / gt.d - 1.0) < 1e-10)


def test_tk_near_dk_moderate_size():
    params = npt.model1_params(400, 80, 0.2, 0.9)
    gt = npt.ground_truth(params)
    gt = with_tk(gt, moment_samples=40, seed=1)
    c0 = eigen_gap_constant(gt)
    for k in range(3):
        lo, hi = sorted((gt.d[k] / (1 + c0 / 2), gt.d[k] * (1 + c0 / 2)))
        assert lo <= gt.t[k] <= hi
    # relative drift shrinks with n; generous bound at n=400
    assert np.all(np.abs(gt.t / gt.d - 1.0) < 0.1)


def test_tk_matches_mean_empirical_eigenvalue():
    # t_k should predict the average location of the k-th empirical
    # eigenvalue much better than d_k does for the smaller eigenvalues.
    # The check runs in the self-loop regime, where the noise matrix has
    # exactly zero mean (without self loops the diagonal of W carries the
    # deterministic offset -h_ii, an order-1/n effect the truncated series
    # deliberately ignores).
    params = npt.model1_params(300, 60, 0.2, 0.9)
    gt = npt.ground_truth(params, self_loops=True)
    gt = with_tk(gt, moment_samples=60, seed=2)
    rng = np.random.default_rng(3)
    vals = []
    for _ in range(40):
        x = npt.sample_adjacency(gt.h, rng, self_loops=True)
        vals.append(npt.top_eigenpairs(x, 3).values)
    mean_emp = np.mean(vals, axis=0)
    assert np.all(np.abs(mean_emp / gt.t - 1.0) < 0.01)
    # the corrected locations beat the raw eigenvalues for the smaller pairs
    assert np.all(np.abs(mean_emp / gt.t - 1.0)[1:]
                  < np.abs(mean_emp / gt.d - 1.0)[1:])


def test_series_length_bounds(gt_model1):
    l = series_length(gt_model1)
    assert 2 <= l <= 12


def test_noise_moment_tables_shapes(gt_model1):
    tables = noise_moment_tables(gt_model1, moment_samples=3, seed=0, length=4)
    assert sorted(tables) == [2, 3, 4]
    for m in tables.values():
        assert m.shape == (3, 3)
    with pytest.raises(ValueError):
        noise_moment_tables(gt_model1, moment_samples=0, seed=0, length=3)


def test_eigen_gap_constant(gt_model1):
    c0 = eigen_gap_constant(gt_model1)
    d = np.abs(gt_model1.d)
    assert c0 == pytest.approx(min(d[0] / d[1], d[1] / d[2]) - 1.0)


def test_true_sigma_validation(gt_model1):
    with pytest.raises(ValueError):
        npt.estimate_sigma1(gt_model1, 2, 2)
    with pytest.raises(ValueError, match="with_tk"):
        npt.estimate_sigma2(gt_model1, 0, 1)
    # the plug-in's degeneracy rule, on the exact eigenvectors
    v = gt_model1.v.copy()
    v[5, 0] = 0.0
    with pytest.raises(DegenerateNodeError):
        npt.estimate_sigma2(oracle.replace(gt_model1, v=v, t=gt_model1.d),
                            5, 6)


def test_exact_covariance_is_the_formula_on_the_truth():
    params = npt.model2_params(200, 40, 0.2, 0.9, seed=1)
    gt = npt.ground_truth(params)
    gt = oracle.replace(gt, t=gt.d * 1.01)
    w = gt.var_w
    for i, j in ((120, 121), (0, 150), (7, 3)):
        assert np.array_equal(npt.estimate_sigma1(gt, i, j).matrix,
                              sigma1_matrix(gt.v, gt.d, w[i], w[j], i, j))
        assert np.array_equal(npt.estimate_sigma2(gt, i, j).matrix,
                              sigma2_matrix(gt.v, gt.d, gt.t, w[i], w[j],
                                            i, j))


def test_true_sigma1_matches_monte_carlo():
    # covariance of the linearized row difference (e_i - e_j)^T W v_k / t_k
    params = npt.model1_params(200, 40, 0.2, 0.9)
    gt = npt.ground_truth(params)
    gt = with_tk(gt, moment_samples=40, seed=4)
    i, j = 120, 121
    rng = np.random.default_rng(5)
    f = []
    for _ in range(1500):
        w = npt.sample_adjacency(gt.h, rng) - gt.h
        f.append((w[i] - w[j]) @ gt.v / gt.d)
    emp = np.cov(np.asarray(f).T)
    true = npt.estimate_sigma1(gt, i, j).matrix
    assert np.allclose(np.diag(emp), np.diag(true), rtol=0.12)


def test_true_sigma2_matches_monte_carlo():
    # covariance of the linearized ratio difference
    params = npt.model2_params(400, 80, 0.2, 0.9, seed=6)
    gt = npt.ground_truth(params)
    gt = with_tk(gt, moment_samples=40, seed=7)
    i, j = 240, 241
    v, t = gt.v, gt.t
    rng = np.random.default_rng(8)
    f = []
    for _ in range(1500):
        w = npt.sample_adjacency(gt.h, rng) - gt.h
        fi = (w[i] @ v[:, 1:]) / (t[1:] * v[i, 0]) \
            - v[i, 1:] * (w[i] @ v[:, 0]) / (t[0] * v[i, 0] ** 2)
        fj = (w[j] @ v[:, 1:]) / (t[1:] * v[j, 0]) \
            - v[j, 1:] * (w[j] @ v[:, 0]) / (t[0] * v[j, 0] ** 2)
        f.append(fi - fj)
    emp = np.cov(np.asarray(f).T)
    true = npt.estimate_sigma2(gt, i, j).matrix
    assert np.allclose(np.diag(emp), np.diag(true), rtol=0.12)


def test_expansion_residual_bounded():
    # first-order eigenvector expansion: the scaled residual
    # sqrt(n) |t_k (vhat_k(i) - v_k(i)) - (W v_k)(i)| stays order one
    params = npt.model1_params(300, 60, 0.2, 0.9)
    gt = npt.ground_truth(params)
    gt = with_tk(gt, moment_samples=40, seed=9)
    rng = np.random.default_rng(10)
    samples = [npt.sample_adjacency(gt.h, rng) for _ in range(20)]
    out = npt.expansion_residual(gt, samples, k=0, i=5)
    assert out["median"] < 2.0
    assert out["p95"] < 10.0
    assert len(out["samples"]) == 20


def test_covariance_trend_ignores_the_exact_eigenvector_signs(monkeypatch):
    # the exact covariance is aligned to each fitted basis, so flipping the
    # population eigenvectors leaves the errors as they are
    base = covariance_trend(2, 0.9, [300], reps=2)
    exact = oracle.ground_truth
    monkeypatch.setattr(oracle, "ground_truth", lambda params: oracle.replace(
        exact(params), v=exact(params).v * np.array([-1.0, 1.0, -1.0])))
    assert covariance_trend(2, 0.9, [300], reps=2) == \
        pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("sizes", [[80, 4], [0], [-20], [25]])
def test_covariance_trend_checks_every_size_before_sampling(monkeypatch,
                                                            sizes):
    monkeypatch.setattr(oracle, "sample_adjacency", None)  # must not be used
    with pytest.raises(ValueError, match=f"size {sizes[-1]} "):
        covariance_trend(1, 0.9, sizes, reps=1)
