import numpy as np
import pytest

import netpairtest as npt
from netpairtest import oracle
from netpairtest.estimation import DegenerateNodeError
from netpairtest.models import DCMMParams
from netpairtest.oracle import (
    covariance_trend,
    eigen_gap_constant,
    noise_moments,
    with_tk,
)

import brute


@pytest.fixture(scope="module")
def gt_model1():
    params = npt.model1_params(200, 40, 0.2, 0.9)
    return npt.ground_truth(params)


def test_ground_truth_eigenstructure(gt_model1):
    gt = gt_model1
    assert gt.k == 3
    assert np.allclose(gt.vectors.T @ gt.vectors, np.eye(3), atol=1e-10)
    recon = (gt.vectors * gt.values[None, :]) @ gt.vectors.T
    assert np.allclose(recon, gt.h, atol=1e-8)  # H has exact rank 3
    # Bernoulli variances off the diagonal, zero on it (no self loops)
    var_w = gt.sigma2_rows(np.arange(gt.n))
    off = ~np.eye(gt.n, dtype=bool)
    assert np.allclose(var_w[off], (gt.h * (1 - gt.h))[off])
    assert np.all(np.diag(var_w) == 0)
    # any rows, in any order, are those rows of the whole matrix
    assert np.array_equal(gt.sigma2_rows([7, 2, 150]), var_w[[7, 2, 150]])


def test_ground_truth_self_loops():
    params = npt.model1_params(80, 16, 0.2, 0.9)
    gt = npt.ground_truth(params, self_loops=True)
    var_w = gt.sigma2_rows(np.arange(gt.n))
    assert np.allclose(np.diag(var_w), np.diag(gt.h * (1 - gt.h)))


def test_ground_truth_rank_deficient():
    # declared K=3 but only two communities carry mass: rank 2 mean matrix
    n = 12
    pi = np.zeros((n, 3))
    pi[: n // 2, 0] = 1.0
    pi[n // 2:, 1] = 1.0
    params = DCMMParams(theta=np.full(n, 0.5), pi=pi,
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
    params = DCMMParams(theta=np.ones(n), pi=pi, p_matrix=np.eye(2))
    gt = npt.ground_truth(params, self_loops=True)
    assert not gt.sigma2_rows(np.arange(n)).any()
    gt = with_tk(gt)
    assert np.all(np.abs(gt.t / gt.values - 1.0) < 1e-10)


def test_tk_near_dk_moderate_size():
    params = npt.model1_params(400, 80, 0.2, 0.9)
    gt = npt.ground_truth(params)
    gt = with_tk(gt)
    c0 = eigen_gap_constant(gt)
    for k in range(3):
        d = gt.values[k]
        lo, hi = sorted((d / (1 + c0 / 2), d * (1 + c0 / 2)))
        assert lo <= gt.t[k] <= hi
    # relative drift shrinks with n; generous bound at n=400
    assert np.all(np.abs(gt.t / gt.values - 1.0) < 0.1)


def test_tk_matches_mean_empirical_eigenvalue():
    # t_k should predict the average location of the k-th empirical
    # eigenvalue much better than d_k does for the smaller eigenvalues.
    # The check runs in the self-loop regime, where the noise matrix has
    # exactly zero mean (without self loops the diagonal of W carries the
    # deterministic offset -h_ii, an order-1/n effect the truncated series
    # deliberately ignores).
    params = npt.model1_params(300, 60, 0.2, 0.9)
    gt = npt.ground_truth(params, self_loops=True)
    gt = with_tk(gt)
    rng = np.random.default_rng(3)
    vals = []
    for _ in range(40):
        x = npt.sample_adjacency(gt.h, rng, self_loops=True)
        vals.append(npt.top_eigenpairs(x, 3).values)
    mean_emp = np.mean(vals, axis=0)
    assert np.all(np.abs(mean_emp / gt.t - 1.0) < 0.01)
    # the corrected locations beat the raw eigenvalues for the smaller pairs
    assert np.all(np.abs(mean_emp / gt.t - 1.0)[1:]
                  < np.abs(mean_emp / gt.values - 1.0)[1:])


@pytest.mark.parametrize("n, self_loops", [(5, False), (4, True)])
def test_noise_moments_match_enumeration(n, self_loops):
    # the closed forms against every one of the 2^10 adjacency matrices;
    # with V = I the projected moments are the full matrices E[W^l]
    rng = np.random.default_rng(n)
    params = DCMMParams(theta=rng.uniform(0.3, 1.0, n),
                        pi=rng.dirichlet(np.ones(2), size=n),
                        p_matrix=np.array([[0.9, 0.3], [0.3, 0.7]]))
    gt = npt.ground_truth(params, self_loops=self_loops)
    exact = brute.noise_moments(gt.h, self_loops)
    closed = noise_moments(oracle.replace(gt, vectors=np.eye(n)))
    assert sorted(closed) == [2, 3, 4]
    for l in (2, 3, 4):
        assert np.max(np.abs(closed[l] - exact[l])) <= 1e-12


def test_eigen_gap_constant(gt_model1):
    c0 = eigen_gap_constant(gt_model1)
    d = np.abs(gt_model1.values)
    assert c0 == pytest.approx(min(d[0] / d[1], d[1] / d[2]) - 1.0)


def test_true_sigma_validation(gt_model1):
    with pytest.raises(ValueError):
        npt.estimate_sigma1(gt_model1, 2, 2)
    with pytest.raises(ValueError, match="with_tk"):
        npt.estimate_sigma2(gt_model1, 0, 1)
    # the plug-in's degeneracy rule, on the exact eigenvectors
    v = gt_model1.vectors.copy()
    v[5, 0] = 0.0
    with pytest.raises(DegenerateNodeError):
        npt.estimate_sigma2(
            oracle.replace(gt_model1, vectors=v, t=gt_model1.values), 5, 6)


def test_exact_covariance_is_the_formula_on_the_truth():
    params = npt.model2_params(200, 40, 0.2, 0.9, seed=1)
    gt = npt.ground_truth(params)
    gt = oracle.replace(gt, t=gt.values * 1.01)
    w = gt.sigma2_rows(np.arange(gt.n))
    for i, j in ((120, 121), (0, 150), (7, 3)):
        for exact, slow in (
                (npt.estimate_sigma1(gt, i, j).matrix,
                 brute.brute_sigma1(gt.vectors, gt.values, w, i, j)),
                (npt.estimate_sigma2(gt, i, j).matrix,
                 brute.brute_sigma2(gt.vectors, gt.values, gt.t, w, i, j))):
            assert np.allclose(exact, slow, rtol=1e-12,
                               atol=1e-14 * np.abs(slow).max())


def test_true_sigma1_matches_monte_carlo():
    # covariance of the linearized row difference (e_i - e_j)^T W v_k / t_k
    params = npt.model1_params(200, 40, 0.2, 0.9)
    gt = npt.ground_truth(params)
    gt = with_tk(gt)
    i, j = 120, 121
    rng = np.random.default_rng(5)
    f = []
    for _ in range(1500):
        w = npt.sample_adjacency(gt.h, rng) - gt.h
        f.append((w[i] - w[j]) @ gt.vectors / gt.values)
    emp = np.cov(np.asarray(f).T)
    true = npt.estimate_sigma1(gt, i, j).matrix
    assert np.allclose(np.diag(emp), np.diag(true), rtol=0.12)


def test_true_sigma2_matches_monte_carlo():
    # covariance of the linearized ratio difference
    params = npt.model2_params(400, 80, 0.2, 0.9, seed=6)
    gt = npt.ground_truth(params)
    gt = with_tk(gt)
    i, j = 240, 241
    v, t = gt.vectors, gt.t
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
    gt = with_tk(gt)
    rng = np.random.default_rng(10)
    samples = [npt.sample_adjacency(gt.h, rng) for _ in range(20)]
    out = npt.expansion_residual(gt, samples, k=0, i=5)
    assert out["median"] < 2.0
    assert out["p95"] < 10.0
    assert len(out["samples"]) == 20


def test_expansion_residual_reads_one_row_of_the_noise():
    # (X_i - H_i) v_k is row i of the n x n W v_k, up to rounding
    gt = with_tk(npt.ground_truth(npt.model1_params(300, 60, 0.2, 0.9)))
    rng = np.random.default_rng(10)
    samples = [npt.sample_adjacency(gt.h, rng) for _ in range(3)]
    for k in (0, 2):
        got = npt.expansion_residual(gt, samples, k=k, i=5)["samples"]
        t_k, v_k = gt.locations[k], gt.vectors[:, k]
        for x, scaled in zip(samples, got):
            vhat = npt.top_eigenpairs(x, k + 1).vectors[:, k]
            vhat = -vhat if vhat @ v_k < 0 else vhat
            r = t_k * (vhat[5] - v_k[5]) - ((x - gt.h) @ v_k)[5]
            assert scaled == pytest.approx(abs(r) * np.sqrt(300), rel=0,
                                           abs=1e-12)


def test_covariance_trend_ignores_the_exact_eigenvector_signs(monkeypatch):
    # the exact covariance is aligned to each fitted basis, so flipping the
    # population eigenvectors leaves the errors as they are
    base = covariance_trend(2, 0.9, [300], reps=2)
    exact = oracle.ground_truth
    monkeypatch.setattr(oracle, "ground_truth", lambda params: oracle.replace(
        exact(params),
        vectors=exact(params).vectors * np.array([-1.0, 1.0, -1.0])))
    assert covariance_trend(2, 0.9, [300], reps=2) == \
        pytest.approx(base, rel=1e-9)


def test_covariance_trend_reads_any_iterable_of_sizes(monkeypatch):
    # the pair check spent a generator, and the loop then ran on nothing:
    # [] with no error
    want = covariance_trend(1, 0.9, [300], reps=1)
    assert covariance_trend(1, 0.9, (n for n in [300]), reps=1) == want
    monkeypatch.setattr(oracle, "sample_adjacency", None)  # must not be used
    with pytest.raises(ValueError, match="size 25 "):
        covariance_trend(1, 0.9, (n for n in [300, 25]), reps=1)


@pytest.mark.parametrize("sizes", [[80, 4], [0], [-20], [25]])
def test_covariance_trend_checks_every_size_before_sampling(monkeypatch,
                                                            sizes):
    monkeypatch.setattr(oracle, "sample_adjacency", None)  # must not be used
    with pytest.raises(ValueError, match=f"size {sizes[-1]} "):
        covariance_trend(1, 0.9, sizes, reps=1)


@pytest.mark.parametrize("counts, message", [
    (dict(reps=True), "reps must be an integer, got True"),
    (dict(reps=1.5), "reps must be an integer"),
    (dict(reps=0), "reps must be at least 1"),
    (dict(reps=1, seed=1.5), "seed must be an integer"),
    (dict(reps=1, seed="a"), "seed must be an integer"),
    (dict(reps=1, seed=-1), "seed must be at least 0"),
])
def test_covariance_trend_checks_its_counts_before_any_work(monkeypatch,
                                                            counts, message):
    # reps=True ran one replication; a float reps or seed raised TypeError
    # from inside numpy
    def no_truth(params):
        raise AssertionError("a ground truth was built before the check")

    monkeypatch.setattr(oracle, "ground_truth", no_truth)
    with pytest.raises(ValueError, match=message):
        covariance_trend(1, 0.9, [200], **counts)


def _truth(values, self_loops=False):
    """A ground truth with the given eigenvalues on unit eigenvectors: what
    the eigen-gap constant and the locations read of it."""
    k = len(values)
    return oracle.GroundTruth(h=np.zeros((k + 1, k + 1)),
                              vectors=np.eye(k + 1)[:, :k],
                              values=np.asarray(values, dtype=float),
                              self_loops=self_loops)


def test_eigen_gap_constant_skips_pairs_and_needs_a_gap():
    # the +/- pair (4, -4) has no ratio gap of its own and is skipped
    assert eigen_gap_constant(_truth([4.0, -4.0, 2.0])) == 1.0
    # one eigenvalue, or only a +/- pair, leaves nothing to compare
    assert eigen_gap_constant(_truth([3.0])) == 1.0
    assert eigen_gap_constant(_truth([3.0, -3.0])) == 1.0
    # a group's smallest magnitude over the next group's largest
    tied = 4.0 * (1.0 - 1e-13)
    assert eigen_gap_constant(_truth([4.0, -tied, 2.0])) == tied / 2.0 - 1.0
    for values in ([2.0, 2.0], [4.0, -4.0, 4.0], [-4.0, 4.0, -tied]):
        with pytest.raises(ValueError, match="no ratio gap"):
            eigen_gap_constant(_truth(values))


def test_ground_truth_orders_a_plus_minus_pair_as_the_fit_does():
    # two blocks with edges only between them: H and every sample have
    # eigenvalues in +/- pairs, and both put the positive member first,
    # so their columns match
    pi = np.repeat(np.eye(2), 20, axis=0)
    gt = npt.ground_truth(DCMMParams(theta=np.full(40, 0.9), pi=pi,
                                     p_matrix=np.array([[0, .5], [.5, 0]])))
    spec = npt.top_eigenpairs(npt.sample_adjacency(gt.h, seed=0), 2)
    assert gt.values[0] > 0 > gt.values[1]
    assert spec.values[0] > 0 > spec.values[1]
    overlap = np.abs(np.einsum("ik,ik->k", spec.vectors, gt.vectors))
    assert np.all(overlap > 0.9)


def test_compute_tk_rejects_a_zero_eigenvalue():
    gt = _truth([2.0, 0.0])
    with pytest.raises(ZeroDivisionError, match="zero population eigenvalue"):
        oracle.compute_tk(gt, 1, noise_moments(gt))


def test_locations_of_a_negative_eigenvalue():
    # P = [[0.2, 0.8], [0.8, 0.2]] has eigenvalues 1.0 and -0.6, so H on two
    # pure blocks of n/2 nodes has d = (n/2, -0.3 n); the second location is
    # bracketed below zero, [(1 + c0/2) d_2, d_2 / (1 + c0/2)]. At n = 200
    # the root lies in that bracket.
    n = 200
    pi = np.zeros((n, 2))
    pi[:n // 2, 0] = 1.0
    pi[n // 2:, 1] = 1.0
    params = DCMMParams(theta=np.ones(n), pi=pi,
                        p_matrix=np.array([[0.2, 0.8], [0.8, 0.2]]))
    gt = with_tk(npt.ground_truth(params))
    assert gt.values == pytest.approx([100.0, -60.0])
    c0 = eigen_gap_constant(gt)
    d2 = gt.values[1]
    assert (1 + c0 / 2) * d2 < gt.t[1] < d2 / (1 + c0 / 2) < 0
    assert abs(gt.t[1] / d2 - 1.0) < 0.05
