import math
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import netpairtest as npt
from netpairtest.estimation import (
    CovarianceEstimate,
    estimate_k_from_values,
    sigma1_matrix,
    sigma2_matrix,
)
from netpairtest.inference import SingularCovarianceError, _quadratic_form
from netpairtest.spectra import Spectrum, ratio_rows


# ---------------------------------------------------------------- chi2_sf

def test_chi2_sf_closed_forms():
    for x in (0.0, 0.5, 1.7, 4.2, 9.0):
        # df=2: exp(-x/2); df=4: (1 + x/2) exp(-x/2); df=1: erfc(sqrt(x/2))
        assert npt.chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)
        assert npt.chi2_sf(x, 4) == pytest.approx(
            (1 + x / 2) * math.exp(-x / 2), abs=1e-12)
        assert npt.chi2_sf(x, 1) == pytest.approx(
            math.erfc(math.sqrt(x / 2)), abs=1e-12)


def test_chi2_sf_bounds_and_errors():
    assert npt.chi2_sf(0.0, 3) == 1.0
    assert npt.chi2_sf(1e6, 3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        npt.chi2_sf(-1.0, 3)
    with pytest.raises(ValueError):
        npt.chi2_sf(1.0, 0)


def test_quadratic_form_singular():
    cov = CovarianceEstimate(matrix=np.eye(2), condition_estimate=1e13)
    with pytest.raises(SingularCovarianceError):
        _quadratic_form(np.ones(2), cov)


# ----------------------------------------------------------- karate values

def test_karate_T_pair(karate):
    res = npt.test_T(karate, 6, 12, k_override=2)  # nodes 7 and 13, 1-based
    assert res.method == "T"
    assert res.df == 2
    assert res.p_value == pytest.approx(0.6926, abs=2e-3)
    res2 = npt.test_T(karate, 2, 26, k_override=2)  # nodes 3 and 27
    assert res2.p_value < 1e-4


def test_karate_G_pair_runs(karate):
    res = npt.test_G(karate, 6, 12, k_override=2)
    assert res.method == "G"
    assert res.df == 1
    assert 0.0 <= res.p_value <= 1.0
    assert res.statistic >= 0.0


def test_default_k_paths(karate):
    # thresholding on this small network floors to k=1 (T) and k=2 (G)
    res_t = npt.test_T(karate, 6, 12)
    assert res_t.k_used == 1
    res_g = npt.test_G(karate, 6, 12)
    assert res_g.k_used == 2


def _per_pair_statistic(x, i, j, k, method):
    """The statistic with everything rebuilt for the pair, as before the
    fit was shared: K, the full n x n residuals W0 and W_hat, and the
    covariance from the whole variance matrix."""
    spec = npt.top_eigenpairs(x, min(x.shape[0], 50))
    if k is None:
        est = estimate_k_from_values(spec.values, x.shape[0],
                                     npt.max_degree(x))
        k = max(est.k_hat, 1 if method == "T" else 2)
    v, d = spec.vectors[:, :k], spec.values[:k]
    w0 = x - (v * d[None, :]) @ v.T
    quad = np.einsum("ik,i,ik->k", v, np.sum(w0 * w0, axis=1), v)
    d_tilde = 1.0 / (1.0 / d + quad / d**3)
    w_hat = x - (v * d_tilde[None, :]) @ v.T
    w_hat = (w_hat + w_hat.T) / 2.0
    sigma2 = w_hat * w_hat
    if method == "T":
        cov = sigma1_matrix(v, d, sigma2, i, j)
        diff = v[i] - v[j]
    else:
        cov = sigma2_matrix(v, d, d, sigma2, i, j)
        diff = ratio_rows(spec, i, k) - ratio_rows(spec, j, k)
    return float(diff @ scipy.linalg.solve(cov, diff, assume_a="sym")), k


@pytest.fixture(scope="module")
def model2_graph():
    params = npt.model2_params(300, 60, 0.2, 0.9, seed=3)
    return npt.sample_adjacency(npt.build_mean_matrix(params), seed=4)


@pytest.mark.parametrize("method", ["T", "G"])
def test_fit_matches_per_pair_statistic(karate, model2_graph, method):
    runner = npt.test_T if method == "T" else npt.test_G
    cases = [(karate, 6, 12, 2), (karate, 2, 26, 3), (karate, 6, 12, None),
             (model2_graph, 180, 181, 3), (model2_graph, 0, 120, None)]
    for x, i, j, k in cases:
        ref, k_ref = _per_pair_statistic(x, i, j, k, method)
        res = runner(x, i, j, k_override=k)
        assert res.k_used == k_ref
        assert res.statistic == pytest.approx(ref, rel=1e-12)
        shared = runner(npt.fit(x, k, floor=1 if method == "T" else 2), i, j)
        assert shared.statistic == res.statistic


def _close(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=0, equal_nan=True) and \
        np.array_equal(np.isnan(a), np.isnan(b))


def test_dense_and_csr_input_agree(karate, karate_csr, model2_graph):
    simulated = (model2_graph, scipy.sparse.csr_array(model2_graph))
    for (dense, csr), nodes in (((karate, karate_csr), [0, 2, 6, 12, 26, 33]),
                                (simulated, [0, 1, 120, 180, 181, 299])):
        for k in (None, 2, 3):
            a, b = npt.fit(dense, k, floor=2), npt.fit(csr, k, floor=2)
            assert a.k == b.k
            assert _close(a.d_tilde, b.d_tilde)
            for runner in (npt.test_T, npt.test_G):
                i, j = nodes[1], nodes[3]
                assert _close(runner(dense, i, j, k_override=k).statistic,
                              runner(csr, i, j, k_override=k).statistic)
            for method in ("T", "G"):
                assert _close(npt.pvalue_matrix(dense, nodes, method, k).matrix,
                              npt.pvalue_matrix(csr, nodes, method, k).matrix)


def test_fit_argument_fixes_k_and_spectrum(karate):
    fitted = npt.fit(karate, 2)
    with pytest.raises(ValueError, match="already fixes"):
        npt.test_T(fitted, 6, 12, k_override=2)
    with pytest.raises(ValueError, match="already fixes"):
        npt.test_G(fitted, 6, 12, k_override=2)


def test_distinct_nodes_required(karate):
    with pytest.raises(ValueError):
        npt.test_T(karate, 4, 4)
    with pytest.raises(ValueError):
        npt.test_G(karate, 4, 4)
    with pytest.raises(ValueError, match="k >= 2"):
        npt.test_G(karate, 0, 1, k_override=1)


@pytest.mark.parametrize("i,j", [(-1, 12), (6, 34), (34, 6), (6, 99)])
def test_nodes_outside_the_graph_rejected(karate, i, j):
    # a negative index would otherwise wrap to the last node
    fitted = npt.fit(karate, 2)
    for x in (karate, fitted):
        for runner in (npt.test_T, npt.test_G):
            with pytest.raises(ValueError, match="outside the node range"):
                runner(x, i, j)
    with pytest.raises(ValueError, match="outside the node range"):
        npt.pvalue_matrix(karate, [0, i, j], k_override=2)


# ------------------------------------------------------------- invariances

def _flip_columns(spec, signs):
    return Spectrum(values=spec.values,
                    vectors=spec.vectors * np.asarray(signs)[None, :],
                    residuals=spec.residuals)


def test_sign_flip_invariance(karate):
    spec = npt.top_eigenpairs(karate, 3)
    for signs in ([-1, 1, 1], [1, -1, 1], [-1, -1, -1]):
        flipped = _flip_columns(spec, signs)
        for runner in (npt.test_T, npt.test_G):
            base = runner(npt.fit(karate, 3, spectrum=spec), 6, 12)
            alt = runner(npt.fit(karate, 3, spectrum=flipped), 6, 12)
            assert alt.statistic == pytest.approx(base.statistic,
                                                  rel=1e-10)


def test_permutation_equivariance(karate):
    rng = np.random.default_rng(5)
    perm = rng.permutation(34)
    xp = karate[np.ix_(perm, perm)]
    inv = np.argsort(perm)
    for runner, k in ((npt.test_T, 2), (npt.test_G, 2)):
        base = runner(karate, 6, 12, k_override=k)
        moved = runner(xp, inv[6], inv[12], k_override=k)
        assert moved.statistic == pytest.approx(base.statistic, rel=1e-8)
        assert moved.p_value == pytest.approx(base.p_value, abs=1e-8)


def test_statistic_symmetric_in_pair(karate):
    for runner in (npt.test_T, npt.test_G):
        a = runner(karate, 6, 12, k_override=2)
        b = runner(karate, 12, 6, k_override=2)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value


# ------------------------------------------------------------ p-value matrix

def test_pvalue_matrix_structure(karate):
    nodes = [2, 6, 7, 12]
    pm = npt.pvalue_matrix(karate, nodes, method="T", k_override=2)
    assert pm.matrix.shape == (4, 4)
    assert np.array_equal(pm.matrix, pm.matrix.T)
    assert np.array_equal(np.diag(pm.matrix), np.ones(4))
    assert np.all((pm.matrix >= 0) & (pm.matrix <= 1))
    # bit-reproducible
    again = npt.pvalue_matrix(karate, nodes, method="T", k_override=2)
    assert np.array_equal(pm.matrix, again.matrix)


def test_pvalue_matrix_validation(karate):
    with pytest.raises(ValueError):
        npt.pvalue_matrix(karate, [3])
    with pytest.raises(ValueError):
        npt.pvalue_matrix(karate, [3, 3])
    with pytest.raises(ValueError):
        npt.pvalue_matrix(karate, [3, 4], method="z")


def test_pvalue_matrix_nan_for_failed_pairs(karate):
    # append a disconnected triangle: the ratio test is undefined on it
    # (the leading eigenvector vanishes there), but pairs inside the main
    # component still work
    x = np.zeros((37, 37))
    x[:34, :34] = karate
    x[34:, 34:] = 1.0 - np.eye(3)
    pm = npt.pvalue_matrix(x, [6, 12, 34], method="G", k_override=2)
    assert np.isnan(pm.matrix[0, 2]) and np.isnan(pm.matrix[2, 0])
    assert np.isfinite(pm.matrix[0, 1])
    assert pm.matrix[2, 2] == 1.0


def test_pvalue_matrix_fits_once(karate, karate_csr, monkeypatch):
    # every binding of each counted function, in every package module; the
    # fit reads diag(W0^2) from products with n x k blocks, and no
    # n x n residual exists in the package to build
    calls = Counter()
    for name in ("fit", "top_eigenpairs", "max_degree",
                 "diag_residual_square"):
        original = getattr(npt, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("netpairtest") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert not hasattr(npt.estimation, "residual_matrix")
    nodes = [2, 6, 7, 8, 12]
    for x in (karate, karate_csr):
        calls.clear()
        pm = npt.pvalue_matrix(x, nodes, method="G")
        assert calls == {"fit": 1, "top_eigenpairs": 1, "max_degree": 1,
                         "diag_residual_square": 1}
        assert pm.matrix[1, 4] == npt.test_G(x, 6, 12).p_value


def test_pvalue_matrix_zero_eigenvalue_is_nan():
    # one edge among isolated nodes: eigenvalues 1, -1, then exact zeros,
    # so K=3 cannot be refined and no pair has a p-value
    x = np.zeros((6, 6))
    x[0, 1] = x[1, 0] = 1.0
    assert abs(npt.top_eigenpairs(x, 3).values[2]) <= 6 * np.finfo(float).eps
    with pytest.raises(ZeroDivisionError):
        npt.fit(x, 3)
    pm = npt.pvalue_matrix(x, [0, 2, 3], method="T", k_override=3)
    assert np.array_equal(np.isnan(pm.matrix), ~np.eye(3, dtype=bool))
    assert np.array_equal(np.diag(pm.matrix), np.ones(3))


def test_pvalue_matrix_csv(tmp_path, karate):
    pm = npt.pvalue_matrix(karate, [2, 6, 12], method="T", k_override=2)
    path = tmp_path / "pm.csv"
    pm.to_csv(path, labels=[3, 7, 13])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,3,7,13"
    assert len(lines) == 4


def test_reject():
    res = npt.TestResult(method="T", statistic=6.0, df=2, p_value=0.0498,
                         k_used=2, condition_estimate=1.0)
    assert npt.reject(res, 0.05)
    res2 = npt.TestResult(method="T", statistic=5.0, df=2, p_value=0.0821,
                          k_used=2, condition_estimate=1.0)
    assert not npt.reject(res2, 0.05)
    with pytest.raises(ValueError):
        npt.reject(res, 0.0)
