import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.stats
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import netpairtest as npt
from netpairtest import estimation, inference, oracle
from netpairtest.estimation import estimate_k_from_values
from netpairtest.inference import CONDITION_LIMIT, SingularCovarianceError
from netpairtest.spectra import Spectrum

from brute import brute_sigma1, brute_sigma2


# ---------------------------------------------------------------- chi2_sf

def test_chi2_sf_closed_forms():
    for x in (0.0, 0.5, 1.7, 4.2, 9.0):
        # df=2: exp(-x/2); df=4: (1 + x/2) exp(-x/2); df=1: erfc(sqrt(x/2))
        assert npt.chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)
        assert npt.chi2_sf(x, 4) == pytest.approx(
            (1 + x / 2) * math.exp(-x / 2), abs=1e-12)
        assert npt.chi2_sf(x, 1) == pytest.approx(
            math.erfc(math.sqrt(x / 2)), abs=1e-12)


def test_chi2_sf_of_an_array_is_elementwise():
    xs = np.array([0.0, 0.5, 1.7, 4.2, 9.0])
    for df in (1, 2, 4):
        assert np.array_equal(npt.chi2_sf(xs, df),
                              [npt.chi2_sf(x, df) for x in xs])


def test_chi2_sf_bounds_and_errors():
    assert npt.chi2_sf(0.0, 3) == 1.0
    assert npt.chi2_sf(1e6, 3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        npt.chi2_sf(-1.0, 3)
    with pytest.raises(ValueError):
        npt.chi2_sf(1.0, 0)


def test_condition_above_the_limit_fails_only_its_pair(karate, monkeypatch):
    right = npt.inference.estimate_sigma1

    def ill_at(row_of_7):
        # the pair tests pass rows of their node moments, which hold the
        # nodes in the order given
        def sigma(model, i, j):
            cov = right(model, i, j)
            at_7 = (np.asarray(i) == row_of_7) | (np.asarray(j) == row_of_7)
            return type(cov)(matrix=cov.matrix, condition_estimate=np.where(
                at_7, 1e13, cov.condition_estimate))
        return sigma

    monkeypatch.setattr(npt.inference, "estimate_sigma1", ill_at(1))
    with pytest.raises(SingularCovarianceError,
                       match=r"^covariance condition estimate 1e\+13 "
                             r"exceeds 1e\+12$"):
        npt.test_T(karate, 12, 7, k_override=2)
    monkeypatch.setattr(npt.inference, "estimate_sigma1", ill_at(2))
    pm = npt.pvalue_matrix(karate, [2, 6, 7, 12], "T", 2).matrix
    at_7 = np.zeros((4, 4), dtype=bool)
    at_7[2], at_7[:, 2] = True, True
    at_7[2, 2] = False
    assert np.array_equal(np.isnan(pm), at_7)


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
        cov = brute_sigma1(v, d, sigma2, i, j)
        diff = v[i] - v[j]
    else:
        cov = brute_sigma2(v, d, d, sigma2, i, j)
        diff = v[i, 1:] / v[i, 0] - v[j, 1:] / v[j, 0]
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


def _split_entries(csr):
    """``csr`` with every stored entry stored twice, as two halves: the same
    matrix, not in canonical format."""
    split = scipy.sparse.csr_array(
        (np.repeat(csr.data / 2, 2), np.repeat(csr.indices, 2),
         2 * csr.indptr), shape=csr.shape)
    assert not split.has_canonical_format
    assert np.array_equal(split.toarray(), csr.toarray())
    return split


def test_dense_and_csr_input_agree(karate, karate_csr, model2_graph):
    simulated = (model2_graph, scipy.sparse.csr_array(model2_graph))
    for (dense, *sparse), nodes in (
            ((karate, karate_csr, _split_entries(karate_csr)),
             [0, 2, 6, 12, 26, 33]),
            (simulated, [0, 1, 120, 180, 181, 299])):
        for csr, k in itertools.product(sparse, (None, 2, 3)):
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


def test_supplied_fit_meets_the_least_k(karate):
    # a Fit is held to the same least K as k_override
    with pytest.raises(ValueError, match="the G test needs k >= 2"):
        npt.test_G(npt.fit(karate, 1), 0, 1)
    with pytest.raises(ValueError, match="the G test needs k >= 2"):
        npt.pvalue_matrix(npt.fit(karate, 1), [0, 1, 2], "G")
    with pytest.raises(ValueError, match="the T test needs k >= 1"):
        npt.test_T(npt.fit(karate, 0), 0, 1)


def test_distinct_nodes_required(karate):
    with pytest.raises(ValueError):
        npt.test_T(karate, 4, 4)
    with pytest.raises(ValueError):
        npt.test_G(karate, 4, 4)
    with pytest.raises(ValueError, match="k >= 2"):
        npt.test_G(karate, 0, 1, k_override=1)


@pytest.mark.parametrize("i,j", [(-1, 12), (6, 34), (34, 6), (6, 99),
                                 (-1, 33)])
def test_nodes_outside_the_graph_rejected(karate, i, j):
    # a negative index would otherwise wrap to the last node
    fitted = npt.fit(karate, 2)
    for x in (karate, fitted):
        for runner in (npt.test_T, npt.test_G):
            with pytest.raises(ValueError, match="outside the node range"):
                runner(x, i, j)
    with pytest.raises(ValueError, match="outside the node range"):
        npt.pvalue_matrix(karate, [0, i, j], k_override=2)
    # the covariances check their nodes too, on a fit and on the truth
    truth = npt.ground_truth(npt.model1_params(34, 10, 0.2, 0.9))
    truth = oracle.replace(truth, t=truth.values)
    for model in (fitted, truth):
        for sigma in (npt.estimate_sigma1, npt.estimate_sigma2):
            with pytest.raises(ValueError,
                               match=r"outside the node range \[0, 34\)$"):
                sigma(model, i, j)


def test_non_integer_nodes_rejected_before_the_fit(karate, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before checking the nodes")

    monkeypatch.setattr(npt.inference, "fit", no_fit)
    for runner in (npt.test_T, npt.test_G):
        with pytest.raises(ValueError, match="nodes must be integers"):
            runner(karate, 1.5, 2, k_override=2)
    for nodes in ([0.5, 2, 3], [0.0, 2.0], [True, False]):
        with pytest.raises(ValueError, match="nodes must be integers"):
            npt.pvalue_matrix(karate, nodes)
    # a bool among integers is not read as node 1
    for call in (lambda: npt.test_T(karate, True, 2, k_override=2),
                 lambda: npt.pvalue_matrix(karate, [True, 2, 3]),
                 lambda: npt.pvalue_matrix(karate, [1, 2, True])):
        with pytest.raises(ValueError, match="nodes must be integers"):
            call()
    fitted = npt.fit(karate, 2)
    for i in (1.5, True):
        with pytest.raises(ValueError, match="nodes must be integers"):
            npt.estimate_sigma1(fitted, i, 2)
    # numpy integers are integers
    assert npt.test_T(fitted, np.int64(6), np.uint8(12)).statistic \
        == npt.test_T(fitted, 6, 12).statistic


def test_nodes_of_the_wrong_shape_are_refused_before_the_fit(karate,
                                                            monkeypatch):
    # distinct nodes of the wrong shape read "nodes must be distinct", and
    # one-element arrays were fitted and then failed in the covariance
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before checking the nodes")

    monkeypatch.setattr(npt.inference, "fit", no_fit)
    for runner in (npt.test_T, npt.test_G):
        for i, j in (([0, 2], [1, 3]), (np.array([0]), np.array([1])),
                     (0, [1]), (np.zeros((1, 1), int), 1)):
            with pytest.raises(ValueError, match="^i and j must be single "
                                                 "nodes, got shapes"):
                runner(karate, i, j, k_override=2)
    for nodes in ([[0, 1], [2, 3]], np.arange(6).reshape(3, 2)):
        with pytest.raises(ValueError, match="^nodes must be one-dimensional"):
            npt.pvalue_matrix(karate, nodes)


def test_non_integer_k_rejected_before_any_solve(karate, monkeypatch):
    # a float K reached ARPACK as SystemError, a bool K as TypeError
    expected = npt.test_T(karate, 6, 12, k_override=2).statistic

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking k")

    for name in ("top_eigenpairs", "grow_spectrum"):
        monkeypatch.setattr(npt.estimation, name, no_solve)
    calls = [lambda k: npt.test_T(karate, 1, 2, k_override=k),
             lambda k: npt.test_G(karate, 1, 2, k_override=k),
             lambda k: npt.pvalue_matrix(karate, [1, 2, 3], k_override=k),
             lambda k: npt.fit(karate, k)]
    for call in calls:
        for k in (2.5, 2.0, np.float64(3.0), True, np.True_, "2"):
            with pytest.raises(ValueError, match="k must be an integer"):
                call(k)
    monkeypatch.undo()
    # numpy integers are integers
    assert npt.test_T(karate, 6, 12, k_override=np.int64(2)).statistic \
        == expected


@pytest.mark.parametrize("method", [None, 1, ["T"], b"T"])
def test_a_method_that_is_not_a_string_is_unknown(karate, method):
    with pytest.raises(ValueError, match="unknown method"):
        npt.pvalue_matrix(karate, [1, 2], method=method)


@pytest.mark.parametrize("method", ["x", "t", None, ["T"]])
def test_node_moments_share_the_method_rule(karate, method):
    # node_moments raised KeyError (TypeError for a list) from MIN_K[method]
    fitted = npt.fit(karate, 2)
    with pytest.raises(ValueError, match="unknown method"):
        estimation.node_moments(fitted, [0, 1], method)


@pytest.mark.parametrize("x", [None, 3.0, True, [[0.0, 1.0, 1.0]],
                               np.zeros((3, 2)), np.zeros((2, 2, 2))])
def test_pair_entry_points_need_a_square_matrix(x):
    # a scalar x raised IndexError from np.shape(x)[0]; the shape is checked
    # before the nodes, so node 5 is not what a non-square x reports
    for run in (lambda: npt.test_T(x, 0, 5), lambda: npt.test_G(x, 0, 5),
                lambda: npt.pvalue_matrix(x, [0, 5])):
        with pytest.raises(ValueError, match="adjacency matrix must be square"):
            run()


# ------------------------------------------------------------- invariances

def _flip_columns(spec, signs):
    signs = np.asarray(signs)[None, :]
    return Spectrum(values=spec.values, vectors=spec.vectors * signs,
                    products=spec.products * signs)


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
    # fit reads diag(W0^2) from products with n x k blocks, no n x n
    # residual exists in the package to build, and the rows of sigma2 are
    # read once for all pairs
    calls = Counter()

    def count(owner, name, original):
        def counted(*args, _name=name, **kwargs):
            calls[_name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("fit", "top_eigenpairs", "max_degree",
                 "diag_residual_square"):
        original = getattr(npt, name)
        for key, module in list(sys.modules.items()):
            if key.startswith("netpairtest") and \
                    getattr(module, name, None) is original:
                count(module, name, original)
    count(npt.Fit, "sigma2_rows", npt.Fit.sigma2_rows)
    original = npt.estimation.node_moments
    for module in (npt.estimation, npt.inference):
        count(module, "node_moments", original)
    assert not hasattr(npt.estimation, "residual_matrix")
    nodes = [2, 6, 7, 8, 12]
    for x in (karate, karate_csr):
        for method in ("T", "G"):
            calls.clear()
            npt.pvalue_matrix(x, nodes, method=method)
            # the nodes' moments are read once, and every pair is tested
            # on their rows
            assert calls == {"fit": 1, "top_eigenpairs": 1, "max_degree": 1,
                             "diag_residual_square": 1, "node_moments": 1,
                             "sigma2_rows": 1}
            fitted = npt.fit(x, floor=npt.estimation.MIN_K[method])
            calls.clear()
            npt.pvalue_matrix(fitted, nodes, method=method)
            assert calls == {"node_moments": 1, "sigma2_rows": 1}
            # a one-pair test makes the same one pass
            runner = npt.test_T if method == "T" else npt.test_G
            one_fit = {"fit": 1, "top_eigenpairs": 1, "max_degree": 1,
                       "diag_residual_square": 1}
            for given, fitting in ((x, one_fit), (fitted, {})):
                calls.clear()
                runner(given, 6, 12)
                assert calls == {**fitting, "node_moments": 1,
                                 "sigma2_rows": 1}


@pytest.mark.parametrize("method,k", [("T", None), ("T", 1), ("T", 2),
                                      ("T", 3), ("G", None), ("G", 2),
                                      ("G", 3), ("G", 4)])
def test_pvalue_matrix_entries_are_one_pair_tests_at_every_width(
        karate, karate_csr, method, k):
    # each entry is the one-pair test on the same fit, to the bit, for
    # covariances of width 1, 2 and 3 and at the estimated K
    runner = npt.test_T if method == "T" else npt.test_G
    nodes = [0, 2, 6, 7, 12, 16, 26, 33]
    for x in (karate, karate_csr):
        fitted = npt.fit(x, k, floor=npt.estimation.MIN_K[method])
        pm = npt.pvalue_matrix(fitted, nodes, method=method).matrix
        assert np.isfinite(pm).all()
        for s, a in enumerate(nodes):
            for t, b in enumerate(nodes):
                if s != t:
                    assert pm[s, t] == runner(fitted, a, b).p_value


def _row_loop(fitted, nodes, method):
    """p-values of every pair of ``nodes`` on ``fitted``, one output row at
    a time: node s against the later nodes in one stack."""
    mom = npt.estimation.node_moments(fitted, nodes, method)
    rows = np.arange(len(nodes))
    out = np.ones((len(nodes), len(nodes)))
    for s in range(len(nodes) - 1):
        out[s, s + 1:] = out[s + 1:, s] = inference._test_pairs(
            mom, np.full(len(nodes) - 1 - s, rows[s]), rows[s + 1:]).p_value
    return out


@pytest.mark.parametrize("graph,nodes,blocks", [
    # 12 nodes of a 12-node graph: 66 pairs, 12 a block
    ("n12", list(range(12)), [12, 12, 12, 12, 12, 6]),
    # all of karate: 561 pairs in blocks of at most 34
    ("karate", list(range(34)), None),
    # 20 nodes of a 300-node graph: 190 pairs, one block
    ("n300", list(range(0, 300, 15)), [190]),
])
@pytest.mark.parametrize("method", ["T", "G"])
def test_pvalue_matrix_is_the_row_by_row_loop(karate, monkeypatch, graph,
                                              nodes, blocks, method):
    # the stacked blocks of n pairs give the bits of one stack per output
    # row
    if graph == "karate":
        x = karate
    else:
        n = int(graph[1:])
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        x = (upper | upper.T).astype(float)
    fitted = npt.fit(x, 3)
    sizes = []
    stacked = inference._test_pairs

    def counted(mom, p, q):
        sizes.append(len(p))
        return stacked(mom, p, q)

    monkeypatch.setattr(inference, "_test_pairs", counted)
    got = npt.pvalue_matrix(fitted, nodes, method).matrix
    monkeypatch.undo()
    m = len(nodes)
    assert sum(sizes) == m * (m - 1) // 2 and max(sizes) <= x.shape[0]
    if blocks is not None:
        assert sizes == blocks
    want = _row_loop(fitted, nodes, method)
    assert np.isfinite(want).sum() > m
    assert got.tobytes() == want.tobytes()


def test_statistics_do_not_depend_on_the_retained_spectrum_width(karate):
    # a fit that keeps more eigenpairs than K reads a strided view of them;
    # every node's moment is summed over its own contiguous basis V B_i, so
    # the bits match those of a fit that keeps exactly K
    wide = npt.top_eigenpairs(karate, 4)
    for k in (1, 2, 3):
        narrow = Spectrum(values=wide.values[:k].copy(),
                          vectors=wide.vectors[:, :k].copy(),
                          products=wide.products[:, :k].copy())
        for method in ("T", "G")[:1 if k == 1 else 2]:
            a, b = (npt.pvalue_matrix(npt.fit(karate, k, spectrum=spec),
                                      range(34), method).matrix
                    for spec in (wide, narrow))
            assert a.tobytes() == b.tobytes()


def _brute_pvalue_matrix(fitted, nodes, method):
    """p-values of every pair of ``nodes`` on ``fitted``, one pair at a
    time: the covariance from the brute formulas on the whole variance
    matrix, the condition check and scipy's solve."""
    x = fitted.x.toarray() if scipy.sparse.issparse(fitted.x) else fitted.x
    v, d = fitted.vectors, fitted.values
    sigma2 = (x - (v * fitted.d_tilde) @ v.T) ** 2
    small = np.abs(v[:, 0]) < 1e-10 * np.abs(v[:, 0]).max()
    df = fitted.k - npt.estimation.MIN_K[method] + 1
    out = np.ones((len(nodes), len(nodes)))
    for s, i in enumerate(nodes):
        for t, j in enumerate(nodes[s + 1:], s + 1):
            out[s, t] = out[t, s] = np.nan
            if method == "T":
                cov = brute_sigma1(v, d, sigma2, i, j)
                diff = v[i] - v[j]
            elif small[i] or small[j]:
                continue
            else:
                cov = brute_sigma2(v, d, d, sigma2, i, j)
                diff = v[i, 1:] / v[i, 0] - v[j, 1:] / v[j, 0]
            if np.isfinite(cov).all() and \
                    np.linalg.cond(cov) <= CONDITION_LIMIT:
                stat = diff @ scipy.linalg.solve(cov, diff, assume_a="sym")
                out[s, t] = out[t, s] = npt.chi2_sf(max(stat, 0.0), df)
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 24),
       k=st.sampled_from([2, 3]), method=st.sampled_from(["T", "G"]),
       sparse=st.booleans())
def test_pvalue_matrix_matches_a_brute_per_pair_loop(seed, n, k, method,
                                                     sparse):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.4, 1)
    x = (upper | upper.T).astype(float)
    try:
        fitted = npt.fit(x, k)
    except ZeroDivisionError:
        assume(False)
    nodes = sorted(rng.choice(n, 8, replace=False).tolist())
    degenerate, a, b = rng.choice(nodes, 3, replace=False)
    # a degenerate node: a zero leading-eigenvector entry
    vectors = fitted.spectrum.vectors.copy()
    vectors[degenerate, 0] = 0.0
    spectrum = Spectrum(values=fitted.spectrum.values, vectors=vectors,
                        products=x @ vectors)
    # a singular pair: rows a and b of the refined residual vanish but for
    # the entry they share, so their covariance has rank one
    v = vectors[:, :k]
    low_rank = (v * fitted.d_tilde) @ v.T
    x[[a, b], :] = low_rank[[a, b], :]
    x[:, [a, b]] = low_rank[:, [a, b]]
    x[a, b] = x[b, a] = low_rank[a, b] + 1.0
    forced = npt.Fit(x=scipy.sparse.csr_array(x) if sparse else x,
                     spectrum=spectrum, k=k, d_tilde=fitted.d_tilde)
    got = npt.pvalue_matrix(forced, nodes, method).matrix
    expected = _brute_pvalue_matrix(forced, nodes, method)
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert np.isnan(got).any()
    # a p-value far in the tail inherits about stat/2 times the relative
    # error of its statistic, so there the logarithms are held to 1e-12
    with np.errstate(divide="ignore"):
        assert np.all(np.isclose(got, expected, rtol=1e-12, atol=0)
                      | np.isclose(np.log(got), np.log(expected), rtol=1e-12,
                                   atol=0)
                      | np.isnan(got))


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


def test_reject(karate):
    res = npt.TestResult(method="T", statistic=6.0, df=2, p_value=0.0498,
                         k_used=2, condition_estimate=1.0)
    assert npt.reject(res, 0.05)
    res2 = npt.TestResult(method="T", statistic=5.0, df=2, p_value=0.0821,
                          k_used=2, condition_estimate=1.0)
    assert not npt.reject(res2, 0.05)
    with pytest.raises(ValueError):
        npt.reject(res, 0.0)
    with pytest.raises(ValueError):
        npt.reject(res, 1.0)
    # on real results, rejection read from the p-value is the quantile rule
    results = [npt.test_T(karate, 6, 12, k_override=2),
               npt.test_T(karate, 0, 33, k_override=3),
               npt.test_G(karate, 2, 26, k_override=3),
               npt.test_G(karate, 6, 12, k_override=2)]
    for res in results:
        for alpha in (1e-6, 0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.999):
            quantile = scipy.stats.chi2.ppf(1.0 - alpha, res.df)
            assert npt.reject(res, alpha) == (res.statistic > quantile)
    # both sides of the decision occur
    assert {npt.reject(res, 0.05) for res in results} == {True, False}
