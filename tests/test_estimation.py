import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

import netpairtest as npt
from netpairtest import estimation
from netpairtest.estimation import DegenerateNodeError
from netpairtest.models import design_params
from netpairtest.spectra import deflated_ritz

from brute import GivenModel, brute_sigma1, brute_sigma2, residual_matrix


# ---------------------------------------------------------------- K estimate

def test_k_threshold_formula(karate):
    # the paper's threshold, 2.01 log(n) d_max, to the bit
    x = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model1_params(400, 80, 0.2, 0.9)), seed=0)
    for graph in (karate, x, np.diag([20.0, -5.0, 1.0])):
        _, est = npt.grow_spectrum(graph)
        assert est.threshold == (2.01 * np.log(graph.shape[0])
                                 * npt.max_degree(graph))


def test_estimate_k_complete_graph():
    # complete graph on 20 nodes: eigenvalues 19 and -1 (x19); only 19
    # clears the threshold 2.01 * log(20) * 19
    n = 20
    x = np.ones((n, n)) - np.eye(n)
    spec, est = npt.grow_spectrum(x, 10)
    assert est.k_hat == 1 and spec.m == 10
    assert npt.fit(x, floor=1).k == 1
    assert npt.fit(x, floor=2).k == 2


def test_estimate_k_floors(karate):
    # a spectrum 0.5, 0.1, 0, ... with every row summing to 0.5: no square
    # clears 2.01 log(50) * 0.5
    spec, est = npt.grow_spectrum(_rotated(np.r_[0.5, 0.1, np.zeros(48)], 0))
    assert est.k_hat == 0 and spec.m == 3
    # no karate eigenvalue clears the threshold, so the fit floors K
    for floor in (1, 2):
        fitted = npt.fit(karate, floor=floor)
        assert fitted.k_estimate.k_hat == 0
        assert fitted.k == floor
        assert fitted.k_source == "estimated"
    fixed = npt.fit(karate, 3)
    assert fixed.k == 3 and fixed.k_estimate is None
    assert fixed.k_source == "override"


def test_estimate_k_counts_every_value_above_the_threshold():
    # eigenvalues 100, 90, 0, ... on 100 nodes, d_max 100: both squares
    # clear 2.01 log(100) * 100, found from two pairs or from three
    x = np.diag(np.r_[100.0, 90.0, np.zeros(98)])
    for m in (2, 3):
        spec, est = npt.grow_spectrum(x, m)
        assert est.k_hat == 2 and spec.m == m


def test_a_graph_of_small_weights_counts_against_its_own_degree(karate):
    # every row sum of 1e-10 * karate lies below 1: a truncated d_max of 0
    # made the threshold 0, counted all 34 eigenvalues and ended the fit in
    # ZeroDivisionError
    x = 1e-10 * karate
    fitted = npt.fit(x)
    assert fitted.k_estimate.k_hat == 0 and fitted.k == 1
    assert fitted.k_estimate.threshold == pytest.approx(
        2.01 * np.log(34) * 1.7e-9, rel=1e-14)


def test_estimate_k_on_simulated_block_model():
    params = npt.model1_params(400, 80, 0.2, 0.9)
    x = npt.sample_adjacency(npt.build_mean_matrix(params), seed=0)
    spec, est = npt.grow_spectrum(x, 50)
    assert est.k_hat == 3 and spec.m == 50


def _dense_magnitudes(x):
    dense = x.toarray() if scipy.sparse.issparse(x) else x
    return np.sort(np.abs(np.linalg.eigvalsh(dense)))[::-1]


def _dense_k_hat(x):
    return int(np.sum(_dense_magnitudes(x) ** 2
                      > 2.01 * np.log(x.shape[0]) * npt.max_degree(x)))


def _assert_bounds_next(est, x):
    # next_bound lies below the threshold's root and above |d_{k+1}|
    mags = _dense_magnitudes(x)
    assert est.next_bound ** 2 < est.threshold
    assert mags[est.k_hat] <= est.next_bound * (1 + 1e-12)


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_certified_bound_is_not_below_the_next_eigenvalue(form):
    # the deflated check certifies K = 3 here; at a 1e-3 stop and with no
    # margin its bound read 22.0810, below the dense |d_4| = 22.0845
    x = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model1_params(2000, 400, 0.2, 0.15)), seed=2)
    d4 = _dense_magnitudes(x)[3]
    if form == "csr":
        x = scipy.sparse.csr_array(x)
    spec, est = npt.grow_spectrum(x)
    assert est.k_hat == spec.m == 3
    assert est.next_bound >= d4
    assert est.next_bound ** 2 < est.threshold


def test_grow_spectrum_matches_the_full_spectrum(karate):
    # the first pair below the threshold, or the deflated bound on it,
    # decides K, so the K of the whole spectrum comes from fewer pairs
    model1 = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model1_params(400, 80, 0.2, 0.9)), seed=0)
    model2 = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model2_params(300, 60, 0.2, 0.3, seed=1)), seed=2)
    for x in (karate, model1, model2, scipy.sparse.csr_array(model2)):
        spec, est = npt.grow_spectrum(x)
        assert est.k_hat == _dense_k_hat(x)
        assert est.k_hat <= spec.m
        _assert_bounds_next(est, x)
    # 52 disjoint 16-cliques: eigenvalue 15 has multiplicity 52 and clears
    # the threshold, so the spectrum grows past 50 pairs to 96
    cliques = scipy.sparse.block_diag([np.ones((16, 16)) - np.eye(16)] * 52,
                                      format="csr")
    spec, est = npt.grow_spectrum(cliques)
    assert est.k_hat == _dense_k_hat(cliques) == 52
    assert spec.m == 96
    assert est.next_bound == pytest.approx(1.0, rel=1e-12)
    assert npt.fit(cliques).k == 52
    # every eigenvalue clears the threshold 2.01 * log(3) * 30 ~ 66: the
    # count is the whole spectrum, with no eigenvalue left to bound
    spec, est = npt.grow_spectrum(np.diag([30.0, 20.0, 10.0]), 2)
    assert est.k_hat == spec.m == 3
    assert est.next_bound == 0.0


SWEEP = {
    "model1-strong": lambda s: npt.model1_params(400, 80, 0.2, 0.9),
    "model1-weak": lambda s: npt.model1_params(400, 80, 0.2, 0.4),
    "model2-strong": lambda s: npt.model2_params(600, 140, 0.0, 0.9, seed=s),
    "model2-weak": lambda s: npt.model2_params(600, 140, 0.2, 0.7, seed=s),
    # the n = 1500 designs of the benchmark's mc-dense and pvalue-matrix
    "n1500-model1-strong": lambda s: design_params(1, 1500, 300, 0.2, 0.9, s),
    "n1500-model2-strong": lambda s: design_params(2, 1500, 300, 0.2, 0.9, s),
}


@pytest.mark.parametrize("design", sorted(SWEEP))
def test_grown_k_equals_the_dense_k(design):
    # strong designs have K = 3, which the deflated bound certifies from 3
    # pairs, above the dense |d_4|; weak ones stop at a retained pair below
    # the threshold
    for seed in range(3):
        x = npt.sample_adjacency(npt.build_mean_matrix(
            SWEEP[design](10 + seed)), seed=seed)
        spec, est = npt.grow_spectrum(x)
        assert est.k_hat == _dense_k_hat(x)
        assert spec.m == 3
        assert (est.k_hat == 3) == design.endswith("strong")
        _assert_bounds_next(est, x)


# (model, n, signal, seed) of graphs from weak to strong signal; the two
# seeded 23 and 16 gave the largest bare shortfalls of |theta| + ||r||
# below |d_4| (1.30% and 1.05%) in a sweep of 215 graphs
BOUND_GRAPHS = [(1, 400, 0.2, 0), (1, 400, 0.9, 23), (1, 800, 0.5, 16),
                (1, 800, 0.9, 0), (2, 400, 0.5, 0), (2, 400, 0.9, 0),
                (2, 800, 0.5, 0), (2, 800, 0.9, 0)]


@pytest.mark.parametrize("model, n, signal, seed", BOUND_GRAPHS)
def test_next_bound_is_not_below_the_dense_next_eigenvalue(model, n, signal,
                                                          seed):
    # where the deflated check decides K, its widened bound lies above the
    # dense |d_{k+1}|, and the count is the whole spectrum's
    x = npt.sample_adjacency(npt.build_mean_matrix(design_params(
        model, n, n // 5, 0.2, signal, 1000 + seed)), seed=2000 + seed)
    spec, est = npt.grow_spectrum(x)
    assert est.k_hat == _dense_k_hat(x)
    _assert_bounds_next(est, x)


def _rotated(values, seed):
    # symmetric matrix with the given eigenvalues; the first eigenvector is
    # constant, so every row sums to values[0]
    n = len(values)
    a = np.random.default_rng(seed).standard_normal((n, n))
    a[:, 0] = 1.0
    q, _ = np.linalg.qr(a)
    x = (q * values) @ q.T
    return (x + x.T) / 2


def test_undecided_bound_falls_back_to_the_doubled_solve(monkeypatch):
    # d_4 sits just below the threshold's root, closer than the loose
    # residual of the deflated solve can tell apart, so the top 6 pairs
    # are solved at full precision and decide K = 3; every row sums to
    # d_1, so d_max is d_1
    n, dmax = 300, 100.5
    root = np.sqrt(2.01 * np.log(n) * dmax)
    rng = np.random.default_rng(0)
    values = np.concatenate([[dmax, 60.0, -50.0, root * (1 - 1e-9)],
                             rng.uniform(-0.9, 0.9, n - 4) * root])
    x = _rotated(values, 1)
    assert npt.max_degree(x) == pytest.approx(dmax, rel=1e-12)
    seen = []

    def spy(x, spec):
        seen.append(deflated_ritz(x, spec))
        return seen[-1]

    monkeypatch.setattr(estimation, "deflated_ritz", spy)
    spec, est = npt.grow_spectrum(x)
    ((theta, resid),) = seen
    assert abs(theta) - resid < root < abs(theta) + resid
    assert spec.m == 6
    assert est.k_hat == _dense_k_hat(x) == 3
    assert est.next_bound == abs(spec.values[3])


def test_next_bound_of_a_count():
    # the retained value after the count, else nothing left: d_max is 20,
    # so -5 falls below 2.01 log(3) * 20 and bounds the next eigenvalue;
    # with d_max 9 on 2 nodes, both values clear the threshold and no
    # eigenvalue is left to bound
    spec, est = npt.grow_spectrum(np.diag([20.0, -5.0, 1.0]))
    assert est.k_hat == 1 and spec.m == 3
    assert est.next_bound == 5.0
    spec, est = npt.grow_spectrum(np.diag([9.0, -5.0]))
    assert est.k_hat == spec.m == 2
    assert est.next_bound == 0.0


def test_grow_spectrum_is_bit_reproducible():
    # the deflated check runs from the fixed ARPACK start vector, so two
    # calls return the same bits
    x = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model1_params(400, 80, 0.2, 0.9)), seed=0)
    (spec1, est1), (spec2, est2) = npt.grow_spectrum(x), npt.grow_spectrum(x)
    assert est1.k_hat == spec1.m == 3  # decided by the deflated check
    assert spec1.values.tobytes() == spec2.values.tobytes()
    assert spec1.vectors.tobytes() == spec2.vectors.tobytes()
    assert spec1.residuals.tobytes() == spec2.residuals.tobytes()
    assert est1 == est2


def test_grow_spectrum_and_the_residual_copy_their_input_once(monkeypatch):
    # an F-ordered x is converted to C order once at the top, not again by
    # each solve (the top 3 pairs, then the deflated check); the residual
    # converts it too, where BLAS would copy it silently
    x = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model1_params(400, 80, 0.2, 0.9)), seed=0)
    spec, est = npt.grow_spectrum(x)
    copies = []
    contiguous = np.ascontiguousarray

    def counted(a, *args, **kwargs):
        out = contiguous(a, *args, **kwargs)
        if not np.shares_memory(out, a):
            copies.append(out.shape)
        return out

    monkeypatch.setattr(np, "ascontiguousarray", counted)
    f_spec, f_est = npt.grow_spectrum(np.asfortranarray(x))
    assert copies == [x.shape]
    assert f_est.k_hat == est.k_hat == 3
    assert f_spec.vectors.tobytes() == spec.vectors.tobytes()
    copies.clear()
    w0 = npt.diag_residual_square(np.asfortranarray(x), spec, 3)
    assert copies == [x.shape]
    monkeypatch.undo()
    assert w0.tobytes() == npt.diag_residual_square(x, spec, 3).tobytes()
    assert npt.grow_spectrum(x.tolist())[1].k_hat == est.k_hat


# ------------------------------------------------------------ refinement

def test_residual_matrix_rank_removal():
    # the package never forms W0 = X - V_k D_k V_k^T, only diag(W0^2)
    x = np.diag([5.0, 3.0, 1.0])
    spec = npt.top_eigenpairs(x, 3)
    w0 = residual_matrix(x, spec, 2)
    assert np.allclose(w0, np.diag([0.0, 0.0, 1.0]), atol=1e-12)
    assert np.allclose(npt.diag_residual_square(x, spec, 2), [0.0, 0.0, 1.0],
                       atol=1e-12)
    assert np.array_equal(residual_matrix(x, spec, 0), x)
    assert np.array_equal(npt.diag_residual_square(x, spec, 0),
                          [25.0, 9.0, 1.0])
    with pytest.raises(ValueError):
        npt.diag_residual_square(x, spec, 4)


def test_the_residual_reads_the_spectrum_product(karate, karate_csr):
    # diag(W0^2) from the spectrum's X V equals the formula that forms
    # x @ V again
    simulated = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model2_params(300, 60, 0.2, 0.9, seed=1)), seed=2)
    for x in (karate, karate_csr, simulated,
              scipy.sparse.csr_array(simulated)):
        spec = npt.top_eigenpairs(x, 4)
        dense = x.toarray() if scipy.sparse.issparse(x) else x
        for k in (1, 2, 3, 4):
            v, d = spec.vectors[:, :k], spec.values[:k]
            want = np.einsum("ij,ij->i", dense, dense) \
                - 2.0 * np.einsum("ik,ik->i", x @ v, v * d) + (v * v) @ (d * d)
            got = npt.diag_residual_square(x, spec, k)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _spectrum_errors():
    """(fit's k, spectrum) pairs of karate that ``fit`` must refuse, with
    the start of each message."""
    spec = npt.top_eigenpairs(npt.load_edge_list(
        npt.karate_club_path(), indexing="one_based"), 3)
    other = npt.top_eigenpairs(np.ones((30, 30)) - np.eye(30), 3)
    return [
        (2, other, "spectrum vectors must be 34 x 3, got shape (30, 3)"),
        (3, replace(spec, values=spec.values[:2]),
         "spectrum vectors must be 34 x 2, got shape (34, 3)"),
        (3, replace(spec, values=spec.values[:2], vectors=spec.vectors[:, :2],
                    products=spec.products[:, :2]),
         "k=3 exceeds retained spectrum size 2"),
        (2, replace(spec, products=spec.products[:, :2]),
         "spectrum products must be 34 x 3, got shape (34, 2)"),
        (2, replace(spec, products=spec.products.T),
         "spectrum products must be 34 x 3, got shape (3, 34)"),
        (2, replace(spec, products=None),
         "spectrum products must be 34 x 3, got shape ()"),
    ]


@pytest.mark.parametrize("case", range(6))
def test_fit_checks_a_supplied_spectrum(karate, karate_csr, case):
    # a spectrum of another graph failed with numpy's matmul message; each
    # of these now fails with the message fit documents
    k, spec, message = _spectrum_errors()[case]
    for x in (karate, karate_csr):
        with pytest.raises(ValueError) as exc:
            npt.fit(x, k, spectrum=spec)
        assert str(exc.value) == message
    with pytest.raises(TypeError, match="spectrum must be a Spectrum"):
        npt.fit(karate, 2, spectrum=spec.vectors)


def test_refine_eigenvalues_closed_form():
    # single eigenvector e1, eigenvalue 2, residual row sum of squares s:
    # refined value is 1 / (1/2 + s/8)
    x = np.diag([2.0, 0.0])
    spec = npt.top_eigenpairs(x, 1)
    w0 = np.array([[1.0, 2.0], [2.0, 0.0]])
    s = 1.0 + 4.0
    d_tilde = npt.refine_eigenvalues(spec, np.sum(w0 * w0, axis=1), 1)
    assert d_tilde[0] == pytest.approx(1.0 / (0.5 + s / 8.0), rel=1e-12)


def test_refine_shrinks_magnitude():
    rng = np.random.default_rng(0)
    for seed in range(5):
        a = np.random.default_rng(seed).random((12, 12))
        x = ((a + a.T) > 1.0).astype(float)
        np.fill_diagonal(x, 0)
        spec = npt.top_eigenpairs(x, 3)
        if np.any(np.abs(spec.values[:3])
                  <= 12 * np.finfo(float).eps * abs(spec.values[0])):
            continue
        d_tilde = npt.refine_eigenvalues(
            spec, npt.diag_residual_square(x, spec, 3), 3)
        assert np.all(np.abs(d_tilde) <= np.abs(spec.values[:3]) + 1e-12)
        assert np.all(np.sign(d_tilde) == np.sign(spec.values[:3]))


def _kept(call):
    """``call()``, or None where it refuses the scale of its matrix."""
    try:
        return call()
    except ValueError as exc:
        assert str(exc) == "adjacency matrix scale leaves the float range"
        return None


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_a_scaled_graph_keeps_its_statistics_or_is_refused(karate, form):
    # at a fixed K, T and G do not change when X is scaled by c > 0; where
    # the refinement's cubes or the K count's squares would leave the normal
    # float range the call is refused by name: d**3 overflowed or underflowed
    # with only a RuntimeWarning and a wrong statistic (T -61% and G +87% at
    # c = 1e-110), and the deflated bound's square raised OverflowError. The
    # K count is not scale-free (its threshold is linear in c), so a fit at
    # estimated K is compared with the unscaled fit at the K it chose
    stats = {name: getattr(npt, name)(karate, 0, 1, k_override=3).statistic
             for name in ("test_T", "test_G")}
    kept = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in range(-300, 301, 10):
            c = 10.0 ** e
            x = c * karate
            if form == "csr":
                x = scipy.sparse.csr_array(x)
            for name, want in stats.items():
                got = _kept(lambda: getattr(npt, name)(x, 0, 1, k_override=3))
                if got is not None:
                    assert got.statistic == pytest.approx(want, rel=1e-8)
                    kept.append((e, name))
            grown = _kept(lambda: npt.grow_spectrum(x))
            if grown is None:
                continue
            spec, est = grown
            ref = npt.top_eigenpairs(karate, spec.m).values
            assert np.allclose(spec.values / c, ref, rtol=0,
                               atol=1e-8 * ref[0])
            k = max(est.k_hat, 1)
            try:
                fitted = _kept(lambda: npt.fit(x))
            except ZeroDivisionError:  # a zero eigenvalue among the top k
                with pytest.raises(ZeroDivisionError):
                    npt.fit(karate, k)
                continue
            if fitted is not None:
                assert fitted.k == k
                assert np.allclose(fitted.d_tilde / c,
                                   npt.fit(karate, k).d_tilde, rtol=1e-8,
                                   atol=0)
                kept.append((e, "fit"))
    assert {(0, "test_T"), (0, "test_G"), (0, "fit")} <= set(kept)
    assert not {e for e, _ in kept} & {-300, 300}


def test_fit_refines_once_from_the_initial_residual(karate, karate_csr):
    # d_tilde from diag(W0^2) in O(nnz k) equals the one from the n x n W0
    params = npt.model2_params(300, 60, 0.2, 0.9, seed=1)
    simulated = npt.sample_adjacency(npt.build_mean_matrix(params), seed=2)
    for x, m, k in ((karate, 3, 2), (karate_csr, 3, 2), (simulated, 6, 3),
                    (scipy.sparse.csr_array(simulated), 6, 3)):
        spec = npt.top_eigenpairs(x, m)
        fitted = npt.fit(x, k, spectrum=spec)
        w0 = residual_matrix(x, spec, k)
        diag_ref = np.sum(w0 * w0, axis=1)
        assert np.allclose(npt.diag_residual_square(x, spec, k), diag_ref,
                           rtol=1e-12, atol=0)
        ref = npt.refine_eigenvalues(spec, diag_ref, k)
        assert np.allclose(fitted.d_tilde, ref, rtol=1e-12, atol=0)
        assert fitted.vectors.shape == (x.shape[0], k)
        assert np.array_equal(fitted.values, spec.values[:k])
    spec = npt.top_eigenpairs(karate, 3)
    with pytest.raises(ValueError):
        npt.fit(karate, -1, spectrum=spec)
    with pytest.raises(ValueError):
        npt.fit(karate, 4, spectrum=spec)
    with pytest.raises(ValueError, match="fixed k"):
        npt.fit(karate, spectrum=spec)


def test_fit_requests_only_the_pairs_it_uses(karate):
    assert npt.fit(karate, 3).spectrum.m == 3
    assert npt.fit(karate, 0).spectrum.m == 1
    # k_hat = 0 on karate: the first budget of 3 pairs already decides it
    assert npt.fit(karate).spectrum.m == 3


def test_fit_rejects_k_outside_the_node_range(karate, karate_csr):
    for x in (karate, karate_csr):
        for k in (-1, 35, 100):
            with pytest.raises(ValueError) as exc:
                npt.fit(x, k)
            assert str(exc.value) == f"k must lie in [0, 34], got {k}"
    with pytest.raises(ValueError, match=r"k must lie in \[0, 34\], got 35"):
        npt.test_T(karate, 0, 1, k_override=35)
    with pytest.raises(ValueError, match=r"k must lie in \[0, 34\], got 40"):
        npt.pvalue_matrix(karate, [0, 1, 2], method="G", k_override=40)


def test_fit_checks_the_floor_before_the_solve(karate, karate_csr,
                                             monkeypatch):
    # floor=True gave a Fit whose k was True, 1.5 a TypeError from a slice,
    # 40 the retained-spectrum error and -3 K = 0 on karate
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking floor")

    monkeypatch.setattr(estimation, "grow_spectrum", no_solve)
    for x in (karate, karate_csr):
        for floor in (True, np.True_, 1.5, np.float64(2.0), "2", None):
            with pytest.raises(ValueError, match="floor must be an integer"):
                npt.fit(x, floor=floor)
        for floor in (-3, -1, 35, 40):
            with pytest.raises(ValueError) as exc:
                npt.fit(x, floor=floor)
            assert str(exc.value) == f"floor must lie in [0, 34], got {floor}"
    monkeypatch.undo()
    # karate's estimate is 0; a floor past the pairs it solved solves them
    assert npt.fit(karate).k_estimate.k_hat == 0
    fitted = npt.fit(karate, floor=np.int64(5))
    assert fitted.k == 5 and type(fitted.k) is int
    assert fitted.spectrum.m == 5
    assert fitted.d_tilde.tobytes() == npt.fit(karate, 5).d_tilde.tobytes()


def _one_edge(n):
    x = np.zeros((n, n))
    x[0, 1] = x[1, 0] = 1.0
    return x


@pytest.mark.parametrize("n", [6, 60])
def test_zero_eigenvalue_guard_is_relative(n, monkeypatch):
    # eigenvalues 1, -1, then zeros; ARPACK returns a zero as a tiny
    # nonzero number, which must not be refined into garbage
    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    x = _one_edge(n)
    values = npt.top_eigenpairs(x, 3).values
    assert np.allclose(values[:2], [1.0, -1.0], rtol=1e-14)
    assert abs(values[2]) <= n * np.finfo(float).eps
    with pytest.raises(ZeroDivisionError):
        npt.fit(x, 3)
    with pytest.raises(ZeroDivisionError):
        npt.fit(scipy.sparse.csr_array(x), 3)
    assert npt.fit(x, 2).d_tilde.shape == (2,)


def test_fit_on_csr_allocates_no_n_by_n_array():
    # a sparse graph as the edge-list path produces it: n = 3000, about
    # 60 neighbours per node
    n = 3000
    x = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model2_params(n, 500, 0.2, 0.3, seed=0)), seed=0)
    csr = scipy.sparse.csr_array(x)
    del x
    npt.fit(csr, floor=2)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        fitted = npt.fit(csr, floor=2)
        pm = npt.pvalue_matrix(csr, [0, 1, 600, 2900], method="G")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fitted.k >= 2 and np.isfinite(pm.matrix).all()
    assert peak < n * n * 8 / 20


def _full_sigma2(fitted):
    # reference: the whole n x n refined residual, symmetrized and squared
    v = fitted.vectors
    x = fitted.x.toarray() if scipy.sparse.issparse(fitted.x) else fitted.x
    w_hat = x - (v * fitted.d_tilde[None, :]) @ v.T
    w_hat = (w_hat + w_hat.T) / 2.0
    return w_hat * w_hat


def test_refined_residual_symmetric_and_squared(karate, karate_csr):
    # Fit.sigma2_rows forms rows i, j of ((W_hat + W_hat^T) / 2)^2 without
    # the n x n matrix, and sigma2[i, j] equals sigma2[j, i] to the last bit
    params = npt.model2_params(300, 60, 0.2, 0.9, seed=1)
    simulated = npt.sample_adjacency(npt.build_mean_matrix(params), seed=2)
    for x, k, pairs in ((karate, 2, [(6, 12), (0, 33), (2, 26)]),
                        (karate_csr, 2, [(6, 12), (0, 33)]),
                        (simulated, 3, [(0, 1), (180, 181), (5, 250)])):
        fitted = npt.fit(x, k)
        full = _full_sigma2(fitted)
        scale = np.max(full)
        for i, j in pairs:
            s_i, s_j = fitted.sigma2_rows([i, j])
            assert np.allclose(s_i, full[i], rtol=1e-12, atol=1e-14 * scale)
            assert np.allclose(s_j, full[j], rtol=1e-12, atol=1e-14 * scale)
            assert s_i[j] == s_j[i]


# ------------------------------------------------- covariance assembly

def _random_case(seed, n, k):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vectors = q[:, :k]
    values = np.sort(rng.uniform(1.0, 4.0, size=k))[::-1]
    t = values * rng.uniform(0.95, 1.05, size=k)
    s = rng.random((n, n))
    sigma2 = (s + s.T) / 2
    return vectors, values, t, sigma2


@pytest.mark.parametrize("seed", range(6))
def test_sigma1_matches_brute_force(seed):
    n, k = 8, 3
    vectors, values, _, sigma2 = _random_case(seed, n, k)
    i, j = 1, 5
    model = GivenModel(vectors, values, values, sigma2)
    fast = npt.estimate_sigma1(model, i, j).matrix
    slow = brute_sigma1(vectors, values, sigma2, i, j)
    assert np.allclose(fast, slow, atol=1e-12)
    assert np.allclose(fast, fast.T, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_sigma2_matches_brute_force(seed):
    n, k = 8, 3
    vectors, values, t, sigma2 = _random_case(seed, n, k)
    i, j = 0, 6
    fast = npt.estimate_sigma2(GivenModel(vectors, values, t, sigma2),
                               i, j).matrix
    slow = brute_sigma2(vectors, values, t, sigma2, i, j)
    assert np.allclose(fast, slow, atol=1e-12)


def test_estimate_sigma_validation(karate, karate_spectrum):
    spec = karate_spectrum
    fitted = npt.fit(karate, 2, spectrum=spec)
    with pytest.raises(ValueError):
        npt.estimate_sigma1(fitted, 3, 3)
    with pytest.raises(ValueError, match="the T test needs k >= 1"):
        npt.estimate_sigma1(npt.fit(karate, 0, spectrum=spec), 0, 1)
    with pytest.raises(ValueError, match="the G test needs k >= 2"):
        npt.estimate_sigma2(npt.fit(karate, 1, spectrum=spec), 0, 1)
    cov = npt.estimate_sigma1(fitted, 6, 12)
    assert cov.matrix.shape == (2, 2)
    assert np.isfinite(cov.condition_estimate)


def test_estimate_sigma2_degenerate_node():
    # disconnected graph: leading eigenvector vanishes on the smaller
    # component, so ratio covariances there are undefined
    x = np.zeros((7, 7))
    x[:4, :4] = 1.0 - np.eye(4)
    x[4:, 4:] = 1.0 - np.eye(3)
    fitted = npt.fit(x, 2, spectrum=npt.top_eigenpairs(x, 3))
    with pytest.raises(DegenerateNodeError):
        npt.estimate_sigma2(fitted, 4, 5)
    # a stack names its first degenerate node, and fails as a whole
    with pytest.raises(DegenerateNodeError, match="at node 5 is"):
        npt.estimate_sigma2(fitted, [0, 5, 4], [1, 0, 6])
    # the one-pair test names node i before node j, and a p-value matrix
    # fails exactly the pairs that touch a degenerate node
    for (i, j), node in (((0, 5), 5), ((5, 0), 5), ((4, 5), 4)):
        with pytest.raises(DegenerateNodeError,
                           match=f"^leading-eigenvector entry at node {node} "
                                 f"is degenerate$") as exc:
            npt.test_G(fitted, i, j)
        assert exc.value.node == node
    pm = npt.pvalue_matrix(fitted, [0, 1, 4, 5], "G").matrix
    touches = np.zeros((4, 4), dtype=bool)
    touches[2:], touches[:, 2:] = True, True
    touches[[2, 3], [2, 3]] = False
    assert np.array_equal(np.isnan(pm), touches)


@pytest.mark.parametrize("sigma", [npt.estimate_sigma1, npt.estimate_sigma2])
def test_stacked_estimates_equal_the_one_pair_estimates(karate_csr, sigma):
    fitted = npt.fit(karate_csr, 3)
    i, j = np.array([6, 12, 0, 33]), np.array([12, 6, 33, 2])
    stacked = sigma(fitted, i, j)
    r = fitted.k - (sigma is npt.estimate_sigma2)
    assert stacked.matrix.shape == (4, r, r)
    assert stacked.condition_estimate.shape == (4,)
    for s, (a, b) in enumerate(zip(i, j)):
        one = sigma(fitted, int(a), int(b))
        assert one.matrix.shape == (r, r)
        assert isinstance(one.condition_estimate, float)
        assert np.array_equal(stacked.matrix[s], one.matrix)
        assert stacked.condition_estimate[s] == one.condition_estimate
    # the covariance of a pair does not depend on the order of its nodes
    assert np.array_equal(stacked.matrix[0], stacked.matrix[1])
    with pytest.raises(ValueError, match="equal-length"):
        sigma(fitted, i, j[:3])
    with pytest.raises(ValueError, match="distinct"):
        sigma(fitted, i, np.array([12, 6, 0, 2]))


@pytest.mark.parametrize("sigma, method",
                         [(npt.estimate_sigma1, "T"),
                          (npt.estimate_sigma2, "G")])
def test_zero_pairs_are_an_empty_stack(karate_csr, sigma, method):
    # on a Fit, an oracle ground truth and node moments alike; [] reads as
    # integer nodes, while a non-integer node still fails
    fitted = npt.fit(karate_csr, 3)
    truth = npt.ground_truth(npt.model1_params(120, 24, 0.2, 0.9))
    r = 3 - estimation.MIN_K[method] + 1
    for model in (fitted, replace(truth, t=truth.values),
                  estimation.node_moments(fitted, [0, 6], method)):
        for empty in ([], np.array([], dtype=int)):
            cov = sigma(model, empty, empty)
            assert cov.matrix.shape == (0, r, r)
            assert cov.condition_estimate.shape == (0,)
    with pytest.raises(ValueError, match="nodes must be integers"):
        sigma(fitted, [0.5], [1.5])
    # an empty input that is not one-dimensional is no stack of pairs
    for empty in ([[]], np.empty((0, 2), dtype=int)):
        with pytest.raises(ValueError, match="equal-length node arrays"):
            sigma(fitted, empty, empty)


@pytest.mark.parametrize("sigma, method",
                         [(npt.estimate_sigma1, "T"),
                          (npt.estimate_sigma2, "G")])
def test_node_moments_stand_in_for_their_fit(karate_csr, sigma, method):
    fitted = npt.fit(karate_csr, 3)
    i, j = np.array([6, 12, 0, 33]), np.array([12, 6, 33, 2])
    # node moments hold their nodes in the order given, and a pair of them
    # is named by its rows: 12, 6, 33 and 2 at rows 1, 0, 3 and 4
    nodes = [6, 12, 0, 33, 2]
    p, q = np.array([0, 1, 2, 3]), np.array([1, 0, 3, 4])
    mom = estimation.node_moments(fitted, nodes, method)
    on_fit, on_moments = sigma(fitted, i, j), sigma(mom, p, q)
    assert np.array_equal(on_moments.matrix, on_fit.matrix)
    assert np.array_equal(on_moments.condition_estimate,
                          on_fit.condition_estimate)
    # the contrast is as wide as the test has degrees of freedom
    assert mom.contrast.shape == (len(nodes),
                                  fitted.k - estimation.MIN_K[method] + 1)


def test_node_moments_guards(karate_csr):
    fitted = npt.fit(karate_csr, 3)
    mom = estimation.node_moments(fitted, [0, 6, 12], "T")
    with pytest.raises(ValueError, match="these are moments of the T test"):
        npt.estimate_sigma2(mom, 0, 6)
    with pytest.raises(ValueError, match=r"^row 6 outside the row range "
                                         r"\[0, 3\)$"):
        npt.estimate_sigma1(mom, [0, 6], [1, 2])
    with pytest.raises(ValueError, match=r"^row -1 outside the row range "
                                         r"\[0, 3\)$"):
        npt.estimate_sigma1(mom, 0, -1)


def test_degenerate_nodes_are_never_divided_by():
    # the leading eigenvector vanishes on the smaller component: its nodes
    # are marked degenerate once, with NaN contrast and moments, and no
    # division by their entries
    x = np.zeros((7, 7))
    x[:4, :4] = 1.0 - np.eye(4)
    x[4:, 4:] = 1.0 - np.eye(3)
    fitted = npt.fit(x, 2, spectrum=npt.top_eigenpairs(x, 3))
    with np.errstate(divide="raise", invalid="raise"):
        mom = estimation.node_moments(fitted, np.arange(7), "G")
    assert list(mom.degenerate) == [False] * 4 + [True] * 3
    assert np.isnan(mom.contrast[4:]).all()
    assert np.isnan(mom.moments[4:]).all()
    assert np.isfinite(mom.contrast[:4]).all()
