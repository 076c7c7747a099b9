import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import netpairtest as npt
from netpairtest.estimation import degeneracy_threshold
from netpairtest.spectra import (Spectrum, _sort_order, deflated_ritz,
                                 orient_signs)


def _random_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def test_known_eigenvalues():
    # eigenvalues 3, -3, 1 via an orthogonal conjugation; magnitude ordering
    # puts 3 before -3 (tie broken toward the positive value), then 1
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    x = q @ np.diag([3.0, -3.0, 1.0]) @ q.T
    spec = npt.top_eigenpairs(x, 3)
    assert np.allclose(spec.values, [3.0, -3.0, 1.0], atol=1e-10)


def test_invariants_random_matrix():
    x = _random_symmetric(1, 30)
    spec = npt.top_eigenpairs(x, 10)
    spec.check()
    assert spec.m == 10
    # magnitudes nonincreasing
    assert np.all(np.diff(np.abs(spec.values)) <= 1e-12)


def test_full_reconstruction():
    x = _random_symmetric(2, 15)
    spec = npt.top_eigenpairs(x, 15)
    recon = (spec.vectors * spec.values[None, :]) @ spec.vectors.T
    assert np.allclose(recon, x, atol=1e-10)


def test_top_eigenpairs_is_bit_identical_across_calls(karate_csr):
    simulated = npt.sample_adjacency(npt.build_mean_matrix(
        npt.model2_params(300, 60, 0.2, 0.9, seed=1)), seed=2)
    # eigenvalue 15 of multiplicity 52: Lanczos breaks down and ARPACK
    # draws restart vectors, from a fixed generator
    cliques = scipy.sparse.block_diag([np.ones((16, 16)) - np.eye(16)] * 52,
                                      format="csr")
    for x in (karate_csr, simulated, cliques):
        a, b = npt.top_eigenpairs(x, 12), npt.top_eigenpairs(x, 12)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.residuals, b.residuals)


def test_dense_and_sparse_input_agree(karate, karate_csr):
    a, b = npt.top_eigenpairs(karate, 6), npt.top_eigenpairs(karate_csr, 6)
    assert np.allclose(a.values, b.values, rtol=1e-13, atol=0)
    assert np.allclose(a.vectors, b.vectors, rtol=0, atol=1e-12)
    # ARPACK agrees with the dense eigendecomposition (m = n)
    full = npt.top_eigenpairs(karate, 34)
    assert np.allclose(a.values, full.values[:6], rtol=1e-13, atol=0)
    assert np.allclose(a.vectors, full.vectors[:, :6], rtol=0, atol=1e-12)


def test_deflated_ritz_bounds_the_next_eigenvalue():
    # eigenvalues 10, -8, 5, then a bulk in [-3, 3]: with the top two pairs
    # deflated, the loose Ritz value lies within its residual of 5
    rng = np.random.default_rng(4)
    n = 200
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    x = (q * np.concatenate([[10.0, -8.0, 5.0],
                             rng.uniform(-3.0, 3.0, n - 3)])) @ q.T
    x = (x + x.T) / 2
    spec = npt.top_eigenpairs(x, 2)
    theta, resid = deflated_ritz(x, spec)
    assert abs(theta - 5.0) <= resid < 0.05
    assert deflated_ritz(x, spec) == (theta, resid)
    theta_csr, resid_csr = deflated_ritz(scipy.sparse.csr_array(x), spec)
    assert abs(theta_csr - 5.0) <= resid_csr < 0.05
    # n = 2 is too small for ARPACK
    small = np.diag([3.0, 1.0])
    assert deflated_ritz(small, npt.top_eigenpairs(small, 1)) is None


def test_sort_order_ties_put_the_positive_value_first():
    eps = np.finfo(float).eps
    # magnitudes tied to the last bits, the negative one larger
    assert list(_sort_order(np.array([0.0, -(1.0 + 2 * eps), 1.0]), 3)) == \
        [2, 1, 0]
    # a real gap stays a gap
    assert list(_sort_order(np.array([1.0 - 1e-9, -1.0]), 2)) == [1, 0]


@pytest.mark.parametrize("graph", ["star", "cycle"])
def test_plus_minus_pair_order_matches_eigh(graph, monkeypatch):
    # bipartite graphs have eigenvalues in +/- pairs; both solvers must
    # put the positive member first, as v_1 is the G test's denominator
    n = 60
    x = np.zeros((n, n))
    if graph == "star":
        x[0, 1:] = x[1:, 0] = 1.0
        m = 3
    else:
        idx = np.arange(n)
        x[idx, (idx + 1) % n] = x[(idx + 1) % n, idx] = 1.0
        m = 2
    dense = npt.top_eigenpairs(x, n)  # m >= n - 1: dense eigh

    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for operand in (x, scipy.sparse.csr_array(x)):
        spec = npt.top_eigenpairs(operand, m)
        assert spec.values[0] > 0 > spec.values[1]
        assert np.allclose(spec.values, dense.values[:m], rtol=1e-13,
                           atol=1e-13)
        # the same eigenvectors up to sign (entries tie in magnitude, so
        # the sign convention may pick either)
        overlap = np.abs(spec.vectors[:, :2].T @ dense.vectors[:, :2])
        assert np.allclose(overlap, np.eye(2), rtol=0, atol=1e-12)


def test_m_bounds():
    x = _random_symmetric(3, 5)
    with pytest.raises(ValueError):
        npt.top_eigenpairs(x, 0)
    with pytest.raises(ValueError):
        npt.top_eigenpairs(x, 6)


def test_orient_signs_idempotent():
    x = _random_symmetric(4, 12)
    spec = npt.top_eigenpairs(x, 5)
    again = orient_signs(spec)
    assert np.array_equal(spec.vectors, again.vectors)
    for k in range(spec.m):
        col = spec.vectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_orient_signs_fixes_flip():
    x = _random_symmetric(5, 12)
    spec = npt.top_eigenpairs(x, 4)
    flipped = Spectrum(values=spec.values, vectors=-spec.vectors,
                       residuals=spec.residuals)
    fixed = orient_signs(flipped)
    assert np.allclose(fixed.vectors, spec.vectors)


def test_degeneracy_threshold_scale(karate_spectrum):
    thr = degeneracy_threshold(karate_spectrum.vectors)
    assert 0 < thr < 1e-9


@pytest.mark.parametrize("m", [1, 3])
def test_tiny_magnitude_input_falls_back_to_the_dense_solver(m):
    # at entries near 1e-300 ARPACK returns d_1 = 7.3e-299 and a first
    # eigenvector of norm 0.14
    spec = npt.top_eigenpairs(np.full((8, 8), 1e-300), m)
    spec.check()
    assert spec.values[0] == pytest.approx(8e-300, rel=1e-12, abs=0)
    assert np.allclose(spec.vectors[:, 0], np.full(8, 8 ** -0.5),
                       rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, (8, 8),
                  elements=st.floats(-5, 5, allow_nan=False)),
       st.integers(1, 8))
@example(np.full((8, 8), 1.11e-308), 1)
def test_property_invariants(a, m):
    x = (a + a.T) / 2
    spec = npt.top_eigenpairs(x, m)
    spec.check()
