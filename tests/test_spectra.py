import threading

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import netpairtest as npt
from netpairtest import spectra
from netpairtest.estimation import degeneracy_threshold
from netpairtest.graph_io import as_matrix
from netpairtest.spectra import (TIE_REL_TOL, Spectrum, _orthonormal,
                                 _product, _sort_order, deflated_ritz)

RESIDUAL_TOL = 1e-6


def _check(spec: Spectrum) -> None:
    """Assert the structural invariants of ``spec`` (ordering,
    orthonormality, residual bounds, sign convention)."""
    mags = np.abs(spec.values)
    if spec.m and np.any(np.diff(mags) > TIE_REL_TOL * max(1.0, mags[0])):
        raise AssertionError("eigenvalue magnitudes not nonincreasing")
    if not _orthonormal(spec.vectors):
        raise AssertionError("eigenvectors not orthonormal")
    bound = RESIDUAL_TOL * max(1.0, mags[0] if spec.m else 1.0)
    if np.any(spec.residuals > bound):
        raise AssertionError("eigen-residual exceeds tolerance")
    for k in range(spec.m):
        col = spec.vectors[:, k]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            raise AssertionError(f"column {k} violates sign convention")


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
    _check(spec)
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


@pytest.fixture(scope="module")
def certified():
    # K = 3, decided by the deflated check on the top 3 pairs
    return npt.sample_adjacency(npt.build_mean_matrix(
        npt.model1_params(400, 80, 0.2, 0.9)), seed=0)


def _fit_bits(x):
    """The bytes of every array that ``fit``, ``grow_spectrum`` and
    ``top_eigenpairs`` return for ``x``."""
    spec, est = npt.grow_spectrum(x)
    fitted, top = npt.fit(x), npt.top_eigenpairs(x, 5)
    arrays = [spec.values, spec.vectors, spec.residuals, spec.products,
              np.array([est.threshold, est.next_bound]), fitted.d_tilde,
              fitted.spectrum.vectors, fitted.spectrum.residuals,
              fitted.spectrum.products, top.values, top.vectors,
              top.residuals, top.products]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_results_do_not_depend_on_the_memory_layout(certified, layout):
    if layout == "fortran":
        x = np.asfortranarray(certified)
    else:
        x = np.zeros((400, 800))[:, ::2]
        x[:] = certified
    assert as_matrix(x).flags.c_contiguous
    assert _fit_bits(x) == _fit_bits(certified)


def _scipy_limit():
    """The per-thread limit of scipy's OpenBLAS, the second of
    :data:`~.spectra._LIMITS`."""
    if None in spectra._LIMITS:
        pytest.skip("numpy's or scipy's BLAS has no per-thread limit")
    return spectra._LIMITS[1]


def _blas_setting(limit):
    """The calling thread's BLAS thread count in scipy's OpenBLAS: its
    per-thread limit returns the setting it replaces."""
    previous = limit(1)
    limit(previous)
    return previous


def test_the_solve_runs_scipy_blas_on_the_calling_thread(certified,
                                                         monkeypatch):
    # inside every ARPACK solve scipy's BLAS runs on the calling thread
    # alone; afterwards the thread has its own setting back, also after a
    # solve that fails (the zero matrix) and on a thread already at 1
    limit = _scipy_limit()
    eigsh, solves = scipy.sparse.linalg.eigsh, []

    def recorded(*args, **kwargs):
        solves.append([_blas_setting(limit), "failed"])
        found = eigsh(*args, **kwargs)
        solves[-1][1] = "solved"
        return found

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
    spec = npt.top_eigenpairs(certified, 3)
    calls = [
        (lambda: npt.top_eigenpairs(certified, 3), ["solved"]),
        (lambda: deflated_ritz(certified, spec), ["solved"]),
        (lambda: npt.grow_spectrum(certified), ["solved", "solved"]),
        (lambda: npt.top_eigenpairs(np.zeros((10, 10)), 2), ["failed"]),
    ]

    def run_all(setting):
        for call, outcomes in calls:
            solves.clear()
            call()
            assert solves == [[1, outcome] for outcome in outcomes]
            assert _blas_setting(limit) == setting

    original = limit(2)
    try:
        run_all(2)
    finally:
        limit(original)
    worker = threading.Thread(target=lambda: (limit(1), run_all(1)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()


def test_without_a_per_thread_limit_the_solve_keeps_the_setting(
        certified, monkeypatch):
    limit = _scipy_limit()
    expected_spec, expected = npt.grow_spectrum(certified)
    eigsh, settings = scipy.sparse.linalg.eigsh, []

    def recorded(*args, **kwargs):
        settings.append(_blas_setting(limit))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
    monkeypatch.setattr(spectra, "_LIMITS", (spectra._LIMITS[0], None))
    original = limit(2)
    try:
        found_spec, found = npt.grow_spectrum(certified)
    finally:
        limit(original)
    assert settings == [2, 2]
    assert found.k_hat == expected.k_hat == 3
    assert np.allclose(found_spec.values, expected_spec.values, rtol=1e-12,
                       atol=0)


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
    # n = 2 is too small for ARPACK; below DEFLATED_NCV the basis is n
    small = np.diag([3.0, 1.0])
    assert deflated_ritz(small, npt.top_eigenpairs(small, 1)) is None
    for n in (3, spectra.DEFLATED_NCV - 1):
        small = np.diag(np.arange(n, 0.0, -1.0))
        theta, resid = deflated_ritz(small, npt.top_eigenpairs(small, 1))
        assert theta == pytest.approx(n - 1.0, rel=1e-12) and resid < 1e-12


def test_deflated_ritz_stops_after_one_arpack_pass(certified, monkeypatch):
    # one pass of the 8-vector basis (DEFLATED_NCV) takes 9 products of x
    # and the residual one more, 10 in all; ARPACK's default 20-vector basis
    # took 22
    spec = npt.top_eigenpairs(certified, 3)
    expected = deflated_ritz(certified, spec)
    build, products = spectra._product, []

    def counted(x):
        product = build(x)

        def count(y):
            products.append(y)
            return product(y)

        return count

    monkeypatch.setattr(spectra, "_product", counted)
    assert deflated_ritz(certified, spec) == expected
    assert len(products) <= 12


@pytest.mark.parametrize("n", [2, 3, 40, 301])
def test_dense_product_matches_matmul(n):
    # dsymv reads the lower triangle and sums in its own order: equal to
    # x @ y up to rounding, for any layout of y
    x = _random_symmetric(n, n)
    product = spectra._product(x)
    ys = np.random.default_rng(n).standard_normal((n, 3))
    for y in (ys[:, 0], ys[:, 1].copy(), ys[:, 2:]):
        want = x @ y.ravel()
        got = product(y)
        assert got.shape == (n,)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    if spectra._SYMV is not None:
        # the upper triangle is not read
        upper = x + np.triu(np.ones((n, n)), 1)
        assert np.array_equal(spectra._product(upper)(ys[:, 0]),
                              product(ys[:, 0]))
    # sparse input and non-arrays keep x @ y
    csr = scipy.sparse.csr_array(x)
    assert np.array_equal(spectra._product(csr)(ys[:, 0]), csr @ ys[:, 0])


def test_without_the_dense_product_the_fallback_agrees(certified,
                                                       monkeypatch):
    # where numpy's BLAS lacks dsymv every product is x @ y: the same
    # spectrum and fit up to rounding
    fast_spec, fast_fit = npt.top_eigenpairs(certified, 3), npt.fit(certified)
    monkeypatch.setattr(spectra, "_SYMV", None)
    spec, fitted = npt.top_eigenpairs(certified, 3), npt.fit(certified)
    for a, b in ((spec.values, fast_spec.values),
                 (fitted.spectrum.values, fast_fit.spectrum.values),
                 (fitted.d_tilde, fast_fit.d_tilde)):
        assert np.allclose(a, b, rtol=1e-12, atol=0)
    for a, b in ((spec.vectors, fast_spec.vectors),
                 (fitted.spectrum.vectors, fast_fit.spectrum.vectors)):
        assert np.allclose(a, b, rtol=0, atol=1e-12)
    assert fitted.k == fast_fit.k == 3
    assert fitted.k_estimate.next_bound == pytest.approx(
        fast_fit.k_estimate.next_bound, rel=1e-12)


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


def test_non_integer_m_rejected_before_any_solve(karate, monkeypatch):
    # a float m reached ARPACK as SystemError, a bool m as TypeError
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking m")

    monkeypatch.setattr(spectra, "_arpack", no_solve)
    for m in (2.0, 2.5, np.float64(3.0), True, np.True_, "2"):
        for call in (npt.top_eigenpairs, npt.grow_spectrum):
            with pytest.raises(ValueError, match="m must be an integer"):
                call(karate, m)
    monkeypatch.undo()
    # numpy integers are integers
    assert npt.top_eigenpairs(karate, np.int64(2)).values.tobytes() == \
        npt.top_eigenpairs(karate, 2).values.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("form", ["dense", "csr"])
def test_non_finite_entry_raises_before_the_dense_solver(karate, form, bad,
                                                         monkeypatch, capfd):
    # the first product of the Lanczos solve is not finite, and raises
    # before ARPACK reads it: LAPACK printed an illegal-value message for
    # it, and the dense fallback returned a NaN spectrum
    x = karate.copy()
    x[0, 1] = x[1, 0] = bad
    if form == "csr":
        x = scipy.sparse.csr_array(x)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran on a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for call in (lambda: npt.top_eigenpairs(x, 2), lambda: npt.fit(x, 2),
                 lambda: npt.fit(x)):
        with pytest.raises(ValueError,
                           match="adjacency matrix entries must be finite"):
            call()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_a_finite_matrix_whose_products_overflow_is_refused(form, capfd):
    # ARPACK read the overflowing products, and LAPACK printed an
    # illegal-value message for them; the dense solver returned inf, and the
    # row sums of max_degree warned and then named the entries non-finite
    x = np.full((50, 50), 1e308)
    if form == "csr":
        x = scipy.sparse.csr_array(x)
    for call in (lambda: npt.top_eigenpairs(x, 2),
                 lambda: npt.top_eigenpairs(x, 49),
                 lambda: npt.max_degree(x),
                 lambda: npt.test_T(x, 0, 1),
                 lambda: npt.test_T(x, 0, 1, k_override=2)):
        with pytest.raises(ValueError,
                           match="^adjacency matrix products overflow$"):
            call()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_deflated_ritz_refuses_a_non_finite_matrix(karate, form, capfd):
    # the deflated solve reads x through the checked product of the top-m
    # solve: ARPACK read a NaN product, LAPACK printed an illegal-value
    # message for it, and the solve returned None
    spec = npt.top_eigenpairs(karate, 3)
    cases = []
    for bad in (np.nan, np.inf):
        x = karate.copy()
        x[0, 1] = x[1, 0] = bad
        cases.append((x, spec, "adjacency matrix entries must be finite"))
    cases.append((np.full((100, 100), 1e308),
                  npt.top_eigenpairs(np.ones((100, 100)), 3),
                  "adjacency matrix products overflow"))
    for x, top, message in cases:
        if form == "csr":
            x = scipy.sparse.csr_array(x)
        with pytest.raises(ValueError, match=f"^{message}$"):
            deflated_ritz(x, top)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("m", [3, 33, 34])
def test_columns_are_signed_before_they_are_multiplied(karate, form, m):
    # ARPACK below m = n - 1 = 33, the dense eigendecomposition from there;
    # each returned column has its largest entry positive, and its product
    # is that of the returned column itself, signed zeros included
    x = karate if form == "dense" else scipy.sparse.csr_array(karate)
    spec = npt.top_eigenpairs(x, m)
    lead = np.argmax(np.abs(spec.vectors), axis=0)
    assert np.all(spec.vectors[lead, np.arange(m)] > 0)
    product = _product(karate) if form == "dense" else (lambda y: x @ y)
    columns = np.column_stack([product(spec.vectors[:, a])
                               for a in range(m)])
    assert spec.products.tobytes() == columns.tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "csr"])
def test_products_are_the_matrix_times_the_vectors(certified, karate,
                                                   layout):
    # the one X V of a solve, read by its residuals and by the refinement,
    # equals x @ V up to rounding whatever the input's layout
    for graph in (certified, karate):
        x = {"C": graph, "F": np.asfortranarray(graph),
             "csr": scipy.sparse.csr_array(graph)}[layout]
        spec = npt.top_eigenpairs(x, 4)
        want = graph @ spec.vectors
        assert spec.products.shape == want.shape
        assert np.all(np.linalg.norm(spec.products - want, axis=0)
                      <= 1e-12 * np.linalg.norm(want, axis=0))
        assert np.array_equal(spec.residuals, np.linalg.norm(
            spec.products - spec.vectors * spec.values, axis=0))


@pytest.mark.parametrize("form", [scipy.sparse.csr_array,
                                  scipy.sparse.csr_matrix])
def test_sparse_products_are_the_column_products(certified, karate_csr,
                                                 form):
    # a sparse x forms X V as one x @ V, equal to the bit to one CSR
    # product per column
    for graph, m in ((karate_csr, 3), (certified, 3), (certified, 20)):
        x = form(graph)
        spec = npt.top_eigenpairs(x, m)
        columns = np.column_stack([x @ spec.vectors[:, a] for a in range(m)])
        assert spec.products.tobytes() == columns.tobytes()


def test_degeneracy_threshold_scale(karate_spectrum):
    thr = degeneracy_threshold(karate_spectrum.vectors)
    assert 0 < thr < 1e-9


@pytest.mark.parametrize("m", [1, 3])
def test_tiny_magnitude_input_falls_back_to_the_dense_solver(m):
    # at entries near 1e-300 ARPACK returns d_1 = 7.3e-299 and a first
    # eigenvector of norm 0.14
    spec = npt.top_eigenpairs(np.full((8, 8), 1e-300), m)
    _check(spec)
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
    _check(spec)
