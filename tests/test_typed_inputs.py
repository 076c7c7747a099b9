"""Counts, shapes, a supplied spectrum and the pair tests' inputs given to
the library fail with typed errors: every call returns, or raises
ValueError, TypeError or one of the pair tests' numerical failures,
whatever it is given, and each error the library raises carries its
documented message."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import netpairtest as npt
from netpairtest import oracle
from netpairtest.inference import TEST_FAILURES

TYPED = (ValueError, TypeError, *TEST_FAILURES)

# ints, out-of-range ints, floats, bools, None, strings and numpy scalars
_ANY = st.one_of(
    st.integers(-3, 12),
    st.floats(-3.0, 12.0) | st.sampled_from([np.nan, np.inf, 2.0]),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.sampled_from([np.int64(2), np.float64(2.0), np.True_]),
)


def _call(f, *args, **kwargs):
    try:
        f(*args, **kwargs)
    except TYPED:
        pass


@settings(max_examples=60, deadline=None)
@given(value=_ANY, sparse=st.booleans(),
       which=st.sampled_from(["top_eigenpairs", "grow_spectrum", "k",
                              "floor"]))
def test_counts_fail_typed(karate, value, sparse, which):
    # a float m reached ARPACK as SystemError
    x = scipy.sparse.csr_array(karate) if sparse else karate
    if which == "top_eigenpairs":
        _call(npt.top_eigenpairs, x, value)
    elif which == "grow_spectrum":
        _call(npt.grow_spectrum, x, value)
    elif which == "k":
        _call(npt.fit, x, value)
    else:
        _call(npt.fit, x, floor=value)


@settings(max_examples=40, deadline=None)
@given(shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                              max_side=4))
def test_mean_matrix_shapes_fail_typed(shape):
    _call(npt.sample_adjacency, np.full(shape, 0.5), 0)


_SMALL = st.one_of(st.integers(-4, 40), _ANY)


@settings(max_examples=80, deadline=None)
@given(model=st.one_of(st.sampled_from([1, 2]), _ANY), n=_SMALL, n0=_SMALL,
       rho=st.one_of(st.floats(-0.5, 1.5), _ANY),
       signal_grid=st.one_of(st.tuples(), st.tuples(_ANY, _ANY),
                             st.lists(st.floats(0.05, 1.0), max_size=3)
                             .map(tuple), _ANY),
       replications=st.one_of(st.integers(-2, 5), _ANY))
def test_experiment_configs_fail_typed(model, n, n0, rho, signal_grid,
                                       replications):
    _call(npt.ExperimentConfig, model=model, n=n, n0=n0, rho=rho,
          signal_grid=signal_grid, replications=replications)


# anything a caller might pass: the values above, nested lists of them and
# nodes of karate (34 nodes) or just outside it
_VALUE = st.one_of(
    _ANY,
    st.recursive(st.one_of(st.integers(-2, 40), st.floats(-1.0, 1.0),
                           st.none(), st.booleans()),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)
_NODE = st.one_of(st.integers(-2, 36), _VALUE)
# a graph of the fixtures, by name, or any value in its place
_X = st.one_of(st.sampled_from(["dense", "sparse", "fit"]).map(lambda g: (g,)),
               _VALUE)
_METHOD = st.one_of(st.sampled_from(["T", "G", "t", "g", "x"]), _VALUE)


def _graph(x, karate, karate_csr):
    if isinstance(x, tuple):
        return {"dense": karate, "sparse": karate_csr,
                "fit": npt.fit(karate, 3)}[x[0]]
    return x


@settings(max_examples=80, deadline=None)
@given(x=_X, i=_NODE, j=_NODE, nodes=st.one_of(st.lists(_NODE, max_size=4),
                                                _VALUE),
       method=_METHOD, k_override=st.one_of(st.none(), _SMALL),
       entry=st.sampled_from(["T", "G", "matrix"]))
def test_pair_tests_fail_typed(karate, karate_csr, x, i, j, nodes, method,
                               k_override, entry):
    # a scalar or string x raised IndexError, and an unknown method reached
    # node_moments as KeyError
    x = _graph(x, karate, karate_csr)
    if entry == "matrix":
        _call(npt.pvalue_matrix, x, nodes, method, k_override)
    else:
        _call(npt.test_T if entry == "T" else npt.test_G, x, i, j,
              k_override)


def _spectrum(name, karate):
    """A spectrum for karate's ``fit``, by name: its own top 3 pairs, those
    of another graph, or too few pairs."""
    spec = npt.top_eigenpairs(karate, 3)
    if name == "own":
        return spec
    if name == "other n":
        return npt.top_eigenpairs(np.ones((30, 30)) - np.eye(30), 3)
    if name == "one pair":
        return replace(spec, values=spec.values[:1],
                       vectors=spec.vectors[:, :1])
    return replace(spec, values=spec.values[:2])


_SPECTRA = ["own", "other n", "one pair", "short values"]
# messages of a supplied spectrum that fit refuses (fit's Raises section)
_SPECTRUM_MESSAGES = r"^(spectrum vectors must be \d+ x \d+, got shape " \
    r"\(.*\)|k=\d+ exceeds retained spectrum size \d+)$"


@settings(max_examples=60, deadline=None)
@given(x=_X, k=st.one_of(st.integers(0, 4), _SMALL),
       spectrum=st.one_of(st.sampled_from(_SPECTRA).map(lambda s: (s,)),
                          _VALUE))
def test_fit_fails_typed(karate, karate_csr, x, k, spectrum):
    x = _graph(x, karate, karate_csr)
    if isinstance(spectrum, tuple):
        spectrum = _spectrum(spectrum[0], karate)
    _call(npt.fit, x, k, spectrum=spectrum)


@settings(max_examples=40, deadline=None)
@given(sparse=st.booleans(), k=st.integers(0, 34),
       name=st.sampled_from(_SPECTRA[1:]))
def test_fit_refuses_a_spectrum_of_another_shape(karate, karate_csr, sparse,
                                                 k, name):
    # a spectrum of another n failed with numpy's matmul message; each
    # spectrum that does not fit karate at k fails with fit's own message
    if name == "one pair" and k <= 1:
        k = 2
    with pytest.raises(ValueError, match=_SPECTRUM_MESSAGES):
        npt.fit(karate_csr if sparse else karate, k,
                spectrum=_spectrum(name, karate))


@settings(max_examples=60, deadline=None)
@given(i=_NODE, j=_NODE, truth=st.booleans(), second=st.booleans())
def test_covariances_fail_typed(karate, i, j, truth, second):
    if truth:
        gt = npt.ground_truth(npt.model1_params(34, 10, 0.2, 0.9))
        model = oracle.replace(gt, t=gt.values)
    else:
        model = npt.fit(karate, 3)
    _call(npt.estimate_sigma2 if second else npt.estimate_sigma1, model, i, j)


@settings(max_examples=40, deadline=None)
@given(alpha=st.one_of(st.floats(-1.0, 2.0), _VALUE))
def test_reject_fails_typed(karate, alpha):
    _call(npt.reject, npt.test_T(karate, 0, 33, k_override=2), alpha)


def _config(**changes):
    """An ExperimentConfig of a valid small design, with ``changes``."""
    settings_ = dict(model=1, n=40, n0=4, rho=0.2, signal_grid=(0.5,),
                     replications=2)
    return npt.ExperimentConfig(**{**settings_, **changes})


def _with_nan(karate):
    x = karate.copy()
    x[0, 1] = x[1, 0] = np.nan
    return x


# (call on karate, error, its documented message); each call fails with
# exactly that message, as the docstrings and README state it; a supplied
# spectrum's shapes are in test_fit_refuses_a_spectrum_of_another_shape, a
# study's design (model, layout, rho, signals, master_seed) in
# test_harness.py::test_config_checks_the_whole_design_before_any_replication
_MESSAGES = {
    "m-float": (lambda g: npt.top_eigenpairs(g, 2.0), ValueError,
                r"m must be an integer, got 2\.0"),
    "m-bool": (lambda g: npt.top_eigenpairs(g, True), ValueError,
               r"m must be an integer, got True"),
    "m-range": (lambda g: npt.top_eigenpairs(g, 35), ValueError,
                r"m must lie in \[1, 34\], got 35"),
    "m-string": (lambda g: npt.grow_spectrum(g, "3"), ValueError,
                 r"m must be an integer, got '3'"),
    "m-zero": (lambda g: npt.grow_spectrum(g, 0), ValueError,
               r"m must lie in \[1, 34\], got 0"),
    "k-range": (lambda g: npt.fit(g, 35), ValueError,
                r"k must lie in \[0, 34\], got 35"),
    "k-negative": (lambda g: npt.fit(g, -1), ValueError,
                   r"k must lie in \[0, 34\], got -1"),
    "k-float": (lambda g: npt.fit(g, 2.5), ValueError,
                r"k must be an integer, got 2\.5"),
    "floor-range": (lambda g: npt.fit(g, floor=35), ValueError,
                    r"floor must lie in \[0, 34\], got 35"),
    "floor-none": (lambda g: npt.fit(g, floor=None), ValueError,
                   r"floor must be an integer, got None"),
    "spectrum-without-k": (
        lambda g: npt.fit(g, spectrum=npt.top_eigenpairs(g, 3)), ValueError,
        r"a supplied spectrum needs a fixed k"),
    "spectrum-type": (lambda g: npt.fit(g, 3, spectrum="spec"), TypeError,
                      r"spectrum must be a Spectrum, got str"),
    "x-none": (lambda g: npt.test_T(None, 0, 1), ValueError,
               r"adjacency matrix must be square"),
    "x-3d": (lambda g: npt.pvalue_matrix(np.zeros((3, 3, 3)), [0, 1]),
             ValueError, r"adjacency matrix must be square"),
    "x-string": (lambda g: npt.test_G("ab", 0, 1), ValueError,
                 r"could not convert string to float: 'ab'"),
    "x-nan": (lambda g: npt.test_T(_with_nan(g), 0, 1), ValueError,
              r"adjacency matrix entries must be finite"),
    "x-overflow": (lambda g: npt.fit(np.full((50, 50), 1e308), 2),
                   ValueError, r"adjacency matrix products overflow"),
    "x-scale-small": (lambda g: npt.test_G(1e-110 * g, 0, 1, k_override=3),
                      ValueError,
                      r"adjacency matrix scale leaves the float range"),
    "x-scale-large": (lambda g: npt.test_T(np.full((50, 50), 1e300), 0, 1),
                      ValueError,
                      r"adjacency matrix scale leaves the float range"),
    "node-outside": (lambda g: npt.test_T(g, -1, 1), ValueError,
                     r"node -1 outside the node range \[0, 34\)"),
    "node-past-end": (lambda g: npt.pvalue_matrix(g, [0, 34]), ValueError,
                      r"node 34 outside the node range \[0, 34\)"),
    "node-twice": (lambda g: npt.test_G(g, 3, 3), ValueError,
                   r"nodes must be distinct"),
    "node-float": (lambda g: npt.test_T(g, 1.5, 2), ValueError,
                   r"nodes must be integers, got dtype float64"),
    "node-bools": (lambda g: npt.test_G(g, True, False), ValueError,
                   r"nodes must be integers, got dtype bool"),
    "node-bool": (lambda g: npt.test_G(g, True, 2), ValueError,
                  r"nodes must be integers, got a bool"),
    "node-bool-among-ints": (
        lambda g: npt.pvalue_matrix(g, [0, True, 2]), ValueError,
        r"nodes must be integers, got a bool"),
    "nodes-2d": (lambda g: npt.pvalue_matrix(g, [[0, 1], [2, 3]]),
                 ValueError, r"nodes must be one-dimensional, got shape "
                             r"\(2, 2\)"),
    "pair-node-arrays": (lambda g: npt.test_T(g, [0, 2], [1, 3]), ValueError,
                         r"i and j must be single nodes, got shapes \(2,\) "
                         r"and \(2,\)"),
    "pair-node-array": (
        lambda g: npt.test_G(g, np.array([0]), 1, k_override=2), ValueError,
        r"i and j must be single nodes, got shapes \(1,\) and \(\)"),
    "nodes-one": (lambda g: npt.pvalue_matrix(g, [0]), ValueError,
                  r"need at least two distinct nodes"),
    "nodes-not-iterable": (
        lambda g: npt.pvalue_matrix(g, 5), TypeError,
        r"nodes must be a sequence of node indices, got 5"),
    "method": (lambda g: npt.pvalue_matrix(g, [0, 1], "x"), ValueError,
               r"unknown method 'X'"),
    "method-list": (lambda g: npt.pvalue_matrix(g, [0, 1], [None]),
                    ValueError, r"unknown method \[None\]"),
    "k-override-least": (lambda g: npt.test_G(g, 0, 1, k_override=1),
                         ValueError, r"the G test needs k >= 2"),
    "k-override-float": (lambda g: npt.test_T(g, 0, 1, k_override=1.0),
                         ValueError, r"k must be an integer, got 1\.0"),
    "k-override-range": (lambda g: npt.test_T(g, 0, 1, k_override=35),
                         ValueError, r"k must lie in \[0, 34\], got 35"),
    "k-override-on-fit": (
        lambda g: npt.test_T(npt.fit(g, 3), 0, 1, k_override=2), ValueError,
        r"a Fit already fixes k"),
    "pair-shapes": (
        lambda g: npt.estimate_sigma1(npt.fit(g, 3), [0, 1], [2]),
        ValueError, r"i and j must be nodes or equal-length node arrays"),
    "covariance-node": (
        lambda g: npt.estimate_sigma2(npt.fit(g, 3), 0, 34), ValueError,
        r"node 34 outside the node range \[0, 34\)"),
    "alpha": (lambda g: npt.reject(npt.test_T(g, 0, 33, k_override=2), 1.0),
              ValueError, r"alpha must lie in \(0, 1\)"),
    "alpha-list": (
        lambda g: npt.reject(npt.test_T(g, 0, 33, k_override=2), [0.5]),
        TypeError, r"alpha must be a number, got \[0\.5\]"),
    "mean-matrix-shape": (
        lambda g: npt.sample_adjacency(np.full((2, 3), 0.5), 0), ValueError,
        r"mean matrix must be square"),
    "mean-matrix-range": (
        lambda g: npt.sample_adjacency(np.full((2, 2), 1.5), 0), ValueError,
        r"mean matrix entries must lie in \[0, 1\]"),
    "replications-least": (lambda g: _config(replications=0), ValueError,
                           r"replications must be at least 1, got 0"),
    "replications-float": (lambda g: _config(replications=2.0), ValueError,
                           r"replications must be an integer, got 2\.0"),
    "config-alpha": (lambda g: _config(alpha=1), ValueError,
                     r"alpha must lie in \(0, 1\)"),
    "config-alpha-list": (lambda g: _config(alpha=[0.5]), TypeError,
                          r"alpha must be a number, got \[0\.5\]"),
    "signal-grid-empty": (lambda g: _config(signal_grid=()), ValueError,
                          r"signal grid must be nonempty"),
    "signal-grid-scalar": (lambda g: _config(signal_grid=0.5), TypeError,
                           r"signal_grid must be a sequence of signals, got "
                           r"0\.5"),
    "k-mode": (lambda g: _config(k_mode="x"), ValueError,
               r"k_mode must be true_k or estimated_k"),
    "pair-mode": (lambda g: _config(pair_mode="x"), ValueError,
                  r"pair_mode must be size or power"),
    "design-n": (lambda g: _config(n="40"), ValueError,
                 r"n must be an integer, got '40'"),
    "design-counts": (lambda g: _config(n0=-1), ValueError,
                      r"need n >= 1 and n0 >= 0, got n=40, n0=-1"),
    "rho-nan": (lambda g: npt.model2_params(40, 4, np.nan, 0.9, 0),
                ValueError, r"rho must lie in \[0, 1\], got nan"),
    "rho-range": (lambda g: npt.model1_params(40, 4, 2.0, 0.9), ValueError,
                  r"rho must lie in \[0, 1\], got 2\.0"),
    "config-rho": (lambda g: _config(rho=np.nan), ValueError,
                   r"rho must lie in \[0, 1\], got nan"),
}


@pytest.mark.parametrize("case", sorted(_MESSAGES))
def test_typed_errors_carry_their_documented_messages(karate, case):
    call, error, message = _MESSAGES[case]
    with pytest.raises(error, match=f"^{message}$"):
        call(karate)
