"""Counts and shapes given to the library fail with typed errors: every call
returns, or raises ValueError, TypeError or one of the pair tests' numerical
failures, whatever it is given."""

import numpy as np
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import netpairtest as npt
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
