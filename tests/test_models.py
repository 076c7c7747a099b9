import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netpairtest as npt
from netpairtest.models import (
    MIXED_GROUPS,
    DCMMParams,
    design_params,
    pure_and_mixed_indices,
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


def test_design_params_maps_the_signal_to_each_model():
    one = design_params(1, 140, 20, 0.3, 0.8, seed=None)
    assert one.theta.tobytes() == npt.model1_params(140, 20, 0.3, 0.8) \
        .theta.tobytes()
    two = design_params(2, 140, 20, 0.3, 0.64, seed=11)
    assert two.theta.tobytes() == npt.model2_params(140, 20, 0.3, 0.8, 11) \
        .theta.tobytes()
    with pytest.raises(ValueError, match="model must be 1 or 2"):
        design_params(3, 140, 20, 0.3, 0.8, seed=None)


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
    for n, n0 in ((0, 0), (-8, 0), (9, -1)):
        with pytest.raises(ValueError, match=f"got n={n}, n0={n0}"):
            npt.model1_params(n, n0, 0.2, 0.5)


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


def _float_sample(h, rng, self_loops):
    """Reference sampler: one (n, n) uniform draw, compared, symmetrised and
    given its diagonal in floating point."""
    n = h.shape[0]
    u = rng.random((n, n))
    x = (u < h).astype(float)
    upper = np.triu(x, k=1)
    x = upper + upper.T
    if self_loops:
        x[np.diag_indices(n)] = (np.diag(u) < np.diag(h)).astype(float)
    return x


def _assert_same_arrays(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("self_loops", [False, True])
def test_sample_adjacency_matches_the_float_reference(self_loops):
    h = npt.build_mean_matrix(npt.model1_params(200, 40, 0.2, 0.7))
    for seed in (0, 7):
        _assert_same_arrays(
            npt.sample_adjacency(h, seed, self_loops),
            _float_sample(h, np.random.default_rng(seed), self_loops))
    # a generator shared across samples advances exactly as the reference's
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        _assert_same_arrays(npt.sample_adjacency(h, rng, self_loops),
                            _float_sample(h, ref_rng, self_loops))
        assert rng.random() == ref_rng.random()


_PROBABILITIES = st.one_of(st.just(0.0), st.just(1.0),
                           st.floats(0.0, 1.0, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       self_loops=st.booleans())
def test_sample_adjacency_matches_the_float_reference_on_any_h(
        data, n, seed, self_loops):
    h = np.array(data.draw(st.lists(_PROBABILITIES, min_size=n * n,
                                    max_size=n * n)), dtype=float)
    h = h.reshape(n, n)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    _assert_same_arrays(npt.sample_adjacency(h, rng, self_loops),
                        _float_sample(h, ref_rng, self_loops))
    assert rng.random() == ref_rng.random()


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

