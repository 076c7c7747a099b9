import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netpairtest as npt
from netpairtest.models import (
    DESIGN_K,
    MIXED_GROUPS,
    MODEL_TESTS,
    DCMMParams,
    design_params,
    pure_and_mixed_indices,
    study_pair,
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


@pytest.mark.parametrize("n, n0", [(10, 5), (601, 100), (141, 20)])
def test_layout_indices_check_the_layout(n, n0):
    # (10, 5) gave mixed starts [15, 13, 11, 9] with group size -2, and
    # (601, 100) a layout that the constructors reject
    message = (f"n - 3\\*n0 = {n - 3 * n0} must be nonnegative and "
               "divisible by 4")
    for call in (lambda: pure_and_mixed_indices(n, n0),
                 lambda: npt.model1_params(n, n0, 0.2, 0.5),
                 lambda: npt.model2_params(n, n0, 0.2, 0.5, 0)):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match=f"got n=0, n0={n0}"):
        pure_and_mixed_indices(0, n0)


def test_memberships_and_pairs_follow_the_layout():
    n, n0 = 140, 20
    layout = pure_and_mixed_indices(n, n0)
    pi = npt.model1_params(n, n0, 0.2, 0.5).pi
    assert pi.shape == (n, DESIGN_K) and len(layout["pure"]) == DESIGN_K
    for k, first in enumerate(layout["pure"]):
        assert np.all(pi[first:first + n0, k] == 1.0)
    for first, vec in zip(layout["mixed"], MIXED_GROUPS):
        assert np.all(pi[first:first + layout["group_size"]] == vec)
    first_mixed = layout["mixed"][0]
    assert study_pair(n, n0, "size") == (first_mixed, first_mixed + 1)
    assert study_pair(n, n0, "power") == (first_mixed, layout["pure"][1])


def test_each_model_has_a_test_and_the_design_k():
    assert MODEL_TESTS == {1: "T", 2: "G"}
    for model in MODEL_TESTS:
        params = design_params(model, 140, 20, 0.2, 0.5, seed=3)
        assert params.K == DESIGN_K
        assert npt.ExperimentConfig(model=model, n=140, n0=20, rho=0.2,
                                    signal_grid=(0.5,)).method \
            == MODEL_TESTS[model]


def test_design_params_maps_the_signal_to_each_model():
    one = design_params(1, 140, 20, 0.3, 0.8, seed=None)
    assert one.theta.tobytes() == npt.model1_params(140, 20, 0.3, 0.8) \
        .theta.tobytes()
    two = design_params(2, 140, 20, 0.3, 0.64, seed=11)
    assert two.theta.tobytes() == npt.model2_params(140, 20, 0.3, 0.8, 11) \
        .theta.tobytes()
    with pytest.raises(ValueError, match="model must be 1 or 2"):
        design_params(3, 140, 20, 0.3, 0.8, seed=None)
    # a model-2 signal is r^2, checked before its root is taken
    for signal in (-1.0, 0.0, 1.5):
        with pytest.raises(ValueError, match=r"r2 must lie in \(0, 1\]"):
            design_params(2, 140, 20, 0.3, signal, seed=11)


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


def _one_block_sample(h, rng, self_loops):
    """The sampler as one (n, n) draw: compared, kept above the diagonal,
    mirrored as booleans and then converted."""
    n = h.shape[0]
    u = rng.random((n, n))
    upper = np.triu(u < h, 1)
    upper |= upper.T
    x = upper.astype(float)
    if self_loops:
        x[np.diag_indices(n)] = (np.diag(u) < np.diag(h)).astype(float)
    return x


@pytest.mark.parametrize("self_loops", [False, True])
@pytest.mark.parametrize("n", [127, 128, 129, 257])
def test_row_blocks_draw_the_one_block_sample(n, self_loops):
    # one row short of a block, one block, one row over, two blocks and one
    # row; h is not symmetric, so only its upper triangle may be read
    assert npt.models.SAMPLE_ROWS == 128
    h = np.random.default_rng(n).random((n, n))
    _assert_same_arrays(npt.sample_adjacency(h, 3, self_loops),
                        _one_block_sample(h, np.random.default_rng(3),
                                          self_loops))
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(2):
        _assert_same_arrays(npt.sample_adjacency(h, rng, self_loops),
                            _one_block_sample(h, ref_rng, self_loops))
    assert rng.random() == ref_rng.random()
    # a reused array gives the same sample, whatever it held before
    out = np.full((n, n), np.nan)
    _assert_same_arrays(npt.models._sample_into(out, h, 3, self_loops),
                        npt.sample_adjacency(h, 3, self_loops))


@pytest.mark.parametrize("model", [1, 2])
@pytest.mark.parametrize("n, n0", [(120, 24), (302, 50)])
def test_tiled_mean_matrix_equals_the_whole_formula(model, n, n0):
    # 302 nodes end on a partial tile
    for seed in range(3):
        params = design_params(model, n, n0, 0.2, 0.5, seed)
        a = params.theta[:, None] * params.pi
        g = a @ params.p_matrix @ a.T
        whole = np.clip((g + g.T) / 2.0, 0.0, 1.0)
        _assert_same_arrays(npt.build_mean_matrix(params), whole)


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


@pytest.mark.parametrize("bad", [-0.5, 1.5, np.nan])
def test_bad_probabilities_raise_before_any_draw(bad):
    # the one bad entry lies in the second block of rows; a generator
    # passed as the seed has drawn nothing when the error comes
    n = npt.models.SAMPLE_ROWS + 72
    h = np.random.default_rng(1).random((n, n))
    h[npt.models.SAMPLE_ROWS + 10, 3] = bad
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        npt.sample_adjacency(h, rng)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 2, 2), (), (0, 3)])
def test_non_square_h_raises_before_any_draw(shape):
    # a 1-D h raised IndexError from the first block of rows
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    with pytest.raises(ValueError, match="mean matrix must be square"):
        npt.sample_adjacency(np.full(shape, 0.5), rng)
    assert rng.random() == ref_rng.random()


def test_params_read_n_and_k_from_their_arrays():
    # n and K were fields checked only against the arrays' shapes, so
    # DCMMParams(n=4.0, K=True, ...) constructed
    params = npt.model1_params(120, 24, 0.2, 0.9)
    assert (params.n, params.K) == (120, DESIGN_K)
    assert [f.name for f in dataclasses.fields(DCMMParams)] \
        == ["theta", "pi", "p_matrix"]
    with pytest.raises(AttributeError):
        params.n = 4
    n = 4
    with pytest.raises(TypeError):
        DCMMParams(n=4.0, K=True, theta=np.full(n, 0.5),
                   pi=np.ones((n, 1)), p_matrix=np.eye(1))


def test_params_validation():
    n = 6
    pi = np.tile([0.5, 0.5], (n, 1))
    p = np.eye(2)
    theta = np.full(n, 0.5)
    DCMMParams(theta=theta, pi=pi, p_matrix=p)
    with pytest.raises(ValueError, match="degree parameters"):
        DCMMParams(theta=np.full(n, 1.5), pi=pi, p_matrix=p)
    with pytest.raises(ValueError, match="simplex"):
        DCMMParams(theta=theta, pi=pi * 2, p_matrix=p)
    with pytest.raises(ValueError, match="symmetric"):
        DCMMParams(theta=theta, pi=pi,
                   p_matrix=np.array([[1.0, 0.2], [0.3, 1.0]]))
    # a relative asymmetry of 5e-6 passed allclose, and H, built from
    # (P + P^T) / 2, then differed from the oracle's one-triangle truth
    with pytest.raises(ValueError, match="mixing matrix must be symmetric"):
        DCMMParams(theta=theta, pi=pi,
                   p_matrix=np.array([[1.0, 0.2], [0.2 * (1 + 5e-6), 1.0]]))
    with pytest.raises(ValueError, match="nonsingular"):
        DCMMParams(theta=theta, pi=pi,
                   p_matrix=np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="one entry per node"):
        DCMMParams(theta=np.tile(theta, (2, 1)), pi=pi, p_matrix=p)
    # n is theta's length and K the side of P, so a theta one node short,
    # or a P of another K, disagrees with the membership matrix
    with pytest.raises(ValueError, match="membership matrix must be n x K"):
        DCMMParams(theta=theta[:-1], pi=pi, p_matrix=p)
    with pytest.raises(ValueError, match="membership matrix must be n x K"):
        DCMMParams(theta=theta, pi=pi, p_matrix=np.eye(3))
    with pytest.raises(ValueError, match="community count K must be >= 1"):
        DCMMParams(theta=theta, pi=np.empty((n, 0)), p_matrix=np.empty((0, 0)))
    # NaN fails every range check
    nan_theta = theta.copy()
    nan_theta[2] = np.nan
    with pytest.raises(ValueError, match="degree parameters"):
        DCMMParams(theta=nan_theta, pi=pi, p_matrix=p)
    nan_pi = pi.copy()
    nan_pi[3] = np.nan
    with pytest.raises(ValueError, match="simplex"):
        DCMMParams(theta=theta, pi=nan_pi, p_matrix=p)

