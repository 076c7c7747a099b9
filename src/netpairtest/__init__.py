"""Spectral hypothesis tests for whether two network nodes share the same
community-membership profile, with model simulation, covariance plug-in
estimation, chi-square p-values, and a Monte Carlo experiment harness."""

__version__ = "0.1.0"

from importlib import resources as _resources

from .graph_io import load_edge_list, max_degree
from .models import (
    DCMMParams,
    build_mean_matrix,
    model1_params,
    model2_params,
    sample_adjacency,
)
from .spectra import Spectrum, orient_signs, ratio_rows, top_eigenpairs
from .estimation import (
    CovarianceEstimate,
    Fit,
    KEstimate,
    diag_residual_square,
    estimate_sigma1,
    estimate_sigma2,
    fit,
    grow_spectrum,
    refine_eigenvalues,
)
from .inference import (
    PValueMatrix,
    TestResult,
    chi2_sf,
    pvalue_matrix,
    reject,
    test_G,
    test_T,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    null_histogram,
    run_k_accuracy,
    run_size_power,
)
from .oracle import (
    GroundTruth,
    compute_tk,
    expansion_residual,
    ground_truth,
    true_sigma1,
    true_sigma2,
    with_tk,
)


def karate_club_path() -> str:
    """Path to the bundled karate-club edge list (1-based labels)."""
    return str(_resources.files(__name__) / "data" / "karate_club.txt")
