import numpy as np
import pytest

import netpairtest as npt


@pytest.fixture(scope="session")
def karate_csr():
    return npt.load_edge_list(npt.karate_club_path(), indexing="one_based")


@pytest.fixture(scope="session")
def karate(karate_csr):
    return karate_csr.toarray()


@pytest.fixture(scope="session")
def karate_spectrum(karate):
    return npt.top_eigenpairs(karate, 10)


@pytest.fixture(scope="session")
def small_model():
    """Small mixed-membership design: n=80, three pure blocks of 16."""
    return npt.model1_params(80, 16, 0.2, 0.9)


@pytest.fixture(scope="session")
def small_sample(small_model):
    h = npt.build_mean_matrix(small_model)
    return npt.sample_adjacency(h, seed=7)


def one_based(nodes):
    return [n - 1 for n in nodes]
