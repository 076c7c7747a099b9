"""Brute-force reference implementations of the covariance formulas, of
the n x n initial residual and of the noise moments E[W^l].

Written as plain loops or dense products straight from the definitions so
they share no code (and no vectorization mistakes) with the package
implementations.
"""

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GivenModel:
    """Eigenpairs, eigenvalue locations and a whole variance matrix, read as
    ``estimate_sigma1`` and ``estimate_sigma2`` read a fit, so that the
    package's covariances can be evaluated on arbitrary inputs."""

    vectors: np.ndarray
    values: np.ndarray
    locations: np.ndarray
    sigma2: np.ndarray

    @property
    def k(self):
        return len(self.values)

    def sigma2_rows(self, nodes):
        return self.sigma2[nodes]


def residual_matrix(x, spec, k):
    """X minus its rank-``k`` spectral truncation, as a dense n x n array."""
    if k > spec.m:
        raise ValueError(f"k={k} exceeds retained spectrum size {spec.m}")
    x = x.toarray() if hasattr(x, "toarray") else np.asarray(x, dtype=float)
    v = spec.vectors[:, :k]
    return x - (v * spec.values[:k][None, :]) @ v.T


def brute_sigma1(vectors, values, sigma2, i, j):
    k = len(values)
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            total = 0.0
            for t in (i, j):
                for l in range(vectors.shape[0]):
                    total += sigma2[t, l] * vectors[l, a] * vectors[l, b]
            total -= sigma2[i, j] * (vectors[j, a] * vectors[i, b]
                                     + vectors[i, a] * vectors[j, b])
            out[a, b] = total / (values[a] * values[b])
    return out


def brute_sigma2(vectors, values, t, sigma2, i, j):
    k = len(values)
    n = vectors.shape[0]
    t1 = t[0]
    v1i = vectors[i, 0]
    v1j = vectors[j, 0]

    def coeff_i(l, a):
        # weight of w_{il} in the a-th ratio component at node i
        return (t1 * vectors[l, a + 1] / (t[a + 1] * v1i)
                - vectors[i, a + 1] * vectors[l, 0] / v1i**2)

    def coeff_j(l, a):
        return (t1 * vectors[l, a + 1] / (t[a + 1] * v1j)
                - vectors[j, a + 1] * vectors[l, 0] / v1j**2)

    out = np.zeros((k - 1, k - 1))
    for a in range(k - 1):
        for b in range(k - 1):
            total = 0.0
            for l in range(n):
                if l != j:
                    total += sigma2[i, l] * coeff_i(l, a) * coeff_i(l, b)
            for l in range(n):
                if l != i:
                    total += sigma2[j, l] * coeff_j(l, a) * coeff_j(l, b)
            ca = coeff_i(j, a) - coeff_j(i, a)
            cb = coeff_i(j, b) - coeff_j(i, b)
            total += sigma2[i, j] * ca * cb
            out[a, b] = total / t1**2
    return out


def noise_moments(h, self_loops, orders=(2, 3, 4)):
    """E[W^l] of W = X - H by exact enumeration of every adjacency matrix.

    The independent entries are the strict upper triangle of X, plus the
    diagonal with ``self_loops``; each outcome is weighted by its Bernoulli
    probability, so the cost is 2^(entries) matrix powers.
    """
    n = h.shape[0]
    cells = [(a, b) for a in range(n) for b in range(a, n)
             if a < b or self_loops]
    out = {l: np.zeros((n, n)) for l in orders}
    for bits in itertools.product((0, 1), repeat=len(cells)):
        x = np.zeros((n, n))
        prob = 1.0
        for (a, b), bit in zip(cells, bits):
            x[a, b] = x[b, a] = bit
            prob *= h[a, b] if bit else 1.0 - h[a, b]
        w = x - h
        for l in orders:
            out[l] += prob * np.linalg.matrix_power(w, l)
    return out
