"""Ground-truth diagnostics available when the generating model is known.

Three checks that back the test statistics' asymptotic theory:

1. the deterministic eigenvalue locations t_k track the mean empirical
   eigenvalues better than the population eigenvalues d_k do;
2. the plug-in covariance estimates converge to the exact covariances
   (scaled spectral-norm error shrinks as n grows);
3. the first-order eigenvector expansion holds with order-1/sqrt(n)
   remainder.
"""

import numpy as np

import netpairtest as npt
from netpairtest.oracle import covariance_trend, with_tk


def eigenvalue_locations():
    print("deterministic eigenvalue locations (model 1, n=400, theta=0.9,")
    print("self-loop regime so the noise matrix has exactly zero mean)")
    params = npt.model1_params(400, 80, 0.2, 0.9)
    gt = with_tk(npt.ground_truth(params, self_loops=True))
    rng = np.random.default_rng(1)
    vals = [npt.top_eigenpairs(
        npt.sample_adjacency(gt.h, rng, self_loops=True), 3).values
        for _ in range(30)]
    mean_emp = np.mean(vals, axis=0)
    print(f"{'k':>3} {'d_k':>10} {'t_k':>10} {'mean emp':>10} "
          f"{'|emp/t-1|':>10} {'|emp/d-1|':>10}")
    for k in range(3):
        print(f"{k + 1:>3} {gt.values[k]:>10.3f} {gt.t[k]:>10.3f} "
              f"{mean_emp[k]:>10.3f} {abs(mean_emp[k] / gt.t[k] - 1):>10.5f} "
              f"{abs(mean_emp[k] / gt.values[k] - 1):>10.5f}")


def covariance_consistency():
    print("\nplug-in covariance consistency (model 1, theta=0.9, "
          "10 replications per size)")
    print(f"{'n':>6}  scaled error n^2 theta ||Sigma1_hat - Sigma1||")
    sizes = (300, 600, 1200)
    for n, err in zip(sizes, covariance_trend(1, 0.9, sizes, reps=10)):
        print(f"{n:>6}  {err:.3f}")


def expansion_check():
    print("\nfirst-order eigenvector expansion (model 1, n=300): scaled "
          "remainder sqrt(n) |t_k (vhat_k(i) - v_k(i)) - (W v_k)(i)|")
    params = npt.model1_params(300, 60, 0.2, 0.9)
    gt = with_tk(npt.ground_truth(params))
    rng = np.random.default_rng(3)
    samples = [npt.sample_adjacency(gt.h, rng) for _ in range(25)]
    for k in range(2):
        out = npt.expansion_residual(gt, samples, k=k, i=10)
        print(f"  k={k + 1}: median {out['median']:.3f}, "
              f"95th percentile {out['p95']:.3f}")


def main():
    eigenvalue_locations()
    covariance_consistency()
    expansion_check()


if __name__ == "__main__":
    main()
