"""Pairwise membership tests on the karate-club network.

Loads the bundled edge list, estimates the community count, and prints
pairwise p-values for seven probe nodes under both test statistics. Nodes
are referred to by their traditional 1-based labels.
"""

import numpy as np

import netpairtest as npt


def print_matrix(pm, labels):
    width = 8
    print(" " * 6 + "".join(f"{l:>{width}}" for l in labels))
    for label, row in zip(labels, pm.matrix):
        print(f"{label:>6}" + "".join(f"{p:>{width}.4f}" for p in row))


def main():
    x = npt.load_edge_list(npt.karate_club_path(), indexing="one_based")
    print(f"karate club: {x.shape[0]} nodes, {x.nnz // 2} edges, "
          f"max degree {npt.max_degree(x)}")

    est = npt.grow_spectrum(x)[1]
    print(f"\nestimated community count: {est.k_hat} "
          f"(threshold {est.threshold:.1f} vs top |eigenvalue|^2 "
          f"{est.eigenvalues[0] ** 2:.1f})")
    print("the theoretical threshold is conservative on a 34-node network, "
          "so we fix K = 2 below\n")

    labels = [3, 7, 8, 9, 10, 13, 27]
    nodes = [l - 1 for l in labels]

    print("row-difference test (T), K = 2:")
    print_matrix(npt.pvalue_matrix(x, nodes, method="T", k_override=2),
                 labels)

    print("\nratio test (G), K = 2:")
    print_matrix(npt.pvalue_matrix(x, nodes, method="G", k_override=2),
                 labels)

    res = npt.test_T(x, 6, 12, k_override=2)
    print(f"\nexample pair (7, 13): T statistic {res.statistic:.4f}, "
          f"df {res.df}, p = {res.p_value:.4f} -> "
          f"{'same' if res.p_value > 0.05 else 'different'} profile at 5%")
    res = npt.test_T(x, 2, 26, k_override=2)
    print(f"example pair (3, 27): T statistic {res.statistic:.4f}, "
          f"df {res.df}, p = {res.p_value:.4f} -> "
          f"{'same' if res.p_value > 0.05 else 'different'} profile at 5%")


if __name__ == "__main__":
    main()
