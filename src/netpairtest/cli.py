"""Command-line front end.

Subcommands: simulate, test-pair, pvalue-matrix, estimate-k, spectrum, mc,
oracle-check. Exit codes: 0 success, 1 usage error, 2 data error (a
malformed or unreadable file), 3 numerical error (one of the failures in
:data:`~.inference.TEST_FAILURES` -- a singular covariance, a degenerate
node, a zero eigenvalue -- or an eigenvalue-location equation with no root
on its bracket, :class:`~.oracle.RootBracketError`). oracle-check only
checks its arguments and formats :func:`~.oracle.covariance_trend` as CSV.
Seeded invocations are deterministic end to end.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .estimation import DegenerateNodeError, degenerate_node, grow_spectrum
from .graph_io import GraphFormatError, load_edge_list, max_degree
from .harness import (
    ExperimentConfig,
    null_histogram,
    run_k_accuracy,
    run_size_power,
)
from .inference import TEST_FAILURES, pvalue_matrix, test_G, test_T
from .models import (
    DESIGN_K,
    MODEL_TESTS,
    build_mean_matrix,
    design_params,
    sample_adjacency,
)
from .oracle import RootBracketError, covariance_trend
from .spectra import _integer_count, top_eigenpairs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# oracle-check's metric: the covariance of each test, Sigma_1 of T and
# Sigma_2 of G, as estimation.estimate_sigma1 and estimate_sigma2 name them
TREND_METRICS = {"T": "sigma1_trend", "G": "sigma2_trend"}

FULL_GRID = tuple(round(0.2 + 0.1 * i, 1) for i in range(8))

# experiment presets: (model, n, n0, rho, grid, pair modes to run)
MC_PRESETS = {
    "table1h-model1": dict(model=1, n=1500, n0=300, rho=0.2, grid=FULL_GRID),
    "table1h-model2": dict(model=2, n=1500, n0=300, rho=0.2, grid=FULL_GRID),
    "table1-model1": dict(model=1, n=3000, n0=500, rho=0.2, grid=FULL_GRID),
    "table1-model2": dict(model=2, n=3000, n0=500, rho=0.2, grid=FULL_GRID),
    "table5-model1": dict(model=1, n=3000, n0=500, rho=0.2, grid=FULL_GRID,
                          kind="k_accuracy"),
    "table5-model2": dict(model=2, n=3000, n0=500, rho=0.2, grid=FULL_GRID,
                          kind="k_accuracy"),
    "fig1-model1": dict(model=1, n=3000, n0=500, rho=0.2, grid=(0.9,),
                        kind="null_histogram"),
    "fig1-model2": dict(model=2, n=3000, n0=500, rho=0.2, grid=(0.9,),
                        kind="null_histogram"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="netpairtest",
                     description="Spectral tests for shared community-"
                                 "membership profiles of node pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a network from a model")
    sim.add_argument("--model", type=int, choices=tuple(MODEL_TESTS),
                     required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--n0", type=int, required=True)
    sim.add_argument("--rho", type=float, default=0.2)
    sim.add_argument("--theta", type=float, help="degree level (model 1)")
    sim.add_argument("--r2", type=float, help="squared degree bound (model 2)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--self-loops", action="store_true")
    sim.add_argument("--out", required=True, help="edge-list output path")

    def graph_flags(p):
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--one-based", action="store_true",
                       help="node labels in the file (and flags) are 1-based")
        p.add_argument("--self-loops", action="store_true")

    tp = sub.add_parser("test-pair", help="test one node pair")
    graph_flags(tp)
    tp.add_argument("--method", choices=("t", "g"), required=True)
    tp.add_argument("--i", type=int, required=True)
    tp.add_argument("--j", type=int, required=True)
    tp.add_argument("--k", type=int, help="fix the community count")

    pm = sub.add_parser("pvalue-matrix", help="pairwise p-value matrix")
    graph_flags(pm)
    pm.add_argument("--method", choices=("t", "g"), required=True)
    pm.add_argument("--nodes", required=True,
                    help="comma-separated node labels")
    pm.add_argument("--k", type=int)
    pm.add_argument("--out", help="CSV output path (default: stdout)")

    ek = sub.add_parser("estimate-k", help="estimate the community count")
    graph_flags(ek)

    sp = sub.add_parser("spectrum", help="dump leading eigenpairs as CSV")
    graph_flags(sp)
    sp.add_argument("--m", type=int, default=10)
    sp.add_argument("--out", help="CSV output path (default: stdout)")

    mc = sub.add_parser("mc", help="Monte Carlo study from a preset")
    mc.add_argument("--preset", choices=sorted(MC_PRESETS), required=True)
    mc.add_argument("--reps", type=int, default=200)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--alpha", type=float, default=0.05)
    mc.add_argument("--k-mode", choices=("true_k", "estimated_k"),
                    default="true_k")
    mc.add_argument("--out", help="CSV output path (default: stdout)")

    oc = sub.add_parser("oracle-check",
                        help="ground-truth covariance trend metrics")
    oc.add_argument("--model", type=int, choices=tuple(MODEL_TESTS),
                    default=1)
    oc.add_argument("--signal", type=float, default=0.9,
                    help="theta (model 1) or r^2 (model 2)")
    oc.add_argument("--sizes", default="500,1000,2000")
    oc.add_argument("--reps", type=int, default=20)
    oc.add_argument("--seed", type=int, default=0)
    oc.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


def _load_graph(args):
    return load_edge_list(args.graph,
                          "one_based" if args.one_based else "zero_based",
                          args.self_loops)


def _first(args) -> int:
    """The label of node 0 in the graph file's convention."""
    return 1 if getattr(args, "one_based", False) else 0


def _nodes(labels, args, n: int) -> list[int]:
    """The 0-based indices of node ``labels`` given in the graph file's
    convention; a ValueError names the first label outside the n nodes."""
    first = _first(args)
    for label in labels:
        if not first <= label < first + n:
            raise ValueError(f"node {label} outside the node range "
                             f"[{first}, {first + n})")
    return [label - first for label in labels]


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    _integer_count(args.seed, "seed", 0)
    name, signal = ("theta", args.theta) if args.model == 1 else ("r2", args.r2)
    if signal is None:
        raise ValueError(f"--{name} is required for model {args.model}")
    params = design_params(args.model, args.n, args.n0, args.rho, signal,
                           args.seed)
    h = build_mean_matrix(params)
    x = sample_adjacency(h, args.seed, args.self_loops)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# netpairtest {__version__} simulate model={args.model} "
                 f"seed={args.seed} n={args.n} n0={args.n0} rho={args.rho} "
                 f"{name}={signal}\n")
        edges = np.argwhere(np.triu(x, k=0 if args.self_loops else 1))
        fh.write("".join(f"{u} {v}\n" for u, v in edges.tolist()))
    print(f"wrote {args.out} ({len(edges)} edges)")
    return EXIT_OK


def _cmd_test_pair(args) -> int:
    x = _load_graph(args)
    runner = test_T if args.method == "t" else test_G
    i, j = _nodes((args.i, args.j), args, x.shape[0])
    res = runner(x, i, j, k_override=args.k)
    print(f"method {res.method}")
    print(f"statistic {res.statistic:.6f}")
    print(f"df {res.df}")
    print(f"p_value {res.p_value:.6f}")
    print(f"k_used {res.k_used}")
    return EXIT_OK


def _cmd_pvalue_matrix(args) -> int:
    x = _load_graph(args)
    labels = [int(tok) for tok in args.nodes.split(",")]
    nodes = _nodes(labels, args, x.shape[0])
    pv = pvalue_matrix(x, nodes, method=args.method, k_override=args.k)
    lines = ["node," + ",".join(str(l) for l in labels)]
    for label, row in zip(labels, pv.matrix):
        lines.append(str(label) + "," + ",".join(f"{p:.4f}" for p in row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_estimate_k(args) -> int:
    x = _load_graph(args)
    # at least min(n, 50) magnitudes are printed, not only those K needs
    spec, est = grow_spectrum(x, 50)
    print(f"k_hat {est.k_hat}")
    print(f"threshold {est.threshold:.6f}")
    print(f"max_degree {max_degree(x)}")
    print("eigenvalue_magnitudes " +
          ",".join(f"{abs(v):.4f}" for v in spec.values))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    x = _load_graph(args)
    spec = top_eigenpairs(x, min(x.shape[0], args.m))
    lines = ["k,d_k," + ",".join(f"v_{l}" for l in range(1, x.shape[0] + 1))]
    for k in range(spec.m):
        entries = ",".join(f"{v:.8g}" for v in spec.vectors[:, k])
        lines.append(f"{k + 1},{spec.values[k]:.8g},{entries}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    preset = MC_PRESETS[args.preset]
    kind = preset.get("kind", "size_power")
    header = (f"# netpairtest {__version__} preset={args.preset} "
              f"seed={args.seed} reps={args.reps}\n")

    def config(pair_mode, k_mode=args.k_mode):
        return ExperimentConfig(
            model=preset["model"], n=preset["n"], n0=preset["n0"],
            rho=preset["rho"], signal_grid=preset["grid"],
            replications=args.reps, alpha=args.alpha, k_mode=k_mode,
            master_seed=args.seed, pair_mode=pair_mode)

    if kind == "null_histogram":
        out = null_histogram(config("size"))
        lines = [header.rstrip(), f"# ks_distance={out['ks_distance']:.6f} "
                                  f"df={out['df']}", "statistic"]
        lines += [f"{s:.8f}" for s in out["samples"]]
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK

    rows = [header.rstrip(),
            "model,n,signal,metric,value,replications,failures"]
    if kind == "k_accuracy":
        cfg = config("size", k_mode="estimated_k")
        report = run_k_accuracy(cfg)
        for pt in report.points:
            correct = pt.k_hat_counts.get(DESIGN_K, 0)
            under = sum(c for k, c in pt.k_hat_counts.items()
                        if k <= DESIGN_K)
            rows.append(f"{cfg.model},{cfg.n},{pt.signal},p_k_correct,"
                        f"{correct / pt.replications:.6f},{pt.replications},0")
            rows.append(f"{cfg.model},{cfg.n},{pt.signal},p_k_at_most,"
                        f"{under / pt.replications:.6f},{pt.replications},0")
    else:
        for pair_mode in ("size", "power"):
            cfg = config(pair_mode)
            report = run_size_power(cfg)
            for pt in report.points:
                rows.append(f"{cfg.model},{cfg.n},{pt.signal},{pair_mode},"
                            f"{pt.rejection_rate:.6f},{pt.replications},"
                            f"{pt.failures}")
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    sizes = [int(tok) for tok in args.sizes.split(",")]
    trend = covariance_trend(args.model, args.signal, sizes, args.reps,
                             args.seed)
    metric = TREND_METRICS[MODEL_TESTS[args.model]]
    rows = [f"# netpairtest {__version__} oracle-check model={args.model} "
            f"seed={args.seed}", "n,metric,value"]
    rows += [f"{n},{metric},{err:.6f}" for n, err in zip(sizes, trend)]
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "test-pair": _cmd_test_pair,
    "pvalue-matrix": _cmd_pvalue_matrix,
    "estimate-k": _cmd_estimate_k,
    "spectrum": _cmd_spectrum,
    "mc": _cmd_mc,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    # the tuple is built when an error arrives, from the TEST_FAILURES
    # binding of this module at that time
    except (*TEST_FAILURES, RootBracketError, np.linalg.LinAlgError) as exc:
        if isinstance(exc, DegenerateNodeError) and exc.node is not None:
            exc = degenerate_node(exc.node, exc.node + _first(args))
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
