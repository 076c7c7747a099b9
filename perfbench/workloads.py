"""Workloads of the netpairtest benchmark.

Each workload drives the public API (``run_size_power``, ``pvalue_matrix``,
``cli.main``) as one closed-loop client: one call after another in one
process. Inputs derive from the workload seed only. A workload knows how to
make its inputs (in a child process, so that input generation does not set
the timed process's memory high-water mark), how to run its call number
``index``, and how to check the outcome against invariants and against the
stored reference outputs.

Run as a script, this module writes one workload's inputs to a directory:

    python3 perfbench/workloads.py --workload edgelist-cli --seed 0 --dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Relative tolerance on reference values: an exact alternative eigensolver
# stays far inside it, a wrong covariance lands far outside it.
REL_TOL = 1e-8

SIZES = {
    "full": {
        "mc-dense": dict(n=1500, n0=300, rho=0.2, theta=0.9, reps=5),
        "pvalue-matrix": dict(n=1500, n0=300, rho=0.2, r2=0.9,
                              per_group=(3, 3, 3, 3, 3, 3, 2)),
        "edgelist-cli": dict(n=3000, n0=500, rho=0.2, r2=0.09),
    },
    # tiny: for the benchmark's own smoke tests only
    "tiny": {
        "mc-dense": dict(n=150, n0=30, rho=0.2, theta=0.9, reps=2),
        "pvalue-matrix": dict(n=150, n0=30, rho=0.2, r2=0.9,
                              per_group=(1, 1, 1, 1, 1, 1, 0)),
        "edgelist-cli": dict(n=150, n0=30, rho=0.2, r2=0.5),
    },
}


def import_package():
    """Import netpairtest from the ``src`` directory of this checkout, never
    from an installed copy; raise ImportError when the sources are absent."""
    init = SRC / "netpairtest" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"netpairtest sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import netpairtest
    import netpairtest.cli  # not imported by the package itself

    if Path(netpairtest.__file__).resolve() != init.resolve():
        raise ImportError(f"imported netpairtest from {netpairtest.__file__}, "
                          f"expected {init}")
    return netpairtest


@dataclass
class Op:
    """Outcome of one timed call into the public API.

    ``units`` is the work the call attempted (replications, pairs or one CLI
    call), ``failed`` how many of them failed. ``output`` is the comparable
    record of the result, None when the call raised; ``error`` then names the
    exception type (or the nonzero exit code of a CLI call).
    """

    index: int
    seconds: float
    units: int
    failed: int
    output: dict | None
    error: str | None = None


def _close(a: float, b: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


class MonteCarlo:
    """``run_size_power`` on model 1 (T test, true K=3, size pair): one grid
    point, ``reps`` replications per call. Each call samples fresh graphs."""

    name = "mc-dense"
    unit = "replications"
    ops_per_round = 1
    df = 3
    alpha = 0.05

    def __init__(self, size: str):
        self.p = SIZES[size][self.name]

    def make_inputs(self, npt, workdir: Path, seed: int) -> dict:
        p = self.p
        h = npt.build_mean_matrix(
            npt.model1_params(p["n"], p["n0"], p["rho"], p["theta"]))
        return {"n": p["n"], "expected_edges": float(np.triu(h, 1).sum())}

    def load(self, npt, workdir: Path, seed: int) -> None:
        self.npt, self.seed = npt, seed

    def _call(self, index: int, reps: int) -> Op:
        p = self.p
        cfg = self.npt.ExperimentConfig(
            model=1, n=p["n"], n0=p["n0"], rho=p["rho"],
            signal_grid=(p["theta"],), replications=reps, alpha=self.alpha,
            master_seed=(self.seed << 32) | (index + 1), pair_mode="size")
        start = perf_counter()
        try:
            report = self.npt.run_size_power(cfg)
        except Exception as exc:  # counted as failed, the run goes on
            return Op(index, perf_counter() - start, reps, reps, None,
                      type(exc).__name__)
        seconds = perf_counter() - start
        pt = report.points[0]
        output = {"replications": pt.replications, "failures": pt.failures,
                  "rejection_rate": pt.rejection_rate,
                  "statistics": [float(s) for s in pt.statistics]}
        return Op(index, seconds, reps, pt.failures, output)

    def warm_up(self) -> Op:
        return self._call(-1, 1)

    def run(self, index: int) -> Op:
        return self._call(index, self.p["reps"])

    def invariants(self, op: Op) -> list[str]:
        out = op.output
        stats = np.asarray(out["statistics"])
        problems = []
        if len(stats) + out["failures"] != out["replications"]:
            problems.append("statistics and failures do not add up to the "
                            "replications")
        if not np.all(np.isfinite(stats) & (stats >= 0)):
            problems.append("a statistic is negative or not finite")
        if len(stats):
            quantile = scipy.stats.chi2.ppf(1.0 - self.alpha, self.df)
            if out["rejection_rate"] != float(np.mean(stats > quantile)):
                problems.append("rejection rate disagrees with the statistics")
        return problems

    def compare(self, out: dict, ref: dict) -> list[str]:
        if out["failures"] != ref["failures"] or \
                len(out["statistics"]) != len(ref["statistics"]):
            return [f"failures {out['failures']} != reference {ref['failures']}"]
        if not np.allclose(out["statistics"], ref["statistics"],
                           rtol=REL_TOL, atol=1e-10):
            return ["statistics differ from the reference"]
        return []


class PValueMatrix:
    """``pvalue_matrix(method="G", k_override=None)`` on one model-2 graph.
    Call ``index`` draws its nodes from every pure block and mixed group."""

    name = "pvalue-matrix"
    unit = "pairs"
    ops_per_round = 1

    def __init__(self, size: str):
        self.p = SIZES[size][self.name]

    def make_inputs(self, npt, workdir: Path, seed: int) -> dict:
        p = self.p
        params_ss, sample_ss = np.random.SeedSequence(seed).spawn(2)
        params = npt.model2_params(p["n"], p["n0"], p["rho"],
                                   math.sqrt(p["r2"]),
                                   np.random.default_rng(params_ss))
        x = npt.sample_adjacency(npt.build_mean_matrix(params),
                                 np.random.default_rng(sample_ss))
        np.save(workdir / "x.npy", x.astype(np.uint8))
        return {"n": p["n"], "edges": int(np.triu(x, 1).sum())}

    def load(self, npt, workdir: Path, seed: int) -> None:
        self.npt, self.seed = npt, seed
        self.x = np.load(workdir / "x.npy").astype(float)
        p = self.p
        layout = npt.models.pure_and_mixed_indices(p["n"], p["n0"])
        self.groups = [(s, p["n0"]) for s in layout["pure"]] + \
                      [(s, layout["group_size"]) for s in layout["mixed"]]

    def nodes(self, index: int) -> list[int]:
        rng = np.random.default_rng([self.seed, index + 1])
        picked = []
        for (start, size), count in zip(self.groups, self.p["per_group"]):
            picked += (start + rng.choice(size, count, replace=False)).tolist()
        return picked

    def _call(self, index: int, nodes: list[int]) -> Op:
        x = self.x.copy()  # a fresh matrix per call, as a new analysis has
        pairs = len(nodes) * (len(nodes) - 1) // 2
        start = perf_counter()
        try:
            pm = self.npt.pvalue_matrix(x, nodes, method="G", k_override=None)
        except Exception as exc:  # counted as failed, the run goes on
            return Op(index, perf_counter() - start, pairs, pairs, None,
                      type(exc).__name__)
        seconds = perf_counter() - start
        upper = pm.matrix[np.triu_indices(len(nodes), 1)]
        matrix = [[None if math.isnan(v) else float(v) for v in row]
                  for row in pm.matrix]
        return Op(index, seconds, pairs, int(np.isnan(upper).sum()),
                  {"nodes": nodes, "matrix": matrix})

    def warm_up(self) -> Op:
        return self._call(-1, self.nodes(-1)[:2])

    def run(self, index: int) -> Op:
        return self._call(index, self.nodes(index))

    @staticmethod
    def _array(out: dict) -> np.ndarray:
        return np.array([[np.nan if v is None else v for v in row]
                         for row in out["matrix"]])

    def invariants(self, op: Op) -> list[str]:
        m = len(op.output["nodes"])
        mat = self._array(op.output)
        problems = []
        if mat.shape != (m, m):
            return [f"matrix shape {mat.shape} for {m} nodes"]
        if not np.array_equal(mat, mat.T, equal_nan=True):
            problems.append("matrix is not symmetric")
        if not np.all(np.diag(mat) == 1.0):
            problems.append("diagonal is not 1")
        finite = mat[~np.isnan(mat)]
        if np.any((finite < 0) | (finite > 1)):
            problems.append("a p-value lies outside [0, 1]")
        return problems

    def compare(self, out: dict, ref: dict) -> list[str]:
        if out["nodes"] != ref["nodes"]:
            return ["nodes differ from the reference"]
        a, b = self._array(out), self._array(ref)
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            return ["NaN pattern differs from the reference"]
        if not np.allclose(a, b, rtol=REL_TOL, atol=1e-12, equal_nan=True):
            return ["p-values differ from the reference"]
        return []


class EdgeListCli:
    """In-process ``cli.main`` on an edge-list file written at set-up, with
    K estimated: the calls cycle through ``estimate-k``, ``test-pair
    --method t`` and ``test-pair --method g`` on seed-drawn node pairs."""

    name = "edgelist-cli"
    unit = "calls"
    ops_per_round = 3
    commands = ("estimate-k", "t", "g")

    def __init__(self, size: str):
        self.p = SIZES[size][self.name]

    def make_inputs(self, npt, workdir: Path, seed: int) -> dict:
        p = self.p
        path = workdir / "graph.txt"
        argv = ["simulate", "--model", "2", "--n", str(p["n"]),
                "--n0", str(p["n0"]), "--rho", str(p["rho"]),
                "--r2", str(p["r2"]), "--seed", str(seed), "--out", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = npt.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"simulate exited with {code}")
        with open(path, encoding="utf-8") as fh:
            edges = sum(1 for line in fh if not line.startswith("#"))
        return {"n": p["n"], "edges": edges}

    def load(self, npt, workdir: Path, seed: int) -> None:
        self.npt, self.seed = npt, seed
        self.path = str(workdir / "graph.txt")

    def argv(self, index: int) -> list[str]:
        command = self.commands[index % len(self.commands)]
        if command == "estimate-k":
            return ["estimate-k", "--graph", self.path]
        rng = np.random.default_rng([self.seed, index + 1])
        i, j = rng.choice(self.p["n"], 2, replace=False)
        return ["test-pair", "--graph", self.path, "--method", command,
                "--i", str(i), "--j", str(j)]

    def _call(self, index: int, argv: list[str]) -> Op:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = self.npt.cli.main(argv)
            except SystemExit as exc:  # argparse exits on usage errors
                code = exc.code
            except Exception as exc:  # counted as failed, the run goes on
                return Op(index, perf_counter() - start, 1, 1, None,
                          type(exc).__name__)
            seconds = perf_counter() - start
        if code != 0:
            return Op(index, seconds, 1, 1, None, f"exit{code}")
        out = {"command": argv[0]}
        for line in stdout.getvalue().splitlines():
            key, _, value = line.partition(" ")
            out[key] = value
        return Op(index, seconds, 1, 0, out)

    def warm_up(self) -> Op:
        return self._call(-1, self.argv(0))

    def run(self, index: int) -> Op:
        return self._call(index, self.argv(index))

    def invariants(self, op: Op) -> list[str]:
        out = op.output
        try:
            if out["command"] == "estimate-k":
                k_hat, thr = int(out["k_hat"]), float(out["threshold"])
                mags = [float(v) for v in
                        out["eigenvalue_magnitudes"].split(",")]
                # magnitudes print with 4 decimals: ignore those at the edge
                clear = sum(v * v > thr * (1 + 1e-6) for v in mags)
                near = sum(v * v > thr * (1 - 1e-6) for v in mags)
                if not (thr > 0 and int(out["max_degree"]) > 0
                        and clear <= k_hat <= near):
                    return ["estimate-k output is inconsistent"]
                return []
            stat, p = float(out["statistic"]), float(out["p_value"])
            df, k = int(out["df"]), int(out["k_used"])
        except (KeyError, ValueError) as exc:
            return [f"unparsable CLI output ({exc!r})"]
        problems = []
        if stat < 0 or not 0 <= p <= 1:
            problems.append("statistic or p-value out of range")
        # both print with 6 decimals, so the statistic is known to +-5e-7;
        # near 0 the tail moves much faster than the statistic
        half = 5e-7
        low = scipy.stats.chi2.sf(stat + half, df) - half
        high = scipy.stats.chi2.sf(max(stat - half, 0.0), df) + half
        if not low - 1e-9 <= p <= high + 1e-9:
            problems.append("p-value is not the chi-square tail of the "
                            "statistic")
        if df != (k if out["method"] == "T" else k - 1):
            problems.append("degrees of freedom do not match k_used")
        return problems

    def compare(self, out: dict, ref: dict) -> list[str]:
        if set(out) != set(ref):
            return ["CLI output lines differ from the reference"]
        for key, value in ref.items():
            if key in ("statistic", "p_value", "threshold"):
                ok = _close(float(out[key]), float(value), abs_tol=1.5e-6)
            elif key == "eigenvalue_magnitudes":
                got = out[key].split(",")
                ok = len(got) == len(value.split(",")) and all(
                    _close(float(a), float(b), abs_tol=1.5e-4)
                    for a, b in zip(got, value.split(",")))
            else:
                ok = out[key] == value
            if not ok:
                return [f"{key} {out[key]!r} != reference {value!r}"]
        return []


WORKLOADS = {w.name: w for w in (MonteCarlo, PValueMatrix, EdgeListCli)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    npt = import_package()
    info = WORKLOADS[args.workload](args.size).make_inputs(
        npt, args.dir, args.seed)
    (args.dir / "info.json").write_text(json.dumps(info), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
