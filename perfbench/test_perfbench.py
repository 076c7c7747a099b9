"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[3]
               for line in lines if line.startswith("metric ")}
    assert printed == expected
    assert any(line.startswith("perfbench env ") for line in lines)


@pytest.fixture(scope="module")
def npt():
    return workloads.import_package()


def _calls(npt, name, tmp_path):
    workload = workloads.WORKLOADS[name]("tiny")
    workload.make_inputs(npt, tmp_path, 0)
    workload.load(npt, tmp_path, 0)
    return workload, [workload.run(i) for i in range(workload.ops_per_round)]


def _perturb(name, out):
    """The output with one value moved by far less than any real defect
    moves it, yet by more than the reference tolerance."""
    out = copy.deepcopy(out)
    if name == "mc-dense":
        out["statistics"][0] *= 1 + 1e-6
    elif name == "pvalue-matrix":
        mat = np.array(out["matrix"], dtype=float)
        np.fill_diagonal(mat, np.nan)
        s, t = np.unravel_index(np.nanargmax(mat), mat.shape)
        out["matrix"][s][t] *= 1 - 1e-6
    else:
        key = "threshold" if out["command"] == "estimate-k" else "statistic"
        out[key] = f"{float(out[key]) * (1 + 1e-4):.6f}"
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_reference_fails_the_check(name, npt, tmp_path):
    workload, calls = _calls(npt, name, tmp_path)
    for op in calls:
        assert op.output is not None, op.error
        assert workload.invariants(op) == []
        assert workload.compare(op.output, op.output) == []
        assert workload.compare(op.output, _perturb(name, op.output)) != []


@pytest.mark.parametrize("name", ["mc-dense", "edgelist-cli"])
def test_tolerance_passes_another_exact_eigensolver(name, npt, tmp_path,
                                                    monkeypatch):
    workload, calls = _calls(npt, name, tmp_path)
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: scipy.linalg.eigh(a, driver="evr"))
    for op in calls:
        assert workload.compare(workload.run(op.index).output, op.output) == []


def test_wrong_covariance_fails_the_check(npt, tmp_path, monkeypatch):
    workload, calls = _calls(npt, "mc-dense", tmp_path)
    right = npt.inference.estimate_sigma1

    def wrong(*args, **kwargs):
        cov = right(*args, **kwargs)
        return type(cov)(matrix=cov.matrix * 1.01,
                         condition_estimate=cov.condition_estimate)

    monkeypatch.setattr(npt.inference, "estimate_sigma1", wrong)
    assert workload.compare(workload.run(0).output, calls[0].output) != []


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for path in HERE.glob("*.py"):
        (bare / path.name).write_text(path.read_text(encoding="utf-8"),
                                      encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode not in (0, None)
    assert '"metrics"' not in proc.stdout
