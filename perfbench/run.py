"""netpairtest benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload mc-dense --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The exit code is 0 when every output
passed its checks, 1 when one did not, and 2 when the benchmark could not
run at all (for instance without the package sources). See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "units_per_s": "1/s",
    "call_s_p50": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").split("\n"):
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, info: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": _nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "inputs": info,
    }


def set_up(workload, npt, seed: int, size: str, workdir: Path):
    """Make the inputs in a child process, load them and run the warm-up
    call; return (seconds, input description, warm-up outcome)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = perf_counter()
    subprocess.run([sys.executable, str(HERE / "workloads.py"),
                    "--workload", workload.name, "--seed", str(seed),
                    "--size", size, "--dir", str(workdir)],
                   check=True, timeout=150)
    workload.load(npt, workdir, seed)
    warm = workload.warm_up()
    seconds = perf_counter() - start
    info = json.loads((workdir / "info.json").read_text(encoding="utf-8"))
    return seconds, info, warm


def measure(workload, seconds: float, tracer=None):
    """Run whole rounds of calls until ``seconds`` have passed.

    Untraced, return (calls, rounds, 0, 0). Traced, every round runs its
    calls once without and once with the tracer, alternating which goes
    first, and the two wall times are returned as well.
    """
    calls, rounds, plain_s, traced_s = [], 0, 0.0, 0.0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        indices = range(rounds * workload.ops_per_round,
                        (rounds + 1) * workload.ops_per_round)
        modes = (False,) if tracer is None else \
            ((False, True) if rounds % 2 == 0 else (True, False))
        for traced in modes:
            for index in indices:
                if traced:
                    with tracer:
                        op = workload.run(index)
                    traced_s += op.seconds
                else:
                    op = workload.run(index)
                    plain_s += op.seconds
                calls.append(op)
        rounds += 1
    return calls, rounds, plain_s, traced_s


def check(workload, calls, reference: dict | None) -> list[str]:
    """Invariants on every call that returned; the stored outputs of the
    default seed where ``reference`` holds the call's index."""
    problems = []
    for op in calls:
        if op.output is None:
            continue
        found = workload.invariants(op)
        ref = (reference or {}).get(str(op.index))
        if ref is not None:
            found += workload.compare(op.output, ref)
        problems += [f"call {op.index}: {p}" for p in found]
    return problems


def end_to_end(calls, setup_times) -> dict:
    attempted = sum(op.units for op in calls)
    failed = sum(op.failed for op in calls)
    return {
        # medians over the calls: one slow call barely moves them
        "units_per_s": statistics.median((op.units - op.failed) / op.seconds
                                         for op in calls),
        "call_s_p50": statistics.median(op.seconds for op in calls),
        "ok_frac": 1.0 - failed / attempted,
        # ru_maxrss is in KiB on Linux; inputs are made in child processes
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def run(args) -> int:
    import workloads
    from tracing import Tracer

    npt = workloads.import_package()
    workload = workloads.WORKLOADS[args.workload](args.size)
    reference = None
    if args.seed == 0 and args.size == "full":
        stored = (HERE / "reference.json").read_text(encoding="utf-8")
        reference = json.loads(stored)[args.workload]

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times, warm_ups = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            seconds, info, warm = set_up(workload, npt, args.seed,
                                         args.size, workdir)
            setup_times.append(seconds)
            warm_ups.append(warm)
        print("perfbench env " + json.dumps(environment(args.seed, info)))
        tracer = Tracer(npt) if args.trace else None
        calls, rounds, plain_s, traced_s = measure(workload, args.seconds,
                                                   tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    problems = check(workload, warm_ups + calls, reference)
    for problem in problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    errors = sorted({op.error for op in calls if op.error})
    attempted = sum(op.units for op in calls)
    failed = sum(op.failed for op in calls)
    print(f"perfbench {args.workload}: {len(calls)} calls in {rounds} rounds, "
          f"{attempted} {workload.unit} attempted, {failed} failed"
          + (f" (errors: {', '.join(errors)})" if errors else "")
          + (", checked against the seed-0 reference" if reference else ""))
    print("perfbench call seconds " +
          json.dumps([round(op.seconds, 4) for op in calls]))

    if tracer is None:
        units = END_TO_END_UNITS
        values = end_to_end(calls, setup_times)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   tracer.metrics(rounds, traced_s, plain_s).items()}
    for key, metric in metrics.items():
        print(f"metric {key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


class Terminated(BaseException):
    """Raised on SIGTERM so that the run unwinds: subprocess.run kills its
    child and the work directory is removed. Not a SystemExit, which the
    in-process CLI calls catch."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    # fix the BLAS thread count before numpy loads, here and in the children
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(_nproc()))
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole rounds of calls for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full", help="tiny is for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        return run(args)
    except Terminated:
        return 128 + signal.SIGTERM
    except ImportError as exc:  # no package sources in this directory
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # no result line: the run as a whole failed
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
