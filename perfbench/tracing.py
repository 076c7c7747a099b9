"""Per-layer tracing of netpairtest from outside the package.

The package modules bind each other's functions with ``from .x import f``,
so a function has one binding in every module that imports it. While
installed, the tracer replaces every binding of each traced function, in
every loaded netpairtest module, with one wrapper. The wrapper records a
span (name, start, end, parent) in memory and adds the span's duration, less
the time its child spans cover, to the function's self time. A traced name
that no longer exists is skipped and reports zero calls.

Counts are taken at the same boundaries from the call arguments and results.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "models": ("build_mean_matrix", "sample_adjacency", "model1_params",
               "model2_params"),
    "graph_io": ("load_edge_list", "adjacency", "max_degree"),
    "spectra": ("top_eigenpairs",),
    "estimation": ("estimate_k", "estimate_k_from_values", "residual_matrix",
                   "refine_eigenvalues", "refined_residual", "estimate_sigma1",
                   "estimate_sigma2"),
    "inference": ("test_T", "test_G", "pvalue_matrix"),
    "harness": ("run_size_power",),
    "cli": ("main",),
}

# exception types escaping an inference function that get their own count
ERROR_TYPES = ("SingularCovarianceError", "DegenerateNodeError",
               "CensoredSpectrumError", "ZeroDivisionError", "other")

COUNTS = {
    "spectra.pairs_requested": "count",
    "estimation.nxn_builds": "count",
    "estimation.nxn_bytes_computed": "bytes",
    **{f"inference.errors.{name}": "count" for name in ERROR_TYPES},
    "harness.replications": "count",
    "harness.failures": "count",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units.update(COUNTS)
    units["spectra.pairs_used_frac"] = "frac"
    units["trace_wall_s"] = "s"
    units["trace_self_sum_frac"] = "frac"
    units["trace_overhead_frac"] = "frac"
    return units


class Tracer:
    """Install with ``with tracer:`` around the traced calls; call
    :meth:`metrics` at the end."""

    def __init__(self, package):
        self._package = package
        self.spans = []  # [name, start, end, parent span index or -1]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span index, seconds covered by child spans]
        self._spectra = {}  # id(spectrum or its values) -> [spectrum, m, used]
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patched = []  # (module, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        self._end_op()

    def install(self) -> None:
        prefix = self._package.__name__
        for layer, names in LAYERS.items():
            owner = sys.modules.get(f"{prefix}.{layer}")
            for name in names:
                fn = getattr(owner, name, None)
                if callable(fn) and id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}",
                                                             fn))
        modules = [m for key, m in list(sys.modules.items())
                   if key == prefix or key.startswith(prefix + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn) if hook else None
        count_errors = name.startswith("inference.")
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append([name, perf_counter(), 0.0,
                          stack[-1][0] if stack else -1])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count_errors:
                    self._count_error(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[frame[0]]
                span[2] = end
                duration = end - span[1]
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if hook:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_error(self, exc: Exception) -> None:
        # an error escaping test_T and then pvalue_matrix is one error
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        kind = type(exc).__name__
        kind = kind if kind in ERROR_TYPES else "other"
        self.counts[f"inference.errors.{kind}"] += 1

    # ---- counts, taken after a traced call returns; a parameter renamed by
    # a refactor leaves its count at zero instead of failing the run

    def _use(self, spectrum_or_values, k) -> None:
        entry = self._spectra.get(id(spectrum_or_values))
        if entry is not None and k is not None:
            entry[2] = max(entry[2], min(int(k), entry[1]))

    def _nxn(self, args: dict) -> None:
        x = args.get("x")
        if x is not None:
            self.counts["estimation.nxn_builds"] += 1
            self.counts["estimation.nxn_bytes_computed"] += x.shape[0] ** 2 * 8

    def _after_spectra_top_eigenpairs(self, args, spectrum) -> None:
        m = int(args.get("m", 0))
        self.counts["spectra.pairs_requested"] += m
        entry = [spectrum, m, 0]  # holds the spectrum, so ids stay unique
        self._spectra[id(spectrum)] = entry
        self._spectra[id(spectrum.values)] = entry

    def _after_estimation_estimate_k_from_values(self, args, est) -> None:
        # deciding k_hat needs the eigenvalues above the threshold plus the
        # first one below it
        self._use(args.get("values"), est.k_hat + 1)

    def _after_estimation_residual_matrix(self, args, result) -> None:
        self._nxn(args)
        self._use(args.get("spec"), args.get("k"))

    def _after_estimation_refined_residual(self, args, result) -> None:
        self._nxn(args)
        self._use(args.get("spec"), args.get("k"))

    def _after_estimation_estimate_sigma1(self, args, result) -> None:
        self._use(args.get("spec"), args.get("k"))

    def _after_estimation_estimate_sigma2(self, args, result) -> None:
        self._use(args.get("spec"), args.get("k"))

    def _after_harness_run_size_power(self, args, report) -> None:
        for point in report.points:
            self.counts["harness.replications"] += point.replications
            self.counts["harness.failures"] += point.failures

    def _end_op(self) -> None:
        entries = {id(e): e for e in self._spectra.values()}
        self.counts["spectra.pairs_used"] += sum(e[2] for e in
                                                 entries.values())
        self._spectra.clear()

    # ---- report

    def metrics(self, rounds: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics per round of calls: name -> (value, unit).

        ``traced_s`` and ``untraced_s`` are the wall times of the same calls
        run with and without the tracer installed.
        """
        units = metric_units()
        values = {}
        for layer, names in LAYERS.items():
            for name in names:
                key = f"{layer}.{name}"
                values[f"{key}.calls"] = self.calls[key] / rounds
                values[f"{key}.self_s"] = self.self_s[key] / rounds
        for key in COUNTS:
            values[key] = self.counts[key] / rounds
        requested = self.counts["spectra.pairs_requested"]
        values["spectra.pairs_used_frac"] = \
            self.counts["spectra.pairs_used"] / requested if requested else 0.0
        values["trace_wall_s"] = traced_s / rounds
        values["trace_self_sum_frac"] = sum(self.self_s.values()) / traced_s
        values["trace_overhead_frac"] = traced_s / untraced_s - 1.0
        return {key: (values[key], units[key]) for key in units}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
