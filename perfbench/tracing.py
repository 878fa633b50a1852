"""In-memory spans around ssdual's public functions, for the traced run.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by a
wrapper wherever ssdual's modules bind it, so calls made inside the library
(``verify`` building a law, ``absorption_law`` computing a spectrum) are
spanned too.  A span is ``[name, start, end, parent, request, count]``;
``count`` is the work a call did (trace steps, CDF points, tensor bytes).
Self time is a span's duration minus the time its child spans cover.
``uninstall`` puts every original back.  The untraced run never installs it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

import numpy as np


def _trace_steps(args, kwargs, result):
    return len(result.primal_path) - 1


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _separation_steps(args, kwargs, result):
    return len(result.s) - 1


def _tensor_bytes(args, kwargs, result):
    return result.mats.nbytes


#: (module, attribute, span name, count function); "Class.method" patches a method
TARGETS = (
    ("coupling", "simulate_coupled_discrete", "coupling.simulate", _trace_steps),
    ("coupling", "simulate_general_dual", "coupling.simulate", _trace_steps),
    ("coupling", "simulate_coupled_continuous", "coupling.simulate", _trace_steps),
    ("coupling", "trace_stream", "coupling.stream", None),
    ("coupling", "verify", "coupling.verify", None),
    ("laws", "DiscreteAbsorptionLaw.cdf", "laws.cdf", _points),
    ("laws", "ContinuousAbsorptionLaw.cdf", "laws.cdf", _points),
    ("laws", "DiscreteAbsorptionLaw.quantile", "laws.quantile", None),
    ("laws", "ContinuousAbsorptionLaw.quantile", "laws.quantile", None),
    ("laws", "absorption_law", "laws.build", None),
    ("laws", "sst_law", "laws.build", None),
    ("laws", "hypoexp_law", "laws.build", None),
    ("duality", "separation", "duality.separation", _separation_steps),
    ("duality", "build_link", "duality.link", None),
    ("duality", "check_monotone_reversal", "duality.monotone", None),
    ("duality", "build_modified_dual", "duality.modified_dual", None),
    ("spectral", "spectral_polynomials", "spectral.polynomials", _tensor_bytes),
    ("spectral", "eigenvalues", "spectral.eigenvalues", None),
    ("chains", "classify_kernel", "chains.classify", None),
    ("chains", "classify_generator", "chains.classify", None),
    ("chains", "stationary_law", "chains.stationary", None),
    ("cli", "main", "cli.main", None),
)

#: per-layer metric -> (span name, statistic, unit); statistics are per request
#: except "max", which is the largest count over the run
LAYER_METRICS = {
    "coupling.simulate_s": ("coupling.simulate", "self", "s"),
    "coupling.stream_s": ("coupling.stream", "self", "s"),
    "coupling.traces": ("coupling.simulate", "calls", "count"),
    "coupling.steps": ("coupling.simulate", "count", "count"),
    "coupling.gates_s": ("coupling.verify", "self", "s"),
    "laws.cdf_s": ("laws.cdf", "self", "s"),
    "laws.cdf_calls": ("laws.cdf", "calls", "count"),
    "laws.cdf_points": ("laws.cdf", "count", "count"),
    "laws.quantile_s": ("laws.quantile", "self", "s"),
    "laws.build_s": ("laws.build", "self", "s"),
    "duality.separation_s": ("duality.separation", "self", "s"),
    "duality.separation_steps": ("duality.separation", "count", "count"),
    "spectral.polynomials_s": ("spectral.polynomials", "self", "s"),
    "spectral.polynomials_mb": ("spectral.polynomials", "max", "MB"),
    "duality.link_s": ("duality.link", "self", "s"),
    "duality.link_calls": ("duality.link", "calls", "count"),
    "duality.monotone_s": ("duality.monotone", "self", "s"),
    "duality.modified_dual_s": ("duality.modified_dual", "self", "s"),
    "chains.classify_calls": ("chains.classify", "calls", "count"),
    "chains.classify_s": ("chains.classify", "self", "s"),
    "chains.stationary_calls": ("chains.stationary", "calls", "count"),
    "spectral.eigenvalues_calls": ("spectral.eigenvalues", "calls", "count"),
    "spectral.eigenvalues_s": ("spectral.eigenvalues", "self", "s"),
    "cli.import_s": ("cli.import", "self", "s"),
    "cli.main_s": ("cli.main", "self", "s"),
}


class Tracer:
    """Collects spans in memory; ``request`` tags the spans of the current request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def merge(self, spans: list[list]) -> None:
        """Add spans recorded by a child process to the current request."""
        base = len(self.spans)
        for name, start, end, parent, _, count in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               self.request, count])

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ssdual" or key.startswith("ssdual."))]
        for module_name, attr, name, count in TARGETS:
            owner = sys.modules.get(f"ssdual.{module_name}")
            if owner is None:  # ssdual.cli is loaded only by the command line
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self, requests: int) -> dict[str, dict]:
        """Every metric of LAYER_METRICS, averaged per request."""
        own = self.self_times()
        totals: dict[str, list[float]] = {}
        for span, t in zip(self.spans, own):
            acc = totals.setdefault(span[0], [0.0, 0, 0, 0])
            acc[0] += t
            acc[1] += 1
            acc[2] += span[5]
            acc[3] = max(acc[3], span[5])
        out = {}
        for metric, (name, stat, unit) in LAYER_METRICS.items():
            acc = totals.get(name, [0.0, 0, 0, 0])
            if stat == "max":
                value = acc[3] / 1e6
            else:
                value = {"self": acc[0], "calls": acc[1], "count": acc[2]}[stat] / requests
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write every span as JSON, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "count"],
                       "spans": self.spans}, fh)
