"""Spans around cvcluster's public functions, and the per-layer metrics.

The tracer rebinds each target function to a wrapper that records a span:
name, start, end, parent span and operation id.  Spans stay in a list in
memory and are written out when the run ends.  A target that no longer
exists is recorded as missing and its metrics read 0.

Import costs come from ``python -X importtime``, parsed by
``parse_importtime``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: (span name, module, attribute path).  Every attribute of a loaded cvcluster
#: module that is the target object is rebound too, so calls through names
#: that other modules imported (``cvcluster.cli.run_protocol``,
#: ``cvcluster.protocols.evolve``) are recorded.
TARGETS = (
    ("cli.main", "cvcluster.cli", "main"),
    ("protocols.builtin_protocol", "cvcluster.protocols", "builtin_protocol"),
    ("protocols.run_protocol", "cvcluster.protocols", "run_protocol"),
    ("protocols.transformed_coupling", "cvcluster.protocols", "transformed_coupling"),
    ("model.build_effective_hamiltonian", "cvcluster.model", "build_effective_hamiltonian"),
    ("gaussian.evolve", "cvcluster.gaussian", "evolve"),
    ("gaussian.steady_state", "cvcluster.gaussian", "steady_state"),
    ("gaussian.state_validation", "cvcluster.gaussian", "GaussianState.__post_init__"),
    ("gaussian.purity", "cvcluster.gaussian", "purity"),
    ("verify.nullifier_variances", "cvcluster.verify", "nullifier_variances"),
    ("verify.is_cluster", "cvcluster.verify", "is_cluster"),
    ("fock.integrate_two_mode", "cvcluster.fock", "integrate_two_mode"),
    ("fock.covariance_from_density", "cvcluster.fock", "covariance_from_density"),
)

LAYERS = ("protocols", "model", "gaussian", "verify", "fock")

#: metric -> (span name, statistic).  ``self_ms``: self time per operation;
#: ``calls``: spans per operation; ``sum:<key>`` / ``max:<key>``: a value the
#: span recorded from its function's result.
SPAN_METRICS = {
    "cli.self_ms": ("cli.main", "self_ms"),
    "protocols.builtin_protocol_ms": ("protocols.builtin_protocol", "self_ms"),
    "protocols.run_protocol_self_ms": ("protocols.run_protocol", "self_ms"),
    "protocols.transformed_coupling_calls": ("protocols.transformed_coupling", "calls"),
    "model.build_effective_hamiltonian_calls": ("model.build_effective_hamiltonian", "calls"),
    "model.build_effective_hamiltonian_ms": ("model.build_effective_hamiltonian", "self_ms"),
    "gaussian.evolve_ms": ("gaussian.evolve", "self_ms"),
    "gaussian.evolve_calls": ("gaussian.evolve", "calls"),
    "gaussian.steady_state_ms": ("gaussian.steady_state", "self_ms"),
    "gaussian.steady_state_calls": ("gaussian.steady_state", "calls"),
    "gaussian.state_constructions": ("gaussian.state_validation", "calls"),
    "gaussian.state_validation_ms": ("gaussian.state_validation", "self_ms"),
    "gaussian.purity_ms": ("gaussian.purity", "self_ms"),
    "verify.nullifier_variances_calls": ("verify.nullifier_variances", "calls"),
    "verify.nullifier_variances_ms": ("verify.nullifier_variances", "self_ms"),
    "verify.is_cluster_ms": ("verify.is_cluster", "self_ms"),
    "fock.integrate_two_mode_ms": ("fock.integrate_two_mode", "self_ms"),
    "fock.covariance_from_density_ms": ("fock.covariance_from_density", "self_ms"),
    "fock.steps": ("fock.integrate_two_mode", "sum:steps"),
    "fock.rho_dim": ("fock.integrate_two_mode", "max:rho_dim"),
}

IMPORT_METRICS = (
    "import.total_ms",
    "import.scipy_sparse_ms",
    "import.scipy_linalg_ms",
    "import.numpy_ms",
    "import.cvcluster_self_ms",
)

#: Every per-layer metric of a traced run, with its unit.
UNITS = {
    **{name: "ms/op" if stat == "self_ms" else "count/op"
       for name, (_, stat) in SPAN_METRICS.items()},
    "fock.rho_dim": "count",
    **{f"{layer}.layer_self_ms": "ms/op" for layer in LAYERS},
    **{name: "ms" for name in IMPORT_METRICS},
    "cli.sweep_cpu_per_wall": "ratio",
    "trace.overhead_ms": "ms/op",
    "trace.missing_spans": "count",
}


def _fock_info(result) -> dict:
    rho = getattr(result, "rho", None)
    return {"steps": getattr(result, "steps", None),
            "rho_dim": None if rho is None else int(rho.shape[0])}


RESULT_INFO = {"fock.integrate_two_mode": _fock_info}


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    info: dict | None


class Tracer:
    """Records spans while ``active``; ids are unique within one process.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the thread that installed the tracer as parent,
    which is how the sweep's pool threads hang under ``cli.main``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.active = False
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        info = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = info(result) if info is not None and result is not None else None
                self.spans.append(Span(span_id, name, start, end, parent, self.op, extra))

        return wrapper

    def record(self, fn):
        """``fn`` recording spans while it runs; each call is a new operation."""
        ops = itertools.count()

        def recorded(*args):
            self.op, self.active = next(ops), True
            try:
                return fn(*args)
            finally:
                self.active = False

        return recorded

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapped)
                continue
            for module_name_, module in list(sys.modules.items()):
                if module_name_.split(".")[0] != "cvcluster":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[(s.op, s.parent)].append((s.start_ns, s.end_ns))
    return [
        (s.end_ns - s.start_ns) - _covered_ns(children[(s.op, s.id)], s.start_ns, s.end_ns)
        for s in spans
    ]


def span_metrics(spans: list[Span], n_ops: int, missing: list[str]) -> tuple[dict, list[str]]:
    """Per-operation span metrics, plus the metric names that had no data source."""
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    infos = defaultdict(list)
    for span, own in zip(spans, self_times_ns(spans)):
        self_ms[span.name] += own / 1e6
        calls[span.name] += 1
        if span.info:
            for key, value in span.info.items():
                infos[(span.name, key)].append(value)
    values, absent = {}, []
    for metric, (span_name, stat) in SPAN_METRICS.items():
        if span_name in missing:
            absent.append(metric)
            values[metric] = 0.0
        elif stat == "self_ms":
            values[metric] = self_ms[span_name] / n_ops
        elif stat == "calls":
            values[metric] = calls[span_name] / n_ops
        else:
            how, key = stat.split(":")
            got = infos[(span_name, key)]
            if None in got:
                absent.append(metric)
                got = [v for v in got if v is not None]
            values[metric] = (sum(got) / n_ops if how == "sum" else max(got)) if got else 0.0
    for layer in LAYERS:
        values[f"{layer}.layer_self_ms"] = sum(
            ms for name, ms in self_ms.items() if name.split(".")[0] == layer
        ) / n_ops
    return values, absent


def parse_importtime(text: str) -> dict[str, float]:
    """Import metrics (ms) from the stderr of ``python -X importtime -c "import cvcluster.cli"``.

    A module's cost is the cumulative time on the line where it was first
    imported; a module never imported costs 0.
    """
    cumulative: dict[str, int] = {}
    cvcluster_self = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cum, name = line.split("|")
        name = name.strip()
        cumulative.setdefault(name, int(cum))
        if name.split(".")[0] == "cvcluster":
            cvcluster_self += int(head.split(":")[1])
    return {
        "import.total_ms": cumulative.get("cvcluster.cli", 0) / 1e3,
        "import.scipy_sparse_ms": cumulative.get("scipy.sparse", 0) / 1e3,
        "import.scipy_linalg_ms": cumulative.get("scipy.linalg", 0) / 1e3,
        "import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
        "import.cvcluster_self_ms": cvcluster_self / 1e3,
    }
