"""Spans recorded around the names through which one subdiff module calls the
next, and the per-layer metrics derived from them.

Hooks replace a module attribute (for example ``subdiff.schemes._solve_core``,
the name the schemes call the tridiagonal solver by) with a wrapper that
records a span: its name, start, end, parent span and a work count.  Spans
nest per thread; the traced pass runs single-threaded so every span has its
caller as parent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

ROOT = "cli.main"
CALLBACK = "problems.callback"

Work = Optional[Callable[[tuple, dict], int]]


def _arg(index: int, name: str, extra: int = 0) -> Callable[[tuple, dict], int]:
    """Work count read from positional ``index`` or keyword ``name``."""

    def count(args: tuple, kwargs: dict) -> int:
        value = args[index] if len(args) > index else kwargs[name]
        return (len(value) if hasattr(value, "__len__") else int(value)) + extra

    return count


#: (module, attribute, layer, work count per call).  The span of a hooked
#: name is called ``module.attribute``.  ``get_problem`` has no layer: it
#: records no span of its own but returns a problem whose callbacks record
#: spans named ``problems.callback``.
HOOKS: tuple[tuple[str, str, Optional[str], Work], ...] = (
    ("subdiff.cli", "run_study", "harness.run_study", None),
    ("subdiff.cli", "emit", "harness.emit", None),
    ("subdiff.cli", "audit_weight_family", "kernels.audit", _arg(1, "j_max", 1)),
    ("subdiff.harness", "run_compact", "schemes.march", _arg(3, "nt")),
    ("subdiff.harness", "run_second_order", "schemes.march", _arg(3, "nt")),
    ("subdiff.harness", "a_priori_bound", "schemes.apriori", None),
    ("subdiff.harness", "error_norms", "grids.error_norms", None),
    ("subdiff.harness", "weights", "kernels.tables", _arg(1, "j", 1)),
    ("subdiff.harness", "get_problem", None, None),
    ("subdiff.schemes", "_solve_core", "tridiag.solve", _arg(1, "diag")),
    ("subdiff.schemes", "coeff_a_array", "kernels.tables", _arg(1, "n", 1)),
    ("subdiff.schemes", "coeff_b_array", "kernels.tables", _arg(1, "n", 1)),
    ("subdiff.schemes", "_assemble_l21sigma", "kernels.tables", _arg(2, "j", 1)),
)
CALLBACK_FIELDS = ("k", "q", "f", "u0", "exact", "k_time", "q_time")


class Tracer:
    """In-memory span store.  ``spans[i]`` is
    ``(name, start_ns, end_ns, parent index or -1, work)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.unhooked: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, work: int) -> tuple[list[int], int]:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                (name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, work)
            )
        stack.append(index)
        return stack, index

    def _close(self, stack: list[int], index: int) -> None:
        end = time.perf_counter_ns()
        stack.pop()
        name, start, _, parent, work = self.spans[index]
        self.spans[index] = (name, start, end, parent, work)

    def wrap(self, name: str, fn: Callable, work: Work = None) -> Callable:
        def traced(*args, **kwargs):
            stack, index = self._open(name, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, index)

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _wrap_problem(tracer: Tracer, get_problem: Callable) -> Callable:
    def traced_get_problem(*args, **kwargs):
        named = get_problem(*args, **kwargs)
        if named.spec is None:
            return named
        callbacks = {
            field: tracer.wrap(CALLBACK, getattr(named.spec, field))
            for field in CALLBACK_FIELDS
            if getattr(named.spec, field) is not None
        }
        return dataclasses.replace(named, spec=dataclasses.replace(named.spec, **callbacks))

    traced_get_problem.__wrapped__ = get_problem
    return traced_get_problem


@contextlib.contextmanager
def hooked(tracer: Tracer) -> Iterator[Tracer]:
    """Install every hook for the duration of the block and restore the
    original attributes afterwards.  Names that no longer exist are listed in
    ``tracer.unhooked`` instead of being skipped silently."""
    installed: list[tuple[object, str, Callable]] = []
    try:
        for module_name, attr, layer, work in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                tracer.unhooked.append(f"{module_name}.{attr}")
                continue
            if layer is None:
                replacement = _wrap_problem(tracer, original)
            else:
                replacement = tracer.wrap(f"{module_name}.{attr}", original, work)
            setattr(module, attr, replacement)
            installed.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)


def _layer_totals(tracer: Tracer) -> dict[str, float]:
    """``<layer>.total_s``, ``.self_s``, ``.calls`` and ``.work`` summed over
    the spans of each layer; absent layers read 0."""
    owner = {f"{module}.{attr}": layer for module, attr, layer, _ in HOOKS if layer}
    owner.update({CALLBACK: "problems.callback", ROOT: "cli.main"})
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _, work), self_ns in zip(tracer.spans, tracer.self_times()):
        layer = owner.get(name)
        if layer is not None:
            totals[f"{layer}.total_s"] += (end - start) * 1e-9
            totals[f"{layer}.self_s"] += self_ns * 1e-9
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.work"] += work
    return totals


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    t = _layer_totals(tracer)
    rows = t["tridiag.solve.work"]
    return {
        "tridiag.solve_s": t["tridiag.solve.total_s"],
        "tridiag.calls": t["tridiag.solve.calls"],
        "tridiag.rows": rows,
        "tridiag.ns_per_row": t["tridiag.solve.total_s"] * 1e9 / rows if rows else 0.0,
        "schemes.march_self_s": t["schemes.march.self_s"],
        "schemes.steps": t["schemes.march.work"],
        "schemes.apriori_self_s": t["schemes.apriori.self_s"],
        "grids.error_norms_self_s": t["grids.error_norms.self_s"],
        "problems.callback_s": t["problems.callback.total_s"],
        "problems.calls": t["problems.callback.calls"],
        "kernels.tables_s": t["kernels.tables.total_s"],
        "kernels.table_entries": t["kernels.tables.work"],
        "kernels.audit_s": t["kernels.audit.total_s"],
        "kernels.audit_indices": t["kernels.audit.work"],
        "harness.self_s": t["harness.run_study.self_s"],
        "harness.emit_s": t["harness.emit.total_s"],
        "cli.self_s": t["cli.main.self_s"],
        "trace.unhooked": len(tracer.unhooked),
    }
