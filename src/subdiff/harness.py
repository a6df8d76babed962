"""Refinement-study harness.

A ``StudyPlan`` fixes the experiment geometry for one of the seven bundled
study tables (which fractional orders, which grid levels, which norms, and
whether the convergence order is measured against the time step or the mesh
size).  ``run_study`` executes every (alpha, level) cell, attaches observed
convergence orders and a priori stability verdicts, and ``emit`` renders the
report as CSV or markdown.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import convergence_order, error_norms
from .kernels import (
    L1,
    L21SIGMA,
    FractionalOrder,
    apply,
    weights,
    weights_l1,
)
from .problems import get_problem, problem_caputo_monomial
from .schemes import a_priori_bound, run_compact, run_second_order

__all__ = [
    "ConvergenceReport",
    "LevelSpec",
    "ReportRow",
    "StudyPlan",
    "TABLE_IDS",
    "emit",
    "monomial_error",
    "run_study",
    "study_plan",
]

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7")

CSV_HEADER = "alpha,level,h,tau,err_l2max,co_l2max,err_sup,co_sup,seconds"


@dataclass(frozen=True)
class LevelSpec:
    """One refinement level: ``nx`` space subintervals (``None`` for
    kernel-only studies) and ``nt`` time steps."""

    nx: Optional[int]
    nt: int


@dataclass(frozen=True)
class StudyPlan:
    table_id: str
    problem_id: str
    scheme: str  # "kernel" | "second" | "compact"
    alphas: tuple[float, ...]
    levels: tuple[LevelSpec, ...]
    norms: tuple[str, ...]
    co_step: str  # "tau" | "h": which step the observed order is measured against
    fast: bool = False


@dataclass
class ReportRow:
    alpha: float
    level: int
    nx: Optional[int]
    nt: int
    h: Optional[float]
    tau: float
    err_l2max: Optional[float]
    co_l2max: Optional[float]
    err_sup: Optional[float]
    co_sup: Optional[float]
    seconds: float
    apriori_ok: Optional[bool]


@dataclass
class ConvergenceReport:
    table_id: str
    rows: list[ReportRow]


def study_plan(table: int, fast: bool = False) -> StudyPlan:
    """The fixed experiment geometry of study table 1..7."""
    if table == 1:
        return StudyPlan(
            table_id="T1",
            problem_id="caputo-monomial",
            scheme="kernel",
            alphas=(0.9, 0.5, 0.1),
            levels=tuple(LevelSpec(nx=None, nt=10 * 2**k) for k in range(10)),
            norms=("l2max", "sup"),
            co_step="tau",
        )
    if table == 2:
        return StudyPlan(
            table_id="T2",
            problem_id="varcoeff-2nd",
            scheme="second",
            alphas=(0.10, 0.50, 0.90, 0.99),
            levels=tuple(LevelSpec(nx=n, nt=n) for n in (160, 320, 640)),
            norms=("l2max", "sup"),
            co_step="h",
        )
    if table == 3:
        return StudyPlan(
            table_id="T3",
            problem_id="varcoeff-2nd",
            scheme="second",
            alphas=(0.10, 0.50, 0.90, 0.99),
            levels=tuple(LevelSpec(nx=1000, nt=m) for m in (10, 20, 40)),
            norms=("l2max", "sup"),
            co_step="tau",
        )
    if table == 4:
        return StudyPlan(
            table_id="T4",
            problem_id="timecoeff-compact",
            scheme="compact",
            alphas=(0.75, 0.85, 0.95),
            levels=tuple(LevelSpec(nx=100, nt=m) for m in (10, 20, 40, 80)),
            norms=("l2max", "sup"),
            co_step="tau",
        )
    if table == 5:
        nt = 5000 if fast else 20000
        return StudyPlan(
            table_id="T5",
            problem_id="timecoeff-compact",
            scheme="compact",
            alphas=(0.10, 0.50, 0.90),
            levels=tuple(LevelSpec(nx=n, nt=nt) for n in (4, 8, 16, 32)),
            norms=("l2max", "sup"),
            co_step="h",
            fast=fast,
        )
    if table == 6:
        return StudyPlan(
            table_id="T6",
            problem_id="timecoeff-compact",
            scheme="compact",
            alphas=(0.10, 0.50, 0.90),
            levels=tuple(LevelSpec(nx=n, nt=n * n) for n in (10, 20, 40, 80)),
            norms=("l2max", "sup"),
            co_step="h",
        )
    if table == 7:
        levels = []
        for k in range(6):
            nt = 10 * 3**k
            levels.append(LevelSpec(nx=math.ceil(math.sqrt(nt)), nt=nt))
        return StudyPlan(
            table_id="T7",
            problem_id="timecoeff-compact",
            scheme="compact",
            alphas=(0.70, 0.80, 0.90),
            levels=tuple(levels),
            norms=("sup",),
            co_step="tau",
        )
    raise ValueError(f"table must be in 1..7, got {table}")


def monomial_error(
    order: FractionalOrder, m: int, formula: str = L21SIGMA
) -> tuple[float, float]:
    """Discretize the monomial test derivative with ``m`` steps so the
    collocation point lands on ``t = 1``; return ``(error, tau)``.

    The shifted-collocation formula uses ``tau = 1/(m-1+sigma)`` so that
    ``t_{m-1+sigma} = 1``; the piecewise-linear formula collocates at ``t_m``
    and uses ``tau = 1/m``.
    """
    if m < 2:
        raise ValueError(f"need at least two steps, got {m}")
    case = problem_caputo_monomial(order)
    if formula == L21SIGMA:
        tau = 1.0 / (m - 1 + order.sigma)
        weight_vector = weights(order, m - 1, tau)
    elif formula == L1:
        tau = 1.0 / m
        weight_vector = weights_l1(order, m - 1, tau)
    else:
        raise ValueError(f"unknown formula {formula!r}")
    approx = apply(weight_vector, case.u(np.arange(m + 1) * tau))
    return abs(approx - case.exact_value), tau


def _run_cell(plan: StudyPlan, alpha: float, index: int, level: LevelSpec) -> ReportRow:
    order = FractionalOrder(alpha)
    start = time.perf_counter()
    if plan.scheme == "kernel":
        error, tau = monomial_error(order, level.nt)
        seconds = time.perf_counter() - start
        return ReportRow(
            alpha=alpha,
            level=index + 1,
            nx=None,
            nt=level.nt,
            h=None,
            tau=tau,
            err_l2max=error,
            co_l2max=None,
            err_sup=error,
            co_sup=None,
            seconds=seconds,
            apriori_ok=None,
        )

    problem = get_problem(plan.problem_id, order).spec
    runner = {"second": run_second_order, "compact": run_compact}[plan.scheme]
    history = runner(problem, order, level.nx, level.nt)
    summary = error_norms(history, problem.exact)
    lhs, rhs = a_priori_bound(problem, order, history, scheme=plan.scheme)
    seconds = time.perf_counter() - start
    return ReportRow(
        alpha=alpha,
        level=index + 1,
        nx=level.nx,
        nt=level.nt,
        h=problem.length / level.nx,
        tau=problem.horizon / level.nt,
        err_l2max=summary.l2max if "l2max" in plan.norms else None,
        co_l2max=None,
        err_sup=summary.sup if "sup" in plan.norms else None,
        co_sup=None,
        seconds=seconds,
        apriori_ok=bool(lhs <= rhs),
    )


def _fill_orders(plan: StudyPlan, rows: list[ReportRow]) -> list[ReportRow]:
    """Attach observed orders within each alpha block (first level empty)."""
    per_alpha = len(plan.levels)
    if per_alpha < 2:
        return rows
    for block_start in range(0, len(rows), per_alpha):
        block = rows[block_start : block_start + per_alpha]
        steps = [row.tau if plan.co_step == "tau" else row.h for row in block]
        for field_err, field_co in (
            ("err_l2max", "co_l2max"),
            ("err_sup", "co_sup"),
        ):
            errors = [getattr(row, field_err) for row in block]
            if any(e is None for e in errors):
                continue
            orders = convergence_order(list(zip(steps, errors)))
            for offset, order_value in enumerate(orders, start=1):
                setattr(block[offset], field_co, order_value)
    return rows


def run_study(plan: StudyPlan, threads: int = 1) -> ConvergenceReport:
    """Execute every cell of the plan; cells are independent, so they may run
    on a thread pool, and the report always preserves plan order."""
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    cells = [
        (alpha, index, level)
        for alpha in plan.alphas
        for index, level in enumerate(plan.levels)
    ]
    if threads == 1:
        rows = [_run_cell(plan, alpha, index, level) for alpha, index, level in cells]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_run_cell, plan, alpha, index, level)
                for alpha, index, level in cells
            ]
            rows = [future.result() for future in futures]
    return ConvergenceReport(table_id=plan.table_id, rows=_fill_orders(plan, rows))


def _format_float(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.5e}"


def _format_order(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


def emit(report: ConvergenceReport, fmt: str = "csv") -> str:
    """Render the report; CSV uses the fixed header
    ``alpha,level,h,tau,err_l2max,co_l2max,err_sup,co_sup,seconds``."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in report.rows:
            lines.append(
                ",".join(
                    (
                        f"{row.alpha:g}",
                        str(row.level),
                        _format_float(row.h),
                        _format_float(row.tau),
                        _format_float(row.err_l2max),
                        _format_order(row.co_l2max),
                        _format_float(row.err_sup),
                        _format_order(row.co_sup),
                        f"{row.seconds:.3f}",
                    )
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = [
            f"### Study {report.table_id}",
            "",
            "| alpha | level | h | tau | err_l2max | co_l2max | err_sup | co_sup | seconds |",
            "| ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: |",
        ]
        previous_alpha: Optional[float] = None
        for row in report.rows:
            alpha_cell = "" if row.alpha == previous_alpha else f"{row.alpha:g}"
            previous_alpha = row.alpha
            err_l2 = "" if row.err_l2max is None else f"{row.err_l2max:.4e}"
            err_sup = "" if row.err_sup is None else f"{row.err_sup:.4e}"
            lines.append(
                "| "
                + " | ".join(
                    (
                        alpha_cell,
                        str(row.level),
                        _format_float(row.h),
                        _format_float(row.tau),
                        err_l2,
                        _format_order(row.co_l2max),
                        err_sup,
                        _format_order(row.co_sup),
                        f"{row.seconds:.3f}",
                    )
                )
                + " |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
