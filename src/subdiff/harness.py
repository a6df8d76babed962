"""Refinement-study harness.

A ``StudyPlan`` fixes the experiment geometry for one of the seven bundled
study tables (which fractional orders, which grid levels, which norms, and
whether the convergence order is measured against the time step or the mesh
size).  ``run_study`` executes every (alpha, level) cell, marching all the
cells that share a time grid together, whatever their alpha, and one time
grid after another on the calling thread.  It attaches observed
convergence orders and a priori stability verdicts, and ``emit``
renders the report as CSV or markdown.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import convergence_order, error_norms
from .kernels import L21SIGMA, FractionalOrder, _collocation_offset, weights
from .problems import get_problem
from .schemes import a_priori_bound, run_compact, run_second_order

__all__ = [
    "ConvergenceReport",
    "LevelSpec",
    "ReportRow",
    "StudyPlan",
    "emit",
    "monomial_error",
    "run_study",
    "study_plan",
]

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
    problem_id: str  # a registered id; "caputo-monomial" names T1's test function
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
    """Discretize the Caputo derivative of ``u(t) = t**(4+alpha)`` with ``m``
    steps so the collocation point lands on ``t = 1``, where the exact value
    is ``Gamma(5+alpha)/24``; return ``(error, tau)``.

    The shifted-collocation formula uses ``tau = 1/(m-1+sigma)`` so that
    ``t_{m-1+sigma} = 1``; the piecewise-linear formula collocates at ``t_m``
    and uses ``tau = 1/m``.
    """
    if m < 2:
        raise ValueError(f"need at least two steps, got {m}")
    tau = 1.0 / (m - 1 + _collocation_offset(order, formula))
    g = weights(order, m - 1, tau, formula)
    u = (np.arange(m + 1) * tau) ** (4.0 + order.alpha)
    approx = float(g[::-1] @ np.diff(u))
    return abs(approx - math.gamma(5.0 + order.alpha) / 24.0), tau


def _run_group(plan: StudyPlan, levels: list[tuple[int, LevelSpec]]) -> list[ReportRow]:
    """Run every alpha of the plan on the levels that share ``nt``; a PDE
    scheme marches all of these cells together.  The rows come alpha by
    alpha, and each row's ``seconds`` is the group's wall time split evenly
    over its cells."""
    nt = levels[0][1].nt
    orders = [FractionalOrder(alpha) for alpha in plan.alphas]
    start = time.perf_counter()
    # (h, tau, err_l2max, err_sup, apriori_ok) of each cell, alpha by alpha.
    outcomes: list[tuple] = []
    if plan.scheme == "kernel":
        for order in orders:
            error, tau = monomial_error(order, nt)
            outcomes += [(None, tau, error, error, None)] * len(levels)
    else:
        problems = [get_problem(plan.problem_id, order).spec for order in orders]
        runner = {"second": run_second_order, "compact": run_compact}[plan.scheme]
        nxs = tuple(level.nx for _, level in levels)
        histories = runner(problems, orders, nxs, nt)
        for problem, order, row in zip(problems, orders, histories):
            for (_, level), history in zip(levels, row):
                summary = error_norms(history, problem.exact)
                lhs, rhs = a_priori_bound(problem, order, history)
                outcomes.append(
                    (
                        problem.length / level.nx,
                        problem.horizon / nt,
                        summary.l2max if "l2max" in plan.norms else None,
                        summary.sup if "sup" in plan.norms else None,
                        bool(lhs <= rhs),
                    )
                )
    seconds = (time.perf_counter() - start) / len(outcomes)
    cells = [(alpha, index, level) for alpha in plan.alphas for index, level in levels]
    return [
        ReportRow(
            alpha=alpha,
            level=index + 1,
            nx=level.nx,
            nt=nt,
            h=h,
            tau=tau,
            err_l2max=err_l2max,
            co_l2max=None,
            err_sup=err_sup,
            co_sup=None,
            seconds=seconds,
            apriori_ok=apriori_ok,
        )
        for (alpha, index, level), (h, tau, err_l2max, err_sup, apriori_ok) in zip(
            cells, outcomes
        )
    ]


def _fill_orders(plan: StudyPlan, rows: list[ReportRow]) -> list[ReportRow]:
    """Attach observed orders within each alpha block (first level empty).
    An order next to an exact (zero) error has no logarithm and stays
    empty."""
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
            levels = list(zip(steps, errors))
            for offset in range(1, len(block)):
                if errors[offset - 1] > 0.0 and errors[offset] > 0.0:
                    (value,) = convergence_order(levels[offset - 1 : offset + 1])
                    setattr(block[offset], field_co, value)
    return rows


def run_study(plan: StudyPlan) -> ConvergenceReport:
    """Execute every cell of the plan.  The cells that share ``nt``, over
    every alpha, form a group whose cells march together; the groups run one
    after another, and the report keeps plan order (alpha by alpha, level by
    level)."""
    groups: dict[int, list[tuple[int, LevelSpec]]] = {}
    for index, level in enumerate(plan.levels):
        groups.setdefault(level.nt, []).append((index, level))
    results = [_run_group(plan, levels) for levels in groups.values()]
    rows = sorted(
        (row for group_rows in results for row in group_rows),
        key=lambda row: (plan.alphas.index(row.alpha), row.level),
    )
    return ConvergenceReport(table_id=plan.table_id, rows=_fill_orders(plan, rows))


def _format_float(value: Optional[float], digits: int = 5) -> str:
    return "" if value is None else f"{value:.{digits}e}"


def _format_order(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


def emit(report: ConvergenceReport, fmt: str = "csv") -> str:
    """Render the report; CSV uses the fixed header
    ``alpha,level,h,tau,err_l2max,co_l2max,err_sup,co_sup,seconds``, and
    markdown the same columns with four-digit errors and the alpha of each
    block on its first row only."""
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    markdown = fmt == "markdown"
    error_digits = 4 if markdown else 5
    table: list[tuple[str, ...]] = []
    previous_alpha: Optional[float] = None
    for row in report.rows:
        repeated = markdown and row.alpha == previous_alpha
        previous_alpha = row.alpha
        table.append(
            (
                "" if repeated else f"{row.alpha:g}",
                str(row.level),
                _format_float(row.h),
                _format_float(row.tau),
                _format_float(row.err_l2max, error_digits),
                _format_order(row.co_l2max),
                _format_float(row.err_sup, error_digits),
                _format_order(row.co_sup),
                f"{row.seconds:.3f}",
            )
        )
    if not markdown:
        lines = [CSV_HEADER] + [",".join(cells) for cells in table]
    else:
        columns = CSV_HEADER.split(",")
        lines = [f"### Study {report.table_id}", "", "| " + " | ".join(columns) + " |"]
        lines.append("|" + " ---: |" * len(columns))
        lines += ["| " + " | ".join(cells) + " |" for cells in table]
    return "\n".join(lines) + "\n"
