"""Refinement-study harness.

A ``StudyPlan`` fixes the experiment geometry for one of the seven bundled
study tables (which fractional orders, which grid levels, and whether the
convergence order is measured against the time step or the mesh size).
``run_study`` executes every (alpha, level) cell, marching all the cells
that share a time grid together, whatever their alpha, and one time grid
after another on the calling thread.  It attaches observed convergence
orders and a priori stability verdicts, and ``emit`` renders the report as
CSV or markdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import _is_int, convergence_order, error_norms
from .kernels import L1, L21SIGMA, FractionalOrder, _collocation_offset, weights
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

CSV_HEADER = "alpha,level,h,tau,err_l2max,co_l2max,err_sup,co_sup"


@dataclass(frozen=True)
class LevelSpec:
    """One refinement level: ``nx`` space subintervals (``None`` for
    kernel-only studies) and ``nt`` time steps."""

    nx: Optional[int]
    nt: int


@dataclass(frozen=True)
class StudyPlan:
    table_id: str
    problem_id: Optional[str]  # a registered id, or None for a kernel plan
    scheme: str  # "l21sigma" | "l1" (kernel plans) | "second" | "compact"
    alphas: tuple[float, ...]
    levels: tuple[LevelSpec, ...]
    co_step: str  # "tau" | "h": which step the observed order is measured against

    def __post_init__(self) -> None:
        """Reject malformed geometry here, before any march, naming the field."""
        if self.problem_id is None:
            kind, steps, schemes = "a kernel", ("tau",), (L21SIGMA, L1)
        else:
            kind, steps, schemes = "a PDE", ("tau", "h"), ("second", "compact")
        if self.co_step not in steps:
            raise ValueError(f"co_step of {kind} plan must be in {steps}, got {self.co_step!r}")
        if self.scheme not in schemes:
            raise ValueError(f"scheme of {kind} plan must be in {schemes}, got {self.scheme!r}")
        if not self.alphas or not self.levels:
            raise ValueError(f"alphas and levels must be nonempty, got {self.alphas}, {self.levels}")
        if not all(0.0 < alpha < 1.0 for alpha in self.alphas):
            raise ValueError(f"alphas must lie strictly inside (0, 1), got {self.alphas!r}")
        if self.problem_id is not None and not all(
            _is_int(level.nx) and level.nx >= 2 for level in self.levels
        ):
            raise ValueError(f"levels of a PDE plan need an int nx >= 2, got {self.levels!r}")
        least_nt = 2 if self.problem_id is None else 1  # see ``monomial_error``
        if not all(_is_int(level.nt) and level.nt >= least_nt for level in self.levels):
            raise ValueError(f"levels of {kind} plan need an int nt >= {least_nt}, got {self.levels}")
        field = "nt" if self.co_step == "tau" else "nx"
        counts = [getattr(level, field) for level in self.levels]
        if any(finer <= coarser for coarser, finer in zip(counts, counts[1:])):
            raise ValueError(f"levels must refine along co_step: {field} must increase, got {counts}")


@dataclass
class ReportRow:
    alpha: float
    level: int
    nx: Optional[int]
    nt: int
    h: Optional[float]
    tau: float
    err_l2max: float
    co_l2max: Optional[float]
    err_sup: float
    co_sup: Optional[float]
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
            problem_id=None,
            scheme=L21SIGMA,
            alphas=(0.9, 0.5, 0.1),
            levels=tuple(LevelSpec(nx=None, nt=10 * 2**k) for k in range(10)),
            co_step="tau",
        )
    if table == 2:
        return StudyPlan(
            table_id="T2",
            problem_id="varcoeff-2nd",
            scheme="second",
            alphas=(0.10, 0.50, 0.90, 0.99),
            levels=tuple(LevelSpec(nx=n, nt=n) for n in (160, 320, 640)),
            co_step="h",
        )
    if table == 3:
        return StudyPlan(
            table_id="T3",
            problem_id="varcoeff-2nd",
            scheme="second",
            alphas=(0.10, 0.50, 0.90, 0.99),
            levels=tuple(LevelSpec(nx=1000, nt=m) for m in (10, 20, 40)),
            co_step="tau",
        )
    if table == 4:
        return StudyPlan(
            table_id="T4",
            problem_id="timecoeff-compact",
            scheme="compact",
            alphas=(0.75, 0.85, 0.95),
            levels=tuple(LevelSpec(nx=100, nt=m) for m in (10, 20, 40, 80)),
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
            co_step="h",
        )
    if table == 6:
        return StudyPlan(
            table_id="T6",
            problem_id="timecoeff-compact",
            scheme="compact",
            alphas=(0.10, 0.50, 0.90),
            levels=tuple(LevelSpec(nx=n, nt=n * n) for n in (10, 20, 40, 80)),
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


def _run_group(plan: StudyPlan, levels: list[tuple[int, LevelSpec]]) -> dict:
    """Run every alpha of the plan on the levels that share ``nt``; a PDE
    scheme marches all of these cells together.  Returns each cell's ``(h,
    tau, errors, apriori_ok)`` keyed by ``(alpha position, level index)``:
    ``h`` and ``tau`` as the run used them, and ``errors`` by norm, ``"l2max"``
    and ``"sup"`` (a kernel cell's one error under both)."""
    nt = levels[0][1].nt
    orders = [FractionalOrder(alpha) for alpha in plan.alphas]
    outcomes: dict[tuple[int, int], tuple] = {}
    if plan.problem_id is None:
        for a, order in enumerate(orders):
            error, tau = monomial_error(order, nt, plan.scheme)
            for index, _ in levels:
                outcomes[a, index] = (None, tau, dict.fromkeys(("l2max", "sup"), error), None)
    else:
        problems = [get_problem(plan.problem_id, order).spec for order in orders]
        runner = run_second_order if plan.scheme == "second" else run_compact
        histories = runner(problems, orders, tuple(level.nx for _, level in levels), nt)
        for a, (problem, order, row) in enumerate(zip(problems, orders, histories)):
            for (index, _), history in zip(levels, row):
                summary = error_norms(history, problem.exact)
                lhs, rhs = a_priori_bound(problem, order, history)
                errors = {"l2max": summary.l2max, "sup": summary.sup}
                outcomes[a, index] = (history.grid.h, float(history.times[1]), errors, bool(lhs <= rhs))
    return outcomes


def _orders(steps: list[float], errors: list[float]) -> list[Optional[float]]:
    """Observed order of each level of one alpha block against the level
    before it: none on the first level, and none next to an exact (zero)
    error, which has no logarithm."""
    levels = list(zip(steps, errors))
    return [None] + [
        convergence_order(pair)[0] if all(e > 0.0 for _, e in pair) else None
        for pair in zip(levels, levels[1:])
    ]


def run_study(plan: StudyPlan) -> ConvergenceReport:
    """Execute every cell of the plan.  The cells that share ``nt``, over
    every alpha, form a group whose cells march together; the groups run one
    after another.  The report keeps plan order (alpha by alpha, level by
    level, a repeated alpha in a block of its own), and each row is built
    once, with both error norms and their observed orders against
    ``plan.co_step``."""
    groups: dict[int, list[tuple[int, LevelSpec]]] = {}
    for index, level in enumerate(plan.levels):
        groups.setdefault(level.nt, []).append((index, level))
    cells: dict[tuple[int, int], tuple] = {}
    for levels in groups.values():
        cells.update(_run_group(plan, levels))
    rows = []
    for a, alpha in enumerate(plan.alphas):
        block = [cells[a, index] for index in range(len(plan.levels))]
        steps = [h if plan.co_step == "h" else tau for h, tau, *_ in block]
        errors = {norm: [cell[2][norm] for cell in block] for norm in ("l2max", "sup")}
        orders = {norm: _orders(steps, column) for norm, column in errors.items()}
        for index, (level, (h, tau, _, apriori_ok)) in enumerate(zip(plan.levels, block)):
            rows.append(
                ReportRow(
                    alpha=alpha,
                    level=index + 1,
                    nx=level.nx,
                    nt=level.nt,
                    h=h,
                    tau=tau,
                    err_l2max=errors["l2max"][index],
                    co_l2max=orders["l2max"][index],
                    err_sup=errors["sup"][index],
                    co_sup=orders["sup"][index],
                    apriori_ok=apriori_ok,
                )
            )
    return ConvergenceReport(table_id=plan.table_id, rows=rows)


def _format_float(value: Optional[float], digits: int = 5) -> str:
    return "" if value is None else f"{value:.{digits}e}"


def _format_order(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


def emit(report: ConvergenceReport, fmt: str = "csv") -> str:
    """Render the report; CSV uses the fixed header
    ``alpha,level,h,tau,err_l2max,co_l2max,err_sup,co_sup``, and
    markdown the same columns with four-digit errors and the alpha on the
    first level of each block only, so a repeated alpha shows on both of
    its blocks."""
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    markdown = fmt == "markdown"
    error_digits = 4 if markdown else 5
    table: list[tuple[str, ...]] = []
    for row in report.rows:
        table.append(
            (
                "" if markdown and row.level > 1 else f"{row.alpha:g}",
                str(row.level),
                _format_float(row.h),
                _format_float(row.tau),
                _format_float(row.err_l2max, error_digits),
                _format_order(row.co_l2max),
                _format_float(row.err_sup, error_digits),
                _format_order(row.co_sup),
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
