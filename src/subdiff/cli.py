"""Command-line front end.

Subcommands:

* ``caputo`` — discretize the Caputo derivative of the monomial test function
  and report errors and observed orders against the closed form: a
  one-order kernel study, with the observed orders of ``study``.
* ``solve``  — run one of the registered diffusion problems with either
  scheme and report error norms against the exact solution.
* ``study``  — reproduce one of the seven bundled refinement studies.
* ``audit``  — evaluate the provable weight inequalities for a given order.

Exit codes: 0 on success, 1 when a requested assertion or audit fails,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .grids import error_norms
from .harness import LevelSpec, StudyPlan, emit, run_study, study_plan
from .kernels import L1, L21SIGMA, FractionalOrder, audit_weight_family
from .problems import PROBLEM_IDS, get_problem
from .schemes import SchemeCompatibilityError, run_compact, run_second_order

__all__ = ["main"]


def _fractional_order(parser: argparse.ArgumentParser, alpha: float) -> FractionalOrder:
    try:
        return FractionalOrder(alpha)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # parser.error always raises


def _write_out(path: str, text: str, parser: argparse.ArgumentParser) -> None:
    """Write a report to ``path``; a path that cannot be written is a usage
    error (exit 2), not a failed assertion."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        parser.error(f"cannot write --out {path!r}: {exc.strerror}")


def _cmd_caputo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    order = _fractional_order(parser, args.alpha)
    try:
        steps = [int(part) for part in args.m.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--m expects comma-separated integers, got {args.m!r}")
    if not steps or any(m < 2 for m in steps):
        parser.error(f"--m expects integers >= 2, got {args.m!r}")
    if any(finer <= coarser for coarser, finer in zip(steps, steps[1:])):
        parser.error(f"--m expects strictly increasing step counts, got {args.m!r}")

    plan = StudyPlan(
        table_id="caputo",
        problem_id=None,
        scheme=args.formula,
        alphas=(order.alpha,),
        levels=tuple(LevelSpec(nx=None, nt=m) for m in steps),
        co_step="tau",
    )
    for row in run_study(plan).rows:
        line = f"m={row.nt} tau={row.tau:.6e} error={row.err_sup:.6e}"
        if row.level > 1:
            # The study leaves the order next to an exact (zero) error empty.
            co = "undefined (zero error)" if row.co_sup is None else f"{row.co_sup:.4f}"
            line += f" co={co}"
        print(line)
    return 0


def _cmd_solve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    order = _fractional_order(parser, args.alpha)
    try:
        named = get_problem(args.problem, order)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    if args.nx < 2 or args.nt < 1:
        parser.error(f"need --nx >= 2 and --nt >= 1, got nx={args.nx} nt={args.nt}")

    runner = run_second_order if args.scheme == "second" else run_compact
    try:
        history = runner((named.spec,), (order,), (args.nx,), args.nt)[0][0]
    except SchemeCompatibilityError as exc:
        parser.error(str(exc))

    if named.spec.exact is not None:
        summary = error_norms(history, named.spec.exact)
        print(f"err_l2max={summary.l2max:.6e} err_sup={summary.sup:.6e}")
    if args.out:
        rows = zip(history.grid.nodes(), history.values[-1])
        text = "x,value\n" + "".join(f"{x:.10e},{value:.10e}\n" for x, value in rows)
        _write_out(args.out, text, parser)
        print(f"final layer written to {args.out}")
    return 0


def _cmd_study(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        plan = study_plan(args.table, fast=args.fast)
    except ValueError as exc:
        parser.error(str(exc))

    report = run_study(plan)
    text = emit(report, args.format)
    if args.out:
        _write_out(args.out, text, parser)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)

    failures = []
    for row in report.rows:
        if row.apriori_ok is False:
            failures.append(
                f"a priori bound violated at alpha={row.alpha:g} level={row.level}"
            )
    if args.fast and plan.table_id == "T5":
        for row in report.rows:
            for co in (row.co_l2max, row.co_sup):
                if co is not None and not 3.9 <= co <= 4.1:
                    failures.append(
                        f"observed order {co:.4f} outside [3.9, 4.1] at "
                        f"alpha={row.alpha:g} level={row.level}"
                    )
    for failure in failures:
        print(f"assertion failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_audit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    order = _fractional_order(parser, args.alpha)
    if args.jmax < 0:
        parser.error(f"--jmax must be nonnegative, got {args.jmax}")
    audit = audit_weight_family(order, args.jmax, kind=args.weights)
    for check in audit.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: {verdict} (worst margin {check.margin:.3e})")
    overall = "PASS" if audit.passed else "FAIL"
    print(f"overall: {overall} (alpha={order.alpha!r}, jmax={args.jmax}, "
          f"weights={args.weights})")
    return 0 if audit.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subdiff",
        description="Discrete Caputo derivatives and subdiffusion schemes.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    caputo = subparsers.add_parser(
        "caputo", help="discretize the monomial test derivative"
    )
    caputo.add_argument("--alpha", type=float, required=True,
                        help="fractional order in (0, 1)")
    caputo.add_argument("--m", required=True,
                        help="comma-separated step counts, e.g. 10,20,40")
    caputo.add_argument("--formula", choices=(L21SIGMA, L1), default=L21SIGMA,
                        help="discrete derivative family (default: %(default)s)")
    caputo.set_defaults(handler=_cmd_caputo)

    solve = subparsers.add_parser(
        "solve", help="run one registered diffusion problem"
    )
    solve.add_argument("--problem", required=True,
                       help=f"problem id, one of: {', '.join(PROBLEM_IDS)}")
    solve.add_argument("--alpha", type=float, required=True,
                       help="fractional order in (0, 1)")
    solve.add_argument("--nx", type=int, required=True,
                       help="number of space subintervals")
    solve.add_argument("--nt", type=int, required=True,
                       help="number of time steps")
    solve.add_argument("--scheme", choices=("second", "compact"),
                       default="second",
                       help="difference scheme (default: %(default)s)")
    solve.add_argument("--out", help="write the final layer as CSV x,value")
    solve.set_defaults(handler=_cmd_solve)

    study = subparsers.add_parser(
        "study", help="reproduce one of the bundled refinement studies"
    )
    study.add_argument("--table", type=int, required=True,
                       help="study table number, 1..7")
    study.add_argument("--fast", action="store_true",
                       help="reduced step count for study 5 (order check only)")
    study.add_argument("--format", choices=("csv", "markdown"), default="csv",
                       help="output format (default: %(default)s)")
    study.add_argument("--out", help="write the report to this path")
    study.add_argument("--threads", type=int, choices=(1,),
                       help="only 1 is accepted: studies run on one thread")
    study.set_defaults(handler=_cmd_study)

    audit = subparsers.add_parser(
        "audit", help="evaluate the provable weight inequalities"
    )
    audit.add_argument("--alpha", type=float, required=True,
                       help="fractional order in (0, 1)")
    audit.add_argument("--jmax", type=int, default=1000,
                       help="largest target index audited (default: %(default)s)")
    audit.add_argument("--weights", choices=(L21SIGMA, L1), default=L21SIGMA,
                       help="weight family (default: %(default)s)")
    audit.set_defaults(handler=_cmd_audit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, parser)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
