"""Workloads of the subdiff benchmark, the in-process command runner and the
checks on the commands' outputs.

Every command is an argument list a user would type after ``subdiff``; it is
run through ``subdiff.cli.main`` in the benchmark's own process, with the
CLI's defaults (so ``study`` uses its default thread pool).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import re
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

Command = tuple[str, ...]
Main = Callable[[list[str]], int]

#: Orders audited by ``kernel-audit``: the extremes the ROADMAP keeps tested
#: plus three interior values.  ``1 - 1e-12`` is written out in full.
AUDIT_ALPHAS = ("1e-9", "0.1", "0.5", "0.9", "0.999999999999")
AUDIT_JMAX = "3000000"

WORKLOADS: dict[str, tuple[Command, ...]] = {
    "second-varcoef": (
        ("study", "--table", "2"),
        ("study", "--table", "3"),
    ),
    "compact-history": (("study", "--table", "5", "--fast"),),
    "kernel-audit": tuple(
        ("audit", "--alpha", alpha, "--jmax", AUDIT_JMAX, "--weights", family)
        for alpha in AUDIT_ALPHAS
        for family in ("l21sigma", "l1")
    )
    + (("study", "--table", "1"),),
}

#: A reported error cell further than this share from its reference value
#: marks the run incorrect.  The largest known gap (C05/C06, Table 2) is 0.132.
REF_DEV_CEILING = 0.25

_NON_FINITE = re.compile(r"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")
_AUDIT_OVERALL = re.compile(r"^overall: (PASS|FAIL) ", re.MULTILINE)


@dataclass
class Outcome:
    """What one command did: its exit code and captured output."""

    argv: Command
    code: Optional[int]
    stdout: str
    error: Optional[str] = None  # traceback text when the command raised

    @property
    def non_finite(self) -> bool:
        return bool(_NON_FINITE.search(self.stdout))

    @property
    def failed(self) -> bool:
        return self.error is not None or self.code != 0 or self.non_finite

    def signature(self) -> str:
        """The output with the timing column dropped, for comparing passes."""
        if self.argv[0] != "study":
            return self.stdout
        return "\n".join(line.rsplit(",", 1)[0] for line in self.stdout.splitlines())


def run_command(main: Main, argv: Command) -> Outcome:
    out = io.StringIO()
    code: Optional[int] = None
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except Exception:  # a crash is a measured failure, not a benchmark abort
            error = traceback.format_exc()
    return Outcome(argv, code, out.getvalue(), error)


def pass_order(commands: Sequence[Command], rng: random.Random) -> list[Command]:
    """The commands of one pass in the order the seed's generator picks."""
    order = list(commands)
    rng.shuffle(order)
    return order


def single_threaded(command: Command) -> Command:
    """The same command with the study pool reduced to one thread."""
    return command + ("--threads", "1") if command[0] == "study" else command


def run_pass(main: Main, commands: Sequence[Command]) -> tuple[float, list[Outcome]]:
    """Run the commands in order; return the pass's wall time and outcomes."""
    start = time.perf_counter()
    outcomes = [run_command(main, argv) for argv in commands]
    return time.perf_counter() - start, outcomes


def count_failures(outcomes: Sequence[Outcome]) -> tuple[int, int]:
    """``(attempted, failed)`` over the given outcomes."""
    return len(outcomes), sum(outcome.failed for outcome in outcomes)


def study_deviations(
    argv: Command, stdout: str, references: dict
) -> list[tuple[str, float]]:
    """``(cell label, |err - ref| / ref)`` for every error cell of a study
    report.  Raises ``ValueError`` when the report misses a reference cell or
    holds a malformed or non-finite number."""
    table = int(argv[argv.index("--table") + 1])
    reference = references[table]
    rows = list(csv.DictReader(io.StringIO(stdout)))
    seen = set()
    deviations = []
    for row in rows:
        alpha, level = float(row["alpha"]), int(row["level"])
        ref = reference[alpha][level - 1]
        if len(ref) == 5:
            pairs = (
                ("l2max", row["err_l2max"], ref[1]),
                ("sup", row["err_sup"], ref[3]),
            )
        else:
            pairs = (("sup", row["err_sup"], ref[1]),)
        for norm, text, ref_err in pairs:
            label = f"T{table} alpha={alpha:g} level={level} {norm}"
            mine = float(text) if text else math.nan
            if not math.isfinite(mine):
                raise ValueError(f"{label} is {text!r}")
            deviations.append((label, abs(mine - ref_err) / ref_err))
        seen.add((alpha, level))
    expected = {
        (alpha, level)
        for alpha, block in reference.items()
        for level in range(1, len(block) + 1)
    }
    if seen != expected:
        raise ValueError(
            f"T{table}: {len(seen)} cells reported, {len(expected)} in the reference"
        )
    return deviations


def check_outcome(
    outcome: Outcome, references: dict
) -> tuple[list[tuple[str, float]], list[str]]:
    """Reference deviations and correctness problems of one command.

    A nonzero exit counts as a failure but is not by itself a wrong output.
    A command that raised, a study whose cells are missing, non-finite or far
    from the reference, and an audit whose verdict contradicts its exit code
    are wrong outputs.
    """
    if outcome.error is not None:
        return [], [f"{' '.join(outcome.argv)} raised:\n{outcome.error}"]
    if outcome.argv[0] == "study":
        try:
            deviations = study_deviations(outcome.argv, outcome.stdout, references)
        except (ValueError, KeyError, IndexError) as exc:
            return [], [f"{' '.join(outcome.argv)}: unreadable report ({exc!r})"]
        problems = [
            f"{label}: deviation {dev:.3g} above {REF_DEV_CEILING}"
            for label, dev in deviations
            if dev > REF_DEV_CEILING
        ]
        return deviations, problems
    verdicts = _AUDIT_OVERALL.findall(outcome.stdout)
    expected_code = {"PASS": 0, "FAIL": 1}.get(verdicts[-1]) if verdicts else None
    if expected_code != outcome.code:
        return [], [
            f"{' '.join(outcome.argv)}: verdict {verdicts} but exit code {outcome.code}"
        ]
    return [], []


class OutputLedger:
    """Collects every outcome of a run, checks it, and demands that each
    command print the same output (timings aside) on every pass."""

    def __init__(self, references: dict):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deviations: dict[str, float] = {}
        self._signatures: dict[Command, str] = {}

    def add(self, outcomes: Sequence[Outcome]) -> None:
        attempted, failed = count_failures(outcomes)
        self.attempted += attempted
        self.failed += failed
        for outcome in outcomes:
            key = outcome.argv
            if key[-2:] == ("--threads", "1"):
                key = key[:-2]
            signature = outcome.signature()
            first = self._signatures.get(key)
            if first is None:
                self._signatures[key] = signature
                deviations, problems = check_outcome(outcome, self.references)
                self.deviations.update(deviations)
                self.problems.extend(problems)
            elif first != signature:
                self.problems.append(f"{' '.join(outcome.argv)}: output differs between passes")

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def ref_dev_max(self) -> tuple[str, float]:
        if not self.deviations:
            return "none", 0.0
        return max(self.deviations.items(), key=lambda item: item[1])
