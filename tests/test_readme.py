"""The README's ``## Library`` example runs against the library as it is,
and its comments hold; every ``subdiff`` command of its ``sh`` blocks runs
and exits 0, and the report columns it lists are the ones ``study`` prints."""

import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from subdiff.cli import main
from subdiff.harness import CSV_HEADER

README = Path(__file__).resolve().parent.parent / "README.md"


def _commands() -> list[str]:
    """Every ``subdiff`` command of the README's ``sh`` blocks, with its
    ``\\`` continuations joined and its ``#`` comment stripped."""
    text = README.read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines += block.replace("\\\n", " ").splitlines()
    commands = [" ".join(line.split("#", 1)[0].split()) for line in lines]
    return [command for command in commands if command.startswith("subdiff ")]


def test_readme_shows_every_subcommand():
    assert {command.split()[1] for command in _commands()} == {"caputo", "solve", "study", "audit"}


@pytest.mark.parametrize("command", _commands())
def test_readme_command_exits_zero(command, tmp_path, monkeypatch, capsys):
    """Run in a scratch directory, so its ``--out`` files land there."""
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0, capsys.readouterr().err


def test_readme_lists_the_report_columns():
    text = README.read_text(encoding="utf-8")
    (columns,) = re.findall(r"Every report has the columns `([^`]*)`", text)
    assert columns == CSV_HEADER


def _library_example() -> str:
    """The one python block of the README's ``## Library`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_example_runs():
    scope: dict = {}
    exec(compile(_library_example(), str(README), "exec"), scope)
    order, tau, j = scope["order"], scope["tau"], scope["j"]
    # "~ exact for quadratics": the derivative of t^2 at t_{j+sigma}.
    t = (j + order.sigma) * tau
    exact = 2.0 * t ** (2.0 - order.alpha) / math.gamma(3.0 - order.alpha)
    assert scope["value"] == pytest.approx(exact, rel=1e-13)
    # "all >= 0 up to rounding"
    probe = scope["probe"]
    tol = 1e-12 * np.maximum(1.0, probe.term_scale)
    for margins in (probe.newest, probe.previous, probe.blended):
        assert np.all(margins >= -tol)
    assert scope["lhs"] <= scope["rhs"]
    assert scope["summary"].l2max > 0.0
    assert len(scope["coarse"].values) == len(scope["fine"].values) == 33
