"""The README's ``## Library`` example runs against the library as it is,
and its comments hold."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


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
