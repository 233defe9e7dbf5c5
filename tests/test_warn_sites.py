"""Every package warning names the caller's line, not a library line.

The package warns through one helper, `kernels._warn`, which skips the
frames of toalab modules (the `__init__` that dataclasses generates for a
toalab class among them) and attributes the warning to the first caller
outside the package.  The tests below raise each warning through the
library and check that it names this file.  The syntax check walks each
module under `src/toalab` and fails on any `warnings.warn` call, or import
of `warn`, outside the body of `_warn`.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from toalab.detectors import ArrivalDistribution, kijowski_bullet_stats
from toalab.experiments import metric_comparison
from toalab.kernels import _warn
from toalab.wavepacket import SpacePacket

SRC = Path(__file__).resolve().parents[1] / "src" / "toalab"


def record(call):
    """The warnings `call()` raises, every one of them recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert caught
    return caught


@pytest.mark.parametrize("call,match", [
    (lambda: ArrivalDistribution(np.arange(3.0), np.array([1.0, -1.0, 1.0])),
     "backflow"),
    (lambda: kijowski_bullet_stats(SpacePacket(x0=-100.0, p0=1.0,
                                               sigma_x=2.0)),
     "outside the bullet regime"),
    # The regime warning again, raised two library calls down.
    (lambda: metric_comparison(SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0)),
     "outside the bullet regime"),
    (lambda: metric_comparison(SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0)),
     "statistics disagree beyond 1%"),
    (lambda: metric_comparison(SpacePacket(x0=-3.0, p0=5.0, sigma_x=1.0)),
     "first_arrival_kernel row"),
], ids=["backflow", "regime", "regime-nested", "metric-disagree",
        "first-arrival-row"])
def test_warning_names_the_caller(call, match):
    caught = [w for w in record(call) if match in str(w.message)]
    assert caught
    assert {w.filename for w in caught} == {__file__}


def test_warning_from_outside_the_package_names_its_line():
    # A caller that is itself not in toalab is where the walk stops.
    call = lambda: _warn("here")      # noqa: E731
    (w,) = record(call)
    assert (w.filename, w.lineno) == (__file__, call.__code__.co_firstlineno)


def warn_calls(tree):
    """(line, what) per `warnings.warn` call or `warn` import outside the
    body of a function named `_warn`."""
    allowed = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "_warn"
               for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) == "warn"
                or getattr(node.func, "id", None) == "warn"):
            yield node.lineno, ast.unparse(node.func)
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings" \
                and any(a.name in ("warn", "warn_explicit")
                        for a in node.names):
            yield node.lineno, "from warnings import warn"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_warns_only_through_the_helper(path):
    found = list(warn_calls(ast.parse(path.read_text(), str(path))))
    assert not found, f"{path.name}: warnings outside _warn at {found}"


def test_helper_is_where_the_package_warns():
    tree = ast.parse((SRC / "kernels.py").read_text())
    helper = next(f for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_warn")
    assert any(getattr(n.func, "attr", None) == "warn"
               for n in ast.walk(helper) if isinstance(n, ast.Call))


@pytest.mark.parametrize("source", [
    "warnings.warn('x')", "warn('x')", "from warnings import warn",
    "def f():\n    warnings.warn('x')",
])
def test_checker_sees_each_route(source):
    assert list(warn_calls(ast.parse(source)))


def test_checker_passes_the_helper():
    assert not list(warn_calls(ast.parse(
        "def _warn(m):\n    warnings.warn(m, stacklevel=2)\n_warn('x')")))
