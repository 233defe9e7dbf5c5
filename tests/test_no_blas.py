"""No package code calls a BLAS routine.

OpenBLAS runs a complex mat-vec on several threads, and after each call its
helper threads spin, so the CPU time of whatever runs next roughly doubles
on two cores.  The package forms its sums from elementwise products,
`np.bincount` and FFTs instead.  This walks the syntax tree of each module
under `src/toalab` and fails on the `@` operator (also `@=`) and on any
name, attribute or import named `dot`, `matmul`, `einsum`, `vecdot`,
`inner`, `tensordot` or `linalg`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "toalab"
BLAS_NAMES = {"dot", "matmul", "einsum", "vecdot", "inner", "tensordot",
              "linalg"}


def blas_calls(tree):
    """(line, what) for each BLAS route under `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                parts = set(f"{module}.{alias.name}".split("."))
                if parts & BLAS_NAMES:
                    yield node.lineno, f"import {alias.name}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_calls_no_blas(path):
    found = list(blas_calls(ast.parse(path.read_text(), str(path))))
    assert not found, f"{path.name}: BLAS routes at {found}"


@pytest.mark.parametrize("source", [
    "c = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.matmul(a, b)",
    "np.einsum('i,i', a, b)", "np.vecdot(a, b)", "np.inner(a, b)",
    "np.tensordot(a, b)", "np.linalg.norm(a)", "import numpy.linalg",
    "from numpy.linalg import norm", "from numpy import dot",
    "from scipy import linalg",
])
def test_checker_sees_each_route(source):
    assert list(blas_calls(ast.parse(source)))


def test_checker_passes_elementwise_sums():
    assert not list(blas_calls(ast.parse(
        "s = (a * b).sum()\nt = np.bincount(i, w, n)\nf = np.fft.fft(g)")))
