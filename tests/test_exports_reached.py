"""Every name a toalab module exports is used by the package itself.

A function that only tests call belongs in the tests, as an oracle.  This
walks the syntax tree of each module under `src/toalab` and checks that
every name in its `__all__` is loaded somewhere in the package, as a `Name`
or an `Attribute`, outside its own definition.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "toalab"
TREES = {p.stem: ast.parse(p.read_text(), str(p))
         for p in sorted(SRC.glob("*.py"))}

# Exported names no package code reaches yet, each with the reason it stays.
EXEMPT = {
    "tqm_detection_density": "ROADMAP direction 1: the exact TQM law",
    "single_slit_sqm": "ROADMAP direction 2: the numerical slit",
}


def exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def loads(node, enclosing=()):
    """(name, enclosing definition names) for each load under `node`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node.name,)
    if isinstance(getattr(node, "ctx", None), ast.Load):
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from loads(child, enclosing)


# Every name the package loads outside a definition of that same name.
REACHED = {name for tree in TREES.values()
           for name, enclosing in loads(tree) if name not in enclosing}


EXPORTS = [(mod, name) for mod, tree in TREES.items()
           for name in exports(tree)]


def test_exports_found():
    assert len(EXPORTS) > 40
    assert set(EXEMPT) <= {name for _, name in EXPORTS}


@pytest.mark.parametrize(
    "module,name", [e for e in EXPORTS if e[1] not in EXEMPT],
    ids=[f"{m}.{n}" for m, n in EXPORTS if n not in EXEMPT])
def test_export_is_reached_by_the_package(module, name):
    assert name in REACHED, (
        f"toalab.{module}.{name} is exported but no package code loads it; "
        "move it into the tests that use it")


@pytest.mark.parametrize("name", sorted(EXEMPT))
def test_exemption_is_still_needed(name):
    assert name not in REACHED, f"{name} is reached now; drop its exemption"
