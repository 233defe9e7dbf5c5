"""Every name a toalab module exports is used by the package itself, every
class member is read by it, and every parameter with a default is passed by
some package call.

A function that only tests call belongs in the tests, as an oracle.  This
walks the syntax tree of each module under `src/toalab` and checks that
every name in its `__all__` is loaded somewhere in the package, as a `Name`
or an `Attribute`, outside its own definition.  A class's fields, methods
and properties must each be loaded as an `Attribute`; members are matched
by name alone.  A parameter with a default that no call passes, positionally
or by keyword, does nothing; calls are matched to functions by name alone.
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
}


def exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def loads(node, enclosing=()):
    """(name, enclosing definition names, whether an attribute) for each
    load under `node`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node.name,)
    if isinstance(getattr(node, "ctx", None), ast.Load):
        if isinstance(node, ast.Name):
            yield node.id, enclosing, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing, True
    for child in ast.iter_child_nodes(node):
        yield from loads(child, enclosing)


LOADS = [(name, attr) for tree in TREES.values()
         for name, enclosing, attr in loads(tree) if name not in enclosing]
# Every name the package loads outside a definition of that same name.
REACHED = {name for name, _ in LOADS}


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


# Class members no package code reads, each with the reason it stays.
MEMBER_EXEMPT = {
    ("_Parser", "error"): "argparse calls it",
}


def members(tree):
    """(class, member) per annotated field, method and property of each
    class; dunder methods are the language's to call."""
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign):
                yield cls.name, node.target.id
            elif (isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("__")):
                yield cls.name, node.name


def asdict_classes(tree):
    """Classes whose instances a function passes whole to `asdict`, which
    reads every field: `asdict(x)` after `x = f(...)`, the class taken
    from f's return annotation."""
    returns = {f.name: ast.unparse(f.returns) for t in TREES.values()
               for f in ast.walk(t)
               if isinstance(f, ast.FunctionDef) and f.returns is not None}
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        bound = {a.targets[0].id: getattr(a.value.func, "id", None)
                 for a in ast.walk(fn) if isinstance(a, ast.Assign)
                 and isinstance(a.targets[0], ast.Name)
                 and isinstance(a.value, ast.Call)}
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "asdict"
                    and isinstance(call.args[0], ast.Name)):
                yield returns.get(bound.get(call.args[0].id))


ATTRIBUTES_READ = {name for name, attr in LOADS if attr}
WHOLE = {cls for tree in TREES.values() for cls in asdict_classes(tree)}
MEMBERS = [(mod, cls, name) for mod, tree in TREES.items()
           for cls, name in members(tree)]
UNREAD = {(cls, name) for _, cls, name in MEMBERS
          if name not in ATTRIBUTES_READ and cls not in WHOLE}


def test_members_found():
    assert len(MEMBERS) > 50
    assert {"LaplaceCheckReport", "MetricComparison"} <= WHOLE
    assert set(MEMBER_EXEMPT) <= {(cls, n) for _, cls, n in MEMBERS}


@pytest.mark.parametrize(
    "cls,name", [(cls, n) for _, cls, n in MEMBERS
                 if (cls, n) not in MEMBER_EXEMPT],
    ids=[f"{m}.{cls}.{n}" for m, cls, n in MEMBERS
         if (cls, n) not in MEMBER_EXEMPT])
def test_member_is_read_by_the_package(cls, name):
    assert (cls, name) not in UNREAD, (
        f"no package code reads {cls}.{name}; drop it")


@pytest.mark.parametrize(
    "cls,name", sorted(MEMBER_EXEMPT),
    ids=[f"{cls}.{n}" for cls, n in sorted(MEMBER_EXEMPT)])
def test_member_exemption_is_still_needed(cls, name):
    assert (cls, name) in UNREAD, (
        f"{cls}.{name} is read now; drop its exemption")


# Defaulted parameters no package call passes, each with the reason it stays.
UNPASSED_EXEMPT = {
    ("kijowski_curve", "nodes"):
        "perfbench binds it (ROADMAP direction 4)",
    ("monte_carlo_first_arrival", "workers"):
        "perfbench binds it (ROADMAP direction 4)",
    ("main", "argv"): "the entry point; the console script passes none",
}


def defaulted_params(tree):
    """(function, parameter, positional index or None) per defaulted
    parameter; a method's index does not count `self`."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod"
                           for d in f.decorator_list)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            shift = 1 if id(node) in methods else 0
            for i in range(first, len(pos)):
                yield node.name, pos[i].arg, i - shift
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def passes(call, name, index):
    """Whether `call` passes the parameter by keyword, by `**`, or at its
    positional index (or through a `*` splat)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(x, ast.Starred) for x in call.args))


# Every package call, keyed by the name it calls: `f(...)` or `obj.f(...)`.
CALLS = {}
for call in (n for tree in TREES.values() for n in ast.walk(tree)
             if isinstance(n, ast.Call)):
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    CALLS.setdefault(name, []).append(call)

UNPASSED = {(fn, name) for tree in TREES.values()
            for fn, name, index in defaulted_params(tree)
            if not any(passes(c, name, index) for c in CALLS.get(fn, ()))}
DEFAULTED = [(mod, fn, name) for mod, tree in TREES.items()
             for fn, name, _ in defaulted_params(tree)]


def test_defaulted_params_found():
    assert len(DEFAULTED) > 12
    assert set(UNPASSED_EXEMPT) <= {(fn, n) for _, fn, n in DEFAULTED}


@pytest.mark.parametrize(
    "fn,name", [(fn, n) for _, fn, n in DEFAULTED
                if (fn, n) not in UNPASSED_EXEMPT],
    ids=[f"{m}.{fn}.{n}" for m, fn, n in DEFAULTED
         if (fn, n) not in UNPASSED_EXEMPT])
def test_defaulted_param_is_passed_by_the_package(fn, name):
    assert (fn, name) not in UNPASSED, (
        f"no package call passes {fn}({name}=...); drop the parameter")


@pytest.mark.parametrize(
    "fn,name", sorted(UNPASSED_EXEMPT),
    ids=[f"{fn}.{n}" for fn, n in sorted(UNPASSED_EXEMPT)])
def test_unpassed_exemption_is_still_needed(fn, name):
    assert (fn, name) in UNPASSED, (
        f"{fn}({name}=...) is passed now; drop its exemption")
