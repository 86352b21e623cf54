"""Every top-level name and method in src/threepv is reached from the
program itself.

A function, class or constant, bound at top level or inside a top-level
if or try block, counts as reached when another top-level statement of
src/threepv, or a perfbench script, loads it by name (as a name or as an
attribute).  A non-dunder method counts as reached when code
outside its own body loads its name as an attribute.  Tests do not count:
code that only its own tests reach is either wired into the program or
deleted.  ALLOWED names the exceptions, and each must be a top-level name
defined in src/threepv that nothing else reaches, so that no entry outlives
its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "pi_field_mode": "the independent reference the realization tests compare against",
    "contraction_check": "the Wick-contraction certificates are to build on it",
    "__version__": "package metadata",
}


def _defined(stmt):
    if isinstance(stmt, (ast.If, ast.Try)):
        inner = stmt.body + stmt.orelse + getattr(stmt, "finalbody", [])
        inner += [s for h in getattr(stmt, "handlers", []) for s in h.body]
        return set().union(*map(_defined, inner))
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _loaded(stmt):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_top_level_name_is_reached_outside_the_tests():
    sources = [(p, True) for p in (ROOT / "src" / "threepv").glob("*.py")]
    sources += [(p, False) for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_")]
    defined, loaded = set(), set()
    for path, in_src in sources:
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt) if in_src else set()
            defined |= names
            loaded |= _loaded(stmt) - names
    unreached = sorted(defined - loaded - set(ALLOWED))
    assert not unreached, "reached by no program code: " + ", ".join(unreached)
    # an entry stays in ALLOWED only while it names an unreached definition
    stale = sorted(set(ALLOWED) - (defined - loaded))
    assert not stale, "ALLOWED names a reached or undefined name: " + ", ".join(stale)


def _is_method(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def test_every_method_is_reached_outside_the_tests():
    sources = [(p, True) for p in (ROOT / "src" / "threepv").glob("*.py")]
    sources += [(p, False) for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_")]
    defined, loaded = set(), set()
    for path, in_src in sources:
        for stmt in ast.parse(path.read_text()).body:
            in_class = isinstance(stmt, ast.ClassDef)
            for unit in stmt.body if in_class else [stmt]:
                own = {unit.name} if in_src and in_class and _is_method(unit) else set()
                defined |= own
                loaded |= {n.attr for n in ast.walk(unit)
                           if isinstance(n, ast.Attribute)} - own
    unreached = sorted(defined - loaded)
    assert not unreached, "methods reached by no program code: " + ", ".join(unreached)
