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

The same holds for parameters: a parameter with a default counts as set
when a call in src/threepv or a perfbench script passes it, so that no
parameter exists only for the tests.  ALLOWED_DEFAULTS names the
exceptions, as "function(parameter)", on the same terms.

No module of src/threepv imports another module's _-prefixed name.

Every name that perfbench/layertrace.py reads a per-layer metric from is a
function or method defined in src/threepv, so that a rename fails here
rather than leave a metric absent.  METRIC_EXCEPTIONS names the
exceptions, on the same terms as ALLOWED.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "contraction_check": "the Wick-contraction certificates are to build on it",
    "__version__": "package metadata",
}

ALLOWED_DEFAULTS = {}

# read by layertrace but defined nowhere in src/threepv; a trailing "*"
# matches any rest of the name
METRIC_EXCEPTIONS = {
    "scalars.QQ.*": "the scalar backend type, gmpy2's mpq or fractions.Fraction",
    "liealg.affine_bracket_kassel": "a closure that kassel_bracket returns, "
                                    "which layertrace does not wrap (ROADMAP item 12)",
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


def test_no_module_imports_another_modules_private_name():
    # a _-prefixed name belongs to its own module; a second reader makes
    # it a shared helper, which should be public and live in one place
    found = []
    for path in sorted((ROOT / "src" / "threepv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "threepv"):
                found += ["%s imports %s" % (path.name, a.name) for a in node.names
                          if a.name.startswith("_") and not a.name.endswith("__")]
    assert not found, "private names imported across modules: " + ", ".join(found)


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


def _defaults(node, cls=None):
    """(callee name, parameter, index) for each parameter with a default of
    each function under node.  The callee name of __init__ or __new__ is
    its class's, and index is the parameter's place among a call's
    positional arguments (self or cls not counted), or None for a
    keyword-only one."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            out += _defaults(child, child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            args = a.posonlyargs + a.args
            defaulted = args[len(args) - len(a.defaults):]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            if cls is not None and not static:
                args = args[1:]
            constructor = child.name in ("__init__", "__new__")
            name = cls.name if cls is not None and constructor else child.name
            out += [(name, arg.arg, args.index(arg)) for arg in defaulted]
            out += [(name, arg.arg, None)
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out += _defaults(child)
        else:
            out += _defaults(child, cls)
    return out


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _passes(call, param, index):
    """Whether call passes param: by keyword, by enough positional
    arguments, or through * or **."""
    return (any(kw.arg in (param, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or index is not None and len(call.args) > index)


def test_every_defaulted_parameter_is_passed_by_the_program():
    sources = [(p, True) for p in (ROOT / "src" / "threepv").glob("*.py")]
    sources += [(p, False) for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_")]
    defaults, calls = [], {}
    for path, in_src in sources:
        tree = ast.parse(path.read_text())
        if in_src:
            defaults += _defaults(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    unset = {"%s(%s)" % (name, param) for name, param, index in defaults
             if not any(_passes(c, param, index) for c in calls.get(name, ()))}
    unpassed = sorted(unset - set(ALLOWED_DEFAULTS))
    assert not unpassed, "parameters no program call passes: " + ", ".join(unpassed)
    stale = sorted(set(ALLOWED_DEFAULTS) - unset)
    assert not stale, "ALLOWED_DEFAULTS names a passed or undefined parameter: " + ", ".join(stale)


def _metric_names():
    """The "layer.qualname" names perfbench/layertrace.py reads a per-layer
    metric from: the first argument of each calls.get and incl.get call,
    "liealg." + b for each b in BRACKETS, and the names that _call_hook
    compares name against."""
    tree = ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("calls", "incl")
                and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BRACKETS" for t in node.targets):
            names |= {"liealg." + b for b in ast.literal_eval(node.value)}
        elif isinstance(node, ast.FunctionDef) and node.name == "_call_hook":
            names |= {c.value for cmp in ast.walk(node) if isinstance(cmp, ast.Compare)
                      and isinstance(cmp.left, ast.Name) and cmp.left.id == "name"
                      for c in cmp.comparators if isinstance(c, ast.Constant)}
    return names


def _functions_and_methods():
    """"module.function" for each top-level function of src/threepv and
    "module.Class.method" for each method of a top-level class."""
    out = set()
    for path in (ROOT / "src" / "threepv").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                out.add("%s.%s" % (path.stem, stmt.name))
            elif isinstance(stmt, ast.ClassDef):
                out |= {"%s.%s.%s" % (path.stem, stmt.name, f.name)
                        for f in stmt.body if isinstance(f, ast.FunctionDef)}
    return out


def test_every_name_behind_a_per_layer_metric_is_defined():
    names = _metric_names()
    # one name from each of the three places the names are read
    assert {"liealg.check_cocycle_identity", "liealg.vir_bracket",
            "suites.emit_report"} <= names
    undefined = names - _functions_and_methods()

    def excepted(name):
        return {e for e in METRIC_EXCEPTIONS
                if name == e or e.endswith("*") and name.startswith(e[:-1])}

    missing = sorted(name for name in undefined if not excepted(name))
    assert not missing, "layertrace reads metrics from undefined names: " + ", ".join(missing)
    # an entry stays only while it covers a name read and not defined
    stale = sorted(set(METRIC_EXCEPTIONS) - set().union(*map(excepted, undefined)))
    assert not stale, "METRIC_EXCEPTIONS names a defined or unread name: " + ", ".join(stale)
