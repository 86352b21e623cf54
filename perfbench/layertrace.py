"""Per-layer spans and counters, recorded from outside the program.

install() wraps the public functions and class methods of every threepv
module, and the methods of the QQ backend class when that class is written
in Python (fractions.Fraction).  A wrapped function is replaced in every
threepv module that bound it at import (suites binds commutator_apply,
tau_mode and the like), so each call goes through a span wherever the name
is looked up.  A span adds its duration to its function's inclusive time
and its duration minus its child spans to its layer's self time.

Only the traced run installs this; the end-to-end metrics come from runs
without it.
"""

import importlib
import inspect
import time

LAYERS = ("scalars", "ring", "kaehler", "liealg", "density", "fock",
          "realization", "suites", "cli")

BRACKETS = ("witt_bracket", "vir_bracket", "heis_bracket", "affine_bracket",
            "affine_bracket_kassel")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {}     # "layer.qualname" -> call count
        self.incl = {}      # "layer.qualname" -> inclusive seconds
        self.events = {"product_nonempty": 0, "memo_hits": 0,
                       "memo_misses": 0, "op_builds": 0, "op_build_s": 0.0,
                       "op_sums": 0, "emit_bytes": 0}
        self.memo = None    # fock._MEMO, when the program still has it
        self._stack = [0.0]  # child-span seconds of each open span
        self._realization_depth = [0]

    # -- snapshots, so that the benchmark's own checks stay out of the trace
    def snapshot(self):
        return (dict(self.self_s), dict(self.calls), dict(self.incl),
                dict(self.events))

    def restore(self, snap):
        for mine, saved in zip((self.self_s, self.calls, self.incl,
                                self.events), snap):
            mine.clear()
            mine.update(saved)

    # -- wrappers
    def span(self, layer, name, fn):
        stack = self._stack
        self_s, calls, incl = self.self_s, self.calls, self.incl
        calls[name] = 0
        incl[name] = 0.0
        perf = time.perf_counter
        call = self._call_hook(layer, name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs) if call is None else \
                    call(fn, args, kwargs)
            finally:
                dt = perf() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                calls[name] += 1
                incl[name] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _call_hook(self, layer, name):
        """A call that also counts events, for the spans that need one."""
        events = self.events
        if name == "fock.apply_product":
            def hook(fn, args, kwargs):
                result = fn(*args, **kwargs)
                if result:
                    events["product_nonempty"] += 1
                return result
            return hook
        if name == "fock.ModeOp.apply_mono" and self.memo is not None:
            memo = self.memo

            def hook(fn, args, kwargs):
                before = len(memo)
                result = fn(*args, **kwargs)
                events["memo_misses" if len(memo) > before else "memo_hits"] += 1
                return result
            return hook
        if name == "suites.emit_report":
            def hook(fn, args, kwargs):
                result = fn(*args, **kwargs)
                events["emit_bytes"] += len(result.encode("utf-8"))
                return result
            return hook
        if layer == "realization":
            depth = self._realization_depth
            perf = time.perf_counter

            def hook(fn, args, kwargs):
                outermost = depth[0] == 0
                depth[0] += 1
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                sums = getattr(result, "sums", None)
                if outermost and isinstance(sums, tuple):
                    events["op_builds"] += 1
                    events["op_build_s"] += perf() - t0
                    events["op_sums"] += len(sums)
                return result
            return hook
        return None


def _wrap_class(tracer, layer, cls, prefix):
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
            continue
        name = "%s.%s.%s" % (layer, prefix, attr)
        if isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(tracer.span(layer, name, value.__func__)))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.span(layer, name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.span(layer, name, value))


def install():
    """Wrap every layer of the loaded threepv package; return the Tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module("threepv." + layer) for layer in LAYERS}
    tracer.memo = getattr(modules["fock"], "_MEMO", None)
    replaced = {}
    for layer, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(value):
                if not issubclass(value, tuple):  # namedtuples stay as they are
                    _wrap_class(tracer, layer, value, attr)
            elif inspect.isfunction(value) and not attr.startswith("_"):
                wrapped = tracer.span(layer, "%s.%s" % (layer, attr), value)
                replaced[id(value)] = (value, wrapped)
    # rebind every name that points at a wrapped function, in every module
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    try:
        _wrap_class(tracer, "scalars", modules["scalars"].QQ, "QQ")
    except TypeError:  # a backend type written in C cannot be wrapped
        pass
    return tracer


def layer_metrics(tracer):
    """The per-layer metrics of everything traced so far, by name.

    A metric whose function or memo no longer exists is left out, so the
    caller can mark it absent.
    """
    calls, incl, ev, self_s = tracer.calls, tracer.incl, tracer.events, tracer.self_s
    out = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = (value, unit)

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    put("scalars.self_s", self_s["scalars"], "s")
    put("scalars.new_calls", calls.get("scalars.QQ.__new__"), "count")
    put("scalars.hash_calls", calls.get("scalars.QQ.__hash__"), "count")
    put("fock.self_s", self_s["fock"], "s")
    put("fock.cubic_sum_calls", calls.get("fock.apply_cubic_sum"), "count")
    put("fock.cubic_sum_s", incl.get("fock.apply_cubic_sum"), "s")
    put("fock.quad_sum_calls", calls.get("fock.apply_quad_sum"), "count")
    put("fock.quad_sum_s", incl.get("fock.apply_quad_sum"), "s")
    products = calls.get("fock.apply_product")
    put("fock.product_calls", products, "count")
    put("fock.product_yield_ratio", ratio(
        ev["product_nonempty"] if products is not None else None, products), "ratio")
    put("fock.factor_calls", calls.get("fock.apply_factor"), "count")
    put("fock.apply_calls", calls.get("fock.ModeOp.apply"), "count")
    put("fock.apply_s", incl.get("fock.ModeOp.apply"), "s")
    put("fock.commutator_calls", calls.get("fock.commutator_apply"), "count")
    put("fock.commutator_s", incl.get("fock.commutator_apply"), "s")
    lookups = calls.get("fock.ModeOp.apply_mono")
    put("fock.memo_lookups", lookups, "count")
    if tracer.memo is not None and lookups is not None:
        put("fock.memo_hit_ratio", ratio(ev["memo_hits"], lookups), "ratio")
        put("fock.memo_entries", len(tracer.memo), "count")
    put("realization.self_s", self_s["realization"], "s")
    put("realization.op_builds", ev["op_builds"], "count")
    put("realization.op_build_s", ev["op_build_s"], "s")
    put("realization.sums_per_op", ratio(ev["op_sums"], ev["op_builds"]), "sums/op")
    put("liealg.self_s", self_s["liealg"], "s")
    brackets = [calls.get("liealg." + b) for b in BRACKETS]
    put("liealg.bracket_calls", sum(c for c in brackets if c is not None), "count")
    put("liealg.jacobi_s", incl.get("liealg.check_jacobi"), "s")
    put("liealg.cocycle_s", incl.get("liealg.check_cocycle_identity"), "s")
    put("kaehler.self_s", self_s["kaehler"], "s")
    put("kaehler.reduce_calls", calls.get("kaehler.reduce_mod_dR"), "count")
    put("ring.self_s", self_s["ring"], "s")
    put("ring.geometric_calls", calls.get("ring.witt_bracket_geometric"), "count")
    put("density.self_s", self_s["density"], "s")
    put("density.check_s", incl.get("density.density_module_check"), "s")
    put("suites.self_s", self_s["suites"], "s")
    put("suites.emit_s", incl.get("suites.emit_report"), "s")
    put("suites.emit_bytes", ev["emit_bytes"] if "suites.emit_report" in calls else None, "B")
    put("suites.build_states_s", incl.get("suites.build_states"), "s")
    put("cli.self_s", self_s["cli"], "s")
    put("cli.main_s", incl.get("cli.main"), "s")
    return out
