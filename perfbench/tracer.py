"""Outside-in span tracer for the toriq layers.

The tracer wraps the public functions and class methods of each layer
module (``toriq.intlinalg``, ``toriq.cones``, ...) without touching the
program's source.  A function that another module imported by name (for
example ``orbit_limit_targets`` in ``toriq.separation``) is replaced in
every namespace that binds it, so calls through any alias are recorded.

Each call becomes a span: name, start, end, parent span and operation id.
Spans stay in flat in-memory arrays and are written out after the traced
phase.  A layer's self time is the sum over its spans of the span duration
minus the durations of its direct child spans.

Left unwrapped, so that their cost lands in the calling layer:
  * the integer-vector leaves of ``intlinalg`` (``vec``, ``dot``, ...), which
    run millions of times per operation and would dominate the overhead;
  * identity accessors (``key``, ``sort_key``), properties, dunder methods
    other than ``__init__``, and ``__init__`` of plain value classes;
  * dataclass-generated methods (their code does not live in the module).
"""

from __future__ import annotations

import inspect
import time
from array import array
from pathlib import Path
from types import FunctionType, ModuleType

LAYERS = ("intlinalg", "cones", "fans", "points", "morphisms", "separation", "scene", "cli")

LEAF_FUNCTIONS = frozenset({
    "vec", "vec_add", "vec_sub", "vec_neg", "vec_scale", "dot", "is_zero_vec",
    "primitive", "primitive_fraction_vector", "xgcd", "bezout_2x2",
    "monomial_value", "integer_nth_root", "lattice_points_in_box",
})
LEAF_METHODS = frozenset({"key", "sort_key"})
# __init__ is a span only where it builds a structure the metrics count.
TRACED_INITS = frozenset({"Fan", "FanSystem", "ToricMorphism"})

BUILD_SPANS = frozenset({"cones.Cone.from_generators", "cones.Cone.from_inequalities"})
FRAC_ELIM_SPANS = frozenset({
    "intlinalg.rank_of_rows", "intlinalg.in_rational_span",
    "intlinalg.reduce_mod_span", "intlinalg.IntMatrix.inverse_unimodular",
})
LIMIT_SPAN = "morphisms.orbit_limit_targets"
IDENTIFY_SPAN = "separation.forced_identifications"


class Tracer:
    """Records spans for calls into the toriq layers while installed."""

    def __init__(self, modules: dict[str, ModuleType], namespaces: list[ModuleType]):
        self.names: list[str] = []
        self.name_id: array = array("l")
        self.parent: array = array("l")
        self.op: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.errors: array = array("l")
        self.current_op = -1
        self._stack = [-1]
        self._identify_depth = 0
        # probes on return values, filled while tracing
        self.built_keys: set = set()
        self.builds = 0
        self.limit_calls_in_identify = 0
        self.limit_hits = 0
        self.merge_events = 0
        # (namespace, attribute, original, wrapper), built once
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan(modules, namespaces)

    # -- installation -------------------------------------------------------

    def _plan(self, modules: dict[str, ModuleType], namespaces: list[ModuleType]) -> None:
        replaced: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and _own(obj, mod) and _public(attr):
                    if attr not in LEAF_FUNCTIONS:
                        replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._plan_class(obj, layer, mod)
        # every alias of a wrapped module-level function is rebound too
        for ns in list(modules.values()) + list(namespaces):
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj, hit[1]))

    def _plan_class(self, cls: type, layer: str, mod: ModuleType) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                if cls.__name__ not in TRACED_INITS:
                    continue
            elif not _public(attr) or attr in LEAF_METHODS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod) and _own(raw.__func__, mod):
                new = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod) and _own(raw.__func__, mod):
                new = staticmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, FunctionType) and _own(raw, mod):
                new = self._wrap(raw, name)
            else:
                continue
            self._patches.append((cls, attr, raw, new))

    def install(self) -> None:
        for ns, attr, _orig, new in self._patches:
            setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, orig, _new in self._patches:
            setattr(ns, attr, orig)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.errors.append(0)
        t = self
        stack = self._stack
        clock = time.perf_counter
        is_build = name in BUILD_SPANS
        is_limit = name == LIMIT_SPAN
        is_identify = name == IDENTIFY_SPAN

        def wrapper(*args, **kwargs):
            idx = len(t.start)
            outer_build = is_build and (
                stack[-1] < 0 or t.names[t.name_id[stack[-1]]] not in BUILD_SPANS
            )
            t.name_id.append(nid)
            t.parent.append(stack[-1])
            t.op.append(t.current_op)
            t.end.append(0.0)
            stack.append(idx)
            if is_identify:
                t._identify_depth += 1
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t.errors[nid] += 1
                raise
            finally:
                t.end[idx] = clock()
                stack.pop()
                if is_identify:
                    t._identify_depth -= 1
            if outer_build:
                t.builds += 1
                t.built_keys.add((t.current_op, result.key()))
            elif is_limit:
                if t._identify_depth:
                    t.limit_calls_in_identify += 1
                if result:
                    t.limit_hits += 1
            elif is_identify:
                t.merge_events += len(result.events)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """Per span name: calls, self seconds and errors raised."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        names = self.names
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        nid = self.name_id
        for i in range(n):
            k = nid[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {
            names[k]: {"calls": calls[k], "self_s": self_s[k], "errors": self.errors[k]}
            for k in range(len(names))
            if calls[k] or self.errors[k]
        }

    def write_spans(self, path: Path) -> None:
        """One line per span: id, parent, op, name, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if len(self.start) else 0.0
        with path.open("w") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name_id[i]]}\t"
                    f"{round((self.start[i] - base) * 1e9)}\t{round((self.end[i] - base) * 1e9)}\n"
                )


def _own(fn, mod: ModuleType) -> bool:
    """Was this function written in the module's source file?"""
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == inspect.getfile(mod)


def _public(attr: str) -> bool:
    return not attr.startswith("_")


def layer_metrics(summary: dict, tracer: Tracer) -> dict:
    """The per-layer metrics, keyed as in BENCHMARK.json's per_layer list."""

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in summary.items() if k.split(".", 1)[0] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    unique = len(tracer.built_keys)
    limit_calls = calls(LIMIT_SPAN)
    m = {
        "intlinalg.self_s": (layer_self("intlinalg"), "s"),
        "intlinalg.hnf.calls": (calls("intlinalg.hermite_normal_form"), "count"),
        "intlinalg.snf.calls": (calls("intlinalg.smith_normal_form"), "count"),
        "intlinalg.frac_elim.calls": (calls(*FRAC_ELIM_SPANS), "count"),
        "intlinalg.frac_elim.self_s": (self_s(*FRAC_ELIM_SPANS), "s"),
        "intlinalg.solve_torus.calls": (calls("intlinalg.solve_torus_equation"), "count"),
        "cones.self_s": (layer_self("cones"), "s"),
        "cones.build.calls": (tracer.builds, "count"),
        "cones.build.unique_ratio": (ratio(unique, tracer.builds), "ratio"),
        "cones.faces.calls": (calls("cones.Cone.faces"), "count"),
        "cones.faces.self_s": (self_s("cones.Cone.faces"), "s"),
        "cones.hilbert.calls": (calls("cones.semigroup_generators"), "count"),
        "cones.hilbert.self_s": (self_s("cones.semigroup_generators"), "s"),
        "fans.self_s": (layer_self("fans"), "s"),
        "fans.system_build.calls": (calls("fans.FanSystem.__init__"), "count"),
        "fans.fan_build.calls": (calls("fans.Fan.__init__"), "count"),
        "morphisms.self_s": (layer_self("morphisms"), "s"),
        "morphisms.build.calls": (calls("morphisms.ToricMorphism.__init__"), "count"),
        "morphisms.limit_targets.calls": (limit_calls, "count"),
        "morphisms.limit_targets.self_s": (self_s(LIMIT_SPAN), "s"),
        "morphisms.limit_targets.hit_ratio": (ratio(tracer.limit_hits, limit_calls), "ratio"),
        "morphisms.fibers.calls": (calls("morphisms.fiber_pieces"), "count"),
        "morphisms.fibers.self_s": (self_s("morphisms.fiber_pieces"), "s"),
        "points.self_s": (layer_self("points"), "s"),
        "points.make.calls": (calls("points.OrbitPoint.make"), "count"),
        "points.toric.calls": (calls("points.ToricPoint.from_orbit", "points.ToricPoint.from_values"), "count"),
        "separation.self_s": (layer_self("separation"), "s"),
        "separation.identify.calls": (calls(IDENTIFY_SPAN), "count"),
        "separation.events": (tracer.merge_events, "count"),
        "separation.merge_ratio": (ratio(tracer.merge_events, tracer.limit_calls_in_identify), "ratio"),
        "separation.compare.self_s": (self_s("separation.partition_matches_fibers"), "s"),
        "scene.self_s": (layer_self("scene"), "s"),
        "scene.load.calls": (calls("scene.load_scene"), "count"),
        "cli.self_s": (layer_self("cli"), "s"),
    }
    bases = {
        "cones.build.unique_ratio": {"distinct_keys": unique, "builds": tracer.builds},
        "morphisms.limit_targets.hit_ratio": {"nonempty": tracer.limit_hits, "calls": limit_calls},
        "separation.merge_ratio": {"merge_events": tracer.merge_events,
                                   "limit_calls_in_identify": tracer.limit_calls_in_identify},
    }
    return {"metrics": m, "ratio_bases": bases}
