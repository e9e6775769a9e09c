"""Per-layer tracing of hopfgen, installed from outside the package.

A layer is one module of the package.  `Tracer.install` wraps every public
module-level function and every public or operator method of the classes
each layer module defines, in every namespace that holds a reference to
it (a name imported into another module, or a dict of callables such as
the selftest criterion table).  `Tracer.uninstall` puts every original
object back.

Calls to module-level functions become spans: name, start, end, parent
span and op id, kept in memory and written out by the caller.  Method
calls (scalar, monomial and tensor arithmetic run to hundreds of
thousands per op) and anything they call are aggregated instead, as a
count, total time and self time per (function, parent layer).

A span's self time is its duration minus the part of it covered by its
child spans, minus the time of the aggregated calls made directly from it.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from types import FunctionType
from typing import NamedTuple

LAYERS = (
    "arith", "linalg", "lattice", "groups", "hopf", "cocycle", "tring",
    "identities", "generic_base", "selftest",
)

# Dunder methods that do work; comparison and hashing run inside dict
# lookups and are not traced.
OPERATOR_METHODS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__call__",
})
# Constructors traced so that their calls count as builds.
COUNTED_CONSTRUCTORS = frozenset({"tring:TRing"})
# Module-level functions called often enough inside the hot loops to be
# aggregated like methods rather than recorded one span per call.
AGGREGATED_FUNCTIONS = frozenset({
    "tring:t_ring", "tring:tensor_ops", "linalg:axpy",
})


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None
    aggregated_s: float  # time of aggregated calls made directly from this span


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover, minus the
    aggregated calls made directly from it."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if b > s.start and a < s.end
        ]
        out[s.id] = (s.end - s.start) - union_length(inside) - s.aggregated_s
    return out


# --- probes: counts that need a call's arguments or its caller -------------


def _probe_hnf(tracer, parent, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    tracer.counters["lattice.hnf.rows"] += len(rows)
    if parent in ("lattice:hnf_basis", "lattice:lattices_equal"):
        tracer.counters["lattice.hnf.u_discarded"] += 1


def _probe_solve(tracer, parent, args, kwargs):
    basis = args[0] if args else kwargs["basis"]
    tracer.bases.add(hash(tuple(map(tuple, basis))))


def _probe_mu(tracer, parent, args, kwargs):
    poly = args[2] if len(args) > 2 else kwargs["poly"]
    tracer.counters["identities.mu.words"] += len(poly.terms)


def _probe_twisted(tracer, parent, args, kwargs):
    if parent == "identities:mu_algebra":
        tracer.counters["identities.mu_algebra.builds"] += 1


PROBES = {
    "lattice:hnf": _probe_hnf,
    "lattice:solve_in_lattice": _probe_solve,
    "identities:mu": _probe_mu,
    "cocycle:twisted_algebra": _probe_twisted,
}


class Tracer:
    """Spans and aggregates for one process; install, run, uninstall."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (function, parent layer) -> [count, total seconds, self seconds]
        self.aggregates: dict[tuple[str, str], list] = {}
        self.counters: Counter = Counter()
        self.bases: set[int] = set()
        self.op: int | None = None
        # frame: [function, layer, aggregated?, aggregated child seconds, span id]
        self.stack = [["<root>", "bench", False, 0.0, None]]
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name; used for the set-up
        span and the op spans."""
        return self._span_wrapper(fn, name, layer, None)(*args, **kwargs)

    def _aggregated_wrapper(self, fn, key, layer, probe):
        stack, clock, aggregates = self.stack, self.clock, self.aggregates

        def traced(*args, **kwargs):
            parent = stack[-1]
            if probe is not None:
                probe(self, parent[0], args, kwargs)
            frame = [key, layer, True, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[3] += dur
                slot = aggregates.get((key, parent[1]))
                if slot is None:
                    slot = aggregates[(key, parent[1])] = [0, 0.0, 0.0]
                slot[0] += 1
                slot[1] += dur
                slot[2] += dur - frame[3]

        return traced

    def _span_wrapper(self, fn, key, layer, probe):
        stack, clock, spans, ids = self.stack, self.clock, self.spans, self._ids
        aggregated = self._aggregated_wrapper(fn, key, layer, probe)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[2]:  # called from an aggregated call: aggregate too
                return aggregated(*args, **kwargs)
            if probe is not None:
                probe(self, parent[0], args, kwargs)
            sid = next(ids)
            frame = [key, layer, False, 0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, key, layer, start, end, parent[4], self.op, frame[3]))

        return traced

    # -- installing -----------------------------------------------------------

    def _wrap(self, fn, key, layer, aggregate):
        make = self._aggregated_wrapper if aggregate else self._span_wrapper
        wrapper = make(fn, key, layer, PROBES.get(key))
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self, modules) -> None:
        """Wrap the layers of the hopfgen package found in `modules`
        (a mapping such as sys.modules), in every hopfgen namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[FunctionType, FunctionType] = {}
        for layer in LAYERS:
            mod = modules[f"hopfgen.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    key = f"{layer}:{obj.__qualname__}"
                    aggregate = layer == "arith" or key in AGGREGATED_FUNCTIONS
                    wrappers[obj] = self._wrap(obj, key, layer, aggregate)
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)
        for modname, mod in list(modules.items()):
            if mod is None or not (modname == "hopfgen" or modname.startswith("hopfgen.")):
                continue
            for name, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._patches.append(("attr", mod, name, value))
                    setattr(mod, name, wrappers[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, FunctionType) and v in wrappers:
                            self._patches.append(("item", value, k, v))
                            value[k] = wrappers[v]

    def _wrap_class(self, cls, layer) -> None:
        counted = f"{layer}:{cls.__qualname__}" in COUNTED_CONSTRUCTORS
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                if not counted:
                    continue
            elif attr.startswith("_") and attr not in OPERATOR_METHODS:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
            else:
                fn = member
            if not isinstance(fn, FunctionType):
                continue
            wrapped = self._wrap(fn, f"{layer}:{fn.__qualname__}", layer, True)
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(wrapped)
            self._patches.append(("attr", cls, attr, member))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every object install replaced, newest first."""
        while self._patches:
            kind, owner, name, original = self._patches.pop()
            if kind == "attr":
                setattr(owner, name, original)
            else:
                owner[name] = original

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per function and per layer."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        own_by_id = self_times(self.spans)
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += own_by_id[s.id]
        for (key, _parent), (count, _total, own) in self.aggregates.items():
            calls[key] += count
            self_s[key] += own
        layer_self: defaultdict = defaultdict(float)
        for key, own in self_s.items():
            layer_self[key.split(":", 1)[0]] += own
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "layer_self_s": dict(layer_self),
            "counters": dict(self.counters),
            "distinct_bases": len(self.bases),
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """One JSON object per span, then one per aggregate."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
            for (key, parent), (count, total, own) in sorted(self.aggregates.items()):
                fh.write(json.dumps({
                    "aggregate": key, "parent_layer": parent, "count": count,
                    "total_s": total, "self_s": own,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass
    (the selftest per-criterion seconds come from untraced passes)."""
    calls = summary["calls"]
    own = summary["self_s"]
    layer = summary["layer_self_s"]
    counters = summary["counters"]

    def n(*keys):
        return sum(calls.get(k, 0) for k in keys)

    t_ring_calls = n("tring:t_ring")
    ring_builds = n("tring:TRing.__init__")
    hnf_calls = n("lattice:hnf")
    solve_calls = n("lattice:solve_in_lattice")
    mu_algebra_calls = n("identities:mu_algebra")
    mu_algebra_builds = counters.get("identities.mu_algebra.builds", 0)
    return {
        "arith.mul.calls": n("arith:Scalar.__mul__"),
        "arith.add.calls": n("arith:Scalar.__add__"),
        "arith.inverse.calls": n("arith:Scalar.inverse"),
        "arith.self_s": layer.get("arith", 0.0),
        "hopf.multiply_dicts.calls": n("hopf:HopfAlgebra.multiply_dicts"),
        "hopf.comult.calls": n("hopf:HopfAlgebra.comult_dict", "hopf:HopfAlgebra.comult_power"),
        "hopf.center_table.calls": n("hopf:center_table"),
        "hopf.self_s": layer.get("hopf", 0.0),
        "tring.telement_mul.calls": n("tring:TElement.__mul__"),
        "tring.tensor_mul.calls": n("tring:TensorH.__mul__"),
        "tring.monomial_mul.calls": n("tring:TMonomial.mul"),
        "tring.ring_builds": ring_builds,
        "tring.ring_hit_ratio": _ratio(t_ring_calls - ring_builds, t_ring_calls),
        "tring.self_s": layer.get("tring", 0.0),
        "lattice.hnf.calls": hnf_calls,
        "lattice.hnf.rows": counters.get("lattice.hnf.rows", 0),
        "lattice.hnf.self_s": own.get("lattice:hnf", 0.0),
        "lattice.hnf.u_discarded_ratio": _ratio(counters.get("lattice.hnf.u_discarded", 0), hnf_calls),
        "lattice.solve.calls": solve_calls,
        "lattice.solve.distinct_basis_ratio": _ratio(summary["distinct_bases"], solve_calls),
        "lattice.self_s": layer.get("lattice", 0.0),
        "linalg.row_reduce.calls": n("linalg:row_reduce"),
        "linalg.self_s": layer.get("linalg", 0.0),
        "identities.mu.calls": n("identities:mu"),
        "identities.mu.words": counters.get("identities.mu.words", 0),
        "identities.ncpoly_mul.calls": n("identities:NCPoly.__mul__"),
        "identities.mu_algebra.builds": mu_algebra_builds,
        "identities.mu_algebra_hit_ratio": _ratio(mu_algebra_calls - mu_algebra_builds, mu_algebra_calls),
        "identities.self_s": layer.get("identities", 0.0),
        "cocycle.twisted_algebra.calls": n("cocycle:twisted_algebra"),
        "cocycle.self_s": layer.get("cocycle", 0.0),
        "generic_base.gamma_generators.calls": n("generic_base:gamma_generators"),
        "generic_base.self_s": layer.get("generic_base", 0.0),
        "groups.self_s": layer.get("groups", 0.0),
    }
