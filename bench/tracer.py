"""Spans around the public functions of each fusionsys layer, installed from
outside the package.

``Tracer.install`` wraps each function at its module boundary and rebinds
every copy a ``fusionsys`` module holds (``from .x import f`` makes one per
importing module), plus the lazy table properties and ``closure_indices`` on
``Group``.  ``Tracer.guard`` then fails if any module still holds an
unwrapped binding of a wrapped function.

A span records its name, start, end, parent and operation id.  Self time is
a span's duration minus the time of its children.  ``closure_indices`` runs
tens of thousands of times per operation, so it gets no span: its calls,
elements and time are counted into the enclosing span.  Spans stay in memory
until ``write`` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import types
import weakref
from time import perf_counter

LAYERS = ("catalog", "groups", "lattice", "classify", "fusion", "normality",
          "verify", "report")

# Trivial arithmetic helpers called in inner loops; their time stays with
# the caller.  Catalog family constructors only run inside builtin_group.
_UNWRAPPED = {
    "groups": {"is_prime", "p_part"},
}
_CATALOG_WRAPPED = {"builtin_group"}

# Lazy per-group tables: the first access per Group object is a build span,
# later accesses pass straight through.
_LAZY_TABLES = ("mul_table", "mul_rows", "conj_table", "inv_vector",
                "element_orders")

_OP = "bench.op"
_HIT = "lattice.all_subgroups"
_WALK_G = "lattice.walk_G"
_WALK_SUB = "lattice.walk_sub"
_CLOSURE = "groups.closure_indices"


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id",
                 "closure_calls", "closure_elements", "closure_s", "size")

    def __init__(self, name, start, span_id, parent_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.closure_calls = 0
        self.closure_elements = 0
        self.closure_s = 0.0
        self.size = 0


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self.op_id = -1
        self._originals: dict = {}       # original function -> wrapper
        self._lattices: dict = {}        # id -> lattice returned in this op
        self._built = {name: weakref.WeakSet() for name in _LAZY_TABLES}

    # -- span bookkeeping -------------------------------------------------

    def _push(self, name: str) -> _Frame:
        self._next_id += 1
        parent = 0
        if self._stack:
            top = self._stack[-1]
            # a closure frame has no span of its own: use its enclosing span
            parent = top.span_id if top.span_id is not None else top.parent_id
        frame = _Frame(name, perf_counter(), self._next_id, parent)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame.start
        if self._stack:
            self._stack[-1].child += dur
        self.spans.append((
            self.op_id, frame.span_id, frame.parent_id, frame.name,
            frame.start, end, dur - frame.child, frame.closure_calls,
            frame.closure_elements, frame.closure_s, frame.size))

    def operation(self, case_name: str, run):
        """Run one operation under a root span; returns its result."""
        self.op_id += 1
        self._lattices.clear()
        frame = self._push(_OP)
        frame.size = case_name
        try:
            return run()
        finally:
            self._pop(frame)
            self._lattices.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        push, pop = self._push, self._pop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)
        self._originals[fn] = traced
        return traced

    def _all_subgroups(self, fn):
        push, pop, seen = self._push, self._pop, self._lattices
        from fusionsys.groups import Group

        @functools.wraps(fn)
        def traced(H, *args, **kwargs):
            frame = push(_HIT)
            try:
                lattice = fn(H, *args, **kwargs)
                if id(lattice) not in seen:
                    seen[id(lattice)] = lattice
                    whole = isinstance(H, Group) or H.order == H.parent.order
                    frame.name = _WALK_G if whole else _WALK_SUB
                    frame.size = len(lattice)
                return lattice
            finally:
                pop(frame)
        self._originals[fn] = traced
        return traced

    def _closure(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(group, seed):
            start = perf_counter()
            frame = _Frame(_CLOSURE, start, None, stack[-1].span_id)
            stack.append(frame)
            try:
                out = fn(group, seed)
            finally:
                stack.pop()
            dur = perf_counter() - start
            enclosing = stack[-1]
            enclosing.child += dur
            enclosing.closure_calls += 1
            enclosing.closure_elements += len(out)
            # table builds triggered inside the closure are their own spans
            enclosing.closure_s += dur - frame.child
            return out
        self._originals[fn] = traced
        return traced

    def _lazy(self, name: str, prop: property) -> property:
        built = self._built[name]
        fget = prop.fget
        push, pop = self._push, self._pop
        span = f"groups.{name}"

        def traced(obj):
            if obj in built:
                return fget(obj)
            frame = push(span)
            try:
                value = fget(obj)
            finally:
                pop(frame)
            built.add(obj)
            return value
        self._originals[fget] = traced
        return property(traced, doc=prop.__doc__)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and rebind every copy of it."""
        import fusionsys
        from fusionsys.fusion import FusionContext
        from fusionsys.groups import Group

        for layer in LAYERS:
            mod = sys.modules[f"fusionsys.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    continue
                if name in _UNWRAPPED.get(layer, ()):
                    continue
                if layer == "catalog" and name not in _CATALOG_WRAPPED:
                    continue
                if layer == "lattice" and name == "all_subgroups":
                    self._all_subgroups(fn)
                else:
                    self._span(f"{layer}.{name}", fn)

        for name in _LAZY_TABLES:
            setattr(Group, name, self._lazy(name, Group.__dict__[name]))
        Group.closure_indices = self._closure(
            Group.__dict__["closure_indices"])
        build = FusionContext.__dict__["build"].__func__
        FusionContext.build = classmethod(
            self._span("fusion.FusionContext.build", build))

        wrapped = self._originals
        for mod in _package_modules(fusionsys):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if (isinstance(item, types.FunctionType)
                                and item in wrapped):
                            value[key] = wrapped[item]

    def guard(self) -> list[str]:
        """Names of bindings in fusionsys that still hold an original."""
        import fusionsys
        from fusionsys.fusion import FusionContext
        from fusionsys.groups import Group

        originals = self._originals
        stale = []

        def check(where: str, value) -> None:
            if isinstance(value, property):
                value = value.fget
            elif isinstance(value, classmethod):
                value = value.__func__
            if isinstance(value, types.FunctionType) and value in originals:
                stale.append(where)

        for mod in _package_modules(fusionsys):
            for attr, value in vars(mod).items():
                check(f"{mod.__name__}.{attr}", value)
                if isinstance(value, dict):
                    for key, item in value.items():
                        check(f"{mod.__name__}.{attr}[{key!r}]", item)
        for cls in (Group, FusionContext):
            for attr, value in vars(cls).items():
                check(f"{cls.__name__}.{attr}", value)
        return stale

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as JSON lines: op, id, parent, name, start, end, self_s,
        closure calls, closure elements, closure seconds, size (subgroups of
        a walk, or the case name of an operation)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _package_modules(package):
    prefix = package.__name__ + "."
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == package.__name__ or name.startswith(prefix))]


def summarize(spans: list[tuple]) -> dict:
    """Totals per span name.

    Returns {"names": {name: {"calls", "self_s", "subgroups", "closure_calls",
    "closure_elements", "closure_s"}}, "op_s": total operation seconds}.
    """
    names: dict[str, dict] = {}
    op_s = 0.0
    for (_op, _sid, _pid, name, start, end, self_s, c_calls, c_elems, c_s,
         size) in spans:
        row = names.get(name)
        if row is None:
            row = names[name] = {"calls": 0, "self_s": 0.0, "subgroups": 0,
                                 "closure_calls": 0, "closure_elements": 0,
                                 "closure_s": 0.0}
        row["calls"] += 1
        row["self_s"] += self_s
        row["closure_calls"] += c_calls
        row["closure_elements"] += c_elems
        row["closure_s"] += c_s
        if name in (_WALK_G, _WALK_SUB):
            row["subgroups"] += size
        if name == _OP:
            op_s += end - start
    return {"names": names, "op_s": op_s}


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "other"
