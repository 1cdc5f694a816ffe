"""Span tracing of the library's layers, installed from outside the library.

`install` wraps the public functions that carry the computation (listed in
`ENTRY_POINTS`) so that each call records a span: name, start, end, parent
span and an optional integer argument (the arity, for `compute_arity`).
Spans are appended to flat arrays in memory and written out once, when the
traced run ends.  Wrappers record only while `Tracer.active` is set, so
set-up and correctness checks stay out of the per-layer numbers.

Some modules import a wrapped function by name (`endo_dga` imports the
`ff_linalg` helpers, `cli` imports `build_cyclic_resolution` and
`verify_structure`); `install` rebinds every such module-level name to the
wrapper as well, and `restore` undoes all of it.

Per-layer metrics are derived from the spans after the run:

* calls   -- number of spans of the name;
* busy_s  -- summed duration of the outermost spans of the name, so a
             recursive call is not counted twice;
* self_s  -- summed duration minus the time covered by direct child spans.

Counts computed from the arguments (`cells` = rows x cols of the input
matrix) or from the results (the fraction of zero results) are kept in
`Tracer.counters`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

#: per-layer metrics reported by a traced run: (name, unit, better)
PER_LAYER = [
    ("ff_linalg.rref_array.calls", "count", "lower"),
    ("ff_linalg.rref_array.self_s", "s", "lower"),
    ("ff_linalg.rref_array.cells", "count", "lower"),
    ("ff_linalg.SolveContext.calls", "count", "lower"),
    ("ff_linalg.SolveContext.self_s", "s", "lower"),
    ("ff_linalg.SolveContext.cells", "count", "lower"),
    ("ff_linalg.solve_array.calls", "count", "lower"),
    ("ff_linalg.solve_array.self_s", "s", "lower"),
    ("resolution.build_cyclic_resolution.busy_s", "s", "lower"),
    ("resolution.AlgebraMap.compose.calls", "count", "lower"),
    ("resolution.window_length", "positions", "lower"),
    ("endo_dga.class_of.calls", "count", "lower"),
    ("endo_dga.class_of.self_s", "s", "lower"),
    ("endo_dga.nullhomotopy.calls", "count", "lower"),
    ("endo_dga.nullhomotopy.self_s", "s", "lower"),
    ("endo_dga.compose.calls", "count", "lower"),
    ("endo_dga.compose.self_s", "s", "lower"),
    ("endo_dga.compose.zero_fraction", "fraction", "lower"),
    ("endo_dga.differential.calls", "count", "lower"),
    ("endo_dga.differential.self_s", "s", "lower"),
    ("endo_dga.d_matrix.calls", "count", "lower"),
    ("endo_dga.d_matrix.self_s", "s", "lower"),
    ("endo_dga.homology_basis.calls", "count", "lower"),
    ("endo_dga.homology_basis.self_s", "s", "lower"),
    ("endo_dga.periodic_compact.calls", "count", "lower"),
    ("endo_dga.periodic_compact.self_s", "s", "lower"),
    ("kadeishvili.compute_arity.calls", "count", "lower"),
    ("kadeishvili.compute_arity.self_s", "s", "lower"),
    ("kadeishvili.obstruction.calls", "count", "lower"),
    ("kadeishvili.obstruction.self_s", "s", "lower"),
    ("kadeishvili.resolve_product.calls", "count", "lower"),
    ("kadeishvili.resolve_product.zero_fraction", "fraction", "lower"),
    ("kadeishvili.resolve_map.calls", "count", "lower"),
    ("kadeishvili.resolve_map.zero_fraction", "fraction", "lower"),
    ("kadeishvili.extend_linear.calls", "count", "lower"),
    ("kadeishvili.extend_linear.busy_s", "s", "lower"),
    ("stasheff.verify_structure.busy_s", "s", "lower"),
    ("stasheff.check_structure.calls", "count", "lower"),
    ("stasheff.check_structure.self_s", "s", "lower"),
    ("stasheff.check_morphism.calls", "count", "lower"),
    ("stasheff.check_morphism.self_s", "s", "lower"),
    ("cli.run.busy_s", "s", "lower"),
    ("cli.serialize_structure.busy_s", "s", "lower"),
    ("cli.dump_structure.busy_s", "s", "lower"),
    ("cli.structure_bytes", "B", "lower"),
    ("cli.parse_structure.calls", "count", "lower"),
    ("cli.parse_structure.busy_s", "s", "lower"),
    ("cli.run_query.calls", "count", "lower"),
    ("cli.run_query.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _matrix_cells(args) -> int:
    shape = np.shape(args[0])
    return int(shape[0] * shape[1]) if len(shape) == 2 else 0


def _solve_context_cells(args) -> int:
    return _matrix_cells(args[1:])


def _count_zeros(tracer: "Tracer", span: str, result):
    tracer.count(span + ".results")
    if result.is_zero():
        tracer.count(span + ".zeros")


def _count_bytes(tracer: "Tracer", span: str, result):
    tracer.count("cli.structure_bytes", len(result))  # the file is ASCII JSON


# (span name, module, attribute path, cells of the arguments, result hook)
# A span name of None marks a call counter without spans: AlgebraMap.compose
# runs millions of times on large windows and only its count is reported.
ENTRY_POINTS = [
    ("ff_linalg.rref_array", "ff_linalg", "rref_array", _matrix_cells, None),
    ("ff_linalg.SolveContext", "ff_linalg", "SolveContext.__init__",
     _solve_context_cells, None),
    ("ff_linalg.solve_array", "ff_linalg", "solve_array", None, None),
    ("resolution.build_cyclic_resolution", "resolution",
     "build_cyclic_resolution", None, None),
    (None, "resolution", "AlgebraMap.compose", None, None),
    ("endo_dga.class_of", "endo_dga", "EndomorphismAlgebra.class_of", None, None),
    ("endo_dga.nullhomotopy", "endo_dga", "EndomorphismAlgebra.nullhomotopy",
     None, None),
    ("endo_dga.compose", "endo_dga", "EndomorphismAlgebra.compose", None, _count_zeros),
    ("endo_dga.differential", "endo_dga", "EndomorphismAlgebra.differential",
     None, None),
    ("endo_dga.d_matrix", "endo_dga", "EndomorphismAlgebra.d_matrix", None, None),
    ("endo_dga.homology_basis", "endo_dga", "EndomorphismAlgebra.homology_basis",
     None, None),
    ("endo_dga.periodic_compact", "endo_dga",
     "EndomorphismAlgebra.periodic_compact", None, None),
    ("kadeishvili.compute_arity", "kadeishvili", "AInfinityRecord.compute_arity",
     None, None),
    ("kadeishvili.obstruction", "kadeishvili", "AInfinityRecord.obstruction",
     None, None),
    ("kadeishvili.resolve_product", "kadeishvili",
     "AInfinityRecord.resolve_product", None, _count_zeros),
    ("kadeishvili.resolve_map", "kadeishvili", "AInfinityRecord.resolve_map",
     None, _count_zeros),
    ("kadeishvili.extend_linear", "kadeishvili", "AInfinityRecord.extend_linear",
     None, None),
    ("stasheff.verify_structure", "stasheff", "verify_structure", None, None),
    ("stasheff.check_structure", "stasheff", "check_structure", None, None),
    ("stasheff.check_morphism", "stasheff", "check_morphism", None, None),
    ("cli.run", "cli", "run", None, None),
    ("cli.serialize_structure", "cli", "serialize_structure", None, None),
    ("cli.dump_structure", "cli", "dump_structure", None, _count_bytes),
    ("cli.parse_structure", "cli", "parse_structure", None, None),
    ("cli.run_query", "cli", "run_query", None, None),
]


class Tracer:
    """In-memory span store with flat arrays, one entry per span."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.arg = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no open span of the same name encloses it
        self._open: list[int] = []  # open spans per name id
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def begin(self, nid: int, arg: int = -1) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.arg.append(arg)
        self.end.append(0.0)
        self.outer.append(self._open[nid] == 0)
        self._open[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._open[self.name[idx]] -= 1
        self._stack.pop()

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def enter_op(self, name: str, index: int):
        """Open the root span of one benchmark operation (a configuration
        or a query) and start recording; the library spans of the
        operation descend from it."""
        self.active = True
        self._op = self.begin(self.name_id(name), index)

    def leave_op(self):
        self.finish(self._op)
        self.active = False

    # ----- aggregation ------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: {"calls", "busy_s", "self_s"}} over all spans."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                  for name in self.names}
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            if self.outer[i]:
                entry["busy_s"] += dur
        return totals

    def write(self, path):
        """Write every span as one JSON document: names plus span rows
        [name index, start, end, parent index, arg]."""
        rows = [[self.name[i], self.start[i], self.end[i], self.parent[i], self.arg[i]]
                for i in range(len(self.name))]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counters": self.counters,
                       "spans": rows}, fh)


def _wrap(tracer: Tracer, span: str | None, counter_prefix: str, fn,
          cells=None, on_result=None):
    if span is None:
        key = counter_prefix + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.count(key)
            return fn(*args, **kwargs)
        return counted

    nid = tracer.name_id(span)
    with_arity = span == "kadeishvili.compute_arity"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if cells is not None:
            tracer.count(span + ".cells", cells(args))
        idx = tracer.begin(nid, args[1] if with_arity else -1)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if on_result is not None:
            on_result(tracer, span, result)
        return result
    return traced


def install(tracer: Tracer):
    """Wrap every entry point and rebind imported copies; returns a
    function that restores the originals."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ainfinity" or name.startswith("ainfinity."))]
    for span, mod_name, attr_path, cells, on_result in ENTRY_POINTS:
        module = importlib.import_module(f"ainfinity.{mod_name}")
        owner = module
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        prefix = f"{mod_name}.{attr_path}"
        wrapper = _wrap(tracer, span, prefix, original, cells, on_result)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))
        if owner is module:
            for other in modules:
                if other is not module and getattr(other, attr, None) is original:
                    setattr(other, attr, wrapper)
                    undo.append((other, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def layer_metrics(totals: dict, counters: dict, window_length: int,
                  overhead_s: float) -> dict:
    """The PER_LAYER metrics of one traced run, as {name: value}, from
    `Tracer.layer_totals()` and `Tracer.counters`."""
    values = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in totals.get(layer, ()):
            values[name] = totals[layer][stat]
        elif stat == "zero_fraction":
            results = counters.get(layer + ".results", 0)
            values[name] = counters.get(layer + ".zeros", 0) / results if results else 0.0
        else:
            values[name] = counters.get(name, 0)
    values["resolution.window_length"] = window_length
    values["trace.overhead_s"] = overhead_s
    return values
