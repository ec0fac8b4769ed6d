"""In-memory spans around calls into the package's layers.

`instrument` swaps module bindings for timing wrappers and restores them
on exit, so the package itself carries no tracing code. Each span has a
name, a start, an end (`perf_counter_ns`) and the index of its parent
span (-1 for a root). Spans live in flat arrays while the run lasts and
are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from pathlib import Path
from typing import Dict, Iterator, List

import numpy as np

import fovmax.cells
import fovmax.cli
import fovmax.oracle
import fovmax.solver
import fovmax.wedge

# (module or class, attribute, span name). A span's layer is the module
# that defines the function, whichever module's binding is wrapped.
BINDINGS = (
    (fovmax.solver, "solve_scene", "solver.solve_scene"),
    (fovmax.solver, "vertex_partition", "cells.vertex_partition"),
    (fovmax.solver, "breakpoints", "cells.breakpoints"),
    (fovmax.solver, "build_cells", "cells.build_cells"),
    (fovmax.solver, "maximize_cell", "solver.maximize_cell"),
    (fovmax.solver, "opening_extrema", "wedge.opening_extrema"),
    (fovmax.solver, "rotation_pieces", "wedge.rotation_pieces"),
    (fovmax.solver, "objective_by_clipping", "solver.objective_by_clipping"),
    (fovmax.solver, "sector_clip", "geometry.sector_clip"),
    (fovmax.cells, "angular_order", "cells.angular_order"),
    (fovmax.cells, "section_edges", "cells.section_edges"),
    (fovmax.cells, "wedge_from_lines", "wedge.wedge_from_lines"),
    (fovmax.wedge.CellPieces, "derivative", "wedge.derivative"),
    (fovmax.wedge.CellPieces, "second_derivative", "wedge.second_derivative"),
    (fovmax.cli, "ConvexPolygon", "geometry.polygon_validate"),
    (fovmax.cli, "solve_scene", "cli.solve_scene"),
    (fovmax.cli, "grid_scan_max", "oracle.grid_scan_max"),
    (fovmax.oracle, "sweep_areas", "oracle.sweep_areas"),
)

# Spans that also record a size: directions swept, sections partitioned,
# candidates evaluated.
SIZE_OF = {
    "oracle.sweep_areas": lambda args, result: len(args[2]),
    "cells.build_cells": lambda args, result: args[2].num_sections,
    "solver.solve_scene": lambda args, result: result[0].candidates_evaluated,
    "cli.solve_scene": lambda args, result: result[0].candidates_evaluated,
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")  # see SIZE_OF; 0 for other spans
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.size.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        size_of = SIZE_OF.get(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if size_of is not None:
                self.size[idx] = size_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            size=np.frombuffer(self.size, dtype=np.int64),
        )


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every binding in BINDINGS for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in BINDINGS]
    try:
        for owner, attr, name in BINDINGS:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


class SpanTable:
    """Read-only view of a tracer's spans with per-span self time and root."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.size = np.frombuffer(tracer.size, dtype=np.int64).copy()
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.dur_ms = (end - start) / 1e6
        has_parent = self.parent >= 0
        child_ms = np.bincount(self.parent[has_parent], weights=self.dur_ms[has_parent],
                               minlength=len(self.dur_ms))
        self.self_ms = self.dur_ms - child_ms
        root = np.where(has_parent, self.parent, np.arange(len(self.parent)))
        while True:
            up = self.parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root_name = self.name[root]

    def select(self, name: str, root: str) -> np.ndarray:
        if name not in self.names or root not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return (self.name == self.names.index(name)) & (self.root_name == self.names.index(root))

    def count(self, name: str, root: str) -> int:
        return int(self.select(name, root).sum())

    def total_ms(self, name: str, root: str) -> float:
        return float(self.dur_ms[self.select(name, root)].sum())

    def self_total_ms(self, name: str, root: str) -> float:
        return float(self.self_ms[self.select(name, root)].sum())

    def durations_ms(self, name: str, root: str) -> np.ndarray:
        return self.dur_ms[self.select(name, root)]

    def size_total(self, name: str, root: str) -> int:
        return int(self.size[self.select(name, root)].sum())
