"""What a large solve allocates, counted, not timed.

The polygon keeps its vertices as two float tuples, and the per-scene
tables are flat sequences of floats and ints; the cell table keeps one
float per cell, its bound. So building them leaves a few dozen container
objects, the kind CPython's cyclic garbage collector tracks, instead of
one per vertex, per edge line or per cell. The solver reads a visited
cell from the table's rows, and a cell's RotationCell and f' terms are
built only when the cell is solved.
"""

import gc

import numpy as np

from fovmax import solver
from fovmax.cells import CellTable, breakpoints, build_cells, vertex_partition
from fovmax.geometry import ConvexPolygon
from fovmax.solver import maximize_global
from conftest import random_convex_polygon
from test_solver import _span_scene


def test_polygon_leaves_few_tracked_objects():
    vertices = random_convex_polygon(np.random.default_rng(7), 4096).vertices
    gc.disable()
    try:
        before = len(gc.get_objects())
        poly = ConvexPolygon(vertices)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert len(poly) == 4096
    # 3 here; 4,098 with a tuple per vertex
    assert after - before <= 64


def test_partition_and_cells_leave_few_tracked_objects():
    poly, apex, phi, _ = _span_scene(1024, 1024, 0.3)
    gc.disable()
    try:
        before = len(gc.get_objects())
        part = vertex_partition(poly, apex)
        bps = breakpoints(part.sorted_angles, phi)
        table = build_cells(poly, apex, part, phi, bps)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert len(table) > 2000
    # 13 here; 3,086 with a tuple per edge line and one per cell interval
    assert after - before <= 64


def test_only_solved_cells_build_slope_terms(monkeypatch):
    # the visit loop visits every cell it reaches once, from the table's rows
    visited, solved, built = [], [], []
    real_visit, real_solve, real_terms = CellTable.visit, solver.maximize_cell, solver._slope_terms

    def visit(table, i, floor):
        visited.append(i)
        return real_visit(table, i, floor)

    def solve(cell, *args):
        solved.append(cell)
        return real_solve(cell, *args)

    def terms(cell):
        built.append(cell)
        return real_terms(cell)

    monkeypatch.setattr(CellTable, "visit", visit)
    monkeypatch.setattr(solver, "maximize_cell", solve)
    monkeypatch.setattr(solver, "_slope_terms", terms)
    poly, apex, phi, _ = _span_scene(1024, 1024, 0.1)
    maximize_global(poly, apex, phi, 8)
    moving = [
        c for c in solved if not c.empty and (c.right_section, c.left_section) != (None, None)
    ]
    assert [id(c) for c in built] == [id(c) for c in moving]
    # 7 cells solved of 205 visited
    assert 0 < len(solved) and 10 * len(solved) < len(set(visited))
