"""What a large solve allocates, counted, not timed.

The per-scene tables are flat sequences of floats and ints, so building
them leaves a few dozen container objects, the kind CPython's cyclic
garbage collector tracks, instead of one per edge line and one per cell.
A visited cell's f' terms are built only when the cell is solved.
"""

import gc

from fovmax import solver
from fovmax.cells import breakpoints, build_cells, vertex_partition
from fovmax.solver import maximize_global
from test_solver import _span_scene


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
    # 17 here; 3,086 with a tuple per edge line and one per cell interval
    assert after - before <= 64


def test_only_solved_cells_build_slope_terms(monkeypatch):
    visited, solved, built = [], [], []
    real_bound, real_solve, real_terms = solver.end_bound, solver.maximize_cell, solver._slope_terms

    def bound(cell, *args):
        visited.append(cell)
        return real_bound(cell, *args)

    def solve(cell, *args):
        solved.append(cell)
        return real_solve(cell, *args)

    def terms(cell):
        built.append(cell)
        return real_terms(cell)

    monkeypatch.setattr(solver, "end_bound", bound)
    monkeypatch.setattr(solver, "maximize_cell", solve)
    monkeypatch.setattr(solver, "_slope_terms", terms)
    poly, apex, phi, _ = _span_scene(1024, 1024, 0.1)
    maximize_global(poly, apex, phi, 8)
    moving = [
        c for c in solved if not c.empty and (c.right_section, c.left_section) != (None, None)
    ]
    assert [id(c) for c in built] == [id(c) for c in moving]
    # 7 cells solved of 205 visited
    assert 0 < len(solved) and 10 * len(solved) < len({id(c) for c in visited})
