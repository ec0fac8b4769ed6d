"""The per-cell kernel of `solver` against test-only copies of the code it
replaced: a cell's end values and `cell_objective` inside the cell, each
cut built from `wedge._cut`. They must match bit for bit. The second
bound that `CellTable.visit` takes from the end values is pinned against
`test_solver._cell_end_values` by `test_middle_gate._check_visit`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax.cells import breakpoints, build_cells, vertex_partition
from fovmax.solver import cell_objective, maximize_global
from fovmax.wedge import _cut
from conftest import external_apex, random_convex_polygon, random_scene
from test_solver import _near_line_scene, _span_scene


def _hex(values):
    return [float(v).hex() for v in values]


def _scene_cells(seed, n, kind):
    """Every cell of a plain, near-line (apex on either side of an edge's
    line) or domain-restricted scene."""
    rng = np.random.default_rng(seed)
    domain = None
    if kind == "plain":
        poly = random_convex_polygon(rng, n, rx=2.0)
        apex = external_apex(rng, poly)
        phi = float(rng.uniform(0.05, 2.0))
    elif kind == "domain":
        window = (float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.15, 0.4)))
        poly, apex, phi, domain = _span_scene(seed, n, float(rng.uniform(0.05, 0.95)), window)
    else:
        poly, apex, phi = _near_line_scene(rng, 1.0 if kind == "inner" else -1.0, n)
    part = vertex_partition(poly, apex)
    return build_cells(poly, apex, part, phi, breakpoints(part.sorted_angles, phi, domain))


def _section_cut(part, j, a, b):
    """Area of section j between the rays at angles a and b."""
    c, psi = part.edge_c, part.edge_psi
    f, n = part.far_edges[j], part.near_edges[j]
    return _cut(c[f], psi[f], a, b) - _cut(c[n], psi[n], a, b)


def _cell_objective_reference(cell, theta):
    """cell_objective as it was before _end_values added the middle."""
    if cell.empty:
        return 0.0
    part, phi = cell.part, cell.opening
    r, l = cell.right_section, cell.left_section
    total = cell.middle_area
    if r is not None and r == l:
        return total + _section_cut(part, r, theta, theta + phi)
    if r is not None:
        total += _section_cut(part, r, theta, part.sorted_angles[r + 1])
    if l is not None:
        total += _section_cut(part, l, part.sorted_angles[l], theta + phi)
    return total


def _check_end_bounds(table):
    """The end values (ends) and cell_objective at seven directions inside
    the cell against the reference, on fresh copies of every cell."""
    for i in range(len(table)):
        cell, ref = table[i], table[i]
        lo, hi = cell.interval
        assert _hex(cell.ends) == _hex(_cell_objective_reference(ref, t) for t in (lo, hi))
        inside = [lo + k * (hi - lo) / 8 for k in range(1, 8)]
        got = _hex(cell_objective(cell, t) for t in inside)
        assert got == _hex(_cell_objective_reference(ref, t) for t in inside)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
)
def test_end_bound_matches_reference(seed, n, kind):
    _check_end_bounds(_scene_cells(seed, n, kind))


def test_end_bound_matches_reference_at_n1024():
    _check_end_bounds(_scene_cells(7, 1024, "plain"))


def test_most_solved_cells_skip_root_isolation(piece_counts):
    # a count, not a timer: on seeded random scenes the concave test of the
    # whole cell settles at least half of the solved cells; the others
    # isolate their maxima by splitting the cell into pieces
    rng = np.random.default_rng(41)
    for _ in range(300):
        poly, apex, phi = random_scene(rng, phi_hi=1.2)
        maximize_global(poly, apex, phi, 10)
    solved, isolated = len(piece_counts), sum(map(bool, piece_counts))
    # 499 solved cells, of which 28 take pieces (225 isolated the roots of
    # a slope polynomial before the piece rule)
    assert solved > 400
    assert isolated <= solved // 2
