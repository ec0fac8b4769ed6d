"""The per-cell kernel of `solver` against test-only copies of the code it
replaced: `_end_values` of `_end_cuts`, the curvature bound from
`_slope_terms`, the end values with a given middle area and
`cell_objective` inside the cell, each cut built from `wedge._cut`. They
must match bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax import solver
from fovmax.cells import breakpoints, build_cells, vertex_partition
from fovmax.solver import cell_objective, maximize_global
from fovmax.wedge import _cut
from conftest import external_apex, random_convex_polygon, random_scene
from test_solver import _cell_end_values, _near_line_scene, _span_scene


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


def _cell_objective_reference(cell, theta, middle=None):
    """cell_objective with the given middle area in place of
    cell.middle_area, as it took one before _end_values added the middle."""
    if cell.empty:
        return 0.0
    part, phi = cell.part, cell.opening
    r, l = cell.right_section, cell.left_section
    total = cell.middle_area if middle is None else middle
    if r is not None and r == l:
        return total + _section_cut(part, r, theta, theta + phi)
    if r is not None:
        total += _section_cut(part, r, theta, part.sorted_angles[r + 1])
    if l is not None:
        total += _section_cut(part, l, part.sorted_angles[l], theta + phi)
    return total


def _end_bound_reference(cell, middle=None):
    lo, hi = cell.interval
    m = 0.0
    for w, beta in solver._slope_terms(cell):
        x = (lo if w > 0.0 else hi) + beta
        m += 2.0 * w * math.tan(x) / math.cos(x) ** 2
    f_lo = _cell_objective_reference(cell, lo, middle)
    f_hi = _cell_objective_reference(cell, hi, middle)
    if not math.isfinite(m):
        return f_lo, f_hi, math.inf
    return f_lo, f_hi, max(f_lo, f_hi) + max(-m, 0.0) * (hi - lo) ** 2 / 8.0


def _check_end_bounds(table):
    """The end values and bound with the middle ceiling and with the exact
    middle, and cell_objective at seven directions inside the cell, against
    the reference, on fresh copies of every cell."""
    for i in range(len(table)):
        cell, ref = table[i], table[i]
        middles = [cell.part.middle(cell.right_section, cell.left_section)[2], None]
        got = [_hex(_cell_end_values(cell, middle)) for middle in middles]
        assert got == [_hex(_end_bound_reference(ref, middle)) for middle in middles]
        lo, hi = cell.interval
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
