"""The per-cell kernel of `solver` against test-only copies of the code it
replaced.

* `_slope_polynomial`: the pair products built by a general polynomial
  product, `_pmul`, whose operation order the straight-line code keeps.
* `_root_free`: root isolation without the root-free test, in
  `maximize_cell` and at every level of `_monotone_nodes`.
* `_end_values` of `_end_cuts`: the curvature bound from `_slope_terms`
  and the end values from `cell_objective` with a given middle area.

All must match bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax import cells, solver
from fovmax.cells import breakpoints, build_cells, vertex_partition
from fovmax.solver import (
    _bracketed_newton,
    _horner,
    _root_free,
    _sign_changes,
    _slope_polynomial,
    maximize_cell,
    maximize_global,
)
from conftest import external_apex, random_convex_polygon, random_scene
from test_solver import _cell_end_values, _near_line_scene, _span_scene


def _pmul(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _slope_polynomial_reference(terms, mid):
    pairs = []
    for (w0, b0), (w1, b1) in zip(terms[::2], terms[1::2]):
        q0, q1 = (
            [math.cos(a) ** 2, -math.sin(2.0 * a), math.sin(a) ** 2] for a in (mid + b0, mid + b1)
        )
        pairs.append(([w0 * x + w1 * y for x, y in zip(q1, q0)], _pmul(q0, q1)))
    if len(pairs) == 1:
        return pairs[0][0]
    (a0, s0), (a1, s1) = pairs
    return [x + y for x, y in zip(_pmul(a0, s1), _pmul(a1, s0))]


def _monotone_nodes_reference(p, lo, hi):
    dp = [k * c for k, c in enumerate(p)][1:]
    if len(dp) < 2:
        return [lo, hi]
    ddp = [k * c for k, c in enumerate(dp)][1:]
    tol = 1e-13 * (hi - lo)
    roots = []
    for a, b, va, vb in _sign_changes(dp, _monotone_nodes_reference(dp, lo, hi)):
        res = _bracketed_newton(
            lambda t: _horner(dp, t), lambda t: _horner(ddp, t), a, b, tol, va, vb
        )
        roots.append(res[0])
    return [lo] + roots + [hi]


def _hex(values):
    return [float(v).hex() for v in values]


TERM = st.tuples(
    st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]),
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
)


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(TERM, min_size=2, max_size=2) | st.lists(TERM, min_size=4, max_size=4),
    mid=st.floats(-4.0, 4.0),
)
def test_slope_polynomial_matches_pmul_form(terms, mid):
    assert _hex(_slope_polynomial(terms, mid)) == _hex(_slope_polynomial_reference(terms, mid))


@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=7),
    lo=st.floats(-10.0, 0.0),
    width=st.floats(1e-6, 20.0),
)
def test_monotone_nodes_match_isolation_without_root_free_test(p, lo, width):
    hi = lo + width
    assert _hex(solver._monotone_nodes(p, lo, hi)) == _hex(_monotone_nodes_reference(p, lo, hi))


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


def _cell_objective_reference(cell, theta, middle=None):
    """cell_objective with the given middle area in place of
    cell.middle_area, as it took one before _end_values added the middle."""
    if cell.empty:
        return 0.0
    part, phi = cell.part, cell.opening
    r, l = cell.right_section, cell.left_section
    if r is not None and r == l:
        return part.cut(r, theta, theta + phi)
    total = cell.middle_area if middle is None else middle
    if r is not None:
        total += part.cut(r, theta, part.sorted_angles[r + 1])
    if l is not None:
        total += part.cut(l, part.sorted_angles[l], theta + phi)
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
    middle against the reference, on fresh copies of every cell. Every
    cell with a middle gets a ceiling here."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cells, "_LONG_MIDDLE", 0)
        for i in range(len(table)):
            cell, ref = table[i], table[i]
            span = cell.part.middle(cell.right_section, cell.left_section)
            middles = [None if span is None else span[2], None]
            got = [_hex(_cell_end_values(cell, middle)) for middle in middles]
            assert got == [_hex(_end_bound_reference(ref, middle)) for middle in middles]


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


def _cell_bits(best):
    return (*_hex([best.theta, best.area, best.achieved_bracket]), best.candidates_evaluated)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
    prec=st.sampled_from([8, 10]),
)
def test_maximize_cell_matches_isolation_without_root_free_test(seed, n, kind, prec):
    cells = _scene_cells(seed, n, kind)
    fast = [_cell_bits(maximize_cell(cell, prec)) for cell in cells]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_root_free", lambda p, bound: False)
        mp.setattr(solver, "_monotone_nodes", _monotone_nodes_reference)
        full = [_cell_bits(maximize_cell(cell, prec)) for cell in cells]
    assert fast == full


@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=7),
    bound=st.floats(0.0, 1e3),
    fractions=st.lists(st.floats(-1.0, 1.0), max_size=20),
)
def test_root_free_polynomials_keep_their_sign(p, bound, fractions):
    if _root_free(p, bound):
        for x in [-bound, bound] + [bound * u for u in fractions]:
            v = _horner(p, x)
            assert v != 0.0 and (v > 0.0) == (p[0] > 0.0)


def test_root_free_rejects_degenerate_polynomials():
    assert not _root_free([0.0, 0.0, 0.0], 1.0)
    assert not _root_free([math.nan, 1.0, 1.0], 1.0)
    assert not _root_free([1.0, math.inf, 1.0], 1.0)
    assert not _root_free([1.0, 1e200, 1e200], 1e200)  # the tail overflows
    assert not _root_free([1.0, 0.5, 0.5], 1.0)  # |p0| = the tail: a root at t = -1
    assert _root_free([1.0, 0.5, 0.49], 1.0)


def test_most_solved_cells_skip_root_isolation(monkeypatch):
    # a count, not a timer: on seeded random scenes the root-free test
    # settles the slope polynomial of at least half of the solved cells
    solved, isolated, depth = [0], [0], [0]
    real_maximize, real_nodes = solver.maximize_cell, solver._monotone_nodes

    def counted_maximize(cell, *args):
        solved[0] += not cell.empty and bool(solver._slope_terms(cell))
        return real_maximize(cell, *args)

    def counted_nodes(p, lo, hi):
        isolated[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real_nodes(p, lo, hi)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(solver, "maximize_cell", counted_maximize)
    monkeypatch.setattr(solver, "_monotone_nodes", counted_nodes)
    rng = np.random.default_rng(41)
    for _ in range(300):
        poly, apex, phi = random_scene(rng, phi_hi=1.2)
        maximize_global(poly, apex, phi, 10)
    # 499 solved cells, of which 225 reach _monotone_nodes
    assert solved[0] > 400
    assert isolated[0] <= solved[0] // 2
