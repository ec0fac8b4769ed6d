import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax.geometry import ConvexPolygon, InvalidInputError, normalize_angle
from fovmax.cells import breakpoints, build_cells, cell_descriptor, vertex_partition
from fovmax.oracle import clip_area_at, grid_scan_max
from fovmax.solver import (
    Precision,
    cell_objective,
    maximize_cell,
    maximize_global,
    objective_by_clipping,
    safeguarded_root,
    solve_scene,
    _cell_pieces,
)
from fovmax.wedge import opening_extrema
from fovmax.geometry import NearSingularError
from conftest import external_apex, random_convex_polygon

ORIGIN = (0.0, 0.0)
SMALL_SQUARE = ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)])
TALL_SQUARE = ConvexPolygon([(-1, 1), (1, 1), (1, 3), (-1, 3)])


def test_precision_xtol():
    assert Precision(8).xtol == pytest.approx(1e-8)
    with pytest.raises(InvalidInputError):
        Precision(1.0)
    with pytest.raises(InvalidInputError):
        maximize_global(SMALL_SQUARE, ORIGIN, 0.1, prec=0.5)


def test_root_sqrt2():
    r = safeguarded_root(lambda x: x * x - 2, lambda x: 2 * x, (1.0, 2.0), 10)
    assert r == pytest.approx(math.sqrt(2), abs=1e-10)


def test_root_cos():
    r = safeguarded_root(math.cos, lambda x: -math.sin(x), (1.0, 2.0), 8)
    assert r == pytest.approx(math.pi / 2, abs=1e-8)


def test_root_no_sign_change():
    assert safeguarded_root(lambda x: x * x + 1, None, (0.0, 1.0), 8) is None


def test_root_inverted_bracket():
    with pytest.raises(InvalidInputError, match="bracket"):
        safeguarded_root(lambda x: x, None, (2.0, 1.0), 8)


def test_root_bisection_only():
    r = safeguarded_root(lambda x: x * x - 2, None, (1.0, 2.0), 9)
    assert r == pytest.approx(math.sqrt(2), abs=1e-9)


def test_root_endpoint_hit():
    assert safeguarded_root(lambda x: x, lambda x: 1.0, (0.0, 1.0), 8) == 0.0


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.05, 0.95))
def test_root_triple_multiplicity(r):
    # Newton alone crawls into a triple root; the step-halving safeguard
    # must keep the bracket shrinking instead of hitting the iteration cap
    got = safeguarded_root(
        lambda x: (x - r) ** 3, lambda x: 3 * (x - r) ** 2, (0.0, 1.0), 8
    )
    assert got == pytest.approx(r, abs=1e-7)


@pytest.fixture(scope="module")
def square_scene():
    part = vertex_partition(SMALL_SQUARE, ORIGIN)
    bps = breakpoints(part.sorted_angles, 0.1)
    cells = build_cells(SMALL_SQUARE, ORIGIN, part, 0.1, bps)
    return part, bps, cells


def test_constant_cell_takes_left_endpoint():
    part = vertex_partition(SMALL_SQUARE, ORIGIN)
    bps = breakpoints(part.sorted_angles, 0.7)
    cells = build_cells(SMALL_SQUARE, ORIGIN, part, 0.7, bps)
    const = next(
        c for c in cells if c.right_section is None and c.left_section is None and not c.empty
    )
    best = maximize_cell(const, 8)
    assert best.theta == const.interval[0]
    assert best.area == pytest.approx(SMALL_SQUARE.area, rel=1e-12)


def test_empty_cell_scores_zero():
    part = vertex_partition(SMALL_SQUARE, ORIGIN)
    cell = cell_descriptor(SMALL_SQUARE, ORIGIN, part, 0.1, (-2.4, -2.0))
    assert cell.empty
    assert cell_objective(cell, -2.2) == 0.0
    best = maximize_cell(cell, 8)
    assert (best.theta, best.area) == (-2.4, 0.0)


def test_cell_argmax_matches_dense_grid(square_scene):
    part, _, cells = square_scene
    angs = part.sorted_angles
    cell = next(c for c in cells if c.interval[0] == pytest.approx(angs[1] - 0.1))
    best = maximize_cell(cell, 8)
    lo, hi = cell.interval
    n = int(round((hi - lo) / 1e-5))
    grid_t, grid_a = lo, -1.0
    for i in range(n + 1):
        t = lo + (hi - lo) * i / n
        a = clip_area_at(SMALL_SQUARE, ORIGIN, t, 0.1)
        if a > grid_a:
            grid_t, grid_a = t, a
    assert best.theta == pytest.approx(grid_t, abs=1e-4)
    assert best.area == pytest.approx(grid_a, abs=1e-8)
    assert best.area >= grid_a - 1e-12


def test_tall_square_cell_symmetric_argmax():
    phi = math.pi / 3
    part = vertex_partition(TALL_SQUARE, ORIGIN)
    bps = breakpoints(part.sorted_angles, phi)
    cells = build_cells(TALL_SQUARE, ORIGIN, part, phi, bps)
    cell = next(c for c in cells if c.interval[0] <= phi <= c.interval[1])
    best = maximize_cell(cell, 8)
    # scene is mirror symmetric about the vertical, so the sector centers on it
    assert best.theta == pytest.approx(phi, abs=1e-6)


def test_global_containment_plateau():
    res = maximize_global(TALL_SQUARE, ORIGIN, math.pi / 2, 8)
    assert res.theta_star == pytest.approx(math.pi / 4, abs=1e-12)
    assert res.area == TALL_SQUARE.area
    assert res.cell_index == -1


def test_global_tall_square():
    res = maximize_global(TALL_SQUARE, ORIGIN, math.pi / 3, 8)
    assert res.theta_star == pytest.approx(math.pi / 3, abs=1e-6)
    assert res.area == pytest.approx(3.690598923241497, rel=1e-9)
    grid = grid_scan_max(TALL_SQUARE, ORIGIN, math.pi / 3, step=1e-4, refine_rounds=3)
    assert res.area >= grid.best_area - 1e-9
    assert res.area == pytest.approx(grid.best_area, rel=1e-9)


def test_global_small_square_vs_grid():
    res = maximize_global(SMALL_SQUARE, ORIGIN, 0.1, 8)
    grid = grid_scan_max(SMALL_SQUARE, ORIGIN, 0.1, step=1e-4, refine_rounds=3)
    assert res.theta_star == pytest.approx(grid.best_theta, abs=1e-4)
    assert res.area == pytest.approx(grid.best_area, rel=1e-7)
    assert res.area == pytest.approx(
        clip_area_at(SMALL_SQUARE, ORIGIN, res.theta_star, 0.1), rel=1e-7
    )
    assert res.candidates_evaluated > 0


def test_stationary_and_locally_optimal():
    res = maximize_global(SMALL_SQUARE, ORIGIN, 0.1, 8)

    def f(t):
        return clip_area_at(SMALL_SQUARE, ORIGIN, t, 0.1)

    eps = 1e-6
    fd = (f(res.theta_star + eps) - f(res.theta_star - eps)) / (2 * eps)
    assert abs(fd) <= 1e-5
    probe = 1e-8
    assert f(res.theta_star + probe) <= res.area + 1e-9
    assert f(res.theta_star - probe) <= res.area + 1e-9


def test_objective_continuous_across_breakpoints(square_scene):
    _, _, cells = square_scene
    for a, b in zip(cells[:-1], cells[1:]):
        t = a.interval[1]
        assert cell_objective(a, t) == pytest.approx(cell_objective(b, t), abs=1e-9)


def test_objective_matches_clipping_inside_cells(square_scene):
    _, _, cells = square_scene
    for cell in cells:
        lo, hi = cell.interval
        for frac in (0.15, 0.5, 0.85):
            t = lo + frac * (hi - lo)
            assert cell_objective(cell, t) == pytest.approx(
                objective_by_clipping(SMALL_SQUARE, ORIGIN, t, 0.1), abs=1e-10
            )


def test_precision_monotone():
    areas = [maximize_global(SMALL_SQUARE, ORIGIN, 0.1, d).area for d in (2, 4, 6, 8, 10)]
    for a, b in zip(areas[:-1], areas[1:]):
        assert b >= a - 1e-12


def test_solve_scene_details(square_scene):
    part, bps, cells = square_scene
    res, det = solve_scene(SMALL_SQUARE, ORIGIN, 0.1, 8)
    assert det.num_cells == len(cells)
    assert det.breakpoints == tuple(bps)
    assert det.domain[0] == pytest.approx(part.sorted_angles[0] - 0.1)
    assert det.domain[1] == pytest.approx(part.sorted_angles[-1])
    assert 0 <= res.cell_index < det.num_cells


def test_domain_restriction():
    res = maximize_global(SMALL_SQUARE, ORIGIN, 0.1, 8, domain=(0.0, 0.5))
    grid = grid_scan_max(
        SMALL_SQUARE, ORIGIN, 0.1, step=1e-4, refine_rounds=3, domain=(0.0, 0.5)
    )
    assert res.theta_star == pytest.approx(grid.best_theta, abs=1e-4)
    assert res.area == pytest.approx(grid.best_area, rel=1e-7)
    # the restricted optimum sits on the domain edge here
    assert res.theta_star == pytest.approx(0.5, abs=1e-12)


def test_domain_shifted_by_full_turn():
    base = maximize_global(SMALL_SQUARE, ORIGIN, 0.1, 8)
    shifted = maximize_global(
        SMALL_SQUARE, ORIGIN, 0.1, 8, domain=(2 * math.pi, 4 * math.pi)
    )
    assert shifted.theta_star == pytest.approx(base.theta_star, abs=1e-7)
    assert shifted.area == pytest.approx(base.area, rel=1e-9)


def test_empty_domain_raises():
    with pytest.raises(InvalidInputError, match="domain"):
        maximize_global(SMALL_SQUARE, ORIGIN, 0.1, 8, domain=(2.0, 3.0))


def test_bad_opening_raises():
    for phi in (0.0, -0.3, math.pi, 4.0):
        with pytest.raises(InvalidInputError):
            maximize_global(SMALL_SQUARE, ORIGIN, phi, 8)


def _exhaustive_solve(poly, apex, phi, prec, domain=None):
    """Reference for the best-first search: every cell of the scene solved,
    then solve_scene's reduction rule (max area, ties within 10**-prec to
    the smallest direction, then the lowest cell index)."""
    part = vertex_partition(poly, apex)
    bps = breakpoints(part.sorted_angles, phi, domain)
    cells = build_cells(poly, apex, part, phi, bps)
    results = [maximize_cell(c, prec) for c in cells]
    best = max(r.area for r in results)
    tie_tol = Precision(prec).xtol
    win = min(
        (i for i, r in enumerate(results) if r.area >= best - tie_tol),
        key=lambda i: (results[i].theta, i),
    )
    return win, cells, results


def _span_scene(seed, n, frac, window=None):
    """Random scene whose opening is frac of the polygon's angular span;
    window = (start, width) as fractions of the admissible domain."""
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng, n, rx=float(rng.uniform(0.8, 2.5)))
    apex = external_apex(rng, poly)
    first, last = vertex_partition(poly, apex).span()
    phi = frac * (last - first)
    domain = None
    if window is not None:
        lo, width = first - phi, last - first + phi
        domain = (lo + window[0] * width, lo + (window[0] + window[1]) * width)
    return poly, apex, phi, domain


def _assert_pruning_keeps_answer(poly, apex, phi, domain, prec=8):
    res = maximize_global(poly, apex, phi, prec, domain)
    win, cells, results = _exhaustive_solve(poly, apex, phi, prec, domain)
    assert res.cell_index == win
    assert res.theta_star == normalize_angle(results[win].theta)
    assert res.area == results[win].area
    slack = 1e-9 * poly.area
    for cell, r in zip(cells, results):
        assert r.area <= cell.bound + slack
    return res, results


@pytest.mark.parametrize("with_domain", [False, True])
@pytest.mark.parametrize("frac_range", [(0.05, 0.25), (0.6, 0.95)], ids=["narrow", "wide"])
def test_pruning_matches_exhaustive_seeded(frac_range, with_domain):
    rng = np.random.default_rng(606)
    for k in range(12):
        n = int(rng.integers(3, 65))
        frac = float(rng.uniform(*frac_range))
        window = (float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.15, 0.4))) if with_domain else None
        _assert_pruning_keeps_answer(*_span_scene(k, n, frac, window))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 64),
    frac=st.floats(0.05, 0.95),
    window=st.none() | st.tuples(st.floats(0.0, 0.6), st.floats(0.15, 0.4)),
)
def test_pruning_matches_exhaustive_hypothesis(seed, n, frac, window):
    _assert_pruning_keeps_answer(*_span_scene(seed, n, frac, window))


@pytest.mark.parametrize("frac", [0.1, 0.75], ids=["narrow", "wide"])
def test_best_first_solves_a_fraction_of_cells_at_n1024(frac):
    # a count, not a timer: a return to solving every cell fails here
    poly, apex, phi, _ = _span_scene(1024, 1024, frac)
    res, results = _assert_pruning_keeps_answer(poly, apex, phi, None)
    exhaustive = sum(r.candidates_evaluated for r in results)
    assert res.candidates_evaluated < exhaustive / 4


def test_random_scenes_beat_refined_grid(rng):
    for _ in range(12):
        poly = random_convex_polygon(rng, int(rng.integers(3, 11)), rx=2.0)
        apex = external_apex(rng, poly)
        phi = float(rng.uniform(0.1, 2.2))
        res = maximize_global(poly, apex, phi, 8)
        grid = grid_scan_max(poly, apex, phi, step=2e-4, refine_rounds=2)
        tol = 1e-6 * max(1.0, poly.area)
        assert res.area >= grid.best_area - tol
        assert res.area == pytest.approx(
            clip_area_at(poly, apex, res.theta_star, phi), rel=1e-7, abs=1e-12
        )


def test_derivative_single_sign_change_between_knots(rng):
    # the split points from the slivers' opening extrema must isolate the
    # derivative's roots: at most one sign change per subinterval
    for _ in range(4):
        poly = random_convex_polygon(rng, int(rng.integers(3, 9)), rx=2.0)
        apex = external_apex(rng, poly)
        phi = float(rng.uniform(0.2, 1.8))
        part = vertex_partition(poly, apex)
        bps = breakpoints(part.sorted_angles, phi)
        for cell in build_cells(poly, apex, part, phi, bps):
            if cell.empty or (cell.right_section is None and cell.left_section is None):
                continue
            lo, hi = cell.interval
            width = hi - lo
            chunk_count = max(1, math.ceil(width / phi))
            chunk_len = width / chunk_count
            for ci in range(chunk_count):
                c0 = lo + ci * chunk_len
                length = (hi - c0) if ci == chunk_count - 1 else chunk_len
                pieces = _cell_pieces(cell, c0, cell_objective(cell, c0))
                knots = []
                if pieces.left is not None:
                    knots.extend(
                        opening_extrema(
                            pieces.left, c0 + phi, phi_window=(0.0, length)
                        ).values()
                    )
                if pieces.right is not None:
                    knots.extend(
                        opening_extrema(pieces.right, c0, phi_window=(0.0, length)).values()
                    )
                nodes = [0.0] + sorted(set(knots)) + [length]
                for a, b in zip(nodes[:-1], nodes[1:]):
                    if b - a <= 1e-6:
                        continue
                    samples = []
                    n = max(16, min(400, int((b - a) / 1e-3)))
                    for i in range(n + 1):
                        d = a + (b - a) * (i + 0.5) / (n + 1)
                        try:
                            v = pieces.derivative(d)
                        except NearSingularError:
                            continue
                        if v != 0.0:
                            samples.append(v > 0.0)
                    flips = sum(1 for p, q in zip(samples[:-1], samples[1:]) if p != q)
                    assert flips <= 1
