import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax.geometry import ConvexPolygon, InvalidInputError, normalize_angle
from fovmax.cells import SectionPartition, _end_cuts, _end_values, breakpoints, build_cells
from fovmax.cells import vertex_partition
from fovmax.oracle import clip_area_at, grid_scan_max, sweep_areas
from fovmax import solver
from fovmax.solver import (
    CellBest,
    SceneDetails,
    SolveResult,
    _bracketed_newton,
    _xtol,
    cell_objective,
    maximize_cell,
    maximize_global,
    objective_by_clipping,
    safeguarded_root,
    solve_scene,
)
from conftest import external_apex, random_convex_polygon, random_scene

ROOT = Path(__file__).resolve().parent.parent
ORIGIN = (0.0, 0.0)
SMALL_SQUARE = ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)])
TALL_SQUARE = ConvexPolygon([(-1, 1), (1, 1), (1, 3), (-1, 3)])


def test_precision_xtol():
    assert _xtol(8) == pytest.approx(1e-8)
    for digits in (1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="precision digits must be finite and exceed 1"):
            _xtol(digits)
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


def test_build_cells_rejects_breakpoints_outside_the_span():
    # a pair whose sector misses the polygon would make an empty cell; the
    # admissible domain [first ray - phi, last ray] itself is one cell
    part = vertex_partition(SMALL_SQUARE, ORIGIN)
    first, last = part.span()
    for bps in ((-2.4, -2.0), (first - 0.3, first - 0.2), (first - 0.1, last, last + 0.2)):
        with pytest.raises(InvalidInputError, match=r"within \[first ray - phi, last ray\]"):
            build_cells(SMALL_SQUARE, ORIGIN, part, 0.1, bps)
    cell = build_cells(SMALL_SQUARE, ORIGIN, part, 0.1, (first - 0.1, last))[0]
    assert (cell.right_section, cell.left_section, cell.empty) == (0, 1, False)


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
    then solve_scene's reduction rule (max area, ties within the
    partition's rounding margin to the smallest direction, then the lowest
    cell index)."""
    part = vertex_partition(poly, apex)
    bps = breakpoints(part.sorted_angles, phi, domain)
    cells = build_cells(poly, apex, part, phi, bps)
    results = [maximize_cell(c, prec) for c in cells]
    best = max(r.area for r in results)
    win = min(
        (i for i, r in enumerate(results) if r.area >= best - part.margin),
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


def _prefix_bound_candidates(poly, apex, phi, prec=8):
    """Candidates evaluated by best-first solving on the prefix-sum bounds
    alone: solve_scene's loop without the second bound (_end_values)."""
    part = vertex_partition(poly, apex)
    cells = build_cells(poly, apex, part, phi, breakpoints(part.sorted_angles, phi))
    best, total = -math.inf, 0
    for i in sorted(range(len(cells)), key=cells.bound.__getitem__, reverse=True):
        if cells.bound[i] + cells.slack < best - part.margin:
            break
        r = maximize_cell(cells[i], prec)
        total += r.candidates_evaluated
        best = max(best, r.area)
    return total


@pytest.mark.parametrize("frac", [0.1, 0.75], ids=["narrow", "wide"])
def test_end_bound_cuts_candidates_at_n1024(frac):
    # a count, not a timer: most cells that reach the incumbent on their
    # prefix-sum bound fall short of it on the second bound
    poly, apex, phi, _ = _span_scene(1024, 1024, frac)
    res = maximize_global(poly, apex, phi, 8)
    assert res.candidates_evaluated < _prefix_bound_candidates(poly, apex, phi) / 5


def _cell_end_values(cell, middle=None):
    """A table cell's (f(lo), f(hi), bound) as solve_scene takes them:
    _end_values of its _end_cuts with the given middle area in place of
    middle_area."""
    lo, hi = cell.interval
    cuts = _end_cuts(cell.part, cell.opening, lo, hi, cell.right_section, cell.left_section)
    return _end_values(cuts, cell.middle_area if middle is None else middle, hi - lo)


def _cell_bits(cell):
    lo, hi = cell.interval
    return (lo.hex(), hi.hex(), cell.right_section, cell.left_section, cell.bound.hex(),
            cell.middle_area.hex(), cell.ends[0].hex(), cell.ends[1].hex())


def test_solved_cells_are_their_table_rows(monkeypatch):
    # the visit loop solves the cell CellTable.visit gives, which is the
    # one indexing gives: small_scenes and one n = 1024 scene
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    import scenes

    runs = [
        (ConvexPolygon(s.vertices), s.apex, s.phi, scenes.SMALL_PREC, s.domain)
        for s in scenes.small_scenes(1)
    ]
    poly, apex, phi, domain = _span_scene(1024, 1024, 0.75)
    runs.append((poly, apex, phi, 10, domain))
    solved, tables = [], []
    real_build, real_solve = solver.build_cells, solver.maximize_cell

    def build(*args):
        tables.append(real_build(*args))
        return tables[-1]

    def solve(cell, *args):
        solved.append((tables[-1], cell))
        return real_solve(cell, *args)

    monkeypatch.setattr(solver, "build_cells", build)
    monkeypatch.setattr(solver, "maximize_cell", solve)
    for poly, apex, phi, prec, domain in runs:
        solve_scene(poly, apex, phi, prec, domain)
    for table, cell in solved:
        assert _cell_bits(cell) == _cell_bits(table[table.bps.index(cell.interval[0])])
    # the n = 1024 scene, solved last, solved cells too
    big = sum(table is tables[-1] for table, _ in solved)
    assert len(solved) > len(runs) and big > 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
)
def test_end_bound_covers_cell_maximum(seed, n, kind):
    # the second bound is at least the cell's solved maximum and every
    # value on a 65-point grid, near-line triangles and restricted domains
    # included
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
    tol = 1e-12 * poly.area
    for cell in build_cells(poly, apex, part, phi, breakpoints(part.sorted_angles, phi, domain)):
        lo, hi = cell.interval
        f_lo, f_hi, top = _cell_end_values(cell)
        assert (f_lo, f_hi) == (cell_objective(cell, lo), cell_objective(cell, hi))
        grid = max(cell_objective(cell, lo + (hi - lo) * k / 64) for k in range(65))
        assert top + tol >= grid
        assert top + tol >= maximize_cell(cell, 8).area


def _concave_scene(seed, n, kind, phi):
    """A scene of the given kind (plain, a near-line apex on either side of
    an edge's line, or a restricted domain) with opening phi; its domain
    or None."""
    rng = np.random.default_rng(seed)
    if kind in ("inner", "outer"):
        poly, apex, _ = _near_line_scene(rng, 1.0 if kind == "inner" else -1.0, n)
    else:
        poly = random_convex_polygon(rng, n, rx=2.0)
        apex = external_apex(rng, poly)
    domain = None
    if kind == "domain":
        first, last = vertex_partition(poly, apex).span()
        start, width = first - phi, last - first + phi
        a, b = float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.15, 0.4))
        domain = (start + a * width, start + (a + b) * width)
    return poly, apex, domain


def _slope_functions(terms):
    """f', f'' (maximize_cell's, summed left to right) and the rounding
    scale of f' for (w, beta) terms."""

    def slope(t):
        return sum(w / math.cos(t + beta) ** 2 for w, beta in terms)

    def curvature(t):
        total = 0.0
        for w, beta in terms:
            total += 2.0 * w * math.tan(t + beta) / math.cos(t + beta) ** 2
        return total

    def noise(t):
        return 1e-12 * sum(abs(w) / math.cos(t + beta) ** 2 for w, beta in terms)

    return slope, curvature, noise


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
    log_phi=st.floats(-8.0, math.log10(3.0)),
    prec=st.sampled_from([6, 8, 10]),
)
def test_concave_cells_are_concave_and_solved(seed, n, kind, log_phi, prec):
    # every moving cell's direction is within 10**-prec of a reference: the
    # best of a grid of cell_objective (65 points on a cell concave as a
    # whole, 513 on any other), refined by bisection on the sign of f'
    # between the grid point's neighbours. A concave cell has f'' < 0 at 33
    # points across it; a piece settled as convex has f'' > 0 at 33 points,
    # and one settled by its slopes keeps their sign there
    phi = 10.0**log_phi
    poly, apex, domain = _concave_scene(seed, n, kind, phi)
    part = vertex_partition(poly, apex)
    xtol = 10.0**-prec
    settled = []
    real_settled = solver._settled

    def record(a, ga, b, gb, low, high):
        out = real_settled(a, ga, b, gb, low, high)
        if out:
            settled.append((a, ga, b, low))
        return out

    for cell in build_cells(poly, apex, part, phi, breakpoints(part.sorted_angles, phi, domain)):
        if cell.right_section is None and cell.left_section is None:
            continue
        lo, hi = cell.interval
        terms = solver._slope_terms(cell)
        slope, curvature, noise = _slope_functions(terms)
        concave = solver._on_piece(terms, lo, hi)[3] < 0.0
        if concave:
            assert all(curvature(lo + (hi - lo) * k / 32) < 0.0 for k in range(33))
        settled.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_settled", record)
            theta = maximize_cell(cell, prec).theta
        for a, ga, b, low in settled:
            points = [a + (b - a) * k / 32 for k in range(33)]
            if low > 0.0:
                assert all(curvature(t) > 0.0 for t in points)
            else:
                assert all(slope(t) * ga > 0.0 or abs(slope(t)) <= noise(t) for t in points)

        size = 64 if concave else 512
        grid = [lo + (hi - lo) * k / size for k in range(size + 1)]
        k = max(range(size + 1), key=lambda i: cell_objective(cell, grid[i]))
        a, b = grid[max(k - 1, 0)], grid[min(k + 1, size)]
        if slope(a) <= 0.0:
            ref = a
        elif slope(b) >= 0.0:
            ref = b
        else:
            while a < 0.5 * (a + b) < b:
                m = 0.5 * (a + b)
                a, b = (m, b) if slope(m) > 0.0 else (a, m)
            ref = 0.5 * (a + b)
        # a plateau: f' is within its rounding of 0 near the reference, so
        # the grid cannot tell where the maximum lies
        e = 0.25 * xtol
        if (ref - e >= lo and slope(ref - e) <= noise(ref - e)) or (
            ref + e <= hi and slope(ref + e) >= -noise(ref + e)
        ):
            continue
        assert abs(theta - ref) <= xtol


def _synthetic_terms(betas, zeros):
    """(w, beta) terms for the betas whose f' = sum w / cos(x + beta)**2
    meets each (x, k) of zeros: the k-th derivative of f' is 0 at x (k up
    to 2); the weights span the null space, oriented so f' > 0 at -0.1."""
    rows = []
    for x, k in zeros:
        y = x + np.asarray(betas)
        sec2, tan = 1.0 / np.cos(y) ** 2, np.tan(y)
        rows.append([sec2, 2.0 * tan * sec2, 2.0 * sec2 * (sec2 + 2.0 * tan * tan)][k])
    w = np.linalg.svd(np.asarray(rows))[2][-1]
    terms = [(float(a), b) for a, b in zip(w, betas)]
    if _slope_functions(terms)[0](-0.1) < 0.0:
        terms = [(-a, b) for a, b in terms]
    return terms


BETAS = [-0.5, -0.1, 0.3, 0.6]
SYNTHETIC = {
    # f' >= 0 touches 0 at 0, and falls through 0 at 0.25
    "double": (_synthetic_terms(BETAS, [(0.0, 0), (0.0, 1), (0.25, 0)]), -0.4, 0.45, 0.25),
    # f' ~ -x**3 at 0
    "triple": (_synthetic_terms(BETAS, [(0.0, 0), (0.0, 1), (0.0, 2)]), -0.4, 0.45, 0.0),
    # two odd pairs: f'(0) is exactly 0, at the first split point
    "split_zero": ([(1.0, 0.4), (-1.0, -0.4), (-3.0, 0.2), (3.0, -0.2)], -0.5, 0.5, 0.0),
    # f' > 0 at both ends dips below 0 between 0.1 and 0.2
    "dip": (_synthetic_terms(BETAS, [(0.1, 0), (0.2, 0), (0.9, 0)]), -0.4, 0.45, 0.1),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC))
def test_pieces_at_multiple_and_exact_roots(piece_counts, case):
    # a count, not a timer: the pieces _maxima takes where f' has a double
    # root, a triple root, an exact zero at the cell's midpoint, or two
    # close roots between ends of one sign. A root
    # lands within 10**-prec of the maximum, and past float resolution the
    # pieces stop growing with prec
    terms, lo, hi, top = SYNTHETIC[case]
    counts = {}
    for prec in (6, 10, 16, 300):
        roots = solver._maxima(terms, lo, hi, 10.0**-prec)
        counts[prec] = piece_counts[-1]
        # top is the maximum of the exact weights, up to about 1e-14 for
        # the rounded ones; f' of the triple root lies within its rounding
        # of 0 for about 5e-6 on either side, so no float search resolves
        # it further
        if prec == 6 or (prec == 10 and case != "triple"):
            assert min(abs(theta - top) for theta, _ in roots) <= 10.0**-prec
    assert counts[16] == counts[300]
    if case in ("split_zero", "dip"):
        assert max(counts.values()) <= 2.0 * math.log2((hi - lo) / 10.0**-6) + 8
    else:
        # near a multiple root f' is a small difference of large terms, so
        # the f'' bounds settle a piece beside it only when the piece is
        # much narrower than its distance from the root: 279 pieces at
        # prec 6 and 367 from prec 10 on for the double root, 2,465 at
        # prec 6 and 10,041 from prec 8 on for the triple root
        assert counts[300] <= {"double": 400, "triple": 11000}[case]


def test_an_exact_zero_is_reported_once():
    # f'(0) is exactly 0: at the split point of [-0.5, 0.5] it ends both
    # halves, which each reported it, and at a cell end it is that end's
    # candidate, which maximize_cell evaluated again as a root
    terms = SYNTHETIC["split_zero"][0]
    assert solver._maxima(terms, -0.5, 0.5, 1e-10) == [(0.0, 0.0)]
    assert solver._maxima(terms, -0.5, 0.0, 1e-10) == []
    assert solver._maxima(terms, 0.0, 0.5, 1e-10) == []


def test_concave_cells_build_no_slope_polynomial(piece_counts):
    # a count, not a timer: the pieces that 500 seeded scenes take past the
    # concave test of the whole cell, the cells that take any, and the cells
    # they solve, equal on two runs. No cell builds a slope polynomial, and
    # a cell concave as a whole takes no piece (piece_counts checks it)
    assert not hasattr(solver, "_slope_polynomial")
    counts = []
    for _ in range(2):
        piece_counts.clear()
        rng = np.random.default_rng(7)
        for _ in range(500):
            maximize_global(*random_scene(rng), prec=10)
        counts.append((sum(piece_counts), sum(map(bool, piece_counts)), len(piece_counts)))
    assert counts[0] == counts[1]
    # 76 pieces in 18 cells for 372 solved cells; the same 18 cells built a
    # slope polynomial before the piece rule
    assert counts[0][0] <= 100 and counts[0][1] <= 25 and counts[0][2] > 300


def test_polish_stops_at_float_resolution(monkeypatch):
    # a count, not a timer: past about 15 digits no float lies inside the
    # bracket before it is 10**-prec wide; the polish stops there with
    # prec 15's direction, and ran to the 200-step backstop before
    rng = np.random.default_rng(3)
    poly = random_convex_polygon(rng, 64)
    apex = external_apex(rng, poly)
    iterations = []

    def counted(*args):
        res = _bracketed_newton(*args)
        if res is not None:
            iterations.append(res[2])
        return res

    monkeypatch.setattr(solver, "_bracketed_newton", counted)
    base = maximize_global(poly, apex, 0.8, 15).theta_star
    for prec in (16, 20, 300):
        iterations.clear()
        assert maximize_global(poly, apex, 0.8, prec).theta_star == base
        assert 0 < max(iterations) <= 20
    # a zero tolerance ends with the root's neighbouring floats
    root, width, its = _bracketed_newton(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, 0.0)
    assert width <= math.ulp(root) and abs(root - math.sqrt(2.0)) <= math.ulp(root)
    assert its < 60


def test_newton_nudge_is_at_least_a_float_spacing(monkeypatch):
    # a count, not a timer: past about 15 digits xtol / 2 is below the float
    # spacing at the root, and a nudge by it rounded back onto the bracket's
    # end, so bisection walked the far end down (13 iterations at prec 16,
    # 20 and 300); a nudge of one spacing keeps prec 15's path and direction
    rng = np.random.default_rng(3)
    poly = random_convex_polygon(rng, 64)
    apex = external_apex(rng, poly)
    iterations = []

    def counted(*args):
        res = _bracketed_newton(*args)
        if res is not None:
            iterations.append(res[2])
        return res

    monkeypatch.setattr(solver, "_bracketed_newton", counted)
    base = maximize_global(poly, apex, 0.8, 15)
    assert max(iterations) == 4
    for prec in (16, 20, 300):
        iterations.clear()
        assert maximize_global(poly, apex, 0.8, prec).theta_star == base.theta_star
        assert max(iterations) <= 5


def test_newton_closes_the_far_side():
    # a count, not a timer: Newton reaches sqrt(2) from above, and bisection
    # alone walked the lower end up to xtol (36 iterations)
    root, width, iterations = _bracketed_newton(lambda x: (x * x - 2.0, 2.0 * x), 1.0, 2.0, 1e-10)
    assert width < 1e-10
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert iterations <= 6


def test_exact_zero_reports_a_zero_width():
    # g is 0 at the first midpoint: the root is exact, whatever bracket is
    # still held around it
    assert _bracketed_newton(lambda x: (x - 0.5, 1.0), 0.0, 1.0, 1e-10) == (0.5, 0.0, 0)
    # a seeded scene whose winning polish lands on an exact zero of f'; it
    # reported the 0.0545-wide bracket it still held
    rng = np.random.default_rng(5)
    for _ in range(65):
        random_scene(rng)
    res = maximize_global(*random_scene(rng), prec=10)
    assert res.theta_star.hex() == (5.114996835818674).hex()
    assert res.achieved_bracket == 0.0


def test_polish_iterations_per_root(monkeypatch):
    # a count, not a timer: every polish of every cell of seeded scenes,
    # including roots at a cell's end, where Newton points past the bracket
    polishes = []

    def counted(point, lo, hi, xtol, *args):
        res = _bracketed_newton(point, lo, hi, xtol, *args)
        if res is not None and xtol == 1e-10:
            polishes.append(res[2])
        return res

    monkeypatch.setattr(solver, "_bracketed_newton", counted)
    rng = np.random.default_rng(31)
    for _ in range(100):
        poly, apex, phi = random_scene(rng)
        part = vertex_partition(poly, apex)
        for cell in build_cells(poly, apex, part, phi, breakpoints(part.sorted_angles, phi)):
            maximize_cell(cell, 10)
    assert len(polishes) > 100
    assert sum(polishes) / len(polishes) < 6
    assert max(polishes) <= 12


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


def _near_line_apex(poly, i, along, off):
    """Apex `along` edge lengths beyond the end of edge i and `off` edge
    lengths off its line, on the polygon's side when off > 0."""
    (ax, ay), (bx, by) = poly.vertices[i], poly.vertices[(i + 1) % len(poly)]
    ex, ey = bx - ax, by - ay
    return (bx + along * ex - off * ey, by + along * ey + off * ex)


def _near_line_scene(rng, side, n):
    """Apex 1e-10 to 1e-8 edge lengths off an edge's line."""
    poly = random_convex_polygon(rng, n, rx=float(rng.uniform(0.8, 2.5)))
    off = side * 10.0 ** float(rng.uniform(-10.0, -8.0))
    apex = _near_line_apex(poly, int(rng.integers(n)), float(rng.uniform(0.5, 3.0)), off)
    first, last = vertex_partition(poly, apex).span()
    return poly, apex, max(0.05, float(rng.uniform(0.1, 0.9)) * (last - first))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    kind=st.sampled_from(["plain", "inner", "outer"]),
)
def test_cell_maximum_beats_dense_grid(seed, n, kind):
    # every cell's answer is at least the best clipped area on a dense grid
    # inside it, near-line triangles included, where a missed interior
    # maximum shows
    rng = np.random.default_rng(seed)
    if kind == "plain":
        poly = random_convex_polygon(rng, n, rx=2.0)
        apex = external_apex(rng, poly)
        phi = float(rng.uniform(0.05, 2.0))
    else:
        poly, apex, phi = _near_line_scene(rng, 1.0 if kind == "inner" else -1.0, n)
    part = vertex_partition(poly, apex)
    for cell in build_cells(poly, apex, part, phi, breakpoints(part.sorted_angles, phi)):
        lo, hi = cell.interval
        grid = sweep_areas(poly, apex, np.linspace(lo, hi, 201), phi)
        assert maximize_cell(cell, 8).area >= float(grid.max()) - 1e-9 * poly.area


# Near-line triangles (apex about 1e-9 edge lengths off an edge's line, on
# the far side) whose first cells hold an interior maximum between two
# roots of the derivative, which splitting cells at the slivers' opening
# extrema missed.
DEFECT_TRIANGLES = (
    ([(1.1362850648731582, -1.2103471950945508), (-0.43858539896141213, 1.702696305055223),
      (-1.1292675308983093, 1.2699838275763031)],
     (-2.1976755546949023, 0.6006260131991806), 0.5436401865070419),
    ([(-1.399908268318096, 0.8772707055547366), (0.42739748683108864, -1.3093234350492535),
      (1.12320233307718, -0.1883643796808498)],
     (1.4755469649015536, 0.37927165709965865), 0.7797897726261366),
)


@pytest.mark.parametrize("scene", DEFECT_TRIANGLES, ids=["tri0", "tri1"])
def test_near_line_triangles_match_oracle(scene):
    vertices, apex, phi = scene
    poly = ConvexPolygon(vertices)
    res = maximize_global(poly, apex, phi, 10)
    grid = grid_scan_max(poly, apex, phi, step=1e-4, refine_rounds=3)
    assert res.area >= grid.best_area - 1e-9 * poly.area
    assert res.area == pytest.approx(clip_area_at(poly, apex, res.theta_star, phi), rel=1e-9)


def test_first_defect_triangle_interior_maximum():
    vertices, apex, phi = DEFECT_TRIANGLES[0]
    res = maximize_global(ConvexPolygon(vertices), apex, phi, 10)
    assert math.remainder(res.theta_star + 0.34254, 2 * math.pi) == pytest.approx(0.0, abs=1e-5)
    assert res.area == pytest.approx(0.74543, abs=1e-5)


def test_inner_near_line_scene_solves():
    # apex 1e-9 edge lengths off edge 1's line, on the polygon's side
    poly = ConvexPolygon([(0.0, 0.0), (2.0, 0.0), (2.5, 1.0), (1.0, 2.0), (-0.5, 1.2)])
    apex = _near_line_apex(poly, 1, 1.5, 1e-9)
    phi = 0.1
    res = maximize_global(poly, apex, phi, 8)
    assert res.area == pytest.approx(clip_area_at(poly, apex, res.theta_star, phi), rel=1e-9)
    grid = grid_scan_max(poly, apex, phi, step=1e-4, refine_rounds=3)
    assert res.area >= grid.best_area - 1e-9 * poly.area


def test_tiny_opening_candidates_per_cell():
    # a count, not a timer: at most the two ends and six maxima or
    # float-resolution midpoints per cell, however small the opening
    # against the cell's width
    rng = np.random.default_rng(77)
    poly = random_convex_polygon(rng, 8, rx=2.0)
    apex = external_apex(rng, poly)
    phi = 1e-6
    part = vertex_partition(poly, apex)
    for cell in build_cells(poly, apex, part, phi, breakpoints(part.sorted_angles, phi)):
        assert maximize_cell(cell, 8).candidates_evaluated <= 8
    res = maximize_global(poly, apex, phi, 8)
    assert res.area == pytest.approx(clip_area_at(poly, apex, res.theta_star, phi), rel=1e-9)


@pytest.mark.parametrize("scale", [1e-5, 1e-3, 1.0, 1e3])
def test_tie_tolerance_scales_with_area(scale):
    # the unit square at (1..2)^2 from the origin: scaling the scene leaves
    # the best direction where it is
    square = ConvexPolygon([(scale * x, scale * y) for x, y in ((1, 1), (2, 1), (2, 2), (1, 2))])
    res = maximize_global(square, ORIGIN, 0.1, 8)
    assert res.theta_star == pytest.approx(0.735398, abs=1e-6)
    unit = maximize_global(SMALL_SQUARE, ORIGIN, 0.1, 8)
    assert res.theta_star == pytest.approx(unit.theta_star, abs=1e-8)


@pytest.mark.parametrize("phi", [1e-9, 1e-11])
def test_prec_does_not_set_the_tie_tolerance(phi):
    # the best area, 3.2e-9 at phi = 1e-9, lies below 1e-8 of the polygon
    # area (1.376): a tie tolerance of 10**-prec times that area let every
    # cell tie, and the smallest direction, 0.476 rad away with 5.4e-18,
    # won at prec 8
    rng = np.random.default_rng(3)
    poly = random_convex_polygon(rng, 16)
    apex = external_apex(rng, poly)
    res = maximize_global(poly, apex, phi, 8)
    exact = maximize_global(poly, apex, phi, 13)
    assert res.theta_star == pytest.approx(1.2615375, abs=1e-7)
    assert res.theta_star == pytest.approx(exact.theta_star, abs=1e-8)
    assert res.area == pytest.approx(exact.area, rel=1e-6)


@pytest.mark.parametrize(
    "record, fields",
    [
        (SolveResult, ("theta_star", "area", "cell_index", "candidates_evaluated", "achieved_bracket")),
        (CellBest, ("theta", "area", "candidates_evaluated", "achieved_bracket")),
        (SceneDetails, ("partition", "breakpoints", "domain", "num_cells")),
        (
            SectionPartition,
            (
                "sorted_angles",
                "near_edges",
                "far_edges",
                "edge_c",
                "edge_psi",
                "section_areas",
                "area_prefix",
                "abs_area_sum",
                "apex",
            ),
        ),
    ],
    ids=lambda v: getattr(v, "__name__", "fields"),
)
def test_record_fields_keep_their_order(record, fields):
    # the records are named tuples now: positional unpacking sees the
    # fields in the order they had as dataclasses
    assert record._fields == fields


def test_solve_records_reject_assignment():
    res = maximize_global(SMALL_SQUARE, ORIGIN, 0.1)
    scene_res, details = solve_scene(SMALL_SQUARE, ORIGIN, 0.1)
    assert scene_res == res
    for record in (res, scene_res, details, details.partition):
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
    assert details.partition.num_sections == 2
