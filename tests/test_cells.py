import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax.geometry import (
    ConvexPolygon,
    InvalidInputError,
    Line,
    UnsupportedSceneError,
)
from fovmax import cells
from fovmax.cells import (
    _apex_walk,
    _end_cuts,
    angular_order,
    breakpoints,
    build_cells,
    cell_objective,
    section_edges,
    vertex_partition,
)
from fovmax.oracle import clip_area_at
from fovmax.wedge import _area_raw, two_sector_area, wedge_from_lines
from conftest import external_apex, random_convex_polygon, random_scene
from test_solver import _cell_bits

ORIGIN = (0.0, 0.0)
SMALL_SQUARE = ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)])
TALL_SQUARE = ConvexPolygon([(-1, 1), (1, 1), (1, 3), (-1, 3)])


@pytest.fixture(scope="module")
def square_partition():
    return vertex_partition(SMALL_SQUARE, ORIGIN)


def test_angular_order_merges_collinear_square():
    order = angular_order(SMALL_SQUARE, ORIGIN)
    assert list(order.sorted_angles) == pytest.approx(
        [math.atan2(1, 2), math.pi / 4, math.atan2(2, 1)]
    )
    # (1,1) and (2,2) share the pi/4 ray
    assert order.ray_of == (1, 0, 1, 2)


def test_angular_order_merges_triangle_base():
    tri = ConvexPolygon([(1, 0), (2, 0), (1, 1)])
    order = angular_order(tri, ORIGIN)
    assert list(order.sorted_angles) == pytest.approx([0.0, math.pi / 4])


def test_angular_order_no_dedup_keeps_all(rng):
    for _ in range(20):
        poly = random_convex_polygon(rng, int(rng.integers(3, 13)))
        apex = external_apex(rng, poly)
        order = angular_order(poly, apex)
        # generic apexes see every vertex on its own ray
        assert len(order.sorted_angles) == len(poly)


def _nearest_ray_scan(angles, sorted_angles):
    # the linear scan the bisection replaced: nearest sorted angle, ties
    # to the lower index
    return tuple(
        min(range(len(sorted_angles)), key=lambda k: abs(sorted_angles[k] - a)) for a in angles
    )


def _near_ray_polygon(gap):
    """Apex beyond edge 0's end, off its line so that the edge's two
    vertex rays are about gap rad apart."""
    poly = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.5, 1.0), (0.2, 0.8)])
    return poly, (2.0, 2.0 * gap)


def test_ray_ids_match_nearest_angle_scan(rng):
    polys = [random_scene(rng, n_max=40)[:2] for _ in range(60)]
    polys += [_near_ray_polygon(gap) for gap in (4e-13, 1e-12, 1.3e-12, 3e-12, 1e-10, 1e-9)]
    for poly, apex in polys:
        order = angular_order(poly, apex)
        angles = _apex_walk(poly, apex)[0]
        assert order.ray_of == _nearest_ray_scan(angles, order.sorted_angles)


def _ray_of(monkeypatch, angles):
    """angular_order's ray ids for a convex polygon whose vertices have
    the given angles, in counter-clockwise order from the smallest."""
    poly = random_convex_polygon(np.random.default_rng(len(angles)), len(angles))
    monkeypatch.setattr(cells, "_apex_walk", lambda p, a: (list(angles), [], []))
    order = angular_order(poly, (10.0, 0.0))
    assert list(order.sorted_angles) == sorted(order.sorted_angles)
    return order


def test_ray_ids_ties_and_near_rays(monkeypatch):
    # exact tie: merged 2**-40 past ray 0 and 2**-40 short of ray 1, it goes
    # to the lower ray
    order = _ray_of(monkeypatch, [1.0, 1.0 + 2.0**-40, 1.0 + 2.0**-39])
    assert order.sorted_angles == (1.0, 1.0 + 2.0**-39)
    assert order.ray_of == (0, 0, 1)
    # a vertex merged into ray 0 (within 1e-12 of it) but nearer ray 1
    order = _ray_of(monkeypatch, [0.0, 1e-12, 1.5e-12])
    assert order.sorted_angles == (0.0, 1.5e-12)
    assert order.ray_of == (0, 1, 1)
    for gap in (1e-12 * 1.01, 1e-11, 1e-10, 1e-9):
        angles = [0.3, 0.3 + 0.4 * gap, 0.3 + 0.5 * gap, 0.3 + 0.6 * gap, 0.3 + gap]
        order = _ray_of(monkeypatch, angles)
        assert order.ray_of == _nearest_ray_scan(angles, order.sorted_angles)


def test_angular_order_dipping_chain_stays_sorted(monkeypatch):
    # rounding can make the boundary's angles fall by an ulp on the way
    # up; the merged ray takes the smaller angle and the rays stay sorted
    up = math.nextafter(0.5, 1.0)
    order = _ray_of(monkeypatch, [0.0, up, 0.5, 1.0])
    assert order.sorted_angles == (0.0, 0.5, 1.0)
    assert order.ray_of == (0, 1, 1, 2)


def test_section_edges_rejects_a_boundary_that_turns_back(monkeypatch):
    # angles that fall by more than the 1e-12 rad merge tolerance on the
    # way up are not the boundary of a convex polygon: its edges cover the
    # sections more than once from each side
    order = _ray_of(monkeypatch, [0.0, 0.5, 0.5 - 1e-9, 1.0])
    with pytest.raises(InvalidInputError, match="not convex"):
        section_edges(order)
    # turning back is named before an edge on an interior ray
    order = _ray_of(monkeypatch, [0.0, 0.5, 0.5 + 1e-13, 0.25, 1.0])
    assert order.ray_of == (0, 2, 2, 1, 3)
    with pytest.raises(InvalidInputError, match="not convex"):
        section_edges(order)


def test_zigzag_boundary_across_several_rays_is_rejected():
    # built unvalidated, a boundary whose angles from the apex rise, fall
    # back across three rays and rise again is not convex, even though no
    # edge lies on a ray through the apex
    angles = [0.0, 0.3, 0.6, 0.15, 0.45, 0.9, 0.75]
    radii = [2.0, 2.2, 2.4, 2.9, 3.0, 2.6, 1.5]
    vertices = [(r * math.cos(t), r * math.sin(t)) for t, r in zip(angles, radii)]
    poly = ConvexPolygon(vertices, _validate=False)
    with pytest.raises(InvalidInputError, match="not convex"):
        vertex_partition(poly, ORIGIN)


def test_notched_polygon_below_the_orientation_tolerance_is_rejected():
    # ConvexPolygon rejects this notch (turn -2e-13 at this scale) since its
    # convexity test is relative; built unvalidated, the partition still
    # rejects it, because from beside the notch the boundary turns back
    s = 1.4e-6
    vertices = [(0.0, 0.0), (s, 0.0), (s, s), (0.5 * s, 0.9 * s), (0.0, s)]
    poly = ConvexPolygon(vertices, _validate=False)
    with pytest.raises(InvalidInputError, match="not convex"):
        vertex_partition(poly, (2.5 * s, 1.2 * s))


def test_angular_order_apex_inside_raises():
    with pytest.raises(UnsupportedSceneError):
        angular_order(SMALL_SQUARE, (1.5, 1.5))


def test_section_edges_small_square():
    order = angular_order(SMALL_SQUARE, ORIGIN)
    near, far = section_edges(order)
    assert list(near) == [0, 3]  # bottom then left edge
    assert list(far) == [1, 2]  # right then top edge


def test_section_edges_tall_square():
    order = angular_order(TALL_SQUARE, ORIGIN)
    near, far = section_edges(order)
    assert list(near) == [0, 0, 0]  # bottom edge first-crossed everywhere
    assert list(far) == [1, 2, 3]  # right, top, left


def test_section_edges_single_section_triangle():
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    apex = (0.0, -1.0)
    order = angular_order(tri, apex)
    assert list(order.sorted_angles) == pytest.approx([math.pi / 4, math.pi / 2])
    near, far = section_edges(order)
    assert list(near) == [0]
    assert list(far) == [1]


def test_breakpoints_merge():
    angles = [math.atan2(1, 2), math.pi / 4, math.atan2(2, 1)]
    for phi, expected in [
        (0.1, [0.3636, 0.4636, 0.6854, 0.7854, 1.0071, 1.1071]),
        (0.3, [0.1636, 0.4636, 0.4854, 0.7854, 0.8071, 1.1071]),
    ]:
        got = breakpoints(angles, phi)
        assert got == pytest.approx(expected, abs=1e-4)
        assert got == sorted(got)
        assert len(got) <= 2 * 4


def test_breakpoints_single_angle():
    assert breakpoints([1.0], 0.25) == pytest.approx([0.75, 1.0])


def test_breakpoints_empty_domain():
    angles = [0.4636, 0.7854, 1.1071]
    assert breakpoints(angles, 0.1, domain=(2.0, 3.0)) == []


def test_breakpoints_count_bound(rng):
    for _ in range(50):
        poly = random_convex_polygon(rng, int(rng.integers(3, 20)))
        apex = external_apex(rng, poly)
        part = vertex_partition(poly, apex)
        phi = float(rng.uniform(0.05, 2.5))
        assert len(breakpoints(part.sorted_angles, phi)) <= 2 * len(poly)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    frac=st.floats(0.01, 0.99) | st.none(),
    window=st.none() | st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 0.5)),
)
def test_breakpoints_are_more_than_the_merge_apart(seed, n, frac, window):
    # so build_cells, which rejects a narrower pair, takes every list the
    # solve path gives it; frac None takes an opening that is a difference
    # of two ray angles, so that rays - phi land on rays
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng, n, rx=float(rng.uniform(0.8, 2.5)))
    apex = external_apex(rng, poly)
    part = vertex_partition(poly, apex)
    rays = part.sorted_angles
    if frac is None:
        j, k = sorted(rng.choice(len(rays), 2, replace=False))
        phi = rays[k] - rays[j]
    else:
        phi = frac * (rays[-1] - rays[0])
    domain = None
    if window is not None:
        lo, width = rays[0] - phi, rays[-1] - rays[0] + phi
        domain = (lo + window[0] * width, lo + (window[0] + window[1]) * width)
    bps = breakpoints(rays, phi, domain)
    assert all(b - a > 1e-12 for a, b in zip(bps, bps[1:]))
    if bps:
        assert len(build_cells(poly, apex, part, phi, bps)) == len(bps) - 1


def test_section_areas_sum_to_polygon(rng, square_partition):
    assert sum(square_partition.section_areas) == pytest.approx(1.0, rel=1e-12)
    assert list(square_partition.section_areas) == pytest.approx([0.5, 0.5])
    for _ in range(25):
        poly = random_convex_polygon(rng, int(rng.integers(3, 13)), rx=2.0)
        apex = external_apex(rng, poly)
        part = vertex_partition(poly, apex)
        assert sum(part.section_areas) == pytest.approx(poly.area, rel=1e-9)
        assert all(a > 0.0 for a in part.section_areas)


def test_cell_descriptor_two_sections(square_partition):
    angles = square_partition.sorted_angles
    cell = build_cells(
        SMALL_SQUARE, ORIGIN, square_partition, 0.1, (angles[1] - 0.1, angles[1])
    )[0]
    assert cell.right_section == 0
    assert cell.left_section == 1
    assert cell.middle_area == 0.0
    # the right section ends on the ray the left one starts on
    assert angles[cell.right_section + 1] == angles[cell.left_section] == angles[1]


def test_cell_descriptor_single_section(square_partition):
    angles = square_partition.sorted_angles
    cell = build_cells(
        SMALL_SQUARE, ORIGIN, square_partition, 0.1, (angles[0], angles[1] - 0.1)
    )[0]
    assert cell.right_section == cell.left_section == 0
    assert cell.middle_area == 0.0


def test_cell_descriptor_left_ray_outside(square_partition):
    angles = square_partition.sorted_angles
    cell = build_cells(
        SMALL_SQUARE, ORIGIN, square_partition, 0.5, (angles[2] - 0.5, angles[1])
    )[0]
    # left semi-line is past the last vertex ray: the upper section is a
    # constant middle contribution and only the right boundary moves
    assert cell.right_section == 0
    assert cell.left_section is None
    assert cell.middle_area == pytest.approx(square_partition.section_areas[1])


def test_cell_descriptor_straddle_is_constant(square_partition):
    bps = breakpoints(square_partition.sorted_angles, 0.7)
    cells = build_cells(SMALL_SQUARE, ORIGIN, square_partition, 0.7, bps)
    const = [
        c for c in cells if c.right_section is None and c.left_section is None and not c.empty
    ]
    assert len(const) == 1
    assert const[0].middle_area == pytest.approx(SMALL_SQUARE.area, rel=1e-12)


def test_single_section_middle_is_empty(square_partition):
    # a single-section cell's middle is the empty range just past its
    # section: a prefix sum less itself, exactly 0.0
    for r in range(square_partition.num_sections):
        assert square_partition.middle(r, r) == 0.0


def test_every_row_shape_ends_are_its_objective():
    # single-section, right ray only, left ray only, both rays and the
    # containment row: a visited cell's ends are cell_objective at its
    # ends, bit for bit
    rng = np.random.default_rng(5)
    shapes = set()
    for _ in range(20):
        poly = random_convex_polygon(rng, int(rng.integers(3, 9)), rx=2.0)
        apex = external_apex(rng, poly)
        part = vertex_partition(poly, apex)
        first, last = part.span()
        for frac in (0.1, 0.6, 1.2):
            phi = min(frac * (last - first), 3.0)
            table = build_cells(poly, apex, part, phi, breakpoints(part.sorted_angles, phi))
            for i in range(len(table)):
                cell = table.visit(i, -math.inf)
                r, l = cell.right_section, cell.left_section
                shapes.add((r is None, l is None, r == l))
                lo, hi = cell.interval
                ends = (cells.cell_objective(cell, lo), cells.cell_objective(cell, hi))
                assert [v.hex() for v in cell.ends] == [v.hex() for v in ends]
    assert shapes == {
        (False, False, True),
        (False, True, False),
        (True, False, False),
        (False, False, False),
        (True, True, True),
    }


def test_cells_tile_admissible_domain(square_partition):
    angles = square_partition.sorted_angles
    for phi in (0.1, 0.3, 0.5):
        bps = breakpoints(angles, phi)
        cells = build_cells(SMALL_SQUARE, ORIGIN, square_partition, phi, bps)
        assert cells[0].interval[0] == pytest.approx(angles[0] - phi)
        assert cells[-1].interval[1] == pytest.approx(angles[-1])
        for a, b in zip(cells[:-1], cells[1:]):
            assert a.interval[1] == b.interval[0]
        assert all(c.interval[1] > c.interval[0] for c in cells)


def test_cell_table_index_edges(rng):
    # a negative index past the front would read bps[-1] and bps[0], a pair
    # that is no cell, without the range check
    poly = random_convex_polygon(rng, 9, rx=2.0)
    apex = external_apex(rng, poly)
    part = vertex_partition(poly, apex)
    table = build_cells(poly, apex, part, 0.4, breakpoints(part.sorted_angles, 0.4))
    n = len(table)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            table[i]
    assert _cell_bits(table[-1]) == _cell_bits(table[n - 1])
    assert _cell_bits(table[-n]) == _cell_bits(table[0])
    assert len(list(table)) == n


def section_wedge(poly, part, j):
    """The wedge of section j's far and near edge lines: the paper's
    A_theta(phi) for the section."""
    return wedge_from_lines(
        part.apex,
        Line.from_points(*poly.edge(part.far_edges[j])),
        Line.from_points(*poly.edge(part.near_edges[j])),
    )


def _moving_area(poly, part, cell, theta):
    # the boundary sections' parts from the wedge closed form, the one the
    # cells spell out in _end_cuts; the clip area is the independent
    # reference
    phi = cell.opening
    r, l = cell.right_section, cell.left_section
    if r is not None and l == r:
        return _area_raw(section_wedge(poly, part, r), theta, phi)
    total = 0.0
    if r is not None:
        total += _area_raw(section_wedge(poly, part, r), theta, part.sorted_angles[r + 1] - theta)
    if l is not None:
        start = part.sorted_angles[l]
        total += _area_raw(section_wedge(poly, part, l), start, theta + phi - start)
    return total


def test_section_wedge_matches_cut(rng):
    # a section's wedge and a single-section cell's cut (_end_cuts at
    # lo == hi == a, opening b - a) are one closed form; they differ only
    # in how each builds the edge lines
    checked = 0
    for _ in range(40):
        poly, apex, _ = random_scene(rng)
        part = vertex_partition(poly, apex)
        rays = part.sorted_angles
        for j in range(part.num_sections):
            u, v = sorted(rng.uniform(0.0, 1.0, size=2))
            a = rays[j] + u * (rays[j + 1] - rays[j])
            b = rays[j] + v * (rays[j + 1] - rays[j])
            if not b > a:
                continue
            area = two_sector_area(section_wedge(poly, part, j), a, b - a)
            cut = _end_cuts(part, b - a, a, a, j, j)[0]
            assert area == pytest.approx(cut, rel=0.0, abs=1e-12 * poly.area)
            checked += 1
    assert checked > 200


def test_cell_objective_takes_no_tangent(monkeypatch, square_partition):
    # a cell's value is its middle plus two cuts: the lower bound on f''
    # (one tan per f'' term) is CellTable.visit's alone
    bps = breakpoints(square_partition.sorted_angles, 0.1)
    table = build_cells(SMALL_SQUARE, ORIGIN, square_partition, 0.1, bps)
    rows = [(c.right_section, c.left_section) for c in table]
    two, one = rows.index((0, 1)), rows.index((0, 0))
    real_tan, calls = math.tan, []

    def tan(x):
        calls.append(x)
        return real_tan(x)

    monkeypatch.setattr(math, "tan", tan)
    for i in (two, one):
        cell = table.visit(i, -math.inf)
        assert len(calls) == 4  # the counter sees visit's four terms
        calls.clear()
        lo, hi = cell.interval
        cell_objective(cell, 0.5 * (lo + hi))
        assert calls == []


def test_middle_area_constant_per_cell(rng):
    # clip area minus the analytic moving parts must be the cell constant
    for _ in range(15):
        poly = random_convex_polygon(rng, int(rng.integers(3, 11)), rx=2.0)
        apex = external_apex(rng, poly)
        phi = float(rng.uniform(0.1, 2.0))
        part = vertex_partition(poly, apex)
        bps = breakpoints(part.sorted_angles, phi)
        for cell in build_cells(poly, apex, part, phi, bps):
            if cell.empty:
                continue
            lo, hi = cell.interval
            for u in rng.uniform(0.02, 0.98, size=10):
                theta = lo + (hi - lo) * float(u)
                clip = clip_area_at(poly, apex, theta, phi)
                assert clip - _moving_area(poly, part, cell, theta) == pytest.approx(
                    cell.middle_area, abs=1e-8
                )


def test_lmr_stability_inside_cell(square_partition):
    # any two interior directions of one cell see the same combinatorics:
    # re-deriving the descriptor from a shifted probe interval agrees
    for phi in (0.1, 0.3, 0.5):
        bps = breakpoints(square_partition.sorted_angles, phi)
        cells = build_cells(SMALL_SQUARE, ORIGIN, square_partition, phi, bps)
        for cell in cells:
            lo, hi = cell.interval
            for frac in (0.1, 0.9):
                probe_iv = (lo + frac * (hi - lo) * 0.999, lo + frac * (hi - lo) * 1.001)
                if probe_iv[1] <= probe_iv[0]:
                    continue
                again = build_cells(
                    SMALL_SQUARE, ORIGIN, square_partition, phi, probe_iv
                )[0]
                assert again.right_section == cell.right_section
                assert again.left_section == cell.left_section
                assert again.middle_area == pytest.approx(cell.middle_area, abs=1e-12)


def test_cell_descriptor_rejects_empty_interval(square_partition):
    # a breakpoint interval at most 1e-12 rad wide is not a cell
    for width in (0.0, 1e-13, 0.9e-12):
        with pytest.raises(InvalidInputError, match="more than 1e-12 rad apart"):
            build_cells(SMALL_SQUARE, ORIGIN, square_partition, 0.1, (0.7, 0.7 + width))


def test_merged_ray_still_gives_section():
    tri = ConvexPolygon([(1, 0), (2, 0), (1, 1)])
    part = vertex_partition(tri, ORIGIN)
    assert part.num_sections == 1


def test_single_ray_polygon_rejected():
    # from far enough away every vertex ray collapses onto one direction
    square = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(InvalidInputError, match="single ray"):
        vertex_partition(square, (-1e13, 0.0))


@pytest.mark.parametrize(
    "vertices, apex",
    [
        ([(1, 1), (2, 1), (2, 2), (2, 2), (1, 2)], (0.0, 0.0)),
        ([(1, 1), (2, 1), (2, 1), (2, 2), (1, 2)], (0.0, -1.0)),
    ],
)
def test_unvalidated_repeated_vertex_is_invalid_input(vertices, apex):
    # a zero-length edge has no line: the partition names the defect
    # instead of dividing by the edge's length
    poly = ConvexPolygon(vertices, _validate=False)
    with pytest.raises(InvalidInputError, match="duplicate consecutive vertices"):
        vertex_partition(poly, apex)
