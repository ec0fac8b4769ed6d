import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax.geometry import (
    ConvexPolygon,
    InvalidInputError,
    Line,
    Sector,
    UnsupportedSceneError,
    angular_span,
    clip_halfplane,
    normalize_angle,
    overlap_interval,
    ray_line_intersection,
    sector_clip,
    shoelace_area,
    vertex_angle,
    wrap_to_pi,
)
from fovmax.cells import breakpoints
from fovmax.solver import solve_scene
from fovmax.wedge import d_area_d_opening, rotation_pieces, two_sector_area
from conftest import external_apex, random_convex_polygon
from test_wedge import BASIC

UNIT_SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
TALL_SQUARE = ConvexPolygon([(-1, 1), (1, 1), (1, 3), (-1, 3)])
SMALL_SQUARE = ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)])


def test_shoelace_unit_square():
    assert shoelace_area(UNIT_SQUARE.vertices) == 1.0


def test_shoelace_right_triangle():
    assert shoelace_area([(0, 0), (2, 0), (0, 2)]) == 2.0


def test_shoelace_wedge_quadrilateral():
    s3 = math.sqrt(3.0)
    quad = [
        (1.0 / s3, 1.0),
        ((3.0 * s3 + 3.0) / 2.0, (9.0 + 3.0 * s3) / 2.0),
        (0.0, 3.0),
        (0.0, 1.0),
    ]
    expected = (9.0 * s3 + 9.0) / 4.0 - s3 / 6.0
    assert shoelace_area(quad) == pytest.approx(expected, rel=1e-14)
    # 5.858439...; the quoted 4-decimal value is a display rounding
    assert shoelace_area(quad) == pytest.approx(5.8585, abs=2e-4)


def test_shoelace_clockwise_is_negative():
    assert shoelace_area([(0, 0), (0, 1), (1, 1), (1, 0)]) == -1.0


def test_shoelace_matches_fan_triangulation(rng):
    for _ in range(25):
        poly = random_convex_polygon(rng, int(rng.integers(3, 12)))
        v = poly.vertices
        fans = sum(
            shoelace_area([v[0], v[i], v[i + 1]]) for i in range(1, len(v) - 1)
        )
        assert poly.area == pytest.approx(fans, rel=1e-12)


def test_polygon_rejects_too_few_vertices():
    with pytest.raises(InvalidInputError, match="at least 3"):
        ConvexPolygon([(0, 0), (1, 0)])


def test_polygon_rejects_clockwise():
    with pytest.raises(InvalidInputError, match="counter-clockwise"):
        ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])


def test_polygon_rejects_nonconvex():
    with pytest.raises(InvalidInputError, match="convex"):
        ConvexPolygon([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])


def test_polygon_rejects_nonconvex_at_small_scale():
    # a notch 10% deep turns back by only -2e-13 at this scale; the
    # convexity tolerance scales with the polygon's extent squared
    notched = [(0, 0), (1, 0), (1, 1), (0.5, 0.9), (0, 1)]
    with pytest.raises(InvalidInputError, match="polygon not convex"):
        ConvexPolygon([(1.4e-6 * x, 1.4e-6 * y) for x, y in notched])


def test_polygon_rejects_duplicate_consecutive():
    with pytest.raises(InvalidInputError):
        ConvexPolygon([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_polygon_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        ConvexPolygon([(0, 0), (1, 0), (float("nan"), 1)])


def test_polygon_rejects_zero_area():
    with pytest.raises(InvalidInputError):
        ConvexPolygon([(0, 0), (1, 1), (2, 2)])


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([(0, 0), (1, 0), (1, 0), (float("inf"), 1)], "finite"),
        ([(0, 0), (0, 1), (0, 1), (1, 1), (1, 0)], "duplicate"),
        ([(0, 0), (0, 4), (1, 2), (4, 4), (4, 0)], "counter-clockwise"),
    ],
    ids=["finite", "duplicate", "orientation"],
)
def test_polygon_checks_run_in_order(vertices, message):
    # each polygon also fails a later check; the first failing check names
    # the error
    with pytest.raises(InvalidInputError, match=message):
        ConvexPolygon(vertices)


def test_polygon_area_is_the_shoelace_area(rng):
    # validation keeps the area it computed: bit for bit the shoelace sum
    for _ in range(50):
        poly = random_convex_polygon(rng, int(rng.integers(3, 200)), rx=float(rng.uniform(0.1, 50.0)))
        assert poly.area == shoelace_area(poly.vertices)
        assert ConvexPolygon(poly.vertices, _validate=False).area == poly.area


def test_vertex_angle_examples():
    assert vertex_angle((0, 0), (1, 1)) == pytest.approx(math.pi / 4)
    assert vertex_angle((0, 0), (-1, 0)) == pytest.approx(math.pi)
    assert vertex_angle((1, 2), (1, 5)) == pytest.approx(math.pi / 2)


def test_vertex_angle_coincident_raises():
    with pytest.raises(InvalidInputError):
        vertex_angle((1, 2), (1, 2))


def test_ray_line_intersection_examples():
    hit = ray_line_intersection((0, 0), math.pi / 3, ((0, 1), 0.0))
    assert hit == pytest.approx((1.0 / math.sqrt(3.0), 1.0))

    hit = ray_line_intersection((0, 0), math.pi / 2, ((0, 3), math.pi / 4))
    assert hit == pytest.approx((0.0, 3.0))

    assert ray_line_intersection((0, 0), 0.0, ((0, 1), 0.0)) is None


def test_ray_line_intersection_origin_on_line():
    hit = ray_line_intersection((2, 1), 0.7, ((0, 1), 0.0))
    assert hit == pytest.approx((2.0, 1.0))


def test_ray_line_intersection_behind_apex():
    # the line sits behind the ray: t < 0 means no half-line intersection
    assert ray_line_intersection((0, 2), math.pi / 2, ((0, 1), 0.0)) is None


def test_clip_halfplane_examples():
    left = clip_halfplane(UNIT_SQUARE, Line.from_point_angle((0.5, 0.0), math.pi / 2))
    assert left.area == pytest.approx(0.5)

    noop = clip_halfplane(UNIT_SQUARE, Line.from_point_angle((0.0, 2.0), math.pi))
    assert noop.area == pytest.approx(1.0)

    diag = clip_halfplane(UNIT_SQUARE, Line.from_point_angle((1.0, 0.0), 3 * math.pi / 4))
    assert diag.area == pytest.approx(0.5)


def test_clip_halfplane_empty_returns_none():
    gone = clip_halfplane(UNIT_SQUARE, Line.from_point_angle((0.0, -1.0), math.pi))
    assert gone is None


def test_clip_halfplane_idempotent(rng):
    for _ in range(20):
        poly = random_convex_polygon(rng, 8, rx=2.0)
        ln = Line.from_point_angle(
            (rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
        )
        once = clip_halfplane(poly, ln)
        if once is None:
            continue
        twice = clip_halfplane(once, ln)
        assert twice is not None
        assert twice.area == pytest.approx(once.area, rel=1e-12)


def test_sector_clip_examples():
    full = sector_clip(TALL_SQUARE, Sector((0, 0), math.pi / 4, math.pi / 2))
    assert full.area == pytest.approx(4.0)

    half = sector_clip(TALL_SQUARE, Sector((0, 0), math.pi / 2, math.pi / 4))
    assert half.area == pytest.approx(2.0)

    assert sector_clip(TALL_SQUARE, Sector((0, 0), 3.5, 0.3)) is None


def test_sector_requires_open_interval_opening():
    with pytest.raises(InvalidInputError):
        Sector((0, 0), 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        Sector((0, 0), 0.0, math.pi)


_OPENING_CHECKS = {
    "breakpoints": lambda phi: breakpoints((0.5, 1.0), phi),
    "Sector": lambda phi: Sector((0, 0), 0.0, phi),
    "solve_scene": lambda phi: solve_scene(SMALL_SQUARE, (0.0, 0.0), phi),
    "two_sector_area": lambda phi: two_sector_area(BASIC, 0.9, phi),
    "d_area_d_opening": lambda phi: d_area_d_opening(BASIC, 0.9, phi),
    "rotation_pieces": lambda phi: rotation_pieces(None, None, 0.9, phi, 0.0),
}


@pytest.mark.parametrize("phi", [0.0, math.pi, math.nan], ids=["0", "pi", "nan"])
@pytest.mark.parametrize("entry", list(_OPENING_CHECKS))
def test_every_opening_check_gives_one_message(entry, phi):
    # one rule for an opening, NaN included, wherever it enters
    with pytest.raises(InvalidInputError) as info:
        _OPENING_CHECKS[entry](phi)
    assert str(info.value) == "sector opening must lie in (0, pi)"


def test_sector_contains_closed_boundary():
    s = Sector((0, 0), 0.0, math.pi / 2)
    assert s.contains((1.0, 0.0))
    assert s.contains((0.0, 1.0))
    assert s.contains((1.0, 1.0))
    assert not s.contains((1.0, -0.1))


def test_sector_clip_bounded_by_polygon(rng):
    for _ in range(40):
        poly = random_convex_polygon(rng, 8, rx=2.0)
        apex = external_apex(rng, poly)
        clipped = sector_clip(
            poly, Sector(apex, rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 3.0))
        )
        if clipped is not None:
            assert clipped.area <= poly.area * (1 + 1e-12)


def test_sector_clip_contains_equals_polygon_area():
    s = Sector((0, 0), 0.4, 0.8)
    assert all(s.contains(v) for v in SMALL_SQUARE.vertices)
    assert sector_clip(SMALL_SQUARE, s).area == pytest.approx(SMALL_SQUARE.area, rel=1e-14)


def test_normalize_angle():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(2 * math.pi) == 0.0
    assert normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert normalize_angle(7.0) == pytest.approx(7.0 - 2 * math.pi)


@given(st.floats(-50.0, 50.0))
def test_wrap_to_pi_range(a):
    w = wrap_to_pi(a)
    assert -math.pi <= w <= math.pi
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


def test_angular_span_small_square():
    lo, hi = angular_span(SMALL_SQUARE, (0, 0))
    assert lo == pytest.approx(math.atan2(1, 2))
    assert hi == pytest.approx(math.atan2(2, 1))


def test_angular_span_across_seam():
    # polygon straddling the positive x axis: span must stay contiguous
    poly = ConvexPolygon([(2, -0.5), (3, -0.5), (3, 0.5), (2, 0.5)])
    lo, hi = angular_span(poly, (0, 0))
    assert hi - lo == pytest.approx(2 * math.atan2(0.5, 2))
    assert lo < 0 < hi


def _span_by_vertex_loop(poly, apex):
    # an independent spelling of angular_span: offsets from the centroid
    # direction, one vertex at a time, and the direction added last
    cx, cy = poly.centroid()
    mu = math.atan2(cy - apex[1], cx - apex[0])
    lo, hi = math.inf, -math.inf
    for v in poly.vertices:
        off = wrap_to_pi(vertex_angle(apex, v) - mu)
        lo, hi = min(lo, off), max(hi, off)
    return (mu + lo, mu + hi)


def _near_line_apex(rng, poly):
    # beyond the end of an edge, off its line by 1e-10 to 1e-8 of its length
    vs = poly.vertices
    i = int(rng.integers(len(vs)))
    (ax, ay), (bx, by) = vs[i], vs[(i + 1) % len(vs)]
    length = math.hypot(bx - ax, by - ay)
    ux, uy = (bx - ax) / length, (by - ay) / length
    s = length * rng.uniform(0.5, 3.0)
    off = rng.choice([-1.0, 1.0]) * length * 10.0 ** rng.uniform(-10.0, -8.0)
    return (bx + s * ux - off * uy, by + s * uy + off * ux)


def _seam_apex(rng, poly):
    # to the left of the centroid, so the span straddles direction 0
    cx, cy = poly.centroid()
    rmax = max(math.hypot(x - cx, y - cy) for x, y in poly.vertices)
    a = math.pi + rng.uniform(-0.1, 0.1)
    r = rmax * rng.uniform(1.15, 3.0)
    return (cx + r * math.cos(a), cy + r * math.sin(a))


def test_angular_span_is_bit_identical_to_the_vertex_loop(rng):
    # scene openings are built from angular_span, so it must not move by an ulp
    checked = 0
    for make_apex in (external_apex, _seam_apex, _near_line_apex):
        for _ in range(300):
            poly = random_convex_polygon(rng, int(rng.integers(3, 13)), rx=rng.uniform(0.8, 2.5))
            apex = make_apex(rng, poly)
            try:
                span = angular_span(poly, apex)
            except UnsupportedSceneError:
                continue
            assert span == _span_by_vertex_loop(poly, apex)
            checked += 1
    assert checked > 800


@pytest.mark.parametrize("apex", [(math.nan, 0.0), (-math.inf, 0.0), (0.0, math.inf)])
def test_angular_span_rejects_a_non_finite_apex(apex):
    with pytest.raises(InvalidInputError, match="apex coordinates must be finite"):
        angular_span(SMALL_SQUARE, apex)


def test_overlap_interval():
    assert overlap_interval((0.0, 1.0), (0.5, 2.0)) == (0.5, 1.0)
    assert overlap_interval((0.0, 1.0), (2.0, 3.0)) is None
    # 2-pi shifted copies still overlap
    lo, hi = overlap_interval((0.0, 1.0), (0.25 + 2 * math.pi, 0.75 + 2 * math.pi))
    assert (lo, hi) == pytest.approx((0.25, 0.75))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 2 * math.pi),
)
def test_line_side_sign_convention(px, py, ang):
    ln = Line.from_point_angle((px, py), ang)
    ahead_left = (
        px + math.cos(ang) - 0.5 * math.sin(ang),
        py + math.sin(ang) + 0.5 * math.cos(ang),
    )
    assert ln.side(ahead_left) > 0.0
    on_line = (px + 2.0 * math.cos(ang), py + 2.0 * math.sin(ang))
    assert abs(ln.side(on_line)) < 1e-9
