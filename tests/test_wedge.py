import math

import numpy as np
import pytest

from fovmax.geometry import (
    InvalidInputError,
    NearSingularError,
    ray_line_intersection,
    shoelace_area,
)
from fovmax.wedge import (
    StaticWedge,
    d_area_d_opening,
    opening_extrema,
    rotation_pieces,
    two_sector_area,
    wedge_from_lines,
)
from conftest import random_wedge_config, sample_inside_window

ORIGIN = (0.0, 0.0)

# far y = x + 3, near y = 1, apex at the origin
BASIC = wedge_from_lines(ORIGIN, ((0.0, 3.0), math.pi / 4), ((0.0, 1.0), 0.0))

REF_APEX = (-5.1923, 4.7450)
REF = wedge_from_lines(
    REF_APEX, ((0.0, 16.0), math.atan(0.57735)), ((0.0, 6.0), 0.0)
)

BASIC_QUAD_AREA = (9.0 * math.sqrt(3.0) + 9.0) / 4.0 - math.sqrt(3.0) / 6.0


def quad_oracle(apex, far_line, near_line, theta, phi):
    """Independent area of the sector truncated by the two lines: shoelace
    over the four ray/line crossings."""
    n0 = ray_line_intersection(apex, theta, near_line)
    f0 = ray_line_intersection(apex, theta, far_line)
    f1 = ray_line_intersection(apex, theta + phi, far_line)
    n1 = ray_line_intersection(apex, theta + phi, near_line)
    assert None not in (n0, f0, f1, n1)
    return shoelace_area([n0, f0, f1, n1])


def test_wedge_from_lines_basic():
    # each line as (d**2 / 2, psi): y = x + 3 is 3 / sqrt(2) away along
    # 3 pi / 4, y = 1 is 1 away along pi / 2
    assert BASIC.far == pytest.approx((9.0 / 4.0, 3.0 * math.pi / 4.0))
    assert BASIC.near == pytest.approx((0.5, math.pi / 2.0))


def test_wedge_from_lines_parallel():
    w = wedge_from_lines(ORIGIN, ((0.0, 2.0), 0.0), ((0.0, 1.0), 0.0))
    assert w.far == pytest.approx((2.0, math.pi / 2.0))
    assert w.near == pytest.approx((0.5, math.pi / 2.0))
    assert (w.window_lo, w.window_hi) == pytest.approx((0.0, math.pi))


def test_wedge_from_lines_reference_scene():
    # the far line's distance is its vertical offset 8.2572 times cos(pi / 6)
    assert REF.far[0] == pytest.approx(0.5 * (8.2572 * math.cos(math.pi / 6)) ** 2, rel=1e-4)
    assert REF.far[1] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-5)
    assert REF.near == pytest.approx((0.5 * 1.2550**2, math.pi / 2.0), abs=1e-9)


def test_wedge_direction_window():
    assert BASIC.window_lo == pytest.approx(math.pi / 4)
    assert BASIC.window_hi == pytest.approx(2.6779450445889874)


def test_wedge_apex_on_line_raises():
    with pytest.raises(InvalidInputError, match="apex"):
        wedge_from_lines(ORIGIN, ((0.0, 3.0), math.pi / 4), ((1.0, 0.0), 0.0))


def test_wedge_near_behind_far_raises():
    # parallel lines with the "near" one farther: no direction qualifies
    with pytest.raises(InvalidInputError, match="crosses"):
        wedge_from_lines(ORIGIN, ((0.0, 1.0), 0.0), ((0.0, 2.0), 0.0))


def test_two_sector_area_basic():
    a = two_sector_area(BASIC, math.pi / 3, math.pi / 6)
    assert a == pytest.approx(BASIC_QUAD_AREA, rel=1e-12)
    assert a == pytest.approx(5.8585, abs=2e-4)


def test_two_sector_area_scales_quadratically():
    doubled = wedge_from_lines(ORIGIN, ((0.0, 6.0), math.pi / 4), ((0.0, 2.0), 0.0))
    a = two_sector_area(doubled, math.pi / 3, math.pi / 6)
    assert a == pytest.approx(4.0 * BASIC_QUAD_AREA, rel=1e-12)
    assert a == pytest.approx(23.434, abs=1e-3)


def test_two_sector_area_reference_values():
    phi = math.pi / 12
    assert two_sector_area(REF, 1.43, phi) == pytest.approx(8.93, abs=5e-3)
    assert two_sector_area(REF, 1.90, phi) == pytest.approx(6.50, abs=5e-3)
    assert two_sector_area(REF, 2.48, phi) == pytest.approx(8.10, abs=5e-3)


def test_two_sector_area_rejects_outside_window():
    with pytest.raises(InvalidInputError, match="admissible"):
        two_sector_area(BASIC, BASIC.window_lo - 0.5, 0.3)
    with pytest.raises(InvalidInputError, match="admissible"):
        two_sector_area(BASIC, BASIC.window_hi - 0.1, 0.3)


def test_two_sector_area_rejects_bad_opening():
    with pytest.raises(InvalidInputError):
        two_sector_area(BASIC, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        two_sector_area(BASIC, 1.0, math.pi)


def test_two_sector_area_near_singular_at_window_edge():
    # the right ray parallel to the far line degenerates a denominator
    with pytest.raises(NearSingularError):
        two_sector_area(BASIC, BASIC.window_lo, 0.3)


def test_parallel_strip_area_examples():
    strip = wedge_from_lines(ORIGIN, ((0.0, 2.0), 0.0), ((0.0, 1.0), 0.0))
    assert two_sector_area(strip, math.pi / 4, math.pi / 2) == pytest.approx(3.0)
    assert two_sector_area(strip, math.pi / 3, math.pi / 6) == pytest.approx(
        0.8660, abs=5e-5
    )


def test_parallel_strip_coincident_is_zero():
    line = (0.5, math.pi / 2.0)
    w = StaticWedge(far=line, near=line, window_lo=0.0, window_hi=math.pi)
    for theta, phi in ((0.3, 0.5), (1.0, 1.2), (2.0, 0.9)):
        assert two_sector_area(w, theta, phi) == 0.0


def test_two_sector_area_dispatches_parallel():
    strip = wedge_from_lines(ORIGIN, ((0.0, 2.0), 0.0), ((0.0, 1.0), 0.0))
    assert two_sector_area(strip, math.pi / 4, math.pi / 2) == pytest.approx(3.0)


def test_d_area_d_opening_value():
    assert d_area_d_opening(BASIC, math.pi / 3, math.pi / 6) == pytest.approx(4.0, rel=1e-12)


def test_d_area_d_opening_root():
    # the quoted 4-digit root 1.6308 only zeroes the derivative loosely
    # (local slope is ~8); the closed-form root must meet the 1e-9 contract
    assert abs(d_area_d_opening(BASIC, math.pi / 3, 1.6308)) <= 1e-3
    ex = opening_extrema(BASIC, math.pi / 3)
    root = min(ex.values())
    assert abs(d_area_d_opening(BASIC, math.pi / 3, root)) <= 1e-9


def test_d_area_d_opening_coincident_zero():
    line = (0.5 * 1.5**2, math.pi / 2.0)
    w = StaticWedge(far=line, near=line, window_lo=0.0, window_hi=math.pi)
    for phi in (0.2, 0.9, 1.7):
        assert d_area_d_opening(w, 0.8, phi) == 0.0


def test_d_area_d_opening_matches_finite_difference(rng):
    step = 1e-6
    checked = 0
    for _ in range(200):
        w, apex, far, near = random_wedge_config(rng)
        theta, phi = sample_inside_window(rng, w)
        if not (0.0 < phi - step and phi + step < math.pi):
            continue
        try:
            d = d_area_d_opening(w, theta, phi)
            hi = two_sector_area(w, theta, phi + step)
            lo = two_sector_area(w, theta, phi - step)
        except NearSingularError:
            continue
        fd = (hi - lo) / (2.0 * step)
        assert d == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checked += 1
    assert checked > 150


def test_opening_extrema_basic():
    ex = opening_extrema(BASIC, math.pi / 3)
    assert sorted(ex.values()) == pytest.approx([1.6308, 2.3394], abs=1e-4)


def test_opening_extrema_sign_change():
    for root in opening_extrema(BASIC, math.pi / 3).values():
        before = d_area_d_opening(BASIC, math.pi / 3, root - 1e-5)
        after = d_area_d_opening(BASIC, math.pi / 3, root + 1e-5)
        assert before * after < 0.0


SYMMETRIC = wedge_from_lines(
    ORIGIN,
    ((0.0, 1.0), math.pi / 6),
    ((0.0, 1.0), -math.pi / 6),
)


def test_opening_extrema_symmetric_vertical():
    # mirror-symmetric wedge, direction straight along the symmetry axis:
    # the first root's left ray is the direction itself (phi = 0, excluded);
    # the second is pi/2, where the derivative is zero by symmetry
    ex = opening_extrema(SYMMETRIC, math.pi / 2)
    assert ex.phi1 is None
    assert ex.phi2 == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(d_area_d_opening(SYMMETRIC, math.pi / 2, ex.phi2)) <= 1e-9


def test_opening_extrema_symmetric_tilted():
    ex = opening_extrema(SYMMETRIC, math.pi / 3)
    assert sorted(ex.values()) == pytest.approx([math.pi / 6, 2 * math.pi / 3], abs=1e-9)


def test_opening_extrema_coincident_empty():
    line = (2.0, math.pi / 2.0)
    w = StaticWedge(far=line, near=line, window_lo=0.0, window_hi=math.pi)
    ex = opening_extrema(w, 1.0)
    assert ex.phi1 is None and ex.phi2 is None


def test_opening_extrema_window_filter():
    ex = opening_extrema(BASIC, math.pi / 3)
    assert list(ex.values()) == pytest.approx([1.6307474933923898, 2.3393737655200595])


def _parallel_wedge(rng, lo, hi):
    """(wedge, theta) for an apex at the origin and two nearly parallel
    lines, so that both root rays run nearly along both lines. At a root
    the far and the near term c / cos(gamma - psi)**2 are equal, and they
    are |X|**2 / 2 for the point X where the ray meets the far line (at
    the lines' crossing for phi1, opposite the near line's point for
    phi2); redrawn until that is within [lo, hi] at both roots. theta
    puts both roots at least 0.2 rad inside (0, pi)."""
    while True:
        pn = float(rng.uniform(-math.pi, math.pi))
        pf = pn + 10.0 ** float(rng.uniform(-5.5, 0.0)) * float(rng.choice([-1.0, 1.0]))
        dn = float(rng.uniform(0.5, 2.0))
        df = dn + float(rng.uniform(0.2, 2.0))
        det = math.sin(pf - pn)
        cn, sn, cf, sf = math.cos(pn), math.sin(pn), math.cos(pf), math.sin(pf)
        # Cramer's rule: X . u(pn) = dn and X . u(pf) = df for phi1,
        # -X . u(pn) = dn and X . u(pf) = df for phi2
        x1 = ((dn * sf - df * sn) / det, (df * cn - dn * cf) / det)
        x2 = ((-dn * sf - df * sn) / det, (df * cn + dn * cf) / det)
        terms = [0.5 * (x * x + y * y) for x, y in (x1, x2)]
        if not all(lo <= t <= hi for t in terms):
            continue
        near = ((dn * cn, dn * sn), pn + math.pi / 2.0)
        far = ((df * cf, df * sf), pf + math.pi / 2.0)
        gamma = math.atan2(x1[1], x1[0])
        return wedge_from_lines(ORIGIN, far, near), gamma - float(rng.uniform(0.3, math.pi - 0.3))


@pytest.mark.parametrize("lo, hi", [(1e6, 1e10), (1e2, 1e6)])
def test_opening_extrema_do_not_flip_on_rounding(lo, hi):
    # where the terms are large the residual's rounding nears 1e-9, so a
    # filter on the residual's value alone keeps or drops a root by the
    # noise: it flipped 1,088 of the 10,000 wedges with terms in
    # [1e2, 1e6]. Nudging theta by 1e-14 rad must not change which roots
    # are kept
    rng = np.random.default_rng(1500)
    kept = 0
    for _ in range(10000):
        w, theta = _parallel_wedge(rng, lo, hi)
        ex = opening_extrema(w, theta)
        nudged = opening_extrema(w, theta + 1e-14)
        assert (ex.phi1 is None, ex.phi2 is None) == (nudged.phi1 is None, nudged.phi2 is None)
        for root in ex.values():
            assert abs(d_area_d_opening(w, theta, root)) <= 1e-9
            kept += 1
    # the residual's rounding reaches 1e-9 from terms of about 1e6 on,
    # so only the lower range keeps roots
    assert (kept > 1000) == (lo < 1e6)


def test_rotation_pieces_identity_at_zero():
    base = two_sector_area(REF, 1.43, math.pi / 12)
    pieces = rotation_pieces(REF, REF, 1.43, math.pi / 12, base)
    assert pieces.evaluate(0.0) == base


def test_rotation_pieces_reference_offsets():
    phi = math.pi / 12
    base = two_sector_area(REF, 1.43, phi)
    pieces = rotation_pieces(REF, REF, 1.43, phi, base)
    assert pieces.evaluate(0.47) == pytest.approx(two_sector_area(REF, 1.90, phi), abs=1e-9)
    assert pieces.evaluate(phi) == pytest.approx(
        two_sector_area(REF, 1.43 + phi, phi), abs=1e-9
    )


def test_rotation_pieces_rejects_anchor_outside_window():
    with pytest.raises(InvalidInputError, match="anchor"):
        rotation_pieces(BASIC, BASIC, BASIC.window_hi + 0.5, 0.3, 1.0)


def test_rotation_pieces_derivative_consistent():
    phi = math.pi / 12
    base = two_sector_area(REF, 1.43, phi)
    pieces = rotation_pieces(REF, REF, 1.43, phi, base)
    h = 1e-6
    for delta in (0.05, 0.1, 0.2):
        fd = (pieces.evaluate(delta + h) - pieces.evaluate(delta - h)) / (2.0 * h)
        assert pieces.derivative(delta) == pytest.approx(fd, rel=1e-5)
        fd2 = (pieces.derivative(delta + h) - pieces.derivative(delta - h)) / (2.0 * h)
        assert pieces.second_derivative(delta) == pytest.approx(fd2, rel=1e-4)


def test_closed_form_matches_quad_oracle(rng):
    for _ in range(200):
        w, apex, far, near = random_wedge_config(rng)
        theta, phi = sample_inside_window(rng, w)
        try:
            analytic = two_sector_area(w, theta, phi)
        except NearSingularError:
            continue
        reference = quad_oracle(apex, far, near, theta, phi)
        assert analytic == pytest.approx(reference, rel=1e-8)
        assert analytic > 0.0


def test_rigid_rotation_invariance(rng):
    for _ in range(60):
        w, apex, far, near = random_wedge_config(rng)
        theta, phi = sample_inside_window(rng, w)
        try:
            a0 = two_sector_area(w, theta, phi)
        except NearSingularError:
            continue
        rot = float(rng.uniform(0.0, 2.0 * math.pi))
        cr, sr = math.cos(rot), math.sin(rot)
        spin = lambda p: (cr * p[0] - sr * p[1], sr * p[0] + cr * p[1])
        w2 = wedge_from_lines(
            spin(apex),
            (spin(far[0]), far[1] + rot),
            (spin(near[0]), near[1] + rot),
        )
        try:
            a1 = two_sector_area(w2, theta + rot, phi)
        except NearSingularError:
            continue
        assert a1 == pytest.approx(a0, rel=1e-9)


def test_offset_scaling_law(rng):
    for s in (0.5, 2.0, 3.7):
        scaled = wedge_from_lines(
            ORIGIN, ((0.0, 3.0 * s), math.pi / 4), ((0.0, 1.0 * s), 0.0)
        )
        a = two_sector_area(scaled, math.pi / 3, math.pi / 6)
        assert a == pytest.approx(s * s * BASIC_QUAD_AREA, rel=1e-12)


def test_vertical_frame_rotation():
    # both lines are nearly vertical, where a slope form would blow up;
    # the area must still match the quad oracle
    far = ((2.0, 0.0), 1.57)
    near = ((1.0, 0.0), 1.45)
    w = wedge_from_lines(ORIGIN, far, near)
    theta, phi = sample_inside_window(__import__("numpy").random.default_rng(7), w)
    assert two_sector_area(w, theta, phi) == pytest.approx(
        quad_oracle(ORIGIN, far, near, theta, phi), rel=1e-9
    )


def test_contains_direction_wraps():
    assert BASIC.contains_direction(BASIC.window_lo + 2.0 * math.pi - 1e-12)
    assert BASIC.contains_direction(BASIC.window_lo - 2.0 * math.pi + 1e-9)
    assert not BASIC.contains_direction(BASIC.window_hi + 0.2)


def _near_crossing_first(apex, far, near, gamma):
    n = ray_line_intersection(apex, gamma, near)
    f = ray_line_intersection(apex, gamma, far)
    if n is None or f is None:
        return False
    return math.dist(apex, n) < math.dist(apex, f)


def test_window_is_where_the_near_line_is_crossed_first(rng):
    # random line pairs, a tenth each parallel, antiparallel and nearly
    # vertical; away from the window's ends, a direction is in the window
    # exactly when its ray crosses the near line strictly before the far one
    checked = inside = 0
    for k in range(400):
        apex = tuple(rng.uniform(-2.0, 2.0, size=2))
        a_far = float(rng.uniform(0.0, 2.0 * math.pi))
        a_near = float(rng.uniform(0.0, 2.0 * math.pi))
        if k % 10 == 1:
            a_near = a_far
        elif k % 10 == 2:
            a_near = a_far + math.pi
        elif k % 10 == 3:
            a_far, a_near = math.pi / 2.0 - 1e-9, -math.pi / 2.0
        far = (tuple(rng.uniform(-3.0, 3.0, size=2)), a_far)
        near = (tuple(rng.uniform(-3.0, 3.0, size=2)), a_near)
        try:
            w = wedge_from_lines(apex, far, near)
        except InvalidInputError:
            w = None
        for gamma in rng.uniform(0.0, 2.0 * math.pi, size=50):
            gamma = float(gamma)
            if w is not None and min(
                abs(math.remainder(gamma - w.window_lo, 2.0 * math.pi)),
                abs(math.remainder(gamma - w.window_hi, 2.0 * math.pi)),
            ) < 1e-6:
                continue
            expected = _near_crossing_first(apex, far, near, gamma)
            assert (w is not None and w.contains_direction(gamma)) == expected
            checked += 1
            inside += expected
    assert checked > 19000 and inside > 1000
