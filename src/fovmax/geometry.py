"""Planar primitives shared by the whole package.

Conventions:

* angles are radians, coordinates are unitless Cartesian floats
* sectors and half-planes are CLOSED sets, so points on a boundary ray
  count as inside
* a sector with apex C, direction theta and opening phi is swept
  counter-clockwise from its right boundary ray (angle theta) to its left
  boundary ray (angle theta + phi); it is the intersection of two closed
  half-planes, which requires opening < pi
* convex polygons are counter-clockwise and validated on construction;
  invalid input raises instead of being silently repaired
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import List, Optional, Sequence, Tuple

Point = Tuple[float, float]

TWO_PI = 2.0 * math.pi

# Tolerance for orientation (cross product) tests, documented as a library
# constant. Only the convexity test of polygon validation scales it, by the
# square of the polygon's extent; every other test, the area test of
# validation included, uses it as is, assuming coordinates of moderate
# magnitude.
ORIENT_EPS = 1e-12


class InvalidInputError(ValueError):
    """Input violates a documented invariant (bad polygon, angle range...)."""


class UnsupportedSceneError(RuntimeError):
    """Structurally valid input that is outside the supported problem class."""


class NearSingularError(ArithmeticError):
    """A closed-form denominator is too close to zero to be trusted."""


def normalize_angle(a: float) -> float:
    """Map an angle to its canonical representative in [0, 2*pi)."""
    r = math.fmod(a, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        r = 0.0
    return r


def wrap_to_pi(a: float) -> float:
    """Map an angle to the balanced representative in [-pi, pi]."""
    return math.remainder(a, TWO_PI)


def _finite(*vals: float) -> bool:
    return all(math.isfinite(v) for v in vals)


def check_opening(phi: float) -> None:
    """Raise InvalidInputError unless the opening lies in (0, pi)."""
    if not 0.0 < phi < math.pi:
        raise InvalidInputError("sector opening must lie in (0, pi)")


class Line:
    """Infinite line stored as an anchor point plus a unit direction.

    Storing a direction vector instead of a slope keeps vertical lines
    unexceptional.
    """

    __slots__ = ("px", "py", "dx", "dy")

    def __init__(self, point: Point, direction: Point):
        px, py = float(point[0]), float(point[1])
        dx, dy = float(direction[0]), float(direction[1])
        if not _finite(px, py, dx, dy):
            raise InvalidInputError("line coordinates must be finite")
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise InvalidInputError("line direction must be nonzero")
        self.px, self.py = px, py
        self.dx, self.dy = dx / norm, dy / norm

    @classmethod
    def from_point_angle(cls, point: Point, angle: float) -> "Line":
        return cls(point, (math.cos(angle), math.sin(angle)))

    @classmethod
    def from_points(cls, a: Point, b: Point) -> "Line":
        return cls(a, (b[0] - a[0], b[1] - a[1]))

    def side(self, p: Point) -> float:
        """Signed offset of p; positive on the left of the direction."""
        return self.dx * (p[1] - self.py) - self.dy * (p[0] - self.px)

    def __repr__(self) -> str:
        return f"Line(({self.px:g}, {self.py:g}), ({self.dx:g}, {self.dy:g}))"


def as_line(obj) -> Line:
    """Accept a Line or a (point, angle) pair."""
    if isinstance(obj, Line):
        return obj
    point, angle = obj
    return Line.from_point_angle(point, float(angle))


def shoelace_area(poly) -> float:
    """Signed shoelace area; positive for counter-clockwise input.

    Accepts a ConvexPolygon or any sequence of points. Repeated consecutive
    points contribute nothing, so degenerate quadrilaterals are fine.
    """
    if isinstance(poly, ConvexPolygon):
        xs, ys = poly.xs, poly.ys
    else:
        pts = list(poly)
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
    acc = 0.0
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


class ConvexPolygon:
    """Convex polygon with counter-clockwise vertices, kept as two flat
    float tuples xs and ys; vertices gives them as (x, y) pairs.

    Construction validates: at least 3 vertices, finite coordinates, no
    duplicate consecutive vertices, counter-clockwise orientation, convex
    turns (collinear triples are tolerated) and strictly positive area.
    """

    __slots__ = ("xs", "ys", "_area")

    def __init__(self, vertices: Sequence[Point], _validate: bool = True):
        xs, ys = [], []
        for p in vertices:
            xs.append(float(p[0]))
            ys.append(float(p[1]))
        self.xs, self.ys = tuple(xs), tuple(ys)
        self._area: Optional[float] = self._validate(self.xs, self.ys) if _validate else None

    @staticmethod
    def _validate(xs: Tuple[float, ...], ys: Tuple[float, ...]) -> float:
        """Raise on invalid vertices; return the shoelace area."""
        if len(xs) < 3:
            raise InvalidInputError("polygon needs at least 3 vertices")
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            raise InvalidInputError("polygon coordinates must be finite")
        # one pass for the shoelace sum as shoelace_area takes it, duplicates
        # (between finite floats, b - a is 0.0 only when b == a) and the
        # smallest (b - a) x (c - a) of consecutive vertices a, b, c, as
        # min() takes it; the turn is tested against a tolerance that scales
        # like cross products do, with the square of the larger side of the
        # bounding box
        xs1, ys1 = xs[1:] + xs[:1], ys[1:] + ys[:1]
        xs2, ys2 = xs[2:] + xs[:2], ys[2:] + ys[:2]
        acc = 0.0
        duplicate = False
        turn = (xs1[0] - xs[0]) * (ys2[0] - ys[0]) - (ys1[0] - ys[0]) * (xs2[0] - xs[0])
        for ax, ay, bx, by, cx, cy in zip(xs, ys, xs1, ys1, xs2, ys2):
            ex, ey = bx - ax, by - ay
            if ex == 0.0 and ey == 0.0:
                duplicate = True
            acc += ax * by - bx * ay
            t = ex * (cy - ay) - ey * (cx - ax)
            if t < turn:
                turn = t
        if duplicate:
            raise InvalidInputError("polygon has duplicate consecutive vertices")
        area = 0.5 * acc
        if area < 0.0:
            raise InvalidInputError("polygon not counter-clockwise")
        if area <= ORIENT_EPS:
            raise InvalidInputError("polygon area not strictly positive")
        if turn < 0.0:
            extent = max(max(xs) - min(xs), max(ys) - min(ys))
            if turn < -ORIENT_EPS * extent * extent:
                raise InvalidInputError("polygon not convex")
        return area

    @property
    def vertices(self) -> Tuple[Point, ...]:
        return tuple(zip(self.xs, self.ys))

    @property
    def area(self) -> float:
        if self._area is None:
            self._area = shoelace_area(self)
        return self._area

    def __len__(self) -> int:
        return len(self.xs)

    def edge(self, i: int) -> Tuple[Point, Point]:
        """Edge i runs from vertex i to vertex i+1 (cyclic)."""
        j = (i + 1) % len(self.xs)
        return (self.xs[i], self.ys[i]), (self.xs[j], self.ys[j])

    def centroid(self) -> Point:
        # left to right: sum() of floats rounds differently from 3.12 on
        n = len(self.xs)
        return (reduce(add, self.xs, 0.0) / n, reduce(add, self.ys, 0.0) / n)

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self.vertices)!r})"


class Sector:
    """Closed planar sector: apex, direction of the right boundary ray and
    opening angle in (0, pi)."""

    __slots__ = ("apex", "direction", "opening")

    def __init__(self, apex: Point, direction: float, opening: float):
        ax, ay = float(apex[0]), float(apex[1])
        direction = float(direction)
        opening = float(opening)
        check_opening(opening)
        if not _finite(ax, ay, direction):
            raise InvalidInputError("sector parameters must be finite")
        self.apex = (ax, ay)
        self.direction = direction
        self.opening = opening

    def contains(self, p: Point) -> bool:
        ax, ay = self.apex
        vx, vy = p[0] - ax, p[1] - ay
        t = self.direction
        # left of the right ray and right of the left ray, both closed
        if math.cos(t) * vy - math.sin(t) * vx < -ORIENT_EPS:
            return False
        t2 = t + self.opening
        if math.cos(t2) * vy - math.sin(t2) * vx > ORIENT_EPS:
            return False
        return True

    def __repr__(self) -> str:
        return f"Sector(apex={self.apex}, direction={self.direction:g}, opening={self.opening:g})"


def vertex_angle(apex: Point, p: Point) -> float:
    """Angle in [0, 2*pi) of the ray apex -> p."""
    dx, dy = p[0] - apex[0], p[1] - apex[1]
    if dx == 0.0 and dy == 0.0:
        raise InvalidInputError("vertex_angle of coincident points")
    return normalize_angle(math.atan2(dy, dx))


def ray_line_intersection(apex: Point, direction: float, line) -> Optional[Point]:
    """Intersection of the half-line from apex at the given angle with a line.

    Returns None for a parallel line or an intersection strictly behind the
    apex. A ray starting on the line returns the apex itself.
    """
    ln = as_line(line)
    ux, uy = math.cos(direction), math.sin(direction)
    denom = ux * ln.dy - uy * ln.dx
    if abs(denom) <= ORIENT_EPS:
        return None
    wx, wy = ln.px - apex[0], ln.py - apex[1]
    t = (wx * ln.dy - wy * ln.dx) / denom
    if t < -ORIENT_EPS:
        return None
    if t < 0.0:
        t = 0.0
    return (apex[0] + t * ux, apex[1] + t * uy)


def _dedupe_ring(pts: Sequence[Point], tol: float) -> list:
    out: list = []
    for p in pts:
        if out and abs(p[0] - out[-1][0]) <= tol and abs(p[1] - out[-1][1]) <= tol:
            continue
        out.append(p)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) <= tol and abs(out[0][1] - out[-1][1]) <= tol:
        out.pop()
    return out


def clip_halfplane(poly: ConvexPolygon, line, keep_left: bool = True) -> Optional[ConvexPolygon]:
    """Clip a convex polygon against one closed half-plane.

    Returns the clipped polygon, or None when the result is empty or has
    zero area. The output is trusted convex (no re-validation), since
    half-plane clipping preserves convexity up to rounding.
    """
    ln = as_line(line)
    sgn = 1.0 if keep_left else -1.0
    vs = poly.vertices
    n = len(vs)
    sides = [sgn * ln.side(v) for v in vs]
    out: list = []
    for i in range(n):
        j = (i + 1) % n
        si, sj = sides[i], sides[j]
        vi, vj = vs[i], vs[j]
        inside_i = si >= -ORIENT_EPS
        inside_j = sj >= -ORIENT_EPS
        if inside_i:
            out.append(vi)
        if inside_i != inside_j:
            t = si / (si - sj)
            out.append((vi[0] + t * (vj[0] - vi[0]), vi[1] + t * (vj[1] - vi[1])))
    if len(out) < 3:
        return None
    scale = max(1.0, max(max(abs(x), abs(y)) for x, y in out))
    out = _dedupe_ring(out, 1e-13 * scale)
    if len(out) < 3:
        return None
    if shoelace_area(out) <= 1e-14 * scale * scale:
        return None
    return ConvexPolygon(out, _validate=False)


def sector_clip(poly: ConvexPolygon, s: Sector) -> Optional[ConvexPolygon]:
    """Intersection of a convex polygon with a closed sector.

    The sector is realized as two half-plane clips: left of the right
    boundary ray's supporting line, right of the left boundary ray's.
    Returns None when the intersection is empty or has zero area.
    """
    right = Line.from_point_angle(s.apex, s.direction)
    clipped = clip_halfplane(poly, right, keep_left=True)
    if clipped is None:
        return None
    left = Line.from_point_angle(s.apex, s.direction + s.opening)
    return clip_halfplane(clipped, left, keep_left=False)


def _apex_walk(
    poly: ConvexPolygon, apex: Point
) -> Tuple[List[float], List[float], List[float]]:
    """One pass over the polygon as seen from an apex outside it: every
    vertex's ray angle, moved by whole turns to within pi of the
    apex-to-centroid direction so that a polygon straddling the 0/2pi seam
    gets contiguous angles, and every edge line's d**2 / 2 and psi, its
    distance from the apex and the direction of the perpendicular from the
    apex to it (edge k runs from vertex k to vertex k+1).

    Raises InvalidInputError for a non-finite apex or a repeated vertex
    and, after the pass, UnsupportedSceneError for an apex inside or on the
    polygon: one is outside when it lies right of some edge, that is when
    the edge's distance numerator, (v_k+1 - v_k) x (apex - v_k) bit for
    bit, is below -ORIENT_EPS.
    """
    ax, ay = apex[0], apex[1]
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise InvalidInputError("apex coordinates must be finite")
    cx, cy = poly.centroid()
    mu = math.atan2(cy - ay, cx - ax)
    xs, ys = poly.xs, poly.ys
    atan2, hypot, remainder, pi = math.atan2, math.hypot, math.remainder, math.pi
    angles, cs, psis = [], [], []
    outside = False
    try:
        for px, py, qx, qy in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
            dx, dy = px - ax, py - ay
            # normalize_angle, given that atan2 lies in [-pi, pi]
            a = atan2(dy, dx)
            if a < 0.0:
                a += TWO_PI
                if a >= TWO_PI:
                    a = 0.0
            angles.append(mu + remainder(a - mu, TWO_PI))
            ex, ey = qx - px, qy - py
            num = ey * dx - ex * dy
            if num < -ORIENT_EPS:
                outside = True
            d = num / hypot(ex, ey)
            psi = atan2(-ex, ey)
            if d < 0.0:
                d, psi = -d, psi + pi
            cs.append(0.5 * d * d)
            psis.append(psi)
    except ZeroDivisionError:  # hypot(ex, ey) is 0.0 only for a zero-length edge
        raise InvalidInputError("polygon has duplicate consecutive vertices") from None
    if not outside:
        raise UnsupportedSceneError("apex inside or on polygon")
    return angles, cs, psis


def angular_span(poly: ConvexPolygon, apex: Point) -> Tuple[float, float]:
    """Smallest closed angle interval [lo, hi] containing every vertex ray,
    on the axis of _apex_walk: lo and hi are plain reals with hi - lo < pi.
    Raises as _apex_walk does."""
    angles = _apex_walk(poly, apex)[0]
    return min(angles), max(angles)


def overlap_interval(base: Tuple[float, float], other: Tuple[float, float]) -> Optional[Tuple[float, float]]:
    """Intersect two angle intervals, shifting `other` by a whole number of
    turns to best overlap `base`. Returns None when they stay disjoint."""
    a, b = base
    c, d = other
    if not _finite(a, b, c, d):
        raise InvalidInputError("interval endpoints must be finite")
    if d < c:
        raise InvalidInputError("interval endpoints out of order")
    k = round(((a + b) - (c + d)) / (2.0 * TWO_PI))
    best = None
    for kk in (k - 1, k, k + 1):
        lo = max(a, c + kk * TWO_PI)
        hi = min(b, d + kk * TWO_PI)
        if hi > lo and (best is None or hi - lo > best[1] - best[0]):
            best = (lo, hi)
    return best
