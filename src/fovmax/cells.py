"""Vertex partitioning of a convex polygon as seen from an outside apex.

Rays from the apex through the polygon's vertices split the polygon's
angular span into sections. Inside one section every ray enters the
polygon through the same near edge and leaves through the same far edge,
so each section behaves like a fixed wedge. Rotating a sector of opening
phi, the combinatorial structure (which section holds each boundary ray,
which sections are fully covered) only changes when a boundary ray crosses
a vertex ray: the breakpoints are the vertex ray angles merged with the
same angles shifted by -phi. Between consecutive breakpoints the covered
middle area is constant and only the two boundary sections contribute
moving terms.

Every area comes from one closed form: an edge line at distance d from
the apex, whose perpendicular points at angle psi, cuts the area
d**2/2 * (tan(b - psi) - tan(a - psi)) between the rays at angles a < b.
A section, or the part of it a boundary ray cuts off, is its far line's
cut minus its near line's.

build_cells returns the cells as a CellTable: flat per-scene lists of
each cell's interval, boundary sections, area bound and empty flag.
Indexing it builds a RotationCell on demand, so the solver, which reads
the bounds first, builds objects only for the cells it visits.

All per-scene angles live on a continuous unwrapped axis anchored at the
apex-to-centroid direction, so polygons straddling the 0/2pi seam need no
special casing; results are mapped back to [0, 2pi) at the solver surface.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .geometry import (
    ConvexPolygon,
    InvalidInputError,
    Point,
    UnsupportedSceneError,
    vertex_angle,
    wrap_to_pi,
)
from .wedge import StaticWedge, wedge_from_lines

_ANGLE_MERGE = 1e-12


class AngularOrder(NamedTuple):
    sorted_angles: Tuple[float, ...]
    vertex_order: Tuple[int, ...]
    ray_of: Tuple[int, ...]


def _unwrapped_angles(poly: ConvexPolygon, apex: Point) -> List[float]:
    cx, cy = poly.centroid()
    mu = math.atan2(cy - apex[1], cx - apex[0])
    return [mu + wrap_to_pi(vertex_angle(apex, v) - mu) for v in poly.vertices]


def angular_order(poly: ConvexPolygon, apex: Point) -> AngularOrder:
    """Vertex rays sorted by angle, with collinear rays merged.

    Vertices whose rays coincide within 1e-12 rad share one entry; the
    vertex nearer to the apex represents the merged ray. ray_of gives
    every polygon vertex its ray (see _ray_ids). Raises when the apex is
    inside or on the polygon.
    """
    if poly.contains(apex):
        raise UnsupportedSceneError("apex inside or on polygon")
    angles = _unwrapped_angles(poly, apex)
    order = sorted(range(len(angles)), key=angles.__getitem__)

    def dist2(i: int) -> float:
        vx, vy = poly.vertices[i]
        return (vx - apex[0]) ** 2 + (vy - apex[1]) ** 2

    sorted_angles: List[float] = []
    reps: List[int] = []
    for i in order:
        if sorted_angles and angles[i] - sorted_angles[-1] <= _ANGLE_MERGE:
            if dist2(i) < dist2(reps[-1]):
                reps[-1] = i
            continue
        sorted_angles.append(angles[i])
        reps.append(i)
    return AngularOrder(tuple(sorted_angles), tuple(reps), _ray_ids(angles, sorted_angles))


def _ray_ids(angles: Sequence[float], sorted_angles: Sequence[float]) -> Tuple[int, ...]:
    """Index of the nearest sorted angle for every angle, by bisection.

    Ties go to the lower index. This is not the ray a vertex was merged
    into: a vertex up to 1e-12 rad past its group's first angle can lie
    nearer the next ray, and then belongs to that one.
    """
    m = len(sorted_angles)
    out = []
    for a in angles:
        k = bisect_left(sorted_angles, a)
        if k == m or (k > 0 and a - sorted_angles[k - 1] <= sorted_angles[k] - a):
            k -= 1
        if abs(sorted_angles[k] - a) > 1e-9:
            raise InvalidInputError("vertex ray does not match any sorted angle")
        out.append(k)
    return tuple(out)


def _walk_chain(
    poly: ConvexPolygon,
    ray_of: Sequence[int],
    start: int,
    last_ray: int,
    step: int,
) -> List[int]:
    """Follow polygon indices from start (step -1 = clockwise, +1 = ccw)
    until a vertex on the last ray is reached."""
    n = len(poly)
    chain = [start]
    cur = start
    for _ in range(n):
        if ray_of[cur] == last_ray:
            return chain
        nxt = (cur + step) % n
        if ray_of[nxt] == ray_of[cur]:
            raise UnsupportedSceneError("polygon edge collinear with the apex")
        chain.append(nxt)
        cur = nxt
    raise UnsupportedSceneError("boundary chain did not terminate")


def section_edges(
    poly: ConvexPolygon, apex: Point, order: AngularOrder
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Near and far polygon edge index for every section.

    The near chain (edges crossed first by rays from the apex) is the
    polygon boundary walked clockwise from the nearest vertex on the
    minimum ray; the far chain is walked counter-clockwise from the
    farthest vertex on that ray. An edge may serve several consecutive
    sections when no chain vertex falls on an interior ray.
    """
    m_rays = len(order.sorted_angles)
    if m_rays < 2:
        raise InvalidInputError("polygon subtends a single ray from the apex")
    ray_of = order.ray_of

    def dist2(i: int) -> float:
        vx, vy = poly.vertices[i]
        return (vx - apex[0]) ** 2 + (vy - apex[1]) ** 2

    first_group = [i for i in range(len(poly)) if ray_of[i] == 0]
    near_start = min(first_group, key=dist2)
    far_start = max(first_group, key=dist2)

    near_chain = _walk_chain(poly, ray_of, near_start, m_rays - 1, -1)
    far_chain = _walk_chain(poly, ray_of, far_start, m_rays - 1, +1)

    def per_section(chain: List[int], clockwise: bool) -> List[int]:
        edges = []
        pos = 0
        for j in range(m_rays - 1):
            while pos + 1 < len(chain) - 0 and ray_of[chain[pos + 1]] <= j:
                pos += 1
            a, b = chain[pos], chain[pos + 1]
            # polygon edge k runs from vertex k to vertex k+1
            edges.append(b if clockwise else a)
        return edges

    near_edges = per_section(near_chain, clockwise=True)
    far_edges = per_section(far_chain, clockwise=False)
    return tuple(near_edges), tuple(far_edges)


@dataclass(frozen=True)
class SectionPartition:
    """Angular sections of a polygon from an outside apex.

    edge_lines[k] is edge k's line as (d**2 / 2, psi) (see _edge_lines).
    area_prefix[j] is the sum of the first j section areas; it serves the
    cell bounds only, since its differences round differently from a
    left-to-right sum over the same sections.
    """

    sorted_angles: Tuple[float, ...]
    vertex_order: Tuple[int, ...]
    near_edges: Tuple[int, ...]
    far_edges: Tuple[int, ...]
    edge_lines: Tuple[Tuple[float, float], ...]
    section_areas: Tuple[float, ...]
    area_prefix: Tuple[float, ...]
    apex: Point

    @property
    def num_sections(self) -> int:
        return len(self.near_edges)

    def span(self) -> Tuple[float, float]:
        return self.sorted_angles[0], self.sorted_angles[-1]

    def cut(self, j: int, a: float, b: float) -> float:
        """Area of section j between the rays at angles a and b."""
        lines = self.edge_lines
        return _cut(lines[self.far_edges[j]], a, b) - _cut(lines[self.near_edges[j]], a, b)

    def cut_slopes(self, j: int, shift: float) -> List[Tuple[float, float]]:
        """(w, beta) for section j's far and near lines: the derivative of
        cut(j, a, theta + shift) in theta is sum(w / cos(theta + beta)**2)."""
        c_far, psi_far = self.edge_lines[self.far_edges[j]]
        c_near, psi_near = self.edge_lines[self.near_edges[j]]
        return [(c_far, shift - psi_far), (-c_near, shift - psi_near)]


def _edge_lines(poly: ConvexPolygon, apex: Point) -> Tuple[Tuple[float, float], ...]:
    """(d**2 / 2, psi) for every polygon edge's line: d is its distance
    from the apex and psi the direction of the perpendicular from the apex
    to it. Edge k runs from vertex k to vertex k+1."""
    ax, ay = apex
    vs = poly.vertices
    out = []
    for (px, py), (qx, qy) in zip(vs, vs[1:] + vs[:1]):
        ex, ey = qx - px, qy - py
        d = (ey * (px - ax) - ex * (py - ay)) / math.hypot(ex, ey)
        psi = math.atan2(-ex, ey)
        if d < 0.0:
            d, psi = -d, psi + math.pi
        out.append((0.5 * d * d, psi))
    return tuple(out)


def _cut(line: Tuple[float, float], a: float, b: float) -> float:
    """Area between the rays at angles a and b and a line (d**2 / 2, psi):
    d**2 / 2 * (tan(b - psi) - tan(a - psi)), written without the
    cancellation of the two tangents."""
    c, psi = line
    return c * math.sin(b - a) / (math.cos(a - psi) * math.cos(b - psi))


def vertex_partition(poly: ConvexPolygon, apex: Point) -> SectionPartition:
    """Full partition: sorted rays, per-section edges and section areas."""
    order = angular_order(poly, apex)
    near_edges, far_edges = section_edges(poly, apex, order)
    lines = _edge_lines(poly, apex)
    rays = order.sorted_angles
    areas = tuple(
        _cut(lines[far], a, b) - _cut(lines[near], a, b)
        for near, far, a, b in zip(near_edges, far_edges, rays, rays[1:])
    )
    return SectionPartition(
        sorted_angles=rays,
        vertex_order=order.vertex_order,
        near_edges=near_edges,
        far_edges=far_edges,
        edge_lines=lines,
        section_areas=areas,
        area_prefix=tuple(accumulate(areas, initial=0.0)),
        apex=(float(apex[0]), float(apex[1])),
    )


def breakpoints(
    sorted_angles: Sequence[float],
    phi: float,
    domain: Optional[Tuple[float, float]] = None,
) -> List[float]:
    """Sorted direction breakpoints: vertex rays merged with rays - phi.

    Clamped to the admissible direction domain, by default
    [first_ray - phi, last_ray] (every direction with a nonempty
    intersection). Domain endpoints are included so consecutive pairs tile
    the domain. Returns an empty list for an empty domain.
    """
    if not (0.0 < phi < math.pi):
        raise InvalidInputError("opening must lie in (0, pi)")
    lo = sorted_angles[0] - phi
    hi = sorted_angles[-1]
    if domain is not None:
        lo = max(lo, float(domain[0]))
        hi = min(hi, float(domain[1]))
        if hi - lo <= _ANGLE_MERGE:
            return []

    def clamped(values: Sequence[float]) -> List[float]:
        return [min(max(v, lo), hi) for v in values if lo - _ANGLE_MERGE < v < hi + _ANGLE_MERGE]

    # [lo] + rays and rays - phi + [hi] are two ascending runs; the sort
    # detects them and merges them in one linear pass
    cands = sorted([lo] + clamped(sorted_angles) + clamped([a - phi for a in sorted_angles]) + [hi])
    out: List[float] = []
    for v in cands:
        if out and v - out[-1] <= _ANGLE_MERGE:
            continue
        out.append(v)
    return out


def section_wedge(poly: ConvexPolygon, part: SectionPartition, j: int) -> StaticWedge:
    """StaticWedge backed by section j's near and far edge lines: the
    paper's A_theta(phi) for the section. The solve path does not use it."""
    return wedge_from_lines(
        part.apex,
        poly.edge_line(part.far_edges[j]),
        poly.edge_line(part.near_edges[j]),
    )


@dataclass(eq=False, slots=True)
class RotationCell:
    """One maximal direction interval with fixed combinatorial structure.

    right_section / left_section give the section holding the right/left
    boundary ray for interior directions (None when that ray is outside
    the polygon's angular span, so the boundary is not moving). Equal
    indices mean the whole intersection lives in one section. middle_area
    is the constant area of fully covered sections, summed on first use.
    bound is an upper bound on the cell's area: the intersection never
    leaves the sections the cell touches. The cell carries the scene's
    partition and the opening, so it can be solved standalone.
    """

    interval: Tuple[float, float]
    right_section: Optional[int]
    left_section: Optional[int]
    bound: float
    part: SectionPartition = field(repr=False)
    opening: float
    empty: bool = False
    _middle: Optional[float] = field(default=None, init=False, repr=False)

    @property
    def middle_area(self) -> float:
        if self._middle is None:
            r, l = self.right_section, self.left_section
            if self.empty or (r is not None and r == l):
                self._middle = 0.0
            else:
                # the sections strictly between the boundary rays
                start = 0 if r is None else r + 1
                stop = self.part.num_sections if l is None else l
                self._middle = sum(self.part.section_areas[start:stop])
        return self._middle

    @property
    def right_section_end(self) -> Optional[float]:
        r = self.right_section
        return None if r is None else self.part.sorted_angles[r + 1]

    @property
    def left_section_start(self) -> Optional[float]:
        l = self.left_section
        return None if l is None else self.part.sorted_angles[l]


def cell_descriptor(
    poly: ConvexPolygon,
    apex: Point,
    part: SectionPartition,
    phi: float,
    interval: Tuple[float, float],
) -> RotationCell:
    """Classify one breakpoint interval, wider than 1e-12 rad, as
    build_cells classifies it: by probing its midpoint.

    Inside a cell the structure is constant, so one interior probe settles
    which sections hold the boundary rays and which are fully covered; the
    covered ones contribute a constant middle area. The partition carries
    everything the cell needs from poly and apex.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi - lo > _ANGLE_MERGE:
        raise InvalidInputError("cell interval must be wider than 1e-12 rad")
    return build_cells(poly, apex, part, phi, (lo, hi))[0]


class CellTable(Sequence[RotationCell]):
    """The cells of one scene as flat per-scene lists, one entry per cell:
    interval, right and left section, bound and empty flag. Indexing and
    iteration build RotationCell objects on demand, so a solver that reads
    the bounds first builds objects only for the cells it visits."""

    def __init__(self, part: SectionPartition, opening: float) -> None:
        self.part = part
        self.opening = opening
        self.interval: List[Tuple[float, float]] = []
        self.right: List[Optional[int]] = []
        self.left: List[Optional[int]] = []
        self.bound: List[float] = []
        self.empty: List[bool] = []

    def __len__(self) -> int:
        return len(self.interval)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return RotationCell(
            self.interval[i],
            self.right[i],
            self.left[i],
            self.bound[i],
            self.part,
            self.opening,
            self.empty[i],
        )


def build_cells(
    poly: ConvexPolygon,
    apex: Point,
    part: SectionPartition,
    phi: float,
    bps: Sequence[float],
) -> CellTable:
    """Cells for every positive-width consecutive breakpoint pair.

    The probes rise from cell to cell, so one pointer per boundary ray
    walks the sorted rays once instead of bisecting for every cell.
    """
    angles = part.sorted_angles
    m = len(angles)
    first, last = angles[0], angles[-1]
    low, high = first - _ANGLE_MERGE, last + _ANGLE_MERGE
    top = m - 2  # the last section
    areas, prefix = part.section_areas, part.area_prefix
    r = l = 0  # rays at or below the right / left probe
    table = CellTable(part, phi)
    interval, right, left = table.interval, table.right, table.left
    bound, empty = table.bound, table.empty
    for i in range(len(bps) - 1):
        lo, hi = float(bps[i]), float(bps[i + 1])
        if not hi - lo > _ANGLE_MERGE:
            continue
        probe = 0.5 * (lo + hi)
        left_probe = probe + phi
        while r < m and angles[r] <= probe:
            r += 1
        while l < m and angles[l] <= left_probe:
            l += 1
        # the section whose closed range holds each ray, None outside the span
        rs = min(max(r - 1, 0), top) if low <= probe <= high else None
        ls = min(max(l - 1, 0), top) if low <= left_probe <= high else None
        # the middle from prefix sums plus the whole of each boundary section
        e = False
        if rs is None:
            if ls is not None:
                b = prefix[ls] + areas[ls]
            elif probe < first and left_probe > last:
                b = prefix[-1]
            else:
                b, e = 0.0, True
        elif ls is None:
            b = prefix[-1] - prefix[rs + 1] + areas[rs]
        elif rs == ls:
            b = areas[rs]
        else:
            b = prefix[ls] - prefix[rs + 1] + areas[rs] + areas[ls]
        interval.append((lo, hi))
        right.append(rs)
        left.append(ls)
        bound.append(b)
        empty.append(e)
    return table
