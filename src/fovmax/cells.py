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
moving terms. Breakpoints lie within [first ray - phi, last ray], more
than 1e-12 rad apart, and build_cells rejects a pair that does not.

The partition walks the polygon once from the apex (geometry._apex_walk):
one loop over the vertex coordinates gives every vertex's angle, every
edge's line and the containment test. It then sorts the vertex angles
once. Seen from an outside apex, a convex polygon's boundary is one run
of rising angles and one of falling angles (Preparata and Shamos,
Computational Geometry, 1985). In index order that is at most three
sorted runs, which the sort finds and merges in linear time. One pass
over the sorted angles merges collinear rays and gives every vertex its
ray. One pass over the polygon's edges then gives every section its near
and far edge: an edge whose rays rise is a far edge of the sections
between them, one whose rays fall a near edge. The breakpoints are one
sort of the rays and the rays shifted by -phi, two sorted runs that it
merges in linear time, then one pass over those that two bisections
keep inside the direction domain, which drops any within 1e-12 rad of
the last one kept. In build_cells two pointers over the rays give every
cell's bound; CellTable.locate bisects for its sections.

Every area comes from one closed form: an edge line at distance d from
the apex, whose perpendicular points at angle psi, cuts the area
d**2/2 * (tan(b - psi) - tan(a - psi)) between the rays at angles a < b.
A section, or the part of it a boundary ray cuts off, is its far line's
cut minus its near line's. Three places spell it, in the same
operations: wedge._cut for the wedge API, vertex_partition's loop for
the section areas, and _end_cuts for every cell value.

The per-scene tables are flat sequences of floats and ints, so a scene
of n vertices leaves a few dozen container objects, not one per edge or
per cell: the partition, a named tuple, keeps every edge line's d**2/2
and psi in two tuples, and build_cells returns the cells as a CellTable
that keeps one float per cell, its area bound, the one value the solver
reads for every cell. CellTable.visit is the one path from a row to a
cell. It reads the row (locate: the cell's interval and boundary
sections), takes the boundary cuts at both cell ends and a lower bound
on f'' from the edge tables (_end_cuts, its f'' terms _slope_terms'),
and adds the middle area (_end_values): every cell is one sum, the
middle plus the right cut plus the left, and cell_objective is that sum
on the one-point interval [theta, theta]. The larger end value plus a
curvature term bounds the cell's area. visit takes that bound with the
middle's O(1) ceiling from two prefix sums (SectionPartition.middle) in
place of the middle area, in one test: a cell it rules out never becomes
an object, and only a cell it returns has its middle summed section by
section. Indexing the table is visit with no floor, so a cell is the
same however it is reached.

All per-scene angles live on a continuous unwrapped axis anchored at the
apex-to-centroid direction, so polygons straddling the 0/2pi seam need no
special casing; results are mapped back to [0, 2pi) at the solver surface.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .geometry import (
    ConvexPolygon,
    InvalidInputError,
    Point,
    UnsupportedSceneError,
    _apex_walk,
    check_opening,
)
# not used here: perfbench/spans.py wraps this name in traced runs
from .wedge import wedge_from_lines  # noqa: F401

_ANGLE_MERGE = 1e-12
_BOUND_SLACK = 1e-9  # relative to the polygon area: rounding in a cell's area


class AngularOrder(NamedTuple):
    sorted_angles: Tuple[float, ...]
    ray_of: Tuple[int, ...]
    edge_c: Tuple[float, ...]
    edge_psi: Tuple[float, ...]


def angular_order(poly: ConvexPolygon, apex: Point) -> AngularOrder:
    """Vertex rays sorted by angle, with collinear rays merged, and every
    edge line's d**2 / 2 and psi, all from one _apex_walk.

    Vertices whose rays coincide within 1e-12 rad of a ray's first angle
    share one entry. ray_of gives every polygon vertex the nearest ray,
    ties to the lower one: a vertex merged up to 1e-12 rad past its ray's
    angle can lie nearer the next ray, and then belongs to that one.
    Raises as _apex_walk does for the apex.
    """
    angles, c, psi = _apex_walk(poly, apex)
    rays: List[float] = []
    merged: List[int] = []  # vertices merged into a ray they did not start
    ray_of = [0] * len(angles)
    g = -math.inf  # the last ray's angle
    for v in sorted(range(len(angles)), key=angles.__getitem__):
        a = angles[v]
        if a - g <= _ANGLE_MERGE:
            merged.append(v)
        else:
            g = a
            rays.append(a)
        ray_of[v] = len(rays) - 1
    for v in merged:
        k, a = ray_of[v], angles[v]
        if k + 1 < len(rays) and a - rays[k] > rays[k + 1] - a:
            ray_of[v] = k + 1
    return AngularOrder(tuple(rays), tuple(ray_of), tuple(c), tuple(psi))


def section_edges(order: AngularOrder) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Near and far polygon edge index for every section.

    Polygon edge k runs from vertex k to vertex k+1. Walked
    counter-clockwise, the boundary's rays rise along the far side (edges
    that rays from the apex leave through) and fall along the near side,
    so an edge whose rays rise from a to b is the far edge of sections
    a..b-1 and one whose rays fall from a to b the near edge of sections
    b..a-1. An edge may serve several consecutive sections when no vertex
    of its side falls on an interior ray. An edge on the first or the last
    ray bounds the span and serves no section; one on an interior ray is
    collinear with the apex, which raises. A convex boundary covers every
    section once from each side; covering more means it turns back, which
    raises first.
    """
    m = len(order.sorted_angles)
    if m < 2:
        raise InvalidInputError("polygon subtends a single ray from the apex")
    ray_of = order.ray_of
    near = [0] * (m - 1)
    far = [0] * (m - 1)
    covered = 0
    collinear = False
    for k, (a, b) in enumerate(zip(ray_of, ray_of[1:] + ray_of[:1])):
        if a < b:
            if b - a == 1:  # most edges serve one section: set an item, not a slice
                far[a] = k
            else:
                far[a:b] = [k] * (b - a)
            covered += b - a
        elif a > b:
            if a - b == 1:
                near[b] = k
            else:
                near[b:a] = [k] * (a - b)
            covered += a - b
        elif 0 < a < m - 1:
            collinear = True
    if covered != 2 * (m - 1):
        raise InvalidInputError("polygon not convex")
    if collinear:
        raise UnsupportedSceneError("polygon edge collinear with the apex")
    return tuple(near), tuple(far)


class SectionPartition(NamedTuple):
    """Angular sections of a polygon from an outside apex.

    Edge k's line has c = edge_c[k] = d**2 / 2 and perpendicular direction
    psi = edge_psi[k] (see _apex_walk), kept as two flat float tuples.
    area_prefix[j] is the sum of the first j section areas; it serves the
    cell bounds only, since its differences round differently from a
    left-to-right sum over the same sections. abs_area_sum is the sum of
    the areas' magnitudes, the scale of the rounding in either sum.
    """

    sorted_angles: Tuple[float, ...]
    near_edges: Tuple[int, ...]
    far_edges: Tuple[int, ...]
    edge_c: Tuple[float, ...]
    edge_psi: Tuple[float, ...]
    section_areas: Tuple[float, ...]
    area_prefix: Tuple[float, ...]
    abs_area_sum: float
    apex: Point

    @property
    def num_sections(self) -> int:
        return len(self.near_edges)

    def span(self) -> Tuple[float, float]:
        return self.sorted_angles[0], self.sorted_angles[-1]

    @property
    def margin(self) -> float:
        """The rounding any sum of the section areas may carry (see middle):
        the middle ceiling's margin, and solve_scene's tie tolerance."""
        return 4.0 * (len(self.near_edges) + 1) * self.abs_area_sum * 2.0**-52

    def middle(self, right: Optional[int], left: Optional[int]) -> Tuple[int, int, float]:
        """(start, stop, ceiling) for a cell's middle, the sections start to
        stop - 1 strictly between its boundary rays (see RotationCell); a
        single-section cell's is the empty range just past its section.

        ceiling bounds their left-to-right sum (middle_sum) from above in
        O(1), by two prefix sums plus the margin; CellTable.visit rules a
        cell out with it. With u = 2**-53, n sections and A the sum of the
        areas' magnitudes, a left-to-right sum of up to n of the areas
        (middle_sum, or any area_prefix entry) is within gamma_n * A of its
        exact value, where gamma_n = n u / (1 - n u) <= 1.02 n u; the
        prefix difference adds at most u (1 + 2 gamma_n) A. So the
        difference and the sum lie within 4 (n + 1) u A of each other, and
        the margin, 8 (n + 1) u A, also covers the rounding of A and of the
        final addition. A non-finite area makes the ceiling inf or nan,
        which rules nothing out.
        """
        start = 0 if right is None else right + 1
        stop = len(self.near_edges) if left is None else left
        if stop < start:  # max(left, start), spelled out
            stop = start
        return start, stop, (self.area_prefix[stop] - self.area_prefix[start]) + self.margin

    def middle_sum(self, start: int, stop: int) -> float:
        """Sections start to stop - 1 summed left to right, which sum() is not from 3.12 on."""
        total = 0.0
        for a in self.section_areas[start:stop]:
            total += a
        return total


def vertex_partition(poly: ConvexPolygon, apex: Point) -> SectionPartition:
    """Full partition: sorted rays, per-section edges and section areas."""
    order = angular_order(poly, apex)
    near_edges, far_edges = section_edges(order)
    c, psi = order.edge_c, order.edge_psi
    rays = order.sorted_angles
    sin, cos = math.sin, math.cos
    areas = []
    for near, far, a, b in zip(near_edges, far_edges, rays, rays[1:]):
        # _cut of the far line minus _cut of the near line
        cf, pf = c[far], psi[far]
        cn, pn = c[near], psi[near]
        s = sin(b - a)
        areas.append(cf * s / (cos(a - pf) * cos(b - pf)) - cn * s / (cos(a - pn) * cos(b - pn)))
    return SectionPartition(
        sorted_angles=rays,
        near_edges=near_edges,
        far_edges=far_edges,
        edge_c=c,
        edge_psi=psi,
        section_areas=tuple(areas),
        area_prefix=tuple(accumulate(areas, initial=0.0)),
        # a scale only: the ceiling's margin in middle() covers how it rounds
        abs_area_sum=sum(map(abs, areas)),
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
    check_opening(phi)
    lo = sorted_angles[0] - phi
    hi = sorted_angles[-1]
    if domain is not None:
        lo = max(lo, float(domain[0]))
        hi = min(hi, float(domain[1]))
        if hi - lo <= _ANGLE_MERGE:
            return []

    # the rays and rays - phi are two ascending runs, which the sort finds
    # and merges in linear time; lo opens the list and hi closes it unless
    # the last value kept is within 1e-12 rad, so only values in (lo, hi]
    # count: two bisections trim the rest in place (faster than a slice)
    values = sorted([*sorted_angles, *[a - phi for a in sorted_angles]])
    del values[bisect_right(values, hi):]
    del values[:bisect_right(values, lo)]
    out = [lo]
    last = lo
    for v in values:
        if v - last > _ANGLE_MERGE:
            out.append(v)
            last = v
    if hi - out[-1] > _ANGLE_MERGE:
        out.append(hi)
    return out


def cell_objective(cell: RotationCell, theta: float) -> float:
    """Objective inside a cell: its value on the one-point interval
    [theta, theta], so a direction inside the cell and the cell's ends
    take one path (_end_cuts, _end_values)."""
    cuts = _end_cuts(cell.part, cell.opening, theta, theta, cell.right_section, cell.left_section)
    return _end_values(cuts, cell.middle_area, 0.0)[0]


def _slope_terms(cell: RotationCell) -> List[Tuple[float, float]]:
    """(w, beta) pairs with f'(theta) = sum of w / cos(theta + beta)**2,
    one far/near pair per moving boundary ray; solver.maximize_cell builds
    them for the cells it solves.

    A section's far line gives w = c and its near line w = -c, with
    beta = shift - psi for the ray at theta + shift. The left ray at
    theta + phi ends its section's cut; the right ray at theta starts its
    section's cut, so its terms enter negated. A single-section cell has
    both rays in one section and so all four terms.
    """
    part = cell.part
    c, psi = part.edge_c, part.edge_psi
    r, l = cell.right_section, cell.left_section
    terms = []
    if r is not None:
        f, n = part.far_edges[r], part.near_edges[r]
        terms += [(-c[f], 0.0 - psi[f]), (c[n], 0.0 - psi[n])]
    if l is not None:
        f, n, phi = part.far_edges[l], part.near_edges[l], cell.opening
        terms += [(c[f], phi - psi[f]), (-c[n], phi - psi[n])]
    return terms


def _end_cuts(
    part: SectionPartition, phi: float, lo: float, hi: float, right: Optional[int],
    left: Optional[int]
) -> Tuple[float, ...]:
    """(right cut at lo, right cut at hi, left cut at lo, left cut at hi, m)
    for the cell [lo, hi] with the given boundary sections: each cut is
    the boundary section's part from the ray to the section's fixed end
    ray, 0.0 for a ray that does not move, and m is the sum of
    _slope_terms at their ends, in their order (see _end_values). A
    single-section cell's right cuts run from ray to ray, its whole area,
    and its left ones are 0.0. Every cell value comes from here: the
    ends for CellTable.visit, and a direction inside the cell for
    cell_objective, with lo == hi. Straight from the flat edge tables,
    with every operation in the order wedge._cut and _slope_terms use, so
    the values are theirs bit for bit; a cut from a section's fixed end
    ray shares that ray's cosine.
    """
    c, psi, rays = part.edge_c, part.edge_psi, part.sorted_angles
    sin, cos, tan = math.sin, math.cos, math.tan
    m = 0.0
    r_lo = r_hi = l_lo = l_hi = 0.0
    # each (w, beta) of _slope_terms adds its f'' term 2 w tan(x) / cos(x)**2,
    # x = theta + beta, at the end theta where that term is smallest
    if right is not None:
        f, n = part.far_edges[right], part.near_edges[right]
        cf, pf, cn, pn = c[f], psi[f], c[n], psi[n]
        x = (lo if -cf > 0.0 else hi) + (0.0 - pf)
        m += 2.0 * -cf * tan(x) / cos(x) ** 2
        x = (lo if cn > 0.0 else hi) + (0.0 - pn)
        m += 2.0 * cn * tan(x) / cos(x) ** 2
        if right == left:
            b = lo + phi
            s = sin(b - lo)
            r_lo = cf * s / (cos(lo - pf) * cos(b - pf)) - cn * s / (cos(lo - pn) * cos(b - pn))
            b = hi + phi
            s = sin(b - hi)
            r_hi = cf * s / (cos(hi - pf) * cos(b - pf)) - cn * s / (cos(hi - pn) * cos(b - pn))
        else:
            e = rays[right + 1]
            ef, en = cos(e - pf), cos(e - pn)
            s = sin(e - lo)
            r_lo = cf * s / (cos(lo - pf) * ef) - cn * s / (cos(lo - pn) * en)
            s = sin(e - hi)
            r_hi = cf * s / (cos(hi - pf) * ef) - cn * s / (cos(hi - pn) * en)
    if left is not None:
        f, n = part.far_edges[left], part.near_edges[left]
        cf, pf, cn, pn = c[f], psi[f], c[n], psi[n]
        x = (lo if cf > 0.0 else hi) + (phi - pf)
        m += 2.0 * cf * tan(x) / cos(x) ** 2
        x = (lo if -cn > 0.0 else hi) + (phi - pn)
        m += 2.0 * -cn * tan(x) / cos(x) ** 2
        if right != left:
            a = rays[left]
            af, an = cos(a - pf), cos(a - pn)
            b = lo + phi
            s = sin(b - a)
            l_lo = cf * s / (af * cos(b - pf)) - cn * s / (an * cos(b - pn))
            b = hi + phi
            s = sin(b - a)
            l_hi = cf * s / (af * cos(b - pf)) - cn * s / (an * cos(b - pn))
    return r_lo, r_hi, l_lo, l_hi, m


def _end_values(cuts: tuple, middle: float, width: float) -> Tuple[float, float, float]:
    """(f(lo), f(hi), an upper bound on f over the cell) from its _end_cuts,
    middle area and width, each end value summed as the middle plus the
    right cut plus the left; all three never fall when the middle rises.

    f''(theta) = sum_k 2 w_k tan(x) / cos(x)**2 with x = theta + beta_k.
    cos(x) keeps its sign across a cell, since every line is cut at a
    finite distance there, and tan(x) / cos(x)**2 increases with x on such
    a branch (its derivative is (1 + 3 tan(x)**2) / cos(x)**2). So m, the
    sum with each term taken at lo when w_k > 0 and at hi otherwise, is a
    lower bound on f''. Then f - m/2 (theta - lo)(theta - hi) is convex,
    so f never exceeds the larger end value plus max(-m, 0) * width**2 / 8
    (Breiman and Cutler, A deterministic algorithm for global
    optimization, 1993). The bound is inf when m is not finite. The upper
    bound on f'' in its place, with the chord, would not bound f.
    """
    r_lo, r_hi, l_lo, l_hi, m = cuts
    f_lo = middle + r_lo + l_lo
    f_hi = middle + r_hi + l_hi
    if not math.isfinite(m):
        return f_lo, f_hi, math.inf
    # max(f_lo, f_hi) + max(-m, 0.0) * width**2 / 8, each max() spelled out
    return f_lo, f_hi, (f_hi if f_hi > f_lo else f_lo) + (0.0 if 0.0 > -m else -m) * width**2 / 8.0


@dataclass(eq=False, slots=True)
class RotationCell:
    """One maximal direction interval with fixed combinatorial structure.

    right_section / left_section give the section holding the right/left
    boundary ray for interior directions (None when that ray is outside
    the polygon's angular span, so the boundary is not moving). Equal
    indices mean the whole intersection lives in one section. The area is
    one sum (cell_objective): middle_area, the constant area of fully
    covered sections (SectionPartition.middle; 0.0 for a single-section
    cell), plus the right ray's cut plus the left ray's. ends is that sum
    at the cell's two ends (_end_values). bound is an upper bound
    on the cell's area: the intersection never leaves the sections the
    cell touches. The cell carries the scene's partition and the opening,
    so it can be solved standalone. build_cells builds no empty cell, so
    empty is a class attribute, always False, kept for callers that filter
    on it (tests/test_acceptance.py criterion 6).
    """

    interval: Tuple[float, float]
    right_section: Optional[int]
    left_section: Optional[int]
    bound: float
    part: SectionPartition = field(repr=False)
    opening: float
    middle_area: float
    ends: Tuple[float, float]
    empty = False  # not a field: no cell is empty


class CellTable(Sequence[RotationCell]):
    """The cells of one scene, one per breakpoint pair, in order: cell i
    spans bps[i] to bps[i + 1]. bound[i] is cell i's area bound, the one
    value the solver reads for every cell, and slack (_BOUND_SLACK times
    the polygon area) the rounding any bound may hide. locate(i) gives
    cell i's row as plain values, visit(i, floor) its RotationCell, and
    indexing and iteration are visit with no floor."""

    def __init__(self, part: SectionPartition, opening: float, bps: Sequence[float], slack: float):
        self.part = part
        self.opening = opening
        self.bps = bps
        self.slack = slack
        self.bound: List[float] = []
        angles = part.sorted_angles
        # rays within 1e-12 rad outside the span still count as in it
        self._low, self._high = angles[0] - _ANGLE_MERGE, angles[-1] + _ANGLE_MERGE

    def __len__(self) -> int:
        return len(self.bound)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        n = len(self.bound)
        # locate(-1) would read bps[-1] and bps[0], a pair that is no cell
        if not -n <= i < n:
            raise IndexError("cell index out of range")
        return self.visit(i + n if i < 0 else i, -math.inf)

    def visit(self, i: int, floor: float) -> Optional[RotationCell]:
        """Cell i, for 0 <= i < len(self), as a RotationCell, or None when
        its second bound (_end_values) plus slack falls below floor. The
        bound takes the middle's O(1) ceiling (SectionPartition.middle),
        which is at least the exact sum, so a cell that could reach floor
        is never ruled out; the exact sum is added up only for a cell that
        is returned."""
        part, phi, slack = self.part, self.opening, self.slack
        lo, hi, r, l = self.locate(i)
        cuts = _end_cuts(part, phi, lo, hi, r, l)
        start, stop, ceiling = part.middle(r, l)
        if _end_values(cuts, ceiling, hi - lo)[2] + slack < floor:
            return None
        middle = part.middle_sum(start, stop)
        f_lo, f_hi, _ = _end_values(cuts, middle, hi - lo)
        return RotationCell((lo, hi), r, l, self.bound[i], part, phi, middle, (f_lo, f_hi))

    def locate(self, i: int) -> Tuple[float, float, Optional[int], Optional[int]]:
        """(lo, hi, right_section, left_section) of cell i, for
        0 <= i < len(self): its interval is its breakpoint pair, and its
        boundary sections are found by bisection at the interval's midpoint,
        which counts the rays at or below it as build_cells' walk does."""
        lo, hi = self.bps[i], self.bps[i + 1]
        angles = self.part.sorted_angles
        low, high, last = self._low, self._high, len(angles) - 1
        probe = 0.5 * (lo + hi)
        left_probe = probe + self.opening
        # the section whose closed range holds the ray: one less than the
        # rays at or below it, counted from 1 to last, which clamps to the
        # first and the last section; None for a ray outside the span
        rs = ls = None
        if low <= probe <= high:
            rs = bisect_right(angles, probe, 1, last) - 1
        if low <= left_probe <= high:
            ls = bisect_right(angles, left_probe, 1, last) - 1
        return lo, hi, rs, ls


def build_cells(
    poly: ConvexPolygon,
    apex: Point,
    part: SectionPartition,
    phi: float,
    bps: Sequence[float],
) -> CellTable:
    """One cell per breakpoint pair. A pair not over 1e-12 rad wide raises,
    and so does one centred over 1e-12 rad outside [first ray - phi, last ray].

    Each cell's bound is the whole of every section it touches, from the
    section holding its right boundary ray to the one holding its left (a
    ray outside the span counts as the first or the last section). The
    probes rise from cell to cell, so one pointer per boundary ray walks
    the sorted rays once instead of bisecting for every cell.
    """
    angles = part.sorted_angles
    m = len(angles)
    table = CellTable(part, phi, bps, _BOUND_SLACK * poly.area)
    low, high = table._low, table._high
    prefix = part.area_prefix
    # with r sorted rays at or below a probe, the probe's section is
    # min(max(r - 1, 0), m - 2); first[r] and end[r] are the prefix sums up
    # to that section and past it
    first = [prefix[0], *prefix[: m - 1], prefix[m - 2]]
    end = [prefix[1], *prefix[1:m], prefix[m - 1]]
    rays = [*angles, math.inf]
    r = l = 0  # rays at or below the right / left probe
    bound = table.bound
    for lo, hi in zip(bps, bps[1:]):
        if not hi - lo > _ANGLE_MERGE:
            raise InvalidInputError("breakpoints must be more than 1e-12 rad apart")
        probe = 0.5 * (lo + hi)
        left_probe = probe + phi
        if probe > high or left_probe < low:
            raise InvalidInputError("breakpoints must lie within [first ray - phi, last ray]")
        while rays[r] <= probe:
            r += 1
        while rays[l] <= left_probe:
            l += 1
        bound.append(end[l] - first[r])
    return table
