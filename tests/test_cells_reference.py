"""The linear passes of `cells` against test-only copies of the algorithms
they replaced.

* the apex walk (`geometry._apex_walk`): a containment test by the cross
  product of every edge with the apex, the centroid, the vertex angles
  and the edge lines, each in a pass of its own.
* `vertex_partition`: a key sort of the vertex angles, the nearest sorted
  ray for every vertex by a scan over all rays, and chain walks that list
  the chain vertices first and give each section its edge in a second pass.
* `breakpoints`: every ray and every ray - phi within 1e-12 rad of the
  domain, clamped one by one, sorted and deduplicated.
* `build_cells`: each cell's boundary sections by bisection at its
  midpoint, and its bound as the sum of the sections it touches; and the
  table of every cell's interval, sections, bound and empty flag that
  build_cells kept before it kept the bounds only.

Rays, edges, section areas, breakpoints and the apex decisions must match
exactly; bounds by bisection differ only by rounding.
"""

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from fovmax.cells import (
    _ANGLE_MERGE,
    angular_order,
    breakpoints,
    build_cells,
    vertex_partition,
)
from fovmax.geometry import (
    ORIENT_EPS,
    TWO_PI,
    ConvexPolygon,
    InvalidInputError,
    UnsupportedSceneError,
    _apex_walk,
    angular_span,
    normalize_angle,
)
from fovmax.wedge import _cut
from conftest import external_apex, random_convex_polygon


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_contains(poly, p):
    """ConvexPolygon.contains as it was: closed, by the sign of every
    edge's cross product with p against -ORIENT_EPS."""
    vs = poly.vertices
    n = len(vs)
    return not any(_cross(vs[i], vs[(i + 1) % n], p) < -ORIENT_EPS for i in range(n))


def reference_unwrapped_angles(poly, apex):
    """The apex checks, then every vertex angle unwrapped around the
    apex-to-centroid direction, each in a pass of its own."""
    ax, ay = apex[0], apex[1]
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise InvalidInputError("apex coordinates must be finite")
    if reference_contains(poly, apex):
        raise UnsupportedSceneError("apex inside or on polygon")
    cx, cy = poly.centroid()
    mu = math.atan2(cy - ay, cx - ax)
    return [
        mu + math.remainder(normalize_angle(math.atan2(y - ay, x - ax)) - mu, TWO_PI)
        for x, y in poly.vertices
    ]


def reference_edge_lines(poly, apex):
    """d**2 / 2 and psi of every edge line, in a pass of its own."""
    ax, ay = apex
    vs = poly.vertices
    cs, psis = [], []
    for (px, py), (qx, qy) in zip(vs, vs[1:] + vs[:1]):
        ex, ey = qx - px, qy - py
        d = (ey * (px - ax) - ex * (py - ay)) / math.hypot(ex, ey)
        psi = math.atan2(-ex, ey)
        if d < 0.0:
            d, psi = -d, psi + math.pi
        cs.append(0.5 * d * d)
        psis.append(psi)
    return tuple(cs), tuple(psis)


def _sorted_rays(poly, apex):
    angles = reference_unwrapped_angles(poly, apex)
    order = sorted(range(len(angles)), key=angles.__getitem__)

    def dist2(i):
        vx, vy = poly.vertices[i]
        return (vx - apex[0]) ** 2 + (vy - apex[1]) ** 2

    rays = []
    for i in order:
        if rays and angles[i] - rays[-1] <= _ANGLE_MERGE:
            continue
        rays.append(angles[i])
    ray_of = tuple(
        min(range(len(rays)), key=lambda k: abs(rays[k] - a)) for a in angles
    )
    return tuple(rays), ray_of, dist2


def _walk_chain(n, ray_of, start, last_ray, step):
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


def _per_section(chain, ray_of, m_rays, clockwise):
    edges = []
    pos = 0
    for j in range(m_rays - 1):
        while pos + 1 < len(chain) and ray_of[chain[pos + 1]] <= j:
            pos += 1
        a, b = chain[pos], chain[pos + 1]
        edges.append(b if clockwise else a)
    return tuple(edges)


def reference_partition(poly, apex):
    """(rays, ray_of, near, far, lines, areas, prefix) the old way."""
    rays, ray_of, dist2 = _sorted_rays(poly, apex)
    m = len(rays)
    if m < 2:
        raise InvalidInputError("polygon subtends a single ray from the apex")
    n = len(poly)
    first_group = [i for i in range(n) if ray_of[i] == 0]
    near_chain = _walk_chain(n, ray_of, min(first_group, key=dist2), m - 1, -1)
    far_chain = _walk_chain(n, ray_of, max(first_group, key=dist2), m - 1, +1)
    near = _per_section(near_chain, ray_of, m, clockwise=True)
    far = _per_section(far_chain, ray_of, m, clockwise=False)
    lines = reference_edge_lines(poly, apex)
    c, psi = lines
    areas = tuple(
        _cut(c[f], psi[f], a, b) - _cut(c[e], psi[e], a, b)
        for e, f, a, b in zip(near, far, rays, rays[1:])
    )
    return rays, ray_of, near, far, lines, areas, tuple(accumulate(areas, initial=0.0))


def _line_apex(poly, i, along, off):
    """Apex `along` edge lengths past edge i's end (before its start when
    along < 0) and `off` edge lengths off its line, on the polygon's side
    when off > 0."""
    (ax, ay), (bx, by) = poly.vertices[i], poly.vertices[(i + 1) % len(poly)]
    ex, ey = bx - ax, by - ay
    px, py = (bx, by) if along > 0 else (ax, ay)
    return (px + along * ex - off * ey, py + along * ey + off * ex)


def _near_ray_polygon(gap):
    """Apex beyond edge 0's end, off its line so that the edge's two
    vertex rays are about gap rad apart."""
    poly = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.5, 1.0), (0.2, 0.8)])
    return poly, (2.0, 2.0 * gap)


def _partition_scenes():
    rng = np.random.default_rng(4242)
    scenes = []
    for _ in range(60):
        poly = random_convex_polygon(rng, int(rng.integers(3, 41)), rx=float(rng.uniform(0.8, 2.5)))
        scenes.append((poly, external_apex(rng, poly)))
    for off in (1e-8, 1e-10, 1e-13, 1e-15, 0.0, -1e-15, -1e-13, -1e-10, -1e-8):
        for n in (3, 3, 5, 9):
            poly = random_convex_polygon(rng, n, rx=float(rng.uniform(0.8, 2.5)))
            along = float(rng.uniform(0.5, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            scenes.append((poly, _line_apex(poly, int(rng.integers(n)), along, off)))
    scenes += [_near_ray_polygon(gap) for gap in (4e-13, 1e-12, 1.3e-12, 3e-12, 1e-11, 1e-10, 1e-9)]
    # collinear vertices along an edge whose line passes through the apex
    square = ConvexPolygon([(1, 1), (1.5, 1), (2, 1), (2, 2), (1.5, 2), (1, 2)])
    scenes += [(square, (0.0, 1.0)), (square, (0.0, 2.0)), (square, (0.0, 0.0)), (square, (3.0, 1.0))]
    scenes.append((ConvexPolygon([(1, 0), (2, 0), (1, 1)]), (0.0, 0.0)))
    # vertex rays at 0, 0.9e-12 and 1.2e-12: the middle one merges into the
    # first ray but lies nearer the next; in bent the vertex on that next
    # ray follows it along the same chain, which raises
    sliver = ConvexPolygon([(0, 0), (1, 0), (2, 2.7e-12), (3, 1), (0, 1), (0, 1.2e-12)])
    bent = ConvexPolygon([(0, 0), (1, 0), (2, 2.7e-12), (3, 4.8e-12), (2, 1), (0, 1)])
    scenes += [(sliver, (-1.0, 0.0)), (bent, (-1.0, 0.0))]
    # every vertex ray within 1e-12 rad of one direction
    scenes.append((ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), (-1e13, 0.0)))
    scenes.append((ConvexPolygon([(-1, 1), (1, 1), (1, 3), (-1, 3)]), (0.0, 0.0)))
    return scenes


PARTITION_SCENES = _partition_scenes()


@pytest.mark.parametrize("k", range(len(PARTITION_SCENES)))
def test_vertex_partition_matches_sort_and_walk(k):
    poly, apex = PARTITION_SCENES[k]
    try:
        expected = reference_partition(poly, apex)
    except (InvalidInputError, UnsupportedSceneError) as exc:
        with pytest.raises(type(exc), match=str(exc)):
            vertex_partition(poly, apex)
        return
    rays, ray_of, near, far, lines, areas, prefix = expected
    part = vertex_partition(poly, apex)
    assert angular_order(poly, apex).ray_of == ray_of
    assert part.sorted_angles == rays
    assert (part.near_edges, part.far_edges) == (near, far)
    assert ((part.edge_c, part.edge_psi), part.section_areas, part.area_prefix) == (
        lines, areas, prefix
    )


def _outcome(partition, poly, apex):
    """What partition(poly, apex) gives, in comparable form: the rays as
    float.hex, ray ids, near and far edges and section areas as float.hex,
    or the type and message of what it raised."""
    try:
        rays, ray_of, near, far, areas = partition(poly, apex)
    except (InvalidInputError, UnsupportedSceneError) as exc:
        return type(exc).__name__, str(exc)
    return [r.hex() for r in rays], ray_of, near, far, [a.hex() for a in areas]


def _ours(poly, apex):
    part = vertex_partition(poly, apex)
    ray_of = angular_order(poly, apex).ray_of
    return part.sorted_angles, ray_of, part.near_edges, part.far_edges, part.section_areas


def _reference(poly, apex):
    rays, ray_of, near, far, _, areas, _ = reference_partition(poly, apex)
    return rays, ray_of, near, far, areas


def test_vertex_partition_matches_reference_on_near_line_scenes():
    """Apexes 1e-17 to 1e-7 edge lengths off the line of an edge or of a
    diagonal, on both sides, and quads whose edge-0 rays are 1e-13 to 1e-9
    rad apart: the scenes where rays merge and merged vertices move to the
    next ray."""
    rng = np.random.default_rng(9001)
    scenes = []
    for _ in range(2000):
        n = int(rng.integers(3, 13))
        poly = random_convex_polygon(rng, n, rx=float(rng.uniform(0.8, 2.5)))
        i = int(rng.integers(n))
        along = float(rng.uniform(0.5, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        off = 10.0 ** float(rng.uniform(-17.0, -7.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        if n > 3 and rng.random() < 0.5:
            # the line through vertices i and i + 2 cuts the polygon, so the
            # two rays that nearly meet are interior ones
            diagonal = ConvexPolygon([poly.vertices[i], poly.vertices[(i + 2) % n]], _validate=False)
            scenes.append((poly, _line_apex(diagonal, 0, along, off)))
        else:
            scenes.append((poly, _line_apex(poly, i, along, off)))
    scenes += [_near_ray_polygon(10.0 ** float(rng.uniform(-13.0, -9.0))) for _ in range(200)]
    merged = 0
    for poly, apex in scenes:
        expected = _outcome(_reference, poly, apex)
        assert _outcome(_ours, poly, apex) == expected, (poly.vertices, apex)
        merged += len(expected[0]) < len(poly)
    assert merged > 500


def test_vertex_partition_matches_reference_from_far_away():
    """Apexes 1e9 to 1e14 radii away, where some or all of the rays merge
    into one, and merged runs of several vertices form the first and the
    last ray.

    One difference is expected. The reference walks from the nearest and
    the farthest vertex on the first ray; within a merged run those need
    not end the run, and its walk then steps to another first-ray vertex
    and raises "collinear". vertex_partition ignores edges on the first or
    the last ray wherever they lie, so there it returns a partition on the
    same rays.
    """
    rng = np.random.default_rng(9002)
    outcomes = {"partition": 0, "raised": 0, "run": 0}
    for _ in range(3000):
        poly = random_convex_polygon(rng, int(rng.integers(3, 13)), rx=float(rng.uniform(0.8, 2.5)))
        far = 10.0 ** float(rng.uniform(9.0, 14.0))
        apex = external_apex(rng, poly, far, far)
        expected, got = _outcome(_reference, poly, apex), _outcome(_ours, poly, apex)
        if expected == ("UnsupportedSceneError", "polygon edge collinear with the apex") != got:
            rays, ray_of, _ = _sorted_rays(poly, apex)
            assert got[:2] == ([r.hex() for r in rays], ray_of)
            outcomes["run"] += 1
            continue
        assert got == expected, (poly.vertices, apex)
        outcomes["raised" if isinstance(expected[0], str) else "partition"] += 1
    assert min(outcomes.values()) > 0 and outcomes["run"] < 30, outcomes


def _walk_outcome(walk, poly, apex):
    """What walk(poly, apex) gives as float.hex lists, or the type and
    message of what it raised."""
    try:
        return [[v.hex() for v in seq] for seq in walk(poly, apex)]
    except (InvalidInputError, UnsupportedSceneError) as exc:
        return type(exc).__name__, str(exc)


def _reference_walk(poly, apex):
    return (reference_unwrapped_angles(poly, apex), *reference_edge_lines(poly, apex))


def _apex_scenes():
    """Apexes on an edge, on a vertex, 1e-13 and 1e-11 edge lengths to
    either side of an edge's line (within the tolerance and past it),
    beside the edge and beyond its ends; non-finite apexes; and apexes
    from which the polygon collapses to one ray."""
    rng = np.random.default_rng(31)
    square = ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)])
    scenes = [(square, (1.5, 1.0)), (square, (2.0, 2.0)), (square, (1.0, 1.5))]
    for apex in [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf), (math.nan, math.nan)]:
        scenes += [(square, apex)]
    scenes += [(square, (1.5, 1.0 + off)) for off in (1e-13, -1e-13, 1e-11, -1e-11)]
    scenes += [(square, (-1e13, 0.0)), (square, (0.0, 1e14)), (square, (-1e13, 1.5))]
    for _ in range(200):
        n = int(rng.integers(3, 13))
        poly = random_convex_polygon(rng, n, rx=float(rng.uniform(0.8, 2.5)))
        i = int(rng.integers(n))
        (ax, ay), (bx, by) = poly.vertices[i], poly.vertices[(i + 1) % n]
        t = float(rng.uniform(0.0, 1.0))
        px, py = ax + t * (bx - ax), ay + t * (by - ay)
        scenes.append((poly, (ax, ay)))
        for off in (0.0, 1e-13, -1e-13, 1e-11, -1e-11):
            # off edge lengths from a point of the edge, inward when off > 0,
            # and from points of its line before and beyond it
            scenes.append((poly, (px - off * (by - ay), py + off * (bx - ax))))
            scenes.append((poly, _line_apex(poly, i, float(rng.uniform(-0.5, 0.5)), off)))
            scenes.append((poly, _line_apex(poly, i, float(rng.uniform(0.5, 3.0)), off)))
        far = 10.0 ** float(rng.uniform(12.5, 14.0))
        scenes.append((poly, external_apex(rng, poly, far, far)))
    return scenes


def test_apex_walk_matches_separate_passes():
    """The one walk against the containment test, the angles and the edge
    lines in passes of their own: the same floats, or the same exception
    with the same message; angular_span is the angles' min and max, and
    vertex_partition raises what the old passes made it raise."""
    outcomes = {"InvalidInputError": 0, "UnsupportedSceneError": 0, "walked": 0}
    for poly, apex in _apex_scenes():
        expected = _walk_outcome(_reference_walk, poly, apex)
        assert _walk_outcome(_apex_walk, poly, apex) == expected, (poly.vertices, apex)
        assert _outcome(_ours, poly, apex) == _outcome(_reference, poly, apex)
        span = _walk_outcome(lambda p, a: [angular_span(p, a)], poly, apex)
        if isinstance(expected[0], str):
            outcomes[expected[0]] += 1
            assert span == expected
        else:
            outcomes["walked"] += 1
            assert span == [[min(expected[0], key=float.fromhex), max(expected[0], key=float.fromhex)]]
    assert min(outcomes.values()) >= 4, outcomes


def reference_breakpoints(sorted_angles, phi, domain=None):
    lo = sorted_angles[0] - phi
    hi = sorted_angles[-1]
    if domain is not None:
        lo = max(lo, float(domain[0]))
        hi = min(hi, float(domain[1]))
        if hi - lo <= _ANGLE_MERGE:
            return []

    def clamped(values):
        return [min(max(v, lo), hi) for v in values if lo - _ANGLE_MERGE < v < hi + _ANGLE_MERGE]

    cands = sorted([lo] + clamped(sorted_angles) + clamped([a - phi for a in sorted_angles]) + [hi])
    out = []
    for v in cands:
        if out and v - out[-1] <= _ANGLE_MERGE:
            continue
        out.append(v)
    return out


def _domains(rays, phi, rng):
    """Random windows, windows that start or end on a ray or a ray - phi,
    and windows within 1e-12 rad of one."""
    lo, hi = rays[0] - phi, rays[-1]
    yield None
    for _ in range(4):
        a = lo + float(rng.uniform(0.0, 0.7)) * (hi - lo)
        yield (a, a + float(rng.uniform(0.1, 0.5)) * (hi - lo))
    for k in (0, len(rays) // 2, len(rays) - 1):
        for edge in (rays[k], rays[k] - phi):
            for nudge in (0.0, 3e-13, -3e-13, 7e-13, -7e-13, 1e-12, -1e-12, 1.3e-12, -1.3e-12):
                yield (edge + nudge, hi)
                yield (lo, edge + nudge)


def test_breakpoints_match_clamp_sort_dedupe():
    rng = np.random.default_rng(17)
    checked = 0
    for poly, apex in PARTITION_SCENES:
        try:
            rays = vertex_partition(poly, apex).sorted_angles
        except (InvalidInputError, UnsupportedSceneError):
            continue
        for phi in (float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.3, 2.5)), rays[-1] - rays[0]):
            if not 0.0 < phi < math.pi:
                continue
            for domain in _domains(rays, phi, rng):
                assert breakpoints(rays, phi, domain) == reference_breakpoints(rays, phi, domain)
                checked += 1
    assert checked > 3000


def reference_cells(part, phi, bps):
    """(interval, right, left, empty, bound) per cell by bisection."""
    angles = part.sorted_angles
    top = len(angles) - 2
    low, high = angles[0] - _ANGLE_MERGE, angles[-1] + _ANGLE_MERGE

    def section(x):
        if not low <= x <= high:
            return None
        return min(max(bisect_right(angles, x) - 1, 0), top)

    out = []
    for lo, hi in zip(bps, bps[1:]):
        if not hi - lo > _ANGLE_MERGE:
            continue
        probe = 0.5 * (lo + hi)
        rs, ls = section(probe), section(probe + phi)
        contains = probe < angles[0] and probe + phi > angles[-1]
        empty = rs is None and ls is None and not contains
        first = 0 if rs is None else rs
        last = top if ls is None else ls
        bound = 0.0 if empty else math.fsum(part.section_areas[first:last + 1])
        out.append(((lo, hi), rs, ls, empty, bound))
    return out


def test_build_cells_match_bisection():
    rng = np.random.default_rng(23)
    checked = 0
    for poly, apex in PARTITION_SCENES:
        try:
            part = vertex_partition(poly, apex)
        except (InvalidInputError, UnsupportedSceneError):
            continue
        rays = part.sorted_angles
        for phi in (float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.3, 2.5))):
            lo, hi = rays[0] - phi, rays[-1]
            # the breakpoints, and a grid wider than the domain, whose cells
            # past it on either side would be empty: it raises, and its
            # points within the domain make a grid that does not
            wide = [float(v) for v in np.linspace(lo - 0.5, hi + 0.5, 41)]
            with pytest.raises(InvalidInputError, match="within"):
                build_cells(poly, apex, part, phi, wide)
            for bps in (breakpoints(rays, phi), [v for v in wide if lo <= v <= hi]):
                table = build_cells(poly, apex, part, phi, bps)
                expected = reference_cells(part, phi, bps)
                assert len(table) == len(expected)
                for cell, (interval, rs, ls, empty, bound) in zip(table, expected):
                    assert cell.interval == interval
                    assert (cell.right_section, cell.left_section, cell.empty) == (rs, ls, empty)
                    assert abs(cell.bound - bound) <= 1e-12 * poly.area
                    checked += 1
    assert checked > 5000


def reference_cell_table(part, phi, bps):
    """(lo, hi, right, left, bound, empty) per cell, as build_cells found
    them when its table kept every field: one pointer per boundary ray."""
    angles = part.sorted_angles
    m = len(angles)
    low, high = angles[0] - _ANGLE_MERGE, angles[-1] + _ANGLE_MERGE
    prefix = part.area_prefix
    section = [0, *range(m - 1), m - 2]
    rays = [*angles, math.inf]
    r = l = 0
    out = []
    for lo, hi in zip(bps, bps[1:]):
        if not hi - lo > _ANGLE_MERGE:
            continue
        probe = 0.5 * (lo + hi)
        left_probe = probe + phi
        while rays[r] <= probe:
            r += 1
        while rays[l] <= left_probe:
            l += 1
        rs, ls = section[r], section[l]
        b = prefix[ls + 1] - prefix[rs]
        e = False
        if probe < low:
            rs = None
            if left_probe > high:
                ls = None
            elif left_probe < low:
                ls, b, e = None, 0.0, True
        elif probe > high:
            rs, ls, b, e = None, None, 0.0, True
        elif left_probe > high:
            ls = None
        out.append((lo.hex(), hi.hex(), rs, ls, b.hex(), e))
    return out


def _fault(bps, phi, low, high):
    """What build_cells raises for bps, from its first faulty pair: a
    pair not more than 1e-12 rad apart, or one whose sector misses the
    span [low, high]; None when every pair is sound."""
    for a, b in zip(bps, bps[1:]):
        if not b - a > _ANGLE_MERGE:
            return "more than 1e-12 rad apart"
        probe = 0.5 * (a + b)
        if probe > high or probe + phi < low:
            return "within"
    return None


def _breakpoint_lists(rays, phi, rng):
    """Breakpoints with and without domains, the rays and rays - phi
    merged without deduplication, the breakpoints with extra points 3e-13
    to 1.3e-12 rad past some of them, a grid wider than the domain, and
    pairs centred on the rays and on the rays - phi."""
    yield breakpoints(rays, phi)
    for domain in _domains(rays, phi, rng):
        if domain is not None and float(rng.random()) < 0.2:
            yield breakpoints(rays, phi, domain)
    lo, hi = rays[0] - phi, rays[-1]
    yield sorted([lo, *rays, *[a - phi for a in rays], hi])
    bps = breakpoints(rays, phi)
    for gap in (3e-13, 1e-12, 1.3e-12):
        yield sorted(bps + [v + gap for v in bps[::2]])
    yield [float(v) for v in np.linspace(lo - 0.5, hi + 0.5, 41)]
    # pairs whose midpoint is a ray, or a ray - phi, as often as rounding
    # allows: a probe on a ray counts that ray
    for shift in (0.0, phi):
        yield sorted({v for a in rays for v in (a - shift - 2.0**-12, a - shift + 2.0**-12)})


def test_cell_table_matches_the_full_table():
    """Every cell's interval, sections, bound and empty flag as float.hex,
    against the table that kept them all, on plain and plateau-adjacent
    openings (the opening just below, at and just above the span); a
    list with a pair not more than 1e-12 rad wide, or with one outside
    [first ray - phi, last ray], raises instead."""
    rng = np.random.default_rng(29)
    checked = {"cells": 0, "narrow": 0, "outside": 0, "plateau": 0}
    for poly, apex in PARTITION_SCENES:
        try:
            part = vertex_partition(poly, apex)
        except (InvalidInputError, UnsupportedSceneError):
            continue
        rays = part.sorted_angles
        span = rays[-1] - rays[0]
        for phi in (float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.3, 2.5)),
                    span - 1e-9, span, span + 1e-9):
            if not 0.0 < phi < math.pi:
                continue
            for bps in _breakpoint_lists(rays, phi, rng):
                fault = _fault(bps, phi, rays[0] - _ANGLE_MERGE, rays[-1] + _ANGLE_MERGE)
                if fault is not None:
                    with pytest.raises(InvalidInputError, match=fault):
                        build_cells(poly, apex, part, phi, bps)
                    checked["narrow" if fault.startswith("more") else "outside"] += 1
                    continue
                table = build_cells(poly, apex, part, phi, bps)
                got = [
                    (c.interval[0].hex(), c.interval[1].hex(), c.right_section,
                     c.left_section, c.bound.hex(), c.empty)
                    for c in table
                ]
                expected = reference_cell_table(part, phi, bps)
                assert got == expected
                assert [c.bound.hex() for c in table[::-1]] == [e[4] for e in expected[::-1]]
                if expected:
                    assert table[-1].interval == table[len(table) - 1].interval
                checked["cells"] += len(expected)
                checked["plateau"] += sum(e[2] is None and e[3] is None and not e[5] for e in expected)
    assert min(checked.values()) > 100, checked
