"""Per-cell and global maximization of the sector-rotation objective.

Within one rotation cell the objective is

    f(theta) = middle_area + right_term(theta) + left_term(theta)

where each moving term is a boundary section's far-line cut minus its
near-line cut, d**2/2 * (tan(b - psi) - tan(a - psi)) between the section
ray and the sector's boundary ray (see cells). Its derivative is
f'(theta) = sum_k w_k / cos(theta + beta_k)**2 with at most four terms,
and f'' is the sum of the terms 2 w_k tan(x) / cos(x)**2, x = theta +
beta_k, each rising across the cell. Taking each at the end where it is
largest bounds f'' from above; where that bound is below 0 (nine in ten
solved cells on the small benchmark scenes) the cell is concave, so f'
falls across it and its signs at the two ends settle the cell: one
bracketed Newton run on [lo, hi] when f' changes sign, none otherwise.
On every other cell the sign of f' is that of a polynomial of degree at
most 6 in tan(theta - mid), so the cell has at most 6 critical points.
They are isolated exactly by recursing on the polynomial's derivatives
and polished by the same Newton iteration on the true f' to the
requested number of digits, or to float resolution when that comes
first; there is no chunking and no clipping fallback. Before isolating,
a root-free test rules out most polynomials, and at each level of the
recursion most derivatives: when the constant coefficient outweighs the
others on the cell's range, every value the isolation would compute has
its sign, so the exit gives what isolation would.
Cells are visited best first by an upper bound on their area from
prefix sums of the section areas, and the search stops once no
remaining cell can come within the tie tolerance (10**-digits times the
polygon area) of the best area found. Each visited cell goes through
CellTable.visit, which rules it out on a second bound (see cells) or
returns it for maximize_cell. The global maximum is the best cell
result; ties within the tolerance resolve to the smallest direction.
The results are named tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from .geometry import (
    ConvexPolygon,
    InvalidInputError,
    Point,
    Sector,
    check_opening,
    normalize_angle,
    overlap_interval,
    sector_clip,
)
from .cells import RotationCell, SectionPartition, _slope_terms, breakpoints, build_cells
from .cells import cell_objective, vertex_partition
# not used here: perfbench/spans.py wraps these names in traced runs
from .wedge import opening_extrema, rotation_pieces  # noqa: F401

_MIN_WIDTH = 1e-12
_MAX_ITER = 200  # a backstop for _bracketed_newton


@dataclass(frozen=True)
class Precision:
    """Requested direction accuracy: |returned - optimal| < 10**-digits."""

    digits: float

    def __post_init__(self):
        if not (1.0 < self.digits < math.inf):
            raise InvalidInputError("precision digits must be finite and exceed 1")

    @property
    def xtol(self) -> float:
        return 10.0 ** (-self.digits)


def _as_precision(prec) -> Precision:
    if isinstance(prec, Precision):
        return prec
    return Precision(float(prec))


class SolveResult(NamedTuple):
    theta_star: float
    area: float
    cell_index: int
    candidates_evaluated: int
    achieved_bracket: float


def _bracketed_newton(
    g: Callable[[float], float],
    gprime: Optional[Callable[[float], float]],
    lo: float,
    hi: float,
    xtol: float,
    glo: Optional[float] = None,
    ghi: Optional[float] = None,
) -> Optional[Tuple[float, float, int]]:
    """Root of g in [lo, hi] by Newton steps safeguarded with bisection.

    Requires a sign change; returns (root, final bracket width, iterations)
    or None without one; a root where g is exactly 0 has width 0. A Newton
    point is taken when it lies inside the bracket, is at most half the
    previous step (a bisection counts as a step of the bracket's old
    width) and shrinks |g| or changes its sign; anything else bisects. The
    step rule keeps slowly converging Newton sequences (multiple roots)
    from starving the bracket; the cap is just a backstop. The run also
    stops when no float lies strictly inside the bracket, since no point
    can then shrink it, so a tolerance below the float spacing of the root
    returns what the cap would return, at float resolution. Newton tends to
    close in on a root from one side and leave the far end of the bracket
    for bisection to walk down to xtol, so a Newton point within xtol / 2
    of an end, or past it by less than the bracket's width, moves to
    xtol / 2 inside the bracket: when the root lies within xtol / 2 of that
    end, one evaluation closes the bracket.
    """
    if glo is None:
        glo = g(lo)
    if ghi is None:
        ghi = g(hi)
    if glo == 0.0:
        return lo, 0.0, 0
    if ghi == 0.0:
        return hi, 0.0, 0
    if (glo > 0.0) == (ghi > 0.0):
        return None

    h = 0.5 * xtol
    x = 0.5 * (lo + hi)
    gx = g(x)
    last_step = hi - lo
    for it in range(_MAX_ITER):
        if gx == 0.0:
            return x, 0.0, it
        if (gx > 0.0) == (glo > 0.0):
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
        mid, width = 0.5 * (lo + hi), hi - lo
        # a midpoint that rounds to an end leaves no float inside the bracket
        if width < xtol or not lo < mid < hi:
            return mid, width, it
        nxt = None
        if gprime is not None:
            d = gprime(x)
            if d != 0.0 and math.isfinite(d):
                cand = x - gx / d
                if lo - width < cand < hi + width:
                    # min(max(cand, lo + h), hi - h), spelled out
                    if cand < lo + h:
                        cand = lo + h
                    if cand > hi - h:
                        cand = hi - h
                step = abs(cand - x)
                if lo < cand < hi and 2.0 * step <= last_step:
                    gc = g(cand)
                    if abs(gc) < abs(gx) or (gc > 0.0) != (gx > 0.0):
                        nxt = (cand, gc, step)
        if nxt is None:
            nxt = (mid, g(mid), width)
        x, gx, last_step = nxt
    return 0.5 * (lo + hi), hi - lo, _MAX_ITER


def safeguarded_root(
    g: Callable[[float], float],
    gprime: Optional[Callable[[float], float]],
    bracket: Tuple[float, float],
    prec=8.0,
) -> Optional[float]:
    """Root of g inside the bracket, accurate to 10**-digits.

    Returns None when g has the same sign at both ends. Raises on an empty
    or inverted bracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InvalidInputError("invalid bracket: lo must be smaller than hi")
    res = _bracketed_newton(g, gprime, lo, hi, _as_precision(prec).xtol)
    return None if res is None else res[0]


def objective_by_clipping(poly: ConvexPolygon, apex: Point, theta: float, phi: float) -> float:
    """Reference objective by sector clipping."""
    clipped = sector_clip(poly, Sector(apex, theta, phi))
    return 0.0 if clipped is None else clipped.area


def _horner(p: List[float], x: float) -> float:
    v = 0.0
    for c in reversed(p):
        v = v * x + c
    return v


def _root_free(p: List[float], bound: float) -> bool:
    """True when every Horner value of p at |t| <= bound has p[0]'s sign.

    The test is |p[0]| > (1 + 1e-9) * S, where S is the sum over k >= 1 of
    |p[k]| bound**k plus 1e-300 times the sum over k < deg p of bound**k.
    In floating point, Horner's value at t is the sum of p[k] t**k
    (1 + e_k) with |e_k| <= 13 * 2**-53 up to degree 6, plus at most
    2**-1075 times the sum over k < deg p of |t|**k from products that
    underflow. The 1e-9 margin covers the first error and the rounding of
    S, the 1e-300 terms the second, so the value has p[0]'s sign. A NaN,
    an infinite p[k] past p[0] or an all-zero p fails the test; an
    infinite p[0] passes, and every Horner value is then that infinity.
    With no sign change at any node, skipping root isolation for p gives
    what isolation would.
    """
    s = 0.0
    for c in p[:0:-1]:
        s = (s + abs(c)) * bound + 1e-300
    return abs(p[0]) > (1.0 + 1e-9) * s


def _slope_polynomial(terms: List[Tuple[float, float]], mid: float) -> List[float]:
    """Coefficients, constant first, of a polynomial in t = tan(theta - mid)
    with the sign of f'(theta) wherever |theta - mid| < pi/2.

    cos(theta + beta) = cos(theta - mid) * (cos(a) - t sin(a)) with
    a = mid + beta, so f' times cos(theta - mid)**2 times every
    q_k = (cos(a_k) - t sin(a_k))**2, all positive inside a cell, is
    sum_k w_k prod_{j != k} q_j. Per far/near pair that is A = w_0 q_1 +
    w_1 q_0 over Q = q_0 q_1, and two pairs give A_0 Q_1 + A_1 Q_0. Each
    product coefficient is summed from 0.0 in ascending powers of its
    first factor.
    """
    cos, sin = math.cos, math.sin
    (w0, b0), (w1, b1) = terms[0], terms[1]
    a, b = mid + b0, mid + b1
    x0, x1, x2 = cos(a) ** 2, -sin(2.0 * a), sin(a) ** 2
    y0, y1, y2 = cos(b) ** 2, -sin(2.0 * b), sin(b) ** 2
    p0, p1, p2 = w0 * y0 + w1 * x0, w0 * y1 + w1 * x1, w0 * y2 + w1 * x2
    if len(terms) == 2:
        return [p0, p1, p2]
    (w2, b2), (w3, b3) = terms[2], terms[3]
    a, b = mid + b2, mid + b3
    u0, u1, u2 = cos(a) ** 2, -sin(2.0 * a), sin(a) ** 2
    v0, v1, v2 = cos(b) ** 2, -sin(2.0 * b), sin(b) ** 2
    r0, r1, r2 = w2 * v0 + w3 * u0, w2 * v1 + w3 * u1, w2 * v2 + w3 * u2
    # Q_0 = q_0 q_1 and Q_1 = q_2 q_3
    s0 = 0.0 + x0 * y0
    s1 = 0.0 + x0 * y1 + x1 * y0
    s2 = 0.0 + x0 * y2 + x1 * y1 + x2 * y0
    s3 = 0.0 + x1 * y2 + x2 * y1
    s4 = 0.0 + x2 * y2
    t0 = 0.0 + u0 * v0
    t1 = 0.0 + u0 * v1 + u1 * v0
    t2 = 0.0 + u0 * v2 + u1 * v1 + u2 * v0
    t3 = 0.0 + u1 * v2 + u2 * v1
    t4 = 0.0 + u2 * v2
    return [
        (0.0 + p0 * t0) + (0.0 + r0 * s0),
        (0.0 + p0 * t1 + p1 * t0) + (0.0 + r0 * s1 + r1 * s0),
        (0.0 + p0 * t2 + p1 * t1 + p2 * t0) + (0.0 + r0 * s2 + r1 * s1 + r2 * s0),
        (0.0 + p0 * t3 + p1 * t2 + p2 * t1) + (0.0 + r0 * s3 + r1 * s2 + r2 * s1),
        (0.0 + p0 * t4 + p1 * t3 + p2 * t2) + (0.0 + r0 * s4 + r1 * s3 + r2 * s2),
        (0.0 + p1 * t4 + p2 * t3) + (0.0 + r1 * s4 + r2 * s3),
        (0.0 + p2 * t4) + (0.0 + r2 * s4),
    ]


def _sign_changes(p: List[float], nodes: List[float]) -> List[Tuple[float, float, float, float]]:
    """(a, b, p(a), p(b)) for consecutive nodes across which p changes sign;
    nodes where p is exactly 0 are skipped, so a root there is still
    bracketed by its neighbours."""
    out = []
    prev = None
    for x in nodes:
        v = _horner(p, x)
        if v == 0.0:
            continue
        if prev is not None and (v > 0.0) != (prev[1] > 0.0):
            out.append((prev[0], x, prev[1], v))
        prev = (x, v)
    return out


def _monotone_nodes(p: List[float], lo: float, hi: float) -> List[float]:
    """lo, the real roots of p' inside (lo, hi), and hi, ascending.

    p is monotone between consecutive nodes, so each of its sign changes
    there brackets exactly one root. The roots of p' come the same way
    from the roots of p'', down to a linear derivative (Collins and Loos,
    Real zeros of polynomials, 1982). A root-free p' (see _root_free)
    makes p monotone on the whole range.
    """
    dp = [k * c for k, c in enumerate(p)][1:]
    if len(dp) < 2 or _root_free(dp, max(-lo, hi)):
        return [lo, hi]
    ddp = [k * c for k, c in enumerate(dp)][1:]
    tol = 1e-13 * (hi - lo)
    roots = []
    for a, b, va, vb in _sign_changes(dp, _monotone_nodes(dp, lo, hi)):
        res = _bracketed_newton(
            lambda t: _horner(dp, t), lambda t: _horner(ddp, t), a, b, tol, va, vb
        )
        roots.append(res[0])
    return [lo] + roots + [hi]


def _end_slopes(
    terms: List[Tuple[float, float]], lo: float, hi: float
) -> Tuple[float, float, bool]:
    """(f'(lo), f'(hi), concave) for a cell's _slope_terms, where concave
    means f'' < 0 across [lo, hi]. The slopes are maximize_cell's, bit
    for bit: the same operations, summed left to right from 0.0.

    f''(theta) = sum_k 2 w_k tan(x) / cos(x)**2 with x = theta + beta_k,
    and each term increases with x across a cell (see cells._end_values),
    so its value at hi when w_k > 0 and at lo otherwise bounds it from
    above: the mirror of the lower bound m that _end_values uses. top sums
    these bounds and scale their magnitudes, and the cell is concave when
    top + 1e-9 * scale < 0. Each computed bound is within 10 * 2**-53 of
    its exact value at the same float x (tan and cos within an ulp each,
    then the square, the product and the quotient), and the left-to-right
    sum of at most four adds at most 3 * 2**-53 * scale, so the margin
    leaves the exact bounds summing below 0. Rounding theta + beta is
    monotone in theta, so every x that f' or f'' is evaluated at inside
    the cell lies between those at lo and hi, where each term is at most
    its bound. A NaN or an infinite term fails the test. On a concave
    cell f' decreases, so f has at most one critical point, a maximum,
    inside exactly when f'(lo) > 0 > f'(hi).
    """
    cos, tan = math.cos, math.tan
    g_lo = g_hi = top = scale = 0.0
    for w, beta in terms:
        x, y = lo + beta, hi + beta
        q, r = cos(x) ** 2, cos(y) ** 2
        g_lo += w / q
        g_hi += w / r
        v = 2.0 * w * tan(y) / r if w > 0.0 else 2.0 * w * tan(x) / q
        top += v
        scale += abs(v)
    return g_lo, g_hi, top + 1e-9 * scale < 0.0


class CellBest(NamedTuple):
    theta: float
    area: float
    candidates_evaluated: int
    achieved_bracket: float


def maximize_cell(cell: RotationCell, prec=8.0) -> CellBest:
    """Best direction inside one cell.

    A concave cell (_end_slopes) has at most one critical point, a maximum,
    and the signs of f' at its ends say whether it is inside: if so, a
    safeguarded Newton run on the true f' polishes it on [lo, hi], and
    otherwise the better end wins at once. On any other cell the sign of
    f' is the sign of a polynomial of degree at most 6 in tan(theta - mid),
    so the cell has at most 6 critical points, and none when the
    polynomial passes _root_free. Each sign change of the polynomial,
    isolated exactly, maps back to a bracket in theta, and the same Newton
    run polishes its root. When rounding erases the sign change of f' at
    the mapped ends, the end at the polynomial's root (where the two signs
    disagree) stands in for it. The best of the roots and the two cell
    ends wins; ties go to the smallest direction. The end values are
    cell.ends.
    """
    xtol = _as_precision(prec).xtol
    lo, hi = cell.interval
    if cell.left_section is None and cell.right_section is None:
        # constant containment cell
        return CellBest(
            theta=lo, area=cell.middle_area, candidates_evaluated=1, achieved_bracket=0.0
        )

    terms = _slope_terms(cell)
    ga, gb, concave = _end_slopes(terms, lo, hi)
    if concave and not (ga > 0.0 > gb or ga == 0.0 or gb == 0.0):
        f_lo, f_hi = cell.ends
        if f_hi > f_lo:
            return CellBest(theta=hi, area=f_hi, candidates_evaluated=2, achieved_bracket=0.0)
        return CellBest(theta=lo, area=f_lo, candidates_evaluated=2, achieved_bracket=0.0)
    cos, tan = math.cos, math.tan

    # left to right: sum() of floats rounds differently from 3.12 on
    def slope(theta: float) -> float:
        total = 0.0
        for w, beta in terms:
            total += w / cos(theta + beta) ** 2
        return total

    def curvature(theta: float) -> float:
        total = 0.0
        for w, beta in terms:
            total += 2.0 * w * tan(theta + beta) / cos(theta + beta) ** 2
        return total

    if concave:
        # a zero end is the root, as _bracketed_newton takes it
        roots = [_bracketed_newton(slope, curvature, lo, hi, xtol, ga, gb)[:2]]
    else:
        roots = []
        mid = 0.5 * (lo + hi)
        p = _slope_polynomial(terms, mid)
        t_lo, t_hi = tan(lo - mid), tan(hi - mid)
        # the larger |t|, max(-t_lo, t_hi) spelled out, since t_lo <= t_hi
        if not _root_free(p, t_hi if t_hi > -t_lo else -t_lo):
            for a, b, pa, _ in _sign_changes(p, _monotone_nodes(p, t_lo, t_hi)):
                # min(max(mid + atan(.), lo), hi), spelled out
                ta, tb = mid + math.atan(a), mid + math.atan(b)
                ta = lo if ta < lo else hi if ta > hi else ta
                tb = lo if tb < lo else hi if tb > hi else tb
                ga, gb = slope(ta), slope(tb)
                res = _bracketed_newton(slope, curvature, ta, tb, xtol, ga, gb)
                if res is None:
                    roots.append((ta if (ga > 0.0) != (pa > 0.0) else tb, 0.0))
                else:
                    roots.append(res[:2])
    candidates = [(lo, 0.0, cell.ends[0]), (hi, 0.0, cell.ends[1])]
    candidates += [(theta, bracket, cell_objective(cell, theta)) for theta, bracket in roots]

    best_theta, best_area, best_bracket = lo, -math.inf, 0.0
    for theta, bracket, area in candidates:
        if area > best_area or (area == best_area and theta < best_theta):
            best_theta, best_area, best_bracket = theta, area, bracket
    return CellBest(
        theta=best_theta,
        area=best_area,
        candidates_evaluated=len(candidates),
        achieved_bracket=best_bracket,
    )


class SceneDetails(NamedTuple):
    """The partition, breakpoints and resolved direction domain of a scene;
    domain is None only when a fixed-direction evaluation's is empty."""

    partition: SectionPartition
    breakpoints: Tuple[float, ...]
    domain: Optional[Tuple[float, float]]
    num_cells: int


def direction_domain(
    part: SectionPartition, phi: float, domain: Optional[Tuple[float, float]]
) -> Optional[Tuple[float, float]]:
    """The admissible directions [first ray - phi, last ray], intersected
    with domain when given, shifted by whole turns to overlap them best;
    None when the intersection is empty."""
    first, last = part.span()
    base = (first - phi, last)
    if domain is None:
        return base
    return overlap_interval(base, (float(domain[0]), float(domain[1])))


def solve_scene(
    poly: ConvexPolygon,
    apex: Point,
    phi: float,
    prec=8.0,
    domain: Optional[Tuple[float, float]] = None,
) -> Tuple[SolveResult, SceneDetails]:
    """maximize_global plus the partition diagnostics the CLI reports."""
    precision = _as_precision(prec)
    check_opening(phi)
    part = vertex_partition(poly, apex)
    dom = direction_domain(part, phi, domain)
    if dom is None:
        raise InvalidInputError("empty direction domain")

    first, last = part.span()
    span_width = last - first
    if phi >= span_width:
        # containment plateau: any direction in [last - phi, first] sees the
        # whole polygon; report its smallest admissible direction
        p_lo, p_hi = last - phi, first
        lo = max(p_lo, dom[0])
        hi = min(p_hi, dom[1])
        if hi >= lo - _MIN_WIDTH:
            result = SolveResult(
                theta_star=normalize_angle(lo),
                area=poly.area,
                cell_index=-1,
                candidates_evaluated=1,
                achieved_bracket=0.0,
            )
            details = SceneDetails(
                partition=part, breakpoints=(lo, hi), domain=dom, num_cells=0
            )
            return result, details

    bps = breakpoints(part.sorted_angles, phi, domain=dom)
    if len(bps) < 2:
        raise InvalidInputError("empty direction domain")
    cells = build_cells(poly, apex, part, phi, bps)

    # best first: a cell whose bound (plus rounding slack) lies below the
    # incumbent by more than the tie tolerance can neither win nor tie, and
    # neither can any cell after it in descending bound order; visit rules
    # out a cell whose second bound falls below it the same way
    tie_tol = precision.xtol * poly.area
    results = {}
    best_area = floor = -math.inf  # floor: best_area less the tie tolerance
    bounds, slack, visit = cells.bound, cells.slack, cells.visit
    for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if bounds[i] + slack < floor:
            break
        cell = visit(i, floor)
        if cell is not None:
            results[i] = maximize_cell(cell, precision)
            best_area = max(best_area, results[i].area)
            floor = best_area - tie_tol

    # deterministic reduction: max area, ties within 10^-digits of the best
    # resolve to the smallest direction (then lowest cell index)
    winner_idx = min((res.theta, i) for i, res in results.items() if res.area >= floor)[1]
    win = results[winner_idx]
    result = SolveResult(
        theta_star=normalize_angle(win.theta),
        area=win.area,
        cell_index=winner_idx,
        candidates_evaluated=sum(r.candidates_evaluated for r in results.values()),
        achieved_bracket=win.achieved_bracket,
    )
    details = SceneDetails(
        partition=part, breakpoints=tuple(bps), domain=dom, num_cells=len(cells)
    )
    return result, details


def maximize_global(
    poly: ConvexPolygon,
    apex: Point,
    phi: float,
    prec=8.0,
    domain: Optional[Tuple[float, float]] = None,
) -> SolveResult:
    """Direction maximizing the polygon/sector intersection area.

    Builds the vertex partition and rotation cells, solves the cells best
    first by their area bounds and returns the best result; when the
    opening covers the polygon's whole angular span the containment
    direction is returned immediately.
    """
    result, _ = solve_scene(poly, apex, phi, prec, domain)
    return result
