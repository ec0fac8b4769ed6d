"""Per-cell and global maximization of the sector-rotation objective.

Within one rotation cell the objective is

    f(theta) = middle_area + right_term(theta) + left_term(theta)

where each moving term is a boundary section's far-line cut minus its
near-line cut, d**2/2 * (tan(b - psi) - tan(a - psi)) between the section
ray and the sector's boundary ray (see cells). Its derivative is
f'(theta) = sum_k w_k / cos(theta + beta_k)**2 with at most four terms,
and f'' is the sum of the terms 2 w_k tan(x) / cos(x)**2, x = theta +
beta_k, each rising across the cell, so taking each at one end of an
interval or the other bounds f'' there (the curvature bound of Breiman
and Cutler, see cells._end_values). Two evaluators read the terms:
_on_piece gives f' at a piece's ends and its f'' bounds in one pass,
and _at_point gives f' and f'' at one direction for a Newton step. One
rule finds a cell's maxima (_maxima): a piece of the cell, the whole
cell first, takes one Newton run when it is concave and f' falls across
it, nothing when f'' > 0 or f' keeps one sign on it, its midpoint when
it is too narrow to split and f' falls across it, and splits at its
midpoint otherwise. Nine in ten solved cells on the small benchmark
scenes are concave as a whole.
Roots are polished to 10**-digits, or to float resolution when that
comes first; minima are not polished.
Cells are visited best first by an upper bound on their area from
prefix sums of the section areas, and the search stops once no
remaining cell can come within the tie tolerance, the partition's
rounding margin (SectionPartition.margin), of the best area found;
prec sets the polish alone. Each visited cell goes through
CellTable.visit, which rules it out on a second bound (see cells) or
returns it for maximize_cell. The global maximum is the best cell
result; ties within the tolerance resolve to the smallest direction,
then the lowest cell index.
The results are named tuples.
"""

from __future__ import annotations

import math
from functools import partial
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
from .cells import _ANGLE_MERGE, cell_objective, vertex_partition
# not used here: perfbench/spans.py wraps these names in traced runs
from .wedge import opening_extrema, rotation_pieces  # noqa: F401

_MAX_ITER = 200  # a backstop for _bracketed_newton


def _xtol(prec) -> float:
    """10**-digits for prec, the requested direction accuracy
    |returned - optimal| < 10**-digits; the digits must be finite and
    exceed 1."""
    digits = float(prec)
    if not 1.0 < digits < math.inf:
        raise InvalidInputError("precision digits must be finite and exceed 1")
    return 10.0 ** -digits


class SolveResult(NamedTuple):
    theta_star: float
    area: float
    cell_index: int
    candidates_evaluated: int
    achieved_bracket: float


def _bracketed_newton(
    point: Callable[[float], Tuple[float, float]],
    lo: float,
    hi: float,
    xtol: float,
    glo: Optional[float] = None,
    ghi: Optional[float] = None,
) -> Optional[Tuple[float, float, int]]:
    """Root of g in [lo, hi] by Newton steps safeguarded with bisection,
    where point(x) gives (g(x), g'(x)) in one evaluation.

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
    for bisection to walk down to xtol, so a Newton point within h of an
    end, or past it by less than the bracket's width, moves to h inside
    the bracket: when the root lies within h of that end, one evaluation
    closes the bracket. h is xtol / 2, or the float spacing at the
    bracket's larger end when that is more.
    """
    if glo is None:
        glo = point(lo)[0]
    if ghi is None:
        ghi = point(hi)[0]
    if glo == 0.0:
        return lo, 0.0, 0
    if ghi == 0.0:
        return hi, 0.0, 0
    if (glo > 0.0) == (ghi > 0.0):
        return None

    # a smaller nudge would round back onto the bracket's end
    h = 0.5 * xtol
    spacing = math.ulp(hi if hi > -lo else lo)
    if h < spacing:
        h = spacing
    x = 0.5 * (lo + hi)
    gx, dx = point(x)
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
        if dx != 0.0 and math.isfinite(dx):
            cand = x - gx / dx
            if lo - width < cand < hi + width:
                # min(max(cand, lo + h), hi - h), spelled out
                if cand < lo + h:
                    cand = lo + h
                if cand > hi - h:
                    cand = hi - h
            step = abs(cand - x)
            if lo < cand < hi and 2.0 * step <= last_step:
                at = point(cand)
                if abs(at[0]) < abs(gx) or (at[0] > 0.0) != (gx > 0.0):
                    nxt = (cand, at, step)
        if nxt is None:
            nxt = (mid, point(mid), width)
        x, (gx, dx), last_step = nxt
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
    # without gprime every slope reads 0, so every step bisects
    res = _bracketed_newton(
        lambda x: (g(x), 0.0 if gprime is None else gprime(x)), lo, hi, _xtol(prec)
    )
    return None if res is None else res[0]


def objective_by_clipping(poly: ConvexPolygon, apex: Point, theta: float, phi: float) -> float:
    """Reference objective by sector clipping."""
    clipped = sector_clip(poly, Sector(apex, theta, phi))
    return 0.0 if clipped is None else clipped.area


def _on_piece(terms: List[Tuple[float, float]], a: float, b: float) -> tuple:
    """(f'(a), f'(b), low, high, sa, sb) on the piece [a, b] of a cell with
    these _slope_terms, in one pass: low <= f'' <= high across the piece,
    and sa and sb are the sums of the magnitudes of the terms of f'(a) and
    f'(b), which bound the rounding of f' (see _maxima).

    Each f'' term 2 w tan(x) / cos(x)**2, x = theta + beta, rises across a
    cell (see cells._end_values), so it is smallest at the piece's left end
    when w > 0 and at its right end otherwise, and largest at the other;
    rounding theta + beta is monotone in theta, so every x evaluated
    inside the piece lies between those at its ends. Each computed term
    is within 10 * 2**-53 of its exact value at the same float x (tan and
    cos within an ulp each, then the square, the product and the
    quotient), and the left-to-right sum of at most four adds at most
    3 * 2**-53 times their magnitudes, so moving each sum outwards by
    1e-9 times its terms' magnitudes leaves the exact bounds inside. A
    NaN or an infinite term fails every test on the bounds. Every sum
    runs left to right from 0.0 (sum() of floats rounds differently from
    3.12 on), with _at_point's operations, so a direction's f' is the
    same on every piece that ends there and in the Newton run.
    """
    cos, tan = math.cos, math.tan
    ga = gb = sa = sb = low = high = s_low = s_high = 0.0
    for w, beta in terms:
        x, y = a + beta, b + beta
        q, r = cos(x) ** 2, cos(y) ** 2
        u, v = w / q, w / r
        ga += u
        sa += abs(u)
        gb += v
        sb += abs(v)
        u, v = 2.0 * w * tan(x) / q, 2.0 * w * tan(y) / r
        if not w > 0.0:
            u, v = v, u
        low += u
        s_low += abs(u)
        high += v
        s_high += abs(v)
    return ga, gb, low - 1e-9 * s_low, high + 1e-9 * s_high, sa, sb


def _at_point(terms: List[Tuple[float, float]], theta: float) -> Tuple[float, float]:
    """(f'(theta), f''(theta)) for a cell's _slope_terms, with _on_piece's
    operations: the point function of _maxima's Newton runs."""
    cos, tan = math.cos, math.tan
    g = c = 0.0
    for w, beta in terms:
        x = theta + beta
        q = cos(x) ** 2
        g += w / q
        c += 2.0 * w * tan(x) / q
    return g, c


def _settled(a: float, ga: float, b: float, gb: float, low: float, high: float) -> bool:
    """True when f has no maximum inside the piece [a, b], given its end
    slopes and low <= f'' <= high across it (_on_piece): f' rises
    (low > 0), or keeps one sign on each half, where it lies within
    ga + [low, high] * t at t <= h = (b - a) / 2 from a and within
    gb - [low, high] * t at t <= h from b. Here low <= 0 <= high, and each
    margin of _on_piece exceeds 3 * 2**-53 times |low| or |high|,
    which covers the rounding of h and of the product; a product that
    underflows errs by less than the float spacing, so each comparison
    that holds in floats holds exactly.
    """
    if low > 0.0:
        return True
    h = 0.5 * (b - a)
    if ga > 0.0 and gb > 0.0:
        return ga > -low * h and gb > high * h
    if ga < 0.0 and gb < 0.0:
        return -ga > high * h and -gb > -low * h
    return False


def _maxima(
    terms: List[Tuple[float, float]], lo: float, hi: float, xtol: float
) -> List[Tuple[float, float]]:
    """(theta, bracket width) of each maximum of f inside [lo, hi], from a
    cell's _slope_terms, ascending.

    One rule for pieces of the cell, the whole cell first; each piece is
    evaluated once (_on_piece) and takes the first case that fits. Concave
    (high < 0): when f' falls across it (f' > 0 at its left end and < 0
    at its right one, or exactly 0 at an end), one _bracketed_newton run
    polishes its one maximum. Settled (_settled): no maximum. Too narrow
    (below xtol, no float strictly inside, or f' within its rounding of
    0): its midpoint, when f' falls across it. Anything else splits at its
    midpoint. An exact zero of f' at a cell end is that end's candidate
    already, and one at a split point is an end of both pieces that meet
    there: neither is reported again.
    """
    roots = []
    pieces = [(lo, hi)]
    while pieces:
        a, b = pieces.pop()
        ga, gb, low, high, sa, sb = _on_piece(terms, a, b)
        falls = ga > 0.0 > gb or ga == 0.0 or gb == 0.0
        mid = 0.5 * (a + b)
        if high < 0.0:
            if falls:
                theta, width, _ = _bracketed_newton(partial(_at_point, terms), a, b, xtol, ga, gb)
                # width 0: an exact zero; pieces go left to right, so roots ascend
                if width > 0.0 or not (theta in (lo, hi) or roots and roots[-1][0] == theta):
                    roots.append((theta, width))
        elif _settled(a, ga, b, gb, low, high):
            pass
        # |f'| <= |ga| + |gb| + (high - low) * (b - a) here, and computed f'
        # errs by up to about 2**-50 times its terms' magnitudes, at most
        # sa + sb inside (each is largest at an end): no split can do better
        elif b - a < xtol or not a < mid < b or (
            abs(ga) + abs(gb) + (high - low) * (b - a) < 2.0**-50 * (sa + sb)
        ):
            if falls:
                roots.append((mid, b - a))
        else:
            pieces += [(mid, b), (a, mid)]
    return roots


class CellBest(NamedTuple):
    theta: float
    area: float
    candidates_evaluated: int
    achieved_bracket: float


def maximize_cell(cell: RotationCell, prec=8.0) -> CellBest:
    """Best direction inside one cell: the best of its two ends
    (cell.ends) and the maxima _maxima finds inside, polished to
    10**-digits or float resolution; ties go to the smallest direction.
    candidates_evaluated counts the ends, the Newton roots and the
    float-resolution midpoints; no minimum is polished.
    """
    lo, hi = cell.interval
    if cell.left_section is None and cell.right_section is None:
        return CellBest(lo, cell.middle_area, 1, 0.0)  # constant containment cell
    f_lo, f_hi = cell.ends
    roots = _maxima(_slope_terms(cell), lo, hi, _xtol(prec))
    best = (hi, f_hi, 0.0) if f_hi > f_lo else (lo, f_lo, 0.0)
    for theta, bracket in roots:
        area = cell_objective(cell, theta)
        if area > best[1] or (area == best[1] and theta < best[0]):
            best = (theta, area, bracket)
    return CellBest(best[0], best[1], 2 + len(roots), best[2])


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
    _xtol(prec)  # check the digits before any work
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
        if hi >= lo - _ANGLE_MERGE:
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
    tie_tol = part.margin
    results = {}
    best_area = floor = -math.inf  # floor: best_area less the tie tolerance
    bounds, slack, visit = cells.bound, cells.slack, cells.visit
    for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if bounds[i] + slack < floor:
            break
        cell = visit(i, floor)
        if cell is not None:
            results[i] = maximize_cell(cell, prec)
            best_area = max(best_area, results[i].area)
            floor = best_area - tie_tol

    # deterministic reduction: max area, ties within the rounding margin of
    # the best resolve to the smallest direction (then lowest cell index)
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
