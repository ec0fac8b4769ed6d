"""Per-cell and global maximization of the sector-rotation objective.

Within one rotation cell the objective is

    f(theta) = middle_area + right_term(theta) + left_term(theta)

where the moving terms are closed-form wedge areas of the boundary
sections. The cell is split into chunks no wider than the opening, each
chunk is rewritten as anchor area plus left sliver minus right sliver, the
slivers' analytic opening-extrema bound the derivative's sign changes, and
a bracketed Newton iteration polishes each root to the requested number of
digits. Near-singular closed-form evaluations (boundary rays through
polygon vertices) fall back to direct clipping. Cells are solved best
first by an upper bound on their area, and the search stops once no
remaining cell can come within the tie tolerance of the best area found.
The global maximum is the best cell result; ties within the area
tolerance resolve to the smallest direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .geometry import (
    ConvexPolygon,
    InvalidInputError,
    NearSingularError,
    Point,
    Sector,
    TWO_PI,
    normalize_angle,
    overlap_interval,
    sector_clip,
)
from .cells import RotationCell, SectionPartition, breakpoints, build_cells, vertex_partition
from .wedge import CellPieces, _area_raw, opening_extrema, rotation_pieces

_TINY_OPENING = 1e-13
_MIN_WIDTH = 1e-12
_BOUND_SLACK = 1e-9  # relative to the polygon area: rounding in a cell's area


@dataclass(frozen=True)
class Precision:
    """Requested direction accuracy: |returned - optimal| < 10**-digits."""

    digits: float

    def __post_init__(self):
        if not (self.digits > 1.0):
            raise InvalidInputError("precision digits must exceed 1")

    @property
    def xtol(self) -> float:
        return 10.0 ** (-self.digits)


def _as_precision(prec) -> Precision:
    if isinstance(prec, Precision):
        return prec
    return Precision(float(prec))


@dataclass(frozen=True)
class SolveResult:
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
    max_iter: int = 200,
) -> Optional[Tuple[float, float, int]]:
    """Root of g in [lo, hi] by Newton steps safeguarded with bisection.

    Requires a sign change; returns (root, final bracket width, iterations)
    or None without one. Newton steps are taken only when they stay inside
    the bracket, shrink |g| and are at most half the previous step;
    anything else bisects. The last rule keeps slowly converging Newton
    sequences (multiple roots) from starving the bracket, so the width
    halves at least every other iteration and the cap is just a backstop.
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

    x = 0.5 * (lo + hi)
    gx = g(x)
    last_step = hi - lo
    for it in range(max_iter):
        if gx == 0.0:
            return x, hi - lo, it
        if (gx > 0.0) == (glo > 0.0):
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
        if hi - lo < xtol:
            return 0.5 * (lo + hi), hi - lo, it
        nxt = None
        if gprime is not None:
            try:
                d = gprime(x)
            except NearSingularError:
                d = 0.0
            if d != 0.0 and math.isfinite(d):
                step = gx / d
                cand = x - step
                if lo < cand < hi and 2.0 * abs(step) <= last_step:
                    gc = g(cand)
                    if abs(gc) < abs(gx):
                        nxt = (cand, gc, abs(step))
        if nxt is None:
            mid = 0.5 * (lo + hi)
            nxt = (mid, g(mid), 0.5 * (hi - lo))
        x, gx, last_step = nxt
    return 0.5 * (lo + hi), hi - lo, max_iter


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
    """Reference objective by sector clipping; the fallback evaluator."""
    clipped = sector_clip(poly, Sector(apex, theta, phi))
    return 0.0 if clipped is None else clipped.area


def cell_objective(cell: RotationCell, theta: float) -> float:
    """Objective inside a cell, analytic with clipping fallback."""
    if cell.empty:
        return 0.0
    try:
        return _cell_objective_analytic(cell, theta)
    except NearSingularError:
        return objective_by_clipping(cell.poly, cell.apex, theta, cell.opening)


def _cell_objective_analytic(cell: RotationCell, theta: float) -> float:
    phi = cell.opening
    if cell.right_section is not None and cell.right_section == cell.left_section:
        return _area_raw(cell.right_wedge, theta, phi)
    total = cell.middle_area
    if cell.right_section is not None:
        opening = cell.right_section_end - theta
        if opening > _TINY_OPENING:
            total += _area_raw(cell.right_wedge, theta, opening)
    if cell.left_section is not None:
        opening = theta + phi - cell.left_section_start
        if opening > _TINY_OPENING:
            total += _area_raw(cell.left_wedge, cell.left_section_start, opening)
    return total


def _cell_pieces(cell: RotationCell, theta0: float, base: float) -> CellPieces:
    if cell.right_section is not None and cell.right_section == cell.left_section:
        return rotation_pieces(cell.right_wedge, cell.right_wedge, theta0, cell.opening, base)
    return rotation_pieces(cell.left_wedge, cell.right_wedge, theta0, cell.opening, base)


@dataclass(frozen=True)
class CellBest:
    theta: float
    area: float
    candidates_evaluated: int
    achieved_bracket: float


def maximize_cell(cell: RotationCell, prec=8.0) -> CellBest:
    """Best direction inside one cell.

    Chunks wider than the opening are subdivided; per chunk, the analytic
    opening-extrema of both slivers (at most four) split it into at most
    five subintervals, a safeguarded Newton run resolves each derivative
    sign change, and the best of roots, split points and chunk endpoints
    wins. Ties go to the smallest direction.
    """
    precision = _as_precision(prec)
    lo, hi = cell.interval
    if cell.empty:
        return CellBest(theta=lo, area=0.0, candidates_evaluated=1, achieved_bracket=0.0)
    if cell.left_section is None and cell.right_section is None:
        # constant containment cell
        return CellBest(
            theta=lo, area=cell.middle_area, candidates_evaluated=1, achieved_bracket=0.0
        )

    width = hi - lo
    chunk_count = max(1, math.ceil(width / cell.opening))
    chunk_len = width / chunk_count

    best_theta = lo
    best_area = -math.inf
    best_bracket = 0.0
    evaluated = 0

    def consider(theta: float, area: float, bracket: float) -> None:
        nonlocal best_theta, best_area, best_bracket
        if area > best_area or (area == best_area and theta < best_theta):
            best_theta, best_area, best_bracket = theta, area, bracket

    for ci in range(chunk_count):
        c0 = lo + ci * chunk_len
        c1 = hi if ci == chunk_count - 1 else c0 + chunk_len
        length = c1 - c0
        base = cell_objective(cell, c0)
        evaluated += 1
        consider(c0, base, 0.0)

        pieces = _cell_pieces(cell, c0, base)

        knots: List[float] = []
        if pieces.left is not None:
            ex = opening_extrema(pieces.left, c0 + cell.opening, phi_window=(0.0, length))
            knots.extend(ex.values())
        if pieces.right is not None:
            ex = opening_extrema(pieces.right, c0, phi_window=(0.0, length))
            knots.extend(ex.values())
        knots = sorted(set(knots))

        def e_val(delta: float) -> float:
            try:
                return pieces.evaluate(delta)
            except NearSingularError:
                return objective_by_clipping(cell.poly, cell.apex, c0 + delta, cell.opening)

        def e_prime(delta: float) -> float:
            try:
                return pieces.derivative(delta)
            except NearSingularError:
                inset = 1e-9 * max(length, 1.0)
                d = delta + (inset if delta < 0.5 * length else -inset)
                return pieces.derivative(d)

        for k in knots:
            evaluated += 1
            consider(c0 + k, e_val(k), 0.0)
        evaluated += 1
        consider(c1, e_val(length), 0.0)

        nodes = [0.0] + knots + [length]
        for a, b in zip(nodes[:-1], nodes[1:]):
            if b - a <= _MIN_WIDTH:
                continue
            try:
                ga = e_prime(a)
                gb = e_prime(b)
            except NearSingularError:
                continue
            if (ga > 0.0) == (gb > 0.0) and ga != 0.0 and gb != 0.0:
                continue
            try:
                res = _bracketed_newton(
                    e_prime, pieces.second_derivative, a, b, precision.xtol, ga, gb
                )
            except NearSingularError:
                continue
            if res is None:
                continue
            root, bracket_width, _ = res
            evaluated += 1
            consider(c0 + root, e_val(root), bracket_width)

    return CellBest(
        theta=best_theta,
        area=best_area,
        candidates_evaluated=evaluated,
        achieved_bracket=best_bracket,
    )


@dataclass(frozen=True)
class SceneDetails:
    partition: SectionPartition
    breakpoints: Tuple[float, ...]
    domain: Tuple[float, float]
    num_cells: int


def solve_scene(
    poly: ConvexPolygon,
    apex: Point,
    phi: float,
    prec=8.0,
    domain: Optional[Tuple[float, float]] = None,
) -> Tuple[SolveResult, SceneDetails]:
    """maximize_global plus the partition diagnostics the CLI reports."""
    precision = _as_precision(prec)
    if not (0.0 < phi < math.pi):
        raise InvalidInputError("sector opening must lie in (0, pi)")
    part = vertex_partition(poly, apex)
    first, last = part.span()

    base_domain = (first - phi, last)
    if domain is not None:
        dom = overlap_interval(base_domain, (float(domain[0]), float(domain[1])))
        if dom is None:
            raise InvalidInputError("empty direction domain")
    else:
        dom = base_domain

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
    # neither can any cell after it in descending bound order
    tie_tol = precision.xtol
    slack = _BOUND_SLACK * poly.area
    results = {}
    best_area = -math.inf
    for i in sorted(range(len(cells)), key=lambda i: cells[i].bound, reverse=True):
        if cells[i].bound + slack < best_area - tie_tol:
            break
        results[i] = maximize_cell(cells[i], precision)
        best_area = max(best_area, results[i].area)

    # deterministic reduction: max area, ties within 10^-digits of the best
    # resolve to the smallest direction (then lowest cell index)
    winner_idx = min(
        (i for i, r in results.items() if r.area >= best_area - tie_tol),
        key=lambda i: (results[i].theta, i),
    )
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
