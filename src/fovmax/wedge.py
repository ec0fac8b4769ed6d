"""The paper's A_theta(phi): the area a sector cuts from a wedge.

A wedge is the region between two lines, labeled by crossing order from
the apex: a ray inside the wedge's direction window crosses the near line
first and then the far line. Each line is (d**2 / 2, psi): d is its
distance from the apex and psi the direction of the perpendicular from
the apex to it. The ray at angle gamma meets the line at distance
d / cos(gamma - psi), ahead of the apex when cos(gamma - psi) > 0, and
the line cuts d**2 / 2 * (tan(b - psi) - tan(a - psi)) from the sector
between the rays at angles a < b (_cut; cells spells the same
operations in vertex_partition's loop, for the section areas, and in
_end_cuts, for every cell value). A sector's area in the wedge is the
far line's cut minus the near line's. No frame is needed, and lines of
one direction are not a special case.

The direction window is where three open half-circles of directions
meet, centred at psi_near and psi_far (the ray meets that line ahead of
the apex) and at chi = arg(d_far * e^(i psi_near) - d_near * e^(i psi_far))
(it meets the near line first: d_near / cos(gamma - psi_near) <
d_far / cos(gamma - psi_far) is cos(gamma - chi) > 0). The area's
derivative in the opening, far minus near d**2 / 2 / cos(gamma - psi)**2
at the left ray gamma, vanishes at gamma = chi + pi/2 and at
gamma = chi' + pi/2 (mod pi), chi' being the argument of the sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .geometry import (
    InvalidInputError, NearSingularError, Point, TWO_PI, as_line, check_opening, normalize_angle
)

_SIN_EPS = 1e-9        # singularity guard on closed-form denominators
_RESIDUAL_TOL = 1e-9   # derivative residual accepted at an extremum
_WINDOW_TOL = 1e-9     # slack for window membership checks
_COINCIDENT = 1e-12    # relative size of chi's phasor below which lines coincide

LineForm = Tuple[float, float]  # (d**2 / 2, psi)


@dataclass(frozen=True)
class StaticWedge:
    """The far and near lines as (d**2 / 2, psi), and the window
    [window_lo, window_hi] of directions whose rays cross the near line
    first and the far line second."""

    far: LineForm
    near: LineForm
    window_lo: float
    window_hi: float

    def window_width(self) -> float:
        return self.window_hi - self.window_lo

    def direction_offset(self, theta: float) -> float:
        """Position of theta inside the window, in [0, 2*pi); directions up
        to 1e-9 rad before window_lo count as window_lo."""
        off = (theta - self.window_lo) % TWO_PI
        return 0.0 if off >= TWO_PI - _WINDOW_TOL else off

    def contains_direction(self, theta: float, margin: float = 0.0) -> bool:
        return self.direction_offset(theta) <= self.window_width() - margin + _WINDOW_TOL


@dataclass(frozen=True)
class PhiExtrema:
    """Opening angles in (0, pi) where the area's phi-derivative vanishes."""

    phi1: Optional[float]
    phi2: Optional[float]

    def values(self) -> List[float]:
        return sorted(v for v in (self.phi1, self.phi2) if v is not None)


def _cut(c: float, psi: float, a: float, b: float) -> float:
    """Area between the rays at angles a and b and a line with c = d**2 / 2
    and perpendicular direction psi: c * (tan(b - psi) - tan(a - psi)),
    written without the cancellation of the two tangents."""
    return c * math.sin(b - a) / (math.cos(a - psi) * math.cos(b - psi))


def _line_form(apex: Point, line) -> Tuple[float, float]:
    """(d, psi) of a line seen from the apex."""
    ln = as_line(line)
    rx, ry = ln.px - float(apex[0]), ln.py - float(apex[1])
    d = ln.dy * rx - ln.dx * ry
    if abs(d) <= 1e-12 * (1.0 + abs(rx) + abs(ry)):
        raise InvalidInputError("apex lies on a wedge boundary line")
    psi = math.atan2(-ln.dx, ln.dy)
    if d < 0.0:
        d, psi = -d, psi + math.pi
    return d, psi


def _chi(far: LineForm, near: LineForm, sign: float) -> Optional[float]:
    """arg(d_far * e^(i psi_near) + sign * d_near * e^(i psi_far)); None
    when it vanishes, which for sign = -1 means the lines coincide."""
    d_far, d_near = math.sqrt(2.0 * far[0]), math.sqrt(2.0 * near[0])
    z = cmath.rect(d_far, near[1]) + sign * cmath.rect(d_near, far[1])
    if abs(z) <= _COINCIDENT * (d_far + d_near):
        return None
    return cmath.phase(z)


def wedge_from_lines(apex: Point, far_line, near_line) -> StaticWedge:
    """Build a StaticWedge from the apex and two boundary lines.

    The caller labels which line a ray inside the wedge crosses second
    (far) and first (near). Raises if the apex lies on either line or if no
    direction crosses the near line before the far line, or only a window
    narrower than 1e-9 rad does (lines of one direction with the apex
    between them, coincident lines).
    """
    d_far, psi_far = _line_form(apex, far_line)
    d_near, psi_near = _line_form(apex, near_line)
    far = (0.5 * d_far * d_far, psi_far)
    near = (0.5 * d_near * d_near, psi_near)
    chi = _chi(far, near, -1.0)
    if chi is None:
        raise InvalidInputError("no direction crosses the near line before the far line")
    # the three half-circles' centres, unwrapped to within pi of psi_near
    centres = [psi_near] + [psi_near + math.remainder(c - psi_near, TWO_PI) for c in (psi_far, chi)]
    lo = max(centres) - 0.5 * math.pi
    hi = min(centres) + 0.5 * math.pi
    if not hi - lo > _WINDOW_TOL:
        raise InvalidInputError("no direction crosses the near line before the far line")
    window_lo = normalize_angle(lo)
    return StaticWedge(far=far, near=near, window_lo=window_lo, window_hi=window_lo + (hi - lo))


def _check_sector_domain(w: StaticWedge, theta: float, phi: float) -> None:
    check_opening(phi)
    if w.direction_offset(theta) > w.window_width() - phi + _WINDOW_TOL:
        raise InvalidInputError("sector direction outside the wedge's admissible range")


def _secants(w: StaticWedge, gamma: float) -> Tuple[float, float]:
    """1 / cos(gamma - psi) for the far and the near line."""
    cf = math.cos(gamma - w.far[1])
    cn = math.cos(gamma - w.near[1])
    if abs(cf) < _SIN_EPS or abs(cn) < _SIN_EPS:
        raise NearSingularError("ray nearly along a wedge line")
    return 1.0 / cf, 1.0 / cn


def _area_raw(w: StaticWedge, theta: float, phi: float) -> float:
    """Area formula without domain validation (singularity guard only)."""
    if phi == 0.0:
        return 0.0
    _secants(w, theta)
    _secants(w, theta + phi)
    return _cut(*w.far, theta, theta + phi) - _cut(*w.near, theta, theta + phi)


def two_sector_area(w: StaticWedge, theta: float, phi: float) -> float:
    """Area cut from the wedge by the sector (theta, phi).

    Valid in the full-intersection regime: theta and theta + phi must both
    lie inside the wedge's direction window. Raises NearSingularError when
    a boundary ray nearly runs along one of the lines.
    """
    _check_sector_domain(w, theta, phi)
    return _area_raw(w, theta, phi)


def _density(w: StaticWedge, gamma: float) -> float:
    """d(area)/d(opening) as a function of the left ray's absolute angle."""
    sf, sn = _secants(w, gamma)
    return w.far[0] * sf * sf - w.near[0] * sn * sn


def _density_slope(w: StaticWedge, gamma: float) -> float:
    """Derivative of _density in gamma (second phi-derivative of the area)."""
    sf, sn = _secants(w, gamma)
    return 2.0 * (
        w.far[0] * math.sin(gamma - w.far[1]) * sf ** 3
        - w.near[0] * math.sin(gamma - w.near[1]) * sn ** 3
    )


def d_area_d_opening(w: StaticWedge, theta: float, phi: float) -> float:
    """Partial derivative of the closed-form area in the opening angle.

    Deliberately not window-checked: the first extremum sits exactly where
    the left ray passes through the boundary-line crossing, the window's
    edge, and checks of an extremum evaluate at and slightly beyond it.
    The smooth continuation is what the extremum analysis differentiates.
    """
    check_opening(phi)
    return _density(w, theta + phi)


def opening_extrema(w: StaticWedge, theta: float) -> PhiExtrema:
    """Opening angles where d_area_d_opening vanishes at fixed direction.

    The roots are gamma = chi + pi/2 (phi1) and gamma = chi' + pi/2 (phi2)
    for the left ray, mapped to phi = (gamma - theta) mod pi. A root is
    kept only when it lies in (0, pi), its derivative residual (far minus
    near c / cos(gamma - psi)**2) is at most 1e-9, and the rounding of that
    residual cannot reach half of 1e-9. The terms grow without bound as
    the ray turns along a line, and so does their rounding; a root whose
    residual is rounding noise is dropped whatever value the noise takes,
    so nudging theta does not flip it between kept and dropped. Coincident
    lines (the derivative vanishing identically) yield no isolated extrema.
    """

    def root(chi: Optional[float]) -> Optional[float]:
        if chi is None:
            return None
        phi = (chi + 0.5 * math.pi - theta) % math.pi
        if not 1e-12 < phi < math.pi - 1e-12:
            return None
        gamma = theta + phi
        try:
            sf, sn = _secants(w, gamma)
            slope = _density_slope(w, gamma)
        except NearSingularError:
            return None
        # _density's two terms; its rounding: 8 ulps of each term, and the
        # slope times 8 ulps of an angle of size |gamma| + 8
        far, near = w.far[0] * sf * sf, w.near[0] * sn * sn
        noise = 2.0**-50 * (far + near + abs(slope) * (abs(gamma) + 8.0))
        if noise > 0.5 * _RESIDUAL_TOL:
            return None
        return phi if abs(far - near) <= _RESIDUAL_TOL else None

    chi = _chi(w.far, w.near, -1.0)
    if chi is None:
        return PhiExtrema(phi1=None, phi2=None)
    phi1, phi2 = root(chi), root(_chi(w.far, w.near, 1.0))
    if phi1 is not None and phi2 is not None and abs(phi1 - phi2) <= 1e-9:
        phi2 = None
    return PhiExtrema(phi1=phi1, phi2=phi2)


@dataclass(frozen=True)
class CellPieces:
    """Rotation decomposition of the objective around an anchor direction.

    evaluate(delta) returns the area at direction theta0 + delta for
    delta in [0, opening]: the anchor area plus a growing sliver swept by
    the left ray (anchored at theta0 + opening) minus a growing sliver
    swept by the right ray (anchored at theta0). A missing side contributes
    zero (the corresponding boundary is not moving inside the cell).
    """

    base_area: float
    theta0: float
    opening: float
    left: Optional[StaticWedge]
    right: Optional[StaticWedge]

    def evaluate(self, delta: float) -> float:
        total = self.base_area
        if self.left is not None:
            total += _area_raw(self.left, self.theta0 + self.opening, delta)
        if self.right is not None:
            total -= _area_raw(self.right, self.theta0, delta)
        return total

    def derivative(self, delta: float) -> float:
        total = 0.0
        if self.left is not None:
            total += _density(self.left, self.theta0 + self.opening + delta)
        if self.right is not None:
            total -= _density(self.right, self.theta0 + delta)
        return total

    def second_derivative(self, delta: float) -> float:
        total = 0.0
        if self.left is not None:
            total += _density_slope(self.left, self.theta0 + self.opening + delta)
        if self.right is not None:
            total -= _density_slope(self.right, self.theta0 + delta)
        return total


def rotation_pieces(
    wL: Optional[StaticWedge],
    wR: Optional[StaticWedge],
    theta0: float,
    phi: float,
    base_area: float,
) -> CellPieces:
    """Build the rotation decomposition around theta0 with opening phi.

    wL is the wedge swept by the left boundary ray (anchored at
    theta0 + phi), wR the wedge swept by the right ray (anchored at
    theta0). Anchors must sit inside the respective direction windows
    (window endpoints are fine; those directions pass through polygon
    vertices, where the closed form stays finite).
    """
    check_opening(phi)
    if wL is not None and not wL.contains_direction(theta0 + phi, margin=-1e-6):
        raise InvalidInputError("left anchor outside its wedge window")
    if wR is not None and not wR.contains_direction(theta0, margin=-1e-6):
        raise InvalidInputError("right anchor outside its wedge window")
    return CellPieces(base_area=base_area, theta0=theta0, opening=phi, left=wL, right=wR)
