"""Output checks, run outside the timed region.

A solve passes when:

* the clipped area at the reported direction (`clip_area_at`) matches the
  reported area to 1e-9 of the polygon area, and
* an oracle `sweep_areas` scan of the admissible direction domain,
  refined around its best direction, beats the reported area by no more
  than 1e-6 of the polygon area (README acceptance criterion 5).

A CLI run passes when it exits 0 and prints the same `theta_star` and
`area` as an in-process `solve_scene` at 12 significant digits, and that
in-process answer passes the solve checks.

The oracle pads every direction to 4n clipped points, and `sweep_areas`
clips up to 8192 directions (`oracle._CHUNK`) at once, so one call at
n = 4096 would need gigabytes. The scan here hands `sweep_areas` batches
of at most SCAN_POINTS / (4n) directions so it runs at every size the
workloads use; see NOTES.md for the defect this works around.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from fovmax import ConvexPolygon
from fovmax.geometry import angular_span, overlap_interval
from fovmax.oracle import clip_area_at, sweep_areas

CLIP_TOL = 1e-9
ORACLE_TOL = 1e-6
SCAN_DIRECTIONS = 256
REFINE_ROUNDS = 3
SCAN_POINTS = 1 << 17


def admissible_domain(poly: ConvexPolygon, apex, phi: float,
                      requested: Optional[Tuple[float, float]] = None) -> Tuple[float, float]:
    lo, hi = angular_span(poly, apex)
    base = (lo - phi, hi)
    if requested is None:
        return base
    return overlap_interval(base, requested)


def oracle_scan(poly: ConvexPolygon, apex, phi: float, domain: Tuple[float, float]) -> Tuple[float, float]:
    """(best direction, best area) over the domain."""
    lo, hi = domain
    batch = max(1, SCAN_POINTS // (4 * len(poly)))

    def areas(thetas: np.ndarray) -> np.ndarray:
        return np.concatenate([
            sweep_areas(poly, apex, thetas[i:i + batch], phi)
            for i in range(0, thetas.shape[0], batch)
        ])

    thetas = np.linspace(lo, hi, SCAN_DIRECTIONS)
    vals = areas(thetas)
    k = int(np.argmax(vals))
    best_theta, best_area = float(thetas[k]), float(vals[k])
    radius = (hi - lo) / (SCAN_DIRECTIONS - 1)
    for _ in range(REFINE_ROUNDS):
        local = best_theta + np.linspace(-radius, radius, 21)
        local = local[(local >= lo) & (local <= hi)]
        vals = areas(local)
        k = int(np.argmax(vals))
        if vals[k] > best_area:
            best_theta, best_area = float(local[k]), float(vals[k])
        radius /= 10.0
    return best_theta, best_area


def check_solve(poly: ConvexPolygon, apex, phi: float, theta: float, area: float,
                domain: Tuple[float, float], scan=None) -> List[str]:
    """Reasons the answer (theta, area) is wrong; empty when it passes.

    `scan` is a previous `oracle_scan` result for the same scene, so a
    scene solved many times is scanned once.
    """
    reasons = []
    clipped = clip_area_at(poly, apex, theta, phi)
    if not abs(clipped - area) <= CLIP_TOL * poly.area:
        reasons.append("clip area %.15g != reported %.15g" % (clipped, area))
    if scan is None:
        scan = oracle_scan(poly, apex, phi, domain)
    if not scan[1] - area <= ORACLE_TOL * poly.area:
        reasons.append("oracle area %.15g at %.12g beats reported %.15g" % (scan[1], scan[0], area))
    return reasons


def same_12_digits(a: float, b: float) -> bool:
    return "%.12g" % a == "%.12g" % b


def cli_mismatch(theta: float, area: float, ref_theta: float, ref_area: float) -> List[str]:
    """Reasons a CLI answer differs from the in-process one at 12 digits.

    The exit code is the caller's to judge: a non-zero exit is a failed
    run even when the answer it printed is right.
    """
    reasons = []
    if not same_12_digits(theta, ref_theta):
        reasons.append("theta_star %.17g != in-process %.12g" % (theta, ref_theta))
    if not same_12_digits(area, ref_area):
        reasons.append("area %.17g != in-process %.12g" % (area, ref_area))
    return reasons
