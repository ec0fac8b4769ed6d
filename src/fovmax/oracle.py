"""Brute-force reference evaluator for the rotating-sector objective.

Everything here is computed by half-plane clipping plus the shoelace
formula, never by the closed-form area expressions, so these routines can
serve as an independent ground truth in tests and in the CLI verify mode.

The clipping core is vectorized over a batch of directions: each half-plane
pass emits up to two points per input edge into a padded array, then every
padded slot is replaced by the previous surviving point. Duplicate points
contribute nothing to either the next clip or the shoelace sum, so no
compaction step is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import ConvexPolygon, InvalidInputError, Point, angular_span, overlap_interval

# Polygon vertices times directions clipped in one batch. The second clip
# pads every direction to 4n points, so a batch's largest array holds
# 8 * _CHUNK_ELEMENTS floats (2 MiB) whatever n is; on a 2-vCPU Xeon,
# 2**15 scanned fastest of 2**14..2**18 at n = 8, 64, 1024 and 4096.
_CHUNK_ELEMENTS = 1 << 15
_SIDE_EPS = 1e-12


def _clip_batch(pts: np.ndarray, nx: np.ndarray, ny: np.ndarray, off: np.ndarray) -> np.ndarray:
    """One half-plane clip over a batch of polygons.

    pts has shape (B, S, 2); nx, ny, off have shape (B, 1). Keeps the side
    where nx*x + ny*y - off >= 0. Returns shape (B, 2*S, 2).
    """
    B, S, _ = pts.shape
    s = pts[:, :, 0] * nx + pts[:, :, 1] * ny - off
    inside = s >= -_SIDE_EPS
    s_next = np.roll(s, -1, axis=1)
    p_next = np.roll(pts, -1, axis=1)
    in_next = np.roll(inside, -1, axis=1)

    crossing = inside ^ in_next
    denom = s - s_next
    safe = np.where(denom == 0.0, 1.0, denom)
    t = np.where(crossing, s / safe, 0.0)
    cut = pts + t[:, :, None] * (p_next - pts)

    out = np.empty((B, 2 * S, 2), dtype=np.float64)
    valid = np.empty((B, 2 * S), dtype=bool)
    out[:, 0::2] = cut
    valid[:, 0::2] = crossing
    out[:, 1::2] = p_next
    valid[:, 1::2] = in_next

    # forward-fill invalid slots with the previous valid point (cyclically)
    idx = np.where(valid, np.arange(2 * S, dtype=np.int64)[None, :], -1)
    last = np.maximum.accumulate(idx, axis=1)
    tail = np.maximum(last[:, -1:], 0)
    fill = np.where(last >= 0, last, tail)
    return np.take_along_axis(out, fill[:, :, None], axis=1)


def _shoelace_batch(pts: np.ndarray) -> np.ndarray:
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    x2 = np.roll(x, -1, axis=1)
    y2 = np.roll(y, -1, axis=1)
    return np.maximum(0.5 * np.sum(x * y2 - x2 * y, axis=1), 0.0)


def _sector_areas(verts: np.ndarray, apex: Point, thetas: np.ndarray, phi: float) -> np.ndarray:
    B = thetas.shape[0]
    n = verts.shape[0]
    ax, ay = apex
    pts = np.broadcast_to(verts[None, :, :], (B, n, 2))

    # keep left of the right boundary ray
    nx = -np.sin(thetas)[:, None]
    ny = np.cos(thetas)[:, None]
    stage = _clip_batch(pts, nx, ny, nx * ax + ny * ay)

    # keep right of the left boundary ray
    tl = thetas + phi
    nx2 = np.sin(tl)[:, None]
    ny2 = -np.cos(tl)[:, None]
    stage = _clip_batch(stage, nx2, ny2, nx2 * ax + ny2 * ay)
    return _shoelace_batch(stage)


def _chunk(n: int) -> int:
    """Directions per clipping batch for an n-vertex polygon."""
    return max(1, _CHUNK_ELEMENTS // n)


def sweep_areas(poly: ConvexPolygon, apex: Point, thetas, phi: float) -> np.ndarray:
    """Clip areas of poly against sectors (apex, theta, phi) for each theta."""
    verts = np.asarray(poly.vertices, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64).ravel()
    out = np.empty(thetas.shape[0], dtype=np.float64)
    size = _chunk(len(verts))
    for start in range(0, thetas.shape[0], size):
        stop = min(start + size, thetas.shape[0])
        out[start:stop] = _sector_areas(verts, apex, thetas[start:stop], phi)
    return out


def clip_area_at(poly: ConvexPolygon, apex: Point, theta: float, phi: float) -> float:
    """Area of poly intersected with the sector at one direction.

    Purely clipping + shoelace; 0.0 when the intersection is empty.
    """
    return float(sweep_areas(poly, apex, np.array([theta], dtype=np.float64), phi)[0])


@dataclass(frozen=True)
class GridScan:
    step: float
    refine_rounds: int
    best_theta: float
    best_area: float


def grid_scan_max(
    poly: ConvexPolygon,
    apex: Point,
    phi: float,
    step: float = 1e-4,
    refine_rounds: int = 3,
    domain: Optional[Tuple[float, float]] = None,
) -> GridScan:
    """Dense grid argmax of the clip area over the admissible directions.

    Scans [span_lo - phi, span_hi] at the given step, then refines the grid
    tenfold around the incumbent for the requested number of rounds. Ties
    resolve to the smallest direction. Deterministic for fixed inputs.
    """
    if not 0.0 < step < math.inf:
        raise InvalidInputError("oracle step must be positive and finite")
    lo, hi = angular_span(poly, apex)
    a, b = lo - phi, hi
    if domain is not None:
        clipped = overlap_interval((a, b), (float(domain[0]), float(domain[1])))
        if clipped is None:
            return GridScan(step, refine_rounds, a, 0.0)
        a, b = clipped

    count = int(math.floor((b - a) / step)) + 1
    thetas = a + step * np.arange(count, dtype=np.float64)
    if thetas[-1] < b - 1e-15:
        thetas = np.append(thetas, b)

    areas = sweep_areas(poly, apex, thetas, phi)
    i = int(np.argmax(areas))  # the first of equal maxima
    best_theta, best_area = float(thetas[i]), float(areas[i])

    radius = step
    for _ in range(refine_rounds):
        local = best_theta + np.linspace(-radius, radius, 21)
        local = local[(local >= a) & (local <= b)]
        areas = sweep_areas(poly, apex, local, phi)
        for i in range(local.shape[0]):
            ai = float(areas[i])
            ti = float(local[i])
            if ai > best_area or (ai == best_area and ti < best_theta):
                best_area = ai
                best_theta = ti
        radius /= 10.0

    return GridScan(step, refine_rounds, best_theta, best_area)
