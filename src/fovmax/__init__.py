"""Rotating-sector coverage maximization over convex polygons.

Given a convex polygon and a sector pinned at an apex outside it, find the
sector direction maximizing the intersection area. The closed-form area of
a sector between two polygon edge lines drives a cell-by-cell Newton
search; an independent clipping oracle cross-checks every result.

The package exports the names the README lists; everything else is
importable from its own module (geometry, wedge, cells, solver, oracle).
"""

from .geometry import (
    ConvexPolygon,
    InvalidInputError,
    NearSingularError,
    UnsupportedSceneError,
)
from .wedge import opening_extrema, two_sector_area
from .cells import build_cells, vertex_partition
from .solver import maximize_cell, maximize_global, safeguarded_root, solve_scene
from .oracle import clip_area_at, grid_scan_max

__version__ = "0.1.0"

__all__ = [
    "ConvexPolygon",
    "InvalidInputError",
    "NearSingularError",
    "UnsupportedSceneError",
    "build_cells",
    "clip_area_at",
    "grid_scan_max",
    "maximize_cell",
    "maximize_global",
    "opening_extrema",
    "safeguarded_root",
    "solve_scene",
    "two_sector_area",
    "vertex_partition",
]
