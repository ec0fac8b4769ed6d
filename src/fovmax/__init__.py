"""Rotating-sector coverage maximization over convex polygons.

Given a convex polygon and a sector pinned at an apex outside it, find the
sector direction maximizing the intersection area. The closed-form area of
a sector between two polygon edge lines drives a cell-by-cell Newton
search; an independent clipping oracle cross-checks every result.
"""

from .geometry import (
    ConvexPolygon,
    InvalidInputError,
    Line,
    NearSingularError,
    Sector,
    UnsupportedSceneError,
    clip_halfplane,
    normalize_angle,
    sector_clip,
    shoelace_area,
    vertex_angle,
    wrap_to_pi,
)
from .wedge import (
    PhiExtrema,
    StaticWedge,
    d_area_d_opening,
    opening_extrema,
    two_sector_area,
    wedge_from_lines,
)
from .cells import (
    RotationCell,
    SectionPartition,
    angular_order,
    breakpoints,
    build_cells,
    cell_descriptor,
    section_edges,
    section_wedge,
    vertex_partition,
)
from .solver import (
    Precision,
    SolveResult,
    cell_objective,
    maximize_cell,
    maximize_global,
    objective_by_clipping,
    safeguarded_root,
    solve_scene,
)
from .oracle import GridScan, clip_area_at, grid_scan_max, sweep_areas

__version__ = "0.1.0"

__all__ = [
    "ConvexPolygon",
    "GridScan",
    "InvalidInputError",
    "Line",
    "NearSingularError",
    "PhiExtrema",
    "Precision",
    "RotationCell",
    "SectionPartition",
    "Sector",
    "SolveResult",
    "StaticWedge",
    "UnsupportedSceneError",
    "angular_order",
    "breakpoints",
    "build_cells",
    "cell_descriptor",
    "cell_objective",
    "clip_area_at",
    "clip_halfplane",
    "d_area_d_opening",
    "grid_scan_max",
    "maximize_cell",
    "maximize_global",
    "normalize_angle",
    "objective_by_clipping",
    "opening_extrema",
    "safeguarded_root",
    "sector_clip",
    "section_edges",
    "section_wedge",
    "shoelace_area",
    "solve_scene",
    "sweep_areas",
    "two_sector_area",
    "vertex_angle",
    "vertex_partition",
    "wedge_from_lines",
    "__version__",
]
