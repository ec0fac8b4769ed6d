import math

import numpy as np
import pytest

from fovmax.cells import breakpoints, vertex_partition
from fovmax.geometry import ConvexPolygon
from fovmax import oracle
from fovmax.oracle import clip_area_at, grid_scan_max, sweep_areas
from conftest import external_apex, random_convex_polygon

TALL_SQUARE = ConvexPolygon([(-1, 1), (1, 1), (1, 3), (-1, 3)])
SMALL_SQUARE = ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)])
ORIGIN = (0.0, 0.0)


def test_clip_area_containment():
    assert clip_area_at(TALL_SQUARE, ORIGIN, math.pi / 4, math.pi / 2) == pytest.approx(4.0)


def test_clip_area_left_half():
    assert clip_area_at(TALL_SQUARE, ORIGIN, math.pi / 2, math.pi / 4) == pytest.approx(2.0)


def test_clip_area_disjoint():
    assert clip_area_at(TALL_SQUARE, ORIGIN, 3.5, 0.3) == 0.0


def test_sweep_matches_scalar():
    thetas = np.linspace(0.3, 2.2, 97)
    swept = sweep_areas(TALL_SQUARE, ORIGIN, thetas, 0.7)
    for t, a in zip(thetas, swept):
        assert float(a) == clip_area_at(TALL_SQUARE, ORIGIN, float(t), 0.7)


def test_grid_scan_symmetric_argmax():
    scan = grid_scan_max(TALL_SQUARE, ORIGIN, math.pi / 3, step=1e-4, refine_rounds=3)
    assert scan.best_theta == pytest.approx(math.pi / 3, abs=1e-6)


def test_grid_scan_containment_plateau():
    # phi wider than the angular span: a whole interval attains the polygon
    # area bitwise; the scan must settle on its smallest direction
    scan = grid_scan_max(TALL_SQUARE, ORIGIN, 2.0, step=1e-4, refine_rounds=3)
    assert scan.best_area == 4.0
    plateau_lo = 3 * math.pi / 4 - 2.0
    assert plateau_lo - 1e-4 <= scan.best_theta <= plateau_lo + 2e-4


def test_grid_scan_best_area_matches_evaluator():
    scan = grid_scan_max(SMALL_SQUARE, ORIGIN, 0.1, step=1e-3, refine_rounds=2)
    assert scan.best_area == clip_area_at(SMALL_SQUARE, ORIGIN, scan.best_theta, 0.1)


def test_grid_scan_finer_step_never_worse():
    areas = [
        grid_scan_max(SMALL_SQUARE, ORIGIN, 0.1, step=s, refine_rounds=0).best_area
        for s in (4e-4, 2e-4, 1e-4)
    ]
    assert areas[0] <= areas[1] + 1e-10
    assert areas[1] <= areas[2] + 1e-10


def test_grid_scan_refinement_never_worse():
    base = grid_scan_max(SMALL_SQUARE, ORIGIN, 0.1, step=1e-3, refine_rounds=0)
    for rounds in (1, 2, 3):
        refined = grid_scan_max(SMALL_SQUARE, ORIGIN, 0.1, step=1e-3, refine_rounds=rounds)
        assert refined.best_area >= base.best_area - 1e-15


def test_grid_scan_disjoint_domain():
    scan = grid_scan_max(SMALL_SQUARE, ORIGIN, 0.1, step=1e-3, domain=(3.0, 4.0))
    assert scan.best_area == 0.0


def test_chunk_bounded_at_n4096():
    # the second clip pads every direction to 4n points of 2 floats: a
    # fixed 8192-direction chunk needed 2.1 GB per array at n = 4096
    assert oracle._chunk(4096) * 4 * 4096 * 2 * 8 <= 2 * 2**20
    assert oracle._chunk(8) == 4096
    assert oracle._chunk(10**7) == 1


def test_grid_scan_does_not_depend_on_chunk(rng, monkeypatch):
    poly = random_convex_polygon(rng, 40, rx=2.0)
    apex = external_apex(rng, poly)
    whole = grid_scan_max(poly, apex, 0.4, step=1e-3, refine_rounds=2)
    thetas = np.linspace(-1.0, 7.0, 5001)
    swept = sweep_areas(poly, apex, thetas, 0.4)
    monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", 40 * 7)
    assert oracle._chunk(40) == 7
    assert grid_scan_max(poly, apex, 0.4, step=1e-3, refine_rounds=2) == whole
    assert np.array_equal(sweep_areas(poly, apex, thetas, 0.4), swept)


def test_grid_scan_restricted_domain():
    scan = grid_scan_max(SMALL_SQUARE, ORIGIN, 0.1, step=1e-4, refine_rounds=2, domain=(0.0, 0.5))
    assert scan.best_theta <= 0.5 + 1e-12
    assert scan.best_area == pytest.approx(clip_area_at(SMALL_SQUARE, ORIGIN, 0.5, 0.1), rel=1e-6)


def test_continuity_in_theta(rng):
    # |A(theta + h) - A(theta)| stays tiny for h = 1e-8 at random directions
    for _ in range(4):
        poly = random_convex_polygon(rng, int(rng.integers(3, 10)), rx=2.0)
        apex = external_apex(rng, poly)
        phi = float(rng.uniform(0.1, 2.5))
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=250)
        h = 1e-8
        a0 = sweep_areas(poly, apex, thetas, phi)
        a1 = sweep_areas(poly, apex, thetas + h, phi)
        assert float(np.max(np.abs(a1 - a0))) <= 1e-4 * poly.area


@pytest.mark.parametrize(
    "poly,phi",
    [(TALL_SQUARE, 1.2), (SMALL_SQUARE, 0.5)],
    ids=["tall", "small"],
)
def test_kinks_localize_at_breakpoints(poly, phi):
    # the sweep is C1 (crossing points vary continuously through shared
    # vertices), so breakpoints show up as jumps of the second difference
    part = vertex_partition(poly, ORIGIN)
    bps = np.array(breakpoints(part.sorted_angles, phi))
    h = 5e-4
    thetas = np.arange(bps[0] - 0.02, bps[-1] + 0.02, h)
    f = sweep_areas(poly, ORIGIN, thetas, phi)
    d2 = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    jump = np.abs(np.diff(d2))
    spike_level = 20.0 * np.median(jump) + 0.5
    spikes = thetas[2:-1][jump > spike_level]
    assert spikes.size > 0
    for t in spikes:
        assert np.min(np.abs(bps - t)) <= 2.0 * h
