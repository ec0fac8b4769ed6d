import math

import numpy as np
import pytest

from fovmax.geometry import ConvexPolygon
from fovmax.wedge import wedge_from_lines


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def piece_counts(monkeypatch):
    """A list that gains, for each cell solver._maxima solves, the pieces it
    takes past the concave test of the whole cell: none for a cell concave
    as a whole, otherwise every piece, the whole cell among them."""
    from fovmax import solver

    real_piece, real_maxima = solver._on_piece, solver._maxima
    highs, counts = [], []

    def on_piece(terms, a, b):
        out = real_piece(terms, a, b)
        highs.append(out[3])
        return out

    def maxima(terms, lo, hi, xtol):
        highs.clear()
        out = real_maxima(terms, lo, hi, xtol)
        # a cell concave as a whole is its only piece
        concave = highs[0] < 0.0
        assert not concave or len(highs) == 1
        counts.append(0 if concave else len(highs))
        return out

    monkeypatch.setattr(solver, "_on_piece", on_piece)
    monkeypatch.setattr(solver, "_maxima", maxima)
    return counts


def random_convex_polygon(rng, n, center=(0.0, 0.0), rx=1.0, ry=None, rot=None):
    """Convex CCW polygon: jittered points on a rotated ellipse.

    Evenly spaced parameter angles with bounded jitter keep the points
    strictly ordered, so convexity and orientation hold by construction.
    """
    ry = ry if ry is not None else rx * rng.uniform(0.4, 1.0)
    rot = rot if rot is not None else rng.uniform(0.0, 2.0 * math.pi)
    base = 2.0 * math.pi / n
    t = np.arange(n) * base + rng.uniform(-0.35, 0.35, size=n) * base
    cx = rx * np.cos(t)
    cy = ry * np.sin(t)
    cr, sr = math.cos(rot), math.sin(rot)
    xs = center[0] + cr * cx - sr * cy
    ys = center[1] + sr * cx + cr * cy
    return ConvexPolygon(list(zip(xs.tolist(), ys.tolist())))


def external_apex(rng, poly, min_factor=1.15, max_factor=3.0):
    cx, cy = poly.centroid()
    rmax = max(math.hypot(v[0] - cx, v[1] - cy) for v in poly.vertices)
    a = rng.uniform(0.0, 2.0 * math.pi)
    r = rmax * rng.uniform(min_factor, max_factor)
    return (cx + r * math.cos(a), cy + r * math.sin(a))


def random_scene(rng, n_max=12, phi_lo=0.05, phi_hi=2.5):
    n = int(rng.integers(3, n_max + 1))
    poly = random_convex_polygon(rng, n, rx=rng.uniform(0.8, 2.5))
    apex = external_apex(rng, poly)
    phi = float(rng.uniform(phi_lo, phi_hi))
    return poly, apex, phi


def random_wedge_config(rng, min_width=0.35):
    """A wedge whose direction window provably contains the mid direction.

    Both lines cross the mid-direction ray transversally, the near one
    first; regenerates until the window is wide enough to sample inside.
    """
    while True:
        mu = float(rng.uniform(0.0, 2.0 * math.pi))
        apex = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
        rn = float(rng.uniform(0.4, 2.0))
        rf = rn + float(rng.uniform(0.3, 3.0))
        an = mu + math.pi / 2.0 + float(rng.uniform(-1.2, 1.2))
        af = mu + math.pi / 2.0 + float(rng.uniform(-1.2, 1.2))
        near = ((apex[0] + rn * math.cos(mu), apex[1] + rn * math.sin(mu)), an)
        far = ((apex[0] + rf * math.cos(mu), apex[1] + rf * math.sin(mu)), af)
        w = wedge_from_lines(apex, far, near)
        if w.window_width() >= min_width:
            return w, apex, far, near


def sample_inside_window(rng, w, phi_cap=2.5, margin_frac=0.05):
    """(theta, phi) with the whole sector strictly inside the window."""
    width = w.window_width()
    margin = margin_frac * width
    phi_max = min(phi_cap, width - 2.0 * margin, math.pi - 1e-3)
    phi = float(rng.uniform(min(0.05, 0.5 * phi_max), phi_max))
    theta = w.window_lo + margin + float(rng.uniform(0.0, 1.0)) * (
        width - 2.0 * margin - phi
    )
    return theta, phi
