"""Byte-identity corpus: solve output pinned on seeded scenes.

`tests/corpus.json` holds, for every scene of `corpus_scenes()`, the exact
`repr` of `theta_star` and `area`, the `cell_index`, the `num_cells` and
the breakpoints (their count and a SHA-256 of the `repr` of the tuple) that
`solve_scene` returned when the file was recorded. A change that moves any
of them fails here; a change that fixes an answer on purpose re-records the
file and says why. The scenes come from the `conftest.py` generators and
cover plain and seam scenes, near-line apexes on both sides of an edge's
line (triangles included), nearly merged rays, collinear merges, domain
windows, containment plateaus, a 1e-6 rad opening and n = 256 and 1024.

Regenerate the file from the repository root with

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); import test_corpus; test_corpus.record()"
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fovmax.geometry import ConvexPolygon, angular_span
from fovmax.solver import solve_scene
from conftest import external_apex, random_convex_polygon, random_scene

CORPUS = Path(__file__).resolve().parent / "corpus.json"


def _near_line_apex(poly, i, along, off):
    """Apex `along` edge lengths beyond the end of edge i and `off` edge
    lengths off its line, on the polygon's side when off > 0."""
    (ax, ay), (bx, by) = poly.vertices[i], poly.vertices[(i + 1) % len(poly)]
    ex, ey = bx - ax, by - ay
    return (bx + along * ex - off * ey, by + along * ey + off * ex)


def _span_phi(poly, apex, frac):
    first, last = angular_span(poly, apex)
    return frac * (last - first)


def corpus_scenes():
    """(name, vertices, apex, phi, prec, domain) for every corpus scene."""
    out = []

    def add(name, poly, apex, phi, prec=8, domain=None):
        out.append((name, poly.vertices, apex, float(phi), prec, domain))

    rng = np.random.default_rng(9001)
    for k in range(14):
        # the first two draw openings up to 2.5 rad, mostly plateaus
        poly, apex, phi = random_scene(rng, n_max=24, phi_hi=2.5 if k < 2 else 1.2)
        add("plain%d" % k, poly, apex, phi, prec=8 if k % 2 else 10)
    for k in range(6):
        # the polygon's angular span straddles direction 0
        poly = random_convex_polygon(rng, int(rng.integers(3, 13)), rx=float(rng.uniform(0.8, 2.5)))
        cx, cy = poly.centroid()
        rmax = max(math.hypot(x - cx, y - cy) for x, y in poly.vertices)
        a = math.pi + float(rng.uniform(-0.1, 0.1))
        r = rmax * float(rng.uniform(1.15, 3.0))
        apex = (cx + r * math.cos(a), cy + r * math.sin(a))
        add("seam%d" % k, poly, apex, rng.uniform(0.05, 1.0))
    for side, tag in ((1.0, "inner"), (-1.0, "outer")):
        for k, n in enumerate((3, 3, 4, 6, 9, 12)):
            poly = random_convex_polygon(rng, n, rx=float(rng.uniform(0.8, 2.5)))
            off = side * 10.0 ** float(rng.uniform(-10.0, -8.0))
            apex = _near_line_apex(poly, int(rng.integers(n)), float(rng.uniform(0.5, 3.0)), off)
            add("near_%s%d_n%d" % (tag, k, n), poly, apex,
                max(0.05, _span_phi(poly, apex, float(rng.uniform(0.1, 0.9)))), prec=10)
    quad = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.5, 1.0), (0.2, 0.8)])
    for gap in (4e-13, 1e-12, 1.3e-12, 3e-12, 1e-9):
        # edge 0's two vertex rays about gap rad apart
        add("near_ray_%g" % gap, quad, (2.0, 2.0 * gap), 0.3)
    square = ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)])
    add("collinear_square", square, (0.0, 0.0), 0.1)
    add("collinear_triangle", ConvexPolygon([(1, 0), (2, 0), (1, 1)]), (0.0, 0.0), 0.2)
    add("tall_square", ConvexPolygon([(-1, 1), (1, 1), (1, 3), (-1, 3)]), (0.0, 0.0), 0.5)
    for k in range(8):
        poly = random_convex_polygon(rng, int(rng.integers(3, 40)), rx=float(rng.uniform(0.8, 2.5)))
        apex = external_apex(rng, poly)
        phi = _span_phi(poly, apex, float(rng.uniform(0.05, 0.95)))
        first, last = angular_span(poly, apex)
        lo, width = first - phi, last - first + phi
        start = lo + float(rng.uniform(0.0, 0.6)) * width
        domain = (start, start + float(rng.uniform(0.15, 0.4)) * width)
        if k % 4 == 3:
            domain = (domain[0] + 2.0 * math.pi, domain[1] + 2.0 * math.pi)
        add("domain%d" % k, poly, apex, phi, domain=domain)
    # domains that start on the first vertex ray and 5e-13 rad inside it
    poly = random_convex_polygon(rng, 10, rx=1.5)
    apex = external_apex(rng, poly)
    first, last = angular_span(poly, apex)
    phi = _span_phi(poly, apex, 0.3)
    add("domain_at_ray", poly, apex, phi, domain=(first, last))
    add("domain_near_ray", poly, apex, phi, domain=(first + 5e-13, last - 5e-13))
    for k in range(4):
        poly = random_convex_polygon(rng, int(rng.integers(3, 13)), rx=float(rng.uniform(0.8, 2.5)))
        apex = external_apex(rng, poly)
        first, last = angular_span(poly, apex)
        span = last - first
        add("plateau%d" % k, poly, apex, span + float(rng.uniform(0.05, 0.95)) * (math.pi - span))
    for k in range(3):
        poly = random_convex_polygon(rng, int(rng.integers(3, 13)), rx=2.0)
        add("tiny_phi%d" % k, poly, external_apex(rng, poly), 1e-6)
    for n in (256, 1024):
        for tag, lo, hi in (("narrow", 0.05, 0.2), ("wide", 0.6, 0.9)):
            poly = random_convex_polygon(rng, n, rx=float(rng.uniform(0.8, 2.5)))
            apex = external_apex(rng, poly)
            add("n%d_%s" % (n, tag), poly, apex, _span_phi(poly, apex, float(rng.uniform(lo, hi))))
    return out


def solve_record(vertices, apex, phi, prec, domain):
    """The pinned fields of one solve, as strings and integers."""
    try:
        res, details = solve_scene(ConvexPolygon(vertices), apex, phi, prec, domain)
    except (ValueError, RuntimeError) as exc:
        return {"error": "%s: %s" % (type(exc).__name__, exc)}
    bps = repr(tuple(details.breakpoints))
    return {
        "theta_star": repr(res.theta_star),
        "area": repr(res.area),
        "cell_index": res.cell_index,
        "num_cells": details.num_cells,
        "num_breakpoints": len(details.breakpoints),
        "breakpoints_sha256": hashlib.sha256(bps.encode()).hexdigest(),
    }


def record(path=CORPUS):
    """Solve every corpus scene with the fovmax on sys.path and write the file."""
    doc = {name: solve_record(*rest) for name, *rest in corpus_scenes()}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


SCENES = corpus_scenes()


def test_corpus_covers_every_scene():
    expected = json.loads(CORPUS.read_text())
    assert sorted(expected) == sorted(name for name, *_ in SCENES)
    assert len(SCENES) >= 60


@pytest.mark.parametrize("scene", SCENES, ids=[s[0] for s in SCENES])
def test_solve_output_is_byte_identical(scene):
    name, *rest = scene
    assert solve_record(*rest) == json.loads(CORPUS.read_text())[name]
