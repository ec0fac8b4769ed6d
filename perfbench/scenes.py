"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed and returns raw inputs: vertex
lists, apex points and openings, never `ConvexPolygon` objects, so each
timed operation starts from the data a caller would hand the library.
Polygons, apexes and the plain random scenes come from the test suite's
own generators in `tests/conftest.py`.

Importing this module imports the package under test, so the time to
import it is part of the benchmark's set-up time.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fovmax  # noqa: E402
from fovmax.geometry import angular_span, vertex_angle, wrap_to_pi  # noqa: E402


def _load_conftest():
    spec = importlib.util.spec_from_file_location("fovmax_test_generators", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_gen = _load_conftest()
random_convex_polygon = _gen.random_convex_polygon
external_apex = _gen.external_apex
random_scene = _gen.random_scene

# Shares of the small_scenes families. The plateau share these give is
# about 0.37, so the median solve falls inside the non-plateau solves and
# p90 does too; the share is recorded with every result.
SMALL_FAMILIES: Tuple[Tuple[str, float], ...] = (
    ("random", 0.35),
    ("seam", 0.15),
    ("near_degenerate", 0.15),
    ("narrow_phi", 0.10),
    ("wide_phi", 0.15),
    ("plateau", 0.10),
)
SMALL_SCENES = 2000
SMALL_PREC = 10

# The large_polygons inputs: sizes in shares 1:3:1, each half narrow and
# half wide. With these shares the median of the ten best times is the
# median n=1024 solve and the 90th percentile lies between the two n=4096
# solves. Ten polygons take about 8 s to solve, so a 50 s run solves each
# about six times, some seconds apart, and its best time is taken from
# those repeats.
LARGE_POLYGONS: Tuple[Tuple[int, str], ...] = (
    (256, "narrow"), (256, "wide"),
    (1024, "narrow"), (1024, "wide"), (1024, "narrow"),
    (1024, "wide"), (1024, "narrow"), (1024, "wide"),
    (4096, "narrow"), (4096, "wide"),
)
LARGE_PREC = 8

CLI_FILES = 16
CLI_N_RANGE = (8, 64)
CLI_DOMAIN_EVERY = 4  # every 4th scenario file carries a "domain" field
CLI_PREC = 8


@dataclass(frozen=True)
class Scene:
    vertices: List[Tuple[float, float]]
    apex: Tuple[float, float]
    phi: float
    family: str
    domain: Optional[Tuple[float, float]] = None
    path: Optional[str] = None


def _span(poly, apex) -> float:
    lo, hi = angular_span(poly, apex)
    return hi - lo


def _scene(poly, apex, phi, family, domain=None) -> Scene:
    return Scene(
        vertices=[(float(x), float(y)) for x, y in poly.vertices],
        apex=(float(apex[0]), float(apex[1])),
        phi=float(phi),
        family=family,
        domain=domain,
    )


def _plain_polygon(rng):
    n = int(rng.integers(3, 13))
    return random_convex_polygon(rng, n, rx=rng.uniform(0.8, 2.5))


def _seam_scene(rng) -> Scene:
    """Apex placed so the polygon's angular span straddles direction 0."""
    poly = _plain_polygon(rng)
    cx, cy = poly.centroid()
    rmax = max(math.hypot(x - cx, y - cy) for x, y in poly.vertices)
    a = math.pi + rng.uniform(-0.1, 0.1)
    r = rmax * rng.uniform(1.15, 3.0)
    apex = (cx + r * math.cos(a), cy + r * math.sin(a))
    return _scene(poly, apex, rng.uniform(0.05, 1.0), "seam")


def near_line_scene(rng, side: float, n_min: int = 3) -> Scene:
    """Apex beyond an edge's end, off the edge's line by a log-uniform
    1e-10 to 1e-8 of the edge length.

    `side` +1 puts the apex on the polygon's side of the line, -1 on the
    far side, where the solver falls back to clipping.
    """
    n = int(rng.integers(n_min, 13))
    poly = random_convex_polygon(rng, n, rx=rng.uniform(0.8, 2.5))
    vs = poly.vertices
    i = int(rng.integers(n))
    (ax, ay), (bx, by) = vs[i], vs[(i + 1) % n]
    length = math.hypot(bx - ax, by - ay)
    ux, uy = (bx - ax) / length, (by - ay) / length
    s = length * rng.uniform(0.5, 3.0)
    off = side * length * 10.0 ** rng.uniform(-10.0, -8.0)
    apex = (bx + s * ux - off * uy, by + s * uy + off * ux)
    phi = max(0.05, rng.uniform(0.1, 0.9) * _span(poly, apex))
    return _scene(poly, apex, phi, "near_degenerate")


def _near_degenerate_scene(rng) -> Scene:
    """Apex nearly on an edge's supporting line, or rays through vertices.

    The first kind is a `near_line_scene` with the apex on the far side
    of the line from the polygon and four to twelve vertices, which drives
    the clipping fallback. The polygon's side and triangles are left out
    because the solver raises on the first and can return a wrong answer
    on the second (NOTES.md, "Known defects"); `defects.py` runs both on
    every benchmark run and reports them apart from the workload. The
    second kind picks the opening as the angle between two vertex rays,
    so both boundary rays pass through vertices at once; openings below
    0.05 are skipped, as in the other families.
    """
    if rng.random() < 0.5:
        return near_line_scene(rng, -1.0, n_min=4)
    poly = _plain_polygon(rng)
    vs = poly.vertices
    apex = external_apex(rng, poly)
    lo, _ = angular_span(poly, apex)
    angles = sorted(lo + wrap_to_pi(vertex_angle(apex, v) - lo) for v in vs)
    pairs = [
        b - a
        for j, a in enumerate(angles)
        for b in angles[j + 1:]
        if 0.05 <= b - a < math.pi
    ]
    phi = pairs[int(rng.integers(len(pairs)))] if pairs else 0.5 * (angles[-1] - angles[0])
    return _scene(poly, apex, phi, "near_degenerate")


def _span_fraction_scene(rng, family: str, lo: float, hi: float) -> Scene:
    poly = _plain_polygon(rng)
    apex = external_apex(rng, poly)
    return _scene(poly, apex, rng.uniform(lo, hi) * _span(poly, apex), family)


def _plateau_scene(rng) -> Scene:
    """Opening wider than the angular span: a containment plateau."""
    poly = _plain_polygon(rng)
    apex = external_apex(rng, poly)
    span = _span(poly, apex)
    phi = span + rng.uniform(0.05, 0.95) * (math.pi - span)
    return _scene(poly, apex, phi, "plateau")


def _small_scene(rng, family: str) -> Scene:
    if family == "random":
        poly, apex, phi = random_scene(rng)
        return _scene(poly, apex, phi, family)
    if family == "seam":
        return _seam_scene(rng)
    if family == "near_degenerate":
        return _near_degenerate_scene(rng)
    if family == "narrow_phi":
        return _span_fraction_scene(rng, family, 0.05, 0.25)
    if family == "wide_phi":
        return _span_fraction_scene(rng, family, 0.6, 0.95)
    return _plateau_scene(rng)


def small_scenes(seed: int, count: int = SMALL_SCENES) -> List[Scene]:
    """Families in fixed shares, interleaved in a seeded order."""
    rng = np.random.default_rng(seed)
    families: List[str] = []
    for name, share in SMALL_FAMILIES:
        families += [name] * round(share * count)
    families = families[:count]
    rng.shuffle(families)
    return [_small_scene(rng, f) for f in families]


def large_polygons(seed: int, sizes: Optional[Dict[int, int]] = None) -> List[Scene]:
    """One scene per LARGE_POLYGONS entry; `sizes` maps sizes to stand-ins."""
    rng = np.random.default_rng(seed)
    out = []
    for n, kind in LARGE_POLYGONS:
        n = sizes.get(n, n) if sizes else n
        poly = random_convex_polygon(rng, n, rx=rng.uniform(0.8, 2.5))
        apex = external_apex(rng, poly)
        frac = rng.uniform(0.05, 0.2) if kind == "narrow" else rng.uniform(0.6, 0.9)
        out.append(_scene(poly, apex, frac * _span(poly, apex), "n%d_%s" % (n, kind)))
    return out


def _spread(rng, lo: float, hi: float, count: int) -> List[float]:
    """`count` evenly spaced values from lo to hi, in a seeded order."""
    values = [lo + (hi - lo) * k / max(count - 1, 1) for k in range(count)]
    rng.shuffle(values)
    return values


def cli_scenes(seed: int, count: int = CLI_FILES) -> List[Scene]:
    """Scenes for the CLI workloads.

    Size, apex distance and opening (as a fraction of the angular span)
    are each spread evenly over their range and paired in a seeded order,
    so every seed has the same mix of sizes and oracle scan widths. Every
    CLI_DOMAIN_EVERY-th scene restricts its directions to a window of
    0.15-0.4 of the admissible domain, placed at random, as the README's
    scenario example does.
    """
    rng = np.random.default_rng(seed)
    sizes = _spread(rng, CLI_N_RANGE[0], CLI_N_RANGE[1], count)
    distances = _spread(rng, 1.15, 3.0, count)
    fractions = _spread(rng, 0.1, 1.1, count)
    out = []
    for k in range(count):
        poly = random_convex_polygon(rng, round(sizes[k]), rx=rng.uniform(0.8, 2.5))
        apex = external_apex(rng, poly, distances[k], distances[k])
        first, last = angular_span(poly, apex)
        phi = min(fractions[k] * (last - first), math.pi - 1e-3)
        domain = None
        family = "plain"
        if k % CLI_DOMAIN_EVERY == CLI_DOMAIN_EVERY - 1:
            a, b = first - phi, last
            w = b - a
            d0 = a + rng.uniform(0.0, 0.6) * w
            d1 = d0 + rng.uniform(0.15, 0.4) * w
            turns = math.floor(d0 / (2.0 * math.pi))
            domain = (d0 - turns * 2.0 * math.pi, d1 - turns * 2.0 * math.pi)
            family = "domain"
        out.append(_scene(poly, apex, phi, family, domain))
    return out


def write_scenarios(scenes: List[Scene], directory: Path) -> List[Scene]:
    """Write one scenario JSON file per scene; returns scenes with paths."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for k, s in enumerate(scenes):
        doc = {
            "polygon": [list(v) for v in s.vertices],
            "apex": list(s.apex),
            "phi": s.phi,
            "precision_digits": CLI_PREC,
        }
        if s.domain is not None:
            doc["domain"] = list(s.domain)
        path = directory / ("scene%03d.json" % k)
        path.write_text(json.dumps(doc))
        out.append(Scene(s.vertices, s.apex, s.phi, s.family, s.domain, str(path)))
    return out


PREC = {"small_scenes": SMALL_PREC, "large_polygons": LARGE_PREC,
        "cli_solve": CLI_PREC, "cli_verify": CLI_PREC}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> List[Scene]:
    """All inputs of one workload; this is the timed part of set-up."""
    if workload == "small_scenes":
        return small_scenes(seed, 40 if tiny else SMALL_SCENES)
    if workload == "large_polygons":
        return large_polygons(seed, {256: 16, 1024: 32, 4096: 64} if tiny else None)
    if workload in ("cli_solve", "cli_verify"):
        return write_scenarios(cli_scenes(seed, 3 if tiny else CLI_FILES), workdir / "scenarios")
    raise ValueError("unknown workload %r" % (workload,))


def family_shares(scenes: List[Scene]) -> Dict[str, float]:
    counts: Dict[str, int] = {}
    for s in scenes:
        counts[s.family] = counts.get(s.family, 0) + 1
    return {k: v / len(scenes) for k, v in sorted(counts.items())}
