"""Deterministic SVG drawing of a solved scene.

One fixed-size SVG 1.1 document: polygon outline, apex marker, dashed
section rays, thin breakpoint direction lines, exactly one filled sector
path at the optimal direction, and a text label with the direction and
area. Optionally an inset polyline with the oracle-sampled area profile
over the direction domain. All coordinates are printed with a fixed
format, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .geometry import ConvexPolygon, InvalidInputError, Point
from .cells import SectionPartition
from . import oracle

_WIDTH = 640.0
_PAD = 24.0

_STYLE = (
    ".poly{fill:#dbe9f6;stroke:#1f4e79;stroke-width:1.5}"
    ".apex{fill:#c00000;stroke:none}"
    ".section-ray{stroke:#7f7f7f;stroke-width:0.8;stroke-dasharray:5 4;fill:none}"
    ".breakpoint-line{stroke:#bfbfbf;stroke-width:0.4;fill:none}"
    ".sector-fill{fill:#ffa500;fill-opacity:0.25;stroke:#b26500;stroke-width:1}"
    ".label{font:13px monospace;fill:#202020}"
    ".profile-box{fill:#ffffff;fill-opacity:0.85;stroke:#909090;stroke-width:0.6}"
    ".profile-sweep{stroke:#1f4e79;stroke-width:1;fill:none}"
    ".profile-mark{stroke:#c00000;stroke-width:0.8;fill:none}"
)


def _fmt(v: float) -> str:
    s = "%.3f" % (v,)
    return "0.000" if s == "-0.000" else s


def _fmt_sig(v: float) -> str:
    return "%.12g" % (v,)


class _Frame:
    """World-to-page mapping with a y flip (SVG y grows downward)."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        self.minx, self.maxx = min(xs), max(xs)
        self.miny, self.maxy = min(ys), max(ys)
        spanx = max(self.maxx - self.minx, 1e-9)
        spany = max(self.maxy - self.miny, 1e-9)
        self.scale = (_WIDTH - 2.0 * _PAD) / spanx
        self.height = spany * self.scale + 2.0 * _PAD

    def map(self, p: Point) -> Tuple[float, float]:
        return (
            _PAD + (p[0] - self.minx) * self.scale,
            _PAD + (self.maxy - p[1]) * self.scale,
        )

    def pt(self, p: Point) -> str:
        x, y = self.map(p)
        return _fmt(x) + "," + _fmt(y)


def _ray_end(apex: Point, angle: float, radius: float) -> Point:
    return (apex[0] + radius * math.cos(angle), apex[1] + radius * math.sin(angle))


def render_svg(
    poly: ConvexPolygon,
    apex: Point,
    phi: float,
    theta_star: float,
    area: float,
    partition: SectionPartition,
    breakpoint_dirs: Sequence[float],
    domain: Tuple[float, float],
    show_breakpoints: bool = True,
    profile_samples: Optional[int] = None,
) -> str:
    radius = 1.12 * max(math.hypot(v[0] - apex[0], v[1] - apex[1]) for v in poly.vertices)

    xs = [v[0] for v in poly.vertices] + [apex[0]]
    ys = [v[1] for v in poly.vertices] + [apex[1]]
    # the sector arc can stick out past the polygon; include sampled arc points
    for k in range(17):
        a = theta_star + phi * k / 16.0
        end = _ray_end(apex, a, radius)
        xs.append(end[0])
        ys.append(end[1])
    for a in partition.sorted_angles:
        end = _ray_end(apex, a, radius)
        xs.append(end[0])
        ys.append(end[1])
    frame = _Frame(xs, ys)

    parts: List[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%s" height="%s" viewBox="0 0 %s %s">'
        % (_fmt(_WIDTH), _fmt(frame.height), _fmt(_WIDTH), _fmt(frame.height))
    )
    parts.append("<style>" + _STYLE + "</style>")

    parts.append(
        '<polygon class="poly" points="%s"/>'
        % " ".join(frame.pt(v) for v in poly.vertices)
    )

    if show_breakpoints:
        for d in breakpoint_dirs:
            end = frame.map(_ray_end(apex, d, radius))
            ax, ay = frame.map(apex)
            parts.append(
                '<line class="breakpoint-line" x1="%s" y1="%s" x2="%s" y2="%s"/>'
                % (_fmt(ax), _fmt(ay), _fmt(end[0]), _fmt(end[1]))
            )

    for a in partition.sorted_angles:
        end = frame.map(_ray_end(apex, a, radius))
        ax, ay = frame.map(apex)
        parts.append(
            '<line class="section-ray" x1="%s" y1="%s" x2="%s" y2="%s"/>'
            % (_fmt(ax), _fmt(ay), _fmt(end[0]), _fmt(end[1]))
        )

    # one filled sector: apex -> right-ray tip, arc to left-ray tip, close.
    # The page y flip turns the counter-clockwise world sweep into a
    # clockwise page sweep, hence sweep flag 0; phi < pi keeps large-arc 0.
    p0 = frame.map(_ray_end(apex, theta_star, radius))
    p1 = frame.map(_ray_end(apex, theta_star + phi, radius))
    ax, ay = frame.map(apex)
    r_page = radius * frame.scale
    parts.append(
        '<path class="sector-fill" d="M %s %s L %s %s A %s %s 0 0 0 %s %s Z"/>'
        % (
            _fmt(ax),
            _fmt(ay),
            _fmt(p0[0]),
            _fmt(p0[1]),
            _fmt(r_page),
            _fmt(r_page),
            _fmt(p1[0]),
            _fmt(p1[1]),
        )
    )

    parts.append('<circle class="apex" cx="%s" cy="%s" r="3"/>' % (_fmt(ax), _fmt(ay)))

    if profile_samples is not None:
        if profile_samples < 2:
            raise InvalidInputError("profile samples must be at least 2")
        parts.extend(
            _profile_inset(poly, apex, phi, theta_star, domain, profile_samples)
        )

    parts.append(
        '<text class="label" x="%s" y="%s">theta* = %s  area = %s</text>'
        % (_fmt(_PAD), _fmt(frame.height - 8.0), _fmt_sig(theta_star), _fmt_sig(area))
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _profile_inset(
    poly: ConvexPolygon,
    apex: Point,
    phi: float,
    theta_star: float,
    domain: Tuple[float, float],
    samples: int,
) -> List[str]:
    lo, hi = domain
    thetas = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    areas = oracle.sweep_areas(poly, apex, thetas, phi)
    amax = max(float(a) for a in areas)
    amax = amax if amax > 0.0 else 1.0

    bx, by, bw, bh = _WIDTH - _PAD - 200.0, _PAD, 200.0, 100.0
    pts = []
    for t, a in zip(thetas, areas):
        px = bx + bw * (t - lo) / (hi - lo) if hi > lo else bx
        py = by + bh * (1.0 - float(a) / amax)
        pts.append(_fmt(px) + "," + _fmt(py))
    mark_x = bx + bw * (theta_star - lo) / (hi - lo) if hi > lo else bx
    return [
        '<rect class="profile-box" x="%s" y="%s" width="%s" height="%s"/>'
        % (_fmt(bx), _fmt(by), _fmt(bw), _fmt(bh)),
        '<polyline class="profile-sweep" points="%s"/>' % " ".join(pts),
        '<line class="profile-mark" x1="%s" y1="%s" x2="%s" y2="%s"/>'
        % (_fmt(mark_x), _fmt(by), _fmt(mark_x), _fmt(by + bh)),
    ]
