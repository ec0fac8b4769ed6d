"""Command line front end: solve and render scenario files.

A scenario is one JSON document:

    {"polygon": [[x, y], ...], "apex": [x, y], "phi": 0.5,
     "precision_digits": 8, "domain": [0.0, 3.0]}

Angles are radians everywhere. `solve` prints a single JSON record,
`render` writes an SVG. Exit codes: 0 success, 2 invalid input (the
message names the violated invariant), 3 unsupported configuration,
4 oracle cross-check mismatch under --verify.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import sys
import time
from typing import Optional, Sequence, Tuple

from .geometry import TWO_PI, ConvexPolygon, InvalidInputError, UnsupportedSceneError
from .geometry import check_opening
from .cells import breakpoints as compute_breakpoints
from .cells import vertex_partition
from .oracle import grid_scan_max
from .render import render_svg
from .solver import SceneDetails, direction_domain, solve_scene
from .solver import objective_by_clipping


def _jdump(obj, pretty: bool = False, level: int = 0) -> str:
    """JSON text with floats at 12 significant digits, fixed key order."""
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(obj, dict):
        items = [json.dumps(k) + (": " if pretty else ":") + _jdump(v, pretty, level + 1)
                 for k, v in obj.items()]
        if pretty:
            return "{\n" + ",\n".join(pad + s for s in items) + "\n" + close_pad + "}"
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        items = [_jdump(v, pretty, level + 1) for v in obj]
        if pretty:
            return "[\n" + ",\n".join(pad + s for s in items) + "\n" + close_pad + "]"
        return "[" + ",".join(items) + "]"
    if isinstance(obj, float):
        return "%.12g" % (obj,)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _number(value, message: str) -> float:
    """A JSON number, not a bool, as a float: past float range, +-inf."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidInputError(message)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_pair(value, message: str) -> Tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidInputError(message)
    return _number(value[0], message), _number(value[1], message)


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInputError("scenario file not readable: %s" % (exc,))
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInputError("scenario file is not valid JSON: %s" % (exc,))
    if not isinstance(doc, dict):
        raise InvalidInputError("scenario must be a JSON object")

    if "polygon" not in doc or "apex" not in doc or "phi" not in doc:
        raise InvalidInputError("scenario requires polygon, apex and phi fields")
    poly = doc["polygon"]
    if not isinstance(poly, list) or len(poly) < 3:
        raise InvalidInputError("polygon needs at least 3 vertices")
    vertices = [_require_pair(v, "polygon vertices must be [x, y] pairs") for v in poly]
    apex = _require_pair(doc["apex"], "apex must be an [x, y] pair")
    phi = _number(doc["phi"], "phi must be a number (radians)")

    out = {"polygon": vertices, "apex": apex, "phi": phi}
    if "precision_digits" in doc and doc["precision_digits"] is not None:
        out["precision_digits"] = _number(doc["precision_digits"], "precision_digits must be a number")
    if "domain" in doc and doc["domain"] is not None:
        out["domain"] = _require_pair(doc["domain"], "domain must be an [a, b] pair")
    return out


def _parse_domain_flag(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError("domain flag must be two comma-separated radians: a,b")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise InvalidInputError("domain flag must be two comma-separated radians: a,b")


def _solve(args) -> Tuple[dict, "ConvexPolygon", Tuple[float, float], float, object, object]:
    """Solve (or, with --at-theta, evaluate) the scenario; the direction
    domain is resolved here once, the flag before the scenario's."""
    scenario = load_scenario(args.scenario)
    poly = ConvexPolygon(scenario["polygon"])
    apex = scenario["apex"]
    phi = scenario["phi"]
    precision = (
        args.precision
        if args.precision is not None
        else scenario.get("precision_digits", 8.0)
    )
    domain = _parse_domain_flag(args.domain) if args.domain else scenario.get("domain")

    t0 = time.perf_counter()
    if getattr(args, "at_theta", None) is not None:
        record, details = _evaluate_fixed(poly, apex, phi, float(args.at_theta), domain)
    else:
        result, details = solve_scene(poly, apex, phi, precision, domain)
        record = {
            "theta_star": result.theta_star,
            "area": result.area,
            "cell_index": result.cell_index,
            "num_cells": details.num_cells,
        }
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    if not args.no_breakpoints:
        record["breakpoints"] = [float(b) for b in details.breakpoints]
    record["runtime_ms"] = runtime_ms
    return record, poly, apex, phi, domain, details


def _evaluate_fixed(poly, apex, phi, theta, domain):
    """Fixed-direction evaluation: clip area plus the cell the direction hits.

    The domain is resolved as solve_scene resolves it, and theta is moved
    by whole turns into the breakpoints' range, so every spelling of one
    direction lands in the same cell.
    """
    check_opening(phi)
    part = vertex_partition(poly, apex)
    dom = direction_domain(part, phi, domain)
    bps = [] if dom is None else compute_breakpoints(part.sorted_angles, phi, domain=dom)
    cell_index = -2
    if len(bps) >= 2:
        turned = bps[0] + (theta - bps[0]) % TWO_PI
        if turned <= bps[-1]:
            cell_index = min(max(bisect.bisect_right(bps, turned) - 1, 0), len(bps) - 2)
    details = SceneDetails(
        partition=part, breakpoints=tuple(bps), domain=dom, num_cells=max(len(bps) - 1, 0)
    )
    record = {
        "theta_star": theta,
        "area": objective_by_clipping(poly, apex, theta, phi),
        "cell_index": cell_index,
        "num_cells": details.num_cells,
    }
    return record, details


def run_solve(args) -> int:
    record, poly, apex, phi, domain, _ = _solve(args)
    code = 0
    if args.verify:
        scan = grid_scan_max(poly, apex, phi, step=args.oracle_step, refine_rounds=3, domain=domain)
        delta_theta = abs(math.remainder(record["theta_star"] - scan.best_theta, 2.0 * math.pi))
        delta_area = abs(record["area"] - scan.best_area)
        record["verify"] = {
            "oracle_theta": scan.best_theta,
            "oracle_area": scan.best_area,
            "delta_theta": delta_theta,
            "delta_area": delta_area,
        }
        if delta_area > 1e-6 * max(abs(record["area"]), 1e-12):
            code = 4
    sys.stdout.write(_jdump(record, pretty=args.pretty) + "\n")
    return code


def run_render(args) -> int:
    record, poly, apex, phi, _, details = _solve(args)
    svg = render_svg(
        poly,
        apex,
        phi,
        theta_star=record["theta_star"],
        area=record["area"],
        partition=details.partition,
        breakpoint_dirs=tuple(details.breakpoints),
        domain=details.domain,
        show_breakpoints=not args.no_breakpoints,
        profile_samples=args.samples if args.profile == "sweep" else None,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fovmax",
        description="Maximize the intersection area of a rotating sector and a convex polygon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument(
            "--precision",
            type=float,
            default=None,
            help="accuracy digits for theta (default 8, scenario may override)",
        )
        p.add_argument("--domain", default=None, help="restrict directions to a,b (radians)")
        p.add_argument(
            "--no-breakpoints",
            action="store_true",
            help="solve: omit breakpoints from the record; render: omit breakpoint lines",
        )

    p_solve = sub.add_parser("solve", help="print the optimal direction as a JSON record")
    common(p_solve)
    p_solve.add_argument("--verify", action="store_true", help="cross-check against the grid oracle")
    p_solve.add_argument(
        "--oracle-step", type=float, default=1e-4, help="oracle grid step in radians"
    )
    p_solve.add_argument("--pretty", action="store_true", help="indent the output record")
    p_solve.add_argument(
        "--at-theta",
        type=float,
        default=None,
        help="skip optimization; report the clipped area at this direction",
    )
    p_solve.set_defaults(func=run_solve)

    p_render = sub.add_parser("render", help="write an SVG of the solved scene")
    common(p_render)
    p_render.add_argument("out", help="output SVG path")
    p_render.add_argument(
        "--profile", choices=["sweep"], default=None, help="add an inset area-vs-direction plot"
    )
    p_render.add_argument(
        "--samples", type=int, default=360, help="profile sample count (with --profile sweep)"
    )
    p_render.set_defaults(func=run_render)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2
    except UnsupportedSceneError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
