"""Per-stage times of a solve, for one or more source trees in one process.

    python tools/stage_times.py [--seed 1] [--repeat 15] [SRC ...]

Each SRC is a directory that holds the fovmax package (default: this
checkout's src/). The scenes are perfbench's large_polygons for the seed
(or small_scenes with --small N, the first N of them). Within every
repetition of a scene the trees take turns, and each stage's best of
--repeat runs is added to that tree's sum. The stages are the
ConvexPolygon constructor, vertex_partition, breakpoints, build_cells,
maximize_cell (one call for each cell that the scene's solve passes to
it, timed together) and the visit loop (solve_scene less the four stages
before it). On a containment plateau (an opening that covers the
polygon's angular span) the solve builds no breakpoints or cells, so
those two stages count 0 there and are not subtracted. whole is the
benchmark's operation, the constructor and maximize_global in one call.
Times are in ms, summed over the scenes. Then come two counts, summed
over the scenes: visited, the CellTable.visit calls of one solve_scene
per scene, and solved, its maximize_cell calls.
Below them come each tree's scenes_per_s, solve_ms_p50 and solve_ms_p90,
computed from the scenes' best whole times as perfbench/run.py computes
them from its own (percentiles interpolated linearly).
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = (
    "ConvexPolygon", "vertex_partition", "breakpoints", "build_cells", "maximize_cell",
    "visit", "whole",
)
COUNTS = ("visited", "solved")


def _fovmax_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "fovmax" or k.startswith("fovmax.")}


def _load(src: Path):
    """A fresh import of fovmax from src, kept apart from other copies;
    the caller's fovmax modules are put back afterwards."""
    saved = _fovmax_modules()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("fovmax.solver")
    finally:
        sys.path.remove(str(src))
        for name in _fovmax_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _solved_cells(solver, poly, apex, phi, prec: float, domain) -> tuple:
    """(cell, precision) for each maximize_cell call of one solve_scene,
    the number of its CellTable.visit calls, and its SceneDetails."""
    real_solve, real_build = solver.maximize_cell, solver.build_cells
    calls, visited = [], []

    def record(cell, precision):
        calls.append((cell, precision))
        return real_solve(cell, precision)

    def build(*args):
        table = real_build(*args)
        visit = table.visit  # the solve reads it from the table it built

        def count(i, floor):
            visited.append(i)
            return visit(i, floor)

        table.visit = count
        return table

    solver.maximize_cell, solver.build_cells = record, build
    try:
        details = solver.solve_scene(poly, apex, phi, prec, domain)[1]
    finally:
        solver.maximize_cell, solver.build_cells = real_solve, real_build
    return calls, len(visited), details


def _counts(solver, scene, prec: float) -> dict:
    """The COUNTS of one solve_scene of the scene."""
    poly = solver.ConvexPolygon(scene.vertices)
    solved, visited, _ = _solved_cells(solver, poly, scene.apex, scene.phi, prec, scene.domain)
    return {"visited": visited, "solved": len(solved)}


def _stages(solver, scene, prec: float) -> dict:
    """One call per stage that a solve of the scene runs, each ready to time."""
    poly_t = solver.ConvexPolygon
    vs, apex, phi, domain = scene.vertices, scene.apex, scene.phi, scene.domain
    poly = poly_t(vs)
    part = solver.vertex_partition(poly, apex)
    solved, _, details = _solved_cells(solver, poly, apex, phi, prec, domain)

    def maximize_cells():
        for cell, precision in solved:
            solver.maximize_cell(cell, precision)

    stages = {
        "ConvexPolygon": lambda: poly_t(vs),
        "vertex_partition": lambda: solver.vertex_partition(poly, apex),
        "maximize_cell": maximize_cells,
        "solve_scene": lambda: solver.solve_scene(poly, apex, phi, prec, domain),
        "whole": lambda: solver.maximize_global(poly_t(vs), apex, phi, prec, domain),
    }
    if details.num_cells:  # not a containment plateau
        dom = details.domain
        bps = solver.breakpoints(part.sorted_angles, phi, domain=dom)
        stages["breakpoints"] = lambda: solver.breakpoints(part.sorted_angles, phi, domain=dom)
        stages["build_cells"] = lambda: solver.build_cells(poly, apex, part, phi, bps)
    return stages


def _scene_times(solvers, scene, prec: float, repeat: int) -> list:
    """Each stage's best time in ms per tree; the trees take turns within
    every repetition, so a slow spell of the machine hits them alike."""
    calls = [_stages(solver, scene, prec) for solver in solvers]
    best = [dict.fromkeys(stages, float("inf")) for stages in calls]
    for _ in range(repeat):
        for stages, out in zip(calls, best):
            for stage, fn in stages.items():
                t = time.perf_counter()
                fn()
                out[stage] = min(out[stage], 1e3 * (time.perf_counter() - t))
    for out in best:
        solve = out.pop("solve_scene")
        out.setdefault("breakpoints", 0.0)
        out.setdefault("build_cells", 0.0)
        out["visit"] = solve - sum(
            out[stage] for stage in ("vertex_partition", "breakpoints", "build_cells", "maximize_cell")
        )
    return best


def _percentile(ms: list, tenths: int) -> float:
    """The given decile of ms, interpolated linearly as numpy.percentile
    does (quantiles' inclusive method)."""
    return ms[0] if len(ms) == 1 else statistics.quantiles(ms, n=10, method="inclusive")[tenths - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--small", type=int, default=0, help="time the first N small_scenes instead")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import scenes  # imports this checkout's fovmax, which _load keeps apart

    if args.small:
        scene_list, prec = scenes.small_scenes(args.seed)[: args.small], scenes.SMALL_PREC
    else:
        scene_list, prec = scenes.large_polygons(args.seed), scenes.LARGE_PREC
    solvers = [_load(src.resolve()) for src in args.src]
    totals = [dict.fromkeys(STAGES + COUNTS, 0) for _ in solvers]
    wholes = [[] for _ in solvers]
    for scene in scene_list:
        for total, whole, times in zip(totals, wholes, _scene_times(solvers, scene, prec, args.repeat)):
            for stage, ms in times.items():
                total[stage] += ms
            whole.append(times["whole"])
        for total, solver in zip(totals, solvers):
            for count, value in _counts(solver, scene, prec).items():
                total[count] += value

    print("%-18s" % "stage" + "".join("%14s" % src.resolve().parent.name for src in args.src))
    for stage in STAGES:
        print("%-18s" % stage + "".join("%14.2f" % total[stage] for total in totals))
    for count in COUNTS:
        print("%-18s" % count + "".join("%14d" % total[count] for total in totals))
    print("%-18s" % "scenes_per_s" + "".join("%14.1f" % (1e3 * len(w) / sum(w)) for w in wholes))
    print("%-18s" % "solve_ms_p50" + "".join("%14.4f" % _percentile(w, 4) for w in wholes))
    print("%-18s" % "solve_ms_p90" + "".join("%14.4f" % _percentile(w, 8) for w in wholes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
