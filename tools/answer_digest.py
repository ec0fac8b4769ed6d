"""A digest of the solver's answers, for one or more source trees.

    python tools/answer_digest.py [SRC ...]

Each SRC is a directory that holds the fovmax package (default: this
checkout's src/), imported apart from the others as tools/stage_times.py
imports it. The corpus is perfbench's small_scenes for seeds 1 to 3,
large_polygons for seeds 1 and 2 and cli_scenes for seeds 1 to 10, each
scene solved by solve_scene at its workload's precision and at 12 digits.
Every fourth cli scene restricts its directions to a domain, so its
breakpoints are clamped to that domain. Every solve gives one record:
theta_star, area and achieved_bracket as float.hex, cell_index,
candidates_evaluated, the cell count and the breakpoints as float.hex, or
the type and message of what the scene raised. One line per tree gives
the number of solves and the SHA-256 of the records, so equal digests
mean bit-identical answers. With two trees or more, every record of a
later tree that differs from the first tree's is printed, old and new,
followed by one summary line per later tree: how many records differ,
how many of those moved theta_star, area or cell_index and how many
changed only candidates_evaluated or achieved_bracket, the largest
|delta theta| (mod 2 pi) in units of 10**-prec, and the largest area
loss as a share of the polygon area.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import math
import sys
from pathlib import Path
from typing import List, Tuple

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent

_spec = importlib.util.spec_from_file_location("stage_times", TOOLS / "stage_times.py")
stage_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_times)


def corpus(scenes) -> List[tuple]:
    """(scene, prec) for every solve, from perfbench's scenes module."""
    runs = []
    for seed in (1, 2, 3):
        small = scenes.small_scenes(seed)
        runs += [(scene, prec) for prec in (scenes.SMALL_PREC, 12) for scene in small]
    for seed in (1, 2):
        large = scenes.large_polygons(seed)
        runs += [(scene, prec) for prec in (scenes.LARGE_PREC, 12) for scene in large]
    for seed in range(1, 11):
        cli = scenes.cli_scenes(seed)
        runs += [(scene, prec) for prec in (scenes.CLI_PREC, 12) for scene in cli]
    return runs


def _record(solver, scene, prec) -> str:
    try:
        poly = solver.ConvexPolygon(scene.vertices)
        res, details = solver.solve_scene(poly, scene.apex, scene.phi, prec, scene.domain)
    # InvalidInputError and UnsupportedSceneError derive from these two
    except (ValueError, RuntimeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    fields = [res.theta_star, res.area, res.achieved_bracket]
    counts = [res.cell_index, res.candidates_evaluated, details.num_cells]
    return " ".join(
        [*(float(v).hex() for v in fields), *map(str, counts)]
        + [float(b).hex() for b in details.breakpoints]
    )


def records(src: Path, runs) -> List[str]:
    """The record of every solve in runs, for the fovmax package in src;
    the caller's fovmax modules stay in place."""
    solver = stage_times._load(src.resolve())
    return [_record(solver, scene, prec) for scene, prec in runs]


def _sha256(recs: List[str]) -> str:
    h = hashlib.sha256()
    for rec in recs:
        h.update(rec.encode() + b"\n")
    return h.hexdigest()


def digest(src: Path, runs) -> Tuple[int, str]:
    """(number of solves, SHA-256 hex digest of their records) for the
    fovmax package in src."""
    return len(runs), _sha256(records(src, runs))


def moves(runs, old: List[str], new: List[str], polygon_area) -> List[str]:
    """One entry per solve whose record differs between old and new, then
    a summary line. polygon_area(scene) gives the area that the area loss
    is divided by; a record of a raised error moves no number."""
    out = []
    dtheta = loss = 0.0
    moved = counts_only = 0
    for (scene, prec), a, b in zip(runs, old, new):
        if a == b:
            continue
        out.append("%s prec %g\n  - %s\n  + %s" % (scene.family, prec, a, b))
        fa, fb = a.split(), b.split()
        try:
            (ta, aa), (tb, ab) = [map(float.fromhex, f[:2]) for f in (fa, fb)]
        except ValueError:
            continue
        # theta_star, area, achieved_bracket, cell_index, candidates_evaluated, ...
        if fa[:2] != fb[:2] or fa[3] != fb[3]:
            moved += 1
        elif fa[5:] == fb[5:]:
            counts_only += 1
        dtheta = max(dtheta, abs(math.remainder(tb - ta, 2.0 * math.pi)) * 10.0**prec)
        loss = max(loss, (aa - ab) / polygon_area(scene))
    out.append(
        "%d of %d records differ (%d moved theta_star, area or cell_index, %d changed only"
        " candidates_evaluated or achieved_bracket); largest |dtheta| %.3g x 10**-prec,"
        " largest area loss %.3g x polygon area"
        % (len(out), len(runs), moved, counts_only, dtheta, loss)
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"])
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import scenes  # imports this checkout's fovmax, which _load keeps apart

    from fovmax.geometry import ConvexPolygon

    runs = corpus(scenes)
    trees = [records(src, runs) for src in args.src]
    for src, recs in zip(args.src, trees):
        print("%s  %d solves  sha256 %s" % (src, len(recs), _sha256(recs)))
    for src, recs in zip(args.src[1:], trees[1:]):
        print("%s against %s:" % (src, args.src[0]))
        for line in moves(runs, trees[0], recs, lambda scene: ConvexPolygon(scene.vertices).area):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
