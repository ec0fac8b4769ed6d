"""Timed closed loops, output checks and metrics for each workload.

Every workload is a closed loop: one caller in one process issues the
next operation when the last one has finished; there are no threads and
no `workers=`. An operation is one call from raw input to answer:

* small_scenes, large_polygons: `ConvexPolygon(vertices)` (validation
  included) then `maximize_global`, in process;
* cli_solve, cli_verify: one cold `python -m fovmax solve <file>`
  process, without and with `--verify`.

Untraced runs report the end-to-end metrics. Traced runs alternate an
untraced and a traced pass over the same operations and report the
per-layer metrics from the traced passes; the difference between the
two passes is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import fovmax.cli
from fovmax import ConvexPolygon, maximize_global
from fovmax.geometry import Sector
from fovmax.solver import solve_scene

import checks
import defects
import scenes
from scenes import Scene
from spans import SpanTable, Tracer, instrument

ROOT = scenes.ROOT
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

CHILD_TIMEOUT_S = 60.0
SETUP_SAMPLES = 9  # this process plus eight fresh ones
PROBE_FILES = 3
PROBE_REPEATS = 5
SECTOR_CLIP_PROBES = 50
TRACED_PAIRS = 3  # at most, per traced run

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scenes
from pathlib import Path
scenes.build(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]), sys.argv[5] == "1")
print(time.perf_counter() - t0)
"""

IMPORT_CHILD = """
import time
t0 = time.perf_counter()
import {module}
print(time.perf_counter() - t0)
"""


@dataclass
class Op:
    scene: int
    ms: float
    theta: Optional[float] = None
    area: Optional[float] = None
    cell_index: Optional[int] = None
    error: Optional[str] = None
    rss_mb: Optional[float] = None


def child_env() -> Dict[str, str]:
    """This process's environment, with the checkout's src first on the path.

    It includes BLAS_THREADS, which run.py sets before numpy loads.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: List[str]) -> Tuple[int, bytes, float, float]:
    """Run one process to completion: (exit code, output, wall ms, peak RSS MB).

    `os.wait4` gives the child's own resource usage, so the peak RSS is
    per child, not the high-water mark of all children.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=child_env(), cwd=str(ROOT))
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    ms = (time.perf_counter() - t0) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, ms, usage.ru_maxrss / 1024.0


def parse_record(text: str) -> Optional[dict]:
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- operations ----------------------------------------------------------

def solve_op(scene_list: List[Scene], prec: float, tracer: Optional[Tracer] = None) -> Callable[[int], Op]:
    def op(i: int) -> Op:
        s = scene_list[i]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = maximize_global(ConvexPolygon(s.vertices), s.apex, s.phi, prec)
            else:
                with tracer.span("op"):
                    with tracer.span("geometry.polygon_validate"):
                        poly = ConvexPolygon(s.vertices)
                    res = maximize_global(poly, s.apex, s.phi, prec)
        except Exception as exc:  # a raise on a valid scene is a failed operation
            return Op(i, (time.perf_counter() - t0) * 1e3, error="%s: %s" % (type(exc).__name__, exc))
        ms = (time.perf_counter() - t0) * 1e3
        return Op(i, ms, res.theta_star, res.area, res.cell_index)
    return op


def _record_op(i: int, ms: float, code: int, text: str, rss_mb: Optional[float] = None) -> Op:
    record = parse_record(text)
    op = Op(i, ms, rss_mb=rss_mb)
    if record is not None and "theta_star" in record:
        op.theta, op.area, op.cell_index = record["theta_star"], record["area"], record["cell_index"]
    if code != 0:
        op.error = "exit code %d: %s" % (code, text.strip()[-200:])
    return op


def cold_op(scene_list: List[Scene], verify: bool) -> Callable[[int], Op]:
    def op(i: int) -> Op:
        argv = [sys.executable, "-m", "fovmax", "solve", scene_list[i].path]
        code, out, ms, rss = run_child(argv + (["--verify"] if verify else []))
        return _record_op(i, ms, code, out.decode("utf-8", "replace"), rss)
    return op


def in_process_cli_op(scene_list: List[Scene], verify: bool, tracer: Optional[Tracer] = None,
                      root: str = "op") -> Callable[[int], Op]:
    """`fovmax.cli.main` in this process, so its calls can be traced."""
    def op(i: int) -> Op:
        argv = ["solve", scene_list[i].path] + (["--verify"] if verify else [])
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if tracer is None:
                code = fovmax.cli.main(argv)
            else:
                with tracer.span(root):
                    code = fovmax.cli.main(argv)
        return _record_op(i, (time.perf_counter() - t0) * 1e3, code, out.getvalue())
    return op


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(op: Callable[[int], Op], n_inputs: int, seconds: float) -> Tuple[List[Op], float, float]:
    """Issue operations back to back until `seconds` have passed and every
    input has been used; inputs are taken in order and reused from the
    start once all have been used.

    Returns the operations, the loop time and this process's peak RSS once
    every input has been used. Later operations only repeat inputs, and
    the records kept for checking grow with their number, so a faster
    program would otherwise show more memory.
    """
    ops: List[Op] = []
    rss = None
    t0 = time.perf_counter()
    while True:
        ops.append(op(len(ops) % n_inputs))
        if rss is None and len(ops) >= n_inputs:
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - t0
        if rss is not None and elapsed >= seconds:
            return ops, elapsed, rss


# -- checks --------------------------------------------------------------

class Checker:
    """Checks each distinct answer once; identical repeats share the verdict.

    With `cli_prec`, answers come from the CLI and are compared with an
    in-process `solve_scene` at that precision, which is checked in turn.
    """

    def __init__(self, scene_list: List[Scene], cli_prec: Optional[float] = None) -> None:
        self.scenes = scene_list
        self.cli_prec = cli_prec
        self._prepared: Dict[int, tuple] = {}
        self._scans: Dict[int, Tuple[float, float]] = {}
        self._verdicts: Dict[tuple, List[str]] = {}

    def _prepare(self, i: int) -> tuple:
        """(polygon, direction domain, in-process answer or its error)."""
        if i not in self._prepared:
            s = self.scenes[i]
            poly = ConvexPolygon(s.vertices)
            domain = checks.admissible_domain(poly, s.apex, s.phi, s.domain)
            reference = None
            if self.cli_prec is not None:
                try:
                    res, _ = solve_scene(poly, s.apex, s.phi, self.cli_prec, s.domain)
                    reference = (res.theta_star, res.area)
                except Exception as exc:  # reported as the reason the run is wrong
                    reference = "%s: %s" % (type(exc).__name__, exc)
            self._prepared[i] = (poly, domain, reference)
        return self._prepared[i]

    def _solve_reasons(self, i: int, theta: float, area: float) -> List[str]:
        poly, domain, _ = self._prepare(i)
        s = self.scenes[i]
        if i not in self._scans:
            self._scans[i] = checks.oracle_scan(poly, s.apex, s.phi, domain)
        return checks.check_solve(poly, s.apex, s.phi, theta, area, domain, self._scans[i])

    def wrong(self, op: Op) -> List[str]:
        """Reasons the operation's answer is wrong (empty when it is right
        or when the operation produced no answer)."""
        if op.theta is None:
            return []
        key = (op.scene, op.theta, op.area)
        if key not in self._verdicts:
            if self.cli_prec is None:
                reasons = self._solve_reasons(op.scene, op.theta, op.area)
            else:
                reference = self._prepare(op.scene)[2]
                if isinstance(reference, str):
                    reasons = ["in-process solve_scene raised " + reference]
                else:
                    reasons = checks.cli_mismatch(op.theta, op.area, *reference)
                    reasons += self._solve_reasons(op.scene, *reference)
            self._verdicts[key] = reasons
        return self._verdicts[key]


def judge(ops: List[Op], checker: Checker) -> Tuple[bool, int, List[str]]:
    """(all answers right, failed operations, first 20 failure notes,
    wrong answers first)."""
    wrong: List[str] = []
    errors: List[str] = []
    for op in ops:
        reasons = checker.wrong(op)
        if reasons:
            wrong.append("scene %d: wrong answer: %s" % (op.scene, "; ".join(reasons)))
        if op.error:
            errors.append("scene %d: %s" % (op.scene, op.error))
    failed = sum(1 for op in ops if op.error or checker.wrong(op))
    return not wrong, failed, (wrong + errors)[:20]


# -- environment ---------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fovmax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -- runs ----------------------------------------------------------------

def setup_seconds(workload: str, seed: int, tiny: bool) -> List[float]:
    """Set-up time of fresh processes: import plus input generation."""
    out = []
    for k in range(SETUP_SAMPLES - 1):
        workdir = OUT / ("setup-%d-%d" % (os.getpid(), k))
        try:
            code, text, _, _ = run_child([sys.executable, "-c", SETUP_CHILD, str(HERE), workload,
                                          str(seed), str(workdir), "1" if tiny else "0"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if code != 0:
            raise RuntimeError("set-up process failed: %s" % text.decode("utf-8", "replace"))
        out.append(float(text.decode().strip().splitlines()[-1]))
    return out


def end_to_end(workload: str, seed: int, seconds: float, scene_list: List[Scene],
               setup_main_s: float, tiny: bool) -> Tuple[dict, dict]:
    prec = scenes.PREC[workload]
    setup = [setup_main_s] + setup_seconds(workload, seed, tiny)
    cold = workload in ("cli_solve", "cli_verify")
    if cold:
        op = cold_op(scene_list, verify=workload == "cli_verify")
        op(0)  # warm the page cache and the bytecode cache
    else:
        op = solve_op(scene_list, prec)
        warm_until = time.perf_counter() + min(0.5, 0.05 * seconds)
        k = 0
        while time.perf_counter() < warm_until:
            op(k % len(scene_list))
            k += 1
    ops, elapsed, own_rss = closed_loop(op, len(scene_list), seconds)
    peak_rss = max(o.rss_mb for o in ops) if cold else own_rss
    checker = Checker(scene_list, prec if cold else None)
    correct, failed, notes = judge(ops, checker)
    best = best_ms(ops)
    latencies = [o.ms for o in ops]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "scenes_per_s": (1e3 * len(best) / sum(best.values()), "1/s"),
        "solve_ms_p50": (percentile(list(best.values()), 50), "ms"),
        "solve_ms_p90": (percentile(list(best.values()), 90), "ms"),
    }
    info = {
        "failure_rate": (failed / len(ops), "ratio"),
        "operations": (len(ops), "count"),
        "measured_s": (elapsed, "s"),
        "distinct_scenes_used": (len(best), "count"),
        "loop_scenes_per_s": (len(ops) / elapsed, "1/s"),
        "loop_ms_p50": (percentile(latencies, 50), "ms"),
        "loop_ms_p90": (percentile(latencies, 90), "ms"),
        "plateau_share": (_plateau_share(ops), "ratio"),
        "setup_samples_s": (setup, "s"),
    }
    info.update(_workload_info(workload, scene_list, ops))
    extra = {"correct": correct, "attempted": len(ops), "failed": failed, "failures": notes,
             "families": scenes.family_shares(scene_list), "info": info}
    return metrics, extra


def best_ms(ops: List[Op]) -> Dict[int, float]:
    """Each input's fastest operation in the run, in ms.

    The timing metrics are taken over these. On a shared machine the same
    work runs slower for seconds at a time; an input's fastest repeat is
    the time its solve takes when nothing else slows it, so it moves with
    the program and much less with the machine.
    """
    best: Dict[int, float] = {}
    for o in ops:
        best[o.scene] = min(o.ms, best.get(o.scene, math.inf))
    return best


def _plateau_share(ops: List[Op]) -> float:
    solved = [o for o in ops if o.cell_index is not None]
    return sum(o.cell_index == -1 for o in solved) / max(len(solved), 1)


def _workload_info(workload: str, scene_list: List[Scene], ops: List[Op]) -> dict:
    """Workload-specific names for numbers the generic metrics carry, and
    the per-size medians and size slope of large_polygons."""
    if workload == "small_scenes":
        return {}
    best = best_ms(ops)
    if workload in ("cli_solve", "cli_verify"):
        name = "cold_solve_ms_p50" if workload == "cli_solve" else "cold_verify_ms_p50"
        return {name: (percentile(list(best.values()), 50), "ms")}
    by_size: Dict[int, List[float]] = {}
    for i, ms in best.items():
        by_size.setdefault(len(scene_list[i].vertices), []).append(ms)
    sizes = sorted(by_size)
    info = {"solve_ms_n%d" % n: (statistics.median(by_size[n]), "ms") for n in sizes}
    lo, hi = sizes[0], sizes[-1]
    slope = math.log(statistics.median(by_size[hi]) / statistics.median(by_size[lo])) / math.log(hi / lo)
    info["size_slope"] = (slope, "1")
    return info


def per_layer(workload: str, seed: int, seconds: float, scene_list: List[Scene],
              tiny: bool) -> Tuple[dict, dict]:
    prec = scenes.PREC[workload]
    op_count = len(scene_list)  # one pass uses every input once
    cold = workload in ("cli_solve", "cli_verify")
    tracer = Tracer()
    if cold:
        verify = workload == "cli_verify"
        plain_op = in_process_cli_op(scene_list, verify)
        traced_op = in_process_cli_op(scene_list, verify, tracer)
    else:
        plain_op = solve_op(scene_list, prec)
        traced_op = solve_op(scene_list, prec, tracer)
    for i in range(min(op_count, 20)):
        plain_op(i)  # warm-up
    untraced_s = traced_s = 0.0
    ops: List[Op] = []
    t0 = time.perf_counter()
    pair_s = 0.0
    # a new pair starts only if it should end within `seconds`; the cap
    # keeps the span arrays small, and counts are the same in every pass
    while not ops or (len(ops) < 2 * op_count * TRACED_PAIRS
                      and time.perf_counter() - t0 + pair_s <= seconds):
        u0 = time.perf_counter()
        ops += [plain_op(i) for i in range(op_count)]
        u1 = time.perf_counter()
        with instrument(tracer):
            ops += [traced_op(i) for i in range(op_count)]
        u2 = time.perf_counter()
        untraced_s += u1 - u0
        traced_s += u2 - u1
        pair_s = u2 - u0
    traced_ops = len(ops) // 2

    checker = Checker(scene_list, prec if cold else None)
    correct, failed, notes = judge(ops, checker)

    # geometry.sector_clip: calls at the answers of the first pass
    solved = [o for o in ops[:op_count] if o.theta is not None]
    with instrument(tracer):
        for k in range(SECTOR_CLIP_PROBES):
            o = solved[k % len(solved)]
            s = scene_list[o.scene]
            poly = ConvexPolygon(s.vertices)
            with tracer.span("probe"):
                fovmax.solver.sector_clip(poly, Sector(s.apex, o.theta, s.phi))

    fresh_process_metrics = cli_probes(seed, tracer, tiny)
    table = SpanTable(tracer)
    tracer.write(OUT / ("%s-seed%d-spans.npz" % (workload, seed)))

    def per_op_ms(name: str) -> float:
        return table.total_ms(name, "op") / traced_ops

    def per_op_count(name: str) -> float:
        return table.count(name, "op") / traced_ops

    sections = table.size_total("cells.build_cells", "op")
    candidates = table.size_total("solver.solve_scene", "op") + table.size_total("cli.solve_scene", "op")
    metrics = {
        "cells.vertex_partition_ms": (per_op_ms("cells.vertex_partition"), "ms"),
        "cells.angular_order_ms": (per_op_ms("cells.angular_order"), "ms"),
        "cells.section_edges_ms": (per_op_ms("cells.section_edges"), "ms"),
        "cells.breakpoints_ms": (per_op_ms("cells.breakpoints"), "ms"),
        "cells.build_cells_ms": (per_op_ms("cells.build_cells"), "ms"),
        "cells.cells": (per_op_count("solver.maximize_cell"), "count"),
        "cells.wedge_builds": (per_op_count("wedge.wedge_from_lines"), "count"),
        "cells.wedge_builds_per_section": (
            table.count("wedge.wedge_from_lines", "op") / max(sections, 1), "ratio"),
        "wedge.wedge_from_lines_ms": (per_op_ms("wedge.wedge_from_lines"), "ms"),
        "wedge.opening_extrema_calls": (per_op_count("wedge.opening_extrema"), "count"),
        "wedge.rotation_pieces_calls": (per_op_count("wedge.rotation_pieces"), "count"),
        "wedge.derivative_calls": (per_op_count("wedge.derivative"), "count"),
        "wedge.second_derivative_calls": (per_op_count("wedge.second_derivative"), "count"),
        "solver.maximize_cell_self_ms": (
            table.self_total_ms("solver.maximize_cell", "op") / traced_ops, "ms"),
        "solver.candidates_evaluated": (candidates / traced_ops, "count"),
        "solver.clip_fallbacks": (per_op_count("solver.objective_by_clipping"), "count"),
        "solver.solve_scene_self_ms": (
            (table.self_total_ms("solver.solve_scene", "op")
             + table.self_total_ms("cli.solve_scene", "op")) / traced_ops, "ms"),
        "solver.plateau_share": (_plateau_share(ops), "ratio"),
        "geometry.polygon_validate_ms": (per_op_ms("geometry.polygon_validate"), "ms"),
        "geometry.sector_clip_ms": (
            statistics.median(table.durations_ms("geometry.sector_clip", "probe")), "ms"),
        "trace.overhead_ms": ((traced_s - untraced_s) * 1e3 / traced_ops, "ms"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1.0) * 100.0, "%"),
    }
    directions = table.size_total("oracle.sweep_areas", "probe")
    metrics.update({
        "cli.solve_runtime_ms": (
            statistics.median(table.durations_ms("cli.solve_scene", "probe")), "ms"),
        "oracle.grid_scan_ms": (
            statistics.median(table.durations_ms("oracle.grid_scan_max", "probe")), "ms"),
        "oracle.directions": (directions / table.count("oracle.grid_scan_max", "probe"), "count"),
        "oracle.us_per_direction": (
            table.total_ms("oracle.sweep_areas", "probe") * 1e3 / directions, "us"),
    })
    metrics.update(fresh_process_metrics)
    info = {
        "traced_operations": (traced_ops, "count"),
        "untraced_s": (untraced_s, "s"),
        "traced_s": (traced_s, "s"),
        "spans": (len(table.name), "count"),
        "failure_rate": (failed / len(ops), "ratio"),
    }
    extra = {"correct": correct, "attempted": len(ops), "failed": failed, "failures": notes,
             "families": scenes.family_shares(scene_list), "info": info}
    return metrics, extra


def cli_probes(seed: int, tracer: Tracer, tiny: bool) -> Dict[str, tuple]:
    """The CLI layer on this seed's first CLI scenes, whatever the workload.

    In this process, traced under the root span "probe": `fovmax.cli.main
    solve --verify` on each file. In fresh processes: interpreter start,
    the import of numpy and of `fovmax.cli`, and a cold `--verify` run per
    file for its peak RSS. Returns the fresh-process metrics.
    """
    workdir = OUT / ("probe-%d" % os.getpid())
    try:
        files = scenes.write_scenarios(scenes.cli_scenes(seed, PROBE_FILES), workdir)
        probe = in_process_cli_op(files, verify=True, tracer=tracer, root="probe")
        with instrument(tracer):
            for i in range(len(files)):
                probe(i)
        repeats = 2 if tiny else PROBE_REPEATS
        start_ms = [run_child([sys.executable, "-c", "pass"])[2] for _ in range(repeats)]
        import_ms = {}
        for module in ("numpy", "fovmax.cli"):
            import_ms[module] = []
            for _ in range(repeats):
                code, out, _, _ = run_child([sys.executable, "-c", IMPORT_CHILD.format(module=module)])
                if code != 0:
                    raise RuntimeError("import probe failed: %s" % out.decode("utf-8", "replace"))
                import_ms[module].append(float(out.decode().strip().splitlines()[-1]) * 1e3)
        verify_rss = [run_child([sys.executable, "-m", "fovmax", "solve", f.path, "--verify"])[3]
                      for f in files]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "cli.interpreter_start_ms": (statistics.median(start_ms), "ms"),
        "cli.import_ms": (statistics.median(import_ms["fovmax.cli"]), "ms"),
        "cli.numpy_import_ms": (statistics.median(import_ms["numpy"]), "ms"),
        "oracle.peak_rss_mb": (max(verify_rss), "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, inputs, setup_main_s: float,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    if trace:
        metrics, extra = per_layer(workload, seed, seconds, inputs, tiny)
    else:
        metrics, extra = end_to_end(workload, seed, seconds, inputs, setup_main_s, tiny)
    extra["info"].update(defects.probe(seed))
    report = {"workload": workload, "trace": int(trace), "seconds": seconds,
              "environment": environment(seed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **extra}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / ("%s-seed%d-trace%d.json" % (workload, seed, int(trace)))).write_text(
        json.dumps(report, indent=2, default=float))
    for name, (value, unit) in sorted(extra["info"].items()):
        print("info %-28s %s %s" % (name, value, unit))
    for name, (value, unit) in metrics.items():
        print("metric %-28s %.6g %s" % (name, value, unit))
    print("families %s" % json.dumps(extra["families"]))
    print("environment %s" % json.dumps(report["environment"]))
    for note in extra["failures"]:
        print("failure %s" % note)
    return {
        "correct": extra["correct"],
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": report["metrics"],
    }
