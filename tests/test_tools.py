"""Smoke tests of the scripts under tools/, which import the solver by
name: a rename in the package breaks them here, not silently."""

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import fovmax.solver

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_stage_times_runs(monkeypatch, capsys):
    tool = _tool("stage_times")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds perfbench/
    assert tool.main(["--small", "3", "--repeat", "1"]) == 0
    # the tool timed its own copy of the package and left this one in place
    assert sys.modules["fovmax.solver"] is fovmax.solver
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    for row in (*tool.STAGES, "scenes_per_s", "solve_ms_p50", "solve_ms_p90"):
        assert len(rows[row]) == 1 and math.isfinite(float(rows[row][0])), row
    assert float(rows["scenes_per_s"][0]) > 0.0


def test_stage_times_compares_two_trees(monkeypatch, capsys):
    # the A/B mode behind every timing comparison: one column per tree
    tool = _tool("stage_times")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert tool.main(["--small", "3", "--repeat", "1", str(ROOT / "src"), str(ROOT / "src")]) == 0
    assert sys.modules["fovmax.solver"] is fovmax.solver
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert len(rows["stage"]) == 2
    for row in (*tool.STAGES, "scenes_per_s", "solve_ms_p50", "solve_ms_p90"):
        assert len(rows[row]) == 2 and all(math.isfinite(float(v)) for v in rows[row]), row


def test_stage_times_skips_the_stages_a_plateau_skips(monkeypatch):
    # from the origin the unit square (1..2)**2 spans about 0.64 rad: an
    # opening of 1.0 covers it, and that solve returns the containment
    # plateau before it builds breakpoints or cells, so the tool neither
    # calls those two stages nor subtracts them from the visit loop
    tool = _tool("stage_times")
    calls = []
    for name in ("breakpoints", "build_cells"):
        real = getattr(fovmax.solver, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(fovmax.solver, name, counted)
    square = [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]
    plateau = SimpleNamespace(vertices=square, apex=(0.0, 0.0), phi=1.0, domain=None)
    times = tool._scene_times([fovmax.solver], plateau, 8.0, 2)[0]
    assert calls == []
    assert times["breakpoints"] == times["build_cells"] == 0.0
    assert set(times) == set(tool.STAGES)
    # an opening of 0.3 does not cover it: both stages run and count
    narrow = SimpleNamespace(vertices=square, apex=(0.0, 0.0), phi=0.3, domain=None)
    times = tool._scene_times([fovmax.solver], narrow, 8.0, 2)[0]
    assert set(calls) == {"breakpoints", "build_cells"}
    assert times["breakpoints"] > 0.0 and times["build_cells"] > 0.0


def test_answer_digest_is_repeatable(monkeypatch):
    tool = _tool("answer_digest")
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    import scenes

    runs = [(scene, scenes.SMALL_PREC) for scene in scenes.small_scenes(1, 20)[:3]]
    first = tool.digest(ROOT / "src", runs)
    assert first == tool.digest(ROOT / "src", runs)
    assert first[0] == 3 and len(first[1]) == 64
    # the tool solved with its own copy of the package and left this one in place
    assert sys.modules["fovmax.solver"] is fovmax.solver


def test_answer_digest_lists_what_moved(monkeypatch):
    tool = _tool("answer_digest")
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    import scenes

    runs = [(scene, scenes.SMALL_PREC) for scene in scenes.small_scenes(1, 20)[:3]]
    old = tool.records(ROOT / "src", runs)
    assert tool.moves(runs, old, old, lambda scene: 1.0) == [
        "0 of 3 records differ (0 moved theta_star, area or cell_index, 0 changed only"
        " candidates_evaluated or achieved_bracket); largest |dtheta| 0 x 10**-prec, largest"
        " area loss 0 x polygon area"
    ]
    # one record moved by a quarter of 10**-prec and lost 1e-3 of its area
    fields = old[1].split()
    theta, area = float.fromhex(fields[0]), float.fromhex(fields[1])
    fields[:2] = [(theta + 0.25 * 10.0**-scenes.SMALL_PREC).hex(), (area - 2e-3).hex()]
    new = [old[0], " ".join(fields), "ValueError: moved"]
    lines = tool.moves(runs, old, new, lambda scene: 2.0)
    assert len(lines) == 3 and lines[0].splitlines()[1:] == ["  - " + old[1], "  + " + new[1]]
    assert lines[1].endswith("+ ValueError: moved")
    assert lines[2] == (
        "2 of 3 records differ (1 moved theta_star, area or cell_index, 0 changed only"
        " candidates_evaluated or achieved_bracket); largest |dtheta| 0.25 x 10**-prec,"
        " largest area loss 0.001 x polygon area"
    )
    # one record changed only its candidate count and bracket, one its cell index
    counted, moved = old[0].split(), old[2].split()
    counted[4] = str(int(counted[4]) + 1)
    counted[2] = (float.fromhex(counted[2]) + 1e-12).hex()
    moved[3] = str(int(moved[3]) + 1)
    new = [" ".join(counted), old[1], " ".join(moved)]
    assert tool.moves(runs, old, new, lambda scene: 1.0)[-1] == (
        "2 of 3 records differ (1 moved theta_star, area or cell_index, 1 changed only"
        " candidates_evaluated or achieved_bracket); largest |dtheta| 0 x 10**-prec, largest"
        " area loss 0 x polygon area"
    )


def test_answer_digest_exit_status(monkeypatch, capsys):
    # 0 when every later tree's records equal the first tree's, 1 when
    # one differs, so the tool can gate a script
    tool = _tool("answer_digest")
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    import scenes

    runs = [(scene, scenes.SMALL_PREC) for scene in scenes.small_scenes(1, 20)[:3]]
    monkeypatch.setattr(tool, "corpus", lambda scenes: runs)
    src = str(ROOT / "src")
    assert tool.main([src, src]) == 0
    assert "0 of 3 records differ" in capsys.readouterr().out
    old = tool.records(ROOT / "src", runs)
    trees = iter([old, [*old[:2], "ValueError: moved"]])
    monkeypatch.setattr(tool, "records", lambda src, runs: next(trees))
    assert tool.main([src, src]) == 1
    assert "1 of 3 records differ" in capsys.readouterr().out
