"""Smoke tests of the scripts under tools/, which import the solver by
name: a rename in the package breaks them here, not silently."""

import importlib.util
import math
import sys
from pathlib import Path

import fovmax.solver

STAGE_TIMES = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"


def test_stage_times_runs(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("stage_times", STAGE_TIMES)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds perfbench/
    assert tool.main(["--small", "3", "--repeat", "1"]) == 0
    # the tool timed its own copy of the package and left this one in place
    assert sys.modules["fovmax.solver"] is fovmax.solver
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    for row in (*tool.STAGES, "scenes_per_s", "solve_ms_p50", "solve_ms_p90"):
        assert len(rows[row]) == 1 and math.isfinite(float(rows[row][0])), row
    assert float(rows["scenes_per_s"][0]) > 0.0
