"""Self-test of the benchmark: a tiny-size smoke run and the output checks.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import scenes  # noqa: E402  (puts the checkout's src on the path)
import checks  # noqa: E402
import defects  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny_run(workload, trace, seed=3, tmp=None):
    inputs = scenes.build(workload, seed, tmp, tiny=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = workloads.run(workload, seed, 0.2, trace, inputs, setup_main_s=0.1, tiny=True)
    return result, out.getvalue()


def test_spec_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    result, text = _tiny_run(workload, trace, tmp=tmp_path)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        assert "metric %-28s" % m["name"] in text
        assert text.split("metric %-28s" % m["name"], 1)[1].splitlines()[0].endswith(" " + m["unit"])
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    if workload in ("small_scenes", "large_polygons"):
        assert result["correct"] and result["failed"] == 0
    if trace:
        assert result["metrics"]["cells.cells"]["value"] > 0
        assert result["metrics"]["solver.plateau_share"]["value"] < 1
    assert "info failure_rate" in text
    assert "info defect.wrong_answers" in text
    report = json.loads((workloads.OUT / ("%s-seed3-trace%d.json" % (workload, trace))).read_text())
    assert report["workload"] == workload
    assert set(report["environment"]) >= {"python", "numpy", "nproc", "cpu_model", "git_commit", "seed"}


def test_metric_names_do_not_depend_on_the_seed(tmp_path):
    first, _ = _tiny_run("small_scenes", False, seed=3, tmp=tmp_path)
    second, _ = _tiny_run("small_scenes", False, seed=4, tmp=tmp_path)
    assert set(first["metrics"]) == set(second["metrics"])


def _solved_scene():
    """The first non-plateau scene of a fixed seed with its answer."""
    for s in scenes.small_scenes(5, 40):
        if s.family == "random":
            poly = scenes.fovmax.ConvexPolygon(s.vertices)
            res = scenes.fovmax.maximize_global(poly, s.apex, s.phi, 10)
            if res.cell_index >= 0:
                return s, poly, res
    raise AssertionError("no non-plateau scene")


def test_checks_accept_the_solver_answer():
    s, poly, res = _solved_scene()
    domain = checks.admissible_domain(poly, s.apex, s.phi)
    assert checks.check_solve(poly, s.apex, s.phi, res.theta_star, res.area, domain) == []


def test_checks_reject_a_perturbed_area():
    s, poly, res = _solved_scene()
    domain = checks.admissible_domain(poly, s.apex, s.phi)
    reasons = checks.check_solve(poly, s.apex, s.phi, res.theta_star, res.area * (1 + 1e-7), domain)
    assert any("clip area" in r for r in reasons)


def test_checks_reject_a_perturbed_direction():
    s, poly, res = _solved_scene()
    domain = checks.admissible_domain(poly, s.apex, s.phi)
    theta = res.theta_star + 0.05
    area = scenes.fovmax.clip_area_at(poly, s.apex, theta, s.phi)
    reasons = checks.check_solve(poly, s.apex, s.phi, theta, area, domain)
    assert reasons and all("oracle" in r for r in reasons)


def test_cli_check_rejects_a_perturbed_record():
    assert checks.cli_mismatch(1.25, 2.5, 1.25, 2.5) == []
    assert checks.cli_mismatch(1.25 + 1e-10, 2.5, 1.25, 2.5)
    assert checks.cli_mismatch(1.25, 2.5 * (1 + 1e-11), 1.25, 2.5)


def test_judge_counts_errors_and_wrong_answers():
    s, poly, res = _solved_scene()
    checker = workloads.Checker([s])
    ops = [
        workloads.Op(0, 1.0, res.theta_star, res.area, res.cell_index),
        workloads.Op(0, 1.0, res.theta_star, res.area * 1.01, res.cell_index),
        workloads.Op(0, 1.0, error="exit code 4"),
    ]
    correct, failed, notes = workloads.judge(ops, checker)
    assert not correct and failed == 2 and len(notes) == 2


def test_near_degenerate_scenes_solve_without_raising():
    for s in scenes.small_scenes(7, 400):
        if s.family != "near_degenerate":
            continue
        poly = scenes.fovmax.ConvexPolygon(s.vertices)
        assert scenes.fovmax.maximize_global(poly, s.apex, s.phi, 10).area > 0


def test_defect_probe_is_seeded_and_counts_within_its_scenes():
    first, second = defects.probe(2), defects.probe(2)
    assert first == second
    assert 0 <= first["defect.near_line_inner_raises"][0] <= first["defect.near_line_inner_scenes"][0]
    assert 0 <= first["defect.wrong_answers"][0] <= first["defect.wrong_answer_scenes"][0]


def test_closed_loop_uses_every_input_and_best_ms_keeps_the_fastest():
    times = iter([3.0, 1.0, 2.0, 0.5])
    ops, _, _ = workloads.closed_loop(lambda i: workloads.Op(i, next(times)), 2, 0.0)
    assert [o.scene for o in ops] == [0, 1]
    more = ops + [workloads.Op(0, next(times)), workloads.Op(1, next(times))]
    assert workloads.best_ms(more) == {0: 2.0, 1: 0.5}
