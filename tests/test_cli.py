import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from fovmax.cli import main

SQUARE = {
    "polygon": [[1, 1], [2, 1], [2, 2], [1, 2]],
    "apex": [0.0, 0.0],
    "phi": 0.1,
}


def write_scenario(tmp_path, name="scene.json", **overrides):
    doc = dict(SQUARE)
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_happy_path(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out, err = run_main(capsys, ["solve", path])
    assert code == 0
    assert err == ""
    record = json.loads(out)
    assert list(record) == [
        "theta_star",
        "area",
        "cell_index",
        "num_cells",
        "breakpoints",
        "runtime_ms",
    ]
    assert record["theta_star"] == pytest.approx(0.7353981664, abs=1e-6)
    assert record["area"] == pytest.approx(0.27589942425, abs=1e-9)
    assert record["num_cells"] == 5
    assert len(record["breakpoints"]) == 6
    assert isinstance(record["cell_index"], int)


def test_solve_pretty_parses_the_same(tmp_path, capsys):
    path = write_scenario(tmp_path)
    _, plain, _ = run_main(capsys, ["solve", path])
    _, pretty, _ = run_main(capsys, ["solve", path, "--pretty"])
    assert "\n  " in pretty
    a, b = json.loads(plain), json.loads(pretty)
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert a == b


def test_solve_output_deterministic(tmp_path, capsys):
    path = write_scenario(tmp_path)
    _, first, _ = run_main(capsys, ["solve", path])
    _, second, _ = run_main(capsys, ["solve", path])
    strip = lambda s: re.sub(r',"runtime_ms":[^},]*', "", s)
    assert strip(first) == strip(second)
    assert first != ""


def test_solve_no_breakpoints_flag(tmp_path, capsys):
    path = write_scenario(tmp_path)
    _, out, _ = run_main(capsys, ["solve", path, "--no-breakpoints"])
    assert "breakpoints" not in json.loads(out)


def test_solve_domain_flag(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out, _ = run_main(capsys, ["solve", path, "--domain", "0,0.5"])
    assert code == 0
    assert json.loads(out)["theta_star"] == pytest.approx(0.5, abs=1e-7)


def test_solve_domain_from_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, domain=[0.0, 0.5])
    _, out, _ = run_main(capsys, ["solve", path])
    assert json.loads(out)["theta_star"] == pytest.approx(0.5, abs=1e-7)


def test_solve_precision_sources(tmp_path, capsys):
    low = write_scenario(tmp_path, name="low.json", precision_digits=2)
    code, out_low, _ = run_main(capsys, ["solve", low])
    assert code == 0
    code, out_flag, _ = run_main(capsys, ["solve", low, "--precision", "10"])
    assert code == 0
    assert json.loads(out_flag)["area"] >= json.loads(out_low)["area"] - 1e-12


def test_verify_agrees(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out, _ = run_main(capsys, ["solve", path, "--verify"])
    assert code == 0
    verify = json.loads(out)["verify"]
    assert set(verify) == {"oracle_theta", "oracle_area", "delta_theta", "delta_area"}
    assert verify["delta_area"] <= 1e-6 * verify["oracle_area"]


@pytest.mark.parametrize(
    "overrides",
    [
        {"domain": [0.0, 0.5]},
        # straddles the 0/2pi seam: the solver reports 2pi - 0.3, the
        # oracle -0.3
        {"polygon": [[1, -0.5], [2, -0.5], [2, 0.5], [1, 0.5]], "domain": [-0.6, -0.3]},
    ],
    ids=["square", "seam"],
)
def test_verify_uses_scenario_domain(tmp_path, capsys, overrides):
    # the scenario's domain excludes the global optimum; the oracle must
    # scan the same domain the solver searched
    path = write_scenario(tmp_path, **overrides)
    code, out, _ = run_main(capsys, ["solve", path, "--verify"])
    assert code == 0
    verify = json.loads(out)["verify"]
    assert verify["delta_theta"] < 1e-3
    assert verify["delta_area"] <= 1e-6 * verify["oracle_area"]


def test_verify_flags_suboptimal_direction(tmp_path, capsys):
    # pinning theta far from the optimum must trip the cross-check
    path = write_scenario(tmp_path)
    code, out, _ = run_main(capsys, ["solve", path, "--at-theta", "0.45", "--verify"])
    assert code == 4
    record = json.loads(out)
    assert record["verify"]["delta_area"] > 1e-6 * record["verify"]["oracle_area"]


def test_at_theta_round_trip(tmp_path, capsys):
    path = write_scenario(tmp_path)
    _, out, _ = run_main(capsys, ["solve", path])
    solved = json.loads(out)
    _, out, _ = run_main(capsys, ["solve", path, "--at-theta", repr(solved["theta_star"])])
    pinned = json.loads(out)
    assert pinned["theta_star"] == pytest.approx(solved["theta_star"], abs=1e-12)
    assert pinned["area"] == pytest.approx(solved["area"], abs=1e-9)
    assert pinned["cell_index"] == solved["cell_index"]


def test_at_theta_outside_domain(tmp_path, capsys):
    path = write_scenario(tmp_path)
    _, out, _ = run_main(capsys, ["solve", path, "--at-theta", "3.0"])
    record = json.loads(out)
    assert record["cell_index"] == -2
    assert record["area"] == 0.0


def test_at_theta_with_a_domain_that_misses_the_span(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out, _ = run_main(capsys, ["solve", path, "--at-theta", "0.5", "--domain", "2.0,3.0"])
    assert code == 0
    record = json.loads(out)
    assert (record["cell_index"], record["num_cells"], record["breakpoints"]) == (-2, 0, [])


SEAM_SQUARE = {"polygon": [[1, -0.5], [2, -0.5], [2, 0.5], [1, 0.5]], "phi": 0.2}


@pytest.mark.parametrize("domain", [None, [6.0, 6.5]], ids=["plain", "turned_domain"])
def test_at_theta_same_cell_across_the_seam(tmp_path, capsys, domain):
    # -0.1 and 2*pi - 0.1 are one direction; the square straddles direction 0
    path = write_scenario(tmp_path, domain=domain, **SEAM_SQUARE)
    records = []
    for theta in ("-0.1", "6.183185307179586", "-6.383185307179586"):
        _, out, _ = run_main(capsys, ["solve", path, "--at-theta", theta])
        records.append(json.loads(out))
    assert records[0]["cell_index"] >= 0
    for record in records[1:]:
        assert record["cell_index"] == records[0]["cell_index"]
        assert record["area"] == pytest.approx(records[0]["area"], rel=1e-12)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"polygon": [[1, 1], [1, 2], [2, 2], [2, 1]]}, "counter-clockwise"),
        ({"polygon": [[1, 1], [2, 1]]}, "at least 3"),
        ({"polygon": [[1, 1], [2, 1], "x"]}, "pairs"),
        ({"apex": [1.0]}, "apex"),
        ({"phi": "wide"}, "phi"),
        ({"phi": 0.0}, "opening"),
        ({"precision_digits": "high"}, "precision_digits"),
        ({"domain": [1.0]}, "domain"),
    ],
)
def test_invalid_scenarios_exit_2(tmp_path, capsys, overrides, fragment):
    path = write_scenario(tmp_path, **overrides)
    code, out, err = run_main(capsys, ["solve", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert fragment in err


@pytest.mark.parametrize(
    "overrides,flags,fragment",
    [
        ({"apex": [math.nan, 0.0]}, [], "apex coordinates must be finite"),
        ({"apex": [-math.inf, 0.0]}, [], "apex coordinates must be finite"),
        ({"domain": [math.nan, 1.0]}, [], "interval endpoints must be finite"),
        ({}, ["--domain=0,inf"], "interval endpoints must be finite"),
        ({}, ["--domain=nan,1", "--at-theta", "0.5"], "interval endpoints must be finite"),
        ({}, ["--precision", "inf"], "precision digits must be finite"),
    ],
    ids=[
        "nan_apex", "infinite_apex", "nan_domain", "infinite_domain_flag", "nan_domain_at_theta",
        "infinite_precision_flag",
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, overrides, flags, fragment):
    # the scenario file spells these NaN, -Infinity, as Python's json reads them
    path = write_scenario(tmp_path, **overrides)
    code, out, err = run_main(capsys, ["solve", path, *flags])
    assert code == 2
    assert out == ""
    assert fragment in err


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_verify_rejects_an_oracle_step_that_is_not_positive_and_finite(tmp_path, capsys, step):
    path = write_scenario(tmp_path)
    code, out, err = run_main(capsys, ["solve", path, "--verify", "--oracle-step", step])
    assert code == 2
    assert out == ""
    assert err == "error: oracle step must be positive and finite\n"


@pytest.mark.parametrize("phi", [math.nan, 0.0, math.pi, 4.0])
@pytest.mark.parametrize("flags", [[], ["--at-theta", "0.5"], ["--at-theta", "0.5", "--domain=0,1"]])
def test_opening_is_checked_first_with_or_without_at_theta(tmp_path, capsys, phi, flags):
    path = write_scenario(tmp_path, phi=phi)
    code, out, err = run_main(capsys, ["solve", path, *flags])
    assert code == 2
    assert out == ""
    assert err == "error: sector opening must lie in (0, pi)\n"


# each field's value with "@" for a number past float range, and the exit
# code that number gives
_PAST_FLOAT_RANGE = {
    "polygon": ([["@", 1], [2, 1], [2, 2], [1, 2]], 2),
    "apex": (["-@", 0.0], 2),
    "phi": ("@", 2),
    "precision_digits": ("@", 2),
    "domain": ([0.0, "@"], 2),
}


@pytest.mark.parametrize("field", list(_PAST_FLOAT_RANGE))
def test_an_integer_past_float_range_reads_as_1e400(tmp_path, capsys, field):
    # 1e400 and a 401-digit integer are the same JSON number, read as +-inf
    value, code = _PAST_FLOAT_RANGE[field]
    text = json.dumps(dict(SQUARE, **{field: value}))
    got = []
    for spelling in ("1e400", "1" + "0" * 400):
        path = tmp_path / "scene.json"
        path.write_text(text.replace('"@"', spelling).replace('"-@"', "-" + spelling))
        exit_code, out, err = run_main(capsys, ["solve", str(path)])
        got.append((exit_code, err, re.sub(r'"runtime_ms":[^,}]*', "", out)))
    assert got[0][0] == code
    assert got[1] == got[0]


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_main(capsys, ["solve", str(tmp_path / "nope.json")])
    assert code == 2
    assert "not readable" in err


def test_unparseable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_main(capsys, ["solve", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_scenario_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    code, _, err = run_main(capsys, ["solve", str(path)])
    assert code == 2
    assert "JSON object" in err


def test_bad_domain_flag_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, _, err = run_main(capsys, ["solve", path, "--domain", "1.0"])
    assert code == 2
    assert "comma-separated" in err


def test_empty_domain_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, _, err = run_main(capsys, ["solve", path, "--domain", "2.0,3.0"])
    assert code == 2
    assert "domain" in err


def test_apex_inside_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, apex=[1.5, 1.5])
    code, _, err = run_main(capsys, ["solve", path])
    assert code == 3
    assert "apex inside" in err


def test_render_writes_svg(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out_path = tmp_path / "scene.svg"
    code, _, err = run_main(capsys, ["render", path, str(out_path)])
    assert code == 0
    assert err == ""
    svg = out_path.read_text()
    ET.fromstring(svg)
    assert svg.count('class="sector-fill"') == 1
    assert svg.count('class="breakpoint-line"') == 6
    assert 'class="profile-box"' not in svg


def test_render_no_breakpoints(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out_path = tmp_path / "plain.svg"
    run_main(capsys, ["render", path, str(out_path), "--no-breakpoints"])
    assert 'class="breakpoint-line"' not in out_path.read_text()


def test_render_profile_inset(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out_path = tmp_path / "profile.svg"
    code, _, _ = run_main(capsys, ["render", path, str(out_path), "--profile", "sweep", "--samples", "80"])
    assert code == 0
    svg = out_path.read_text()
    assert 'class="profile-box"' in svg
    assert 'class="profile-sweep"' in svg
    assert 'class="profile-mark"' in svg


@pytest.mark.parametrize("samples", ["1", "0"])
def test_render_profile_rejects_fewer_than_two_samples(tmp_path, capsys, samples):
    path = write_scenario(tmp_path)
    out_path = tmp_path / "profile.svg"
    argv = ["render", path, str(out_path), "--profile", "sweep", "--samples", samples]
    code, _, err = run_main(capsys, argv)
    assert code == 2
    assert "profile samples must be at least 2" in err
    assert not out_path.exists()
    # without --profile the sample count is not read
    assert run_main(capsys, ["render", path, str(out_path), "--samples", samples])[0] == 0


def test_render_deterministic(tmp_path, capsys):
    path = write_scenario(tmp_path)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_main(capsys, ["render", path, str(a)])
    run_main(capsys, ["render", path, str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    path = write_scenario(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fovmax", "solve", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["num_cells"] == 5
