"""The O(1) upper bound on a long middle area (the third value of
`SectionPartition.middle`) and the gate in `CellTable.visit` that tries
it before the exact sum (`SectionPartition.middle_sum`).

The gate may only save work: every answer, `candidates_evaluated`
included, must be the one the exact sums give.
"""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax import cells
from fovmax.cells import SectionPartition, vertex_partition
from fovmax.solver import solve_scene
from conftest import external_apex, random_convex_polygon
from test_solver import _cell_bits, _cell_end_values, _near_line_scene, _span_scene
from test_solver_reference import _scene_cells


def _partition(areas):
    """A partition that carries only section areas, which is all a middle
    area reads."""
    n = len(areas)
    return SectionPartition(
        sorted_angles=tuple(float(k) for k in range(n + 1)),
        near_edges=tuple(range(n)),
        far_edges=tuple(range(n)),
        edge_c=(),
        edge_psi=(),
        section_areas=tuple(areas),
        area_prefix=tuple(accumulate(areas, initial=0.0)),
        abs_area_sum=sum(map(abs, areas)),
        apex=(0.0, 0.0),
    )


def _ceiling(cell):
    span = cell.part.middle(cell.right_section, cell.left_section)
    return None if span is None else span[2]


_areas = st.floats(-1e3, 1e3) | st.floats(0.0, 1e-8) | st.floats(1e6, 1e8) | st.floats(-1e8, -1e6)


@settings(max_examples=300, deadline=None)
@given(areas=st.lists(_areas, min_size=1, max_size=300), data=st.data())
def test_middle_ceiling_bounds_the_middle_area(areas, data):
    # signed areas and magnitudes eight orders apart: prefix differences
    # that cancel badly still stay above the left-to-right sum
    n = len(areas)
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    part = _partition(areas)
    right, left = None if start == 0 else start - 1, None if stop == n else stop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cells, "_LONG_MIDDLE", 0)
        span = part.middle(right, left)
    assert span[:2] == (start, stop)
    assert span[2] >= part.middle_sum(start, stop)


def _long_middles_only(mp, on):
    mp.setattr(cells, "_LONG_MIDDLE", 0 if on else math.inf)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
)
def test_middle_ceiling_bounds_every_cell(seed, n, kind):
    ceilings = []
    with pytest.MonkeyPatch.context() as mp:
        _long_middles_only(mp, True)
        table = _scene_cells(seed, n, kind)
        for cell in table:
            ceilings.append((cell, _ceiling(cell)))
    for cell, ceiling in ceilings:
        assert ceiling is None or ceiling >= cell.middle_area


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
    on=st.booleans(),
)
def test_visit_rules_out_exactly_what_the_second_bound_does(seed, n, kind, on):
    # a floor just above a cell's second bound plus the slack rules it out,
    # and one at or just below it gives the cell indexing gives, with the
    # ceiling tried first on every middle or on none
    with pytest.MonkeyPatch.context() as mp:
        _long_middles_only(mp, on)
        table = _scene_cells(seed, n, kind)
        for i, cell in enumerate(table):
            reach = _cell_end_values(cell)[2] + table.slack
            for floor in (math.nextafter(reach, -math.inf), reach):
                assert _cell_bits(table.visit(i, floor)) == _cell_bits(cell)
            if math.isfinite(reach):
                assert table.visit(i, math.nextafter(reach, math.inf)) is None


def _scene(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "plain":
        poly = random_convex_polygon(rng, n, rx=2.0)
        apex = external_apex(rng, poly)
        return poly, apex, float(rng.uniform(0.05, 2.0)), None
    if kind == "domain":
        window = (float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.15, 0.4)))
        return _span_scene(seed, n, float(rng.uniform(0.05, 0.95)), window)
    return (*_near_line_scene(rng, 1.0 if kind == "inner" else -1.0, n), None)


def _result_bits(res):
    return (
        res.theta_star.hex(),
        res.area.hex(),
        res.cell_index,
        res.candidates_evaluated,
        res.achieved_bracket.hex(),
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
    prec=st.sampled_from([8, 10]),
)
def test_gate_keeps_every_answer(seed, n, kind, prec):
    # the gate on every cell with a middle against the gate on none
    poly, apex, phi, domain = _scene(seed, n, kind)
    got = []
    for on in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            _long_middles_only(mp, on)
            got.append(_result_bits(solve_scene(poly, apex, phi, prec, domain)[0]))
    assert got[0] == got[1]


def test_gate_skips_most_long_sums(monkeypatch):
    # a count, not a timer: on a wide opening over 1,024 sections most
    # visited cells are ruled out without summing their middle areas
    summed = [0]
    exact = SectionPartition.middle_sum

    def counted(part, start, stop):
        summed[0] += stop - start
        return exact(part, start, stop)

    monkeypatch.setattr(SectionPartition, "middle_sum", counted)
    rng = np.random.default_rng(2)
    poly = random_convex_polygon(rng, 1024, rx=2.0)
    apex = external_apex(rng, poly)
    first, last = vertex_partition(poly, apex).span()
    phi = 0.6 * (last - first)
    counts, answers = [], []
    for on in (False, True):
        monkeypatch.setattr(cells, "_LONG_MIDDLE", 32 if on else math.inf)
        summed[0] = 0
        answers.append(_result_bits(solve_scene(poly, apex, phi, 10)[0]))
        counts.append(summed[0])
    # 35,301 sections summed without the gate, 1,990 with it
    assert answers[0] == answers[1]
    assert counts[1] < counts[0] / 10
