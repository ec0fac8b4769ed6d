"""The O(1) ceiling on a cell's middle area (the third value of
`SectionPartition.middle`) and the one test in `CellTable.visit` that
rules a cell out with it; the exact middle (`SectionPartition.middle_sum`)
is summed only for a cell that `visit` returns.

The ceiling is at least the exact sum, so it may only save work: every
answer must be the one a visit that tests on the exact sum gives,
`candidates_evaluated` included.
"""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax.cells import SectionPartition, vertex_partition
from fovmax.solver import solve_scene
from conftest import external_apex, random_convex_polygon
from test_solver import _cell_bits, _cell_end_values, _near_line_scene, _span_scene
from test_solver_reference import _scene_cells

_MIDDLE = SectionPartition.middle


def _exact_middle(part, right, left):
    """middle with the exact sum in place of the ceiling: visit then tests
    on the exact middle, as the reference solve does."""
    start, stop, _ = _MIDDLE(part, right, left)
    return start, stop, part.middle_sum(start, stop)


def _unmargined_middle(part, right, left):
    """middle with the prefix difference alone as the ceiling, a mutation."""
    start, stop, _ = _MIDDLE(part, right, left)
    return start, stop, part.area_prefix[stop] - part.area_prefix[start]


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


def _check_ceiling(part, start, stop):
    """The middle of sections start to stop - 1 is theirs, and its ceiling
    is at least their left-to-right sum."""
    n = part.num_sections
    right, left = None if start == 0 else start - 1, None if stop == n else stop
    span = part.middle(right, left)
    assert span[:2] == (start, stop)
    assert span[2] >= part.middle_sum(start, stop)


def _check_visit(table):
    """For every cell: a floor above its second bound with the middle's
    ceiling (from the unpatched SectionPartition.middle) plus the slack
    rules it out, and one at or below that bound plus the slack, or at or
    below the bound with the exact middle plus the slack, gives the cell
    that indexing gives, bit for bit."""
    for i, cell in enumerate(table):
        ceiling = _MIDDLE(cell.part, cell.right_section, cell.left_section)[2]
        exact = _cell_end_values(cell)[2] + table.slack
        reach = _cell_end_values(cell, ceiling)[2] + table.slack
        for floor in (math.nextafter(exact, -math.inf), exact, reach):
            got = table.visit(i, floor)
            assert got is not None and _cell_bits(got) == _cell_bits(cell)
        if math.isfinite(reach):
            assert table.visit(i, math.nextafter(reach, math.inf)) is None


_areas = st.floats(-1e3, 1e3) | st.floats(0.0, 1e-8) | st.floats(1e6, 1e8) | st.floats(-1e8, -1e6)


@settings(max_examples=300, deadline=None)
@given(areas=st.lists(_areas, min_size=1, max_size=300), data=st.data())
def test_middle_ceiling_bounds_the_middle_area(areas, data):
    # signed areas and magnitudes eight orders apart: prefix differences
    # that cancel badly still stay above the left-to-right sum
    start = data.draw(st.integers(0, len(areas) - 1))
    stop = data.draw(st.integers(start + 1, len(areas)))
    _check_ceiling(_partition(areas), start, stop)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
)
def test_middle_ceiling_bounds_every_cell(seed, n, kind):
    for cell in _scene_cells(seed, n, kind):
        assert cell.part.middle(cell.right_section, cell.left_section)[2] >= cell.middle_area


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
)
def test_visit_rules_out_exactly_what_the_second_bound_does(seed, n, kind):
    _check_visit(_scene_cells(seed, n, kind))


def test_checks_catch_a_missing_margin_and_a_test_on_the_exact_sum(monkeypatch):
    # 1e16 + 1.0 rounds to 1e16, so the prefix difference over the middle
    # section reads 0.0 against its area of 1.0; and on a plain scene the
    # ceiling's bound lies above the exact one for some cell
    part = _partition([1e16, 1.0, 1e16])
    table = _scene_cells(1, 40, "plain")
    _check_ceiling(part, 1, 2)
    _check_visit(table)
    monkeypatch.setattr(SectionPartition, "middle", _unmargined_middle)
    with pytest.raises(AssertionError):
        _check_ceiling(part, 1, 2)
    monkeypatch.setattr(SectionPartition, "middle", _exact_middle)
    with pytest.raises(AssertionError):
        _check_visit(table)


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
    # the solve against a reference whose visit tests on the exact middle
    poly, apex, phi, domain = _scene(seed, n, kind)
    got = _result_bits(solve_scene(poly, apex, phi, prec, domain)[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SectionPartition, "middle", _exact_middle)
        assert got == _result_bits(solve_scene(poly, apex, phi, prec, domain)[0])


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
    for middle in (_exact_middle, _MIDDLE):
        monkeypatch.setattr(SectionPartition, "middle", middle)
        summed[0] = 0
        answers.append(_result_bits(solve_scene(poly, apex, phi, 10)[0]))
        counts.append(summed[0])
    # 37,291 sections summed by the reference (35,301 in its test, then
    # 1,990 again for the cells it returns), 1,990 by visit
    assert answers[0] == answers[1]
    assert counts[1] < counts[0] / 10
