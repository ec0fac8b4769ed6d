"""A cell's middle area, the difference of two prefix sums of the section
areas (`SectionPartition.middle`), and the one test in `CellTable.visit`
that rules a cell out on its second bound.

Every middle lies within half the partition's rounding margin
(`SectionPartition.margin`) of the exact sum of its sections, so two
cells' middles differ from their exact difference by less than the
margin, `solve_scene`'s tie tolerance.
"""

import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovmax.cells import CellTable, SectionPartition
from test_solver import _cell_bits, _cell_end_values
from test_solver_reference import _scene_cells

_VISIT = CellTable.visit


def _ceiling_visit(table, i, floor):
    """visit ruling out on the middle plus the margin, the ceiling it once
    took, in place of the middle: a mutation."""
    cell = _VISIT(table, i, -math.inf)
    if _cell_end_values(cell, cell.middle_area + table.part.margin)[2] + table.slack < floor:
        return None
    return cell


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


def _check_middle(part, middle, start, stop):
    """middle lies within half the margin of the exact sum of sections
    start to stop - 1."""
    exact = sum(map(Fraction, part.section_areas[start:stop]), Fraction(0))
    assert abs(Fraction(middle) - exact) <= Fraction(part.margin) / 2


def _check_range(part, start, stop):
    """The middle of the cell whose boundary rays enclose sections start
    to stop - 1."""
    n = part.num_sections
    right, left = None if start == 0 else start - 1, None if stop == n else stop
    _check_middle(part, part.middle(right, left), start, stop)


def _check_visit(table):
    """For every cell: a floor above its second bound plus the slack rules
    it out, and one at or below that gives the cell that indexing gives,
    bit for bit."""
    for i, cell in enumerate(table):
        reach = _cell_end_values(cell)[2] + table.slack
        for floor in (math.nextafter(reach, -math.inf), reach):
            got = table.visit(i, floor)
            assert got is not None and _cell_bits(got) == _cell_bits(cell)
        if math.isfinite(reach):
            assert table.visit(i, math.nextafter(reach, math.inf)) is None


_areas = st.floats(-1e3, 1e3) | st.floats(0.0, 1e-8) | st.floats(1e6, 1e8) | st.floats(-1e8, -1e6)
_scenes = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 60),
    kind=st.sampled_from(["plain", "inner", "outer", "domain"]),
)


@settings(max_examples=300, deadline=None)
@given(areas=st.lists(_areas, min_size=1, max_size=300), data=st.data())
def test_middle_is_near_its_exact_sum(areas, data):
    # signed areas and magnitudes eight orders apart: prefix differences
    # that cancel badly still lie within half the margin of the exact sum
    start = data.draw(st.integers(0, len(areas) - 1))
    stop = data.draw(st.integers(start + 1, len(areas)))
    _check_range(_partition(areas), start, stop)


@settings(max_examples=60, deadline=None)
@given(**_scenes)
def test_middle_is_near_its_exact_sum_on_every_cell(seed, n, kind):
    # a cell's middle holds the sections strictly between its boundary
    # rays, none for a single-section cell
    for cell in _scene_cells(seed, n, kind):
        part, r, l = cell.part, cell.right_section, cell.left_section
        start = 0 if r is None else r + 1
        stop = part.num_sections if l is None else max(l, start)
        _check_middle(part, cell.middle_area, start, stop)


@settings(max_examples=60, deadline=None)
@given(**_scenes)
def test_visit_rules_out_exactly_what_the_second_bound_does(seed, n, kind):
    _check_visit(_scene_cells(seed, n, kind))


def test_checks_catch_a_zero_margin_and_a_test_on_the_ceiling(monkeypatch):
    # 1e16 + 1.0 rounds to 1e16, so the prefix difference over the middle
    # section reads 0.0 against its area of 1.0; and on a plain scene a
    # visit that rules out on the middle plus the margin keeps a cell
    # whose bound lies below the floor
    part = _partition([1e16, 1.0, 1e16])
    table = _scene_cells(1, 40, "plain")
    _check_range(part, 1, 2)
    _check_visit(table)
    with monkeypatch.context() as mp:
        mp.setattr(SectionPartition, "margin", property(lambda part: 0.0))
        with pytest.raises(AssertionError):
            _check_range(part, 1, 2)
    monkeypatch.setattr(CellTable, "visit", _ceiling_visit)
    with pytest.raises(AssertionError):
        _check_visit(table)
