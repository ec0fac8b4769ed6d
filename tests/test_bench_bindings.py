"""The benchmark's traced runs wrap package functions by name.

perfbench/spans.py lists (owner, attribute, span name) triples and swaps
`owner.__dict__[attribute]` for a timing wrapper, so renaming or deleting
one of those names breaks `perfbench/run.py --trace 1`. This suite lives
in tests/ so the break shows up in the package's own test run.
"""

import importlib.util
from pathlib import Path

import fovmax.cells as cells
from fovmax.geometry import ConvexPolygon

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        name for owner, attr, name in spans.BINDINGS if not callable(owner.__dict__.get(attr))
    ]
    assert missing == []


def test_vertex_partition_calls_its_stages_through_the_module_globals(monkeypatch):
    # spans.py times angular_order and section_edges by swapping the
    # fovmax.cells bindings; a stage called any other way reads 0 there
    calls = []
    for name in ("angular_order", "section_edges"):
        stage = getattr(cells, name)

        def counted(*args, _stage=stage, _name=name):
            calls.append(_name)
            return _stage(*args)

        monkeypatch.setattr(cells, name, counted)
    cells.vertex_partition(ConvexPolygon([(1, 1), (2, 1), (2, 2), (1, 2)]), (0.0, 0.0))
    assert calls == ["angular_order", "section_edges"]
