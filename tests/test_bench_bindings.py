"""The benchmark's traced runs wrap package functions by name.

perfbench/spans.py lists (owner, attribute, span name) triples and swaps
`owner.__dict__[attribute]` for a timing wrapper, so renaming or deleting
one of those names breaks `perfbench/run.py --trace 1`. This suite lives
in tests/ so the break shows up in the package's own test run.
"""

import importlib.util
import json
from pathlib import Path

import fovmax.cells as cells
import fovmax.cli
import fovmax.solver
from fovmax.geometry import ConvexPolygon

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_binding_resolves():
    spans = _load_spans()
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


def test_every_size_of_entry_reads_a_real_call(tmp_path):
    # spans.py reads a size from the arguments or the result of some
    # spans (build_cells' third argument must have num_sections, say); a
    # layout change that breaks one of them breaks `--trace 1` only
    spans = _load_spans()
    square = [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"polygon": square, "apex": [0.0, 0.0], "phi": 0.3}))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        fovmax.solver.maximize_global(ConvexPolygon(square), (0.0, 0.0), 0.3)
        assert fovmax.cli.main(["solve", str(path), "--verify"]) == 0
    table = spans.SpanTable(tracer)
    for name in spans.SIZE_OF:
        assert name in table.names
        assert (table.size[table.name == table.names.index(name)] > 0).all(), name
