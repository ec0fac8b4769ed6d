"""The benchmark's traced runs wrap package functions by name.

perfbench/spans.py lists (owner, attribute, span name) triples and swaps
`owner.__dict__[attribute]` for a timing wrapper, so renaming or deleting
one of those names breaks `perfbench/run.py --trace 1`. This suite lives
in tests/ so the break shows up in the package's own test run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        name for owner, attr, name in spans.BINDINGS if not callable(owner.__dict__.get(attr))
    ]
    assert missing == []
