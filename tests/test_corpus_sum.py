"""The byte-identity corpus under a compensated `sum()`.

From CPython 3.12 on, `sum()` of floats is a compensated sum, so a solve
that adds floats with `sum()` rounds differently there from 3.10 and
3.11. The solve path adds floats left to right in explicit loops instead.
This test stands in for a run of `tests/test_corpus.py` on 3.12: the
corpus scenes are built with the running interpreter's `sum()`, then
solved with `builtins.sum` replaced by an exactly rounded sum on float
input, and must give the pinned bytes.
"""

import builtins
import json
import math

from test_corpus import CORPUS, SCENES, solve_record

_sum = builtins.sum


def _exact_sum(iterable, /, start=0):
    items = list(iterable)
    if items and all(type(x) is float for x in items):
        return start + math.fsum(items)
    return _sum(items, start)


def test_corpus_is_byte_identical_under_a_compensated_sum(monkeypatch):
    assert _exact_sum([0.1] * 10) != _sum([0.1] * 10)  # the stand-in rounds differently
    expected = json.loads(CORPUS.read_text())
    monkeypatch.setattr(builtins, "sum", _exact_sum)
    got = {name: solve_record(*rest) for name, *rest in SCENES}
    monkeypatch.undo()
    assert [name for name in got if got[name] != expected[name]] == []

