"""The package surface and the source's imports.

No linter ships with the test dependencies, so the unused-import check
is a small stand-in built on the standard library's ast module.
"""

import ast
from pathlib import Path

import fovmax

SRC = Path(fovmax.__file__).resolve().parent

README_NAMES = {
    # Quick start
    "ConvexPolygon",
    "maximize_global",
    # the README's lower-level pieces
    "solve_scene",
    "vertex_partition",
    "build_cells",
    "maximize_cell",
    "two_sector_area",
    "opening_extrema",
    "safeguarded_root",
    "clip_area_at",
    "grid_scan_max",
    # errors
    "InvalidInputError",
    "UnsupportedSceneError",
    "NearSingularError",
}


def test_all_is_the_readme_names():
    assert sorted(fovmax.__all__) == sorted(README_NAMES)
    for name in fovmax.__all__:
        assert getattr(fovmax, name) is not None


def _names_used(tree):
    """Every name the module reads, including names inside string
    annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _names_used(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append("%s:%d %s" % (path.name, node.lineno, bound))
    return unused


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == []
