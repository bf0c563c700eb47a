"""The public surface: the exported names and the entry points that the
benchmark harness traces resolve, so deleting or renaming one fails here."""

import ast
import importlib
import importlib.util
import pathlib

import qspherical

ROOT = pathlib.Path(__file__).parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "qspherical"


def test_all_names_resolve_once():
    missing = [name for name in qspherical.__all__ if not hasattr(qspherical, name)]
    assert not missing
    assert len(set(qspherical.__all__)) == len(qspherical.__all__)


def test_star_import():
    namespace = {}
    exec("from qspherical import *", namespace)
    assert set(qspherical.__all__) <= set(namespace)


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, modname, attr in spans.LAYERS:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{modname}:{attr}")
    assert not missing


def _sibling_imports(path, modules) -> set:
    """The package modules a module imports relatively, at module level or
    inside a function."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module.split(".")[0]] if node.module
                       else (alias.name for alias in node.names))
    return out & modules


def test_package_imports_form_no_cycle():
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {p.stem for p in paths}
    left = {p.stem: _sibling_imports(p, modules) for p in paths}
    assert left["qsp"] >= {"braid", "rootdata"}
    # peel modules that import nothing left; what stays imports a cycle
    while True:
        leaves = [m for m, deps in left.items() if not deps & left.keys()]
        if not leaves:
            break
        for m in leaves:
            del left[m]
    cycle = []
    if left:
        # each module left imports one left: walk until a module repeats
        walk = [min(left)]
        while walk[-1] not in walk[:-1]:
            walk.append(min(left[walk[-1]] & left.keys()))
        cycle = walk[walk.index(walk[-1]):]
    assert not cycle, "import cycle " + " -> ".join(cycle)
