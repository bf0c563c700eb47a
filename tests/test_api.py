"""The public surface: the exported names and the entry points that the
benchmark harness traces resolve, so deleting or renaming one fails here."""

import importlib
import importlib.util
import pathlib

import qspherical

SPANS = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"


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
