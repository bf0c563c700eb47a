"""Each output check accepts the program's real output and rejects it once
tampered with; the span summary computes self time and uncovered time.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _cli_report(tmp_path, argv):
    out = str(tmp_path / "report.json")
    assert workloads.cli.main(argv + ["--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def invariance_outputs(tmp_path_factory):
    """The ai1 L(4) job alone: five lines with rank-one restriction tables."""
    tmp = tmp_path_factory.mktemp("invariance")
    config = workloads._write_configs(str(tmp))["ai1"]
    report = _cli_report(tmp, ["invariance", "--config", config, "--weight", "4"])
    return {"reports": {"ai1": report}}


@pytest.fixture(scope="module")
def scan_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scan")
    config = workloads._write_configs(str(tmp))["aiii3_sl4"]
    weights = [[0, 0, 0], [0, 1, 0], [1, 0, 1]]
    argv = ["characters", "--config", config] + workloads._c_args("aiii3_sl4")
    for w in weights:
        argv += ["--weight", ",".join(map(str, w))]
    (body,) = _cli_report(tmp, argv)["checks"]
    return {"per_weight": body["per_weight"], "weights": weights,
            "params": workloads.PARAMS["aiii3_sl4"], "root_order": 2}


@pytest.fixture(scope="module")
def precompose_outputs(tmp_path_factory):
    return workloads.Precompose(str(tmp_path_factory.mktemp("pre")), 1).outputs()


def _spherical(outputs):
    return outputs["reports"]["ai1"]["checks"][1]["results"]


def test_invariance_accepts_real_output(invariance_outputs):
    assert checks.check_invariance(invariance_outputs) == []


@pytest.mark.parametrize("tamper", [
    lambda o: o["reports"]["ai1"]["checks"][0]["results"][0].update(residual_zero=False),
    lambda o: o["reports"]["ai1"]["checks"][0]["results"][0].update(
        constant_block_identity=False),
    lambda o: _spherical(o)[0].update(braid_invariant=False),
    lambda o: _spherical(o)[0].update(invariant=False),
    lambda o: _spherical(o).pop(),
    lambda o: _spherical(o)[1]["labels"].update({"1": 6}),
    lambda o: _spherical(o)[1]["restriction"]["values"][0].update(coeff="1"),
], ids=["residual", "block", "braid", "weyl", "line-count", "labels", "symmetry"])
def test_invariance_rejects_tampered(invariance_outputs, tamper):
    bad = copy.deepcopy(invariance_outputs)
    tamper(bad)
    assert checks.check_invariance(bad)


def _chars(outputs):
    return [c for e in outputs["per_weight"] for c in e["characters"]]


def test_scan_accepts_real_output(scan_outputs):
    assert any(c["l"]["2"] for c in _chars(scan_outputs))
    assert checks.check_scan(scan_outputs) == []


def _relabel(outputs):
    chi = next(c for c in _chars(outputs) if c["l"]["2"] == 1)
    chi["l"]["2"] = 2


@pytest.mark.parametrize("tamper", [
    lambda o: next(c for c in _chars(o) if c["l"]["2"] == 1)["values"].update(B_2="v^2"),
    _relabel,
    lambda o: _chars(o)[0]["values"].update(B_1="1"),
    lambda o: o["per_weight"].pop(),
], ids=["value", "label", "unlabelled", "coverage"])
def test_scan_rejects_tampered(scan_outputs, tamper):
    bad = copy.deepcopy(scan_outputs)
    tamper(bad)
    assert checks.check_scan(bad)


def test_precompose_accepts_real_output(precompose_outputs):
    assert checks.check_precompose(precompose_outputs) == []


@pytest.mark.parametrize("tamper", [
    lambda o: o["lines"][1]["vector"].__setitem__(2, "v"),
    lambda o: o["lines"][1]["values"].update(B_0="7"),
    lambda o: o["lines"].pop(),
], ids=["vector", "value", "line-count"])
def test_precompose_rejects_tampered(precompose_outputs, tamper):
    bad = copy.deepcopy(precompose_outputs)
    tamper(bad)
    assert checks.check_precompose(bad)


def test_span_summary(tmp_path):
    path = tmp_path / "spans.jsonl"
    rows = [(0, "modules.build_simple", 0.0, 4.0, None),
            (1, "linalg.solve", 1.0, 3.0, 0),
            (2, "linalg.echelonize", 1.5, 2.5, 1),
            (3, "cli.report", 5.0, 6.0, None)]
    path.write_text("".join(json.dumps(dict(zip(
        ("id", "name", "start", "end", "parent"), r))) + "\n" for r in rows))
    got = spans.summarize(path, wall_s=8.0)
    assert got["modules.build_simple.self_s"] == 2.0
    assert got["linalg.solve.self_s"] == 1.0
    assert got["linalg.echelonize.calls"] == 1
    assert got["trace.uncovered_share"] == 3.0 / 8.0
