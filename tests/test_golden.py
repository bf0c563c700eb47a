"""Golden reports: every case reruns one CLI command and compares bytes.

The files in tests/golden/ pin the reports of the exact checker, so a
refactor of the arithmetic or the elimination must leave them unchanged.
To regenerate them after an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from qspherical.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"
NAMES = ("ai1", "aiii_sl3", "aiii3_sl4", "aii3_sl4", "bii_so5")
HALF = ["--c", "1=q^(1/2)", "--c", "2=q^(1/2)"]
SL4 = ["--c", "1=1", "--c", "2=q^-1", "--c", "3=1"]


def _config(name):
    return ["--config", str(CONFIGS / f"{name}.json")]


def _weights(*ws):
    return [x for w in ws for x in ("--weight", w)]


# (golden file stem, argv without --out)
CASES = (
    [(f"validate_{n}", ["validate"] + _config(n)) for n in NAMES]
    + [(f"invariance_{n}", ["invariance"] + _config(n)) for n in NAMES]
    + [
        ("module_ai1", ["module"] + _config("ai1") + _weights("3")),
        ("module_aiii_sl3", ["module"] + _config("aiii_sl3") + _weights("2,1")),
        ("module_aiii3_sl4",
         ["module"] + _config("aiii3_sl4") + _weights("0,1,0")),
        ("module_aiii3_sl4_weight101",
         ["module"] + _config("aiii3_sl4") + _weights("1,0,1")),
        ("module_aii3_sl4", ["module"] + _config("aii3_sl4") + _weights("0,2,0")),
        ("module_bii_so5_weight11",
         ["module"] + _config("bii_so5") + _weights("1,1")),
        ("characters_ai1", ["characters"] + _config("ai1") + ["--c", "1=-q^-2"]
         + _weights("0", "2", "4")),
        ("characters_aiii_sl3", ["characters"] + _config("aiii_sl3") + HALF
         + _weights("1,0", "1,1", "2,1")),
        ("characters_aiii3_sl4", ["characters"] + _config("aiii3_sl4") + SL4
         + _weights("0,1,0", "0,2,0", "1,0,1")),
        ("characters_aii3_sl4", ["characters"] + _config("aii3_sl4")
         + ["--c", "2=q"] + _weights("0,1,0", "0,2,0")),
        ("invariance_ai1_weight4", ["invariance"] + _config("ai1")
         + ["--c", "1=-q^-2"] + _weights("4")),
        ("invariance_aiii_sl3_weight21", ["invariance"] + _config("aiii_sl3")
         + HALF + _weights("2,1")),
        ("invariance_aiii_sl3_weight22", ["invariance"] + _config("aiii_sl3")
         + HALF + _weights("2,2")),
        # root orders 1 and 4, whose polynomials have exponent strides
        # other than the default's 4 (named apart from the module_* files,
        # whose entries are read back at root order 2)
        ("root1_module_bii_so5_weight11", ["module"] + _config("bii_so5")
         + _weights("1,1") + ["--root-order", "1"]),
        ("root1_characters_aiii3_sl4", ["characters"] + _config("aiii3_sl4")
         + SL4 + _weights("0,1,0", "0,2,0") + ["--root-order", "1"]),
        ("root4_invariance_ai1_weight4", ["invariance"] + _config("ai1")
         + ["--c", "1=-q^-2"] + _weights("4") + ["--root-order", "4"]),
        # imaginary character values at exponent stride 8
        ("root4_characters_ai1", ["characters"] + _config("ai1")
         + ["--c", "1=-q^-2"] + _weights("0", "2", "4") + ["--root-order", "4"]),
        ("table1", ["table1"]),
        ("examples_aiii_sl3", ["examples", "aiii-sl3"]),
        ("examples_aiii3_sl4", ["examples", "aiii3-sl4"]),
    ]
)


def _run(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    return pathlib.Path(out).read_bytes()


@pytest.mark.parametrize("stem,argv", CASES, ids=[stem for stem, _ in CASES])
def test_golden_report(stem, argv, tmp_path):
    got = _run(argv, tmp_path / "report.json")
    assert got == (GOLDEN / f"{stem}.json").read_bytes()


def test_no_case_inverts_a_matrix(tmp_path, monkeypatch):
    # braid composites carry their inverses and dual lines solve
    # rho(B_i) - value, so no command inverts a matrix by elimination
    import qspherical.linalg as linalg
    sizes = []
    invert = linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda a: sizes.append(len(a)) or invert(a))
    for stem, argv in CASES:
        assert main(argv + ["--out", str(tmp_path / f"{stem}.json")]) == 0
    assert sizes == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in CASES:
        _run(argv, GOLDEN / f"{stem}.json")
        print(stem, file=sys.stderr)
