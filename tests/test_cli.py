import json
import pathlib

import pytest

import qspherical.cli as cli
import qspherical.linalg as linalg
import qspherical.quasik as quasik
from qspherical.characters import MultiplicityViolation, NoDualLine
from qspherical.cli import (EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_PASS,
                            EXIT_RESOURCE_CAP, JobSpec, main, run)
from qspherical.quasik import IntertwinerError

SL3_CONFIG = {"cartan": [[2, -1], [-1, 2]], "symmetrizer": [1, 1],
              "black": [], "tau": [2, 1]}
AI1_CONFIG = {"cartan": [[2]], "symmetrizer": [1], "black": [], "tau": [1]}


@pytest.fixture()
def sl3_config(tmp_path):
    path = tmp_path / "aiii_sl3.json"
    path.write_text(json.dumps(SL3_CONFIG))
    return str(path)


@pytest.fixture()
def ai1_config(tmp_path):
    path = tmp_path / "ai1.json"
    path.write_text(json.dumps(AI1_CONFIG))
    return str(path)


def test_empty_check_list():
    status, report = run(JobSpec(checks=()))
    assert status == EXIT_PASS
    assert report["checks"] == []


def test_validate(sl3_config):
    status, report = run(JobSpec(config=sl3_config, checks=("validate",)))
    assert status == EXIT_PASS
    assert report["checks"][0]["admissible"]


def test_validate_reports_violations(tmp_path):
    bad = {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
           "symmetrizer": [1, 1, 1], "black": [1, 2], "tau": [1, 2, 3]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    status, report = run(JobSpec(config=str(path), checks=("validate",)))
    assert status == EXIT_CHECK_FAILED
    conditions = {v["condition"] for v in report["checks"][0]["violations"]}
    assert "(ii)" in conditions


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    status, report = run(JobSpec(config=str(path), checks=("validate",)))
    assert status == EXIT_INPUT_ERROR
    assert report["error"]["code"] == "input"


def test_unrepresentable_parameter(ai1_config):
    job = JobSpec(config=ai1_config, checks=("characters",),
                  parameters=[("1", "q^(1/4)")], weights=[[2]])
    status, report = run(job)
    assert status == EXIT_INPUT_ERROR


def test_dimension_cap_exit_code(sl3_config):
    job = JobSpec(config=sl3_config, checks=("module",),
                  weights=[[2, 2]], dim_cap=5)
    status, report = run(job)
    assert status == EXIT_RESOURCE_CAP
    assert report["error"]["code"] == "dimension-cap"


def test_table1_passes():
    status, report = run(JobSpec(checks=("table1",)))
    assert status == EXIT_PASS
    rows = report["checks"][0]["rows"]
    assert len(rows) == 12 and all(r["passed"] for r in rows)


def test_examples_sl3():
    status, report = run(JobSpec(checks=("examples",), example="aiii-sl3"))
    assert status == EXIT_PASS
    table = report["checks"][0]["table"]
    assert [row["n"] for row in table] == list(range(-4, 5))
    assert all(row["matches"] for row in table)


def test_characters_scan(ai1_config):
    job = JobSpec(config=ai1_config, checks=("characters",),
                  parameters=[("1", "-q^-2")], weights=[[n] for n in range(4)])
    status, report = run(job)
    assert status == EXIT_PASS
    body = report["checks"][0]
    assert body["distinct_nontrivial"] >= 3


def test_invariance_checks(ai1_config):
    job = JobSpec(config=ai1_config, checks=("quasik", "spherical"),
                  parameters=[("1", "-q^-2")], weights=[[2]])
    status, report = run(job)
    assert status == EXIT_PASS
    quasik = report["checks"][0]
    assert quasik["results"][0]["mode"] == "transported"
    spherical = report["checks"][1]
    assert all(entry["braid_invariant"] and entry["invariant"]
               for entry in spherical["results"])


def test_determinism(ai1_config, tmp_path, capsys):
    job = JobSpec(config=ai1_config, checks=("characters", "quasik"),
                  parameters=[("1", "-q^-2")], weights=[[2]])
    outputs = []
    for _ in range(2):
        status, report = run(job)
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_main_entry(sl3_config, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", "--config", sl3_config, "--out", str(out)])
    assert code == EXIT_PASS
    body = json.loads(out.read_text())
    assert body["passed"]
    code = main(["table1"])
    assert code == EXIT_PASS
    capsys.readouterr()


def test_unknown_example(capsys):
    assert main(["examples", "nonsense"]) == EXIT_INPUT_ERROR
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == []
    assert report["error"]["code"] == "input"


def test_help_still_exits():
    with pytest.raises(SystemExit) as info:
        main(["validate", "--help"])
    assert info.value.code == 0


def test_parser_is_built_once(sl3_config, monkeypatch, capsys):
    """Command lines with different subcommands, a usage error among them,
    parse with one parser, built by the first."""
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli._parser.cache_clear()
    cli._out_parser.cache_clear()
    try:
        assert main(["table1"]) == EXIT_PASS
        first = list(built)
        assert main(["validate", "--config", sl3_config]) == EXIT_PASS
        capsys.readouterr()
        assert main(["examples", "nonsense"]) == EXIT_INPUT_ERROR
        assert built == first
        assert first.count("qspherical") == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "input"
    finally:
        cli._parser.cache_clear()
        cli._out_parser.cache_clear()


@pytest.mark.parametrize("cartan", [[[2, -2], [-2, 2]], [[2, -3], [-3, 2]]],
                         ids=["affine-A1", "hyperbolic"])
def test_cartan_matrix_not_of_finite_type(tmp_path, capsys, cartan):
    # the longest Weyl word of an infinite Weyl group never terminated
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cartan": cartan, "symmetrizer": [1, 1]}))
    out = tmp_path / "report.json"
    assert main(["validate", "--config", str(config), "--out", str(out)]) \
        == EXIT_INPUT_ERROR
    report = json.loads(out.read_text())
    assert report["error"]["code"] == "input"
    assert "not of finite type" in report["error"]["detail"]


@pytest.mark.parametrize("config,detail", [
    ({"cartan": [[2]], "symmetrizer": [1.5], "tau": [1.0]}, "not an integer"),
    ({"cartan": [[2.5]], "symmetrizer": [1]}, "not an integer"),
    ({"cartan": [["2"]], "symmetrizer": [1]}, "not a number"),
    ({"cartan": [[2]], "symmetrizer": [1], "black": [True]}, "not a number"),
    ({"cartan": [[2]], "symmetrizer": [1], "tau": [1.5]}, "not an integer"),
], ids=["half-symmetrizer", "half-cartan", "string-cartan", "bool-black", "half-tau"])
def test_non_integral_config_entry_is_input_error(tmp_path, capsys, config, detail):
    # int() truncated 1.5 to 1, and the module check ran with exit 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["module", "--config", str(path), "--weight", "1"]) == EXIT_INPUT_ERROR
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["code"] == "input"
    assert detail in report["error"]["detail"]


def test_integral_float_config_entries_are_read(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cartan": [[2.0]], "symmetrizer": [1.0], "tau": [1.0]}))
    assert main(["module", "--config", str(path), "--weight", "1"]) == EXIT_PASS


def test_invariance_builds_each_module_once(ai1_config, monkeypatch):
    built, solved = [], []
    build, solve = cli.build_simple, quasik._solve_intertwiner

    def counting_build(datum, lam, *args, **kwargs):
        built.append(tuple(lam))
        return build(datum, lam, *args, **kwargs)

    def counting_solve(i, satake, pairs, module):
        solved.append((module.lam, i))
        return solve(i, satake, pairs, module)

    monkeypatch.setattr(cli, "build_simple", counting_build)
    monkeypatch.setattr(quasik, "_solve_intertwiner", counting_solve)
    job = JobSpec(config=ai1_config, checks=("quasik", "spherical"),
                  weights=[[2], [3]])
    status, report = run(job)
    assert status == EXIT_PASS
    assert sorted(built) == [(2,), (3,)]
    assert sorted(solved) == [((2,), 0), ((3,), 0)]
    # a second run builds afresh: modules are not kept across runs
    run(job)
    assert len(built) == 4


@pytest.mark.parametrize("argv", [
    ["module", "--weight", "-1"],           # not dominant
    ["module", "--weight", "x"],            # not an integer
    ["module", "--weight", "1,0"],          # longer than the rank
    ["characters", "--weight", "1,0"],
    ["invariance", "--weight", ""],         # no coordinates
], ids=["negative", "non-integer", "too-long", "characters-too-long", "empty"])
def test_bad_weight_is_input_error(ai1_config, argv, capsys):
    code = main(argv[:1] + ["--config", ai1_config] + argv[1:])
    assert code == EXIT_INPUT_ERROR
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "input"


def test_unbalanced_parameter_is_input_error(sl3_config, capsys):
    code = main(["invariance", "--config", sl3_config, "--c", "1=1",
                 "--c", "2=q", "--weight", "1,0"])
    assert code == EXIT_INPUT_ERROR
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["code"] == "input"


CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


@pytest.mark.parametrize("argv", [
    ["characters", "ai1.json", "--c", "1"],
    ["characters", "ai1.json", "--s", "1"],
    # nodes that are not white were silently dropped
    ["characters", "ai1.json", "--c", "1=-q^-2", "--c", "5=q", "--weight", "2"],
    ["characters", "ai1.json", "--c", "1=-q^-2", "--c", "0=q", "--weight", "2"],
    ["characters", "aii3_sl4.json", "--c", "1=7", "--c", "2=q", "--weight", "0,1,0"],
    ["characters", "aii3_sl4.json", "--c", "2=q", "--s", "3=1", "--weight", "0,1,0"],
    # a repeated node kept its last value, also when "01" aliased "1"
    ["characters", "ai1.json", "--c", "1=q", "--c", "1=-q^-2", "--weight", "2"],
    ["characters", "ai1.json", "--c", "1=-q^-2", "--c", "01=q", "--weight", "2"],
    ["characters", "ai1.json", "--c", "1=-q^-2", "--s", "1=1", "--s", "1=0",
     "--weight", "2"],
    # --s without --c, and --c/--s on checks that never read them, were ignored
    ["characters", "ai1.json", "--s", "1=5", "--weight", "2"],
    ["validate", "ai1.json", "--c", "1=garbage"],
    ["module", "ai1.json", "--c", "5=q", "--c", "1=garbage", "--weight", "1"],
    ["module", "ai1.json", "--s", "1=1", "--weight", "1"],
    ["table1", None, "--c", "1=q"],
    ["examples", None, "aiii-sl3", "--s", "1=1"],
    # an empty scan passed
    ["characters", "ai1.json", "--weight-box", "-1"],
    # a cap below 1 built the dim-1 module L(0) all the same
    ["module", "ai1.json", "--weight", "0", "--dim-cap", "0"],
    ["module", "ai1.json", "--weight", "0", "--dim-cap", "-3"],
    # usage errors printed the usage text and wrote no report
    ["module", "ai1.json", "--root-order", "3"],
    ["examples", None, "nonsense"],
    ["invariance", None],
    # options a subcommand never reads were accepted and ignored
    ["examples", None, "aiii-sl3", "--dim-cap", "1"],
    ["validate", "ai1.json", "--weight", "7,7,7"],
    ["invariance", "ai1.json", "--weight-box", "2"],
    ["table1", None, "--root-order", "4"],
], ids=["--c", "--s", "c-out-of-range", "c-node-zero", "c-black-node",
        "s-black-node", "c-repeated", "c-repeated-leading-zero", "s-repeated",
        "s-without-c", "validate-c", "module-c", "module-s",
        "table1-c", "examples-s", "negative-weight-box", "dim-cap-0",
        "negative-dim-cap", "usage-root-order-3",
        "usage-unknown-example", "usage-missing-config", "examples-dim-cap",
        "validate-weight", "invariance-weight-box", "table1-root-order"])
def test_malformed_parameter_flag_honours_out(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    config = ["--config", str(CONFIGS / argv[1])] if argv[1] else []
    code = main([argv[0]] + config + argv[2:] + ["--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["checks"] == []
    assert report["error"]["code"] == "input"


@pytest.mark.parametrize("target", ["missing/report.json", "."],
                         ids=["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["table1"],
    ["module", "ai1.json", "--weight", "3"],
    ["module", "ai1.json", "--root-order", "3"],     # a usage error
], ids=["table1", "module", "usage-root-order-3"])
def test_unwritable_out_is_input_error(tmp_path, capsys, monkeypatch, target, argv):
    # the error report goes to stdout, before any check runs; an unwritable
    # --out used to end the whole run in a traceback, with exit 1
    def fail(job):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run", fail)
    config = ["--config", str(CONFIGS / argv[1])] if argv[1:] else []
    code = main(argv[:1] + config + argv[2:] + ["--out", str(tmp_path / target)])
    assert code == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["checks"] == []
    assert report["error"]["code"] == "input"
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("job", [
    JobSpec(checks=("bogus",)),
    JobSpec(config=str(CONFIGS / "ai1.json"), checks=("module",), root_order=3),
    JobSpec(config=str(CONFIGS / "ai1.json"), checks=("characters",),
            weight_box=-1),
    JobSpec(config=str(CONFIGS / "ai1.json"), checks=("module",), dim_cap=0),
], ids=["unknown-check", "root-order-3", "negative-weight-box", "dim-cap-0"])
def test_bad_job_is_input_error(job):
    # a bad job gets an input-error report: run() neither raises nor
    # reports an empty scan as passed
    status, report = run(job)
    assert status == EXIT_INPUT_ERROR
    assert report["checks"] == []
    assert report["error"]["code"] == "input"


@pytest.mark.parametrize("name, exc, code, done", [
    ("find_spherical_lines", MultiplicityViolation, "multiplicity", ["quasik"]),
    ("dual_spherical_vector", NoDualLine, "no-dual-line", ["quasik"]),
    ("quasi_k", IntertwinerError, "intertwiner", []),
], ids=["multiplicity", "no-dual-line", "intertwiner"])
def test_check_failure_is_exit_1(ai1_config, tmp_path, capsys, monkeypatch,
                                 name, exc, code, done):
    def fail(*args, **kwargs):
        raise exc("planted failure")

    monkeypatch.setattr(cli, name, fail)
    out = tmp_path / "report.json"
    status = main(["invariance", "--config", ai1_config, "--weight", "2",
                   "--out", str(out)])
    assert status == EXIT_CHECK_FAILED
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert [body["check"] for body in report["checks"]] == done
    assert report["error"] == {"code": code, "detail": "planted failure"}


# the benchmark's invariance jobs: (config, c parameters, weight)
BENCHMARK_INVARIANCE = [("aiii_sl3.json", ["--c", "1=q^(1/2)", "--c", "2=q^(1/2)"], "2,1"),
                        ("ai1.json", [], "4"),
                        ("aiii3_sl4.json", ["--c", "1=1", "--c", "2=q^-1", "--c", "3=1"],
                         "0,1,0")]


@pytest.mark.parametrize("config, c_args, weight", BENCHMARK_INVARIANCE,
                         ids=[job[0] for job in BENCHMARK_INVARIANCE])
def test_invariance_makes_no_solve_call(tmp_path, monkeypatch, config, c_args, weight):
    # the quasi-K system is read as a column relation, not through solve
    def fail(*args, **kwargs):
        raise AssertionError("linalg.solve called")

    monkeypatch.setattr(linalg, "solve", fail)
    out = tmp_path / "report.json"
    assert main(["invariance", "--config", str(CONFIGS / config)] + c_args
                + ["--weight", weight, "--out", str(out)]) == EXIT_PASS


@pytest.mark.parametrize("config, c_args, weight", BENCHMARK_INVARIANCE,
                         ids=[job[0] for job in BENCHMARK_INVARIANCE])
def test_invariance_inverts_nothing(tmp_path, monkeypatch, config, c_args, weight):
    # dual lines solve rho(B_i) - value, with rho(B_i) built from E, F, K
    # and a braid word instead of from inverted Gram blocks
    sizes = []
    invert = linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda a: sizes.append(len(a)) or invert(a))
    out = tmp_path / "report.json"
    assert main(["invariance", "--config", str(CONFIGS / config)] + c_args
                + ["--weight", weight, "--out", str(out)]) == EXIT_PASS
    assert sizes == []


def test_closed_stdout_keeps_the_run_status():
    # `qspherical module ... | head -c 300`: the report (about 146 kB) is
    # larger than a pipe's buffer, so the run is still writing when the
    # reader closes the pipe; it exits with its own status and no traceback
    import os
    import subprocess
    import sys
    root = pathlib.Path(__file__).parent.parent
    argv = ["module", "--config", str(root / "configs" / "aiii3_sl4.json"),
            "--weight", "1,0,1", "--weight", "0,2,0", "--weight", "1,1,0"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "qspherical.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(300).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == EXIT_PASS, err
    assert "Traceback" not in err


def test_aii3_sweep_inverts_nothing(monkeypatch, tmp_path):
    # braid composites carry their inverses, and dual lines solve
    # rho(B_i) - value, so nothing is inverted by elimination
    sizes = []
    invert = linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda a: sizes.append(len(a)) or invert(a))
    argv = ["invariance", "--config", str(CONFIGS / "aii3_sl4.json"), "--c", "2=q",
            "--weight", "0,1,0", "--weight", "0,2,0", "--out", str(tmp_path / "r.json")]
    assert main(argv) == EXIT_PASS
    assert sizes == []


@pytest.mark.parametrize("argv,config", [
    # parameter literals that divide by zero
    (["--c", "1=q/0"], {}),
    (["--c", "1=1/(q-q)"], {}),
    (["--c", "1=q^(1/0)"], {}),
    (["--c", "1=q", "--s", "1=0^-1"], {}),
    # config entries that are not integers, or not lists
    ([], {"symmetrizer": ["x"]}),
    ([], {"cartan": [["a"]]}),
    ([], {"tau": ["z"]}),
    ([], {"black": ["z"]}),
    ([], {"cartan": 5}),
    ([], {"symmetrizer": None}),
], ids=["c-over-zero", "c-over-q-minus-q", "c-exponent-over-zero",
        "s-zero-inverse", "symmetrizer-x", "cartan-a", "tau-z", "black-z",
        "cartan-5", "symmetrizer-null"])
def test_bad_numbers_are_input_errors(tmp_path, capsys, argv, config):
    # each of these ended the run in a traceback, with exit 1 and no report
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**AI1_CONFIG, **config}))
    out = tmp_path / "report.json"
    code = main(["invariance", "--config", str(path), "--weight", "1"]
                + argv + ["--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""
    report = json.loads(out.read_text())
    assert report["checks"] == []
    assert report["error"]["code"] == "input"
