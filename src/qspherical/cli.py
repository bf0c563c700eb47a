"""Batch driver: load a Satake config, build modules, run checks, emit JSON.

Exit codes: 0 all enabled checks pass, 1 a check failed, 2 bad input,
3 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import typing

from .characters import (MultiplicityViolation, NoDualLine, akin_character,
                         dual_spherical_vector, find_dual_spherical,
                         find_spherical_lines, hermitian_scan)
from .modules import DimensionCapExceeded, build_simple, check_contravariance, \
    check_defining_relations
from .qsp import Parameter, ParameterError, chi_shift_coideal, \
    coideal_generators, distinguished_parameter
from .quasik import IntertwinerError, quasi_k, wz_character_check
from .rootdata import (RootDatumError, SatakeDatum, root_datum,
                       satake_from_config, table1_constants)
from .scalars import (ROOT_ORDERS, Field, ScalarParseError, UnrepresentableScalar,
                      parse_scalar)
from .spherical import MatrixCoefficient, is_weyl_invariant, restrict_torus

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3

# exceptions that mean a check failed, with their report error codes
CHECK_FAILURES = {MultiplicityViolation: "multiplicity",
                  NoDualLine: "no-dual-line",
                  IntertwinerError: "intertwiner"}

# the checks that read --c/--s
PARAMETER_CHECKS = {"characters", "quasik", "spherical"}

TABLE1_EXPECTED = {
    ("AI1", None): (2, 0, 0, 2),
    ("AII3", None): (2, -2, 2, 4),
    ("AIII11", None): (2, 0, 0, 2),
    ("AIV", 2): (2, 0, 0, 2),
    ("AIV", 3): (2, -1, 1, 3),
    ("BII", 2): (4, -2, 2, 6),
    ("BII", 3): (4, -4, 6, 10),
    ("CII", 3): (2, -2, 3, 5),
    ("CII", 4): (2, -4, 5, 7),
    ("DII", 4): (2, -4, 4, 6),
    ("DII", 5): (2, -6, 6, 8),
    ("FII", None): (2, -6, 9, 11),
}


class JobSpec(typing.NamedTuple):
    config: str | None = None
    parameters: list | None = None       # (node as 1-based str, literal) pairs
    s_parameters: list | None = None
    weights: list | None = None          # list of 1-based coordinate lists
    checks: tuple = ()
    out: str | None = None
    root_order: int = 2
    weight_box: int = 4
    dim_cap: int = 2000
    example: str | None = None


class InputError(Exception):
    pass


def _load_satake(job: JobSpec) -> SatakeDatum:
    if not job.config:
        raise InputError("a Satake config is required for this check")
    try:
        with open(job.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        return satake_from_config(cfg)
    except (OSError, ValueError, TypeError, RootDatumError) as exc:
        raise InputError(f"config error: {exc}") from exc


def _load_parameter(job: JobSpec, satake: SatakeDatum, field: Field) -> Parameter:
    if job.parameters is None:
        if job.s_parameters:
            raise InputError("--s needs --c: without --c the distinguished "
                             "parameter is used, and it fixes s")
        return distinguished_parameter(satake, field)
    c, s = {}, {}
    try:
        for values, pairs in ((c, job.parameters), (s, job.s_parameters or [])):
            for key, literal in pairs:
                node = int(key) - 1
                if node not in satake.I_circ:
                    raise InputError(f"parameter node {key} is not a white node")
                if node in values:
                    raise InputError(f"parameter node {node + 1} is given twice")
                values[node] = parse_scalar(literal, field)
    except (ScalarParseError, UnrepresentableScalar, ValueError) as exc:
        raise InputError(f"parameter error: {exc}") from exc
    except ZeroDivisionError as exc:
        raise InputError(f"parameter error: {literal} divides by zero") from exc
    try:
        return Parameter(satake, c, s)
    except Exception as exc:
        raise InputError(f"parameter error: {exc}") from exc


def _weights(job: JobSpec, satake: SatakeDatum) -> list:
    n = satake.datum.n
    if not job.weights:
        return [tuple(1 if k == 0 else 0 for k in range(n))]
    out = []
    for w in job.weights:
        try:
            lam = tuple(int(x) for x in w)
        except (TypeError, ValueError) as exc:
            raise InputError(f"weight {w!r} is not a list of integers") from exc
        if len(lam) != n:
            raise InputError(f"weight {list(lam)} has {len(lam)} coordinates; "
                             f"the rank is {n}")
        if not satake.datum.is_dominant(lam):
            raise InputError(f"weight {list(lam)} is not dominant")
        out.append(lam)
    return out


def _simple_module(job: JobSpec, satake: SatakeDatum, lam: tuple, field: Field,
                   built: dict):
    """L(lam), built once per run() and shared by the checks of that run;
    the caches of the quasi-K and relative braid operators live on it."""
    if lam not in built:
        built[lam] = build_simple(satake.datum, lam, field, dim_cap=job.dim_cap)
    return built[lam]


def run_validate(job: JobSpec, built: dict) -> dict:
    satake = _load_satake(job)
    problems = satake.validate()
    return {
        "check": "validate",
        "admissible": not problems,
        "violations": [{"condition": c, "detail": d} for c, d in problems],
        "passed": not problems,
    }


def run_module(job: JobSpec, built: dict) -> dict:
    satake = _load_satake(job)
    field = Field(job.root_order)
    out = []
    for lam in _weights(job, satake):
        module = _simple_module(job, satake, lam, field, built)
        rel = check_defining_relations(module) + check_contravariance(module)
        dump = {
            "lambda": list(lam),
            "dim": module.dim,
            "weights": [list(w) for w in module.weights],
            "raising": {str(i + 1): [[x.serialize() for x in row] for row in mat]
                        for i, mat in module.e_mats.items()},
            "lowering": {str(i + 1): [[x.serialize() for x in row] for row in mat]
                         for i, mat in module.f_mats.items()},
            "relations_ok": not rel,
            "violations": rel,
        }
        out.append(dump)
    return {"check": "module", "modules": out,
            "passed": all(m["relations_ok"] for m in out)}


def run_characters(job: JobSpec, built: dict) -> dict:
    satake = _load_satake(job)
    field = Field(job.root_order)
    param = _load_parameter(job, satake, field)
    if job.weight_box < 0:
        raise InputError(f"weight box {job.weight_box} is negative")
    weights = _weights(job, satake) if job.weights else None
    report = hermitian_scan(satake, param, field, weights=weights,
                            bound=None if weights else job.weight_box,
                            dim_cap=job.dim_cap)
    body = report.describe()
    body["check"] = "characters"
    body["passed"] = True
    return body


def run_quasik(job: JobSpec, built: dict) -> dict:
    satake = _load_satake(job)
    field = Field(job.root_order)
    param = _load_parameter(job, satake, field)
    results = []
    ok_all = True
    for lam in _weights(job, satake):
        module = _simple_module(job, satake, lam, field, built)
        for i in satake.relative_orbit_representatives():
            qk = quasi_k(i, param, module)
            entry = {
                "lambda": list(lam),
                "node": i + 1,
                "mode": qk.mode,
                "constant_block_identity": qk.zero_block_is_identity(),
                "residual_zero": qk.residual_ok,
            }
            entry["passed"] = (entry["constant_block_identity"]
                               and entry["residual_zero"])
            ok_all = ok_all and entry["passed"]
            results.append(entry)
    return {"check": "quasik", "results": results, "passed": ok_all}


def run_spherical(job: JobSpec, built: dict) -> dict:
    satake = _load_satake(job)
    field = Field(job.root_order)
    param = _load_parameter(job, satake, field)
    if not param.is_balanced():
        raise InputError("the relative braid operators need a balanced "
                         "parameter: c_i = c_tau(i) and s = 0")
    results = []
    ok_all = True
    for lam in _weights(job, satake):
        module = _simple_module(job, satake, lam, field, built)
        gens = coideal_generators(param, module)
        for line in find_spherical_lines(module, gens, param):
            entry = {"lambda": list(lam),
                     "labels": {str(i + 1): l for i, l in line.character.labels.items()}}
            wz_ok = all(wz_character_check(line, i, param, gens)[0]
                        for i in satake.relative_orbit_representatives())
            shifted = chi_shift_coideal(param, line.character)
            akin = akin_character(line.character, param)
            dual = dual_spherical_vector(module, coideal_generators(shifted, module),
                                         akin.b_values, module.lam)
            table = restrict_torus(MatrixCoefficient(module, dual, line.vector),
                                   satake)
            inv, cert = is_weyl_invariant(table, satake)
            entry["braid_invariant"] = wz_ok
            entry["restriction"] = table.describe() | {"invariant": inv}
            entry["invariant"] = inv
            if cert:
                entry["certificate"] = cert
            entry["passed"] = wz_ok and inv
            ok_all = ok_all and entry["passed"]
            results.append(entry)
    return {"check": "spherical", "results": results, "passed": ok_all}


def run_table1(job: JobSpec, built: dict) -> dict:
    rows = []
    ok_all = True
    for (label, n), want in TABLE1_EXPECTED.items():
        got = table1_constants(label, n)
        ok = got == want
        ok_all = ok_all and ok
        rows.append({"type": label, "n": n, "computed": list(got),
                     "expected": list(want), "passed": ok})
    return {"check": "table1", "rows": rows, "passed": ok_all}


def run_examples(job: JobSpec, built: dict) -> dict:
    which = job.example or "aiii-sl3"
    field = Field(job.root_order)
    if which == "aiii-sl3":
        return _example_sl3(field)
    if which == "aiii3-sl4":
        return _example_sl4(field)
    raise InputError(f"unknown example {which!r}; use aiii-sl3 or aiii3-sl4")


def _example_sl3(field: Field) -> dict:
    datum = root_datum("A", 2)
    satake = SatakeDatum(datum, (), (1, 0))
    q = field.q
    c1, c2 = field.one, q
    param = Parameter(satake, {0: c1, 1: c2})
    module = build_simple(datum, (1, 0), field)
    gens = coideal_generators(param, module)
    line = find_spherical_lines(module, gens, param)[0]
    dual = find_dual_spherical(line, gens).normalized_at(module.highest_index)
    table = restrict_torus(MatrixCoefficient(module, dual, line.vector), satake)
    rows = []
    ok_all = True
    for n in range(-4, 5):
        value = table.evaluate_coords([n])
        expected = q.inverse() * c1.inverse() * c2 * q ** (-n) + q ** n
        ok = value == expected
        ok_all = ok_all and ok
        rows.append({"n": n, "value": str(value), "matches": ok})
    return {"check": "examples", "example": "aiii-sl3",
            "table": rows, "passed": ok_all}


def _example_sl4(field: Field) -> dict:
    datum = root_datum("A", 3)
    satake = SatakeDatum(datum, (), (2, 1, 0))
    q = field.q
    param = Parameter(satake, {0: field.one, 1: q.inverse(), 2: field.one})
    module = build_simple(datum, (0, 1, 0), field)
    gens = coideal_generators(param, module)
    lines = find_spherical_lines(module, gens, param)
    results = []
    ok_all = bool(lines)
    for line in lines:
        table = restrict_torus(
            MatrixCoefficient(module, line.vector.bar(), line.vector), satake)
        ok = True
        for n in range(-3, 4):
            for m in range(-3, 4):
                coords = satake.y_theta_coords((m, n, m))
                expected = q ** n + q ** (2 * m - n) + q ** (n - 2 * m) + q ** (-n)
                ok = ok and table.evaluate_coords(coords) == expected
        inv, _ = is_weyl_invariant(table, satake)
        ok_all = ok_all and ok and inv
        results.append({"labels": {str(i + 1): l
                                   for i, l in line.character.labels.items()},
                        "restriction_matches": ok, "invariant": inv})
    return {"check": "examples", "example": "aiii3-sl4",
            "lines": results, "passed": ok_all}


RUNNERS = {
    "validate": run_validate,
    "module": run_module,
    "characters": run_characters,
    "quasik": run_quasik,
    "spherical": run_spherical,
    "table1": run_table1,
    "examples": run_examples,
}


def run(job: JobSpec):
    """Run the enabled checks; returns (exit status, report dict)."""
    report = {"checks": []}
    built = {}
    status = EXIT_PASS
    try:
        for check in job.checks:
            if check not in RUNNERS:
                raise InputError(f"unknown check {check!r}; known: {sorted(RUNNERS)}")
        if job.root_order not in ROOT_ORDERS:
            raise InputError(f"root order {job.root_order} is not one of {ROOT_ORDERS}")
        if job.dim_cap < 1:
            raise InputError(f"dimension cap {job.dim_cap} is below 1")
        if ((job.parameters or job.s_parameters)
                and not PARAMETER_CHECKS.intersection(job.checks)):
            raise InputError("--c/--s are read only by characters and invariance")
        for check in job.checks:
            body = RUNNERS[check](job, built)
            report["checks"].append(body)
            if not body.get("passed", False):
                status = max(status, EXIT_CHECK_FAILED)
    except (InputError, ScalarParseError, RootDatumError, ParameterError) as exc:
        report["error"] = {"code": "input", "detail": str(exc)}
        return EXIT_INPUT_ERROR, report
    except UnrepresentableScalar as exc:
        report["error"] = {"code": "unrepresentable-scalar", "detail": str(exc)}
        return EXIT_INPUT_ERROR, report
    except DimensionCapExceeded as exc:
        report["error"] = {"code": "dimension-cap", "detail": str(exc)}
        return EXIT_RESOURCE_CAP, report
    except tuple(CHECK_FAILURES) as exc:
        report["error"] = {"code": CHECK_FAILURES[type(exc)], "detail": str(exc)}
        return EXIT_CHECK_FAILED, report
    report["passed"] = status == EXIT_PASS
    return status, report


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe early, as `| head` does: the rest of
            # the output, and the flush at exit, go to devnull instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _parse_kv(items) -> list:
    out = []
    for item in items or []:
        if "=" not in item:
            raise InputError(f"expected node=value, got {item!r}")
        key, val = item.split("=", 1)
        out.append((key.strip(), val.strip()))
    return out


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as InputError, for a JSON report, instead of
    printing the usage text and exiting."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _out_parser() -> _Parser:
    parser = _Parser(add_help=False)
    parser.add_argument("--out")
    return parser


def _out_argument(argv) -> str | None:
    """The --out of a command line, also of one that does not parse."""
    try:
        return _out_parser().parse_known_args(argv)[0].out
    except InputError:
        return None


# the options each subcommand reads; every one also takes --out
OPTIONS = {
    "validate": ("config",),
    "module": ("config", "root-order", "dim-cap", "weight"),
    "characters": ("config", "root-order", "dim-cap", "weight-box", "c", "s", "weight"),
    "invariance": ("config", "root-order", "dim-cap", "c", "s", "weight"),
    "table1": (),
    "examples": ("root-order",),
}

ARGUMENTS = {
    "config": dict(required=True, help="Satake config JSON"),
    "root-order": dict(type=int, default=2, choices=ROOT_ORDERS),
    "dim-cap": dict(type=int, default=2000),
    "weight-box": dict(type=int, default=4),
    "c": dict(action="append", metavar="NODE=LITERAL",
              help="c parameter, e.g. --c 1=-q^-2 (1-based node)"),
    "s": dict(action="append", metavar="NODE=LITERAL"),
    "weight": dict(action="append", metavar="COORDS",
                   help="dominant weight, e.g. --weight 1,0,1"),
}


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = _Parser(
        prog="qspherical",
        description="Exact checks for quantum symmetric pairs, their characters "
                    "and spherical functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--out", help="write the JSON report here")
        for name in options:
            p.add_argument(f"--{name}", **ARGUMENTS[name])
    sub.choices["examples"].add_argument(
        "which", nargs="?", default="aiii-sl3", choices=("aiii-sl3", "aiii3-sl4"))
    return parser


def main(argv=None) -> int:
    out = _out_argument(argv)
    try:
        if out:
            try:    # append mode creates a missing file and changes no other
                open(out, "a", encoding="utf-8").close()
            except OSError as exc:
                out = None      # so the report goes to stdout
                raise InputError(f"cannot write the report to {exc.filename}: "
                                 f"{exc.strerror}") from exc
        args = _parser().parse_args(argv)
        given = vars(args)
        checks = {"invariance": ("quasik", "spherical")}.get(args.command,
                                                            (args.command,))
        job = JobSpec(
            config=given.get("config"),
            parameters=_parse_kv(given.get("c")) or None,
            s_parameters=_parse_kv(given.get("s")) or None,
            weights=[w.split(",") for w in given.get("weight") or []] or None,
            checks=checks,
            out=out,
            example=given.get("which"),
            **{key: given[key] for key in ("root_order", "weight_box", "dim_cap")
               if key in given},
        )
    except InputError as exc:
        _emit({"checks": [], "error": {"code": "input", "detail": str(exc)}}, out)
        return EXIT_INPUT_ERROR
    status, report = run(job)
    _emit(report, job.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
