"""Independent checks of the workloads' outputs.

Each check takes the `outputs()` of one round (plain JSON data) and returns a
list of problems; an empty list means the outputs are right.  Scalars arrive
in the program's canonical serialization and are re-read with sympy, so no
check goes through the program's own arithmetic.
"""

from __future__ import annotations

import sympy

V = sympy.Symbol("v", positive=True)
V_SAMPLE = sympy.Rational(3, 2)     # where precompose's eigenvectors are checked
RANK_ONE = ("ai1", "aiii_sl3")


def scalar(text, root_order=2):
    """A serialized scalar, or a parameter literal over q = v^root_order."""
    expr = text.replace("^", "**")
    return sympy.sympify(expr, locals={"v": V, "i": sympy.I,
                                       "q": V ** root_order})


def check_invariance(outputs) -> list:
    problems = []
    reports = outputs["reports"]
    for config, report in reports.items():
        checks = {c["check"]: c for c in report.get("checks", [])}
        if set(checks) != {"quasik", "spherical"}:
            problems.append(f"{config}: checks {sorted(checks)}")
            continue
        for e in checks["quasik"]["results"]:
            if not (e["constant_block_identity"] is True and e["residual_zero"] is True):
                problems.append(f"{config}: quasi-K at node {e['node']} not verified")
        lines = checks["spherical"]["results"]
        if not lines:
            problems.append(f"{config}: no spherical line")
        for e in lines:
            if not (e["braid_invariant"] is True and e["invariant"] is True):
                problems.append(f"{config}: line {e['labels']} not invariant")
            if config in RANK_ONE:
                table = {tuple(x["key"]): x["coeff"]
                         for x in e["restriction"]["values"]}
                negated = {tuple(-k for k in key): c for key, c in table.items()}
                if table != negated:
                    problems.append(f"{config}: line {e['labels']} restriction "
                                    "changes when its keys are negated")
        if config == "ai1":
            labels = sorted(e["labels"]["1"] for e in lines if "1" in e["labels"])
            if len(lines) != 5 or labels != [-4, -2, 0, 2, 4]:
                problems.append(f"ai1 L(4): {len(lines)} lines, labels {labels}")
    return problems


def check_scan(outputs) -> list:
    """Every B value against the closed rank-one formula (s = 0), squared:
    B^2 = (q_i^l - q_i^-l)^2 q_i c / (q_i - q_i^-1)^2, and B = 0 on nodes
    without a label; the scan covers exactly the requested weights."""
    problems = []
    order = outputs["root_order"]
    c = {node: scalar(lit, order) for node, lit in outputs["params"].items()}
    q = V ** order
    seen = [w["lambda"] for w in outputs["per_weight"]]
    if sorted(seen) != sorted(outputs["weights"]):
        problems.append(f"scan covers {seen}, asked {outputs['weights']}")
    for entry in outputs["per_weight"]:
        for chi in entry["characters"]:
            for name, text in chi["values"].items():
                node = name.split("_")[1]
                b = scalar(text, order)
                if node not in chi["l"]:
                    if b != 0:
                        problems.append(f"L{entry['lambda']} {name}={text}, no label")
                    continue
                l = chi["l"][node]
                want = (q ** l - q ** -l) ** 2 * q * c[node] / (q - 1 / q) ** 2
                if sympy.simplify(b ** 2 - want) != 0:
                    problems.append(f"L{entry['lambda']} {name}={text} breaks the "
                                    f"eigenvalue formula at label {l}")
    return problems


def check_precompose(outputs) -> list:
    """Each line vector is a joint eigenvector of every coideal generator with
    its character's value, in exact arithmetic at v = V_SAMPLE."""
    problems = []

    def at(text):
        return scalar(text).subs(V, V_SAMPLE)

    gens = [(name, sympy.Matrix([[at(x) for x in row] for row in mat]))
            for name, mat in outputs["generators"]]
    if len(outputs["lines"]) != 5:
        problems.append(f"{len(outputs['lines'])} lines on ai1 L(4), expected 5")
    for line in outputs["lines"]:
        x = sympy.Matrix([at(c) for c in line["vector"]])
        if x.is_zero_matrix:
            problems.append(f"line {line['labels']}: zero vector")
            continue
        for name, mat in gens:
            lam = at(line["values"][name])
            if (mat * x - lam * x).expand() != sympy.zeros(len(x), 1):
                problems.append(f"line {line['labels']}: not an eigenvector of {name}")
    return problems


CHECKS = {"invariance": check_invariance, "scan": check_scan,
          "precompose": check_precompose}
