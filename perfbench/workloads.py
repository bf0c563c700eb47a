"""The benchmark's three workloads: their inputs, their timed operations and
the outputs the checks read.

Constructing a workload builds its inputs (part of the set-up time).  Its
`ops` are the timed operations, each a callable returning its verdict, and
`outputs` collects, after the timed region, what `checks.py` verifies.

- invariance: `qspherical invariance` (quasik + spherical checks) through the
  CLI entry point, one operation per CLI job.
- scan: `qspherical characters` on aiii3_sl4, one CLI call and operation
  per weight.
- precompose: the inner loop of acceptance criterion 08 on ai1 L(4) through
  the public API, one operation per (line, word) pairing identity.

Only `precompose` depends on the seed, through its random words.
"""

from __future__ import annotations

import functools
import json
import os
import random

import qspherical.characters as characters
import qspherical.cli as cli
import qspherical.linalg as linalg
import qspherical.modules as modules
import qspherical.qsp as qsp
import qspherical.quasik as quasik
from qspherical import Field, SatakeDatum, root_datum

# The Satake configs the workloads use, written out as CLI inputs.
CONFIGS = {
    "ai1": {"cartan": [[2]], "symmetrizer": [1], "black": [], "tau": [1]},
    "aiii_sl3": {"cartan": [[2, -1], [-1, 2]], "symmetrizer": [1, 1],
                 "black": [], "tau": [2, 1]},
    "aiii3_sl4": {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                  "symmetrizer": [1, 1, 1], "black": [], "tau": [3, 2, 1]},
}

# c parameters as CLI literals; None means the distinguished parameter.
PARAMS = {
    "aiii_sl3": {"1": "q^(1/2)", "2": "q^(1/2)"},
    "ai1": None,
    "aiii3_sl4": {"1": "1", "2": "q^-1", "3": "1"},
}

# (config, weight): the three invariance jobs.
INVARIANCE_JOBS = (("aiii_sl3", "2,1"), ("ai1", "4"), ("aiii3_sl4", "0,1,0"))

# The {0,1}^3 weight box of aiii3_sl4 without L(1,1,1), which alone takes
# 18 s, plus L(0,2,0) (dim 20, three lines) and L(1,0,2) (dim 36, none).
SCAN_CONFIG = "aiii3_sl4"
SCAN_WEIGHTS = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1),
                (1, 0, 1), (1, 1, 0), (0, 2, 0), (1, 0, 2))

PRECOMPOSE_LAMBDA = (4,)
PRECOMPOSE_WORDS = 12       # seeded random words per line, as in criterion 08
ROOT_ORDER = 2


def _c_args(config):
    out = []
    for node, literal in sorted((PARAMS[config] or {}).items()):
        out += ["--c", f"{node}={literal}"]
    return out


def _write_configs(workdir):
    paths = {}
    for name, cfg in CONFIGS.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    return paths


def _cli_op(argv):
    return lambda: cli.main(argv) == cli.EXIT_PASS


class Invariance:
    def __init__(self, workdir, seed):
        configs = _write_configs(workdir)
        self.jobs = []
        for config, weight in INVARIANCE_JOBS:
            out = os.path.join(workdir, f"invariance-{config}.json")
            argv = (["invariance", "--config", configs[config]]
                    + _c_args(config) + ["--weight", weight, "--out", out])
            self.jobs.append((config, argv, out))
        self.ops = [_cli_op(argv) for _, argv, _ in self.jobs]

    def outputs(self):
        reports = {}
        for config, _, out in self.jobs:
            with open(out, encoding="utf-8") as fh:
                reports[config] = json.load(fh)
        return {"reports": reports}


class Scan:
    def __init__(self, workdir, seed):
        config = _write_configs(workdir)[SCAN_CONFIG]
        self.outs = []
        self.ops = []
        for w in SCAN_WEIGHTS:
            out = os.path.join(workdir, "scan-{}.json".format("".join(map(str, w))))
            argv = (["characters", "--config", config] + _c_args(SCAN_CONFIG)
                    + ["--weight", ",".join(map(str, w)), "--out", out])
            self.outs.append(out)
            self.ops.append(_cli_op(argv))

    def outputs(self):
        per_weight = []
        for out in self.outs:
            with open(out, encoding="utf-8") as fh:
                (body,) = json.load(fh)["checks"]
            per_weight += body["per_weight"]
        return {"per_weight": per_weight, "weights": [list(w) for w in SCAN_WEIGHTS],
                "params": PARAMS[SCAN_CONFIG], "root_order": ROOT_ORDER}


def random_words(seed, n_lines):
    """Per line, PRECOMPOSE_WORDS words of 1 to 4 letters over E, F, K."""
    rng = random.Random(seed)
    return [["".join(rng.choice("EFK") for _ in range(rng.randrange(1, 5)))
             for _ in range(PRECOMPOSE_WORDS)] for _ in range(n_lines)]


class Precompose:
    """One warm module L(4) of the split rank-one pair, with its spherical
    lines, their dual vectors and the words to conjugate."""

    def __init__(self, workdir, seed):
        field = Field(ROOT_ORDER)
        satake = SatakeDatum(root_datum("A", 1), (), (0,))
        self.param = qsp.distinguished_parameter(satake, field)
        self.node = satake.relative_orbit_representatives()[0]
        m = self.module = modules.build_simple(satake.datum, PRECOMPOSE_LAMBDA, field)
        self.gens = qsp.coideal_generators(self.param, m)
        self.lines = characters.find_spherical_lines(m, self.gens, self.param)
        self.duals = [characters.find_dual_spherical(line, self.gens)
                      for line in self.lines]
        letters = {"E": m.e_mats[0], "F": m.f_mats[0], "K": m.k_i_matrix(0)}
        torus = [("K_h", m.k_matrix((1,))), ("K_-h", m.k_matrix((-1,)))]
        self.words = []
        for names in random_words(seed, len(self.lines)):
            line_words = list(torus)
            for name in names:
                x = linalg.identity(m.dim, field)
                for letter in name:
                    x = linalg.mat_mul(x, letters[letter])
                line_words.append((name, x))
            self.words.append(line_words)
        self.ops = [functools.partial(self._identity, line, f, x)
                    for line, f, words in zip(self.lines, self.duals, self.words)
                    for _, x in words]

    def _identity(self, line, f, x):
        """shapovalov(f, W x W^-1 v) == shapovalov(f, x v), W the relative
        braid operator (built by the first call, then cached on the module)."""
        m = self.module
        big = quasik.wz_operator(self.node, self.param, m)
        moved = linalg.mat_mul(big.mat, linalg.mat_mul(x, big.inverse().mat))
        lhs = m.shapovalov(f, modules.act_matrix(moved, line.vector))
        rhs = m.shapovalov(f, modules.act_matrix(x, line.vector))
        return lhs == rhs

    def outputs(self):
        def ser(mat):
            return [[x.serialize() for x in row] for row in mat]
        gens = [(name, ser(op.mat)) for name, op in self.gens.all_named()]
        lines = []
        for line in self.lines:
            chi = line.character
            values = {f"B_{i}": v.serialize() for i, v in chi.b_values.items()}
            values.update({f"K_{h}": chi.torus_value(h).serialize()
                           for h, _ in self.gens.torus})
            # black generators annihilate a spherical vector
            values.update({f"{kind}_{j}": "0" for kind in "EF"
                           for j in self.param.satake.black})
            lines.append({"labels": {str(i): l for i, l in chi.labels.items()},
                          "vector": [c.serialize() for c in line.vector.coeffs],
                          "values": values})
        return {"generators": gens, "lines": lines}


WORKLOADS = {"invariance": Invariance, "scan": Scan, "precompose": Precompose}
