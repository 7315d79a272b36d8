"""Seeded fuzz of the CLI contract, run in process.

Sixty command lines are drawn from a seeded numpy generator over every
subcommand, with extreme and invalid numbers.  Every run must exit with a
code in 0-5 and no traceback, print strict JSON that validates against the
shipped schema (or nothing, on an error exit), and exit 1 exactly when some
check row failed.  Costs are capped so that the scan takes a few seconds:
at most 200 trials, 3 rqfi modes and 41 x 41 grid points.
"""

import json

import jsonschema
import numpy as np
import pytest
from cli_runner import SCHEMA, run_cli

# each drawn value is unparseable or non-finite with probability 0.08
BAD = ("nan", "inf", "-inf", "abc", "", "1e400", "2.5", "-1")
ALPHAS = ("0", "-0", "1e-300", "5e-324", "1e-100", "1e-9", "1e-6", "0.05", "0.5", "1",
          "-0.7", "2.5", "30", "1e154", "1e200", "1e308", "0.3,0.4", "-0.8,0.2",
          "1,1e-300")
# 8 runs the rqfi oracle at its top cutoff below four modes; 40 skips it
RQFI_ALPHAS = ("1e-300", "1e-6", "0.5", "1", "-0.7", "2.5", "8", "40", "0.3,0.4",
               "1e154", "1e200")
MODES = ("1", "2", "3", "10", "1000", "100000000000")
DELTAS = ("0.01", "1e-6", "0.3", "0.5", "0", "1", "-0.1", "1e-300", "5e-324")
LAMBDAS = ("0", "0.25", "1", "1.5", "-0.1")
TRIALS = ("1", "10", "200")
SEEDS = ("0", "7", "18446744073709551615", "18446744073709551616")
FAMILIES = ("quadrature", "number", "quadrature+number", "bounded-local",
            "bounded-local+quadrature+number", "spin-sandwich",
            "spin-sandwich+number", "junk")
GRIDS = ("-4:4:41", "-2:2:5", "-3:3:2", "4:-4:10", "-1e300:1e300:41",
         "-1e-300:1e-300:3", "-3:3:1", "1:2:x")


def _draw(rng: np.random.Generator) -> list[str]:
    def pick(pool, bad=BAD):
        if bad and rng.random() < 0.08:
            pool = bad
        return str(pool[int(rng.integers(len(pool)))])

    kind = pick(("branch-dist", "branch-dist-real", "rqfi", "marquardt", "distill",
                 "mode-loss", "wigner-empirical", "simulate", "simulate", "wigner",
                 "wigner"), ())
    if kind == "simulate":
        sub = pick(("distill", "mode-loss", "collapse"), ())
        argv = ["simulate", sub, "--alpha", pick(ALPHAS), "--trials", pick(TRIALS),
                "--seed", pick(SEEDS)]
        if sub == "collapse":
            argv += ["--problem", pick(("branch-vs-branch", "cat-vs-mixed",
                                        "cat-vs-branch"), ("bogus",))]
        else:
            argv += ["--modes", pick(("1", "2", "6", "1000"))]
        if sub == "mode-loss":
            argv += ["--lambda", pick(LAMBDAS)]
        return argv
    if kind == "wigner":
        state = pick(("even-cat", "odd-cat", "omega", "hcs2", "coherent"), ())
        argv = ["wigner", "--state", state, "--alpha", pick(ALPHAS),
                "--grid", pick(GRIDS)]
        if state == "hcs2" or rng.random() < 0.1:
            argv += ["--slice", pick(("gamma2=0.5,-0.5", "gamma2=0", "gamma2=1e154"),
                                     ("gamma2=nan", "gamma=1"))]
        if rng.random() < 0.3:
            argv += ["--features"]
        if rng.random() < 0.3:
            argv += ["--format", "json"]
        return argv
    argv = ["measure", kind]
    if kind == "rqfi":
        return argv + ["--modes", pick(("1", "2", "3")), "--alpha", pick(RQFI_ALPHAS),
                       "--family", pick(FAMILIES, ()),
                       "--state", pick(("omega", "hcs"), ("bogus",))]
    if kind == "wigner-empirical":
        return argv + ["--modes", pick(("1", "2", "3")),
                       "--alpha", pick(("0", "1", "1.5", "2.5", "-2", "1e6", "1e154")),
                       "--state", pick(("omega", "even-cat"), ("bogus",))]
    argv += ["--modes", pick(MODES), "--alpha", pick(ALPHAS)]
    if kind.startswith("branch-dist"):
        argv += ["--delta", pick(DELTAS)]
    elif kind == "mode-loss":
        argv += ["--lambda", pick(LAMBDAS)]
    elif kind == "marquardt" and rng.random() < 0.5:
        argv += ["--numeric-check"]
    return argv


_RNG = np.random.default_rng(20261018)
DRAWS = [_draw(_RNG) for _ in range(60)]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize(
    "argv", DRAWS, ids=[f"{i}-{a[0] if a[0] == 'wigner' else a[1]}" for i, a in enumerate(DRAWS)]
)
def test_cli_contract_holds_for_drawn_inputs(argv):
    proc = run_cli(*argv)
    code = proc.returncode
    assert code in range(6), (argv, code, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
    if code in (0, 1):
        env = json.loads(proc.stdout, parse_constant=_reject_constant)
        jsonschema.validate(env, SCHEMA)
        failed = any(row["status"] == "fail" for row in env["checks"])
        assert (code == 1) == failed, (argv, code, env["checks"])
    else:
        assert proc.stdout == "", (argv, code)
