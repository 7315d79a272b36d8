"""Seeded command generator for the benchmark workloads.

Each workload is a list of argv lists, the arguments that follow
``python -m catsize.cli``.  The same seed (and output directory) always gives
the same list.  Parameters are drawn inside the README's documented ranges and
under the Fock size guards.  The generator draws no extreme or non-finite
inputs: those belong to a fuzz test of the CLI contract, and the ranges here
are not chosen to avoid them.

Cost per command is kept independent of the seed where the seed would
otherwise move a timing metric: trial counts are fixed per workload, and the
cli-mix trial counts are a fixed multiset shuffled over the simulate commands.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from catsize import delta_validity_interval
from catsize.phase_space import default_feature_window

WORKLOADS = ("verify-full", "simulate-mc", "cli-mix")

# Trajectories each simulate-mc command requests.
SIMULATE_MC_TRIALS = 100_000

# cli-mix repeats this many rounds of 14 commands: 112 commands, so that at
# least ten lie beyond the 90th percentile of command wall time.
CLI_MIX_ROUNDS = 8

# Small-trial simulate runs in cli-mix; each round assigns these three counts
# to its three simulate commands, so every seed requests the same total.
CLI_MIX_TRIALS = (500, 1000, 2000)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _grid(half: float, steps: int) -> list[str]:
    return ["--grid", f"{_num(-half)}:{_num(half)}:{steps}"]


# verify-full runs the battery at the seed of Tier-1 acceptance criterion 12.
# The battery is not yet robust to its own seed: at seed 838334454
# `wigner-hcs2-closed-vs-numeric` and at seed 779890653 `wigner-hcs2-dense`
# draw a point whose displaced amplitude reaches the cutoff (TruncationError),
# and at seed 2019913341 `vacuum-mixing-invariance` finds no intensity-matched
# draw.  That is a defect of the battery, to be fixed in the program; this
# workload times the battery as the test suite runs it.
VERIFY_SEED = 0


def verify_full(rng: random.Random) -> list[list[str]]:
    return [["verify", "--suite", "full", "--seed", str(VERIFY_SEED)]]


def simulate_mc(rng: random.Random) -> list[list[str]]:
    trials = ["--trials", str(SIMULATE_MC_TRIALS)]
    problem = rng.choice(("branch-vs-branch", "cat-vs-mixed", "cat-vs-branch"))
    return [
        ["simulate", "distill", "--modes", str(rng.randint(2, 8)),
         "--alpha", _num(rng.uniform(0.3, 1.5)), *trials,
         "--seed", str(rng.randrange(10**6))],
        ["simulate", "mode-loss", "--modes", str(rng.randint(2, 8)),
         "--alpha", _num(rng.uniform(0.3, 1.5)),
         "--lambda", _num(rng.uniform(0.05, 0.5)), *trials,
         "--seed", str(rng.randrange(10**6))],
        ["simulate", "collapse", "--problem", problem,
         "--alpha", _num(rng.uniform(0.5, 3.2)), *trials,
         "--seed", str(rng.randrange(10**6))],
    ]


def _branch_dist(rng: random.Random) -> list[str]:
    """δ drawn log-uniformly strictly inside the validity interval, and below
    its n_eff = 2 point so the two-mode trace-norm oracle always runs."""
    modes = rng.randint(4, 10)
    alpha = rng.uniform(0.5, 0.7)
    lo, _ = delta_validity_interval(modes, alpha)
    at_two, _ = delta_validity_interval(2, alpha)
    u = rng.uniform(0.05, 0.95)
    delta = math.exp(math.log(lo) + u * (math.log(at_two) - math.log(lo)))
    return ["measure", "branch-dist", "--modes", str(modes),
            "--alpha", _num(alpha), "--delta", _num(delta)]


def _cli_mix_round(rng: random.Random, out_dir: Path, r: int) -> list[list[str]]:
    def out(name: str) -> list[str]:
        return ["--out", str(out_dir / f"r{r}-{name}")]

    two_mode = r % 2 == 0
    trials = list(CLI_MIX_TRIALS)
    rng.shuffle(trials)
    feat_alpha = rng.uniform(1.5, 2.5)
    lo, hi, steps = default_feature_window(feat_alpha)
    hcs_alpha = rng.uniform(1.0, 3.0)
    json_alpha = rng.uniform(1.0, 2.5)
    stdout_alpha = rng.uniform(1.0, 2.5)
    return [
        _branch_dist(rng),
        _branch_dist(rng),
        ["measure", "marquardt", "--modes", str(rng.randint(2, 3)),
         "--alpha", _num(rng.uniform(0.4, 1.0)), "--numeric-check"],
        ["measure", "rqfi", "--modes", str(rng.randint(1, 3)),
         "--alpha", _num(rng.uniform(0.5, 1.5)),
         "--family", rng.choice(("quadrature", "number", "quadrature+number",
                                 "bounded-local", "bounded-local+quadrature+number"))],
        ["measure", "distill", "--modes", str(rng.randint(2, 10)),
         "--alpha", _num(rng.uniform(0.3, 1.5))],
        ["measure", "mode-loss", "--modes", str(rng.randint(2, 10)),
         "--alpha", _num(rng.uniform(0.3, 1.5)),
         "--lambda", _num(rng.uniform(0.05, 0.5))],
        ["measure", "wigner-empirical", "--alpha", _num(rng.uniform(1.5, 2.5)),
         *rng.choice((["--state", "even-cat"], ["--modes", "1"], ["--modes", "2"]))],
        ["wigner", "--state", "even-cat", "--alpha", _num(feat_alpha),
         "--grid", f"{_num(lo)}:{_num(hi)}:{steps}", "--features", *out("features.csv")],
        ["wigner", "--state", "hcs2", "--alpha", _num(hcs_alpha),
         "--slice", f"gamma2={_num(rng.uniform(-1, 1))},{_num(rng.uniform(-1, 1))}",
         *_grid(hcs_alpha + 2.0, rng.randint(101, 141)), *out("slice.csv")],
        ["wigner", "--state", "hcs2" if two_mode else "even-cat",
         "--alpha", _num(json_alpha), *_grid(json_alpha + 2.0, rng.randint(61, 101)),
         "--format", "json", *out("grid.json")],
        ["wigner", "--state", "even-cat" if two_mode else "hcs2",
         "--alpha", _num(stdout_alpha), *_grid(stdout_alpha + 2.0, rng.randint(41, 81))],
        ["simulate", "distill", "--modes", str(rng.randint(2, 8)),
         "--alpha", _num(rng.uniform(0.3, 1.5)), "--trials", str(trials[0]),
         "--seed", str(rng.randrange(10**6))],
        ["simulate", "mode-loss", "--modes", str(rng.randint(2, 8)),
         "--alpha", _num(rng.uniform(0.3, 1.5)),
         "--lambda", _num(rng.uniform(0.05, 0.5)), "--trials", str(trials[1]),
         "--seed", str(rng.randrange(10**6))],
        ["simulate", "collapse",
         "--problem", rng.choice(("branch-vs-branch", "cat-vs-mixed", "cat-vs-branch")),
         "--alpha", _num(rng.uniform(0.5, 3.2)), "--trials", str(trials[2]),
         "--seed", str(rng.randrange(10**6))],
    ]


def cli_mix(rng: random.Random, out_dir: Path) -> list[list[str]]:
    commands = []
    for r in range(CLI_MIX_ROUNDS):
        commands.extend(_cli_mix_round(rng, out_dir, r))
    rng.shuffle(commands)
    return commands


def generate(workload: str, seed: int, out_dir: Path) -> list[list[str]]:
    """The workload's command sequence for ``seed``; ``--out`` files go to ``out_dir``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-full":
        return verify_full(rng)
    if workload == "simulate-mc":
        return simulate_mc(rng)
    if workload == "cli-mix":
        return cli_mix(rng, out_dir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
