"""Structure of the verify battery, and the seeds it once failed on."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catsize.verify
from catsize.closed_forms import (
    CatFamily,
    CatStateSpec,
    number_variance_omega,
    quadrature_variance_omega,
)
from catsize.errors import DomainError
from catsize.measures import (
    RQFI_VARIANCE_TOL,
    TRACE_NORM_TOL,
    TRANSFER_MEAN_TOL,
    TRANSFER_PMF_TOL,
    branch_dist_size,
    marquardt_size,
    rqfi_size,
)
from catsize.simulate import (
    CollapseProblem,
    collapse_rows,
    distillation_rows,
    mode_loss_rows,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)
from catsize.verify import (
    CHECKS,
    DRAW_STREAMS,
    SPARE_STREAMS,
    Draws,
    _row_gap,
    checks,
    run,
)


def test_registry_names_are_unique():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names))


def test_fast_suite_is_the_in_order_prefix_of_full():
    fast, full = checks("fast"), checks("full")
    assert full == CHECKS
    assert full[: len(fast)] == fast
    assert {c.suite for c in full[len(fast):]} == {"full"}


def test_suite_sizes_match_the_readme():
    assert (len(checks("fast")), len(checks("full"))) == (27, 39)


def _omega(modes, alpha):
    return CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha)


def _collapse_row(alpha, problem):
    return collapse_rows(simulate_branch_collapse(alpha, 2000, 0, problem), problem)[0]


def test_route_rows_take_the_named_tolerances():
    rows = {r["name"]: r for r in run("fast", 0)}
    named = {
        "helstrom-closed-vs-trace-norm": TRACE_NORM_TOL,
        "rqfi-gram-vs-fock": RQFI_VARIANCE_TOL,
        "marquardt-displaced-pmf": TRANSFER_PMF_TOL,
        "marquardt-branch-mean": TRANSFER_MEAN_TOL,
    }
    assert [named[name] for name in named] == [1e-10, 1e-7, 1e-10, 1e-8]
    for name, tolerance in named.items():
        assert rows[name]["tolerance"] == tolerance, name
        assert rows[name]["status"] == "pass", name
    # every route row is read from the public result of the module owning the route
    (helstrom,) = branch_dist_size(_omega(2, 1.0), 1e-3).checks
    (rqfi,) = rqfi_size(_omega(2, 1.0), "quadrature+number", oracle=True).checks
    pmf, mean = marquardt_size(_omega(2, 1.0), numeric_check=True).checks
    bvb, cvm = CollapseProblem.BRANCH_VS_BRANCH, CollapseProblem.CAT_VS_MIXED
    public = {
        "helstrom-closed-vs-trace-norm": helstrom,
        "collapse-cat-vs-mixed": _collapse_row(1.1, cvm),
        "collapse-branch-vs-branch-smoke": _collapse_row(math.sqrt(2.0), bvb),
        "rqfi-gram-vs-fock": rqfi,
        "marquardt-displaced-pmf": pmf,
        "marquardt-branch-mean": mean,
        "simulate-distill-smoke": distillation_rows(
            simulate_distillation(4, 0.8, 2000, 0), 4, 0.8
        )[0],
        "simulate-mode-loss-smoke": mode_loss_rows(
            simulate_mode_loss(6, 1.0, 0.25, 2000, 0), 6, 1.0, 0.25
        )[0],
    }
    for name, row in public.items():
        assert (rows[name]["observed"], rows[name]["tolerance"]) == _row_gap(row), name
    for kind, closed in (("quadrature", quadrature_variance_omega),
                         ("number", number_variance_omega)):
        variance = rqfi_size(_omega(3, 0.8), kind).diagnostics["variance"]
        row = rows[f"rqfi-{kind}-variance-identity"]
        assert (row["observed"], row["tolerance"]) == (abs(variance - closed(3, 0.8)), 1e-9)


def test_branch_collapse_smoke_row_compares_with_the_exact_probability():
    # the row's expected value is p_first_outcome_exact, 0x1.0000000000001p-1, not 0.5
    (row,) = [r for r in run("fast", 0) if r["name"] == "collapse-branch-vs-branch-smoke"]
    assert row["observed"] == 0.014499999999999846
    stats = simulate_branch_collapse(math.sqrt(2.0), 2000, 0, CollapseProblem.BRANCH_VS_BRANCH)
    assert stats.extra["p_first_outcome_exact"] == float.fromhex("0x1.0000000000001p-1")


def test_verify_imports_no_private_name_of_measures():
    tree = ast.parse(Path(catsize.verify.__file__).read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "measures"
        for alias in node.names
    ]
    assert names and [n for n in names if n.startswith("_")] == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_key_range_is_refused_before_any_row(seed):
    with pytest.raises(DomainError, match=r"expected a seed in \[0, 2\*\*64\)"):
        run("fast", seed)


@pytest.mark.parametrize("seed", [2019913341, 2465509901])
def test_vacuum_mixing_row_redraws_unmatched_intensities(seed):
    # both seeds drew 5 pairs with no bitwise-matched beta and failed the row
    rows = run("fast", seed)
    (vacuum,) = [r for r in rows if r["name"] == "vacuum-mixing-invariance"]
    assert vacuum["status"] == "pass"
    assert vacuum["observed"] == 0.0 and vacuum["tolerance"] == 0.0
    assert all(r["status"] == "pass" for r in rows)


@pytest.mark.parametrize(
    "suite, seed",
    [("fast", 2283172114), ("fast", 838334454), ("fast", 1833313030), ("full", 779890653)],
)
def test_wigner_rows_take_their_cutoff_from_the_drawn_points(suite, seed):
    # at a fixed cutoff of 40 a drawn point pushed the displaced amplitude
    # into the top Fock levels and the headroom guard raised TruncationError
    rows = run(suite, seed)
    assert [r["name"] for r in rows if r["status"] != "pass"] == []


@pytest.mark.parametrize("seed", [0, 838334454, 2**64 - 1])
@pytest.mark.parametrize("first", [DRAW_STREAMS, SPARE_STREAMS])
def test_draws_are_draw_zero_of_consecutive_philox_streams(seed, first):
    # requests of mixed sizes cross the refill blocks; value k comes from
    # stream (seed, first + k) whatever the requests were
    draws = Draws(seed, first)
    got = np.concatenate(
        [draws.uniform(0.0, 1.0), draws.uniform(0.0, 1.0, 300),
         [draws.integers(0, 2**53) / 2**53], draws.uniform(0.0, 1.0, 250)]
    )
    # the key is passed as uint64 words: a tuple such as (0, 2**63 + k)
    # becomes a float64 array, and every k then rounds to one key
    keys = [np.array([seed, first + k], np.uint64) for k in range(got.size)]
    want = [np.random.Generator(np.random.Philox(key=key)).random() for key in keys]
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def test_draws_scale_onto_their_range():
    draws, ref = Draws(7, DRAW_STREAMS), Draws(7, DRAW_STREAMS).uniform(0.0, 1.0, 2)
    assert draws.uniform(-0.5, 0.5)[0] == -0.5 + ref[0]
    assert draws.integers(2, 7) == 2 + int(5 * ref[1])
    assert all(2 <= Draws(s, DRAW_STREAMS).integers(2, 7) < 7 for s in range(200))


def test_full_suite_imports_no_numpy_random():
    # importing numpy.random costs 13-25 ms and 6.1 MB of RSS; the battery's
    # draws come from the simulators' Philox kernel.  numpy 2 loads it only
    # on first use, numpy 1 with numpy itself, so compare with numpy alone
    probe = (
        "import io, sys, contextlib, numpy\n"
        "alone = 'numpy.random' in sys.modules\n"
        "from catsize.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--suite', 'full', '--seed', '0'])\n"
        "print(code, alone, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, alone, after = proc.stdout.split()
    assert (code, after) == ("0", alone)
