"""Tests of the command-line surface, run in process through ``run_cli``.

Every envelope is checked against the schema shipped in the package.  A new
interpreter starts only where the process is under test: the hard exit that
ends it (``test_process_and_in_process_main_agree``, codes 0-4), its
descriptor 1 (the three exit-5 tests), the interpreter's own exit on a crash,
a fresh import (no scipy), and the stderr of the clean extreme-|alpha| runs,
where the test's warning filters would catch a warning in process.
"""

import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest
from cli_runner import CLI, SCHEMA, run_cli, spawn_cli, strip_timing

from catsize.cli import _dumps
from catsize.closed_forms import CatFamily, CatStateSpec
from catsize.errors import DomainError
from catsize.measures import (
    branch_dist_size,
    branch_dist_size_real,
    distillation_size,
    marquardt_size,
    mode_loss_size,
    rqfi_size,
    wigner_empirical_size,
)
from catsize.phase_space import grid_line, plane_axes, wigner_grid, write_grid_csv
from catsize.simulate import (
    CollapseProblem,
    collapse_rows,
    distillation_rows,
    mode_loss_rows,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)

def envelope(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# envelope shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "args",
    [
        ("measure", "marquardt", "--modes", "4", "--alpha", "1"),
        ("measure", "branch-dist", "--modes", "10", "--alpha", "0.5", "--delta", "0.01"),
        ("simulate", "collapse", "--alpha", "1.0", "--problem", "cat-vs-mixed",
         "--trials", "200", "--seed", "1"),
        ("wigner", "--state", "even-cat", "--alpha", "1", "--grid", "-2:2:21"),
        ("verify", "--suite", "fast", "--seed", "0"),
    ],
    ids=["marquardt", "branch-dist", "collapse", "wigner", "verify"],
)
def test_envelope_validates_against_schema(args):
    env = envelope(run_cli(*args))
    jsonschema.validate(env, SCHEMA)
    assert env["command"] == "catsize " + " ".join(args)


def test_envelope_field_order_is_sorted():
    proc = run_cli("measure", "marquardt", "--modes", "2", "--alpha", "1")
    keys = re.findall(r'^  "(\w+)":', proc.stdout, flags=re.MULTILINE)
    assert keys == sorted(keys)


def test_complex_alpha_flag_normalizes_to_pair():
    env = envelope(run_cli("measure", "distill", "--modes", "2", "--alpha", "1.5,0.5"))
    assert env["inputs"]["alpha"] == [1.5, 0.5]


def test_negative_alpha_token_parses():
    # a bare "-2" after the flag must not be read as an option string
    env = envelope(
        run_cli("wigner", "--state", "even-cat", "--alpha", "-2", "--grid", "-4:4:81")
    )
    assert env["inputs"]["alpha"] == [-2.0, 0.0]
    assert env["inputs"]["grid"] == [-4.0, 4.0, 81]
    assert env["command"].endswith("--alpha -2 --grid -4:4:81")


_ALPHA = [0.8, 0.0]


@pytest.mark.parametrize(
    "args, inputs",
    [
        (("measure", "branch-dist", "--modes", "10", "--alpha", "0.5", "--delta", "0.01"),
         {"subcommand": "branch-dist", "modes": 10, "alpha": [0.5, 0.0], "delta": 0.01}),
        (("measure", "branch-dist-real", "--modes", "4", "--alpha", "0.7", "--delta", "0.01"),
         {"subcommand": "branch-dist-real", "modes": 4, "alpha": [0.7, 0.0], "delta": 0.01}),
        (("measure", "rqfi", "--modes", "2", "--alpha", "0.8", "--family", "number"),
         {"subcommand": "rqfi", "modes": 2, "alpha": _ALPHA, "family": "number",
          "state": "omega"}),
        (("measure", "marquardt", "--alpha", "0.8"),
         {"subcommand": "marquardt", "modes": 1, "alpha": _ALPHA, "numeric_check": False}),
        (("measure", "distill", "--modes", "3", "--alpha", "0.8,0.1"),
         {"subcommand": "distill", "modes": 3, "alpha": [0.8, 0.1]}),
        (("measure", "mode-loss", "--modes", "6", "--alpha", "0.8", "--lambda", "0.25"),
         {"subcommand": "mode-loss", "modes": 6, "alpha": _ALPHA, "lam": 0.25}),
        (("measure", "wigner-empirical", "--alpha", "2", "--state", "even-cat"),
         {"subcommand": "wigner-empirical", "modes": 1, "alpha": [2.0, 0.0],
          "state": "even-cat"}),
        (("simulate", "distill", "--modes", "3", "--alpha", "0.8", "--trials", "200"),
         {"subcommand": "distill", "modes": 3, "alpha": _ALPHA, "trials": 200, "seed": 0}),
        (("simulate", "mode-loss", "--modes", "6", "--alpha", "0.8", "--lambda", "0.25",
          "--trials", "200", "--seed", "7"),
         {"subcommand": "mode-loss", "modes": 6, "alpha": _ALPHA, "lambda": 0.25,
          "trials": 200, "seed": 7}),
        (("simulate", "collapse", "--problem", "cat-vs-mixed", "--alpha", "0.8",
          "--trials", "200", "--seed", "7"),
         {"subcommand": "collapse", "problem": "cat-vs-mixed", "alpha": _ALPHA,
          "trials": 200, "seed": 7}),
        (("wigner", "--state", "hcs2", "--alpha", "1", "--slice", "gamma2=0.5,-0.25",
          "--grid", "-2:2:5", "--format", "json", "--out"),
         {"state": "hcs2", "alpha": [1.0, 0.0], "slice": [0.5, -0.25],
          "grid": [-2.0, 2.0, 5], "format": "json", "features": False}),
        (("verify", "--seed", "3"), {"suite": "fast", "seed": 3}),
    ],
    ids=["measure-branch-dist", "measure-branch-dist-real", "measure-rqfi",
         "measure-marquardt", "measure-distill", "measure-mode-loss",
         "measure-wigner-empirical", "simulate-distill", "simulate-mode-loss",
         "simulate-collapse", "wigner", "verify"],
)
def test_envelope_inputs_are_the_parsed_flags(args, inputs, tmp_path):
    out = tmp_path / "w.json"
    if args[-1] == "--out":
        args += (str(out),)
    env = envelope(run_cli(*args))
    assert env["inputs"] == inputs
    assert not {"command", "run", "out"} & set(env["inputs"])
    assert env["results"].get("out") == (str(out) if "--out" in args else None)


def test_cli_import_loads_no_scipy():
    # scipy costs several tenths of a second per CLI start; numpy is the only runtime dependency
    probe = "import sys, catsize.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# measure envelopes
# ---------------------------------------------------------------------------

def test_branch_dist_envelope_and_check():
    env = envelope(
        run_cli("measure", "branch-dist", "--modes", "10", "--alpha", "0.5",
                "--delta", "0.01")
    )
    measure = env["results"]["measure"]
    assert measure["value"] == 2.5
    assert measure["method"] == "hybrid"
    assert measure["diagnostics"]["n_eff_integer"] == 4
    (check,) = env["checks"]
    assert check["name"] == "success-closed-vs-trace-norm"
    assert check["status"] == "pass"
    assert check["tolerance"] == 1e-10


def _omega(modes, alpha):
    return CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha)


def _hcs(modes, alpha):
    return CatStateSpec(family=CatFamily.HCS, modes=modes, alpha=alpha)


@pytest.mark.parametrize(
    "argv, measure",
    [
        ("branch-dist --modes 10 --alpha 0.5 --delta 0.01",
         lambda: branch_dist_size(_omega(10, 0.5), 0.01)),
        ("branch-dist-real --modes 4 --alpha 0.7 --delta 0.05",
         lambda: branch_dist_size_real(_omega(4, 0.7), 0.05)),
        ("rqfi --modes 2 --alpha 1.5 --family quadrature+number",
         lambda: rqfi_size(_omega(2, 1.5), "quadrature+number", oracle=True)),
        ("rqfi --modes 5 --alpha 1 --family quadrature+number",
         lambda: rqfi_size(_omega(5, 1.0), "quadrature+number", oracle=True)),
        ("rqfi --modes 1 --alpha 1e-8 --family bounded-local",
         lambda: rqfi_size(_omega(1, 1e-8), "bounded-local", oracle=True)),
        ("rqfi --state hcs --modes 3 --alpha 1e-6 --family spin-sandwich",
         lambda: rqfi_size(_hcs(3, 1e-6), "spin-sandwich", oracle=True)),
        ("marquardt --modes 3 --alpha 0.8 --numeric-check",
         lambda: marquardt_size(_omega(3, 0.8), numeric_check=True)),
        ("marquardt --modes 3 --alpha 0.8", lambda: marquardt_size(_omega(3, 0.8))),
        ("distill --modes 5 --alpha 0.8", lambda: distillation_size(_omega(5, 0.8))),
        ("mode-loss --modes 6 --alpha 1.0 --lambda 0.25",
         lambda: mode_loss_size(_omega(6, 1.0), 0.25)),
        ("wigner-empirical --alpha 2.0", lambda: wigner_empirical_size(_omega(1, 2.0))),
    ],
    ids=["branch-dist", "branch-dist-real", "rqfi", "rqfi-five-modes", "rqfi-tiny",
         "rqfi-hcs-tiny", "marquardt-numeric", "marquardt", "distill", "mode-loss",
         "wigner-empirical"],
)
def test_measure_prints_exactly_the_result_checks(argv, measure):
    # every row is built by the measure's route; the command adds none
    proc = run_cli("measure", *argv.split())
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["checks"] == json.loads(_dumps(measure().checks))


def test_marquardt_numeric_check_entries():
    env = envelope(
        run_cli("measure", "marquardt", "--modes", "3", "--alpha", "0.8",
                "--numeric-check")
    )
    assert env["results"]["measure"]["value"] == pytest.approx(3 * 0.64, abs=1e-12)
    names = [c["name"] for c in env["checks"]]
    assert names == ["displaced-pmf-vs-poisson", "branch-mean-vs-s"]
    assert all(c["status"] == "pass" for c in env["checks"])


def test_rqfi_small_modes_carries_oracle_check():
    env = envelope(
        run_cli("measure", "rqfi", "--modes", "2", "--alpha", "1",
                "--family", "quadrature+number")
    )
    (check,) = env["checks"]
    assert check["name"] == "variance-closed-vs-fock"
    assert check["status"] == "pass"
    assert check["tolerance"] == 1e-7


def test_rqfi_three_modes_carries_oracle_check():
    env = envelope(
        run_cli("measure", "rqfi", "--modes", "3", "--alpha", "0.9",
                "--family", "bounded-local")
    )
    (check,) = env["checks"]
    assert check["name"] == "variance-closed-vs-fock"
    assert check["status"] == "pass"
    assert env["results"]["measure"]["value"] == pytest.approx(
        2.906892867351495, abs=1e-12
    )


@pytest.mark.parametrize(
    "argv, floor",
    [(("--modes", "2", "--alpha", "40", "--family", "quadrature"), 1940),
     (("--modes", "1", "--alpha", "50", "--family", "quadrature"), 2920),
     (("--modes", "2", "--alpha", "38", "--family", "spin-sandwich",
       "--state", "hcs"), 1768)],
    ids=["two-modes", "one-mode", "sandwich"],
)
def test_rqfi_large_alpha_skips_oracle(argv, floor):
    # exp(-|alpha|^2 / 2) underflows from |alpha| ~ 38.3, so no truncated
    # amplitudes could be built; the budget skips the row long before that
    env = envelope(run_cli("measure", "rqfi", *argv))
    (check,) = env["checks"]
    assert check["status"] == "skipped"
    assert check["observed"] == f"budget 4194304 allows cutoff 160 < required {floor}"


def test_rqfi_five_modes_carries_oracle_check():
    # the joint-vector oracle skipped this row: 21**5 was the largest joint
    # vector within MAX_JOINT_DIM, below cutoff 29
    env = envelope(
        run_cli("measure", "rqfi", "--modes", "5", "--alpha", "0.9",
                "--family", "bounded-local")
    )
    (check,) = env["checks"]
    assert check["name"] == "variance-closed-vs-fock"
    assert check["status"] == "pass"
    assert check["tolerance"] == 1e-7
    assert env["results"]["measure"]["diagnostics"]["oracle"]["cutoff"] == 37


def test_wigner_empirical_measure_cli():
    env = envelope(
        run_cli("measure", "wigner-empirical", "--state", "even-cat",
                "--modes", "1", "--alpha", "2")
    )
    measure = env["results"]["measure"]
    assert measure["value"] == 16.0
    assert measure["method"] == "oracle"
    assert measure["diagnostics"]["window"] == [-4.0, 4.0, 201]
    assert measure["diagnostics"]["separation"] == 4.0


# ---------------------------------------------------------------------------
# simulate envelopes
# ---------------------------------------------------------------------------

def _collapse(problem, alpha):
    def rows():
        stats = simulate_branch_collapse(alpha, 1500, 11, problem)
        return collapse_rows(stats, problem)

    return rows


@pytest.mark.parametrize(
    "argv, rows, closed_key",
    [
        ("distill --modes 5 --alpha 0.8 --trials 2000 --seed 7",
         lambda: distillation_rows(simulate_distillation(5, 0.8 + 0j, 2000, 7), 5, 0.8 + 0j),
         "expected_n_closed"),
        ("mode-loss --modes 6 --alpha 1 --lambda 0.25 --trials 1500 --seed 11",
         lambda: mode_loss_rows(
             simulate_mode_loss(6, 1 + 0j, 0.25, 1500, 11), 6, 1 + 0j, 0.25
         ),
         "offdiag_closed"),
        *[
            (f"collapse --problem {problem.value} --alpha 1.4142 --trials 1500 --seed 11",
             _collapse(problem, 1.4142 + 0j), None)
            for problem in CollapseProblem
        ],
    ],
    ids=["distill", "mode-loss", *(problem.value for problem in CollapseProblem)],
)
def test_simulate_prints_exactly_the_shared_rows(argv, rows, closed_key):
    # simulate builds every row; the command only prints them
    proc = run_cli("simulate", *argv.split())
    assert proc.returncode == 0
    assert proc.stderr == ""
    env, shared = json.loads(proc.stdout), rows()
    assert env["checks"] == json.loads(_dumps(shared))
    if closed_key is not None:
        assert env["results"][closed_key] == shared[0]["expected"]


def test_distill_envelope_stats_and_check():
    env = envelope(
        run_cli("simulate", "distill", "--modes", "5", "--alpha", "0.8",
                "--trials", "2000", "--seed", "7")
    )
    stats = env["results"]["stats"]
    assert sorted(stats.keys()) == [
        "extra", "histogram", "mean", "seed", "seed_scheme",
        "std_error", "trials", "variance",
    ]
    assert stats["trials"] == 2000
    assert env["results"]["expected_n_closed"] == pytest.approx(3.60382553520476)
    (check,) = env["checks"]
    assert check["name"] == "mean-vs-closed-form"
    assert check["status"] == "pass"


@pytest.mark.parametrize(
    "alpha, value", [("1e-9", 5e-18), ("1e-100", 5e-200), ("1e-160", 5e-320)]
)
def test_distill_at_tiny_alpha_exits_0(alpha, value):
    # exp(-2|alpha|^2) rounds to 1 here; the success probability is N |alpha|^2
    proc = run_cli("measure", "distill", "--modes", "5", "--alpha", alpha)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["measure"]["value"] == pytest.approx(value, rel=1e-12)


def test_collapse_cat_vs_mixed_is_exact():
    env = envelope(
        run_cli("simulate", "collapse", "--alpha", "1.1",
                "--problem", "cat-vs-mixed", "--trials", "500", "--seed", "2")
    )
    (check,) = env["checks"]
    assert check["name"] == "mean-vs-exact-probability"
    assert check["tolerance"] == 0.0
    assert env["results"]["stats"]["mean"] == 1.0


@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "distill", "--modes", "4", "--alpha", "0.8",
         "--trials", "1500", "--seed", "11"),
        ("simulate", "mode-loss", "--modes", "6", "--alpha", "1",
         "--lambda", "0.25", "--trials", "1500", "--seed", "11"),
        ("simulate", "collapse", "--alpha", "1.4142", "--problem",
         "branch-vs-branch", "--trials", "1500", "--seed", "11"),
        ("verify", "--suite", "fast", "--seed", "3"),
    ],
    ids=["distill", "mode-loss", "collapse", "verify"],
)
def test_repeat_runs_identical_minus_timing(args):
    # both runs share one process, so nothing may carry from the first
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert strip_timing(first.stdout) == strip_timing(second.stdout)


# ---------------------------------------------------------------------------
# wigner export
# ---------------------------------------------------------------------------

def test_csv_export_single_mode(tmp_path):
    out = tmp_path / "cat.csv"
    env = envelope(
        run_cli("wigner", "--state", "even-cat", "--alpha", "2",
                "--grid", "-4:4:161", "--out", str(out), "--features")
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,w"
    assert len(lines) == 161 * 161 + 1
    feats = env["results"]["features"]
    assert feats["peak_separation"] == 4.0
    assert feats["fringe_wavelength"] == pytest.approx(math.pi / 4, rel=0.05)
    assert env["results"]["out"] == str(out)


def test_features_export_in_process_holds_one_block(tmp_path):
    # the largest export of the benchmark's command mix, 227 x 227 rows with
    # features: grid evaluation, about 3.4 MB, must stay its largest stage;
    # a block of 2**15 rows of text traced 7.2 MB
    out = tmp_path / "features.csv"
    tracemalloc.start()
    try:
        proc = run_cli("wigner", "--state", "even-cat", "--alpha", "2.5",
                       "--grid=-4.5:4.5:227", "--features", "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert peak < 5_000_000
    state = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=2.5)
    expected = io.StringIO()
    write_grid_csv(wigner_grid(state, plane_axes(1, grid_line(-4.5, 4.5, 227))), expected)
    assert out.read_text(encoding="ascii") == expected.getvalue()


def test_csv_export_hcs_slice_origin_dominant(tmp_path):
    out = tmp_path / "slice.csv"
    env = envelope(
        run_cli("wigner", "--state", "hcs2", "--alpha", "3",
                "--slice", "gamma2=0", "--grid", "-5:5:201",
                "--out", str(out), "--features")
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,w"
    assert len(lines) == 201 * 201 + 1
    feats = env["results"]["features"]
    assert feats["peak_locations"][0] == [[0.0, 0.0], [0.0, 0.0]]
    assert feats["peak_values"][0] == pytest.approx(0.40528473456935127, abs=1e-12)
    assert feats["peak_values"][0] == max(feats["peak_values"])


def test_json_export_two_mode_payload(tmp_path):
    out = tmp_path / "omega.json"
    env = envelope(
        run_cli("wigner", "--state", "omega", "--alpha", "1",
                "--grid", "-3:3:61", "--format", "json", "--out", str(out))
    )
    payload = json.loads(out.read_text())
    assert sorted(payload.keys()) == [
        "axes", "convention", "slice_spec", "state", "values",
    ]
    assert payload["state"] == "omega"
    assert [axis["name"] for axis in payload["axes"]] == ["re1", "im1", "re2", "im2"]
    assert env["results"]["points"] == 61 * 61


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_grid_export_exits_3_and_writes_no_file(fmt, tmp_path, monkeypatch):
    # no closed form yields a NaN on a finite grid any more, so one is planted
    # in the grid; the CSV path used to write those rows before the envelope
    # refused them
    def nan_grid(state, axes):
        grid = wigner_grid(state, axes)
        values = grid.values.copy()
        values[0, 0] = math.nan
        return dataclasses.replace(grid, values=values)

    monkeypatch.setattr("catsize.cli.wigner_grid", nan_grid)
    out = tmp_path / f"w.{fmt}"
    proc = run_cli("wigner", "--state", "even-cat", "--alpha", "1", "--grid=-2:2:5",
                   "--format", fmt, "--out", str(out))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "state, origin",
    [("even-cat", 2 / math.pi), ("odd-cat", -2 / math.pi), ("coherent", 0.0),
     ("omega", 4 / math.pi**2), ("hcs2", 4 / math.pi**2)],
)
def test_far_grid_reads_exact_zeros_off_the_origin(state, origin):
    # at |gamma| >= 5e299 every Gaussian has underflowed and the fringe phase
    # overflows; 0 * cos(inf) used to be NaN there, and the run exited 3
    proc = run_cli("wigner", "--state", state, "--alpha", "1e10",
                   "--grid=-1e300:1e300:5", "--format", "json")
    assert proc.returncode == 0
    assert proc.stderr == ""
    values = json.loads(proc.stdout)["results"]["grid"]["values"]
    assert values[12] == pytest.approx(origin, rel=1e-15)
    assert values[:12] + values[13:] == [0.0] * 24


def test_json_grid_inline_when_no_out():
    env = envelope(
        run_cli("wigner", "--state", "even-cat", "--alpha", "1",
                "--grid", "-2:2:21", "--format", "json")
    )
    grid = env["results"]["grid"]
    assert grid["state"] == "even-cat"
    # values are flattened row-major; the axes carry the shape
    assert len(grid["values"]) == 21 * 21
    assert [axis["name"] for axis in grid["axes"]] == ["re", "im"]


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

def test_verify_fast_all_pass():
    env = envelope(run_cli("verify", "--suite", "fast", "--seed", "0"))
    summary = env["results"]["summary"]
    assert summary["fail"] == 0
    assert summary["skipped"] == 0
    assert summary["pass"] == len(env["checks"]) == 27


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "distill", "--modes", "3", "--alpha", "1", "--trials", "0"),
        ("measure", "marquardt", "--modes", "2", "--alpha", "abc"),
        ("wigner", "--state", "even-cat", "--alpha", "2", "--grid", "4:-4:10"),
        ("wigner", "--state", "even-cat", "--alpha", "2",
         "--slice", "gamma2=0", "--grid", "-4:4:81"),
        ("measure", "branch-dist", "--modes", "2", "--alpha", "1"),
        ("measure", "rqfi", "--modes", "2", "--alpha", "1", "--family", "bogus"),
    ],
    ids=["zero-trials", "bad-alpha", "bad-grid", "slice-on-single-mode",
         "missing-delta", "bogus-family"],
)
def test_invalid_flags_exit_2(args):
    assert run_cli(*args).returncode == 2


def test_rqfi_family_is_a_usage_flag():
    bogus = run_cli("measure", "rqfi", "--modes", "2", "--alpha", "1",
                    "--family", "quadrature+bogus")
    assert bogus.returncode == 2 and bogus.stdout == ""
    assert bogus.stderr.startswith("usage: catsize measure rqfi")
    assert "argument --family: unknown generator kind 'bogus'" in bogus.stderr
    menu = " ".join(run_cli("measure", "rqfi", "--help").stdout.split())
    assert "from: bounded-local, quadrature, number, spin-sandwich" in menu
    # the flag keeps its text; the measure reports the kinds in canonical order
    env = envelope(run_cli("measure", "rqfi", "--modes", "2", "--alpha", "1",
                           "--family", "number+quadrature"))
    assert env["inputs"]["family"] == "number+quadrature"
    assert env["results"]["measure"]["diagnostics"]["family"] == "quadrature+number"
    # the sandwich kind mixes with no other: rqfi_size refuses that as a
    # domain error, as library callers see it
    mixed = run_cli("measure", "rqfi", "--state", "hcs", "--modes", "2", "--alpha", "1",
                    "--family", "spin-sandwich+number")
    assert mixed.returncode == 3 and mixed.stdout == ""
    assert mixed.stderr == (
        "error: sandwich generators use a branch-variance denominator and "
        "cannot be mixed with the capped families\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ("measure", "branch-dist", "--modes", "3", "--alpha", "nan",
         "--delta", "0.01"),
        ("simulate", "distill", "--modes", "3", "--alpha", "inf", "--trials", "10"),
        ("measure", "distill", "--modes", "3", "--alpha", "1,-inf"),
        ("wigner", "--state", "hcs2", "--alpha", "1", "--slice", "gamma2=nan",
         "--grid", "-2:2:5"),
        ("wigner", "--state", "even-cat", "--alpha", "1", "--grid=-inf:inf:5"),
        ("wigner", "--state", "even-cat", "--alpha", "1", "--grid", "0:1e400:5"),
        ("measure", "branch-dist", "--modes", "3", "--alpha", "1", "--delta", "nan"),
        ("measure", "mode-loss", "--modes", "3", "--alpha", "1", "--lambda", "inf"),
        ("simulate", "mode-loss", "--modes", "3", "--alpha", "1", "--lambda", "nan",
         "--trials", "10"),
    ],
    ids=["alpha", "alpha-inf", "alpha-imag", "slice", "grid", "grid-overflow",
         "delta", "measure-lambda", "simulate-lambda"],
)
def test_non_finite_flag_values_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "expected a finite number" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "mode-loss", "--modes", "6", "--alpha", "1e200",
         "--lambda", "0.25", "--trials", "10", "--seed", "1"),
        ("measure", "branch-dist", "--modes", "4", "--alpha", "1e200",
         "--delta", "1e-3"),
    ],
    ids=["simulate-mode-loss", "measure-branch-dist"],
)
def test_overflowing_squared_amplitude_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "expected a finite squared modulus" in proc.stderr


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"], ids=["negative", "2**64"])
@pytest.mark.parametrize(
    "command",
    [("simulate", "distill", "--modes", "3", "--alpha", "1", "--trials", "10"),
     ("verify", "--suite", "fast")],
    ids=["simulate", "verify"],
)
def test_seed_outside_key_range_exits_2(command, seed):
    proc = run_cli(*command, "--seed", seed)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "expected a seed in [0, 2**64)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_largest_seed_is_accepted():
    proc = run_cli("simulate", "distill", "--modes", "3", "--alpha", "1",
                   "--trials", "10", "--seed", str(2**64 - 1))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["inputs"]["seed"] == 2**64 - 1


def test_failed_check_exits_1_outside_verify():
    # ten trials at alpha = 30 all lose a mode, so the arithmetic mean misses
    proc = run_cli("simulate", "mode-loss", "--modes", "6", "--alpha", "30",
                   "--lambda", "0.25", "--trials", "10", "--seed", "1")
    checks = json.loads(proc.stdout)["checks"]
    assert "fail" in [c["status"] for c in checks]
    assert proc.returncode == 1


def test_delta_outside_interval_exits_3_naming_it():
    proc = run_cli("measure", "branch-dist", "--modes", "2", "--alpha", "1",
                   "--delta", "0.2")
    assert proc.returncode == 3
    assert "outside the validity interval [" in proc.stderr
    assert "8.387269160402486e-05" in proc.stderr


def test_lambda_outside_unit_interval_exits_3():
    proc = run_cli("simulate", "mode-loss", "--modes", "3", "--alpha", "1",
                   "--lambda", "1.5", "--trials", "10")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: lambda must lie in [0, 1], got 1.5\n"


@pytest.mark.parametrize("alpha", ["1e100", "1e154"])
def test_overflowing_statistics_exit_3_without_traceback(alpha):
    # |alpha|^2 is finite, but the log-amplitude spread (1e100) or the
    # log-amplitudes themselves (1e154) overflow a float
    proc = run_cli("simulate", "mode-loss", "--modes", "6", "--alpha", alpha,
                   "--lambda", "0.25", "--trials", "10", "--seed", "1")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("measure", "distill", "--modes", "10", "--alpha", "1e154"),
        ("measure", "marquardt", "--modes", "3", "--alpha", "1e154"),
        ("measure", "mode-loss", "--modes", "10", "--alpha", "1e154",
         "--lambda", "0.3"),
        ("measure", "rqfi", "--modes", "3", "--alpha", "1e154",
         "--family", "quadrature"),
        ("measure", "branch-dist-real", "--modes", "10", "--alpha", "1e154",
         "--delta", "0.1"),
    ],
    ids=["distill", "marquardt", "mode-loss", "rqfi", "branch-dist-real"],
)
def test_non_finite_result_exits_3_with_empty_stdout(args):
    # |alpha|^2 = 1e308 is finite, but the results overflow to NaN or
    # infinity (or, for rqfi, every generator variance is NaN)
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "args, code, needle",
    [
        (("wigner", "--state", "even-cat", "--alpha", "1e154", "--grid=-4:4:11"), 0, ""),
        (("measure", "rqfi", "--modes", "3", "--alpha", "1e154",
          "--family", "quadrature"), 3, ""),
        (("wigner", "--state", "hcs2", "--alpha", "1", "--slice", "gamma2=1e154",
          "--grid=-2:2:5"), 0, ""),
        # below |alpha|^2 ~ 1e-16, exp(-2|alpha|^2) rounds to 1 and the odd
        # branch |alpha> - |-alpha> is 0, as at alpha = 0
        (("measure", "rqfi", "--state", "hcs", "--modes", "2", "--alpha", "1e-200",
          "--family", "number"), 3, "odd branch"),
        (("measure", "rqfi", "--modes", "2", "--alpha", "1e-9",
          "--family", "bounded-local"), 3, "odd branch"),
        (("measure", "rqfi", "--modes", "7", "--alpha", "1e-9",
          "--family", "bounded-local"), 3, "odd branch"),
        (("measure", "rqfi", "--modes", "2", "--alpha", "1e-9",
          "--family", "quadrature"), 3, "odd branch"),
        (("measure", "rqfi", "--state", "hcs", "--modes", "2", "--alpha", "1e-9",
          "--family", "bounded-local"), 3, "odd branch"),
        (("wigner", "--state", "odd-cat", "--alpha", "5e-324", "--grid=-2:2:5"), 3,
         "odd branch"),
        (("wigner", "--state", "odd-cat", "--alpha", "1e-9", "--grid=-2:2:5"), 3,
         "odd branch"),
        (("wigner", "--state", "hcs2", "--alpha", "1e-200", "--grid=-2:2:5"), 3,
         "odd branch"),
        (("simulate", "collapse", "--problem", "cat-vs-branch", "--alpha", "1e-200",
          "--trials", "10"), 3, "odd branch"),
    ],
    ids=[
        "wigner-gauss", "rqfi-variance", "wigner-slice-gauss", "rqfi-hcs-tiny-alpha",
        "rqfi-bounded-tiny-alpha", "rqfi-bounded-tiny-alpha-no-oracle",
        "rqfi-quadrature-tiny-alpha", "rqfi-hcs-bounded-tiny-alpha",
        "wigner-odd-cat-subnormal-alpha", "wigner-odd-cat-tiny-alpha",
        "wigner-hcs2-tiny-alpha", "collapse-tiny-alpha",
    ],
)
def test_extreme_alpha_prints_no_numpy_warning(args, code, needle):
    # the overflowing intermediates are expected and their results handled,
    # and a degenerate odd branch is refused, so stderr holds nothing or the
    # one error line; a clean run is spawned, whose stderr no filter can hide
    proc = (spawn_cli if code == 0 else run_cli)(*args)
    assert proc.returncode == code
    if code == 0:
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert needle in proc.stderr


def test_non_finite_value_is_refused_by_the_serializer():
    with pytest.raises(DomainError, match="strict JSON"):
        _dumps({"grid": {"values": [0.5, math.inf]}})
    assert _dumps({"v": [0.5, -0.0]}) == json.dumps(
        {"v": [0.5, -0.0]}, sort_keys=True, indent=2
    )


@pytest.mark.parametrize(
    "args",
    [
        ("wigner", "--state", "even-cat", "--alpha", "1", "--grid=-4:4:100000"),
        ("measure", "wigner-empirical", "--alpha", "1e6"),
        ("measure", "wigner-empirical", "--alpha", "1e154"),
    ],
    ids=["wigner-grid", "empirical-1e6", "empirical-1e154"],
)
def test_oversized_grid_exits_4_before_allocating(args):
    proc = run_cli(*args)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: grid of ")
    assert "exceeds MAX_JOINT_DIM" in proc.stderr


def test_coarse_feature_grid_exits_3():
    proc = run_cli("wigner", "--state", "even-cat", "--alpha", "2",
                   "--grid", "-1:1:3", "--features")
    assert proc.returncode == 3
    assert "refine the grid" in proc.stderr


def test_oversized_numeric_check_exits_4():
    # 200000 * 40 + 1 photon counts at cutoff 40 exceed MAX_JOINT_DIM
    proc = run_cli("measure", "marquardt", "--modes", "200000", "--alpha", "1",
                   "--numeric-check")
    assert proc.returncode == 4
    assert "MAX_JOINT_DIM" in proc.stderr


def test_overflowing_numeric_check_exits_4():
    # the displaced branch 2 alpha has a squared modulus beyond the float range
    proc = run_cli("measure", "marquardt", "--modes", "1", "--alpha", "1e154",
                   "--numeric-check")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: no finite cutoff holds |alpha| = 2e+154\n"


def test_unwritable_output_exits_5(tmp_path):
    proc = run_cli("wigner", "--state", "even-cat", "--alpha", "1",
                   "--grid", "-3:3:41", "--out", str(tmp_path / "no" / "f.csv"))
    assert proc.returncode == 5


def test_closed_stdout_exits_5_without_traceback():
    proc = subprocess.Popen([*CLI, "measure", "distill", "--modes", "5", "--alpha", "0.8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the reader leaves before the envelope is written
    stderr = proc.stderr.read()
    assert proc.wait() == 5
    assert "Broken pipe" in stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


def _assert_io_failure(proc):
    assert proc.returncode == 5
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_full_stdout_exits_5_without_traceback():
    with open("/dev/full", "w") as full:
        proc = spawn_cli("measure", "distill", "--modes", "5", "--alpha", "0.8",
                         stdout=full)
    _assert_io_failure(proc)
    assert "No space left on device" in proc.stderr


def test_stdout_closed_at_start_exits_5_without_traceback():
    # with descriptor 1 closed before the interpreter starts, sys.stdout is None
    proc = spawn_cli("measure", "distill", "--modes", "5", "--alpha", "0.8",
                     preexec_fn=lambda: os.close(1))
    _assert_io_failure(proc)
    assert proc.stderr == "error: stdout is closed\n"


# ---------------------------------------------------------------------------
# process entry against in-process main
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "args, out_name, code",
    [
        (("measure", "branch-dist", "--modes", "10", "--alpha", "0.5", "--delta", "0.01"),
         None, 0),
        # every trajectory loses a mode, so a row fails and stderr names it
        (("simulate", "mode-loss", "--modes", "6", "--alpha", "30", "--lambda", "0.25",
          "--trials", "10", "--seed", "1"), None, 1),
        (("wigner", "--state", "even-cat", "--alpha", "2", "--grid", "-4:4:101",
          "--features"), "grid.csv", 0),
        (("wigner", "--state", "omega", "--alpha", "1.2", "--grid", "-3:3:41",
          "--format", "json"), "grid.json", 0),
        (("verify", "--suite", "fast", "--seed", "0"), None, 0),
        (("measure", "branch-dist", "--modes", "two", "--alpha", "1", "--delta", "0.01"),
         None, 2),
        (("measure", "branch-dist", "--modes", "2", "--alpha", "1", "--delta", "0.2"),
         None, 3),
        (("wigner", "--state", "even-cat", "--alpha", "1", "--grid=-4:4:100000"), None, 4),
    ],
    ids=["branch-dist", "failed-row", "csv-export", "json-export", "verify", "usage",
         "domain", "sizing"],
)
def test_process_and_in_process_main_agree(args, out_name, code, tmp_path):
    # the process ends with os._exit once main returns; nothing it wrote
    # may be lost, and the exit code must be main's
    out = tmp_path / out_name if out_name else None
    argv = [*args, "--out", str(out)] if out else list(args)
    proc = spawn_cli(*argv)
    written = out.read_bytes() if out else None
    if out:
        out.unlink()
    captured = run_cli(*argv)
    assert (proc.returncode, captured.returncode) == (code, code)
    assert strip_timing(proc.stdout) == strip_timing(captured.stdout)
    assert proc.stderr == captured.stderr
    if code == 1:
        assert proc.stderr == "failed: arithmetic-mean-vs-closed-form\n"
    if out:
        assert written and written == out.read_bytes()


def test_crash_in_main_exits_1_with_a_traceback():
    # an uncaught exception must leave through the interpreter's own exit,
    # never through the hard exit as a clean run
    probe = (
        "import catsize.cli as cli\n"
        "def boom(argv):\n"
        "    raise RuntimeError('planted')\n"
        "cli.main = boom\n"
        "cli.entry()\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr
    assert "RuntimeError: planted" in proc.stderr
