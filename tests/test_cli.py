"""End-to-end tests of the command-line surface via subprocess.

Every command is exercised the way a user would run it, and the JSON
envelope on stdout is checked against the schema shipped in the package.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import catsize
from catsize.cli import _dumps, main
from catsize.errors import DomainError

SCHEMA_PATH = Path(catsize.__file__).parent / "data" / "envelope.schema.json"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "catsize.cli", *args],
        capture_output=True,
        text=True,
    )


def envelope(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def strip_timing(text):
    return re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)


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
    schema = json.loads(SCHEMA_PATH.read_text())
    env = envelope(run_cli(*args))
    jsonschema.validate(env, schema)
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
    assert check["tolerance"] == 1e-8


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
    assert check["tolerance"] == 1e-6


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


def test_rqfi_large_modes_skips_oracle():
    # 21**5 is the largest joint vector within MAX_JOINT_DIM, below cutoff 29
    env = envelope(
        run_cli("measure", "rqfi", "--modes", "5", "--alpha", "0.9",
                "--family", "bounded-local")
    )
    assert env["checks"] == [{
        "name": "oracle",
        "status": "skipped",
        "observed": "budget 4194304 allows cutoff 20 < required 29",
        "expected": None,
        "tolerance": None,
    }]
    assert env["results"]["measure"]["diagnostics"]["oracle"]["status"] == "skipped"


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
    ],
    ids=["zero-trials", "bad-alpha", "bad-grid", "slice-on-single-mode",
         "missing-delta"],
)
def test_invalid_flags_exit_2(args):
    assert run_cli(*args).returncode == 2


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
def test_non_finite_flag_values_exit_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


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


def test_largest_seed_is_accepted(capsys):
    code = main(["simulate", "distill", "--modes", "3", "--alpha", "1",
                 "--trials", "10", "--seed", str(2**64 - 1)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["seed"] == 2**64 - 1


def test_failed_check_exits_1_outside_verify(capsys):
    # ten trials at alpha = 30 all lose a mode, so the arithmetic mean misses
    code = main(["simulate", "mode-loss", "--modes", "6", "--alpha", "30",
                 "--lambda", "0.25", "--trials", "10", "--seed", "1"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "fail" in [c["status"] for c in checks]
    assert code == 1


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
def test_non_finite_result_exits_3_with_empty_stdout(args, capsys):
    # |alpha|^2 = 1e308 is finite, but the results overflow to NaN or
    # infinity (or, for rqfi, every generator variance is NaN)
    code = main(list(args))
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


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
        "rqfi-bounded-tiny-alpha", "rqfi-hcs-bounded-tiny-alpha",
        "wigner-odd-cat-subnormal-alpha", "wigner-odd-cat-tiny-alpha",
        "wigner-hcs2-tiny-alpha", "collapse-tiny-alpha",
    ],
)
def test_extreme_alpha_prints_no_numpy_warning(args, code, needle):
    # the overflowing intermediates are expected and their results handled,
    # and a degenerate odd branch is refused, so stderr holds nothing or the
    # one error line
    proc = run_cli(*args)
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
def test_oversized_grid_exits_4_before_allocating(args, capsys):
    code = main(list(args))
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error: grid of ")
    assert "exceeds MAX_JOINT_DIM" in err


def test_coarse_feature_grid_exits_3():
    proc = run_cli("wigner", "--state", "even-cat", "--alpha", "2",
                   "--grid", "-1:1:3", "--features")
    assert proc.returncode == 3
    assert "refine the grid" in proc.stderr


def test_oversized_numeric_check_exits_4():
    proc = run_cli("measure", "marquardt", "--modes", "8", "--alpha", "3",
                   "--numeric-check")
    assert proc.returncode == 4
    assert "MAX_JOINT_DIM" in proc.stderr


def test_overflowing_numeric_check_exits_4(capsys):
    # the displaced branch 2 alpha has a squared modulus beyond the float range
    code = main(["measure", "marquardt", "--modes", "1", "--alpha", "1e154",
                 "--numeric-check"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == "error: no finite cutoff holds |alpha| = 2e+154\n"


def test_unwritable_output_exits_5(tmp_path):
    proc = run_cli("wigner", "--state", "even-cat", "--alpha", "1",
                   "--grid", "-3:3:41", "--out", str(tmp_path / "no" / "f.csv"))
    assert proc.returncode == 5


def test_closed_stdout_exits_5_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "catsize.cli", "measure", "distill",
         "--modes", "5", "--alpha", "0.8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()  # the reader leaves before the envelope is written
    stderr = proc.stderr.read()
    assert proc.wait() == 5
    assert "Broken pipe" in stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
