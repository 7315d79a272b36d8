"""Command-line surface: measures, simulations, grid export, verification.

Every command prints one JSON result envelope on stdout with sorted keys and
round-trip floats, so identical inputs produce byte-identical output except
for the timing field.  Exit codes: 0 success, 1 a failed check row in any
command, 2 invalid flags (including a non-finite number, an amplitude
whose squared modulus overflows, or a seed outside [0, 2**64)), 3 domain
error (including a result that overflows to a NaN or an infinity, which
strict JSON cannot encode), 4 sizing or truncation error, 5 I/O failure (an
unwritable output file or a closed stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .closed_forms import (
    CatFamily,
    CatStateSpec,
    distill_expected_n,
    mode_loss_offdiag,
    mode_loss_offdiag_mean,
)
from .errors import DomainError, SizingError, TruncationError
from .measures import (
    MeasureKind,
    MeasureResult,
    branch_dist_size,
    branch_dist_size_real,
    distillation_size,
    marquardt_size,
    mode_loss_size,
    rqfi_size,
    wigner_empirical_size,
)
from .phase_space import (
    extract_features,
    grid_line,
    grid_to_csv,
    grid_to_json,
    wigner_grid,
)
from .simulate import (
    CollapseProblem,
    _check_seed,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)
from .verify import FAST, FULL, _num_check, run as run_verify


class _UsageError(Exception):
    """Flag combinations argparse cannot express; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """A float flag value; NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _complex_flag(text: str) -> complex:
    """A complex flag value RE or RE,IM whose squared modulus is finite."""
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    value = complex(*map(_finite_float, parts))
    if not math.isfinite(abs(value) * abs(value)):
        raise argparse.ArgumentTypeError(
            f"expected a finite squared modulus, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _seed_flag(text: str) -> int:
    """A seed in [0, 2**64), the range of the Philox key word it becomes."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    try:
        return _check_seed(value)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid_flag(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) == 3:
        lo, hi = _finite_float(parts[0]), _finite_float(parts[1])
        try:
            steps = int(parts[2])
        except ValueError:
            steps = 0
        if steps >= 2 and hi > lo:
            return lo, hi, steps
    raise argparse.ArgumentTypeError(f"expected MIN:MAX:STEPS, got {text!r}")


def _slice_flag(text: str) -> complex:
    if not text.startswith("gamma2="):
        raise argparse.ArgumentTypeError(
            f"expected gamma2=RE or gamma2=RE,IM, got {text!r}"
        )
    return _complex_flag(text[len("gamma2="):])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catsize",
        description="Sizes of coherent-branch superpositions, simulated and closed-form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="evaluate one size measure")
    msub = measure.add_subparsers(dest="subcommand", required=True)

    def measure_parser(name: str) -> argparse.ArgumentParser:
        p = msub.add_parser(name)
        p.add_argument("--modes", type=_positive_int, default=1)
        p.add_argument("--alpha", type=_complex_flag, required=True)
        return p

    p = measure_parser("branch-dist")
    p.add_argument("--delta", type=_finite_float, required=True)
    p = measure_parser("branch-dist-real")
    p.add_argument("--delta", type=_finite_float, required=True)
    p = measure_parser("rqfi")
    p.add_argument("--family", type=str, required=True)
    p.add_argument("--state", choices=("omega", "hcs"), default="omega")
    p = measure_parser("marquardt")
    p.add_argument("--numeric-check", action="store_true")
    measure_parser("distill")
    p = measure_parser("mode-loss")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p = measure_parser("wigner-empirical")
    p.add_argument("--state", choices=("omega", "even-cat"), default="omega")

    simulate = sub.add_parser("simulate", help="Monte Carlo protocol sampling")
    ssub = simulate.add_subparsers(dest="subcommand", required=True)

    def simulate_parser(name: str) -> argparse.ArgumentParser:
        p = ssub.add_parser(name)
        p.add_argument("--alpha", type=_complex_flag, required=True)
        p.add_argument("--trials", type=_positive_int, default=10000)
        p.add_argument("--seed", type=_seed_flag, default=0)
        return p

    p = simulate_parser("distill")
    p.add_argument("--modes", type=_positive_int, required=True)
    p = simulate_parser("mode-loss")
    p.add_argument("--modes", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p = simulate_parser("collapse")
    p.add_argument(
        "--problem",
        choices=tuple(problem.value for problem in CollapseProblem),
        required=True,
    )

    wig = sub.add_parser("wigner", help="phase-space grid export")
    wig.add_argument(
        "--state",
        choices=("even-cat", "odd-cat", "omega", "hcs2", "coherent"),
        required=True,
    )
    wig.add_argument("--alpha", type=_complex_flag, required=True)
    wig.add_argument("--slice", type=_slice_flag, default=None)
    wig.add_argument("--grid", type=_grid_flag, required=True)
    wig.add_argument("--out", type=str, default=None)
    wig.add_argument("--format", choices=("csv", "json"), default="csv")
    wig.add_argument("--features", action="store_true")

    ver = sub.add_parser("verify", help="cross-validation battery")
    ver.add_argument("--suite", choices=(FAST, FULL), default=FAST)
    ver.add_argument("--seed", type=_seed_flag, default=0)

    return parser


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonify(obj):
    # floats are most leaves (a JSON grid holds one per point): return them
    # before the dataclass and isinstance tests
    if type(obj) is float:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, enum.Enum):
        return _jsonify(obj.value)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _dumps(obj) -> str:
    """Strict JSON text of ``obj``: a NaN or an infinity is a DomainError,
    never the non-standard ``NaN``/``Infinity`` tokens."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise DomainError(
            "the result holds a NaN or an infinity, which strict JSON cannot "
            "encode; reduce |alpha|"
        ) from None


def _envelope(argv, inputs, results, checks, started) -> dict:
    return {
        "tool_version": __version__,
        "command": " ".join(["catsize"] + list(argv)),
        "inputs": _jsonify(inputs),
        "results": _jsonify(results),
        "checks": _jsonify(checks),
        "timing_ms": int((time.monotonic() - started) * 1000.0),
    }


# ---------------------------------------------------------------------------
# measure / simulate / wigner
# ---------------------------------------------------------------------------

def _run_measure(args) -> tuple[dict, list, int]:
    sub = args.subcommand
    if sub == "rqfi":
        fam = CatFamily.HCS if args.state == "hcs" else CatFamily.OMEGA
        state = CatStateSpec(family=fam, modes=args.modes, alpha=args.alpha)
        result = rqfi_size(state, args.family, oracle=True)
    elif sub == "wigner-empirical":
        fam = CatFamily.EVEN_CAT if args.state == "even-cat" else CatFamily.OMEGA
        state = CatStateSpec(family=fam, modes=args.modes, alpha=args.alpha)
        result = wigner_empirical_size(state)
    else:
        state = CatStateSpec(
            family=CatFamily.OMEGA, modes=args.modes, alpha=args.alpha
        )
        if sub == "branch-dist":
            result = branch_dist_size(state, args.delta)
        elif sub == "branch-dist-real":
            result = branch_dist_size_real(state, args.delta)
        elif sub == "marquardt":
            result = marquardt_size(state, numeric_check=args.numeric_check)
        elif sub == "distill":
            result = distillation_size(state)
        else:
            result = mode_loss_size(state, args.lam)

    checks = _measure_checks(result)
    inputs = {"subcommand": sub, "modes": state.modes, "alpha": state.alpha}
    for key in ("delta", "lam", "family", "state", "numeric_check"):
        if hasattr(args, key):
            inputs[key] = getattr(args, key)
    return inputs, {"measure": result}, checks


def _measure_checks(result: MeasureResult) -> list:
    checks = []
    diag = result.diagnostics
    oracle = diag.get("oracle")
    if isinstance(oracle, dict) and oracle.get("status", "ok") == "ok":
        if result.measure is MeasureKind.BRANCH_DIST_INT:
            checks.append(
                _num_check(
                    "success-closed-vs-trace-norm",
                    oracle["numeric"],
                    oracle["closed"],
                    1e-8,
                )
            )
        elif result.measure is MeasureKind.RQFI:
            checks.append(
                _num_check(
                    "variance-closed-vs-fock",
                    oracle["numeric_variance"],
                    oracle["closed_variance"],
                    1e-6,
                )
            )
    elif isinstance(oracle, dict):
        checks.append(
            {
                "name": "oracle",
                "status": "skipped",
                "observed": oracle.get("reason", "skipped"),
                "expected": None,
                "tolerance": None,
            }
        )
    numeric = diag.get("numeric")
    if result.measure is MeasureKind.MARQUARDT and isinstance(numeric, dict):
        checks.append(
            _num_check(
                "displaced-pmf-vs-poisson",
                numeric["displaced_max_abs_diff"],
                0.0,
                1e-10,
            )
        )
        checks.append(
            _num_check("branch-mean-vs-s", numeric["mean_abs_error"], 0.0, 1e-8)
        )
    return checks


def _run_simulate(args) -> tuple[dict, dict, list]:
    sub = args.subcommand
    checks = []
    if sub == "distill":
        stats = simulate_distillation(args.modes, args.alpha, args.trials, args.seed)
        expected = distill_expected_n(args.modes, args.alpha)
        tol = 5.0 * stats.std_error
        checks.append(_num_check("mean-vs-closed-form", stats.mean, expected, tol))
        results = {"stats": stats, "expected_n_closed": expected}
        inputs = {"subcommand": sub, "modes": args.modes}
    elif sub == "mode-loss":
        stats = simulate_mode_loss(
            args.modes, args.alpha, args.lam, args.trials, args.seed
        )
        expected = mode_loss_offdiag(args.modes, args.alpha, args.lam)
        tol = 5.0 * stats.std_error
        checks.append(_num_check("mean-vs-closed-form", stats.mean, expected, tol))
        arith = mode_loss_offdiag_mean(args.modes, args.alpha, args.lam)
        checks.append(
            _num_check(
                "arithmetic-mean-vs-closed-form",
                stats.extra["arithmetic_mean"],
                arith,
                5.0 * stats.extra["arithmetic_std_error"],
            )
        )
        results = {"stats": stats, "offdiag_closed": expected}
        inputs = {"subcommand": sub, "modes": args.modes, "lambda": args.lam}
    else:
        problem = CollapseProblem(args.problem)
        stats = simulate_branch_collapse(args.alpha, args.trials, args.seed, problem)
        if problem is CollapseProblem.CAT_VS_BRANCH:
            expected = stats.extra["p_alpha_given_branch_exact"]
            tol = 5.0 * stats.std_error
        elif problem is CollapseProblem.CAT_VS_MIXED:
            expected, tol = 1.0, 0.0
        else:
            expected = stats.extra["p_first_outcome_exact"]
            tol = 5.0 * stats.std_error
        checks.append(_num_check("mean-vs-exact-probability", stats.mean, expected, tol))
        results = {"stats": stats}
        inputs = {"subcommand": sub, "problem": args.problem}
    inputs.update({"alpha": args.alpha, "trials": args.trials, "seed": args.seed})
    return inputs, results, checks


_WIGNER_FAMILIES = {
    "even-cat": CatFamily.EVEN_CAT,
    "odd-cat": CatFamily.ODD_CAT,
    "coherent": CatFamily.PRODUCT_COHERENT,
    "omega": CatFamily.OMEGA,
    "hcs2": CatFamily.HCS,
}


def _run_wigner(args) -> tuple[dict, dict, list]:
    lo, hi, steps = args.grid
    line = grid_line(lo, hi, steps)
    family = _WIGNER_FAMILIES[args.state]
    single = args.state in ("even-cat", "odd-cat", "coherent")
    if single:
        if args.slice is not None:
            raise _UsageError("--slice applies to two-mode states only")
        state = CatStateSpec(family=family, modes=1, alpha=args.alpha)
        grid = wigner_grid(state, {"re": line, "im": line})
    else:
        state = CatStateSpec(family=family, modes=2, alpha=args.alpha)
        if args.slice is not None:
            grid = wigner_grid(
                state,
                {
                    "re1": line,
                    "im1": line,
                    "re2": args.slice.real,
                    "im2": args.slice.imag,
                },
            )
        else:
            grid = wigner_grid(state, {"re1": line, "im1": 0.0, "re2": line, "im2": 0.0})
    results = {
        "state": grid.state,
        "convention": grid.convention,
        "slice_spec": grid.slice_spec,
        "points": int(grid.values.size),
        "extrema": {
            "min": float(grid.values.min()),
            "max": float(grid.values.max()),
        },
    }
    if args.features:
        results["features"] = extract_features(grid)
    if args.out:
        if args.format == "csv":
            payload = grid_to_csv(grid)
        else:
            payload = _dumps(_jsonify(grid_to_json(grid))) + "\n"
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(payload)
        results["out"] = args.out
    else:
        results["grid"] = grid_to_json(grid)
    inputs = {
        "state": args.state,
        "alpha": args.alpha,
        "grid": [lo, hi, steps],
        "slice": args.slice,
        "format": args.format,
        "features": args.features,
    }
    return inputs, results, []


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

def _run_verify(args) -> tuple[dict, dict, list]:
    checks = run_verify(args.suite, args.seed)
    counts = {
        status: sum(1 for c in checks if c["status"] == status)
        for status in ("pass", "fail", "skipped")
    }
    return {"suite": args.suite, "seed": args.seed}, {"summary": counts}, checks


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_NEGATIVE_VALUE_FLAGS = ("--alpha", "--grid", "--slice")


def _merge_negative_values(argv: list) -> list:
    """Join flag and value when the value starts with a minus sign.

    argparse reads ``-4:4:201`` as an option string; ``--grid=-4:4:201``
    parses, so rewrite the split form to it.
    """
    merged = []
    skip = False
    for tok, follower in zip(argv, argv[1:] + [""]):
        if skip:
            skip = False
            continue
        if (
            tok in _NEGATIVE_VALUE_FLAGS
            and len(follower) > 1
            and follower[0] == "-"
            and (follower[1].isdigit() or follower[1] == ".")
        ):
            merged.append(f"{tok}={follower}")
            skip = True
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    started = time.monotonic()
    try:
        if args.command == "measure":
            inputs, results, checks = _run_measure(args)
        elif args.command == "simulate":
            inputs, results, checks = _run_simulate(args)
        elif args.command == "wigner":
            inputs, results, checks = _run_wigner(args)
        else:
            inputs, results, checks = _run_verify(args)
        envelope = _envelope(argv, inputs, results, checks, started)
        text = _dumps(envelope)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SizingError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader is gone; send what is still buffered to devnull so the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 5
    failed = [c for c in envelope["checks"] if c["status"] == "fail"]
    if failed:
        print(f"failed: {failed[0]['name']}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
