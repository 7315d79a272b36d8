"""Command-line surface: measures, simulations, grid export, verification.

It parses flags, dispatches to the modules and serializes their results;
every check row comes from the module that owns its route.  Each subcommand
is declared once, in ``build_parser``, with the runner argparse dispatches
to; the envelope's ``inputs`` are its parsed flags, ``--out`` aside.

Every command prints one JSON result envelope on stdout with sorted keys and
round-trip floats, so identical inputs produce byte-identical output except
for the timing field.  Exit codes: 0 success, 1 a failed check row in any
command, 2 invalid flags (including a non-finite number, an amplitude
whose squared modulus overflows, a seed outside [0, 2**64), or an unknown
generator kind), 3 domain
error (including a result that overflows to a NaN or an infinity, which
strict JSON cannot encode and a CSV export refuses), 4 sizing or
truncation error, 5 I/O failure (an unwritable output file or a closed
stdout).

The ``catsize`` process flushes stdout and stderr and then exits without
interpreter teardown, so ``atexit`` handlers do not run; ``main(argv)``
returns the exit code and is the in-process entry point.
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
from .closed_forms import CatFamily, CatStateSpec, GeneratorKind
from .errors import DomainError, SizingError, TruncationError
from .measures import (
    branch_dist_size,
    branch_dist_size_real,
    distillation_size,
    generator_kinds,
    marquardt_size,
    mode_loss_size,
    rqfi_size,
    wigner_empirical_size,
)
from .phase_space import (
    extract_features,
    grid_line,
    grid_to_json,
    plane_axes,
    wigner_grid,
    write_grid_csv,
)
from .simulate import (
    CollapseProblem,
    check_seed,
    collapse_rows,
    distillation_rows,
    mode_loss_rows,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)
from .verify import FAST, FULL, run as run_verify


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


def _int_flag(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int_flag(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _seed_flag(text: str) -> int:
    """A seed in [0, 2**64), the range of the Philox key word it becomes."""
    try:
        return check_seed(_int_flag(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _family_flag(text: str) -> str:
    """Generator kinds joined by '+', each a GeneratorKind value; the text
    is kept as typed."""
    try:
        generator_kinds(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


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


# ``wigner --state`` names, in their choice order, with the family and mode count
_WIGNER_STATES = {
    "even-cat": (CatFamily.EVEN_CAT, 1),
    "odd-cat": (CatFamily.ODD_CAT, 1),
    "omega": (CatFamily.OMEGA, 2),
    "hcs2": (CatFamily.HCS, 2),
    "coherent": (CatFamily.PRODUCT_COHERENT, 1),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catsize",
        description="Sizes of coherent-branch superpositions, simulated and closed-form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="evaluate one size measure")
    msub = measure.add_subparsers(dest="subcommand", required=True)

    def measure_parser(name: str, size) -> argparse.ArgumentParser:
        p = msub.add_parser(name)
        p.add_argument("--modes", type=_positive_int, default=1)
        p.add_argument("--alpha", type=_complex_flag, required=True)
        p.set_defaults(run=lambda args: _run_measure(args, size))
        return p

    p = measure_parser("branch-dist", lambda s, a: branch_dist_size(s, a.delta))
    p.add_argument("--delta", type=_finite_float, required=True)
    p = measure_parser("branch-dist-real", lambda s, a: branch_dist_size_real(s, a.delta))
    p.add_argument("--delta", type=_finite_float, required=True)
    p = measure_parser("rqfi", lambda s, a: rqfi_size(s, a.family, oracle=True))
    kinds = ", ".join(kind.value for kind in GeneratorKind)
    p.add_argument(
        "--family", type=_family_flag, required=True,
        help=f"generator kinds joined by '+', from: {kinds}",
    )
    p.add_argument("--state", choices=("omega", "hcs"), default="omega")
    p = measure_parser(
        "marquardt", lambda s, a: marquardt_size(s, numeric_check=a.numeric_check)
    )
    p.add_argument("--numeric-check", action="store_true")
    measure_parser("distill", lambda s, a: distillation_size(s))
    p = measure_parser("mode-loss", lambda s, a: mode_loss_size(s, a.lam))
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p = measure_parser("wigner-empirical", lambda s, a: wigner_empirical_size(s))
    p.add_argument("--state", choices=("omega", "even-cat"), default="omega")

    simulate = sub.add_parser("simulate", help="Monte Carlo protocol sampling")
    ssub = simulate.add_subparsers(dest="subcommand", required=True)

    def simulate_parser(name: str, run) -> argparse.ArgumentParser:
        p = ssub.add_parser(name)
        p.add_argument("--alpha", type=_complex_flag, required=True)
        p.add_argument("--trials", type=_positive_int, default=10000)
        p.add_argument("--seed", type=_seed_flag, default=0)
        p.set_defaults(run=run)
        return p

    p = simulate_parser("distill", _run_distill)
    p.add_argument("--modes", type=_positive_int, required=True)
    p = simulate_parser("mode-loss", _run_mode_loss)
    p.add_argument("--modes", type=_positive_int, required=True)
    p.add_argument(
        "--lambda", dest="lambda", metavar="LAM", type=_finite_float, required=True
    )
    p = simulate_parser("collapse", _run_collapse)
    p.add_argument(
        "--problem",
        choices=tuple(problem.value for problem in CollapseProblem),
        required=True,
    )

    wig = sub.add_parser("wigner", help="phase-space grid export")
    wig.add_argument("--state", choices=tuple(_WIGNER_STATES), required=True)
    wig.add_argument("--alpha", type=_complex_flag, required=True)
    wig.add_argument("--slice", type=_slice_flag, default=None)
    wig.add_argument("--grid", type=_grid_flag, required=True)
    wig.add_argument("--out", type=str, default=None)
    wig.add_argument("--format", choices=("csv", "json"), default="csv")
    wig.add_argument("--features", action="store_true")
    wig.set_defaults(run=_run_wigner)

    ver = sub.add_parser("verify", help="cross-validation battery")
    ver.add_argument("--suite", choices=(FAST, FULL), default=FAST)
    ver.add_argument("--seed", type=_seed_flag, default=0)
    ver.set_defaults(run=_run_verify)

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

def _run_measure(args, size) -> tuple[dict, list]:
    # every measure --state choice is a CatFamily value
    family = CatFamily(getattr(args, "state", "omega"))
    result = size(CatStateSpec(family=family, modes=args.modes, alpha=args.alpha), args)
    return {"measure": result}, result.checks


def _run_distill(args) -> tuple[dict, list]:
    stats = simulate_distillation(args.modes, args.alpha, args.trials, args.seed)
    checks = distillation_rows(stats, args.modes, args.alpha)
    return {"stats": stats, "expected_n_closed": checks[0]["expected"]}, checks


def _run_mode_loss(args) -> tuple[dict, list]:
    lam = vars(args)["lambda"]
    stats = simulate_mode_loss(args.modes, args.alpha, lam, args.trials, args.seed)
    checks = mode_loss_rows(stats, args.modes, args.alpha, lam)
    return {"stats": stats, "offdiag_closed": checks[0]["expected"]}, checks


def _run_collapse(args) -> tuple[dict, list]:
    problem = CollapseProblem(args.problem)
    stats = simulate_branch_collapse(args.alpha, args.trials, args.seed, problem)
    return {"stats": stats}, collapse_rows(stats, problem)


def _run_wigner(args) -> tuple[dict, list]:
    family, modes = _WIGNER_STATES[args.state]
    if modes == 1 and args.slice is not None:
        raise _UsageError("--slice applies to two-mode states only")
    state = CatStateSpec(family=family, modes=modes, alpha=args.alpha)
    grid = wigner_grid(state, plane_axes(modes, grid_line(*args.grid), args.slice))
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
        # refused before the file is opened, in either format
        if not np.isfinite(grid.values).all():
            raise DomainError(
                "the grid holds a NaN or an infinity, which the export refuses; "
                "reduce |alpha| or the grid range"
            )
        if args.format == "csv":
            with open(args.out, "w", encoding="ascii") as handle:
                write_grid_csv(grid, handle)
        else:
            # serialized first, so a refused payload opens no file
            payload = _dumps(grid_to_json(grid)) + "\n"
            with open(args.out, "w", encoding="ascii") as handle:
                handle.write(payload)
        results["out"] = args.out
    else:
        results["grid"] = grid_to_json(grid)
    return results, []


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

def _run_verify(args) -> tuple[dict, list]:
    checks = run_verify(args.suite, args.seed)
    counts = {
        status: sum(1 for c in checks if c["status"] == status)
        for status in ("pass", "fail", "skipped")
    }
    return {"summary": counts}, checks


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
    args = build_parser().parse_args(_merge_negative_values(argv))
    started = time.monotonic()
    # --out is reported as results.out
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "run", "out")}
    try:
        results, checks = args.run(args)
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
        if sys.stdout is None:  # descriptor 1 was closed at start
            raise OSError("stdout is closed")
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        # the reader is gone or the device is full; send what is still
        # buffered to devnull so the final flush does not raise again
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 5
    failed = [c for c in envelope["checks"] if c["status"] == "fail"]
    if failed:
        print(f"failed: {failed[0]['name']}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    # Skip interpreter teardown, whose final garbage-collector sweeps cost
    # 20 ms or more per command: main has closed every --out file, so only
    # the standard streams can still hold bytes.  argparse's SystemExit and
    # an uncaught exception leave through the normal exit.
    code = main(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the descriptor was closed at start
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
