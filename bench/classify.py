"""Correctness classifier for one CLI command's result.

A command fails when its exit code is not 0, when stdout is not strict JSON
(``NaN`` and ``Infinity`` are rejected), when the envelope does not validate
against the shipped schema, when any check's status is neither ``pass`` nor
``skipped``, or when a per-command sanity rule fails.  Neither ``inputs`` nor
the ``verify`` observed values are compared with goldens.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema


def load_validator(schema_path: Path) -> jsonschema.Draft7Validator:
    return jsonschema.Draft7Validator(json.loads(schema_path.read_text()))


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    """Value of ``--name VALUE`` in an argv list."""
    for tok, follower in zip(argv, argv[1:]):
        if tok == name:
            return follower
    return default


def requested_trials(argv: list[str]) -> int:
    """Trajectories a command asks for; ``verify`` draws four 2000-trial checks."""
    if argv[0] == "verify":
        return 4 * 2000
    if argv[0] == "simulate":
        return int(flag(argv, "--trials"))
    return 0


def classify(argv: list[str], returncode: int | None, stdout: str, validator) -> list[str]:
    """Reasons the command failed; an empty list means it passed."""
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    try:
        envelope = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return reasons + [f"stdout is not strict JSON: {exc}"]
    errors = [e.message for e in validator.iter_errors(envelope)]
    if errors:
        return reasons + [f"schema: {msg}" for msg in errors]
    for check in envelope["checks"]:
        if check["status"] not in ("pass", "skipped"):
            reasons.append(f"check {check['name']} is {check['status']}")
    try:
        reasons.extend(_sanity(argv, envelope["results"]))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        reasons.append(f"sanity rule could not be evaluated: {exc!r}")
    return reasons


def _sanity(argv: list[str], results: dict) -> list[str]:
    command = argv[0]
    if command == "simulate":
        return _simulate_sanity(argv, results["stats"])
    if command == "wigner":
        return _wigner_sanity(argv, results)
    if command == "verify":
        summary = results["summary"]
        if summary["fail"] != 0 or summary["pass"] == 0:
            return [f"verify summary {summary}"]
    return []


def _simulate_sanity(argv: list[str], stats: dict) -> list[str]:
    trials = int(flag(argv, "--trials"))
    reasons = []
    total = sum(stats["histogram"].values())
    if total != stats["trials"]:
        reasons.append(f"histogram total {total} != trials {stats['trials']}")
    if flag(argv, "--problem") == "cat-vs-branch":
        # trials counts the continued trajectories; the joint tally covers all
        joint = sum(stats["extra"]["joint_histogram"].values())
        if stats["extra"]["requested_trials"] != trials or joint != trials:
            reasons.append(f"joint histogram total {joint} != requested {trials}")
    elif stats["trials"] != trials:
        reasons.append(f"trials {stats['trials']} != requested {trials}")
    return reasons


def _wigner_sanity(argv: list[str], results: dict) -> list[str]:
    steps = int(flag(argv, "--grid").rsplit(":", 1)[1])
    points = results["points"]
    if points != steps * steps:
        return [f"points {points} != steps^2 = {steps * steps}"]
    out = flag(argv, "--out")
    if out is None:
        stored = len(results["grid"]["values"])
    elif flag(argv, "--format", "csv") == "csv":
        with open(out, encoding="ascii") as handle:
            rows = sum(1 for _ in handle)
        if rows != points + 1:
            return [f"CSV has {rows} rows, expected points + 1 = {points + 1}"]
        return []
    else:
        with open(out, encoding="ascii") as handle:
            stored = len(json.load(handle, parse_constant=_reject_constant)["values"])
    if stored != points:
        return [f"grid holds {stored} values, expected {points}"]
    return []
