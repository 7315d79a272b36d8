#!/usr/bin/env python3
"""Benchmark of the catsize command line, end to end and layer by layer.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is ``src/catsize``,
started as ``python -m catsize.cli`` with ``src`` on ``PYTHONPATH``.

``--trace 0`` runs the workload's seeded command sequence as subprocesses, one
at a time (a closed loop with one client), repeating the whole sequence until
``--seconds`` have been measured, and reports the end-to-end metrics.
``--trace 1`` replays the same argv in process through ``catsize.cli.main``,
alternating an untraced and a traced replay, and reports the per-layer
metrics; the traced/untraced difference is the tracing overhead.  Every
command's output is checked (see ``classify.py``).  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report, and the full report with machine
information is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from classify import classify, flag, load_validator, requested_trials
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SCHEMA = SRC / "catsize" / "data" / "envelope.schema.json"

# Bare imports timed per run for setup_s; -X importtime runs per traced run.
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

# A child still running after this long is killed, reaped and aborts the run.
CHILD_TIMEOUT_S = 150

BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def machine_info() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii") as fh:
        model = next(
            (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
            model,
        )
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def timing(values: list[float]) -> dict:
    """Median, 90th percentile, sample count and samples beyond p90."""
    ordered = sorted(values)
    if len(ordered) > 1:
        p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    else:
        p90 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "p90": p90,
        "n": len(ordered),
        "beyond_p90": sum(1 for v in ordered if v > p90),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return time.perf_counter() - start, proc


def measure_setup(env: dict) -> list[float]:
    """Wall times of bare ``import catsize`` subprocesses, after one warm-up."""
    argv = [sys.executable, "-c", "import catsize"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        elapsed, proc = run_child(argv, env)
        if proc.returncode != 0:
            raise SystemExit(f"import catsize failed:\n{proc.stderr}")
        if i:
            samples.append(elapsed)
    return samples


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of catsize, scipy and numpy.

    A package's figure sums the cumulative time of its outermost import
    lines, so everything first imported on its behalf is included.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    totals = {"catsize": 0, "scipy": 0, "numpy": 0}
    ancestors: list[str] = []
    for depth, cumulative, name in reversed(rows):  # parents precede children
        del ancestors[depth:]
        package = name.split(".")[0]
        if package in totals and not any(a.split(".")[0] == package for a in ancestors):
            totals[package] += cumulative
        ancestors.append(name)
    return {f"import.{pkg}_s": us / 1e6 for pkg, us in totals.items()}


def measure_importtime(env: dict) -> dict[str, float]:
    argv = [sys.executable, "-X", "importtime", "-c", "import catsize"]
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = run_child(argv, env)
        if proc.returncode != 0:
            raise SystemExit(f"import catsize failed:\n{proc.stderr}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


class Tally:
    """Attempted and failed commands, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.inconsistent = False  # a benchmark-level cross-check failed
        self.reasons: list[str] = []

    def add(self, argv: list[str], reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self._note(f"catsize {' '.join(argv)}: {'; '.join(reasons)}")

    def mismatch(self, reason: str) -> None:
        self.inconsistent = True
        self._note(reason)

    def _note(self, reason: str) -> None:
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def end_to_end(commands, seconds, env, validator, tally) -> tuple[dict, dict]:
    setup = measure_setup(env)
    seq_walls, cmd_walls = [], []
    traj_trials, traj_wall = 0, 0.0
    start = time.perf_counter()
    while True:
        seq_wall = 0.0  # command time only; checking outputs is not counted
        for argv in commands:
            elapsed, proc = run_child([sys.executable, "-m", "catsize.cli", *argv], env)
            tally.add(argv, judge(argv, proc.returncode, proc.stdout, proc.stderr, validator))
            cmd_walls.append(elapsed)
            seq_wall += elapsed
            trials = requested_trials(argv)
            if trials:
                traj_trials += trials
                traj_wall += elapsed
        seq_walls.append(seq_wall)
        if time.perf_counter() - start >= seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    cmd = timing(cmd_walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(seq_walls),
        "cmd_p50_s": cmd["median"],
        "cmd_p90_s": cmd["p90"],
        "trajectories_per_s": traj_trials / traj_wall,
        "peak_rss_mb": peak_mb,
    }
    report = {
        "setup_s": timing(setup),
        "wall_s": timing(seq_walls),
        "cmd_s": cmd,
        "trajectories_per_s": {"trials": traj_trials, "wall_s": traj_wall},
        "failed_frac": {"failed": tally.failed, "attempted": tally.attempted,
                        "value": tally.failed / tally.attempted},
        "peak_rss_mb": {"value": peak_mb, "children": tally.attempted + len(setup) + 1},
        "samples": {"setup_s": setup, "cmd_s": cmd_walls},
    }
    return metrics, report


def judge(argv, code, stdout: str, stderr: str, validator) -> list[str]:
    """The classifier's reasons, plus the last stderr line of a failed command."""
    reasons = classify(argv, code, stdout, validator)
    if reasons and stderr.strip():
        reasons.append(f"stderr: {stderr.strip().splitlines()[-1]}")
    return reasons


def call_main(argv: list[str]) -> tuple[float, int | None, str, str]:
    """One in-process CLI call: (seconds, exit code or None on a crash, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["catsize.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command; keep replaying
            traceback.print_exc()
            code = None
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def replay(commands, validator, tally) -> tuple[float, int]:
    """Run every command through cli.main; (seconds inside main, --out bytes)."""
    main_s, export_bytes = 0.0, 0
    for argv in commands:
        elapsed, code, stdout, stderr = call_main(argv)
        main_s += elapsed
        tally.add(argv, judge(argv, code, stdout, stderr, validator))
        out = flag(argv, "--out")
        if out is not None and os.path.exists(out):
            export_bytes += os.path.getsize(out)
    return main_s, export_bytes


def per_layer(commands, seconds, env, validator, tally, spans_path) -> tuple[dict, dict]:
    importlib.import_module("catsize.cli")
    imports = measure_importtime(env)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        # alternate which replay of the pair goes first, so order bias cancels
        for with_tracer in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_tracer:
                untraced.append(replay(commands, validator, tally)[0])
                continue
            tracer = Tracer()
            tracer.install()
            try:
                _, export_bytes = replay(commands, validator, tally)
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer.spans, tracer.counters)
            layers["phase_space.export_bytes"] = export_bytes
            traced.append(layers)
        if time.perf_counter() - start >= seconds:
            break
    with open(spans_path, "w", encoding="ascii") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    metrics = dict(imports)
    for name in traced[0]:  # median_low keeps counts whole: they repeat exactly
        metrics[name] = statistics.median_low(t[name] for t in traced)
    untraced_s = statistics.median(untraced)
    metrics["trace.untraced_main_s"] = untraced_s
    metrics["trace.overhead_frac"] = metrics["cli.main.total_s"] / untraced_s - 1.0
    expected = sum(requested_trials(argv) for argv in commands)
    if traced[-1]["simulate.trajectories"] != expected:
        tally.mismatch(
            f"traced trajectories {traced[-1]['simulate.trajectories']} != requested {expected}"
        )
    report = {
        "replays": len(traced),
        "untraced_main_s": timing(untraced),
        "traced_main_s": timing([t["cli.main.total_s"] for t in traced]),
        "self_share_of_main": {
            layer: metrics[f"{layer}.self_s"] / metrics["cli.main.total_s"]
            for layer in ("fock", "phase_space", "simulate", "measures", "closed_forms")
        } | {"cli": metrics["cli.main.self_s"] / metrics["cli.main.total_s"]},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    return metrics, report


def print_report(workload, seed, trace, machine, metrics, units, report, tally) -> None:
    print(f"catsize benchmark  workload={workload} seed={seed} trace={trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units.get(name, '')}")
    brief = {k: v for k, v in report.items() if k != "samples"}
    print("report: " + json.dumps(brief, sort_keys=True))
    print(f"commands: attempted={tally.attempted} failed={tally.failed}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")


def main() -> int:
    if not (SRC / "catsize" / "__init__.py").is_file():
        print(f"error: no catsize sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, generate

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    # BENCHMARK.json names the metrics each mode reports, with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    env = child_env()
    machine = machine_info()
    validator = load_validator(SCHEMA)
    tally = Tally()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="files-") as tmp:
        commands = generate(args.workload, args.seed, Path(tmp))
        if args.trace:
            metrics, report = per_layer(
                commands, args.seconds, env, validator, tally, OUT / f"{stem}-spans.jsonl"
            )
        else:
            metrics, report = end_to_end(commands, args.seconds, env, validator, tally)
    report["commands_per_sequence"] = len(commands)
    print_report(args.workload, args.seed, args.trace, machine, metrics, units, report, tally)
    result = {
        "correct": tally.failed == 0 and not tally.inconsistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine, "report": report, "commands": commands,
            "failures": tally.reasons, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
