"""Tests of the benchmark's own parts: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import catsize  # noqa: E402
from classify import classify, load_validator, requested_trials  # noqa: E402
from run import parse_importtime  # noqa: E402
from tracer import Tracer, reduce_spans  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

VALIDATOR = load_validator(ROOT / "src" / "catsize" / "data" / "envelope.schema.json")


def _envelope(checks=(), results=None) -> dict:
    return {
        "tool_version": "0.1.0",
        "command": "catsize measure distill --modes 2 --alpha 1",
        "inputs": {},
        "results": results or {"measure": {"value": 1.0}},
        "checks": list(checks),
        "timing_ms": 3,
    }


def _check(status: str) -> dict:
    return {"name": "c", "status": status, "observed": 0.0, "expected": 0.0, "tolerance": 0.0}


MEASURE = ["measure", "distill", "--modes", "2", "--alpha", "1"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_always_gives_the_same_argv(workload, tmp_path):
    first = generate(workload, 7, tmp_path)
    assert first == generate(workload, 7, tmp_path)
    if workload != "verify-full":  # one fixed verify command for every seed
        assert first != generate(workload, 8, tmp_path)
    assert all(isinstance(tok, str) for argv in first for tok in argv)


def test_cli_mix_shape_does_not_depend_on_the_seed(tmp_path):
    for seed in range(5):
        commands = generate("cli-mix", seed, tmp_path)
        # at least ten commands beyond the 90th percentile
        assert len(commands) >= 100
        simulate = [c for c in commands if c[0] == "simulate"]
        assert sum(requested_trials(c) for c in simulate) == 28000
        assert all(requested_trials(c) <= 2000 for c in simulate)
        outs = [c[c.index("--out") + 1] for c in commands if "--out" in c]
        assert outs and all(Path(o).parent == tmp_path for o in outs)


def test_branch_dist_delta_stays_inside_the_validity_interval(tmp_path):
    for seed in range(5):
        for argv in generate("cli-mix", seed, tmp_path):
            if argv[:2] != ["measure", "branch-dist"]:
                continue
            modes = int(argv[argv.index("--modes") + 1])
            alpha = float(argv[argv.index("--alpha") + 1])
            delta = float(argv[argv.index("--delta") + 1])
            lo, hi = catsize.delta_validity_interval(modes, alpha)
            assert lo < delta < hi
            assert 2 <= catsize.n_eff_integer(delta, alpha) <= modes


def test_classifier_accepts_a_valid_envelope():
    assert classify(MEASURE, 0, json.dumps(_envelope([_check("pass"), _check("skipped")])),
                    VALIDATOR) == []


def test_classifier_rejects_non_finite_json():
    stdout = json.dumps(_envelope([{**_check("pass"), "observed": math.nan}]))
    assert "NaN" in stdout
    reasons = classify(MEASURE, 0, stdout, VALIDATOR)
    assert reasons and "strict JSON" in reasons[0]


def test_classifier_rejects_a_schema_invalid_envelope():
    envelope = _envelope()
    del envelope["timing_ms"]
    envelope["extra"] = 1
    reasons = classify(MEASURE, 0, json.dumps(envelope), VALIDATOR)
    assert reasons and all(r.startswith("schema:") for r in reasons)


def test_classifier_rejects_a_failed_check_and_a_nonzero_exit():
    reasons = classify(MEASURE, 1, json.dumps(_envelope([_check("fail")])), VALIDATOR)
    assert reasons == ["exit code 1", "check c is fail"]


def test_classifier_applies_the_sanity_rules(tmp_path):
    argv = ["simulate", "distill", "--modes", "2", "--alpha", "1", "--trials", "10"]
    stats = {"trials": 10, "histogram": {"0": 4, "1": 5}}
    reasons = classify(argv, 0, json.dumps(_envelope(results={"stats": stats})), VALIDATOR)
    assert reasons == ["histogram total 9 != trials 10"]

    csv = tmp_path / "w.csv"
    csv.write_text("re,im,w\n" + "0,0,0\n" * 8)
    argv = ["wigner", "--state", "even-cat", "--alpha", "1", "--grid", "-1:1:3",
            "--out", str(csv)]
    results = {"points": 9}
    reasons = classify(argv, 0, json.dumps(_envelope(results=results)), VALIDATOR)
    assert reasons == ["CSV has 9 rows, expected points + 1 = 10"]


def test_parse_importtime_counts_outermost_package_lines():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       scipy._lib",
        "import time:        30 |         50 |     scipy.linalg",
        "import time:        10 |         10 |     scipy",
        "import time:         5 |        215 |   catsize.fock",
        "import time:         1 |        366 | catsize",
    ])
    assert parse_importtime(stderr) == {
        "import.catsize_s": 366e-6, "import.scipy_s": 60e-6, "import.numpy_s": 150e-6,
    }


def test_self_time_removes_direct_children_only():
    spans = [("a", 0, 100, -1), ("b", 10, 60, 0), ("c", 20, 30, 1), ("b", 70, 80, 0)]
    assert reduce_spans(spans) == {"a": [1, 40, 100], "b": [2, 50, 60], "c": [1, 10, 10]}


def test_tracer_patches_every_binding_and_restores_them():
    import catsize.cli  # noqa: F401  (the tracer wraps cli.main)
    from catsize import fock, phase_space

    original = fock.displacement_op
    vacuum = fock.FockVector(cutoff=7, modes=1, amplitudes=np.eye(8)[0].astype(complex))
    tracer = Tracer()
    tracer.install()
    try:
        assert phase_space.displacement_op is fock.displacement_op is not original
        phase_space.wigner_numeric(vacuum, [0.1])
    finally:
        tracer.uninstall()
    assert phase_space.displacement_op is fock.displacement_op is original
    table = reduce_spans(tracer.spans)
    assert table["phase_space.wigner_numeric"][0] == 1
    assert table["fock.displacement_op"][0] == 1
    assert tracer.counters["fock.apply_single_mode.flops_computed"] == 8 * 8 * 8
