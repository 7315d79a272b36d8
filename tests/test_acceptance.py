"""Acceptance battery: twelve numbered criteria, one test and one verdict each.

Each test prints a single ``criterion NN: PASS`` line (visible under -s) or
fails with a message itemizing exactly which clause missed its tolerance.
Tolerances are stated inline; nothing here is loosened to make a run green.
"""

import itertools
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from dense_reference import projector, trace_norm

from catsize.closed_forms import (
    CatFamily,
    CatStateSpec,
    abs2,
    delta_validity_interval,
    distill_expected_n,
    distill_pm,
    equivalent_ghz_size,
    ghz_mode_loss_offdiag,
    mode_loss_offdiag,
    n_eff_integer,
    quadrature_variance_omega,
    rqfi_bound_bounded,
    rqfi_bound_quadrature,
)
from catsize.errors import ResolutionError
from catsize.fock import (
    build_state,
    coherent_vector,
    default_cutoff,
    tensor,
    total_photon_pmf,
)
from catsize.measures import (
    branch_dist_size_real,
    marquardt_size,
    rqfi_size,
    wigner_empirical_size,
    _trace_norm_check,
)
from catsize.phase_space import extract_features, wigner_grid
from catsize.simulate import (
    CollapseProblem,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)
from catsize.verify import (
    matched_intensity_beta,
    network_coherent_gap,
    network_superposition_gap,
    wigner_gap_hcs2,
    wigner_gap_hcs2_spots,
)

SEED = 2026


def omega(modes, alpha):
    return CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha)


def _pure_pair_failure(n, overlap_one):
    """Optimal discrimination error for n branch copies, numerically stable.

    The difference of the two pure product states acts only on their joint
    span, so its trace norm is 2 sqrt(1 - |g|^2) with g the n-copy overlap
    (the single-copy overlap to the n-th power by the tensor product rule).
    The error (1 - sqrt(1 - |g|^2)) / 2 is rewritten without the subtraction
    so it stays meaningful when delta sits far below float epsilon.
    """
    g2 = abs(complex(overlap_one)) ** (2 * n)
    return g2 / (2.0 * (1.0 + math.sqrt(max(0.0, 1.0 - g2))))


def test_criterion_01_integer_size_matches_trace_norm_scan():
    rng = np.random.default_rng(SEED)
    for draw in range(50):
        alpha = float(rng.uniform(0.3, 3.0))
        modes = int(rng.integers(2, 13))
        lo, hi = delta_validity_interval(modes, alpha)
        delta = float(np.exp(rng.uniform(np.log(lo * 1.1), np.log(hi * 0.9))))
        plus = coherent_vector(alpha, default_cutoff(alpha))
        minus = coherent_vector(-alpha, default_cutoff(alpha))
        g1 = complex(np.vdot(plus.amplitudes, minus.amplitudes))
        brute = None
        for n in range(1, modes + 3):
            if _pure_pair_failure(n, g1) <= delta:
                brute = n
                break
        assert brute is not None, f"draw {draw}: no n up to {modes + 2} succeeded"
        closed = n_eff_integer(delta, alpha)
        assert closed == brute, (
            f"draw {draw}: closed n_eff {closed} != scanned minimum {brute} "
            f"at alpha={alpha:.6f}, delta={delta:.3e}"
        )
        assert 1 <= brute <= modes
    # the span reduction itself against the full-matrix route, and the
    # oracle's 2 x 2 compression against both
    for alpha in (0.5, 1.0, 1.5):
        cutoff = default_cutoff(alpha)
        plus = coherent_vector(alpha, cutoff)
        minus = coherent_vector(-alpha, cutoff)
        g1 = complex(np.vdot(plus.amplitudes, minus.amplitudes))
        diff = projector(tensor(plus, plus).amplitudes) - projector(
            tensor(minus, minus).amplitudes
        )
        full = 0.5 + 0.25 * trace_norm(diff)
        assert abs((1.0 - _pure_pair_failure(2, g1)) - full) <= 1e-9
        compressed = _trace_norm_check(alpha, 2, cutoff)["numeric"]
        assert abs((1.0 - _pure_pair_failure(2, g1)) - compressed) <= 1e-9
        assert abs(full - compressed) <= 1e-9
    print("criterion 01: PASS - 50/50 integer sizes match the scanned minimum")


def test_criterion_02_pure_state_trace_norm_identity():
    for alpha in (0.5, 1.0, 2.0):
        cutoff = default_cutoff(alpha)
        plus = coherent_vector(alpha, cutoff)
        minus = coherent_vector(-alpha, cutoff)
        numeric = trace_norm(projector(plus.amplitudes) - projector(minus.amplitudes))
        closed = 2.0 * math.sqrt(-math.expm1(-4.0 * alpha**2))
        assert abs(numeric - closed) <= 1e-10, f"alpha={alpha}"
    print("criterion 02: PASS - trace norms within 1e-10 at alpha 0.5, 1, 2")


def test_criterion_03_splitting_network_fidelities():
    worst = 0.0
    for m, alpha in itertools.product((2, 3, 4), (0.5, 1.0, 1.5)):
        gap = network_coherent_gap(m, alpha)
        worst = max(worst, gap)
        assert gap <= 1e-8, f"M={m}, alpha={alpha}: fidelity gap {gap:.3e}"
    cat_gap = network_superposition_gap(3, 0.8)
    assert cat_gap <= 1e-8, f"cat-splitting fidelity gap {cat_gap:.3e}"
    print(
        "criterion 03: PASS - worst coherent gap "
        f"{worst:.2e}, cat-splitting gap {cat_gap:.2e}"
    )


def test_criterion_04_transfer_distribution_is_poissonian():
    spec = CatStateSpec(family=CatFamily.PRODUCT_COHERENT, modes=2, alpha=2.0)
    vec = build_state(spec)
    pmf = total_photon_pmf(vec)
    mean = 2 * abs2(2.0)
    reference = np.array(
        [math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)) for k in range(13)]
    )
    gap = float(np.abs(pmf[:13] - reference).max())
    assert gap <= 1e-10, f"pmf deviates from Poisson by {gap:.3e}"
    result = marquardt_size(omega(2, 1.0), numeric_check=True)
    numeric = result.diagnostics["numeric"]
    assert result.value == 2.0
    assert numeric["displaced_max_abs_diff"] <= 1e-10
    assert numeric["mean_abs_error"] <= 1e-8
    print(
        "criterion 04: PASS - displaced pmf within "
        f"{gap:.2e} of Poisson, branch mean error {numeric['mean_abs_error']:.2e}"
    )


def test_criterion_05_rqfi_ratios_and_scaling():
    cases = ((1, 0.8), (2, 1.5), (3, 0.9), (4, 1.5))
    for modes, alpha in cases:
        state = omega(modes, alpha)
        bounded = rqfi_size(state, "bounded-local")
        assert abs(bounded.value - rqfi_bound_bounded(modes, alpha)) <= 1e-9
        quad = rqfi_size(state, "quadrature")
        achieved = quad.diagnostics["variance"]
        assert abs(achieved - quadrature_variance_omega(modes, alpha)) <= 1e-9
        # the published quadrature expression caps the ratio from below and
        # is tight only at one mode
        assert quad.value >= rqfi_bound_quadrature(modes, alpha) - 1e-9
    single = rqfi_size(omega(1, 0.8), "quadrature")
    assert abs(single.value - rqfi_bound_quadrature(1, 0.8)) <= 1e-9
    assert abs(rqfi_size(omega(1, 1.3), "bounded-local").value - 1.0) <= 1e-9
    for modes, alpha in ((1, 0.8), (2, 1.0)):
        confirmed = rqfi_size(
            omega(modes, alpha),
            "quadrature+number",
            oracle=True,
        )
        oracle = confirmed.diagnostics["oracle"]
        assert oracle["status"] == "ok"
        assert oracle["difference"] <= 1e-7
    ratio = (
        rqfi_size(omega(4, 1.5), "bounded-local").value
        / rqfi_size(omega(2, 1.5), "bounded-local").value
    )
    assert abs(ratio - 2.0) <= 0.05 * 2.0, f"scaling ratio {ratio}"
    print(f"criterion 05: PASS - ratios reproduced, scaling ratio {ratio:.6f}")


def test_criterion_06_distillation_statistics():
    for modes, a in ((50, 10.0), (30, 4.0), (10, 0.25)):
        alpha = math.sqrt(a)
        total = math.fsum(distill_pm(m, modes, alpha) for m in range(1, modes + 1))
        gap = abs(total - math.tanh(modes * a))
        assert gap <= 1e-12, f"N={modes}, |alpha|^2={a}: sum gap {gap:.3e}"
    run = simulate_distillation(5, 0.8, 100000, SEED)
    expected = distill_expected_n(5, 0.8)
    assert expected == pytest.approx(3.60382553520476, abs=1e-12)
    z_mean = abs(run.mean - expected) / run.std_error
    assert z_mean <= 3.0, f"mean z-score {z_mean:.2f}"
    first = run.extra["first_split_histogram"]
    for m in (1, 2, 3):
        p = distill_pm(m, 5, 0.8)
        freq = first.get(m, 0) / run.trials
        sigma = math.sqrt(p * (1.0 - p) / run.trials)
        assert abs(freq - p) <= 3.0 * sigma, f"first split at m={m}"
    print(f"criterion 06: PASS - sums exact, mean z {z_mean:.2f}")


def test_criterion_07_mode_loss_coherence():
    run = simulate_mode_loss(6, 1.0, 0.25, 100000, SEED)
    expected = mode_loss_offdiag(6, 1.0, 0.25)
    assert expected == pytest.approx(0.02489338123371148, abs=1e-15)
    z = abs(run.mean - expected) / run.std_error
    assert z <= 3.0, f"mean z-score {z:.2f}"
    assert equivalent_ghz_size(6, 1.0) == 12.0
    for n, lam in ((6, 0.25), (12, 0.25), (9, 0.4)):
        closed = 0.5 * (1.0 - lam) ** n
        assert abs(ghz_mode_loss_offdiag(n, lam) - closed) <= 1e-15
    print(f"criterion 07: PASS - mean z {z:.2f}, reference identities exact")


def test_criterion_08_collapse_protocols():
    branch = simulate_branch_collapse(
        math.sqrt(2.0), 100000, SEED, CollapseProblem.BRANCH_VS_BRANCH
    )
    assert abs(branch.extra["p_first_outcome_exact"] - 0.5) <= 1e-12
    z = abs(branch.mean - 0.5) / branch.std_error
    assert z <= 3.0, f"outcome frequency z-score {z:.2f}"
    fid_a = branch.extra["fidelity_with_alpha"]
    fid_ma = branch.extra["fidelity_with_minus_alpha"]
    for outcome in ("xi_plus", "xi_minus"):
        assert max(fid_a[outcome], fid_ma[outcome]) >= 0.99, outcome

    mixed = simulate_branch_collapse(1.2, 2000, SEED, CollapseProblem.CAT_VS_MIXED)
    assert mixed.mean == 1.0

    chained = simulate_branch_collapse(
        math.sqrt(10.0), 200000, SEED, CollapseProblem.CAT_VS_BRANCH
    )
    target = 0.5 + 0.5 / math.sqrt(2.0)
    z_chain = abs(chained.mean - target) / chained.std_error
    assert z_chain <= 3.0, f"final-branch frequency z-score {z_chain:.2f}"
    print(f"criterion 08: PASS - z {z:.2f}, cat 100%, chained z {z_chain:.2f}")


def test_criterion_09_hierarchical_wigner_oracle():
    rng = np.random.default_rng(SEED)
    gap = wigner_gap_hcs2(rng, 1.5, 200, 2.0)
    assert gap <= 1e-6, f"200-point gap {gap:.3e}"

    spot_gap = wigner_gap_hcs2_spots()
    assert spot_gap <= 1e-6, f"alpha=3 spot gap {spot_gap:.3e}"

    spec = CatStateSpec(family=CatFamily.HCS, modes=2, alpha=3.0)
    line = np.linspace(-5.0, 5.0, 201)
    grid = wigner_grid(spec, {"re1": line, "im1": line, "re2": 0.0, "im2": 0.0})
    feats = extract_features(grid)
    assert feats.peak_locations[0] == (0j, 0j)
    assert feats.peak_values[0] == max(feats.peak_values)
    assert feats.peak_values[0] == pytest.approx(grid.values.max())
    print(
        "criterion 09: PASS - random gap "
        f"{gap:.2e}, spot gap {spot_gap:.2e}, origin peak dominant"
    )


def _lobe_maximum(A):
    """Off-origin maximum s* of the branch-axis Wigner profile, or None.

    Along the branch axis, with A = sqrt(N)|alpha|, the cat's Wigner function
    is proportional to exp(-2(s-A)^2) + exp(-2(s+A)^2) + 2 exp(-2s^2).  Its
    slope has the sign of -h(s), h(s) = (s-A) e^{4As-2A^2} + (s+A)
    e^{-4As-2A^2} + 2s.  h > 0 from s = A on, so the lobe maximum is the
    largest root below A where h turns from negative to positive.  It is
    bracketed by a downward scan from A and refined by bisection; when h
    never dips below zero the lobes have merged into the origin ridge.
    """
    def h(s):
        return (
            (s - A) * math.exp(4.0 * A * s - 2.0 * A * A)
            + (s + A) * math.exp(-4.0 * A * s - 2.0 * A * A)
            + 2.0 * s
        )

    scan = 4000
    for k in range(1, scan):
        s = A * (1.0 - k / scan)
        if h(s) < 0.0:
            break
    else:
        return None
    lo, hi = s, s + A / scan
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_10_empirical_wigner_feature_tracking():
    # references are the exact lobe maxima 2 s*(sqrt(N)|alpha|), which sit
    # inside the nominal 2 sqrt(N)|alpha| until N|alpha|^2 is large; below
    # sqrt(N)|alpha| ~ 1.314 no lobes exist and the measure must refuse
    failures = []

    cat = wigner_empirical_size(
        CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=2.0)
    )
    step = cat.diagnostics["grid_step"]
    wavelength = cat.diagnostics["fringe_wavelength"]
    target_wl = math.pi / 4.0
    if abs(wavelength - target_wl) > 0.05 * target_wl:
        failures.append(
            f"even-cat wavelength {wavelength:.6f} misses pi/4 by more than 5%"
        )
    cat_target = 2.0 * _lobe_maximum(2.0)
    if abs(cat.diagnostics["separation"] - cat_target) > step:
        failures.append(
            f"even-cat separation {cat.diagnostics['separation']:.6f} "
            f"not within one grid step of 2 s* = {cat_target:.6f}"
        )

    scaled = {(1, 2.0): cat.value}
    for modes, alpha in itertools.product((1, 2), (1.0, math.sqrt(2.0))):
        family = CatFamily.EVEN_CAT if modes == 1 else CatFamily.OMEGA
        spec = CatStateSpec(family=family, modes=modes, alpha=alpha)
        s_star = _lobe_maximum(math.sqrt(modes) * alpha)
        if s_star is None:
            try:
                res = wigner_empirical_size(spec)
            except ResolutionError:
                continue
            failures.append(
                f"(N={modes}, alpha={alpha:.4f}) has no lobe maximum, yet "
                f"reported separation {res.diagnostics['separation']:.6f}"
            )
            continue
        res = wigner_empirical_size(spec)
        sep = res.diagnostics["separation"]
        r_step = res.diagnostics["grid_step"]
        target = 2.0 * s_star
        if abs(sep - target) > r_step:
            failures.append(
                f"separation at (N={modes}, alpha={alpha:.4f}) {sep:.6f} is "
                f"{abs(sep - target) / r_step:.1f} grid steps from "
                f"2 s* = {target:.6f} (step {r_step})"
            )
        ratio = res.value / target**2
        if abs(ratio - 1.0) > 0.05:
            failures.append(
                f"squared separation at (N={modes}, alpha={alpha:.4f}) is "
                f"{res.value:.4f}, {ratio:.4f} of the (2 s*)^2 reference"
            )
        scaled[(modes, alpha)] = res.value

    # the nominal 4N|alpha|^2 scaling is reached once N|alpha|^2 = 4
    for modes, alpha in ((1, 2.0), (2, math.sqrt(2.0))):
        reference = 4.0 * modes * alpha**2
        ratio = scaled[(modes, alpha)] / reference
        if abs(ratio - 1.0) > 0.05:
            failures.append(
                f"squared separation at (N={modes}, alpha={alpha:.4f}) is "
                f"{scaled[(modes, alpha)]:.4f}, {ratio:.4f} of the "
                f"4N|alpha|^2 reference"
            )

    assert not failures, "criterion 10: FAIL - " + "; ".join(failures)
    print("criterion 10: PASS - wavelength, separations, and scaling all track")


def test_criterion_11_intensity_matched_sizes_agree_exactly():
    rng = np.random.default_rng(SEED)
    matched = 0
    attempts = 0
    while matched < 20:
        attempts += 1
        assert attempts <= 400, "could not match 20 draws bitwise"
        modes = int(rng.integers(2, 7))
        alpha = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
        delta = float(np.exp(rng.uniform(np.log(1e-5), np.log(0.2))))
        beta = matched_intensity_beta(modes, alpha)
        if beta is None:
            continue
        matched += 1
        joint = branch_dist_size_real(omega(modes, alpha), delta)
        single = branch_dist_size_real(
            CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=beta), delta
        )
        assert joint.value == single.value, (
            f"modes={modes}, alpha={alpha}, delta={delta:.3e}: "
            f"{joint.value!r} != {single.value!r}"
        )
    print(f"criterion 11: PASS - 20 matched draws agree bitwise ({attempts} tried)")


CLI_COMMANDS = (
    ("simulate", "distill", "--modes", "5", "--alpha", "0.8",
     "--trials", "4000", "--seed", "13"),
    ("simulate", "mode-loss", "--modes", "6", "--alpha", "1",
     "--lambda", "0.25", "--trials", "4000", "--seed", "13"),
    ("simulate", "collapse", "--alpha", "1.4142", "--problem",
     "branch-vs-branch", "--trials", "4000", "--seed", "13"),
    ("simulate", "collapse", "--alpha", "1.2", "--problem",
     "cat-vs-mixed", "--trials", "4000", "--seed", "13"),
    ("simulate", "collapse", "--alpha", "3.1622", "--problem",
     "cat-vs-branch", "--trials", "4000", "--seed", "13"),
    ("verify", "--suite", "fast", "--seed", "0"),
    ("verify", "--suite", "full", "--seed", "0"),
)


def test_criterion_12_fixed_seed_envelopes_are_reproducible():
    for args in CLI_COMMANDS:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "catsize.cli", *args],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, (args, proc.stderr)
            outputs.append(
                re.sub(r'"timing_ms": \d+', '"timing_ms": 0', proc.stdout)
            )
            json.loads(proc.stdout)
        assert outputs[0] == outputs[1], f"envelope drift for {' '.join(args)}"
    print(f"criterion 12: PASS - {len(CLI_COMMANDS)} commands byte-stable")
