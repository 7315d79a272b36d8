"""The packaged size measures and their cross-checking diagnostics."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import (
    build_state,
    projector,
    rqfi_joint_variance,
    tensor,
    total_photon_pmf,
    trace_norm,
)

from catsize.closed_forms import (
    CatFamily,
    CatStateSpec,
    GeneratorKind,
    distill_pm,
    ghz_mode_loss_offdiag,
    helstrom_success_n_modes,
    n_eff_integer,
    rqfi_bound_bounded,
)
from catsize.errors import DomainError, ResolutionError
from catsize.fock import coherent_vector, default_cutoff, mode_ops
from catsize.measures import (
    RQFI_VARIANCE_TOL,
    Method,
    MeasureKind,
    MeasureResult,
    branch_dist_size,
    branch_dist_size_real,
    distillation_size,
    marquardt_size,
    mode_loss_size,
    rqfi_size,
    wigner_empirical_size,
    _branch_pair,
    _convolved_pmf,
    _mode_pmf,
    _rqfi_oracle,
    _trace_norm_check,
)
from catsize.phase_space import extract_features, wigner_grid


def omega(modes: int, alpha) -> CatStateSpec:
    return CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha)


def hcs(modes: int, alpha) -> CatStateSpec:
    return CatStateSpec(family=CatFamily.HCS, modes=modes, alpha=alpha)


QN = "quadrature+number"


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------

def test_result_rejects_negative_value():
    with pytest.raises(DomainError):
        MeasureResult(
            measure=MeasureKind.MARQUARDT,
            value=-0.1,
            params=None,
            state=omega(1, 1.0),
            method=Method.CLOSED_FORM,
        )


def test_family_labels_round_trip():
    res = rqfi_size(omega(2, 1.0), "bounded-local+quadrature+number")
    assert res.params.family == (
        GeneratorKind.BOUNDED_LOCAL,
        GeneratorKind.QUADRATURE,
        GeneratorKind.NUMBER,
    )
    assert res.diagnostics["family"] == "bounded-local+quadrature+number"
    sandwich = rqfi_size(hcs(2, 1.0), "spin-sandwich")
    assert sandwich.params.family == (GeneratorKind.SPIN_SANDWICH,)
    assert sandwich.diagnostics["family"] == "spin-sandwich"


def test_family_label_order_is_canonical():
    swapped = rqfi_size(omega(2, 1.5), "number+quadrature")
    assert swapped.diagnostics["family"] == "quadrature+number"
    assert swapped.params.family == (GeneratorKind.QUADRATURE, GeneratorKind.NUMBER)
    assert swapped.value == rqfi_size(omega(2, 1.5), QN).value


def test_family_label_parse_error_names_the_menu():
    with pytest.raises(DomainError, match="unknown generator kind 'junk'"):
        rqfi_size(omega(2, 1.0), "quadrature+junk")


def test_sandwich_kind_does_not_mix():
    for label in ("spin-sandwich+number", "number+spin-sandwich"):
        with pytest.raises(DomainError, match="cannot be mixed"):
            rqfi_size(hcs(2, 1.5), label)


# ---------------------------------------------------------------------------
# branch distinguishability
# ---------------------------------------------------------------------------

def test_branch_dist_integer_measure():
    res = branch_dist_size(omega(10, 0.5), 0.01)
    assert res.value == 2.5
    assert res.method is Method.HYBRID
    assert res.diagnostics["n_eff_integer"] == 4
    assert res.diagnostics["n_eff_real"] == pytest.approx(
        3.228926160721702, rel=1e-12
    )
    assert res.diagnostics["success_at_n_eff"] == pytest.approx(
        helstrom_success_n_modes(4, 0.5), rel=1e-15
    )
    oracle = res.diagnostics["oracle"]
    assert oracle["modes_checked"] == 4
    assert oracle["difference"] <= 1e-8


@pytest.mark.parametrize("n_check", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_trace_norm_oracle_matches_dense_projectors(alpha, n_check):
    # the Gram-power compression against the full (d^n, d^n) projector route
    cutoff = default_cutoff(alpha)
    plus = coherent_vector(alpha, cutoff)
    minus = coherent_vector(-alpha, cutoff)
    rho_p = projector(tensor(*([plus] * n_check)).amplitudes)
    rho_m = projector(tensor(*([minus] * n_check)).amplitudes)
    dense = 0.5 + 0.25 * trace_norm(rho_p - rho_m)
    oracle = _trace_norm_check(alpha, n_check, cutoff)
    assert abs(oracle["numeric"] - dense) <= 1e-13
    assert oracle["modes_checked"] == n_check
    assert oracle["cutoff"] == cutoff
    assert oracle["closed"] == helstrom_success_n_modes(n_check, alpha)
    assert oracle["difference"] == abs(oracle["closed"] - oracle["numeric"])


@pytest.mark.parametrize(
    "modes, alpha, delta, n_eff",
    [(10, 0.5, 0.01, 4), (100, 0.2, 1e-6, 78), (1000, 0.05, 1e-4, 783)],
)
def test_branch_dist_oracle_checks_n_eff_modes(modes, alpha, delta, n_eff):
    res = branch_dist_size(omega(modes, alpha), delta)
    oracle = res.diagnostics["oracle"]
    assert oracle["modes_checked"] == n_eff == n_eff_integer(delta, alpha)
    assert oracle["closed"] == helstrom_success_n_modes(n_eff, alpha)
    assert oracle["difference"] <= 1e-13


def test_branch_dist_oracle_keeps_precision_at_small_alpha():
    # n_eff = 43,588,346,786: g_1^n from a rounded 1 - g_1 would miss by ~1e-5
    res = branch_dist_size(omega(10**11, 1e-6), 0.3)
    oracle = res.diagnostics["oracle"]
    assert oracle["modes_checked"] == 43_588_346_786
    assert oracle["difference"] <= 1e-12


def test_branch_dist_oracle_builds_no_dense_operator():
    # the dense route peaked at 42.6 MB here (two 729 x 729 projectors)
    branch_dist_size(omega(6, 0.626427), 5.19265e-05)
    tracemalloc.start()
    try:
        res = branch_dist_size(omega(6, 0.626427), 5.19265e-05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.diagnostics["oracle"]["modes_checked"] == 6
    assert peak < 1_000_000


def test_branch_dist_outside_validity_interval():
    with pytest.raises(DomainError, match="outside the validity interval"):
        branch_dist_size(omega(2, 1.0), 0.01)


def test_branch_dist_real_measure():
    # second route: -4 N |alpha|^2 / log(4 delta (1 - delta)) via mpmath
    res = branch_dist_size_real(omega(1, 2.0), 0.01)
    assert res.value == pytest.approx(4.955207769887131, rel=1e-12)
    assert res.method is Method.CLOSED_FORM
    assert res.diagnostics["n_eff_real"] == pytest.approx(
        0.20180788504510638, rel=1e-12
    )
    assert res.diagnostics["integer_counterpart"] == 1.0


def test_branch_dist_real_accepts_single_mode_cat():
    spec = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=2.0)
    assert branch_dist_size_real(spec, 0.01).value == pytest.approx(
        4.955207769887131, rel=1e-12
    )


def test_branch_dist_real_rejects_other_families():
    with pytest.raises(DomainError):
        branch_dist_size_real(hcs(2, 1.0), 0.01)


# ---------------------------------------------------------------------------
# Fisher-information size
# ---------------------------------------------------------------------------

def test_rqfi_quadrature_number_reference_value():
    # second route: raw numpy Gram evaluation over the 16-phase menu
    res = rqfi_size(omega(2, 1.5), QN)
    assert res.value == pytest.approx(9.498889448816122, rel=1e-12)
    assert res.method is Method.LOWER_BOUND
    assert res.diagnostics["denominator"] == 1.0
    assert res.diagnostics["achieving_generator"].startswith("quadrature")
    assert res.diagnostics["variance"] == pytest.approx(
        18.997778897632248, rel=1e-12
    )


def test_rqfi_bounded_equals_closed_bound():
    for modes, alpha in ((1, 0.8), (3, 0.9), (4, 1.5)):
        res = rqfi_size(omega(modes, alpha), "bounded-local")
        assert res.value == pytest.approx(
            rqfi_bound_bounded(modes, alpha), rel=1e-12
        )
    assert rqfi_size(omega(1, 1.3), "bounded-local").value == (
        pytest.approx(1.0, abs=1e-9)
    )


def test_rqfi_hidden_sandwich_reference_values():
    res = rqfi_size(hcs(2, 1.5), "spin-sandwich")
    assert res.value == pytest.approx(1.6917821986011319, rel=1e-11)
    assert res.diagnostics["achieving_generator"] == "sandwich-x"
    assert res.diagnostics["denominator"] == pytest.approx(
        7.318054743584028, rel=1e-11
    )
    maxima = res.diagnostics["branch_variance_maxima"]
    assert 0.5 * (maxima["u"] + maxima["v"]) == pytest.approx(
        res.diagnostics["denominator"], rel=1e-12
    )
    wide = rqfi_size(hcs(2, 2.5), "spin-sandwich")
    assert wide.value == pytest.approx(1.862068965431371, rel=1e-11)


def test_rqfi_family_is_monotone_under_inclusion():
    nested = (
        "bounded-local",
        "bounded-local+quadrature",
        "bounded-local+quadrature+number",
    )
    values = [rqfi_size(omega(3, 0.9), fam).value for fam in nested]
    for small, large in zip(values, values[1:]):
        assert large >= small - 1e-12


def test_rqfi_sandwich_requires_hidden_family():
    with pytest.raises(DomainError, match="only the hidden superposition"):
        rqfi_size(omega(2, 1.5), "spin-sandwich")


def test_rqfi_degenerate_alpha_rejected():
    with pytest.raises(DomainError):
        rqfi_size(omega(2, 0.0), QN)


def test_rqfi_quadrature_number_values_at_two_and_four_modes():
    assert rqfi_size(omega(2, 1.5), QN).value == pytest.approx(
        9.498889448816122, rel=1e-12
    )
    assert rqfi_size(omega(4, 1.5), QN).value == pytest.approx(
        18.499999725860373, rel=1e-12
    )


def test_rqfi_oracle_recomputes_the_achieving_variance():
    res = rqfi_size(omega(2, 1.0), QN, oracle=True)
    oracle = res.diagnostics["oracle"]
    assert oracle["status"] == "ok"
    assert oracle["generator"] == res.diagnostics["achieving_generator"]
    assert oracle["difference"] <= 1e-7
    assert oracle["closed_variance"] == pytest.approx(
        8.856110320303268, rel=1e-12
    )


@pytest.mark.parametrize("modes, alpha", [(3, 2.5), (1, 0.3), (4, 1.1)])
def test_rqfi_variance_diagnostic_is_the_achieving_variance(modes, alpha):
    # it was value * modes * denominator, a round trip through the size:
    # 114.00000000000003 at 3 modes and alpha 2.5, against the oracle's
    # closed_variance 114.00000000000001
    for family in ("quadrature", QN, "bounded-local"):
        res = rqfi_size(omega(modes, alpha), family, oracle=True)
        variance = res.diagnostics["variance"]
        assert variance == res.diagnostics["oracle"]["closed_variance"], family
        assert res.value == variance / (modes * res.diagnostics["denominator"])


@pytest.mark.parametrize(
    "state, family",
    [(omega(3, 1.0), QN), (hcs(3, 0.8), "spin-sandwich"),
     (omega(4, 0.5), "bounded-local")],
)
def test_rqfi_oracle_runs_wherever_the_joint_vector_fits(state, family):
    res = rqfi_size(state, family, oracle=True)
    oracle = res.diagnostics["oracle"]
    assert oracle["status"] == "ok"
    assert oracle["generator"] == res.diagnostics["achieving_generator"]
    assert oracle["cutoff"] <= 160
    assert oracle["difference"] <= 1e-7


def _achieving_generator(state, family):
    label = rqfi_size(state, family).diagnostics["achieving_generator"]
    (gen,) = [gen for gen in _branch_pair(state)[1] if gen.label == label]
    return gen


def test_rqfi_oracle_peak_memory_does_not_grow_with_modes():
    # the branch tables are B x B at every mode count; the joint-vector
    # oracle held three 44**4-amplitude vectors (180 MB) at four modes
    peaks = []
    for modes in (4, 1000):
        state = omega(modes, 1.5)
        gen = _achieving_generator(state, QN)
        _rqfi_oracle(state, gen, 0.0)
        tracemalloc.start()
        try:
            oracle = _rqfi_oracle(state, gen, 0.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert oracle["cutoff"] == 43
    assert peaks[1] <= peaks[0] < 16 * 44**2 * 8


@pytest.mark.parametrize(
    "state, family, pinned",
    [
        (omega(4, 1.5), QN, "0x1.27ffffb669448p+6"),
        (hcs(3, 1.0), "spin-sandwich", "0x1.8ae15bebcb987p+3"),
        (omega(3, 0.7), "bounded-local", "0x1.f9585b8af577cp+2"),
    ],
)
def test_rqfi_oracle_variance_is_pinned_bitwise(state, family, pinned):
    # the branch tables are elementwise products reduced by numpy sums; the
    # joint-vector oracle's pins moved with OpenBLAS's summation order in its
    # zgemm and zdotc, which depends on the thread count
    oracle = rqfi_size(state, family, oracle=True).diagnostics["oracle"]
    assert oracle["numeric_variance"].hex() == pinned


def test_rqfi_oracle_reports_unaffordable_budgets():
    res = rqfi_size(omega(5, 1.0), QN, oracle=True)
    oracle = res.diagnostics["oracle"]
    assert oracle["status"] == "ok" and oracle["cutoff"] == 37
    # the d^3 generator work sets the budget at every mode count
    for modes in (1, 2, 5, 1000):
        for alpha, floor in ((8.5, 161), (45.0, 2405)):
            low = rqfi_size(omega(modes, alpha), QN, oracle=True).diagnostics["oracle"]
            assert low["reason"] == (
                f"budget 4194304 allows cutoff 160 < required {floor}"
            )
    top = rqfi_size(omega(2, 8.1), QN, oracle=True).diagnostics["oracle"]
    assert top["status"] == "ok" and top["cutoff"] == 159


def test_rqfi_without_oracle_has_no_oracle_entry():
    assert "oracle" not in rqfi_size(omega(2, 1.0), QN).diagnostics
    assert rqfi_size(omega(2, 1.0), QN).checks == []


_CAPPED_LABELS = (
    "bounded-local", "quadrature", "number", "quadrature+number",
    "bounded-local+quadrature", "bounded-local+number",
    "bounded-local+quadrature+number",
)


@pytest.mark.parametrize("alpha", [1e-8, 1e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("modes", [1, 2, 3])
@pytest.mark.parametrize(
    "make, label",
    [(omega, label) for label in _CAPPED_LABELS]
    + [(hcs, label) for label in _CAPPED_LABELS + ("spin-sandwich",)],
)
def test_rqfi_oracle_rows_pass_at_tiny_amplitudes(make, label, modes, alpha):
    # with A_minus = sqrt(2 - 2w) the odd kitten lost up to 1.07 of its
    # variance to cancellation at these amplitudes and the row failed
    (row,) = rqfi_size(make(modes, alpha), label, oracle=True).checks
    assert row["name"] == "variance-closed-vs-fock"
    assert row["tolerance"] == RQFI_VARIANCE_TOL
    assert row["status"] == "pass", row


_EVERY_LABEL = [(omega, label) for label in _CAPPED_LABELS] + [
    (hcs, label) for label in _CAPPED_LABELS + ("spin-sandwich",)
]


@pytest.mark.parametrize("make, label", _EVERY_LABEL)
def test_rqfi_branch_oracle_matches_the_joint_vector(make, label):
    # at four modes the joint vector fits MAX_JOINT_DIM only at small cutoffs
    cases = [(modes, alpha) for modes in (1, 2, 3) for alpha in (0.3, 0.8, 1.5, 2.5)]
    for modes, alpha in cases + [(4, 0.3)]:
        state = make(modes, alpha)
        oracle = rqfi_size(state, label, oracle=True).diagnostics["oracle"]
        joint = rqfi_joint_variance(state, _achieving_generator(state, label), oracle["cutoff"])
        assert oracle["numeric_variance"] == pytest.approx(joint, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make, label", _EVERY_LABEL)
def test_rqfi_oracle_rows_pass_at_every_mode_count(make, label):
    alphas = (1e-8, 1e-3, 0.05, 0.3, 1.0, 2.0, 4.0, 8.0, 1.3j, 0.7 + 0.7j)
    for modes in (1, 2, 3, 4, 5, 20, 100, 1000, 10**4, 10**6):
        for alpha in alphas:
            (row,) = rqfi_size(make(modes, alpha), label, oracle=True).checks
            assert row["status"] == "pass", (modes, alpha, row)
            # the joint-vector oracle printed its rows at four modes and fewer
            if modes <= 4:
                assert row["tolerance"] == RQFI_VARIANCE_TOL


@pytest.mark.parametrize(
    "modes, reason",
    [(10**15, "1.78 <G^2> >= <G^2> at N = 1000000000000000"),
     (10**20, "1.78e+05 <G^2> >= <G^2> at N = 100000000000000000000")],
)
def test_rqfi_oracle_skips_where_the_rounding_bound_reaches_the_variance(modes, reason):
    # 8 N eps >= 1: the row passed with a tolerance above the variance itself
    (row,) = rqfi_size(omega(modes, 1.0), QN, oracle=True).checks
    assert row["status"] == "skipped"
    assert row["observed"] == "rounding bound 8 N eps <G^2> = " + reason


def test_rqfi_oracle_keeps_the_derived_tolerance_below_the_skip():
    (row,) = rqfi_size(omega(10**11, 1.0), QN, oracle=True).checks
    assert row["status"] == "pass"
    assert row["observed"] == row["expected"] == 2.0000000000050004e22
    assert row["tolerance"] == 3.5527136788093834e18
    assert type(row["tolerance"]) is float


def _numeric_quadrature_variances(spec: CatStateSpec, phases) -> np.ndarray:
    """Variance of sum_i x_i(phi) on the truncated state, from plain arrays."""
    cutoff = default_cutoff(math.sqrt(spec.modes) * abs(spec.alpha)) + 10
    vec = build_state(spec, cutoff=cutoff)
    psi = vec.as_tensor() / vec.norm()
    a = mode_ops(cutoff)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = 1j * (a.conj().T - a) / math.sqrt(2.0)
    moved = {}
    for name, op in (("x", x), ("p", p)):
        moved[name] = sum(
            np.moveaxis(np.tensordot(op, psi, axes=([1], [mode])), 0, mode)
            for mode in range(spec.modes)
        )
    out = []
    for phi in phases:
        # x(phi) = cos(phi) x + sin(phi) p
        v = math.cos(phi) * moved["x"] + math.sin(phi) * moved["p"]
        mean = float(np.vdot(psi, v).real)
        out.append(float(np.vdot(v, v).real) - mean * mean)
    return np.array(out)


def _quadrature_draws(count: int):
    rng = np.random.default_rng(20261018)
    families = (CatFamily.OMEGA, CatFamily.HCS, CatFamily.EVEN_CAT, CatFamily.ODD_CAT)
    for _ in range(count):
        family = families[int(rng.integers(len(families)))]
        modes = int(rng.integers(1, 3)) if family in families[:2] else 1
        alpha = rng.uniform(0.2, 2.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        yield CatStateSpec(family=family, modes=modes, alpha=alpha)


@pytest.mark.parametrize(
    "spec",
    list(_quadrature_draws(16)),
    ids=lambda s: f"{s.family.value}-{s.modes}-{abs(s.alpha):.3f}",
)
def test_two_principal_quadratures_reach_the_phase_scan_maximum(spec):
    res = rqfi_size(spec, "quadrature")
    assert res.diagnostics["achieving_generator"] in (
        "quadrature(phi=base)", "quadrature(phi=base+pi/2)",
    )
    scan = _numeric_quadrature_variances(spec, np.linspace(0.0, math.pi, 256, endpoint=False))
    assert float(scan.max()) <= res.diagnostics["variance"] + 1e-9


# ---------------------------------------------------------------------------
# transfer distribution
# ---------------------------------------------------------------------------

def test_marquardt_mean_and_distribution_tag():
    res = marquardt_size(omega(2, 1.0))
    assert res.value == 2.0
    assert res.method is Method.CLOSED_FORM
    assert res.diagnostics["distribution"] == "poisson"
    assert res.diagnostics["variance"] == res.value


def test_marquardt_numeric_route_agrees():
    res = marquardt_size(omega(3, 0.8), numeric_check=True)
    assert res.method is Method.HYBRID
    numeric = res.diagnostics["numeric"]
    assert numeric["displaced_max_abs_diff"] <= 1e-10
    assert numeric["branch_max_abs_diff"] <= 1e-10
    assert numeric["mean_abs_error"] <= 1e-8
    assert numeric["branch_mean"] == pytest.approx(res.value, abs=1e-8)


@pytest.mark.parametrize("modes", [5, 20, 100])
def test_marquardt_numeric_check_passes_past_four_modes(modes):
    checks = marquardt_size(omega(modes, 1.0), numeric_check=True).checks
    assert [row["status"] for row in checks] == ["pass", "pass"]


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_convolved_pmf_matches_the_joint_vector(modes):
    for alpha in (0.3, 0.8):
        cutoff = default_cutoff(2.0 * alpha)
        for beta in (alpha, 2.0 * alpha):
            spec = CatStateSpec(family=CatFamily.PRODUCT_COHERENT, modes=modes, alpha=beta)
            dense = total_photon_pmf(build_state(spec, cutoff=cutoff))
            pmf = _convolved_pmf(_mode_pmf(beta, cutoff), modes)
            assert np.abs(pmf - dense).max() <= 1e-15


def test_marquardt_requires_two_branch_family():
    with pytest.raises(DomainError):
        marquardt_size(hcs(2, 1.0))


# ---------------------------------------------------------------------------
# distillation
# ---------------------------------------------------------------------------

def test_distillation_measure():
    res = distillation_size(omega(5, 0.8))
    assert res.value == pytest.approx(3.60382553520476, rel=1e-12)
    assert res.diagnostics["success_probability"] == pytest.approx(
        math.tanh(5 * 0.64), rel=1e-15
    )
    assert res.diagnostics["large_alpha_limit"] == 5.0
    head = res.diagnostics["first_split_head"]
    assert sorted(head) == ["1", "2", "3", "4"]
    for key, got in head.items():
        assert got == pytest.approx(distill_pm(int(key), 5, 0.8), rel=1e-15)
    assert head["1"] == pytest.approx(0.7207651070409522, rel=1e-12)


# ---------------------------------------------------------------------------
# mode loss
# ---------------------------------------------------------------------------

def test_mode_loss_measure():
    res = mode_loss_size(omega(6, 1.0), 0.25)
    assert res.value == 12.0
    d = res.diagnostics
    assert d["omega_offdiag"] == pytest.approx(0.02489338123371148, rel=1e-12)
    assert d["omega_offdiag_mean"] == pytest.approx(
        0.11596083306644914, rel=1e-12
    )
    assert d["ghz_offdiag"] == pytest.approx(
        ghz_mode_loss_offdiag(12, 0.25), rel=1e-15
    )
    assert d["ghz_offdiag"] == pytest.approx(0.015838176012039185, rel=1e-12)
    assert d["particle_trace_reference"] == pytest.approx(
        5.9999262699047735, rel=1e-12
    )


def test_mode_loss_rate_is_validated():
    with pytest.raises(DomainError):
        mode_loss_size(omega(2, 1.0), 1.2)


# ---------------------------------------------------------------------------
# empirical phase-space size
# ---------------------------------------------------------------------------

def test_wigner_empirical_wide_cat():
    spec = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=2.0)
    res = wigner_empirical_size(spec)
    assert res.value == pytest.approx(16.0, abs=1e-12)
    assert res.method is Method.ORACLE
    d = res.diagnostics
    assert d["separation"] == pytest.approx(4.0, abs=1e-12)
    assert d["reference_separation"] == 4.0
    assert d["fringe_wavelength"] == pytest.approx(
        0.7826572906726993, abs=1e-12
    )
    assert d["reference_wavelength"] == pytest.approx(math.pi / 4, rel=1e-15)
    assert d["fringe_axis"] == "im"
    assert d["n_peaks"] == 7
    assert d["window"] == (-4.0, 4.0, 201)
    assert d["grid_step"] == pytest.approx(0.04, rel=1e-12)


def test_wigner_empirical_joint_two_branch():
    res = wigner_empirical_size(omega(2, 1.0))
    assert res.value == pytest.approx(7.372800000000001, rel=1e-12)
    d = res.diagnostics
    assert d["separation"] == pytest.approx(2.7152900397563426, rel=1e-12)
    assert d["reference_separation"] == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-15
    )
    # the detected separation sits below the product-state reference: the
    # interference ridge at the origin pulls both lobes inward
    assert d["separation"] < d["reference_separation"]
    assert d["n_peaks"] == 3
    assert d["fringe_wavelength"] is None


def test_wigner_empirical_single_peak_is_refused():
    spec = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=0.0)
    with pytest.raises(ResolutionError, match="fewer than two"):
        wigner_empirical_size(spec)


def test_wigner_empirical_merged_lobes_are_refused():
    # below sqrt(N)|alpha| ~ 1.314 the lobes have merged into the origin
    # ridge; the fringe troughs left at +/- 0.64i for alpha = 1 are not lobes
    even = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=1.0)
    for spec in (even, omega(2, 0.9)):
        with pytest.raises(ResolutionError, match="fewer than two"):
            wigner_empirical_size(spec)


def test_wigner_empirical_lobes_just_above_merger():
    spec = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=1.35)
    res = wigner_empirical_size(spec)
    d = res.diagnostics
    lo, hi, n = d["window"]
    line = np.linspace(lo, hi, n)
    feats = extract_features(wigner_grid(spec, {"re": line, "im": line}))
    lobes = [
        loc[0]
        for loc, value in zip(feats.peak_locations, feats.peak_values)
        if value > 0.0 and abs(loc[0]) > d["grid_step"]
    ]
    assert len(lobes) == 2
    assert all(abs(z.imag) < d["grid_step"] for z in lobes)
    assert lobes[0].real == pytest.approx(-lobes[1].real, abs=1e-12)
    assert d["separation"] == pytest.approx(abs(lobes[0] - lobes[1]), rel=1e-12)
    assert d["separation"] == pytest.approx(2.472619047619048, rel=1e-12)
    assert d["separation"] < d["reference_separation"]


def test_wigner_empirical_family_gate():
    with pytest.raises(DomainError):
        wigner_empirical_size(hcs(2, 1.5))
    with pytest.raises(DomainError):
        wigner_empirical_size(omega(3, 1.0))


# ---------------------------------------------------------------------------
# phase covariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2])
def test_measures_depend_on_alpha_only_through_modulus(theta):
    rot = 1.2 * cmath.exp(1j * theta)
    assert branch_dist_size_real(omega(2, rot), 0.01).value == (
        branch_dist_size_real(omega(2, 1.2), 0.01).value
    )
    assert rqfi_size(omega(2, rot), QN).value == (
        rqfi_size(omega(2, 1.2), QN).value
    )
    assert rqfi_size(hcs(2, rot), "spin-sandwich").value == (
        rqfi_size(hcs(2, 1.2), "spin-sandwich").value
    )
    assert marquardt_size(omega(2, rot)).value == marquardt_size(omega(2, 1.2)).value
    assert distillation_size(omega(2, rot)).value == (
        distillation_size(omega(2, 1.2)).value
    )
    assert mode_loss_size(omega(2, rot), 0.3).value == (
        mode_loss_size(omega(2, 1.2), 0.3).value
    )
