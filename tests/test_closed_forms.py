"""Closed-form layer: frozen cross-checked values plus algebraic properties.

Constants marked "second route" were produced by an independent truncated
Fock-space or high-precision computation and are compared at tolerances well
above double rounding noise.
"""

import decimal
import math

import numpy as np
import pytest

from catsize.closed_forms import (
    CatFamily,
    CatStateSpec,
    MeasureParams,
    abs2,
    branch_overlap,
    cat_size_C,
    cat_size_C_approx,
    check_row,
    delta_validity_interval,
    distill_expected_n,
    distill_pm,
    equivalent_ghz_size,
    ghz_mode_loss_offdiag,
    hcs_norms,
    helstrom_success_n_modes,
    log_cosh,
    log_sinh,
    marquardt_pd,
    marquardt_s,
    mode_loss_offdiag,
    mode_loss_offdiag_mean,
    n_eff_integer,
    n_eff_real,
    number_variance_omega,
    omega_norm,
    quadrature_variance_omega,
    rdm_particle_trace,
    rqfi_bound_bounded,
    rqfi_bound_quadrature,
)
from catsize.errors import DomainError


# ---------------------------------------------------------------------------
# errata: expressions as quoted in the literature, kept here to show that
# they are wrong; the package ships only the corrected forms
# ---------------------------------------------------------------------------

def quadrature_variance_omega_bound(modes, alpha):
    """Quoted cap N^2 a tanh(N a) + N a + 1/2 on the total-quadrature variance.

    The cap is tight only at N = 1; quadrature_variance_omega gives the
    exact value, which exceeds this expression for N >= 2.
    """
    a = abs2(alpha)
    return modes * modes * a * math.tanh(modes * a) + modes * a + 0.5


def distill_pn_as_printed(n, modes, alpha):
    """Commonly quoted weight for ending with exactly n splitting outcomes.

    binom(N, n) exp(-(N-1) a) (e^{2a} - 1) sinh(a) / cosh(N a).  It carries
    no n-dependence beyond the binomial coefficient and does not sum to one
    over n (N = 2, a = 1 gives about 2.94), so it is not a probability
    distribution; simulate.distillation_outcome_distribution is exact.
    """
    a = abs2(alpha)
    log_term = (
        math.lgamma(modes + 1) - math.lgamma(n + 1) - math.lgamma(modes - n + 1)
        - (modes - 1) * a + math.log(math.expm1(2.0 * a))
        + log_sinh(a) - log_cosh(modes * a)
    )
    return math.exp(log_term)


def mode_loss_offdiag_rewrite(modes, alpha, lam):
    """Single-exponent rewrite (1/2) exp(-2 N lam a - log(1 + exp(-2 N lam a))).

    The loss rate appears inside the log term, so this disagrees with
    mode_loss_offdiag whenever lam < 1 (the unrewritten denominator carries
    exp(-2 N a) with no lam).
    """
    x = -2.0 * modes * lam * abs2(alpha)
    return 0.5 * math.exp(x - math.log1p(math.exp(x)))


def test_abs2_matches_manual_product():
    z = 1.25 - 0.75j
    assert abs2(z) == z.real * z.real + z.imag * z.imag
    assert abs2(0.0) == 0.0
    assert abs2(-3.0) == 9.0


def test_branch_overlap_is_squared_exponential():
    for alpha in (0.3, 1.0, 2.0, 1.0 + 0.5j):
        assert branch_overlap(alpha) == pytest.approx(math.exp(-2.0 * abs2(alpha)), rel=1e-15)


def test_norms():
    alpha = 0.9
    w = branch_overlap(alpha)
    a_plus, a_minus = hcs_norms(alpha)
    assert a_plus == pytest.approx(math.sqrt(2 + 2 * w), rel=1e-15)
    assert a_minus == pytest.approx(math.sqrt(2 - 2 * w), rel=1e-15)
    assert omega_norm(3, alpha) == pytest.approx(
        1.0 / math.sqrt(2 + 2 * w ** 3), rel=1e-15
    )


# ---------------------------------------------------------------------------
# branch discrimination
# ---------------------------------------------------------------------------

def test_helstrom_success_frozen_endpoints():
    # second route: 40-digit evaluation of 1/2 + sqrt(1 - e^{-4n})/2
    assert helstrom_success_n_modes(1, 1.0) == pytest.approx(0.9953999296304112, abs=1e-14)
    assert helstrom_success_n_modes(2, 1.0) == pytest.approx(0.999916127308396, abs=1e-14)


def test_helstrom_success_limits():
    assert helstrom_success_n_modes(1, 0.0) == 0.5
    assert helstrom_success_n_modes(50, 2.0) == pytest.approx(1.0, abs=1e-15)
    values = [helstrom_success_n_modes(n, 0.6) for n in range(1, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_n_eff_integer_matches_brute_scan():
    """The log-form inversion must agree with scanning n upward."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        alpha = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        delta = 10.0 ** rng.uniform(-6, -0.5)
        if delta >= 0.5:
            continue
        n = 1
        while helstrom_success_n_modes(n, alpha) < 1.0 - delta:
            n += 1
        assert n_eff_integer(delta, alpha) == n


def test_n_eff_snaps_at_interval_endpoints():
    for modes, alpha in ((2, 1.0), (5, 0.7), (3, 1.3)):
        lo, hi = delta_validity_interval(modes, alpha)
        assert n_eff_integer(lo, alpha) == modes
        assert n_eff_integer(hi, alpha) == 1
        assert n_eff_real(hi, alpha) == pytest.approx(1.0, rel=1e-12)


def test_n_eff_survives_squared_amplitudes_near_the_float_limit():
    # 4|alpha|^2 overflows at |alpha| = 1e154; the count must stay >= 1
    assert 0.0 < n_eff_real(0.1, 1e154) < 1e-300
    assert n_eff_integer(0.1, 1e154) == 1
    # the two-step division keeps the bits of the one-step form elsewhere
    rng = np.random.default_rng(5)
    for _ in range(200):
        alpha = 10.0 ** rng.uniform(-3, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        delta = 10.0 ** rng.uniform(-12, math.log10(0.49))
        one_step = math.log(4.0 * delta * (1.0 - delta)) / (-4.0 * abs2(alpha))
        assert n_eff_real(delta, alpha) == one_step


def test_validity_interval_frozen():
    lo, hi = delta_validity_interval(2, 1.0)
    assert lo == pytest.approx(8.387269160402486e-05, rel=1e-12)
    assert hi == pytest.approx(0.004600070369588713, rel=1e-12)


def test_cat_size_C_frozen_and_endpoints():
    assert cat_size_C(0.01, 10, 0.5) == 2.5
    lo, hi = delta_validity_interval(2, 1.0)
    assert cat_size_C(lo, 2, 1.0) == pytest.approx(1.0)
    assert cat_size_C(hi, 2, 1.0) == pytest.approx(2.0)


def test_cat_size_C_rejects_delta_outside_interval():
    with pytest.raises(DomainError) as err:
        cat_size_C(0.2, 2, 1.0)
    assert "interval" in str(err.value)
    with pytest.raises(DomainError):
        cat_size_C(1e-9, 2, 1.0)


def test_cat_size_C_approx_frozen():
    # second route: -4 N a / log(4 delta (1 - delta)) at 40 digits
    assert cat_size_C_approx(0.01, 1, 2.0) == pytest.approx(4.955207769887131, rel=1e-14)


def test_cat_size_C_approx_vacuum_mixing_is_bitwise():
    """Splitting the intensity across modes must not move a single bit.

    The implementation reduces to s = N |alpha|^2 before anything else, so
    two states with bitwise-equal s give bitwise-equal sizes.
    """
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(40):
        modes = int(rng.integers(2, 8))
        alpha = complex(rng.uniform(0.2, 1.4), rng.uniform(-0.6, 0.6))
        target = modes * abs2(alpha)
        beta = math.sqrt(target)
        for _ in range(8):
            if abs2(complex(beta)) == target:
                break
            beta = math.nextafter(
                beta, math.inf if abs2(complex(beta)) < target else -math.inf
            )
        else:
            continue
        checked += 1
        assert cat_size_C_approx(0.02, modes, alpha) == cat_size_C_approx(
            0.02, 1, beta
        )
    assert checked >= 20


def test_cat_size_C_approx_rejects_vacuum():
    with pytest.raises(DomainError):
        cat_size_C_approx(0.01, 3, 0.0)


# ---------------------------------------------------------------------------
# subspace-transfer distribution
# ---------------------------------------------------------------------------

def test_marquardt_s():
    assert marquardt_s(2, 1.0) == 2.0
    assert marquardt_s(5, 0.8) == pytest.approx(5 * 0.64, rel=1e-15)


def test_marquardt_pd_is_poisson():
    s = marquardt_s(3, 0.9)
    for d in range(6):
        direct = math.exp(-s) * s ** d / math.factorial(d)
        assert marquardt_pd(d, 3, 0.9) == pytest.approx(direct, rel=1e-13)
    total = math.fsum(marquardt_pd(d, 3, 0.9) for d in range(80))
    assert total == pytest.approx(1.0, abs=1e-14)


def test_marquardt_pd_edges():
    assert marquardt_pd(0, 2, 0.0) == 1.0
    assert marquardt_pd(3, 2, 0.0) == 0.0
    with pytest.raises(DomainError):
        marquardt_pd(-1, 2, 1.0)
    # large arguments stay finite through the log-gamma route
    assert marquardt_pd(400, 10, 2.0) > 0.0


# ---------------------------------------------------------------------------
# Fisher-information closed forms
# ---------------------------------------------------------------------------

def test_bounded_ratio_is_one_at_single_mode():
    for alpha in (0.2, 0.7, 1.5, 3.0):
        assert rqfi_bound_bounded(1, alpha) == pytest.approx(1.0, abs=1e-12)


def test_bounded_ratio_frozen_and_limit():
    # second route: truncated Fock evaluation of the projector generator
    assert rqfi_bound_bounded(2, 1.5) == pytest.approx(1.9997532108480274, rel=1e-12)
    assert rqfi_bound_bounded(4, 1.5) == pytest.approx(3.9996297249034405, rel=1e-12)
    assert rqfi_bound_bounded(6, 4.0) == pytest.approx(6.0, abs=1e-9)


def _bounded_ratio_reference(modes, alpha):
    """rqfi_bound_bounded at 60 digits over the exact |alpha|^2 of the float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a = decimal.Decimal(alpha) ** 2
        w2, big_w = (-4 * a).exp(), (-2 * modes * a).exp()
        return float((modes * (1 - w2) + w2 + big_w) / (1 + big_w))


@pytest.mark.parametrize(
    "modes, alpha", [(10**6, 1e-5), (10**3, 1e-3), (1, 0.9), (2, 0.9), (4, 0.9)]
)
def test_bounded_ratio_matches_a_decimal_reference(modes, alpha):
    # at small N|alpha|^2, 1 - e^{-4a} cancels unless it is taken as -expm1(-4a)
    reference = _bounded_ratio_reference(modes, alpha)
    assert abs(rqfi_bound_bounded(modes, alpha) - reference) <= 1e-15 * reference


def test_quadrature_ratio_formula():
    for modes, alpha in ((1, 0.8), (3, 1.2)):
        a = abs2(alpha)
        s = modes * a
        expected = s * math.tanh(s) + a + 0.5 / modes
        assert rqfi_bound_quadrature(modes, alpha) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "modes,alpha,expected",
    [
        (2, 1.5, 18.997778897632248),
        (4, 1.5, 73.99999890344148),
        (2, 1.0, 8.856110320303268),
        (3, 0.8, 12.777603682324209),
    ],
)
def test_quadrature_variance_frozen(modes, alpha, expected):
    # second route: N/2 + 2 N^2 a / (1 + e^{-2Na}) at 40 digits
    assert quadrature_variance_omega(modes, alpha) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "modes,alpha,expected",
    [
        (2, 1.5, 4.5088831761470765),
        (4, 1.5, 9.000004660373657),
        (2, 1.0, 2.210658459564292),
        (3, 0.8, 2.142940072419443),
    ],
)
def test_number_variance_frozen(modes, alpha, expected):
    # second route: s tanh(s) + s^2 sech(s)^2 at 40 digits
    assert number_variance_omega(modes, alpha) == pytest.approx(expected, rel=1e-13)


def test_quadrature_cap_tight_only_at_one_mode():
    for alpha in (0.5, 1.0, 2.0):
        exact = quadrature_variance_omega(1, alpha)
        cap = quadrature_variance_omega_bound(1, alpha)
        assert exact == pytest.approx(cap, rel=1e-12)
    # the quoted cap undershoots the exact variance once modes repeat
    for modes in (2, 3, 5):
        assert quadrature_variance_omega(modes, 1.0) > quadrature_variance_omega_bound(
            modes, 1.0
        )


def test_rdm_particle_trace():
    assert rdm_particle_trace(6, 1.0) == pytest.approx(5.9999262699047735, rel=1e-13)
    assert rdm_particle_trace(1, 0.0) == 0.0


# ---------------------------------------------------------------------------
# distillation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("modes,a", [(50, 10.0), (30, 4.0), (10, 0.25), (2, 1.0)])
def test_distill_pm_sums_to_success_probability(modes, a):
    alpha = math.sqrt(a)
    total = math.fsum(distill_pm(m, modes, alpha) for m in range(1, modes + 1))
    assert total == pytest.approx(math.tanh(modes * a), abs=1e-12)


def test_distill_pm_matches_geometric_form():
    modes, alpha = 6, 0.9
    w = branch_overlap(alpha)
    for m in range(1, modes + 1):
        expected = (1 - w) * w ** (m - 1) / (1 + w ** modes)
        assert distill_pm(m, modes, alpha) == pytest.approx(expected, rel=1e-12)


def test_distill_pm_domain():
    with pytest.raises(DomainError):
        distill_pm(0, 4, 1.0)
    with pytest.raises(DomainError):
        distill_pm(5, 4, 1.0)
    assert distill_pm(1, 4, 0.0) == 0.0


def test_distill_expected_n_frozen():
    # second route: exact sequential-outcome dynamic program
    assert distill_expected_n(5, 0.8) == pytest.approx(3.60382553520476, rel=1e-13)
    assert distill_expected_n(7, 4.0) == pytest.approx(7.0, abs=1e-9)


def test_distill_printed_weights_do_not_normalize():
    """The quoted per-count weights are kept verbatim and fail to sum to one."""
    total = math.fsum(distill_pn_as_printed(n, 2, 1.0) for n in range(3))
    assert total == pytest.approx(2.93679108466368, rel=1e-12)
    assert total > 1.5


# ---------------------------------------------------------------------------
# mode loss
# ---------------------------------------------------------------------------

def test_mode_loss_frozen_values():
    # second route: 40-digit evaluation of both expressions
    assert mode_loss_offdiag(6, 1.0, 0.25) == pytest.approx(0.02489338123371148, rel=1e-13)
    assert mode_loss_offdiag_mean(6, 1.0, 0.25) == pytest.approx(
        0.11596083306644914, rel=1e-13
    )


def test_mode_loss_endpoints_agree():
    modes, alpha = 5, 0.9
    big_w = branch_overlap(alpha) ** modes
    for fn in (mode_loss_offdiag, mode_loss_offdiag_mean):
        assert fn(modes, alpha, 0.0) == pytest.approx(1.0 / (2 + 2 * big_w), rel=1e-14)
        assert fn(modes, alpha, 1.0) == pytest.approx(big_w / (2 + 2 * big_w), rel=1e-14)


def test_mode_loss_mean_dominates_geometric():
    """Averaging the exponential beats exponentiating the average."""
    for lam in (0.1, 0.4, 0.9):
        assert mode_loss_offdiag_mean(4, 1.1, lam) > mode_loss_offdiag(4, 1.1, lam)


def test_mode_loss_rewrite_disagrees_below_full_loss():
    """The single-exponent rewrite is kept verbatim and only matches at lam = 1."""
    assert mode_loss_offdiag_rewrite(4, 1.0, 1.0) == pytest.approx(
        mode_loss_offdiag(4, 1.0, 1.0), rel=1e-12
    )
    assert abs(
        mode_loss_offdiag_rewrite(4, 1.0, 0.5) - mode_loss_offdiag(4, 1.0, 0.5)
    ) > 1e-4


def test_mode_loss_lambda_domain():
    with pytest.raises(DomainError):
        mode_loss_offdiag(3, 1.0, -0.1)
    with pytest.raises(DomainError):
        mode_loss_offdiag_mean(3, 1.0, 1.5)


def test_ghz_reference():
    assert ghz_mode_loss_offdiag(12, 0.25) == pytest.approx(0.5 * 0.75 ** 12, rel=1e-14)
    assert equivalent_ghz_size(6, 1.0) == 12.0
    assert equivalent_ghz_size(2, 1.5) == pytest.approx(9.0, rel=1e-15)


# ---------------------------------------------------------------------------
# specs and parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", [CatFamily.ODD_CAT, CatFamily.HCS])
def test_degenerate_families_reject_vacuum(family):
    with pytest.raises(DomainError):
        CatStateSpec(family=family, modes=2, alpha=0.0)


@pytest.mark.parametrize("alpha", [0.0, 5e-324, 1e-200, 1e-9, 1e-9j])
def test_hcs_norms_refuse_where_the_odd_branch_vanishes(alpha):
    # exp(-2|alpha|^2) rounds to 1 below |alpha|^2 ~ 1e-16, so A_minus is 0
    with pytest.raises(DomainError, match="odd branch"):
        hcs_norms(alpha)
    with pytest.raises(DomainError, match="odd branch"):
        CatStateSpec(family=CatFamily.HCS, modes=2, alpha=alpha)


def test_hcs_norms_just_above_the_degenerate_range():
    a_plus, a_minus = hcs_norms(1e-7)
    assert a_plus == pytest.approx(2.0, rel=1e-13)
    # A_minus = 2|alpha| sqrt(1 - |alpha|^2 + ...) = 2e-7 (1 - 5e-15); the
    # cancelled sqrt(2 - 2w) gives 1.9992005623875e-07, 4e-4 too small
    assert a_minus == math.sqrt(-2.0 * math.expm1(-2.0 * abs2(1e-7)))
    assert a_minus == pytest.approx(2e-7 * (1.0 - 5e-15), rel=1e-15)


def test_even_cat_at_vacuum_is_allowed():
    spec = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=0.0)
    assert spec.alpha == 0.0


def test_measure_params_validation():
    MeasureParams(delta=0.01)
    with pytest.raises(DomainError):
        MeasureParams(delta=0.5)
    with pytest.raises(DomainError):
        MeasureParams(delta=0.0)
    with pytest.raises(DomainError):
        MeasureParams(lam=-0.2)


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2])
def test_closed_forms_depend_only_on_intensity(theta):
    alpha = 1.1 + 0.4j
    rotated = alpha * complex(math.cos(theta), math.sin(theta))
    assert branch_overlap(rotated) == pytest.approx(branch_overlap(alpha), rel=1e-12)
    assert helstrom_success_n_modes(3, rotated) == pytest.approx(
        helstrom_success_n_modes(3, alpha), rel=1e-12
    )
    assert cat_size_C_approx(0.01, 2, rotated) == pytest.approx(
        cat_size_C_approx(0.01, 2, alpha), rel=1e-12
    )
    assert quadrature_variance_omega(2, rotated) == pytest.approx(
        quadrature_variance_omega(2, alpha), rel=1e-12
    )
    assert distill_expected_n(4, rotated) == pytest.approx(
        distill_expected_n(4, alpha), rel=1e-12
    )


def test_check_row_statuses():
    assert check_row("gap", 0.25, 0.0, 0.25)["status"] == "pass"
    assert check_row("gap", -0.5, 0.0, 0.25)["status"] == "fail"
    assert check_row("gap", float("nan"), 0.0, 0.25)["status"] == "fail"
    assert check_row("oracle", "over budget", None, None) == {
        "name": "oracle", "status": "skipped", "observed": "over budget",
        "expected": None, "tolerance": None,
    }
