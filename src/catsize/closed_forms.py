"""Closed-form sizes and probabilities for coherent-state superpositions.

Every function here is a pure function of the mode count N, the per-mode
amplitude alpha (complex accepted, only |alpha|^2 enters) and the measure
parameters.  Expressions containing exp(+-N|alpha|^2) are evaluated in log
domain so that N|alpha|^2 up to several hundred stays exact to double
precision instead of overflowing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError

LN2 = math.log(2.0)


class CatFamily(enum.Enum):
    """State families the package knows how to build and measure."""

    OMEGA = "omega"                      # (|a>^N + |-a>^N) / sqrt(2+2e^{-2N|a|^2})
    HCS = "hcs"                          # even-kitten product + odd-kitten product
    EVEN_CAT = "even-cat"                # (|a> + |-a>) / A_plus
    ODD_CAT = "odd-cat"                  # (|a> - |-a>) / A_minus
    PRODUCT_COHERENT = "product-coherent"


class GeneratorKind(enum.Enum):
    """Families of local generators used in the Fisher-information measure."""

    BOUNDED_LOCAL = "bounded-local"
    QUADRATURE = "quadrature"
    NUMBER = "number"
    SPIN_SANDWICH = "spin-sandwich"


_SINGLE_MODE_FAMILIES = (CatFamily.EVEN_CAT, CatFamily.ODD_CAT)


@dataclass(frozen=True)
class CatStateSpec:
    """Symbolic description of a state: family, mode count, per-mode amplitude."""

    family: CatFamily
    modes: int
    alpha: complex

    def __post_init__(self):
        if self.modes < 1:
            raise DomainError(f"modes must be >= 1, got {self.modes}")
        if self.family in (CatFamily.ODD_CAT, CatFamily.HCS):
            hcs_norms(self.alpha)  # refuses where the odd branch degenerates
        if self.family in _SINGLE_MODE_FAMILIES and self.modes != 1:
            raise DomainError(f"{self.family.value} is a single-mode family")


@dataclass(frozen=True)
class MeasureParams:
    """Parameters a measure may need: precision delta, loss rate lam and
    generator family."""

    delta: float | None = None
    lam: float | None = None
    family: GeneratorKind | tuple[GeneratorKind, ...] | None = None

    def __post_init__(self):
        if self.delta is not None and not 0.0 < self.delta < 0.5:
            raise DomainError(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.lam is not None and not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lambda must lie in [0, 1], got {self.lam}")


def abs2(z) -> float:
    """|z|^2 for real or complex z."""
    z = complex(z)
    return z.real * z.real + z.imag * z.imag


def log_sinh(x: float) -> float:
    """log(sinh(x)) for x > 0 without overflow."""
    if x <= 0.0:
        raise DomainError(f"log_sinh needs x > 0, got {x}")
    return x + math.log1p(-math.exp(-2.0 * x)) - LN2


def log_cosh(x: float) -> float:
    """log(cosh(x)) for x >= 0 without overflow."""
    if x < 0.0:
        raise DomainError(f"log_cosh needs x >= 0, got {x}")
    return x + math.log1p(math.exp(-2.0 * x)) - LN2


def branch_overlap(alpha) -> float:
    """w = <alpha|-alpha> = exp(-2|alpha|^2), the single-mode branch overlap."""
    return math.exp(-2.0 * abs2(alpha))


def omega_norm(modes: int, alpha) -> float:
    """Normalization 1/sqrt(2 + 2 exp(-2N|alpha|^2)) of the two-branch state.

    The exponential underflows gracefully to the orthogonal-branch value
    1/sqrt(2) for large N|alpha|^2, so no log-domain branch is needed.
    """
    return 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * modes * abs2(alpha)))


def hcs_norms(alpha) -> tuple[float, float]:
    """Kitten normalizations (A_plus, A_minus) = sqrt(2 +- 2 exp(-2|alpha|^2)).

    Refuses, as the one check every odd-branch route goes through, where
    A_minus is 0: at alpha = 0, and wherever w = exp(-2|alpha|^2) rounds to 1
    (|alpha|^2 below about 1e-16), since |alpha> and |-alpha> are then the
    same vector and the odd branch |alpha> - |-alpha> vanishes.
    """
    w = branch_overlap(alpha)
    a_minus = math.sqrt(2.0 - 2.0 * w)
    if a_minus == 0.0:
        raise DomainError(
            f"the odd branch |alpha> - |-alpha> degenerates at |alpha| = "
            f"{abs(complex(alpha)):g}: its norm sqrt(2 - 2 exp(-2|alpha|^2)) is 0"
        )
    return math.sqrt(2.0 + 2.0 * w), a_minus


# ---------------------------------------------------------------------------
# branch distinguishability
# ---------------------------------------------------------------------------

def helstrom_success_n_modes(n: float, alpha) -> float:
    """Best success probability for telling the branch products apart with n modes.

    Equals 1/2 + (1/2) sqrt(1 - exp(-4 n |alpha|^2)): the two branches restricted
    to n modes are pure states with overlap exp(-2n|alpha|^2), and for a pair of
    pure states the trace norm of the density difference is
    2 sqrt(1 - |overlap|^2).  Real n >= 0 is allowed.
    """
    if n < 0:
        raise DomainError(f"mode count must be >= 0, got {n}")
    return 0.5 + 0.5 * math.sqrt(-math.expm1(-4.0 * n * abs2(alpha)))


def n_eff_real(delta: float, alpha) -> float:
    """Real-valued number of modes at which the success probability hits 1 - delta.

    Dividing by -4 and by |alpha|^2 in turn gives the same bits as dividing
    by -4|alpha|^2, which would overflow to infinity (and the count to 0)
    for a finite |alpha|^2 above a quarter of the float range.
    """
    _check_delta(delta)
    a = abs2(alpha)
    if a == 0.0:
        raise DomainError("branch distinguishability is undefined at alpha = 0")
    return math.log(4.0 * delta * (1.0 - delta)) / -4.0 / a


def n_eff_integer(delta: float, alpha) -> int:
    """Minimal integer mode count reaching success probability 1 - delta.

    This is the ceiling of n_eff_real.  Values within 1e-9 of an integer snap
    to that integer, so interval endpoints computed in floating point land on
    the intended count instead of being pushed up by a rounding ulp.
    """
    x = n_eff_real(delta, alpha)
    r = round(x)
    if r >= 1 and abs(x - r) <= 1e-9 * max(1.0, x):
        return int(r)
    return math.ceil(x)


def delta_validity_interval(modes: int, alpha) -> tuple[float, float]:
    """Closed interval of delta for which 1 <= n_eff_integer <= N.

    Endpoints are 1/2 - (1/2) sqrt(1 - exp(-4N|alpha|^2)) (lower, from n = N)
    and the same expression with N = 1 (upper, from n = 1), computed in the
    cancellation-free form x / (2 (1 + sqrt(1-x))).
    """
    a = abs2(alpha)
    if a == 0.0:
        raise DomainError("delta interval collapses at alpha = 0")

    def half_minus(x):
        return x / (2.0 * (1.0 + math.sqrt(1.0 - x)))

    return half_minus(math.exp(-4.0 * modes * a)), half_minus(math.exp(-4.0 * a))


def cat_size_C(delta: float, modes: int, alpha) -> float:
    """Integer-based cat size N / n_eff_integer.

    Requires delta inside delta_validity_interval(modes, alpha) so that the
    effective mode count stays between 1 and N.
    """
    lo, hi = delta_validity_interval(modes, alpha)
    if not lo <= delta <= hi:
        raise DomainError(
            f"delta = {delta} outside the validity interval [{lo}, {hi}] "
            f"for N = {modes}, |alpha|^2 = {abs2(alpha)}"
        )
    return modes / n_eff_integer(delta, alpha)


def cat_size_C_approx(delta: float, modes: int, alpha) -> float:
    """Real-valued cat size -4 N |alpha|^2 / log(4 delta - 4 delta^2).

    Evaluated from the product N |alpha|^2 directly, so states sharing that
    product (an N-mode state and the single-mode state it mixes down to over
    vacuum modes) get bitwise-equal sizes.  Valid for any delta in (0, 1/2).
    """
    _check_delta(delta)
    s = modes * abs2(alpha)
    if s == 0.0:
        raise DomainError("branch distinguishability is undefined at alpha = 0")
    return -4.0 * s / math.log(4.0 * delta * (1.0 - delta))


def _check_delta(delta: float):
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")


# ---------------------------------------------------------------------------
# photon-transfer (recursive subspace) size
# ---------------------------------------------------------------------------

def marquardt_s(modes: int, alpha) -> float:
    """Expected subspace label s = N |alpha|^2 of the recursive-subspace measure."""
    return modes * abs2(alpha)


def marquardt_pd(d: int, modes: int, alpha) -> float:
    """Poisson weight exp(-s) s^d / d! with s = N |alpha|^2.

    This is the total-photon-number distribution of the product state with
    per-mode amplitude alpha (the multinomial expansion of the product of
    Poisson factors collapses to a single Poisson law in the total count).
    Evaluated through lgamma so large d and s do not overflow.
    """
    if d < 0 or d != int(d):
        raise DomainError(f"d must be a nonnegative integer, got {d}")
    d = int(d)
    s = marquardt_s(modes, alpha)
    if s == 0.0:
        return 1.0 if d == 0 else 0.0
    return math.exp(d * math.log(s) - s - math.lgamma(d + 1))


# ---------------------------------------------------------------------------
# relative Fisher-information bounds
# ---------------------------------------------------------------------------

def rqfi_bound_bounded(modes: int, alpha) -> float:
    """Size ratio achieved by the norm-1 branch-projector generator.

    N (1 - e^{-4a}) / (1 + e^{-2Na}) + (e^{-2Na} + e^{-4a}) / (1 + e^{-2Na})
    with a = |alpha|^2.  Equals 1 at N = 1 for every alpha and tends to N as
    the branches become orthogonal.
    """
    a = abs2(alpha)
    w2 = math.exp(-4.0 * a)
    big_w = math.exp(-2.0 * modes * a)
    return (modes * (1.0 - w2) + w2 + big_w) / (1.0 + big_w)


def rqfi_bound_quadrature(modes: int, alpha) -> float:
    """Size ratio N a tanh(N a) + a + 1/(2N) from the quadrature generator."""
    a = abs2(alpha)
    return modes * a * math.tanh(modes * a) + a + 0.5 / modes


def quadrature_variance_omega(modes: int, alpha) -> float:
    """Exact variance of the optimally phased total quadrature in the superposition.

    Var(sum_i x_i at phase arg alpha) = N/2 + 2 N^2 a / (1 + e^{-2Na}),
    equivalently N^2 a (1 + tanh(N a)) + N/2.
    """
    a = abs2(alpha)
    return 0.5 * modes + 2.0 * modes * modes * a / (1.0 + math.exp(-2.0 * modes * a))


def number_variance_omega(modes: int, alpha) -> float:
    """Exact variance of the total photon number in the superposition.

    Var(sum_i n_i) = N a tanh(N a) + (N a)^2 sech^2(N a).
    """
    s = modes * abs2(alpha)
    sech = 1.0 / math.cosh(s) if s < 350.0 else 0.0
    return s * math.tanh(s) + s * s * sech * sech


def rdm_particle_trace(modes: int, alpha) -> float:
    """Trace N a tanh(N a) of the creation/annihilation-defined 1-RDM.

    Equal to the expected total photon number of the superposition; the
    mode-defined 1-RDM has unit trace instead.
    """
    s = modes * abs2(alpha)
    return s * math.tanh(s)


# ---------------------------------------------------------------------------
# distillation
# ---------------------------------------------------------------------------

def distill_pm(m: int, modes: int, alpha) -> float:
    """Probability that the first branch-splitting outcome lands on mode m.

    p_m = exp((N - 2m + 1) a) sinh(a) / cosh(N a) with a = |alpha|^2,
    evaluated in log domain.  The remaining probability 1 - tanh(N a) is the
    all-identical-outcome event with no splitting at all.
    """
    if not 1 <= m <= modes:
        raise DomainError(f"m must lie in [1, {modes}], got {m}")
    a = abs2(alpha)
    if a == 0.0:
        return 0.0
    return math.exp((modes - 2 * m + 1) * a + log_sinh(a) - log_cosh(modes * a))


def distill_expected_n(modes: int, alpha) -> float:
    """Expected count of branch-splitting outcomes, N (1 - e^{-2a}) / (1 + e^{-2Na})."""
    a = abs2(alpha)
    return modes * (-math.expm1(-2.0 * a)) / (1.0 + math.exp(-2.0 * modes * a))


# ---------------------------------------------------------------------------
# probabilistic mode loss
# ---------------------------------------------------------------------------

def mode_loss_offdiag(modes: int, alpha, lam: float) -> float:
    """Off-diagonal amplitude exp(-2 N lam a) / (2 + 2 exp(-2 N a)) after mode loss.

    This replaces the random lost-mode count by its mean N lam inside the
    exponent, which makes it the geometric mean (the exponential of the mean
    log) of the per-trial amplitude.  The arithmetic expectation is
    mode_loss_offdiag_mean and is strictly larger for 0 < lam < 1.
    """
    _check_lam(lam)
    a = abs2(alpha)
    return math.exp(-2.0 * modes * lam * a) / (2.0 + 2.0 * math.exp(-2.0 * modes * a))


def mode_loss_offdiag_mean(modes: int, alpha, lam: float) -> float:
    """Exact expected off-diagonal amplitude ((1-lam) + lam e^{-2a})^N / (2 + 2 e^{-2Na}).

    Averages e^{-2ka} over the binomial count k of lost modes.
    """
    _check_lam(lam)
    a = abs2(alpha)
    base = (1.0 - lam) + lam * math.exp(-2.0 * a)
    return base ** modes / (2.0 + 2.0 * math.exp(-2.0 * modes * a))


def ghz_mode_loss_offdiag(modes: int, lam: float) -> float:
    """Reference value (1/2)(1 - lam)^N: any lost mode kills the coherence outright."""
    _check_lam(lam)
    return 0.5 * (1.0 - lam) ** modes


def equivalent_ghz_size(modes: int, alpha) -> float:
    """Mode count M = 2 N |alpha|^2 of the reference state with matching loss decay."""
    return 2.0 * modes * abs2(alpha)


def _check_lam(lam: float):
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
