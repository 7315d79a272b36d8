"""The cat-size measures, uniformly packaged.

Each measure returns a MeasureResult tagging the value with its parameters
and provenance.  Variances of mode-summed generators over two-branch
superpositions are evaluated exactly through the Gram reduction: a state
c1 |u>^N + c2 |v>^N needs only the 2x2 tables <x|A|y>, <x|A^2|y> and the
overlap g = <u|v>, with the mode count entering through powers of g.  The
truncated Fock oracles re-derive the same numbers from truncated
single-mode vectors at every mode count: the branch-dist oracle from the
Gram matrix of |+-alpha>, whose n-th power is that of the n-mode branches,
so it checks n_eff itself; the rqfi oracle from the branch tables of the
achieving generator; the Marquardt check from one mode's photon pmf,
convolved N times.  None builds a joint vector or a multi-mode operator.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .closed_forms import (
    CatFamily,
    CatStateSpec,
    GeneratorKind,
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
    marquardt_pd,
    marquardt_s,
    mode_loss_offdiag,
    mode_loss_offdiag_mean,
    n_eff_integer,
    n_eff_real,
    rdm_particle_trace,
)
from .errors import DomainError, ResolutionError
from .fock import (
    MAX_JOINT_DIM,
    check_size,
    coherent_vector,
    default_cutoff,
    family_branches,
    kitten_vectors,
    mode_ops,
)
from .phase_space import (
    default_feature_window,
    extract_features,
    grid_line,
    plane_axes,
    widest_separation,
    wigner_grid,
)


class MeasureKind(enum.Enum):
    BRANCH_DIST_INT = "branch-dist-int"
    BRANCH_DIST_REAL = "branch-dist-real"
    RQFI = "rqfi"
    MARQUARDT = "marquardt"
    DISTILLATION = "distillation"
    MODE_LOSS = "mode-loss"
    WIGNER_EMPIRICAL = "wigner-empirical"


class Method(enum.Enum):
    CLOSED_FORM = "closed-form"
    ORACLE = "oracle"
    HYBRID = "hybrid"
    LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class MeasureResult:
    measure: MeasureKind
    value: float
    params: MeasureParams
    state: CatStateSpec
    method: Method
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.value >= 0.0:
            raise DomainError(f"a size must be nonnegative, got {self.value}")

    @property
    def checks(self) -> list[dict]:
        """The check rows of this result's numeric route, each at the one
        named tolerance of its identity; a property, so ``asdict`` skips it."""
        rows = _ROUTE_ROWS.get(self.measure)
        return rows(self.diagnostics) if rows else []


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeGenerator:
    """One per-mode generator with its exact 2x2 bracket tables.

    The a_* entries are <x|A|y> and the a2_* entries <x|A^2|y> over the
    branch pair; var_u, var_v are the single-mode variances on each branch.
    ``builder`` produces the truncated matrix for the Fock oracle.
    """

    label: str
    kind: GeneratorKind
    a_uu: complex
    a_uv: complex
    a_vv: complex
    a2_uu: complex
    a2_uv: complex
    a2_vv: complex
    var_u: float
    var_v: float
    builder: Callable[[int], np.ndarray]


def _two_branch_variance(
    gen: ModeGenerator, modes: int, g: complex, c1: complex, c2: complex
) -> float:
    """Variance of the mode sum of ``gen`` over c1 |u>^N + c2 |v>^N, where
    g = <u|v> is the branch overlap."""
    n = modes
    g = complex(g)
    gram = np.array([[1.0 + 0j, g], [g.conjugate(), 1.0 + 0j]])
    first = np.array(
        [[gen.a_uu, gen.a_uv], [complex(gen.a_uv).conjugate(), gen.a_vv]]
    )
    second = np.array(
        [[gen.a2_uu, gen.a2_uv], [complex(gen.a2_uv).conjugate(), gen.a2_vv]]
    )
    coeff = np.array([c1, c2])
    norm_sq = 0.0 + 0j
    e1 = 0.0 + 0j
    e2 = 0.0 + 0j
    # overflowing bracket tables give a NaN variance, which the caller refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for x in range(2):
            for y in range(2):
                weight = coeff[x].conjugate() * coeff[y]
                gxy = gram[x, y]
                norm_sq += weight * gxy ** n
                e1 += weight * n * first[x, y] * gxy ** (n - 1)
                term = n * second[x, y] * gxy ** (n - 1)
                if n >= 2:
                    term += n * (n - 1) * first[x, y] ** 2 * gxy ** (n - 2)
                e2 += weight * term
        mean = e1 / norm_sq
        return float((e2 / norm_sq).real - (mean.real ** 2 - mean.imag ** 2))


# ---------------------------------------------------------------------------
# bracket tables and oracle builders
# ---------------------------------------------------------------------------

def _pseudo_sigma_z_builder(alpha):
    """|xi_+><xi_+| - |xi_-><xi_-| with xi_+- = (even +- odd) / sqrt(2)."""

    def build(cutoff: int) -> np.ndarray:
        even, odd = kitten_vectors(alpha, cutoff)
        xi_p = (even + odd) / math.sqrt(2.0)
        xi_m = (even - odd) / math.sqrt(2.0)
        return np.outer(xi_p, xi_p.conj()) - np.outer(xi_m, xi_m.conj())

    return build


def _quadrature_builder(phi):
    """x(phi) = (a e^{-i phi} + a^dag e^{i phi}) / sqrt(2)."""

    def build(cutoff: int) -> np.ndarray:
        a = mode_ops(cutoff)
        return (a * np.exp(-1j * phi) + a.conj().T * np.exp(1j * phi)) / math.sqrt(2.0)

    return build


def _number_builder(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff + 1, dtype=float)).astype(complex)


def _kitten_builder(alpha, axis: str):
    """|e><e| - |o><o| (axis "z") or |e><o| + |o><e| (axis "x") over the
    truncated even and odd kittens."""

    def build(cutoff: int) -> np.ndarray:
        e, o = kitten_vectors(alpha, cutoff)
        if axis == "z":
            return np.outer(e, e.conj()) - np.outer(o, o.conj())
        return np.outer(e, o.conj()) + np.outer(o, e.conj())

    return build


def _sandwich_builder(alpha, axis: str):
    """The kitten core of ``axis`` sandwiched as a^dag core a."""
    core = _kitten_builder(alpha, axis)

    def build(cutoff: int) -> np.ndarray:
        a = mode_ops(cutoff)
        return a.conj().T @ core(cutoff) @ a

    return build


def _principal_quadratures(alpha) -> list[tuple[str, float]]:
    """Labels and phases of x(phi) along alpha's axis and at right angles to it.

    The variance of the mode-summed x(phi) is a sinusoid in 2 phi, and
    reflection about alpha's axis maps every rqfi state to itself, so the
    variance peaks at one of these two phases.
    """
    base = cmath.phase(alpha) if alpha != 0 else 0.0
    return [
        (f"quadrature(phi={label})", base + k * math.pi / 2.0)
        for k, label in enumerate(("base", "base+pi/2"))
    ]


def _coherent_pair_generators(alpha) -> list[ModeGenerator]:
    """Every generator's brackets over u = |alpha>, v = |-alpha>."""
    a = abs2(alpha)
    w = branch_overlap(alpha)
    s = math.sqrt(1.0 - w * w)
    quadratures = []
    for label, phi in _principal_quadratures(alpha):
        rot = alpha * cmath.exp(-1j * phi)
        mean_u = math.sqrt(2.0) * rot.real
        sq = 2.0 * (rot * rot).real
        quadratures.append(
            ModeGenerator(
                label=label,
                kind=GeneratorKind.QUADRATURE,
                a_uu=mean_u,
                a_uv=-1j * math.sqrt(2.0) * w * rot.imag,
                a_vv=-mean_u,
                a2_uu=(sq + 2.0 * a + 1.0) / 2.0,
                a2_uv=w * (sq - 2.0 * a + 1.0) / 2.0,
                a2_vv=(sq + 2.0 * a + 1.0) / 2.0,
                var_u=0.5,
                var_v=0.5,
                builder=_quadrature_builder(phi),
            )
        )
    return [
        ModeGenerator(
            label="pseudo-sigma-z",
            kind=GeneratorKind.BOUNDED_LOCAL,
            a_uu=s,
            a_uv=0.0,
            a_vv=-s,
            a2_uu=1.0,
            a2_uv=w,
            a2_vv=1.0,
            var_u=1.0 - s * s,
            var_v=1.0 - s * s,
            builder=_pseudo_sigma_z_builder(alpha),
        ),
        *quadratures,
        ModeGenerator(
            label="number",
            kind=GeneratorKind.NUMBER,
            a_uu=a,
            a_uv=-a * w,
            a_vv=a,
            a2_uu=a * a + a,
            a2_uv=(a * a - a) * w,
            a2_vv=a * a + a,
            var_u=a,
            var_v=a,
            builder=_number_builder,
        ),
    ]


def _kitten_pair_generators(alpha) -> list[ModeGenerator]:
    """Every generator's brackets over u = even kitten, v = odd kitten
    (an orthogonal pair)."""
    a = abs2(alpha)
    t_sq = math.tanh(a)
    n_u = a * t_sq
    n_v = a / t_sq
    quadratures = []
    for label, phi in _principal_quadratures(alpha):
        rot = alpha * cmath.exp(-1j * phi)
        sq = 2.0 * (rot * rot).real
        x2_uu = (sq + 2.0 * n_u + 1.0) / 2.0
        x2_vv = (sq + 2.0 * n_v + 1.0) / 2.0
        root = math.sqrt(t_sq)
        cross = (
            (alpha / root) * cmath.exp(-1j * phi)
            + alpha.conjugate() * root * cmath.exp(1j * phi)
        ) / math.sqrt(2.0)
        quadratures.append(
            ModeGenerator(
                label=label,
                kind=GeneratorKind.QUADRATURE,
                a_uu=0.0,
                a_uv=cross,
                a_vv=0.0,
                a2_uu=x2_uu,
                a2_uv=0.0,
                a2_vv=x2_vv,
                var_u=x2_uu,
                var_v=x2_vv,
                builder=_quadrature_builder(phi),
            )
        )
    return [
        ModeGenerator(
            label="kitten-sigma-z",
            kind=GeneratorKind.BOUNDED_LOCAL,
            a_uu=1.0,
            a_uv=0.0,
            a_vv=-1.0,
            a2_uu=1.0,
            a2_uv=0.0,
            a2_vv=1.0,
            var_u=0.0,
            var_v=0.0,
            builder=_kitten_builder(alpha, "z"),
        ),
        *quadratures,
        ModeGenerator(
            label="number",
            kind=GeneratorKind.NUMBER,
            a_uu=n_u,
            a_uv=0.0,
            a_vv=n_v,
            a2_uu=a * a + n_u,
            a2_uv=0.0,
            a2_vv=a * a + n_v,
            var_u=a * a + n_u - n_u * n_u,
            var_v=a * a + n_v - n_v * n_v,
            builder=_number_builder,
        ),
        ModeGenerator(
            label="sandwich-z",
            kind=GeneratorKind.SPIN_SANDWICH,
            a_uu=-n_u,
            a_uv=0.0,
            a_vv=n_v,
            a2_uu=a * a + n_u,
            a2_uv=0.0,
            a2_vv=a * a + n_v,
            var_u=a * a + n_u - n_u * n_u,
            var_v=a * a + n_v - n_v * n_v,
            builder=_sandwich_builder(alpha, "z"),
        ),
        ModeGenerator(
            label="sandwich-x",
            kind=GeneratorKind.SPIN_SANDWICH,
            a_uu=0.0,
            a_uv=a,
            a_vv=0.0,
            a2_uu=n_u * (n_u + 1.0),
            a2_uv=0.0,
            a2_vv=n_v * (n_v + 1.0),
            var_u=n_u * (n_u + 1.0),
            var_v=n_v * (n_v + 1.0),
            builder=_sandwich_builder(alpha, "x"),
        ),
    ]


_RQFI_FAMILIES = (CatFamily.OMEGA, CatFamily.HCS, CatFamily.EVEN_CAT, CatFamily.ODD_CAT)


def _superposition_coeffs(state: CatStateSpec) -> tuple[complex, complex]:
    if state.family is CatFamily.ODD_CAT:
        return 1.0, -1.0
    return 1.0, 1.0


def _branch_pair(state: CatStateSpec) -> tuple[float, list[ModeGenerator]]:
    """The branch overlap g = <u|v> of the state's pair and every generator
    over that pair: the kitten pair for the hidden superposition, the
    coherent pair |+-alpha> otherwise."""
    alpha = complex(state.alpha)
    if state.family is CatFamily.HCS:
        return 0.0, _kitten_pair_generators(alpha)
    return branch_overlap(alpha), _coherent_pair_generators(alpha)


def _generator_kinds(label: str) -> tuple[GeneratorKind, ...]:
    """Parse 'quadrature', 'quadrature+number', ... into kinds in GeneratorKind order.

    The sandwich generators are normalized differently from the three capped
    kinds (their single-branch information grows with |alpha|), so they do
    not combine with the others in one maximization.
    """
    kinds = set()
    for part in label.split("+"):
        part = part.strip()
        try:
            kinds.add(GeneratorKind(part))
        except ValueError:
            allowed = ", ".join(k.value for k in GeneratorKind)
            raise DomainError(
                f"unknown generator kind {part!r}; expected one of {allowed}"
            ) from None
    if GeneratorKind.SPIN_SANDWICH in kinds and len(kinds) > 1:
        raise DomainError(
            "sandwich generators use a branch-variance denominator and "
            "cannot be mixed with the capped families"
        )
    return tuple(k for k in GeneratorKind if k in kinds)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def branch_dist_size(state: CatStateSpec, delta: float) -> MeasureResult:
    """Integer-mode distinguishability size N / n_eff.

    Delegates the interval enforcement and the ceiling to the closed forms;
    cross-checks the optimal success probability at n_eff modes against the
    trace-norm oracle (``_trace_norm_check``), which takes the truncated
    branch amplitudes of one mode and the Helstrom step on their n-mode
    Gram matrix.
    """
    _require_family(state, (CatFamily.OMEGA,))
    value = cat_size_C(delta, state.modes, state.alpha)
    n_int = n_eff_integer(delta, state.alpha)
    lo, hi = delta_validity_interval(state.modes, state.alpha)
    diagnostics = {
        "n_eff_real": n_eff_real(delta, state.alpha),
        "n_eff_integer": n_int,
        "validity_interval": (lo, hi),
        "success_at_n_eff": helstrom_success_n_modes(n_int, state.alpha),
        "oracle": _trace_norm_check(state.alpha, n_int, default_cutoff(state.alpha)),
    }
    return MeasureResult(
        measure=MeasureKind.BRANCH_DIST_INT,
        value=value,
        params=MeasureParams(delta=delta),
        state=state,
        method=Method.HYBRID,
        diagnostics=diagnostics,
    )


def _trace_norm_check(alpha, n_check: int, cutoff: int) -> dict:
    """Helstrom success 1/2 + ||rho_+ - rho_-||_1 / 4 of the n_check-mode
    branch pair on the truncated basis, against the closed form.

    The Gram matrix of the n-mode branches psi_+- is the elementwise n-th
    power of the single-mode one, so the normalized pair has the overlap
    g = g_1^n, with g_1 the overlap of the normalized truncated |+-alpha>.
    Their amplitudes differ in sign only, so g_1 is real and
    1 - g_1 = ||u_+ - u_-||^2 / 2 comes from the odd amplitudes alone;
    g = exp(n log1p(-(1 - g_1))) then keeps full relative precision at the
    n ~ 1 / |alpha|^2 of small amplitudes.

    rho_+ - rho_- has rank 2 with range span{psi_+, psi_-}, so its nonzero
    eigenvalues are those of its compression onto an orthonormal basis of
    that span.  In the basis where the Gram factor is
    r = [[1, g], [0, sqrt(1 - g^2)]] the branches are the columns of r, and
    the compression is r_0 r_0^T - r_1 r_1^T; no n-mode vector is built.
    """
    plus = coherent_vector(alpha, cutoff)
    minus = coherent_vector(-alpha, cutoff)
    gap = (plus - minus) / np.linalg.norm(plus)
    one_minus_g1 = 0.5 * float(np.vdot(gap, gap).real)
    # g_1 rounds to 0 or below only where g_1^n underflows anyway
    g = math.exp(n_check * math.log1p(-one_minus_g1)) if one_minus_g1 < 1.0 else 0.0
    r = np.array([[1.0, g], [0.0, math.sqrt(max(0.0, 1.0 - g * g))]])
    compression = np.outer(r[:, 0], r[:, 0]) - np.outer(r[:, 1], r[:, 1])
    numeric = 0.5 + 0.25 * float(np.sum(np.abs(np.linalg.eigvalsh(compression))))
    closed = helstrom_success_n_modes(n_check, alpha)
    return {
        "modes_checked": n_check,
        "cutoff": cutoff,
        "closed": closed,
        "numeric": numeric,
        "difference": abs(closed - numeric),
    }


TRACE_NORM_TOL = 1e-10  # Helstrom success, closed form vs trace norm


def _branch_dist_rows(diagnostics: dict) -> list[dict]:
    oracle = diagnostics["oracle"]
    name = "success-closed-vs-trace-norm"
    return [check_row(name, oracle["numeric"], oracle["closed"], TRACE_NORM_TOL)]


def branch_dist_size_real(state: CatStateSpec, delta: float) -> MeasureResult:
    """Noninteger variant: the closed approximation with no interval clamp."""
    _require_family(state, (CatFamily.OMEGA, CatFamily.EVEN_CAT))
    value = cat_size_C_approx(delta, state.modes, state.alpha)
    diagnostics = {}
    if state.alpha != 0:
        n_real = n_eff_real(delta, state.alpha)
        diagnostics["n_eff_real"] = n_real
        diagnostics["integer_counterpart"] = state.modes / n_eff_integer(
            delta, state.alpha
        )
    return MeasureResult(
        measure=MeasureKind.BRANCH_DIST_REAL,
        value=value,
        params=MeasureParams(delta=delta),
        state=state,
        method=Method.CLOSED_FORM,
        diagnostics=diagnostics,
    )


def rqfi_size(state: CatStateSpec, family: str, oracle: bool = False) -> MeasureResult:
    """Fisher-information size: best family variance over the mean branch cap.

    ``family`` names the generator kinds to maximize over, joined by '+'
    ('quadrature+number').  The three capped kinds share the product-branch
    reference (per-mode information capped at the bounded-operator value,
    giving a unit denominator); the sandwich kind, which acts on the kitten
    pair of the hidden superposition only, divides by the mean of the two
    branches' best per-mode variances.  Either way the value is a lower bound
    to the unrestricted maximization, and is exact for every mode count
    through the Gram reduction; ``oracle`` additionally recomputes the
    achieving variance from truncated branch vectors (``_rqfi_oracle``), or
    reports why the generator's matrix does not fit.
    """
    kinds = _generator_kinds(family)
    _require_family(state, _RQFI_FAMILIES)
    # both branch pairs degenerate where the odd branch |alpha> - |-alpha> does
    hcs_norms(state.alpha)
    sandwich = kinds == (GeneratorKind.SPIN_SANDWICH,)
    if sandwich and state.family is not CatFamily.HCS:
        raise DomainError(
            "sandwich generators act on the kitten pair; only the hidden "
            "superposition family supports them"
        )
    g, table = _branch_pair(state)
    gens = [gen for gen in table if gen.kind in kinds]
    c1, c2 = _superposition_coeffs(state)
    best_var = -math.inf
    achieving = None
    for gen in gens:
        var = _two_branch_variance(gen, state.modes, g, c1, c2)
        if var > best_var:
            best_var, achieving = var, gen
    if achieving is None:
        # every variance is NaN: the bracket tables overflowed
        raise DomainError("no generator variance is finite; reduce |alpha|")
    if sandwich:
        denominator = 0.5 * max(gen.var_u for gen in gens) + 0.5 * max(
            gen.var_v for gen in gens
        )
    else:
        denominator = 1.0
    value = best_var / (state.modes * denominator)
    diagnostics = {
        "family": "+".join(k.value for k in kinds),
        "achieving_generator": achieving.label,
        "variance": best_var,
        "denominator": denominator,
        "branch_variance_maxima": {
            "u": max(gen.var_u for gen in gens),
            "v": max(gen.var_v for gen in gens),
        },
    }
    if oracle:
        diagnostics["oracle"] = _rqfi_oracle(state, achieving, best_var)
    return MeasureResult(
        measure=MeasureKind.RQFI,
        value=value,
        params=MeasureParams(family=kinds),
        state=state,
        method=Method.LOWER_BOUND,
        diagnostics=diagnostics,
    )


def _rqfi_oracle(state: CatStateSpec, gen: ModeGenerator, closed: float) -> dict:
    """Recompute the achieving variance ``closed`` from truncated branch vectors.

    The state is c sum_b v_b^(x N) (``family_branches``); with GV = mat @ V
    for the (d, B) branch vectors V, the B x B tables S = <v_b|v_c>,
    A = <v_b|g|v_c> and A2 = <g v_b|g v_c>, formed by elementwise products
    and numpy sums (no BLAS dot, whose order follows the thread count), give
    <G> = sum N A S^(N-1) / sum S^N and <G^2> = sum [N A2 S^(N-1)
    + N (N-1) A^2 S^(N-2)] / sum S^N (the second term from N >= 2); c cancels.
    The d^3 work of building and norm-checking the generator must fit
    MAX_JOINT_DIM, so d <= 161 at every N; the check is skipped where that
    leaves less than the state's default cutoff.  The row's tolerance is
    max(RQFI_VARIANCE_TOL, 8 N eps M), M = <G^2> the largest term of
    <G^2> - <G>^2: a table entry's rounding eps becomes N eps in its N-th
    power, the two ratios carry about 2 N eps each and <G>^2 <= M doubles
    one, about 6 N eps M in all.  It passes 1e-7 only where N M > 5.6e7
    (100 modes at |alpha| = 8); at N <= 4, M < 1e5 at every admitted |alpha|.
    From 8 N eps >= 1 (N >= 5.6e14) the bound reaches M itself, no digit of
    the variance is left to compare and the check is skipped.
    """
    floor = default_cutoff(state.alpha)
    afford = int(MAX_JOINT_DIM ** (1.0 / 3.0)) - 1
    if afford < floor:
        return {
            "status": "skipped",
            "reason": f"budget {MAX_JOINT_DIM} allows cutoff {afford} < required {floor}",
        }
    n = float(state.modes)
    rounding = 8.0 * n * sys.float_info.epsilon  # the bound's share of <G^2>
    if rounding >= 1.0:
        return {
            "status": "skipped",
            "reason": f"rounding bound 8 N eps <G^2> = {rounding:.3g} <G^2> "
                      f">= <G^2> at N = {state.modes}",
        }
    cutoff = min(floor + 8, afford)
    vecs = family_branches(state, cutoff)[0]
    mat = gen.builder(cutoff)
    if gen.kind is GeneratorKind.BOUNDED_LOCAL:
        top = float(np.linalg.norm(mat, 2))
        if top > 1.0 + 1e-9:
            raise DomainError(
                f"bounded generator has operator norm {top:.12f} > 1"
            )
    moved = mat @ vecs
    bras = vecs.conj()[:, :, None]
    gram = (bras * vecs[:, None, :]).sum(axis=0)
    first = (bras * moved[:, None, :]).sum(axis=0)
    second = (moved.conj()[:, :, None] * moved[:, None, :]).sum(axis=0)
    norm_sq = (gram ** state.modes).sum()
    others = gram ** (state.modes - 1)  # the overlaps of the other N - 1 modes
    terms = n * second * others
    if state.modes >= 2:
        terms += n * (n - 1.0) * first ** 2 * gram ** (state.modes - 2)
    e1 = float(((n * first * others).sum() / norm_sq).real)
    e2 = float((terms.sum() / norm_sq).real)
    numeric = e2 - e1 * e1
    return {
        "status": "ok",
        "generator": gen.label,
        "cutoff": cutoff,
        "closed_variance": closed,
        "numeric_variance": numeric,
        "difference": abs(closed - numeric),
        "tolerance": max(RQFI_VARIANCE_TOL, rounding * abs(e2)),
    }


RQFI_VARIANCE_TOL = 1e-7  # the rqfi row's tolerance, or the rounding bound past it


def _rqfi_rows(diagnostics: dict) -> list[dict]:
    oracle = diagnostics.get("oracle")
    if oracle is None:
        return []
    if oracle["status"] == "skipped":
        return [check_row("oracle", oracle["reason"], None, None)]
    numeric, closed = oracle["numeric_variance"], oracle["closed_variance"]
    return [check_row("variance-closed-vs-fock", numeric, closed, oracle["tolerance"])]


def marquardt_size(state: CatStateSpec, numeric_check: bool = False) -> MeasureResult:
    """Mean of the Poissonian transfer distribution, s = N |alpha|^2.

    The numeric route conjugates the branch step by per-mode displacements:
    moving |-alpha>^N to |alpha>^N costs D(2 alpha) on every mode, and the
    photon distribution of the displaced product is the transfer pmf.  Its
    total-photon pmf is the N-fold convolution of one truncated mode's
    normalized |<n|2 alpha>|^2, checked against the Poisson law, as is that
    of |alpha>^N; the branch mean is N times one mode's.  Both keep the
    cutoff ``default_cutoff(2 alpha)``: each mode's tail adds to the total's,
    and N times it stays below 1.8e-13 for every N the guard admits, where
    N cutoff + 1 counts must fit MAX_JOINT_DIM, checked before allocating.
    """
    _require_family(state, (CatFamily.OMEGA,))
    s = marquardt_s(state.modes, state.alpha)
    diagnostics = {
        "distribution": "poisson",
        "mean": s,
        "variance": s,
        "route": "per-mode displacement by 2 alpha maps the lower branch "
        "onto the upper; the transfer count is the displaced photon total",
    }
    method = Method.CLOSED_FORM
    if numeric_check:
        shifted = complex(state.alpha) * 2.0
        cutoff = default_cutoff(shifted)
        counts = state.modes * cutoff + 1
        check_size(counts, f"total-photon pmf of {counts} counts")
        gaps = []
        for beta in (shifted, state.alpha):
            pmf = _convolved_pmf(_mode_pmf(beta, cutoff), state.modes)
            law = (marquardt_pd(d, state.modes, beta) for d in range(counts))
            gaps.append(float(np.abs(pmf - np.fromiter(law, float, counts)).max()))
        one_mode = np.arange(cutoff + 1) * _mode_pmf(state.alpha, cutoff)
        mean_branch = state.modes * float(one_mode.sum())
        diagnostics["numeric"] = {
            "cutoff": cutoff,
            "displaced_max_abs_diff": gaps[0],
            "branch_max_abs_diff": gaps[1],
            "branch_mean": mean_branch,
            "mean_abs_error": abs(mean_branch - s),
        }
        method = Method.HYBRID
    return MeasureResult(
        measure=MeasureKind.MARQUARDT,
        value=s,
        params=MeasureParams(),
        state=state,
        method=method,
        diagnostics=diagnostics,
    )


def _mode_pmf(beta, cutoff: int) -> np.ndarray:
    """Normalized photon pmf |<n|beta>|^2 of one truncated mode."""
    pmf = np.abs(coherent_vector(beta, cutoff)) ** 2
    return pmf / pmf.sum()


def _convolved_pmf(one: np.ndarray, modes: int) -> np.ndarray:
    """The ``modes``-fold convolution of ``one``, modes (one.size - 1) + 1 long.

    It is irfft(rfft(one)^modes) on a power-of-two length n, not repeated
    ``np.convolve``: O(n log n) stays near a second at the largest length
    the size guard admits, where direct convolution costs
    O(modes^2 one.size^2).  Its rounding is a few 1e-16 per count, but the
    power multiplies each coefficient's phase error by ``modes``, which
    shifts the first moment by up to about modes n eps (3e-7 at 10^4 modes),
    so the branch mean is not read from it.
    """
    size = modes * (one.size - 1) + 1
    n = 1 << (size - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(one, n) ** modes, n)[:size]


TRANSFER_PMF_TOL = 1e-10  # displaced photon pmf vs the Poisson transfer law
TRANSFER_MEAN_TOL = 1e-8  # branch photon mean vs s


def _marquardt_rows(diagnostics: dict) -> list[dict]:
    numeric = diagnostics.get("numeric")
    if numeric is None:
        return []
    pmf, mean = numeric["displaced_max_abs_diff"], numeric["mean_abs_error"]
    return [
        check_row("displaced-pmf-vs-poisson", pmf, 0.0, TRANSFER_PMF_TOL),
        check_row("branch-mean-vs-s", mean, 0.0, TRANSFER_MEAN_TOL),
    ]


def distillation_size(state: CatStateSpec) -> MeasureResult:
    """Expected number of split outcomes from the mode-by-mode cascade."""
    _require_family(state, (CatFamily.OMEGA,))
    value = distill_expected_n(state.modes, state.alpha)
    a = abs2(state.alpha)
    s = state.modes * a
    head = {
        str(m): distill_pm(m, state.modes, state.alpha)
        for m in range(1, min(state.modes, 4) + 1)
    }
    return MeasureResult(
        measure=MeasureKind.DISTILLATION,
        value=value,
        params=MeasureParams(),
        state=state,
        method=Method.CLOSED_FORM,
        diagnostics={
            "success_probability": math.tanh(s),
            "first_split_head": head,
            "large_alpha_limit": float(state.modes),
        },
    )


def mode_loss_size(state: CatStateSpec, lam: float) -> MeasureResult:
    """Equivalent GHZ size M = 2 N |alpha|^2 under per-mode loss.

    The value itself does not depend on the loss rate; lambda enters the
    diagnostics, which compare the coherence decay of the state against the
    M-partite reference at that rate.
    """
    _require_family(state, (CatFamily.OMEGA,))
    params = MeasureParams(lam=lam)
    value = equivalent_ghz_size(state.modes, state.alpha)
    return MeasureResult(
        measure=MeasureKind.MODE_LOSS,
        value=value,
        params=params,
        state=state,
        method=Method.CLOSED_FORM,
        diagnostics={
            "omega_offdiag": mode_loss_offdiag(state.modes, state.alpha, lam),
            "omega_offdiag_mean": mode_loss_offdiag_mean(
                state.modes, state.alpha, lam
            ),
            "ghz_offdiag": ghz_mode_loss_offdiag(value, lam),
            "particle_trace_reference": rdm_particle_trace(state.modes, state.alpha),
        },
    )


def wigner_empirical_size(state: CatStateSpec) -> MeasureResult:
    """Squared distance between the detected phase-space branch lobes.

    Scans a slice wide enough for both lobes on the documented default
    window; two-mode states are sliced through the real-real plane where the
    branch lobes sit.  The lobes are the significant positive maxima of that
    slice, and the separation is the widest pair of them, measured over every
    coordinate of phase space.  Interference troughs are never lobes, and
    fringe maxima nearer the origin never form the widest pair.  Along the
    branch axis the lobes are pulled inward by the interference ridge and
    merge into it below ``sqrt(N)|alpha| ~= 1.314``; there no two positive
    maxima exist and ``ResolutionError`` is raised.
    """
    if state.family is CatFamily.EVEN_CAT:
        pass
    elif state.family is CatFamily.OMEGA and state.modes <= 2:
        pass
    else:
        raise DomainError(
            "empirical peak detection covers the single-mode even state and "
            "the two-branch state with at most 2 modes"
        )
    lo, hi, steps = default_feature_window(state.alpha)
    line = grid_line(lo, hi, steps)
    grid = wigner_grid(state, plane_axes(state.modes, line))
    features = extract_features(grid)
    sep = widest_separation([
        [c for z in loc for c in (z.real, z.imag)]
        for loc, value in zip(features.peak_locations, features.peak_values)
        if value > 0.0
    ])
    if sep is None:
        raise ResolutionError(
            "peak detection found fewer than two significant positive maxima; "
            "the branch lobes have merged (sqrt(N)|alpha| below about 1.314) "
            "or the grid misses them"
        )
    mod = abs(complex(state.alpha))
    diagnostics = {
        "separation": sep,
        "reference_separation": 2.0 * math.sqrt(state.modes) * mod,
        "fringe_wavelength": features.fringe_wavelength,
        "fringe_axis": features.fringe_axis,
        "grid_step": float(line[1] - line[0]),
        "window": (lo, hi, steps),
        "n_peaks": len(features.peak_values),
    }
    if mod > 0:
        diagnostics["reference_wavelength"] = math.pi / (2.0 * mod)
    return MeasureResult(
        measure=MeasureKind.WIGNER_EMPIRICAL,
        value=sep * sep,
        params=MeasureParams(),
        state=state,
        method=Method.ORACLE,
        diagnostics=diagnostics,
    )


def _require_family(state: CatStateSpec, allowed):
    if state.family not in allowed:
        names = ", ".join(f.value for f in allowed)
        raise DomainError(
            f"measure defined for {names}; got {state.family.value}"
        )


_ROUTE_ROWS = {
    MeasureKind.BRANCH_DIST_INT: _branch_dist_rows,
    MeasureKind.RQFI: _rqfi_rows,
    MeasureKind.MARQUARDT: _marquardt_rows,
}
