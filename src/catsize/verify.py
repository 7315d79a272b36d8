"""The verification battery: every closed form against an independent route.

Each check is declared once, in order, with the suite it belongs to and a
function of the shared generator and the seed that returns ``(observed,
tolerance)``; the expected value is always 0.  The fast suite is the in-order
prefix of the full suite.  Declaration order is part of the contract: the
random checks draw from one ``default_rng(seed)`` in that order (only the
replacement draws of ``vacuum-mixing-invariance`` come from a spare one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_forms import (
    CatFamily,
    CatStateSpec,
    GeneratorKind,
    abs2,
    branch_overlap,
    distill_expected_n,
    distill_pm,
    helstrom_success_n_modes,
    mode_loss_offdiag,
    mode_loss_offdiag_mean,
    number_variance_omega,
    omega_norm,
    quadrature_variance_omega,
    rqfi_bound_bounded,
    rqfi_bound_quadrature,
)
from .errors import DomainError
from .fock import (
    MAX_JOINT_DIM,
    FockVector,
    apply_split_network,
    build_state,
    coherent_vector,
    default_cutoff,
)
from .measures import (
    branch_dist_size_real,
    marquardt_size,
    rqfi_size,
    _branch_pair,
    _trace_norm_check,
    _two_branch_variance,
)
from .phase_space import (
    fringe_suppression_check,
    wigner_cat,
    wigner_cutoff,
    wigner_hcs2,
    wigner_numeric,
    wigner_omega,
)
from .simulate import (
    CollapseProblem,
    _check_seed,
    build_distillation_povm,
    distillation_outcome_distribution,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)

FAST, FULL = "fast", "full"


@dataclass(frozen=True)
class Check:
    """One identity: its row name, its suite, and how to evaluate its gap."""

    name: str
    suite: str
    evaluate: Callable[[np.random.Generator, int], tuple[float, float]]


CHECKS: list[Check] = []


def _check(name: str, suite: str = FAST):
    """Declare the decorated function as the next check of the battery."""

    def declare(evaluate):
        CHECKS.append(Check(name, suite, evaluate))
        return evaluate

    return declare


def checks(suite: str) -> list[Check]:
    """The checks of ``suite`` in declaration order."""
    return [c for c in CHECKS if suite == FULL or c.suite == FAST]


def _num_check(name: str, observed: float, expected: float, tolerance: float) -> dict:
    status = "pass" if abs(observed - expected) <= tolerance else "fail"
    return {
        "name": name,
        "status": status,
        "observed": observed,
        "expected": expected,
        "tolerance": tolerance,
    }


def run(suite: str, seed: int) -> list[dict]:
    """Check rows of ``suite``; a check that raises is a failed row.

    A seed outside [0, 2**64), which the simulator rows cannot key their
    streams with, raises DomainError before any row runs.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    rows = []
    for check in checks(suite):
        try:
            observed, tolerance = check.evaluate(rng, seed)
            rows.append(_num_check(check.name, observed, 0.0, tolerance))
        except Exception as exc:  # a crashed check is a failed check
            rows.append(
                {
                    "name": check.name,
                    "status": "fail",
                    "observed": f"{type(exc).__name__}: {exc}",
                    "expected": "no exception",
                    "tolerance": None,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# shared routes
# ---------------------------------------------------------------------------

def _random_points(rng, count: int, radius: float) -> np.ndarray:
    return radius * (
        rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count)
    )


def _fidelity_gap(out: FockVector, target: FockVector) -> float:
    """1 - fidelity of ``out`` against ``target``."""
    overlap = np.vdot(target.amplitudes, out.amplitudes)
    fid = abs2(overlap) / (target.norm() ** 2 * out.norm() ** 2)
    return 1.0 - fid


def network_coherent_gap(m: int, alpha: complex) -> float:
    """1 - fidelity of the splitting network output against |alpha>^m.

    The overlap with the product target is contracted one mode at a time
    against conj(leaf), and the target norm is ||leaf||^(2m), so the target
    vector is never built.
    """
    peak = math.sqrt(m) * abs(alpha)
    afford = int(MAX_JOINT_DIM ** (1.0 / m)) - 1
    cutoff = min(default_cutoff(peak), afford)
    head = coherent_vector(math.sqrt(m) * alpha, cutoff)
    out = apply_split_network(head, m).amplitudes
    leaf = coherent_vector(alpha, cutoff).amplitudes
    bra = leaf.conj()
    overlap = out.reshape((cutoff + 1,) * m)
    for _ in range(m):
        overlap = overlap @ bra
    leaf_norm2 = float(np.vdot(leaf, leaf).real)
    fid = abs2(complex(overlap)) / (leaf_norm2**m * float(np.vdot(out, out).real))
    return 1.0 - fid


def network_superposition_gap(modes: int, alpha: complex) -> float:
    """1 - fidelity of the split one-mode cat against the ``modes``-mode cat.

    The head is the one-mode cat at +-sqrt(modes) alpha, scaled by the
    ``modes``-mode normalization, so the network output should equal the
    target vector itself.
    """
    cutoff = default_cutoff(math.sqrt(modes) * abs(alpha))
    root = math.sqrt(modes) * complex(alpha)
    plus = coherent_vector(root, cutoff).amplitudes
    minus = coherent_vector(-root, cutoff).amplitudes
    head = FockVector(cutoff, 1, (plus + minus) * omega_norm(modes, alpha))
    omega = CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha)
    target = build_state(omega, cutoff=cutoff)
    return _fidelity_gap(apply_split_network(head, modes), target)


def wigner_gap(spec: CatStateSpec, closed, points) -> float:
    """Largest |closed - numeric| Wigner value over ``points``.

    Each point holds one coordinate per mode; ``closed`` takes them as
    separate arguments.  The state is built at the cutoff ``wigner_cutoff``
    picks from its amplitude and the points.
    """
    points = list(points)
    vec = build_state(spec, cutoff=wigner_cutoff(spec.alpha, points))
    worst = 0.0
    for point in points:
        numeric = wigner_numeric(vec, list(point))
        worst = max(worst, abs(float(closed(*point)) - numeric))
    return worst


def wigner_gap_hcs2(rng, alpha: complex, count: int, radius: float) -> float:
    """Closed-vs-numeric gap of the two-mode hierarchical state at random points."""
    spec = CatStateSpec(family=CatFamily.HCS, modes=2, alpha=alpha)
    points = zip(_random_points(rng, count, radius), _random_points(rng, count, radius))
    return wigner_gap(spec, lambda g1, g2: wigner_hcs2(g1, g2, alpha), points)


HCS2_ALPHA3_SPOTS = ((0.0, 0.0), (3.0, 3.0), (-3.0, 3.0), (1.5, -1.5), (0.5j, 2.0))


def wigner_gap_hcs2_spots() -> float:
    """Closed-vs-numeric gap of the hierarchical state at alpha = 3 at fixed spots."""
    spec = CatStateSpec(family=CatFamily.HCS, modes=2, alpha=3.0)
    return wigner_gap(spec, lambda g1, g2: wigner_hcs2(g1, g2, 3.0), HCS2_ALPHA3_SPOTS)


def matched_intensity_beta(modes: int, alpha: complex):
    """Real amplitude whose squared modulus is bitwise modes*|alpha|^2."""
    target = modes * abs2(alpha)
    beta = math.sqrt(target)
    for _ in range(8):
        have = abs2(complex(beta))
        if have == target:
            return beta
        beta = math.nextafter(beta, math.inf if have < target else -math.inf)
    return None


# ---------------------------------------------------------------------------
# the battery, in draw order
# ---------------------------------------------------------------------------

@_check("helstrom-closed-vs-trace-norm")
def _helstrom(rng, seed):
    return _trace_norm_check(1.0, 2, default_cutoff(1.0))["difference"], 1e-10


@_check("helstrom-monotone-in-modes")
def _helstrom_monotone(rng, seed):
    values = [helstrom_success_n_modes(n, 0.7) for n in range(1, 7)]
    worst = min(b - a for a, b in zip(values, values[1:]))
    return max(0.0, -worst), 0.0


@_check("povm-completeness")
def _povm_complete(rng, seed):
    povm = build_distillation_povm(0.9)
    closure = povm.E1.T @ povm.E1 + povm.E2.T @ povm.E2
    return float(np.abs(closure - np.eye(2)).max()), 1e-12


@_check("povm-effect2-form")
def _povm_effect_form(rng, seed):
    w = branch_overlap(0.9)
    povm = build_distillation_povm(0.9)
    chi = np.array([math.sqrt((1 + w) / 2), math.sqrt((1 - w) / 2)])
    explicit = math.sqrt(2 * w / (1 + w)) * np.outer(chi, chi)
    return float(np.abs(povm.E2 - explicit).max()), 1e-12


@_check("povm-branch-probability")
def _povm_branch_prob(rng, seed):
    alpha = 0.9
    w = branch_overlap(alpha)
    s = math.sqrt(1 - w * w)
    povm = build_distillation_povm(alpha)
    worst = 0.0
    for branch in (np.array([1.0, 0.0]), np.array([w, s])):
        prob = float(np.linalg.norm(povm.E1 @ branch) ** 2)
        worst = max(worst, abs(prob - (1.0 - w)))
    return worst, 1e-12


@_check("collapse-basis-form")
def _collapse_basis(rng, seed):
    alpha = 1.2
    w = branch_overlap(alpha)
    s = math.sqrt(1 - w * w)
    ket_a = np.array([1.0, 0.0])
    ket_ma = np.array([w, s])
    psi_p = (ket_a + ket_ma) / math.sqrt(2 + 2 * w)
    psi_m = (ket_a - ket_ma) / math.sqrt(2 - 2 * w)
    xi_p = (psi_p + psi_m) / math.sqrt(2.0)
    xi_m = (psi_p - psi_m) / math.sqrt(2.0)
    delta = np.outer(ket_a, ket_a) - np.outer(ket_ma, ket_ma)
    _, vecs = np.linalg.eigh(delta)
    gap = max(
        1.0 - abs(float(np.dot(vecs[:, 1], xi_p))),
        1.0 - abs(float(np.dot(vecs[:, 0], xi_m))),
    )
    return gap, 1e-10


@_check("collapse-cat-vs-mixed")
def _collapse_cat_mixed(rng, seed):
    stats = simulate_branch_collapse(1.1, 2000, seed, CollapseProblem.CAT_VS_MIXED)
    return 1.0 - stats.mean, 0.0


@_check("collapse-branch-vs-branch-smoke")
def _collapse_branch_smoke(rng, seed):
    stats = simulate_branch_collapse(
        math.sqrt(2.0), 2000, seed, CollapseProblem.BRANCH_VS_BRANCH
    )
    return abs(stats.mean - 0.5), 5.0 * stats.std_error


@_check("rqfi-bounded-unit-at-one-mode")
def _rqfi_unit(rng, seed):
    state = CatStateSpec(family=CatFamily.OMEGA, modes=1, alpha=0.8)
    return abs(rqfi_size(state, "bounded-local").value - 1.0), 1e-9


@_check("rqfi-gram-vs-fock")
def _rqfi_oracle(rng, seed):
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    res = rqfi_size(state, "quadrature+number", oracle=True)
    return res.diagnostics["oracle"]["difference"], 1e-7


@_check("rqfi-quadrature-variance-identity")
def _rqfi_quadrature_identity(rng, seed):
    modes, alpha = 3, 0.8
    g, gens = _branch_pair(CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha))
    var = max(
        _two_branch_variance(gen, modes, g, 1.0, 1.0)
        for gen in gens
        if gen.kind is GeneratorKind.QUADRATURE
    )
    return abs(var - quadrature_variance_omega(modes, alpha)), 1e-9


@_check("rqfi-number-variance-identity")
def _rqfi_number_identity(rng, seed):
    modes, alpha = 3, 0.8
    g, gens = _branch_pair(CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha))
    number = next(gen for gen in gens if gen.kind is GeneratorKind.NUMBER)
    var = _two_branch_variance(number, modes, g, 1.0, 1.0)
    return abs(var - number_variance_omega(modes, alpha)), 1e-9


def _marquardt_numeric() -> dict:
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    return marquardt_size(state, numeric_check=True).diagnostics["numeric"]


@_check("marquardt-displaced-pmf")
def _marquardt_pmf(rng, seed):
    return _marquardt_numeric()["displaced_max_abs_diff"], 1e-10


@_check("marquardt-branch-mean")
def _marquardt_mean(rng, seed):
    return _marquardt_numeric()["mean_abs_error"], 1e-8


_check("network-coherent-m2")(lambda rng, seed: (network_coherent_gap(2, 0.5), 1e-8))
_check("network-coherent-m3")(lambda rng, seed: (network_coherent_gap(3, 0.5), 1e-8))


@_check("wigner-even-cat-closed-vs-numeric")
def _wigner_even_cat(rng, seed):
    spec = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=1.3)
    points = [(g,) for g in _random_points(rng, 50, 2.0)]
    return wigner_gap(spec, lambda g: wigner_cat(g, 1.3, parity=1), points), 1e-6


_check("wigner-hcs2-closed-vs-numeric")(
    lambda rng, seed: (wigner_gap_hcs2(rng, 1.5, 50, 2.0), 1e-6)
)


@_check("wigner-vacuum-origin")
def _wigner_vacuum(rng, seed):
    vacuum = np.zeros(8, dtype=complex)
    vacuum[0] = 1.0
    vec = FockVector(cutoff=7, modes=1, amplitudes=vacuum)
    return abs(wigner_numeric(vec, [0.0]) - 2.0 / math.pi), 1e-9


@_check("wigner-parity-symmetry")
def _wigner_parity(rng, seed):
    pts = np.stack(
        [_random_points(rng, 25, 1.5), _random_points(rng, 25, 1.5)], axis=-1
    )
    return float(np.abs(wigner_omega(pts, 0.9) - wigner_omega(-pts, 0.9)).max()), 1e-10


@_check("distill-sum-equals-success")
def _distill_sum(rng, seed):
    modes, alpha = 50, math.sqrt(10.0)
    total = math.fsum(distill_pm(m, modes, alpha) for m in range(1, modes + 1))
    return abs(total - math.tanh(modes * abs2(alpha))), 1e-12


@_check("distill-exact-distribution")
def _distill_dp(rng, seed):
    modes, alpha = 6, 0.9
    probs = distillation_outcome_distribution(modes, alpha)
    mean = float(np.dot(np.arange(probs.size), probs))
    gap_mean = abs(mean - distill_expected_n(modes, alpha))
    gap_total = abs(float(probs.sum()) - 1.0)
    return max(gap_mean, gap_total), 1e-10


@_check("simulate-distill-smoke")
def _distill_smoke(rng, seed):
    stats = simulate_distillation(4, 0.8, 2000, seed)
    return abs(stats.mean - distill_expected_n(4, 0.8)), 5.0 * stats.std_error


@_check("mode-loss-rate-extremes")
def _mode_loss_extremes(rng, seed):
    modes, alpha = 5, 0.9
    big_w = branch_overlap(alpha) ** modes
    lo = abs(mode_loss_offdiag(modes, alpha, 0.0) - 1.0 / (2.0 + 2.0 * big_w))
    hi = abs(mode_loss_offdiag(modes, alpha, 1.0) - big_w / (2.0 + 2.0 * big_w))
    return max(lo, hi), 1e-15


@_check("mode-loss-binomial-mean")
def _mode_loss_binomial(rng, seed):
    modes, alpha, lam = 6, 0.8, 0.3
    w = branch_overlap(alpha)
    big_w = w ** modes
    total = math.fsum(
        math.comb(modes, k) * lam ** k * (1.0 - lam) ** (modes - k) * w ** k
        for k in range(modes + 1)
    ) / (2.0 + 2.0 * big_w)
    return abs(total - mode_loss_offdiag_mean(modes, alpha, lam)), 1e-12


@_check("simulate-mode-loss-smoke")
def _mode_loss_smoke(rng, seed):
    stats = simulate_mode_loss(6, 1.0, 0.25, 2000, seed)
    return abs(stats.mean - mode_loss_offdiag(6, 1.0, 0.25)), 5.0 * stats.std_error


@_check("vacuum-mixing-invariance")
def _vacuum_axiom(rng, seed):
    """Compares 5 intensity-matched draws exactly.

    About half of all draws have no float beta with beta^2 == N|alpha|^2
    bitwise.  The first 5 draws come from the shared generator; each
    unmatched one is replaced from a spare generator keyed by the seed, up
    to 64 replacements, so the rows after this one see the same draws
    whatever the replacements were.
    """
    spare = np.random.default_rng([seed, 1])
    worst = 0.0
    matched = 0
    for attempt in range(5 + 64):
        source = rng if attempt < 5 else spare
        modes = int(source.integers(2, 7))
        alpha = complex(source.uniform(0.3, 1.5), source.uniform(-0.5, 0.5))
        beta = matched_intensity_beta(modes, alpha)
        if beta is None:
            continue
        matched += 1
        omega = CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha)
        single = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=beta)
        gap = abs(
            branch_dist_size_real(omega, 0.01).value
            - branch_dist_size_real(single, 0.01).value
        )
        worst = max(worst, gap)
        if matched == 5:
            return worst, 0.0
    raise DomainError(f"only {matched} of {5 + 64} draws were intensity-matched")


_check("network-coherent-m4-alpha1", FULL)(
    lambda rng, seed: (network_coherent_gap(4, 1.0), 1e-8)
)
_check("network-coherent-m4-alpha1.5", FULL)(
    lambda rng, seed: (network_coherent_gap(4, 1.5), 1e-8)
)
_check("network-superposition-n3", FULL)(
    lambda rng, seed: (network_superposition_gap(3, 0.8), 1e-8)
)
_check("wigner-hcs2-dense", FULL)(
    lambda rng, seed: (wigner_gap_hcs2(rng, 1.5, 200, 2.0), 1e-6)
)
_check("wigner-hcs2-alpha3-spots", FULL)(
    lambda rng, seed: (wigner_gap_hcs2_spots(), 1e-6)
)


@_check("fringe-suppression-coefficient", FULL)
def _fringe(rng, seed):
    return abs(fringe_suppression_check(1.0)["ratio"] - 1.0), 0.05


@_check("rqfi-published-bounds", FULL)
def _eq_bounds(rng, seed):
    worst = 0.0
    for modes in (1, 2, 4):
        state = CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=0.9)
        bounded = rqfi_size(state, "bounded-local")
        wide = rqfi_size(state, "quadrature+number")
        worst = max(
            worst,
            rqfi_bound_bounded(modes, 0.9) - bounded.value,
            rqfi_bound_quadrature(modes, 0.9) - wide.value,
        )
    return max(0.0, worst), 1e-9
