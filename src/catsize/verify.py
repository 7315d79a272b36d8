"""The verification battery: every closed form against an independent route.

Each check is declared once, in order, with the suite it belongs to and a
function of the shared generator and the seed that returns ``(observed,
tolerance)``; the expected value is always 0.  A route owned by another
module is read only through its public result: the row that module builds
(``MeasureResult.checks``, ``simulate.*_rows``) gives the gap and tolerance,
and each closed-vs-numeric Wigner row's gap, the fringe-suppression row
and the reduced-state rows included, is ``phase_space.wigner_gap`` of its
state and points (coordinates for the first k <= N modes), whose numeric
side displaces the state's single-mode branch vectors (``wigner_branches``).
The vacuum row reads ``wigner_branches`` too, on the product-coherent state
at alpha = 0, against the exact 2/pi; only the parity-symmetry row reads
``wigner_closed`` alone.
The fast suite is the in-order prefix of the full suite.  Declaration order
is part of the contract: the random checks draw in that order from one
``Draws``, whose value k is draw 0 of the Philox stream (seed, 2**63 + k)
(only the replacement draws of ``vacuum-mixing-invariance`` come from the
spare streams, (seed, 2**63 + 2**62 + k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_forms import (
    FAST,
    FULL,
    CatFamily,
    CatStateSpec,
    CollapseProblem,
    GeneratorKind,
    abs2,
    branch_overlap,
    check_row,
    distill_expected_n,
    distill_pm,
    helstrom_success_n_modes,
    mode_loss_offdiag,
    mode_loss_offdiag_mean,
    number_variance_omega,
    quadrature_variance_omega,
    rqfi_bound_bounded,
    rqfi_bound_quadrature,
)
from .errors import DomainError
from .fock import coherent_vector, default_cutoff, split_network_overlaps
from .measures import branch_dist_size, branch_dist_size_real, marquardt_size, rqfi_size
from .phase_space import wigner_branches, wigner_closed, wigner_gap
from .simulate import (
    build_distillation_povm,
    check_seed,
    collapse_rows,
    distillation_outcome_distribution,
    distillation_rows,
    leading_draws,
    mode_loss_rows,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)

#: First Philox stream of the battery's draws, and of its spare draws; no
#: simulator trajectory index reaches either.
DRAW_STREAMS, SPARE_STREAMS = 1 << 63, (1 << 63) + (1 << 62)


class Draws:
    """Uniforms in order: value k is draw 0 of the Philox stream (seed,
    first + k), computed 256 streams at a time by ``leading_draws``."""

    def __init__(self, seed: int, first: int):
        self._seed, self._next, self._ready = seed, first, np.empty(0)

    def uniform(self, low: float, high: float, count: int = 1) -> np.ndarray:
        while self._ready.size < count:
            self._ready = np.append(self._ready, leading_draws(self._seed, self._next, 256))
            self._next += 256
        u, self._ready = self._ready[:count], self._ready[count:]
        return low + (high - low) * u

    def integers(self, low: int, high: int) -> int:
        return low + int(self.uniform(0.0, high - low)[0])


@dataclass(frozen=True)
class Check:
    """One identity: its row name, its suite, and how to evaluate its gap."""

    name: str
    suite: str
    evaluate: Callable[[Draws, int], tuple[float, float]]


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


def run(suite: str, seed: int) -> list[dict]:
    """Check rows of ``suite``; a check that raises is a failed row.

    A seed outside [0, 2**64), which the simulator rows cannot key their
    streams with, raises DomainError before any row runs.
    """
    check_seed(seed)
    rng = Draws(seed, DRAW_STREAMS)
    rows = []
    for check in checks(suite):
        try:
            observed, tolerance = check.evaluate(rng, seed)
            rows.append(check_row(check.name, observed, 0.0, tolerance))
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

def _row_gap(row: dict) -> tuple[float, float]:
    """(|observed - expected|, tolerance) of a check row built by its route."""
    return abs(row["observed"] - row["expected"]), row["tolerance"]


def _random_points(rng, count: int, radius: float) -> np.ndarray:
    return radius * (
        rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count)
    )


def network_gap(m: int, branches) -> float:
    """1 - fidelity of the splitting network output against sum_b |b>^m.

    The head is sum_b |sqrt(m) b>, one coherent state per amplitude in
    ``branches``, at the default cutoff of the largest head amplitude.  The
    overlap with each branch's product |b>^m and the output's squared norm
    come from the network's transfer chain (``split_network_overlaps``), so
    neither the output nor the target vector is built.  The target's
    squared norm is sum_{u,v} <u|v>^m over the truncated leaves.  Fidelity
    is scale-free, so neither side is normalized.
    """
    cutoff = default_cutoff(math.sqrt(m) * max(abs(b) for b in branches))
    head = sum(coherent_vector(math.sqrt(m) * b, cutoff) for b in branches)
    leaves = [coherent_vector(b, cutoff) for b in branches]
    overlaps, out_norm2 = split_network_overlaps(head, m, leaves)
    target_norm2 = float(sum(np.vdot(u, v) ** m for u in leaves for v in leaves).real)
    return 1.0 - abs2(complex(overlaps.sum())) / (target_norm2 * out_norm2)


def _random_tuples(rng, count: int, radius: float, modes: int):
    """``count`` points of ``modes`` coordinates each: ``count`` first
    coordinates, then ``count`` second ones, and so on."""
    return zip(*(_random_points(rng, count, radius) for _ in range(modes)))


def _drawn_wigner_gap(family: CatFamily, modes: int, alpha: complex, k: int, count=50):
    """A Wigner row's evaluation: the closed-vs-numeric gap of ``family`` on
    ``modes`` modes at ``count`` points drawn on its first k modes, radius 2."""
    spec = CatStateSpec(family=family, modes=modes, alpha=alpha)
    return lambda rng, seed: (wigner_gap(spec, _random_tuples(rng, count, 2.0, k)), 1e-6)


#: Fixed two-mode points of the ``wigner-hcs2-alpha3-spots`` row.
HCS2_ALPHA3_SPOTS = ((0.0, 0.0), (3.0, 3.0), (-3.0, 3.0), (1.5, -1.5), (0.5j, 2.0))


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
    # delta = 1e-3 puts n_eff at 2 modes for alpha = 1
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    (row,) = branch_dist_size(state, 1e-3).checks
    return _row_gap(row)


@_check("helstrom-monotone-in-modes")
def _helstrom_monotone(rng, seed):
    values = [helstrom_success_n_modes(n, 0.7) for n in range(1, 7)]
    worst = min(b - a for a, b in zip(values, values[1:]))
    return max(0.0, -worst), 0.0


@_check("povm-completeness")
def _povm_complete(rng, seed):
    e1, e2 = build_distillation_povm(0.9)
    closure = e1.T @ e1 + e2.T @ e2
    return float(np.abs(closure - np.eye(2)).max()), 1e-12


@_check("povm-effect2-form")
def _povm_effect_form(rng, seed):
    w = branch_overlap(0.9)
    _, e2 = build_distillation_povm(0.9)
    chi = np.array([math.sqrt((1 + w) / 2), math.sqrt((1 - w) / 2)])
    explicit = math.sqrt(2 * w / (1 + w)) * np.outer(chi, chi)
    return float(np.abs(e2 - explicit).max()), 1e-12


@_check("povm-branch-probability")
def _povm_branch_prob(rng, seed):
    alpha = 0.9
    w = branch_overlap(alpha)
    s = math.sqrt(1 - w * w)
    e1, _ = build_distillation_povm(alpha)
    worst = 0.0
    for branch in (np.array([1.0, 0.0]), np.array([w, s])):
        prob = float(np.linalg.norm(e1 @ branch) ** 2)
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
    problem = CollapseProblem.CAT_VS_MIXED
    stats = simulate_branch_collapse(1.1, 2000, seed, problem)
    return _row_gap(collapse_rows(stats, problem)[0])


@_check("collapse-branch-vs-branch-smoke")
def _collapse_branch_smoke(rng, seed):
    problem = CollapseProblem.BRANCH_VS_BRANCH
    stats = simulate_branch_collapse(math.sqrt(2.0), 2000, seed, problem)
    return _row_gap(collapse_rows(stats, problem)[0])


@_check("rqfi-bounded-unit-at-one-mode")
def _rqfi_unit(rng, seed):
    state = CatStateSpec(family=CatFamily.OMEGA, modes=1, alpha=0.8)
    return abs(rqfi_size(state, "bounded-local").value - 1.0), 1e-9


@_check("rqfi-gram-vs-fock")
def _rqfi_gram_vs_fock(rng, seed):
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    (row,) = rqfi_size(state, "quadrature+number", oracle=True).checks
    return _row_gap(row)


def _variance_identity(kind: GeneratorKind, closed) -> tuple[float, float]:
    """Best Gram-reduced variance of ``kind`` against ``closed`` at 3 modes."""
    state = CatStateSpec(family=CatFamily.OMEGA, modes=3, alpha=0.8)
    var = rqfi_size(state, kind.value).diagnostics["variance"]
    return abs(var - closed(3, 0.8)), 1e-9


@_check("rqfi-quadrature-variance-identity")
def _rqfi_quadrature_identity(rng, seed):
    return _variance_identity(GeneratorKind.QUADRATURE, quadrature_variance_omega)


@_check("rqfi-number-variance-identity")
def _rqfi_number_identity(rng, seed):
    return _variance_identity(GeneratorKind.NUMBER, number_variance_omega)


def _marquardt_rows() -> list[dict]:
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    return marquardt_size(state, numeric_check=True).checks


_check("marquardt-displaced-pmf")(lambda rng, seed: _row_gap(_marquardt_rows()[0]))
_check("marquardt-branch-mean")(lambda rng, seed: _row_gap(_marquardt_rows()[1]))


_check("network-coherent-m2")(lambda rng, seed: (network_gap(2, [0.5]), 1e-8))
_check("network-coherent-m3")(lambda rng, seed: (network_gap(3, [0.5]), 1e-8))


_check("wigner-even-cat-closed-vs-numeric")(_drawn_wigner_gap(CatFamily.EVEN_CAT, 1, 1.3, 1))


_check("wigner-hcs2-closed-vs-numeric")(_drawn_wigner_gap(CatFamily.HCS, 2, 1.5, 2))


@_check("wigner-vacuum-origin")
def _wigner_vacuum(rng, seed):
    vacuum = CatStateSpec(family=CatFamily.PRODUCT_COHERENT, modes=1, alpha=0.0)
    (value,) = wigner_branches(vacuum, [[0.0]])
    return abs(float(value) - 2.0 / math.pi), 1e-9


@_check("wigner-parity-symmetry")
def _wigner_parity(rng, seed):
    pts = [_random_points(rng, 25, 1.5) for _ in range(2)]
    spec = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=0.9)
    gap = np.abs(wigner_closed(spec, *pts) - wigner_closed(spec, *(-p for p in pts)))
    return float(gap.max()), 1e-10


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
    return _row_gap(distillation_rows(stats, 4, 0.8)[0])


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
    return _row_gap(mode_loss_rows(stats, 6, 1.0, 0.25)[0])


@_check("vacuum-mixing-invariance")
def _vacuum_axiom(rng, seed):
    """Compares 5 intensity-matched draws exactly.

    About half of all draws have no float beta with beta^2 == N|alpha|^2
    bitwise.  The first 5 draws come from the shared streams; each
    unmatched one is replaced from the spare streams, up to 64
    replacements, so the rows after this one see the same draws whatever
    the replacements were.
    """
    spare = Draws(seed, SPARE_STREAMS)
    worst = 0.0
    matched = 0
    for attempt in range(5 + 64):
        source = rng if attempt < 5 else spare
        modes = source.integers(2, 7)
        alpha = complex(source.uniform(0.3, 1.5)[0], source.uniform(-0.5, 0.5)[0])
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
    lambda rng, seed: (network_gap(4, [1.0]), 1e-8)
)
_check("network-coherent-m4-alpha1.5", FULL)(
    lambda rng, seed: (network_gap(4, [1.5]), 1e-8)
)
_check("network-superposition-n3", FULL)(
    lambda rng, seed: (network_gap(3, [0.8, -0.8]), 1e-8)
)
_check("wigner-hcs2-dense", FULL)(_drawn_wigner_gap(CatFamily.HCS, 2, 1.5, 2, count=200))


@_check("wigner-hcs2-alpha3-spots", FULL)
def _hcs2_spots(rng, seed):
    spec = CatStateSpec(family=CatFamily.HCS, modes=2, alpha=3.0)
    return wigner_gap(spec, HCS2_ALPHA3_SPOTS), 1e-6


#: One-mode points for the fringe row: the origin, the node and the trough
#: of cos(4 Im gamma) on the imaginary axis, a branch lobe and one off-axis.
FRINGE_POINTS = ((0.0,), (0.39j,), (0.79j,), (1.0,), (0.5 + 0.5j,))


@_check("fringe-suppression-coefficient", FULL)
def _fringe(rng, seed):
    # the two-mode Omega state with its second mode traced out: the one
    # traced mode scales the interference term by exp(-2|alpha|^2)
    spec = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    return wigner_gap(spec, FRINGE_POINTS), 1e-6


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


_check("wigner-omega2-closed-vs-numeric", FULL)(
    _drawn_wigner_gap(CatFamily.OMEGA, 2, 1.1 + 0.4j, 2)
)
_check("wigner-odd-cat-closed-vs-numeric", FULL)(_drawn_wigner_gap(CatFamily.ODD_CAT, 1, 1.1, 1))
_check("wigner-hcs3-closed-vs-numeric", FULL)(_drawn_wigner_gap(CatFamily.HCS, 3, 1.2, 3))
# reduced states: Omega's interference scaled by the traced modes' overlap,
# and none left in the hierarchical cat's
_check("wigner-omega3-reduced-k1-closed-vs-numeric", FULL)(
    _drawn_wigner_gap(CatFamily.OMEGA, 3, 0.6 + 0.3j, 1)
)
_check("wigner-hcs3-reduced-k2-closed-vs-numeric", FULL)(
    _drawn_wigner_gap(CatFamily.HCS, 3, 1.2, 2)
)
