"""Monte Carlo simulation of the sequential measurement protocols.

Every state touched here lives in the two-dimensional span of one mode's
{|alpha>, |-alpha>}, so the protocols are simulated exactly in an orthonormal
frame for that span: |alpha> = (1, 0) and |-alpha> = (w, s) with
w = exp(-2|alpha|^2) and s = sqrt(1 - w^2).  Trajectories over many modes
never build a joint Fock space; mode counts in the hundreds are cheap.

Trajectory t of a run seeded with ``seed`` draws its uniforms from the stream
of ``numpy.random.Generator(numpy.random.Philox(key=(seed, t)))``.  Philox4x64-10
is a pure function of key and counter (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so ``_uniform_columns`` computes those
streams for a whole batch of trajectories at once in numpy uint64 arithmetic,
bit for bit, and yields them one draw index (one column) at a time.  Each
protocol updates per-trajectory state column by column, and the statistics
come from the histogram of outcomes, so memory depends on neither ``trials``
nor ``modes``.  On a 2-vCPU x86 VM the kernel costs about 45 ns per draw,
against about 20 us per trajectory for building a Generator and drawing from
it, so it is faster up to roughly 500 draws per trajectory and slower beyond:
``simulate mode-loss --modes 1000 --trials 20000`` takes about 1.35 s of CLI
wall time, against 1.0 s with one Generator per trajectory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import abs2, branch_overlap, hcs_norms
from .errors import DomainError

SEED_SCHEME = "philox(key=(seed, trajectory_index))"

# Trajectories advanced together; bounds the kernel's working memory.
_BATCH = 1 << 14

# Philox4x64-10 multipliers and Weyl key increments, as in numpy's Philox.
# Operands are np.uint64 throughout: numpy 1.x turns a np.uint64 scalar
# mixed with a Python int into float64.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * m, from 32-bit
    halves (Warren, Hacker's Delight, mulhu); no partial sum overflows."""
    a_lo, a_hi = a & _LOW32, a >> _32
    m_lo, m_hi = m & _LOW32, m >> _32
    mid = a_hi * m_lo + ((a_lo * m_lo) >> _32)
    low_mid = a_lo * m_hi + (mid & _LOW32)
    return a_hi * m_hi + (mid >> _32) + (low_mid >> _32), a * m


def _uniform_columns(seed: int, rows: np.ndarray, draws: int):
    """Yield draws 0 .. draws-1 of the trajectories ``rows`` (uint64 indices),
    one array per draw, equal bit for bit to
    ``Generator(Philox(key=(seed, t))).random(draws)`` for each t in rows."""
    for block in range(-(-draws // 4)):
        # numpy's Philox steps its counter before each block of four words,
        # so block b comes from counter (b + 1, 0, 0, 0).  The counter words
        # are the same for every row and broadcast against the row keys.
        x0, x1, x2, x3 = (np.array([w], np.uint64) for w in (block + 1, 0, 0, 0))
        k0, k1 = seed, rows
        for _ in range(10):
            hi0, lo0 = _mulhilo(x0, _PHILOX_M0)
            hi1, lo1 = _mulhilo(x2, _PHILOX_M1)
            x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
            k0, k1 = (k0 + _PHILOX_W0) & _MASK64, k1 + _PHILOX_W1
        for x in (x0, x1, x2, x3)[: draws - 4 * block]:
            yield (x >> _11) * 2.0**-53


def _batches(trials: int):
    """Trajectory indices 0 .. trials-1 in consecutive uint64 batches."""
    for start in range(0, trials, _BATCH):
        yield np.arange(start, min(start + _BATCH, trials), dtype=np.uint64)


def _tally(counts: dict, values: np.ndarray) -> None:
    """Add the occurrences of each non-negative integer in ``values`` to ``counts``."""
    hits = np.bincount(values)
    for k in np.flatnonzero(hits).tolist():
        counts[k] = counts.get(k, 0) + int(hits[k])


@dataclass(frozen=True)
class TrajectoryStats:
    """Aggregate of a batch of independent trajectories."""

    trials: int
    histogram: dict
    mean: float
    variance: float
    std_error: float
    seed: int
    seed_scheme: str = SEED_SCHEME
    extra: dict = field(default_factory=dict)


def _stats_fields(tally: list) -> tuple[float, float, float]:
    """Mean, unbiased variance and standard error of the samples that ``tally``
    lists as (value, count) pairs; DomainError if they overflow.

    Each sum is taken exactly over Fractions and rounded once, so it equals
    ``math.fsum`` over the expanded samples bit for bit.  (fsum also raises
    when a partial sum of mixed signs overflows; every tally here has one
    sign, so both overflow alike.)
    """
    from fractions import Fraction

    n = sum(c for _, c in tally)
    try:
        mean = float(sum(Fraction(x) * c for x, c in tally)) / n
        if n > 1:
            var = float(sum(Fraction((x - mean) ** 2) * c for x, c in tally)) / (n - 1)
        else:
            var = 0.0
    except (OverflowError, ValueError):
        # Fraction refuses infinities (OverflowError) and NaN (ValueError).
        mean = var = math.inf
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DomainError("trajectory statistics overflow a float; reduce |alpha|")
    return mean, var, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# distillation POVM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistillationPOVM:
    """Per-mode two-outcome measurement that splits the branches apart.

    Coordinates are in the orthonormal frame {e1, e2} with e1 = |alpha> and
    e2 proportional to |-alpha> - w|alpha>.  E1 swaps the branches onto the
    orthonormal pair (up to a scale k s, k fixed by making E2 rank one); E2
    maps both branches to the same vector, postponing the split.
    """

    E1: np.ndarray
    E2: np.ndarray


def build_distillation_povm(alpha) -> DistillationPOVM:
    """Solve for the scale k that makes the complementary effect rank one."""
    if alpha == 0:
        raise DomainError("the branch span degenerates at alpha = 0")
    w = branch_overlap(alpha)
    s = math.sqrt(1.0 - w * w)
    # |phi_-> is the vector in the span orthogonal to |-alpha>.
    phi_minus = np.array([s, -w])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    raw = np.outer(e1, e2) + np.outer(e2, phi_minus)
    gram = raw.T @ raw
    k = 1.0 / math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
    effect_1 = k * raw
    residual = np.eye(2) - effect_1.T @ effect_1
    vals, vecs = np.linalg.eigh(residual)
    chi = vecs[:, -1]
    effect_2 = math.sqrt(max(float(vals[-1]), 0.0)) * np.outer(chi, chi)
    return DistillationPOVM(E1=effect_1, E2=effect_2)


def distillation_outcome_distribution(modes: int, alpha) -> np.ndarray:
    """Exact probability of ending with n split outcomes, n = 0 .. N.

    Computed by dynamic programming over (mode index, split flag, count):
    before any split the split probability at a step with ``rem`` unmeasured
    modes is (1 - w)/(1 + w^rem); afterwards it is 1 - w independently.
    """
    if modes < 1:
        raise DomainError(f"modes must be >= 1, got {modes}")
    w = branch_overlap(alpha)
    # unsplit[j] = probability of no split in the first j modes
    probs = np.zeros(modes + 1)
    unsplit = 1.0
    first_at = np.zeros(modes + 1)
    for j in range(1, modes + 1):
        rem = modes - j + 1
        p_split = (1.0 - w) / (1.0 + w ** rem)
        first_at[j] = unsplit * p_split
        unsplit *= 1.0 - p_split
    probs[0] = unsplit
    # after a first split at mode m the remaining N - m modes split i.i.d.
    for m in range(1, modes + 1):
        rest = modes - m
        for extra in range(rest + 1):
            comb = math.comb(rest, extra)
            probs[1 + extra] += (
                first_at[m] * comb * (1.0 - w) ** extra * w ** (rest - extra)
            )
    return probs


def simulate_distillation(modes: int, alpha, trials: int, seed: int) -> TrajectoryStats:
    """Sample the mode-by-mode POVM cascade; outcome is the split count n.

    The two branch coefficients start equal and stay equal under both
    outcomes (each multiplies them by one common scalar), so the exact Born
    probabilities depend only on whether a split has happened yet and on the
    number of unmeasured modes; that is what each trajectory tracks.
    """
    _check_trials(trials)
    _check_seed(seed)
    if modes < 1:
        raise DomainError(f"modes must be >= 1, got {modes}")
    if alpha == 0:
        raise DomainError("the branch span degenerates at alpha = 0")
    w = branch_overlap(alpha)
    p_after = 1.0 - w
    counts: dict[int, int] = {}
    first_counts: dict[int, int] = {}
    for rows in _batches(trials):
        split = np.zeros(rows.shape, bool)
        n = np.zeros(rows.shape, np.int64)
        first = np.zeros(rows.shape, np.int64)
        for j, u in enumerate(_uniform_columns(seed, rows, modes)):
            hit = u < np.where(split, p_after, p_after / (1.0 + w ** (modes - j)))
            n += hit
            first[hit & ~split] = j + 1
            split |= hit
        _tally(counts, n)
        _tally(first_counts, first)
    mean, var, se = _stats_fields(list(counts.items()))
    return TrajectoryStats(
        trials=trials,
        histogram=dict(sorted(counts.items())),
        mean=mean,
        variance=var,
        std_error=se,
        seed=seed,
        extra={
            # key 0 counts the all-E2 event with no split at all
            "first_split_histogram": dict(sorted(first_counts.items())),
        },
    )


# ---------------------------------------------------------------------------
# probabilistic mode loss
# ---------------------------------------------------------------------------

def simulate_mode_loss(
    modes: int, alpha, lam: float, trials: int, seed: int
) -> TrajectoryStats:
    """Sample the off-diagonal amplitude after each mode is lost w.p. lam.

    A trial losing k modes leaves the coherence amplitude
    exp(-2 k |alpha|^2) / (2 + 2 exp(-2 N |alpha|^2)).  The headline mean is
    the geometric mean over trials, the exponential of the mean log
    amplitude: its expectation replaces k by N lam in the exponent, which is
    the closed form mode_loss_offdiag.  variance and std_error describe that
    estimator through the delta method (scale the log spread by the mean), so
    std_error = sqrt(variance / trials) still holds.  The plain arithmetic
    mean and a paired reference sharing the same loss draws (coherence 1/2
    iff no mode is lost) are reported under ``extra``.
    """
    _check_trials(trials)
    _check_seed(seed)
    if modes < 1:
        raise DomainError(f"modes must be >= 1, got {modes}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    a = abs2(alpha)
    big_w = math.exp(-2.0 * modes * a)
    log_norm = math.log(2.0 + 2.0 * big_w)
    counts: dict[int, int] = {}
    for rows in _batches(trials):
        lost = np.zeros(rows.shape, np.int64)
        for u in _uniform_columns(seed, rows, modes):
            lost += u < lam
        _tally(counts, lost)
    logs = [(-2.0 * lost * a - log_norm, c) for lost, c in counts.items()]
    amps = [(math.exp(x), c) for x, c in logs]
    no_loss = counts.get(0, 0)
    ghz = [(0.5, no_loss), (0.0, trials - no_loss)]
    log_mean, log_var, _ = _stats_fields(logs)
    mean = math.exp(log_mean)
    variance = mean * mean * log_var
    arith_mean, arith_var, arith_se = _stats_fields(amps)
    ghz_mean, ghz_var, ghz_se = _stats_fields(ghz)
    return TrajectoryStats(
        trials=trials,
        histogram=dict(sorted(counts.items())),
        mean=mean,
        variance=variance,
        std_error=math.sqrt(variance / trials),
        seed=seed,
        extra={
            "log_mean": log_mean,
            "log_variance": log_var,
            "arithmetic_mean": arith_mean,
            "arithmetic_variance": arith_var,
            "arithmetic_std_error": arith_se,
            "ghz_mean": ghz_mean,
            "ghz_variance": ghz_var,
            "ghz_std_error": ghz_se,
        },
    )


# ---------------------------------------------------------------------------
# branch collapse
# ---------------------------------------------------------------------------

class CollapseProblem(enum.Enum):
    BRANCH_VS_BRANCH = "branch-vs-branch"
    CAT_VS_MIXED = "cat-vs-mixed"
    CAT_VS_BRANCH = "cat-vs-branch"


def _span_frame(alpha):
    a_plus, a_minus = hcs_norms(alpha)
    w = branch_overlap(alpha)
    s = math.sqrt(1.0 - w * w)
    ket_a = np.array([1.0, 0.0])
    ket_ma = np.array([w, s])
    psi_plus = (ket_a + ket_ma) / a_plus
    psi_minus = (ket_a - ket_ma) / a_minus
    return w, ket_a, ket_ma, psi_plus, psi_minus


def simulate_branch_collapse(
    alpha, trials: int, seed: int, problem: CollapseProblem
) -> TrajectoryStats:
    """Apply a two-outcome optimal discrimination measurement to the cat.

    The measurement projects onto the eigenvectors of the density difference
    of the two hypotheses.  For CAT_VS_BRANCH the trials whose first outcome
    favored the branch hypothesis continue to a projective measurement in the
    orthonormalized pair closest to {|alpha>, |-alpha>}; ``trials`` then
    counts those continued trajectories (the full tally of requested
    trajectories is under ``extra``) and the headline mean is the final
    |alpha> frequency among them.
    """
    _check_trials(trials)
    _check_seed(seed)
    problem = CollapseProblem(problem)
    w, ket_a, ket_ma, psi_plus, psi_minus = _span_frame(alpha)
    rho_cat = np.outer(psi_plus, psi_plus)
    rho_a = np.outer(ket_a, ket_a)
    rho_ma = np.outer(ket_ma, ket_ma)
    if problem is CollapseProblem.BRANCH_VS_BRANCH:
        delta = rho_a - rho_ma
        labels = ("xi_plus", "xi_minus")
    elif problem is CollapseProblem.CAT_VS_MIXED:
        delta = rho_cat - 0.5 * (rho_a + rho_ma)
        labels = ("cat", "mixed")
    else:
        delta = rho_cat - rho_a
        labels = ("cat", "branch")
    vals, vecs = np.linalg.eigh(delta)
    vec_minus, vec_plus = vecs[:, 0], vecs[:, 1]
    p_plus = float(np.dot(vec_plus, psi_plus) ** 2)

    if problem is not CollapseProblem.CAT_VS_BRANCH:
        n_first = 0
        for rows in _batches(trials):
            (u,) = _uniform_columns(seed, rows, 1)
            n_first += int(np.count_nonzero(u < p_plus))
        counts = {labels[0]: n_first, labels[1]: trials - n_first}
        mean, var, se = _stats_fields([(1.0, n_first), (0.0, trials - n_first)])
        extra = {
            "p_first_outcome_exact": p_plus,
            "fidelity_with_alpha": {
                labels[0]: float(np.dot(vec_plus, ket_a) ** 2),
                labels[1]: float(np.dot(vec_minus, ket_a) ** 2),
            },
            "fidelity_with_minus_alpha": {
                labels[0]: float(np.dot(vec_plus, ket_ma) ** 2),
                labels[1]: float(np.dot(vec_minus, ket_ma) ** 2),
            },
        }
        return TrajectoryStats(
            trials=trials,
            histogram=counts,
            mean=mean,
            variance=var,
            std_error=se,
            seed=seed,
            extra=extra,
        )

    # CAT_VS_BRANCH: a branch-favoring first outcome is followed by the
    # projective measurement in the orthonormalized branch pair.
    tilde_a = (psi_plus + psi_minus) / math.sqrt(2.0)
    p_branch = 1.0 - p_plus
    p_alpha_given_branch = float(np.dot(tilde_a, vec_minus) ** 2)
    p_alpha_given_cat = float(np.dot(tilde_a, vec_plus) ** 2)
    n_cat = 0
    n_alpha = 0
    for rows in _batches(trials):
        u1, u2 = _uniform_columns(seed, rows, 2)
        cat = u1 < p_plus
        n_cat += int(np.count_nonzero(cat))
        n_alpha += int(np.count_nonzero(~cat & (u2 < p_alpha_given_branch)))
    n_other = trials - n_cat - n_alpha
    continued = n_alpha + n_other
    if continued == 0:
        mean, var, se = 0.0, 0.0, 0.0
    else:
        mean, var, se = _stats_fields([(1.0, n_alpha), (0.0, n_other)])
    return TrajectoryStats(
        trials=continued,
        histogram={"alpha": n_alpha, "minus_alpha": n_other},
        mean=mean,
        variance=var,
        std_error=se,
        seed=seed,
        extra={
            "requested_trials": trials,
            "joint_histogram": {
                "cat_outcome": n_cat,
                "branch_then_alpha": n_alpha,
                "branch_then_minus_alpha": n_other,
            },
            "p_branch_outcome_exact": p_branch,
            "p_alpha_given_branch_exact": p_alpha_given_branch,
            "p_alpha_given_cat_exact": p_alpha_given_cat,
            "p_alpha_unconditional_exact": (
                p_branch * p_alpha_given_branch + p_plus * p_alpha_given_cat
            ),
            "asymptote": 0.5 + 0.5 / math.sqrt(2.0),
        },
    )


def _check_trials(trials: int):
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")


def _check_seed(seed: int) -> int:
    """Require 0 <= seed < 2**64, the range of the Philox key word it becomes."""
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"expected a seed in [0, 2**64), got {seed}")
    return seed
