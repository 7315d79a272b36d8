"""Monte Carlo protocols: measurement elements, trajectories, statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from catsize.closed_forms import (
    branch_overlap,
    distill_expected_n,
    distill_pm,
    ghz_mode_loss_offdiag,
    mode_loss_offdiag,
    mode_loss_offdiag_mean,
)
from catsize.errors import DomainError
from catsize.simulate import (
    _BATCH,
    CollapseProblem,
    _batches,
    _stats_fields,
    _uniform_columns,
    build_distillation_povm,
    distillation_outcome_distribution,
    leading_draws,
    sampling_row,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)


# ---------------------------------------------------------------------------
# trajectory streams and statistics
# ---------------------------------------------------------------------------

def _generator_draws(seed, t, draws):
    """The per-trajectory stream that SEED_SCHEME names, drawn by numpy."""
    key = np.array([seed, t], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(draws)


def _kernel_draws(seed, rows, draws):
    return np.stack(list(_uniform_columns(seed, rows, draws)), axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("draws", range(1, 10))
def test_kernel_matches_numpy_philox_bitwise(seed, draws):
    rows = np.arange(5000, 5013, dtype=np.uint64)
    got = _kernel_draws(seed, rows, draws)
    want = np.stack([_generator_draws(seed, int(t), draws) for t in rows])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_kernel_streams_cross_a_batch_boundary():
    trials = _BATCH + 3
    got = np.concatenate([_kernel_draws(13, rows, 5) for rows in _batches(trials)])
    assert got.shape == (trials, 5)
    for t in (0, _BATCH - 2, _BATCH - 1, _BATCH, trials - 1):
        want = _generator_draws(13, t, 5)
        assert np.array_equal(got[t].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("first", [0, 2**63, 2**64 - 7])
def test_leading_draws_are_draw_zero_of_each_stream(seed, first):
    got = leading_draws(seed, first, 7)
    want = [_generator_draws(seed, t, 1)[0] for t in range(first, first + 7)]
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


@pytest.mark.parametrize("first, count", [(-1, 1), (2**64 - 3, 4)])
def test_leading_draws_refuse_streams_outside_the_key_word(first, count):
    with pytest.raises(DomainError):
        leading_draws(0, first, count)


def _fsum_stats(samples):
    """Reference: the statistics as math.fsum gives them on every sample."""
    n = len(samples)
    mean = math.fsum(samples) / n
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1) if n > 1 else 0.0
    return mean, var, math.sqrt(var / n)


def test_histogram_statistics_equal_fsum_bitwise():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        modes = int(rng.integers(1, 40))
        a = float(10.0 ** rng.uniform(-3, 3))
        log_norm = math.log(2.0 + 2.0 * math.exp(-2.0 * modes * a))
        bins = int(rng.integers(1, 6))
        lost = [int(k) for k in rng.integers(0, modes + 1, size=bins)]
        counts = [int(c) for c in rng.integers(1, 400, size=bins)]
        logs = [(-2.0 * k * a - log_norm, c) for k, c in zip(lost, counts)]
        for tally in (logs, [(math.exp(x), c) for x, c in logs], list(zip(lost, counts))):
            samples = [x for x, c in tally for _ in range(c)]
            got = _stats_fields(tally)
            want = _fsum_stats(samples)
            assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize(
    "run",
    [
        lambda seed: simulate_distillation(5, 0.8, 100, seed),
        lambda seed: simulate_mode_loss(5, 0.8, 0.25, 100, seed),
        lambda seed: simulate_branch_collapse(
            1.0, 100, seed, CollapseProblem.CAT_VS_BRANCH
        ),
    ],
    ids=["distill", "mode-loss", "collapse"],
)
def test_seed_outside_key_range_is_a_domain_error(run, seed):
    with pytest.raises(DomainError, match=r"expected a seed in \[0, 2\*\*64\)"):
        run(seed)


def test_statistics_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        _stats_fields([(-1e200, 3), (-2e200, 4)])
    with pytest.raises(DomainError):
        _stats_fields([(-math.inf, 1), (0.0, 2)])


# Captured with one numpy Generator per trajectory, for the README commands.
README_GOLDENS = {
    "distill": (
        lambda: simulate_distillation(5, 0.8, 200000, 42),
        {0: 634, 1: 4342, 2: 22347, 3: 58213, 4: 75263, 5: 39201},
        "0x1.cd44bb1af3a15p+1",
        "0x1.05e5ee5a2f5b6p+0",
    ),
    "mode-loss": (
        lambda: simulate_mode_loss(6, 1.0, 0.25, 100000, 42),
        {0: 17909, 1: 35603, 2: 29634, 3: 13233, 4: 3168, 5: 433, 6: 20},
        "0x1.9bbad150e570ap-6",
        "0x1.727419882505ep-9",
    ),
    "collapse": (
        lambda: simulate_branch_collapse(
            3.1622776601683795, 200000, 42, CollapseProblem.CAT_VS_BRANCH
        ),
        {"alpha": 25059, "minus_alpha": 4288},
        "0x1.b530945d44bf6p-1",
        "0x1.ff0d893168e91p-4",
    ),
}


@pytest.mark.parametrize("name", README_GOLDENS)
def test_readme_commands_reproduce_goldens(name):
    run, histogram, mean, variance = README_GOLDENS[name]
    stats = run()
    assert stats.histogram == histogram
    assert list(stats.histogram) == list(histogram)
    assert stats.mean.hex() == mean
    assert stats.variance.hex() == variance
    if name == "distill":
        assert stats.extra["first_split_histogram"] == {
            0: 634, 1: 144210, 2: 40090, 3: 11058, 4: 3133, 5: 875,
        }
    elif name == "mode-loss":
        assert stats.extra["arithmetic_mean"].hex() == "0x1.dd4347dcb6880p-4"
        assert stats.extra["ghz_mean"].hex() == "0x1.6ec6bce8533b1p-4"
    else:
        assert stats.extra["joint_histogram"]["cat_outcome"] == 170653


@pytest.mark.parametrize(
    "modes, trials", [(300, 20000), (6, 1_000_000)], ids=["many-modes", "many-trials"]
)
def test_mode_loss_memory_is_bounded(modes, trials):
    """Neither a samples list nor a (trials, modes) array of draws is built."""
    tracemalloc.start()
    try:
        stats = simulate_mode_loss(modes, 0.4, 0.01, trials, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(stats.histogram.values()) == trials
    assert peak < 4_000_000


# ---------------------------------------------------------------------------
# measurement elements
# ---------------------------------------------------------------------------

def test_povm_completeness():
    e1, e2 = build_distillation_povm(0.9)
    closure = e1.conj().T @ e1 + e2.conj().T @ e2
    assert np.abs(closure - np.eye(2)).max() < 1e-12


def test_povm_second_effect_explicit_form():
    alpha = 1.3
    w = branch_overlap(alpha)
    _, e2 = build_distillation_povm(alpha)
    chi = np.array([math.sqrt((1 + w) / 2), math.sqrt((1 - w) / 2)])
    expected = math.sqrt(2 * w / (1 + w)) * np.outer(chi, chi)
    assert np.abs(e2 - expected).max() < 1e-12


def test_povm_splitting_probability_is_branch_independent():
    """Both branches trigger the splitting outcome with probability 1 - w."""
    alpha = 0.8
    w = branch_overlap(alpha)
    s = math.sqrt(1 - w * w)
    e1, _ = build_distillation_povm(alpha)
    for branch in (np.array([1.0, 0.0]), np.array([w, s])):
        prob = float(np.linalg.norm(e1 @ branch) ** 2)
        assert prob == pytest.approx(1.0 - w, abs=1e-12)


def test_povm_rejects_vacuum():
    with pytest.raises(DomainError):
        build_distillation_povm(0.0)


# ---------------------------------------------------------------------------
# distillation
# ---------------------------------------------------------------------------

def test_outcome_distribution_is_exact():
    modes, alpha = 6, 0.9
    probs = distillation_outcome_distribution(modes, alpha)
    assert probs.shape == (modes + 1,)
    assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)
    mean = float(np.dot(np.arange(modes + 1), probs))
    assert mean == pytest.approx(distill_expected_n(modes, alpha), abs=1e-12)
    # zero splitting outcomes happen exactly when every POVM draw agrees
    assert probs[0] == pytest.approx(1.0 - math.tanh(modes * abs(alpha) ** 2), abs=1e-12)


def test_simulated_counts_match_distribution():
    modes, alpha, trials, seed = 5, 0.8, 20000, 13
    stats = simulate_distillation(modes, alpha, trials, seed)
    assert stats.trials == trials
    assert stats.seed == seed
    assert stats.mean == pytest.approx(
        distill_expected_n(modes, alpha), abs=4 * stats.std_error
    )
    probs = distillation_outcome_distribution(modes, alpha)
    for count, hits in stats.histogram.items():
        sigma = math.sqrt(trials * probs[count] * (1 - probs[count]))
        assert abs(hits - trials * probs[count]) <= 4 * sigma + 1


def test_first_split_histogram_matches_geometric_law():
    modes, alpha, trials, seed = 5, 0.8, 20000, 29
    stats = simulate_distillation(modes, alpha, trials, seed)
    hist = stats.extra["first_split_histogram"]
    assert sum(hist.values()) == trials
    for m in (1, 2, 3):
        p = distill_pm(m, modes, alpha)
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hist.get(m, 0) - trials * p) <= 4 * sigma
    p_none = 1.0 - math.tanh(modes * abs(alpha) ** 2)
    sigma = math.sqrt(trials * p_none * (1 - p_none))
    assert abs(hist.get(0, 0) - trials * p_none) <= 4 * sigma + 1


def test_distillation_is_deterministic_per_seed():
    one = simulate_distillation(4, 0.7, 300, 5)
    two = simulate_distillation(4, 0.7, 300, 5)
    other = simulate_distillation(4, 0.7, 300, 6)
    assert one.histogram == two.histogram
    assert one.mean == two.mean
    assert one.histogram != other.histogram
    assert one.seed_scheme == "philox(key=uint64[seed, trajectory_index])"


# ---------------------------------------------------------------------------
# mode loss
# ---------------------------------------------------------------------------

def test_mode_loss_headline_is_geometric_mean():
    modes, alpha, lam, trials, seed = 6, 1.0, 0.25, 20000, 3
    stats = simulate_mode_loss(modes, alpha, lam, trials, seed)
    expected = mode_loss_offdiag(modes, alpha, lam)
    assert stats.mean == pytest.approx(expected, abs=4 * stats.std_error)
    # the headline is the exponential of the mean log amplitude
    assert stats.mean == pytest.approx(math.exp(stats.extra["log_mean"]), rel=1e-12)


def test_mode_loss_extra_tracks_arithmetic_and_reference():
    modes, alpha, lam, trials, seed = 6, 1.0, 0.25, 20000, 17
    stats = simulate_mode_loss(modes, alpha, lam, trials, seed)
    arith = mode_loss_offdiag_mean(modes, alpha, lam)
    assert stats.extra["arithmetic_mean"] == pytest.approx(
        arith, abs=4 * stats.extra["arithmetic_std_error"]
    )
    ghz = ghz_mode_loss_offdiag(modes, lam)
    assert stats.extra["ghz_mean"] == pytest.approx(
        ghz, abs=4 * stats.extra["ghz_std_error"]
    )
    # the arithmetic mean sits strictly above the geometric headline here
    assert stats.extra["arithmetic_mean"] > stats.mean


def test_mode_loss_degenerate_rates():
    stats = simulate_mode_loss(4, 0.9, 0.0, 500, 1)
    assert stats.variance == 0.0
    assert stats.mean == pytest.approx(mode_loss_offdiag(4, 0.9, 0.0), rel=1e-12)
    stats = simulate_mode_loss(4, 0.9, 1.0, 500, 1)
    assert stats.mean == pytest.approx(mode_loss_offdiag(4, 0.9, 1.0), rel=1e-12)


def test_mode_loss_rejects_bad_rate():
    with pytest.raises(DomainError):
        simulate_mode_loss(4, 0.9, 1.2, 100, 0)


# ---------------------------------------------------------------------------
# collapse measurements
# ---------------------------------------------------------------------------

def test_branch_vs_branch_outcome_probability_is_half():
    stats = simulate_branch_collapse(1.2, 5000, 7, CollapseProblem.BRANCH_VS_BRANCH)
    assert stats.extra["p_first_outcome_exact"] == pytest.approx(0.5, abs=1e-12)
    assert stats.mean == pytest.approx(0.5, abs=4 * stats.std_error)
    assert set(stats.histogram) == {"xi_plus", "xi_minus"}


def test_branch_vs_branch_collapsed_states_resemble_branches():
    alpha = math.sqrt(2.0)
    stats = simulate_branch_collapse(alpha, 100, 7, CollapseProblem.BRANCH_VS_BRANCH)
    w = branch_overlap(alpha)
    expected = (1 + math.sqrt(1 - w * w)) / 2
    fid = stats.extra["fidelity_with_alpha"]["xi_plus"]
    assert fid == pytest.approx(expected, abs=1e-10)
    assert fid > 0.99
    assert stats.extra["fidelity_with_minus_alpha"]["xi_minus"] > 0.99


def test_cat_vs_mixed_never_errs():
    stats = simulate_branch_collapse(1.1, 3000, 11, CollapseProblem.CAT_VS_MIXED)
    assert stats.mean == 1.0
    assert stats.histogram["mixed"] == 0


def test_cat_vs_branch_conditional_scheme():
    alpha = math.sqrt(10.0)
    requested = 30000
    stats = simulate_branch_collapse(alpha, requested, 19, CollapseProblem.CAT_VS_BRANCH)
    extra = stats.extra
    assert extra["requested_trials"] == requested
    joint = extra["joint_histogram"]
    assert (
        joint["cat_outcome"] + joint["branch_then_alpha"] + joint["branch_then_minus_alpha"]
        == requested
    )
    assert stats.trials == joint["branch_then_alpha"] + joint["branch_then_minus_alpha"]
    # headline frequency estimates the conditional branch-then-alpha rate
    assert stats.mean == pytest.approx(
        extra["p_alpha_given_branch_exact"], abs=4 * stats.std_error
    )
    asym = 0.5 + 0.5 / math.sqrt(2.0)
    assert extra["asymptote"] == pytest.approx(asym, rel=1e-15)
    assert extra["p_alpha_given_branch_exact"] == pytest.approx(asym, abs=1e-8)
    # the unconditional rate decomposes over the first outcome
    recomposed = (
        extra["p_branch_outcome_exact"] * extra["p_alpha_given_branch_exact"]
        + (1 - extra["p_branch_outcome_exact"]) * extra["p_alpha_given_cat_exact"]
    )
    assert extra["p_alpha_unconditional_exact"] == pytest.approx(recomposed, abs=1e-12)
    assert extra["p_alpha_unconditional_exact"] == pytest.approx(0.25, abs=1e-6)


def test_collapse_rejects_vacuum_and_bad_trials():
    with pytest.raises(DomainError):
        simulate_branch_collapse(0.0, 100, 0, CollapseProblem.BRANCH_VS_BRANCH)
    with pytest.raises(DomainError):
        simulate_distillation(4, 0.8, 0, 0)


def test_collapse_streams_align_across_problems():
    """Problems draw the same per-trajectory uniforms, so the first-outcome
    tallies of two problems with equal exact probabilities coincide."""
    a = simulate_branch_collapse(1.0, 2000, 23, CollapseProblem.BRANCH_VS_BRANCH)
    b = simulate_branch_collapse(2.0, 2000, 23, CollapseProblem.BRANCH_VS_BRANCH)
    # both problems have p = 1/2 exactly; identical seeds give identical tallies
    assert a.histogram["xi_plus"] == b.histogram["xi_plus"]


def test_sampling_row_accepts_five_standard_errors():
    assert sampling_row("mean", 1.5, 1.0, 0.1) == {
        "name": "mean", "status": "pass", "observed": 1.5, "expected": 1.0,
        "tolerance": 0.5,
    }
    assert sampling_row("mean", 1.5, 1.0, 0.0999)["status"] == "fail"
