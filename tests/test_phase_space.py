"""Wigner kernels, the displaced-parity oracle, grids, and feature extraction."""

import decimal
import io
import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import build_state, tensor

from catsize.closed_forms import CatFamily, CatStateSpec, abs2
from catsize.errors import DomainError, ResolutionError, SizingError, TruncationError
from catsize.fock import MAX_JOINT_DIM, coherent_vector
from catsize.phase_space import (
    _CSV_BLOCK_ROWS,
    CONVENTION,
    AxisSpec,
    WignerGrid,
    default_feature_window,
    extract_features,
    grid_line,
    grid_to_json,
    plane_axes,
    wigner_branches,
    wigner_closed,
    wigner_cutoff,
    wigner_gap,
    wigner_grid,
    wigner_numeric,
    write_grid_csv,
)

TWO_OVER_PI = 2.0 / math.pi


def even_cat(alpha, modes: int = 1) -> CatStateSpec:
    fam = CatFamily.EVEN_CAT if modes == 1 else CatFamily.OMEGA
    return CatStateSpec(family=fam, modes=modes, alpha=alpha)


def kitten(alpha, parity: int = 1) -> CatStateSpec:
    """The even (``parity`` +1) or odd (-1) single-mode cat."""
    fam = CatFamily.EVEN_CAT if parity == 1 else CatFamily.ODD_CAT
    return CatStateSpec(family=fam, modes=1, alpha=alpha)


def coherent(alpha, modes: int = 1) -> CatStateSpec:
    return CatStateSpec(family=CatFamily.PRODUCT_COHERENT, modes=modes, alpha=alpha)


def hcs2(alpha) -> CatStateSpec:
    return CatStateSpec(family=CatFamily.HCS, modes=2, alpha=alpha)


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def test_coherent_kernel_peaks_at_alpha():
    alpha = 1.3 - 0.4j
    assert wigner_closed(coherent(alpha), alpha) == pytest.approx(TWO_OVER_PI, rel=1e-14)
    offset = 0.8 + 0.2j
    expected = TWO_OVER_PI * math.exp(-2.0 * abs2(offset))
    assert wigner_closed(coherent(alpha), alpha + offset) == pytest.approx(expected, rel=1e-13)


def test_even_cat_reference_points():
    # second route: raw displaced-parity sums over a truncated basis
    state = kitten(2.0)
    assert wigner_closed(state, 0.0) == pytest.approx(0.6366197723675814, abs=1e-14)
    assert wigner_closed(state, 2.0) == pytest.approx(0.3184166314456553, abs=1e-14)
    assert wigner_closed(state, 1j * math.pi / 8) == pytest.approx(
        -0.4673490976644263, abs=1e-13
    )
    assert wigner_closed(state, 1j * math.pi / 4) == pytest.approx(
        0.18539191125320564, abs=1e-13
    )


@pytest.mark.parametrize("alpha", [0.3, 1.1, 2.7])
def test_even_cat_origin_value_is_universal(alpha):
    assert wigner_closed(kitten(alpha), 0.0) == pytest.approx(TWO_OVER_PI, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.4, 1.0, 2.2])
def test_odd_cat_origin_value_is_universal(alpha):
    assert wigner_closed(kitten(alpha, -1), 0.0) == pytest.approx(
        -TWO_OVER_PI, abs=1e-14
    )


def test_odd_cat_degenerates_at_zero_alpha():
    with pytest.raises(DomainError):
        wigner_closed(kitten(0.0, -1), 0.5)


def test_omega_reference_points():
    # second route: raw displaced-parity sums over a truncated basis
    pts = {
        (0.0, 0.0): 0.40528473456935116,
        (1.0, 1.0): 0.20628715784410265,
        (1.0, -1.0): 0.007423048845488719,
    }
    for (g1, g2), expected in pts.items():
        got = wigner_closed(even_cat(1.0, modes=2), g1, g2)
        assert got == pytest.approx(expected, abs=1e-14)


def test_omega_single_mode_reduces_to_even_cat():
    rng = np.random.default_rng(71)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    for alpha in (0.7, 1.6):
        omega = CatStateSpec(family=CatFamily.OMEGA, modes=1, alpha=alpha)
        lhs = wigner_closed(omega, pts)
        rhs = wigner_closed(kitten(alpha), pts)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_omega_coordinate_count_is_checked():
    # two coordinates of three modes are a reduced state; four are refused
    with pytest.raises(DomainError, match="expected 1 to 3 phase-space coordinates, got 4"):
        wigner_closed(even_cat(1.0, modes=3), *[0.1 + 0j] * 4)
    with pytest.raises(DomainError, match="expected 1 to 3 phase-space coordinates, got 0"):
        wigner_closed(even_cat(1.0, modes=3))


@pytest.mark.parametrize(
    "family, modes, gamma2",
    [(fam, 1, None) for fam in (CatFamily.EVEN_CAT, CatFamily.ODD_CAT,
                                CatFamily.PRODUCT_COHERENT, CatFamily.OMEGA)]
    + [(fam, 2, g2) for fam in (CatFamily.OMEGA, CatFamily.HCS, CatFamily.PRODUCT_COHERENT)
       for g2 in (None, 0.4 - 0.3j)],
)
def test_closed_dispatch_matches_each_family_formula_on_sparse_grids(family, modes, gamma2):
    alpha = 1.1 + 0.3j
    state = CatStateSpec(family=family, modes=modes, alpha=alpha)
    axes = plane_axes(modes, grid_line(-2.5, 2.5, 41), gamma2)
    mesh = np.meshgrid(*(np.atleast_1d(axes[n]) for n in axes), indexing="ij", sparse=True)
    gammas = [mesh[2 * m] + 1j * mesh[2 * m + 1] for m in range(modes)]
    # the same closed form on dense coordinates, one value per grid point
    want = np.asarray(wigner_closed(state, *np.broadcast_arrays(*gammas)), dtype=float)
    got = wigner_grid(state, axes).values
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.asarray(wigner_closed(state, *gammas)).tobytes() == want.tobytes()


CLOSED_FAMILY_MODES = [
    (CatFamily.EVEN_CAT, 1), (CatFamily.ODD_CAT, 1),
    *[(fam, n) for fam in (CatFamily.PRODUCT_COHERENT, CatFamily.OMEGA, CatFamily.HCS)
      for n in (1, 2, 3, 4)],
]


@pytest.mark.parametrize("alpha", [0.7, 1.2 + 0.4j, 1.5])
@pytest.mark.parametrize(
    "family, modes, k",
    [(fam, n, k) for fam, n in CLOSED_FAMILY_MODES for k in range(1, n + 1)],
)
def test_closed_form_matches_the_branch_route(family, modes, k, alpha):
    # the reduced state of the first k modes, closed against numeric; the
    # numeric route's cutoff leaves up to 1e-6 of mass in its top levels
    state = CatStateSpec(family=family, modes=modes, alpha=alpha)
    rng = np.random.default_rng(500 + 10 * modes + k)
    points = rng.uniform(-2.0, 2.0, (12, k)) + 1j * rng.uniform(-2.0, 2.0, (12, k))
    closed = wigner_closed(state, *points.T)
    assert closed.shape == (12,)
    assert np.abs(closed - wigner_branches(state, points)).max() <= 1e-7


def test_hcs2_reference_points():
    # second route: raw displaced-parity sums over a truncated basis
    pts = {
        (0.0 + 0j, 0.0 + 0j): 0.4052847345693511,
        (1.5 + 0j, 1.5 + 0j): 0.2026423703709147,
        (1.5 + 0j, -1.5 + 0j): -2.5001881987113223e-05,
        (0.5 + 0.25j, -0.75 + 0j): 0.004774726750541339,
    }
    for (g1, g2), expected in pts.items():
        assert wigner_closed(hcs2(1.5), g1, g2) == pytest.approx(expected, abs=1e-13)


def test_hcs2_degenerates_at_zero_alpha():
    with pytest.raises(DomainError):
        wigner_closed(hcs2(0.0), 0.1, 0.1)


def test_kernels_are_parity_symmetric():
    rng = np.random.default_rng(23)
    pts = rng.normal(scale=1.4, size=10) + 1j * rng.normal(scale=1.4, size=10)
    np.testing.assert_allclose(
        wigner_closed(kitten(1.2), pts), wigner_closed(kitten(1.2), -pts), rtol=0, atol=1e-14
    )
    omega = even_cat(0.9, modes=2)
    joint = np.stack([pts, np.roll(pts, 3)], axis=-1)
    np.testing.assert_allclose(
        wigner_closed(omega, *joint.T), wigner_closed(omega, *(-joint).T), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        wigner_closed(hcs2(1.1), pts, np.roll(pts, 3)),
        wigner_closed(hcs2(1.1), -pts, -np.roll(pts, 3)),
        rtol=0,
        atol=1e-14,
    )


# ---------------------------------------------------------------------------
# closed forms against a 50-digit reference
# ---------------------------------------------------------------------------

D = decimal.Decimal
PI = D("3.14159265358979323846264338327950288419716939937510582097494459")
#: Largest error of a closed Wigner value, relative to the largest term of its
#: formula with the odd numerator and gp - gm written so they do not cancel.
REFERENCE_TOL = 1e-12
REF_ALPHAS = [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 6e-7 - 8e-7j]
REF_GAMMAS = [1.0, 0.3 + 0.2j, -0.7 + 0.5j, 0.1 - 1.2j]


def _cos_sin(x):
    """cos x and sin x from their Taylor series, to the context's precision."""
    cos, sin, term, n = D(0), D(0), D(1), 0
    while abs(term) > D("1e-60"):
        sign = -1 if n % 4 >= 2 else 1
        if n % 2 == 0:
            cos += sign * term
        else:
            sin += sign * term
        n += 1
        term = term * x / n
    return cos, sin


def _gaussians(gamma, alpha):
    """Exact gp, gm and env about alpha, -alpha and 0 at ``gamma``, the
    branch overlap w, and u, theta = 4 Re, 4 Im of conj(alpha) gamma."""
    gr, gi, ar, ai = (D(v) for v in (gamma.real, gamma.imag, alpha.real, alpha.imag))
    gp = (-2 * ((gr - ar) ** 2 + (gi - ai) ** 2)).exp()
    gm = (-2 * ((gr + ar) ** 2 + (gi + ai) ** 2)).exp()
    env = (-2 * (gr * gr + gi * gi)).exp()
    w = (-2 * (ar * ar + ai * ai)).exp()
    return gp, gm, env, w, 4 * (ar * gr + ai * gi), 4 * (ar * gi - ai * gr)


def _kitten_reference(gamma, alpha):
    """Exact kitten pieces at ``gamma`` as (value, largest term) pairs: the
    even and odd numerators, gp - gm and env sin(theta); and w."""
    gp, gm, env, w, u, theta = _gaussians(gamma, alpha)
    cos, sin = _cos_sin(theta)
    sin_half = _cos_sin(theta / 2)[1]
    sinh_half = ((u / 2).exp() - (-u / 2).exp()) / 2
    cosh = (u.exp() + (-u).exp()) / 2
    odd_terms = (2 * sinh_half ** 2, 2 * sin_half ** 2, (1 - w) * cosh)
    return (
        (gp + gm + 2 * env * cos, max(gp, gm, 2 * env)),
        (gp + gm - 2 * env * cos, 2 * env * max(odd_terms)),
        (gp - gm, abs(gp - gm)),
        (env * sin, abs(env * sin)),
    ), w


def _hcs_reference(gammas, alpha, modes):
    """Exact HCS value of the first k = len(gammas) of ``modes`` modes and
    its largest block: the even and odd products over A+^2k and A-^2k, and
    at k = modes the cross block 2 Re prod (d_i + 2i s_i) / (A+ A-)^modes,
    bounded by prod (|d_i| + 2|s_i|)."""
    k = len(gammas)
    pieces = [_kitten_reference(g, alpha)[0] for g in gammas]
    w = _kitten_reference(gammas[0], alpha)[1]
    blocks = [
        (math.prod(p[0][0] for p in pieces), math.prod(p[0][1] for p in pieces), (2 + 2 * w) ** k),
        (math.prod(p[1][0] for p in pieces), math.prod(p[1][1] for p in pieces), (2 - 2 * w) ** k),
    ]
    if k == modes:
        re, im, bound = D(1), D(0), D(1)
        for _, _, (d, d_abs), (s, s_abs) in pieces:
            re, im = re * d - im * 2 * s, re * 2 * s + im * d
            bound *= d_abs + 2 * s_abs
        blocks.append((2 * re, 2 * bound, (4 * (1 - w * w)).sqrt() ** modes))
    scale = 2 * (PI / 2) ** k
    return sum(v / n for v, _, n in blocks) / scale, max(t / n for _, t, n in blocks) / scale


def _omega_reference(gammas, alpha, modes):
    """Exact Omega value of the first k = len(gammas) of ``modes`` modes, and
    its largest term: (prod gp + prod gm + 2 w^(modes - k) prod env cos(sum
    theta)) / ((2 + 2 w^modes) (pi/2)^k)."""
    parts = [_gaussians(g, alpha) for g in gammas]
    w = parts[0][3]
    plus, minus = math.prod(p[0] for p in parts), math.prod(p[1] for p in parts)
    cross = 2 * w ** (modes - len(gammas)) * math.prod(p[2] for p in parts)
    norm = (2 + 2 * w ** modes) * (PI / 2) ** len(gammas)
    cos = _cos_sin(sum(p[5] for p in parts))[0]
    return (plus + minus + cross * cos) / norm, max(plus, minus, cross) / norm


def _ref_points(k):
    """k coordinates per point, cycling through REF_GAMMAS."""
    n = len(REF_GAMMAS)
    return [tuple(REF_GAMMAS[(i + j) % n] for j in range(k)) for i in range(n)]


@pytest.mark.parametrize("alpha", REF_ALPHAS)
@pytest.mark.parametrize("parity", [1, -1])
def test_cat_matches_a_decimal_reference(alpha, parity):
    with decimal.localcontext(prec=50):
        for gamma in REF_GAMMAS:
            pieces, w = _kitten_reference(gamma, alpha)
            num, largest = pieces[0] if parity == 1 else pieces[1]
            norm = (2 + 2 * parity * w) * PI / 2
            got = wigner_closed(kitten(alpha, parity), gamma)
            assert abs(D(float(got)) - num / norm) <= D(REFERENCE_TOL) * largest / norm


@pytest.mark.parametrize("alpha", REF_ALPHAS)
def test_hcs2_matches_a_decimal_reference(alpha):
    with decimal.localcontext(prec=50):
        for gamma1, gamma2 in _ref_points(2):
            want, largest = _hcs_reference((gamma1, gamma2), alpha, 2)
            got = wigner_closed(hcs2(alpha), gamma1, gamma2)
            assert abs(D(float(got)) - want) <= D(REFERENCE_TOL) * largest


@pytest.mark.parametrize("alpha", REF_ALPHAS)
@pytest.mark.parametrize("modes, k", [(3, 3), (2, 1), (3, 1), (3, 2), (4, 2)])
def test_hcs_matches_a_decimal_reference(alpha, modes, k):
    state = CatStateSpec(family=CatFamily.HCS, modes=modes, alpha=alpha)
    with decimal.localcontext(prec=50):
        for gammas in _ref_points(k):
            want, largest = _hcs_reference(gammas, alpha, modes)
            got = wigner_closed(state, *gammas)
            assert abs(D(float(got)) - want) <= D(REFERENCE_TOL) * largest


@pytest.mark.parametrize("alpha", REF_ALPHAS)
@pytest.mark.parametrize("modes, k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_omega_matches_a_decimal_reference(alpha, modes, k):
    state = CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha)
    with decimal.localcontext(prec=50):
        for gammas in _ref_points(k):
            want, largest = _omega_reference(gammas, alpha, modes)
            got = wigner_closed(state, *gammas)
            assert abs(D(float(got)) - want) <= D(REFERENCE_TOL) * largest


def test_gap_of_the_odd_cat_at_tiny_alpha():
    # the numeric route's odd kitten keeps only the odd Fock terms of
    # |alpha> - |-alpha>, each exact, so the gap is the closed form's error
    state = CatStateSpec(family=CatFamily.ODD_CAT, modes=1, alpha=1e-6)
    assert wigner_gap(state, [(g,) for g in REF_GAMMAS]) <= 1e-9


@pytest.mark.parametrize("alpha,parity", [(1.0, 1), (2.0, 1), (1.0, -1)])
def test_single_mode_magnitude_bound(alpha, parity):
    lo, hi, n = default_feature_window(alpha)
    line = np.linspace(lo, hi, n)
    gx, gy = np.meshgrid(line, line, indexing="ij")
    vals = wigner_closed(kitten(alpha, parity), gx + 1j * gy)
    assert float(np.abs(vals).max()) <= TWO_OVER_PI + 1e-12


@pytest.mark.parametrize("alpha,parity", [(1.2, 1), (1.0, -1)])
def test_grid_integral_is_unity(alpha, parity):
    half = abs(alpha) + 4.0
    line = np.linspace(-half, half, 301)
    step = line[1] - line[0]
    gx, gy = np.meshgrid(line, line, indexing="ij")
    vals = wigner_closed(kitten(alpha, parity), gx + 1j * gy)
    assert float(vals.sum() * step * step) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# numeric displaced-parity route
# ---------------------------------------------------------------------------

def test_numeric_matches_closed_form_single_mode():
    rng = np.random.default_rng(404)
    for alpha, parity in ((1.2, 1), (1.2, -1)):
        fam = CatFamily.EVEN_CAT if parity == 1 else CatFamily.ODD_CAT
        state = CatStateSpec(family=fam, modes=1, alpha=alpha)
        vec = build_state(state, cutoff=60)
        for _ in range(20):
            gamma = complex(rng.normal(), rng.normal())
            closed = float(wigner_closed(state, gamma))
            numeric = wigner_numeric(vec, [gamma])
            assert numeric == pytest.approx(closed, abs=1e-12)


def test_numeric_matches_closed_form_two_mode():
    rng = np.random.default_rng(405)
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    vec = build_state(state, cutoff=56)
    for _ in range(12):
        pair = rng.normal(size=2) + 1j * rng.normal(size=2)
        closed = float(wigner_closed(state, *pair))
        numeric = wigner_numeric(vec, pair)
        assert numeric == pytest.approx(closed, abs=1e-12)


def test_numeric_matches_closed_form_hidden_pair():
    rng = np.random.default_rng(406)
    vec = build_state(hcs2(1.5), cutoff=40)
    for _ in range(12):
        pair = rng.normal(size=2) + 1j * rng.normal(size=2)
        closed = float(wigner_closed(hcs2(1.5), *pair))
        numeric = wigner_numeric(vec, pair)
        assert numeric == pytest.approx(closed, abs=1e-6)


def test_numeric_guards_cutoff_headroom(monkeypatch):
    vec = tensor(coherent_vector(1.0, 12))
    with pytest.raises(TruncationError) as numeric:
        wigner_numeric(vec, [3.0 + 3.0j])
    # the branch route refuses the same point through the same guard; its
    # displacement rounds differently, so the mass agrees to rounding only
    monkeypatch.setattr("catsize.phase_space.wigner_cutoff", lambda peak, gammas: 12)
    with pytest.raises(TruncationError) as branch:
        wigner_branches(coherent(1.0), [[3.0 + 3.0j]])
    assert str(branch.value) == str(numeric.value)
    assert branch.value.cutoff == numeric.value.cutoff == 12
    assert branch.value.tail_mass == pytest.approx(numeric.value.tail_mass, rel=1e-14)


def test_numeric_coordinate_count_is_checked():
    vec = tensor(coherent_vector(0.5, 10))
    with pytest.raises(DomainError):
        wigner_numeric(vec, [0.1, 0.2])
    with pytest.raises(DomainError):
        wigner_numeric(vec, [])


def test_numeric_reduced_state_of_two_mode_omega():
    # tracing the second mode leaves (|a><a| + |-a><-a| + w(|a><-a| + h.c.))
    # / (2 + 2w^2) with w = <a|-a> = exp(-2|a|^2)
    alpha = 0.8 + 0.6j
    vec = build_state(
        CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=alpha), cutoff=56
    )
    w = math.exp(-2.0 * abs2(alpha))
    rng = np.random.default_rng(407)
    for _ in range(20):
        gamma = complex(rng.normal(), rng.normal())
        g_plus = math.exp(-2.0 * abs2(gamma - alpha))
        g_minus = math.exp(-2.0 * abs2(gamma + alpha))
        env = math.exp(-2.0 * abs2(gamma))
        theta = 4.0 * (alpha.conjugate() * gamma).imag
        closed = TWO_OVER_PI * (
            g_plus + g_minus + 2.0 * w * env * math.cos(theta)
        ) / (2.0 + 2.0 * w * w)
        assert wigner_numeric(vec, [gamma]) == pytest.approx(closed, abs=1e-12)


# ---------------------------------------------------------------------------
# branch route
# ---------------------------------------------------------------------------

BRANCH_CASES = [
    (CatFamily.EVEN_CAT, 1, 1.3),
    (CatFamily.ODD_CAT, 1, 0.9 - 0.3j),
    (CatFamily.PRODUCT_COHERENT, 1, 1.2),
    (CatFamily.PRODUCT_COHERENT, 2, 0.7 + 0.5j),
    (CatFamily.PRODUCT_COHERENT, 3, -0.6),
    (CatFamily.OMEGA, 1, 1.1),
    (CatFamily.OMEGA, 2, 0.8 + 0.6j),
    (CatFamily.OMEGA, 3, 1.0),
    (CatFamily.HCS, 2, 1.5),
    (CatFamily.HCS, 3, 0.9 + 0.4j),
]


@pytest.mark.parametrize(
    "family, modes, alpha, k",
    [(f, n, a, k) for f, n, a in BRANCH_CASES for k in range(1, n + 1)],
)
def test_branch_route_matches_the_joint_vector(family, modes, alpha, k):
    # the same truncated state and cutoff, summed over branch pairs instead
    # of displaced as one joint vector; k < modes is the reduced state
    state = CatStateSpec(family=family, modes=modes, alpha=alpha)
    rng = np.random.default_rng(410 + 10 * modes + k)
    points = rng.normal(size=(8, k)) + 1j * rng.normal(size=(8, k))
    vec = build_state(state, cutoff=wigner_cutoff(alpha, points))
    want = [wigner_numeric(vec, point) for point in points]
    got = wigner_branches(state, points)
    assert got.shape == (8,)
    assert np.abs(got - want).max() <= 1e-12


def test_branch_route_guards_cutoff_headroom(monkeypatch):
    # the point test_numeric_guards_cutoff_headroom refuses, after one that passes
    monkeypatch.setattr("catsize.phase_space.wigner_cutoff", lambda peak, gammas: 12)
    state = CatStateSpec(family=CatFamily.PRODUCT_COHERENT, modes=1, alpha=1.0)
    with pytest.raises(TruncationError, match="on mode 0: top-3 mass"):
        wigner_branches(state, [[0.0], [3.0 + 3.0j]])


@pytest.mark.parametrize(
    "modes, point, mode", [(2, [1.5], 1), (3, [1.5], 1), (3, [1.5, 1.5], 2)]
)
def test_branch_route_guards_the_undisplaced_modes(monkeypatch, modes, point, mode):
    # at cutoff 20 the displaced |1.5> is vacuum to 6e-17 of its mass and
    # the undisplaced |1.5> keeps 4e-11 in its top levels, so a guard of
    # 1e-12 trips on the first undisplaced mode only, in both routes
    monkeypatch.setattr("catsize.phase_space._HEADROOM_TOL", 1e-12)
    monkeypatch.setattr("catsize.phase_space.wigner_cutoff", lambda peak, gammas: 20)
    state = CatStateSpec(family=CatFamily.PRODUCT_COHERENT, modes=modes, alpha=1.5)
    match = f"on mode {mode}: "
    with pytest.raises(TruncationError, match=match):
        wigner_numeric(build_state(state, cutoff=20), point)
    with pytest.raises(TruncationError, match=match):
        wigner_branches(state, [point])


def test_branch_route_refuses_more_amplitudes_than_the_budget():
    # a read-only broadcast view: the refusal comes before any (P, d, B) array
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    points = np.broadcast_to(np.zeros((1, 2), dtype=complex), (MAX_JOINT_DIM // 16, 2))
    with pytest.raises(SizingError, match="displaced amplitudes"):
        wigner_branches(state, points)


@pytest.mark.parametrize("points", [[[0.1, 0.2]], [[]], [], [0.1, 0.2]])
def test_branch_route_checks_the_point_shape(points):
    state = CatStateSpec(family=CatFamily.EVEN_CAT, modes=1, alpha=1.0)
    with pytest.raises(DomainError):
        wigner_branches(state, points)


# ---------------------------------------------------------------------------
# fringe suppression under partial trace
# ---------------------------------------------------------------------------

def _interference(state, *gammas):
    """(2 + 2 w^N) W - (2/pi)^k (prod gp + prod gm) of the first k modes of
    the N-mode Omega ``state``: the reduced state's interference term,
    2 w^(N - k) (2/pi)^k prod env cos(sum theta)."""
    alpha = state.alpha
    norm = 2.0 + 2.0 * math.exp(-2.0 * state.modes * abs2(alpha))
    k = len(gammas)
    branches = wigner_closed(coherent(alpha, k), *gammas) + wigner_closed(
        coherent(-alpha, k), *gammas
    )
    return norm * wigner_closed(state, *gammas) - branches


def test_partial_trace_suppression_closed_form():
    # tracing n of four modes scales the interference by exp(-2 n |alpha|^2):
    # the kept 4 - n modes against the (4 - n)-mode state with none traced
    alpha, origin = 1.3, 0.0 + 0j
    full = CatStateSpec(family=CatFamily.OMEGA, modes=4, alpha=alpha)
    for n in (0, 3):
        kept = CatStateSpec(family=CatFamily.OMEGA, modes=4 - n, alpha=alpha)
        ratio = _interference(full, *[origin] * (4 - n)) / _interference(kept, *[origin] * (4 - n))
        assert ratio == pytest.approx(math.exp(-2.0 * n * abs2(alpha)), rel=1e-12)
    # tracing every mode, or more than there are, leaves no point to evaluate
    for k in (0, 5):
        with pytest.raises(DomainError):
            wigner_closed(full, *[origin] * k)


def test_fringe_suppression_measured_on_reduced_state():
    # the two-mode state at alpha = 1 with its second mode traced out: the
    # interference coefficient exp(-2), read off the numeric value at the
    # origin, and the closed form against the numeric route around the fringe
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0)
    numeric = wigner_branches(state, [[0.0]])[0]
    w2 = math.exp(-4.0)
    measured = ((2.0 + 2.0 * w2) * numeric - 2.0 * TWO_OVER_PI * math.exp(-2.0)) / (2.0 * TWO_OVER_PI)
    assert measured == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert _interference(state, 0.0 + 0j) / (2.0 * TWO_OVER_PI) == pytest.approx(
        math.exp(-2.0), rel=1e-12
    )
    assert wigner_gap(state, [(0.0,), (0.39j,), (0.79j,), (1.0,), (0.5 + 0.5j,)]) <= 1e-9


def test_fringe_suppression_trivial_alpha_rejected():
    # at alpha = 0 the suppression is trivial and no longer refused: the
    # two-mode state is the vacuum, so its reduced state is the vacuum too;
    # the hierarchical cat has no odd branch there and is still refused
    state = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=0.0)
    gammas = np.array(REF_GAMMAS)
    np.testing.assert_allclose(
        wigner_closed(state, gammas), wigner_closed(coherent(0.0), gammas), rtol=1e-15, atol=0
    )
    assert wigner_gap(state, [(g,) for g in REF_GAMMAS]) <= 1e-12
    with pytest.raises(DomainError):
        CatStateSpec(family=CatFamily.HCS, modes=2, alpha=0.0)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_carries_axes_and_slice_spec():
    line = np.linspace(-2.0, 2.0, 11)
    grid = wigner_grid(
        even_cat(1.0, modes=2),
        {"re1": line, "im1": 0.3, "re2": line, "im2": -0.2},
    )
    assert [ax.name for ax in grid.axes] == ["re1", "im1", "re2", "im2"]
    assert grid.values.shape == (11, 1, 11, 1)
    assert grid.state == "omega"
    assert grid.convention == CONVENTION
    assert grid.slice_spec["fixed"] == {"im1": 0.3, "im2": -0.2}
    assert grid.slice_spec["alpha"] == [1.0, 0.0]


def test_plane_axes_name_the_three_planes():
    line = grid_line(-1.0, 1.0, 3)
    assert plane_axes(1, line) == {"re": line, "im": line}
    assert plane_axes(2, line) == {"re1": line, "im1": 0.0, "re2": line, "im2": 0.0}
    assert plane_axes(2, line, 0.5 - 0.25j) == {
        "re1": line, "im1": line, "re2": 0.5, "im2": -0.25,
    }


def test_grid_requires_every_axis():
    with pytest.raises(DomainError):
        wigner_grid(even_cat(1.0), {"re": np.linspace(-1, 1, 5)})


def test_grid_rejects_unsupported_family():
    # every family has a closed form at every mode count, so HCS at one mode
    # is served; what a grid refuses is a state it has no axes for
    line = np.linspace(-1, 1, 5)
    spec = CatStateSpec(family=CatFamily.HCS, modes=1, alpha=1.0)
    values = wigner_grid(spec, {"re": line, "im": 0.0}).values
    assert values.tobytes() == np.asarray(wigner_closed(spec, line[:, None] + 0j)).tobytes()
    with pytest.raises(DomainError, match="grids cover one- and two-mode states only"):
        wigner_grid(CatStateSpec(family=CatFamily.HCS, modes=3, alpha=1.0), {})


def test_grids_above_the_point_budget_are_refused_before_allocating():
    # 3000**2 > MAX_JOINT_DIM: the line would fit, the 72 MB mesh would not
    tracemalloc.start()
    try:
        with pytest.raises(SizingError, match="grid of 9000000 points"):
            grid_line(-4.0, 4.0, 3000)
        line = np.linspace(-4.0, 4.0, 3000)
        with pytest.raises(SizingError, match="exceeds MAX_JOINT_DIM"):
            wigner_grid(even_cat(1.0), {"re": line, "im": line})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    edge = math.isqrt(MAX_JOINT_DIM)
    assert np.array_equal(grid_line(-1.0, 1.0, edge), np.linspace(-1.0, 1.0, edge))


def test_grid_covers_at_most_two_modes():
    with pytest.raises(DomainError):
        wigner_grid(even_cat(1.0, modes=3), {})


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def test_default_window_keeps_center_on_grid():
    for alpha in (1.0, math.sqrt(2.0), 1.5, 2.0, 2.5, 3.3):
        lo, hi, steps = default_feature_window(alpha)
        assert steps % 2 == 1
        assert lo == -hi == -(abs(alpha) + 2.0)
        step = (hi - lo) / (steps - 1)
        assert abs(step - 0.04) < 0.0025
        assert 0.0 in np.linspace(lo, hi, steps)


def test_grid_line_puts_the_window_centre_at_zero():
    # np.linspace lands 4.44e-16 off zero at alpha = 1.35, and the origin
    # maximum and the lobes were reported there
    lo, hi, steps = default_feature_window(1.35)
    assert steps == 169
    plain = np.linspace(lo, hi, steps)
    assert plain[84] != 0.0
    line = grid_line(lo, hi, steps)
    assert line[84] == 0.0
    assert np.array_equal(np.delete(line, 84), np.delete(plain, 84))
    grid = wigner_grid(even_cat(1.35), {"re": line, "im": line})
    locations = [z for loc in extract_features(grid).peak_locations for z in loc]
    assert 0j in locations
    assert all(z.real == 0.0 or z.imag == 0.0 for z in locations)
    # an even count or an asymmetric window is left as np.linspace gives it
    assert np.array_equal(grid_line(lo, hi, 168), np.linspace(lo, hi, 168))
    assert np.array_equal(grid_line(-1.0, 2.0, 169), np.linspace(-1.0, 2.0, 169))


def test_features_need_two_varying_axes():
    grid = wigner_grid(even_cat(1.0), {"re": np.linspace(-3, 3, 151), "im": 0.0})
    with pytest.raises(DomainError):
        extract_features(grid)


def test_feature_resolution_guard_names_the_axis():
    grid = wigner_grid(
        even_cat(2.0),
        {"re": np.linspace(-4, 4, 41), "im": np.linspace(-4, 4, 161)},
    )
    with pytest.raises(
        ResolutionError,
        match=r"axis re steps 0\.20000 > pi/\(16\|alpha\|\) = 0\.09817",
    ):
        extract_features(grid)


def test_features_of_wide_even_cat():
    lo, hi, n = default_feature_window(2.0)
    line = np.linspace(lo, hi, n)
    grid = wigner_grid(even_cat(2.0), {"re": line, "im": line})
    feats = extract_features(grid)
    assert len(feats.peak_values) == 7
    assert feats.peak_locations[0] == (0j,)
    assert feats.peak_values[0] == pytest.approx(TWO_OVER_PI, abs=1e-14)
    mags = [abs(v) for v in feats.peak_values]
    assert mags == sorted(mags, reverse=True)
    lobes = {loc[0] for loc in feats.peak_locations[3:5]}
    assert lobes == {complex(-2.0, 0.0), complex(2.0, 0.0)}
    assert feats.peak_values[3] == pytest.approx(0.3184166314456553, abs=1e-13)
    troughs = {loc[0] for loc in feats.peak_locations[1:3]}
    assert troughs == {
        complex(0.0, 0.3600000000000003),
        complex(0.0, -0.3599999999999999),
    }
    assert feats.peak_values[1] == pytest.approx(-0.47422266512004135, abs=1e-13)
    assert feats.peak_separation == pytest.approx(4.0, abs=1e-12)
    assert feats.fringe_axis == "im"
    assert feats.fringe_wavelength == pytest.approx(0.7826572906726993, abs=1e-12)
    assert abs(feats.fringe_wavelength - math.pi / 4) / (math.pi / 4) < 0.05


def test_features_of_narrow_even_cat():
    # at alpha = 1 the branch lobes merge into the central ridge; only the
    # origin and the first fringe troughs survive, and two interior zero
    # crossings are too few for a wavelength estimate
    lo, hi, n = default_feature_window(1.0)
    line = np.linspace(lo, hi, n)
    grid = wigner_grid(even_cat(1.0), {"re": line, "im": line})
    feats = extract_features(grid)
    assert len(feats.peak_values) == 3
    assert feats.peak_locations[0] == (0j,)
    assert feats.peak_values[1] == pytest.approx(-0.17307615280926333, abs=1e-13)
    assert feats.peak_separation == pytest.approx(1.28, abs=1e-12)
    assert feats.fringe_wavelength is None


def test_features_of_intermediate_even_cat():
    lo, hi, n = default_feature_window(1.5)
    line = np.linspace(lo, hi, n)
    grid = wigner_grid(even_cat(1.5), {"re": line, "im": line})
    feats = extract_features(grid)
    assert len(feats.peak_values) == 5
    assert feats.peak_separation == pytest.approx(2.9431818181818183, abs=1e-12)
    assert feats.fringe_wavelength == pytest.approx(1.0352423717503183, abs=1e-12)
    assert abs(feats.fringe_wavelength - math.pi / 3) / (math.pi / 3) < 0.05


def test_features_of_joint_two_branch_plane():
    line = np.linspace(-3.0, 3.0, 151)
    grid = wigner_grid(
        even_cat(1.0, modes=2), {"re1": line, "im1": 0.0, "re2": line, "im2": 0.0}
    )
    feats = extract_features(grid)
    assert len(feats.peak_values) == 3
    assert feats.peak_locations[0] == (0j, 0j)
    assert feats.peak_values[0] == pytest.approx(0.40528473456935116, abs=1e-14)
    lobe = feats.peak_locations[1]
    assert {abs(lobe[0].real), abs(lobe[1].real)} == {0.96}
    assert feats.peak_values[1] == pytest.approx(0.2077027043112448, abs=1e-13)
    # the interference ridge at the origin pulls the detected lobes inward
    # from (+-1, +-1), so the separation sits below 2 sqrt(2)
    assert feats.peak_separation == pytest.approx(2.7152900397563426, abs=1e-12)
    assert feats.peak_separation < 2.0 * math.sqrt(2.0)
    # the real-real plane has no sign fringes, hence no wavelength
    assert feats.fringe_wavelength is None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def grid_to_csv(grid):
    """The CSV export of ``grid`` as one string, joined from its written blocks."""
    handle = io.StringIO()
    write_grid_csv(grid, handle)
    return handle.getvalue()


def test_csv_single_mode_header_and_rows():
    line = np.linspace(-1.0, 1.0, 5)
    grid = wigner_grid(even_cat(1.0), {"re": line, "im": line})
    text = grid_to_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,w"
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0
    assert float(first[2]) == pytest.approx(float(grid.values[0, 0]), rel=1e-15)


def test_csv_two_mode_slice_flattens_to_plane():
    line = np.linspace(-2.0, 2.0, 41)
    grid = wigner_grid(
        CatStateSpec(family=CatFamily.HCS, modes=2, alpha=1.5),
        {"re1": line, "im1": line, "re2": 0.0, "im2": 0.0},
    )
    text = grid_to_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,w"
    assert len(lines) == 1 + 41 * 41


def test_csv_joint_grid_keeps_all_coordinates():
    line = np.linspace(-2.0, 2.0, 21)
    grid = wigner_grid(
        even_cat(1.0, modes=2), {"re1": line, "im1": 0.0, "re2": line, "im2": 0.0}
    )
    text = grid_to_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "re1,im1,re2,im2,w"
    assert len(lines) == 1 + 21 * 21
    row = lines[1].split(",")
    assert [float(row[0]), float(row[1])] == [-2.0, 0.0]


def test_csv_values_round_trip():
    line = np.linspace(-1.5, 1.5, 7)
    grid = wigner_grid(even_cat(1.2), {"re": line, "im": line})
    rows = grid_to_csv(grid).strip().split("\n")[1:]
    parsed = np.array([float(r.split(",")[2]) for r in rows])
    np.testing.assert_array_equal(parsed, grid.values.ravel())


def _reference_csv(grid):
    """The row-by-row formatter the block writer replaced: one repr per cell."""
    axes = list(grid.axes)
    if len(axes) == 4:
        first = axes[0].values.size > 1 or axes[1].values.size > 1
        second = axes[2].values.size > 1 or axes[3].values.size > 1
        if first != second:
            axes = axes[0:2] if first else axes[2:4]
    if len(axes) == 2:
        header = "re,im,w"
    else:
        header = ",".join([ax.name for ax in axes] + ["w"])
    mesh = np.meshgrid(*[ax.values for ax in axes], indexing="ij")
    cols = [m.ravel() for m in mesh] + [grid.values.ravel()]
    lines = [header]
    for row in zip(*cols):
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _odd_values_grid(names, shape):
    """A grid whose axes and values hold -0.0, subnormals and extreme floats."""
    specials = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                         1.7976931348623157e308, 0.1, -1.0 / 3.0])
    axes = tuple(
        AxisSpec(name=n, values=np.resize(np.roll(specials, i), k))
        for i, (n, k) in enumerate(zip(names, shape))
    )
    values = np.resize(specials[::-1], math.prod(shape)).reshape(shape)
    return WignerGrid("test", CONVENTION, axes, values, {})


@pytest.mark.parametrize(
    "make",
    [
        lambda: wigner_grid(even_cat(1.3), {"re": np.linspace(-3.3, 3.3, 41),
                                            "im": np.linspace(-3.3, 3.3, 37)}),
        lambda: wigner_grid(
            CatStateSpec(family=CatFamily.HCS, modes=2, alpha=1.5),
            {"re1": np.linspace(-2.0, 2.0, 23), "im1": np.linspace(-2.0, 2.0, 19),
             "re2": 0.3, "im2": -0.7},
        ),
        lambda: wigner_grid(
            CatStateSpec(family=CatFamily.HCS, modes=2, alpha=1.5),
            {"re1": 0.0, "im1": -0.0, "re2": np.linspace(-2.0, 2.0, 15),
             "im2": np.linspace(-1.0, 1.0, 9)},
        ),
        lambda: wigner_grid(
            even_cat(0.9, modes=2),
            {"re1": np.linspace(-2.0, 2.0, 7), "im1": np.linspace(-1.0, 1.0, 3),
             "re2": np.linspace(-2.0, 2.0, 5), "im2": np.linspace(-1.0, 1.0, 4)},
        ),
        lambda: _odd_values_grid(("re", "im"), (7, 5)),
        lambda: _odd_values_grid(("re1", "im1", "re2", "im2"), (6, 5, 1, 1)),
        lambda: _odd_values_grid(("re1", "im1", "re2", "im2"), (3, 1, 7, 2)),
        lambda: _odd_values_grid(("re1", "im1", "re2", "im2"), (191, 1, 200, 2)),
    ],
    ids=["single-mode", "slice-first-mode", "slice-second-mode", "joint-4-axis",
         "odd-floats-single", "odd-floats-slice", "odd-floats-joint",
         "odd-floats-three-blocks"],
)
def test_csv_is_byte_identical_to_the_row_formatter(make):
    grid = make()
    assert grid_to_csv(grid) == _reference_csv(grid)


class _Blocks:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_written_csv_matches_the_joined_text():
    # 76400 rows: the header, at least two full blocks and a shorter last one
    grid = _odd_values_grid(("re1", "im1", "re2", "im2"), (191, 1, 200, 2))
    full, rest = divmod(grid.values.size, _CSV_BLOCK_ROWS)
    assert full >= 2 and rest > 0
    handle = _Blocks()
    write_grid_csv(grid, handle)
    expected = [1] + [_CSV_BLOCK_ROWS] * full + [rest]
    assert [text.count("\n") for text in handle.writes] == expected
    assert "".join(handle.writes) == _reference_csv(grid)


class _Discard:
    def write(self, text):
        pass


def test_csv_export_holds_one_block_of_rows():
    # the text of this 500 x 500 joint grid is 21 MB; building it whole
    # traced 102 MB, and one block of 2**12 rows traces about 1.1 MB
    grid = _odd_values_grid(("re1", "im1", "re2", "im2"), (500, 1, 500, 1))
    tracemalloc.start()
    try:
        write_grid_csv(grid, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_json_payload_structure():
    line = np.linspace(-1.0, 1.0, 9)
    grid = wigner_grid(even_cat(0.8), {"re": line, "im": 0.25})
    payload = grid_to_json(grid)
    assert set(payload) == {"state", "convention", "slice_spec", "axes", "values"}
    assert payload["state"] == "even-cat"
    assert [a["name"] for a in payload["axes"]] == ["re", "im"]
    assert len(payload["axes"][0]["values"]) == 9
    assert len(payload["values"]) == 9
    assert payload["slice_spec"]["fixed"] == {"im": 0.25}
