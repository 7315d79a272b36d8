"""Wigner kernels, the displaced-parity oracle, grids, and feature extraction."""

import math
import tracemalloc

import numpy as np
import pytest

from catsize.closed_forms import CatFamily, CatStateSpec, abs2
from catsize.errors import DomainError, ResolutionError, SizingError, TruncationError
from catsize.fock import MAX_JOINT_DIM, build_state, coherent_vector
from catsize.phase_space import (
    CONVENTION,
    AxisSpec,
    WignerGrid,
    default_feature_window,
    extract_features,
    fringe_suppression_check,
    grid_line,
    grid_to_csv,
    grid_to_json,
    partial_trace_fringe_suppression,
    wigner_cat,
    wigner_coherent,
    wigner_grid,
    wigner_hcs2,
    wigner_numeric,
    wigner_omega,
)

TWO_OVER_PI = 2.0 / math.pi


def even_cat(alpha, modes: int = 1) -> CatStateSpec:
    fam = CatFamily.EVEN_CAT if modes == 1 else CatFamily.OMEGA
    return CatStateSpec(family=fam, modes=modes, alpha=alpha)


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def test_coherent_kernel_peaks_at_alpha():
    alpha = 1.3 - 0.4j
    assert wigner_coherent(alpha, alpha) == pytest.approx(TWO_OVER_PI, rel=1e-14)
    offset = 0.8 + 0.2j
    expected = TWO_OVER_PI * math.exp(-2.0 * abs2(offset))
    assert wigner_coherent(alpha + offset, alpha) == pytest.approx(expected, rel=1e-13)


def test_even_cat_reference_points():
    # second route: raw displaced-parity sums over a truncated basis
    assert wigner_cat(0.0, 2.0) == pytest.approx(0.6366197723675814, abs=1e-14)
    assert wigner_cat(2.0, 2.0) == pytest.approx(0.3184166314456553, abs=1e-14)
    assert wigner_cat(1j * math.pi / 8, 2.0) == pytest.approx(
        -0.4673490976644263, abs=1e-13
    )
    assert wigner_cat(1j * math.pi / 4, 2.0) == pytest.approx(
        0.18539191125320564, abs=1e-13
    )


@pytest.mark.parametrize("alpha", [0.3, 1.1, 2.7])
def test_even_cat_origin_value_is_universal(alpha):
    assert wigner_cat(0.0, alpha) == pytest.approx(TWO_OVER_PI, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.4, 1.0, 2.2])
def test_odd_cat_origin_value_is_universal(alpha):
    assert wigner_cat(0.0, alpha, parity=-1) == pytest.approx(
        -TWO_OVER_PI, abs=1e-14
    )


def test_odd_cat_degenerates_at_zero_alpha():
    with pytest.raises(DomainError):
        wigner_cat(0.5, 0.0, parity=-1)


def test_cat_parity_flag_is_validated():
    with pytest.raises(DomainError):
        wigner_cat(0.0, 1.0, parity=0)


def test_omega_reference_points():
    # second route: raw displaced-parity sums over a truncated basis
    pts = {
        (0.0, 0.0): 0.40528473456935116,
        (1.0, 1.0): 0.20628715784410265,
        (1.0, -1.0): 0.007423048845488719,
    }
    for (g1, g2), expected in pts.items():
        got = wigner_omega(np.array([g1, g2], dtype=complex), 1.0)
        assert got == pytest.approx(expected, abs=1e-14)


def test_omega_single_mode_reduces_to_even_cat():
    rng = np.random.default_rng(71)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    for alpha in (0.7, 1.6):
        lhs = wigner_omega(pts[..., None], alpha, modes=1)
        rhs = wigner_cat(pts, alpha)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_omega_coordinate_count_is_checked():
    with pytest.raises(DomainError):
        wigner_omega(np.array([0.1 + 0j, 0.2 + 0j]), 1.0, modes=3)


def test_hcs2_reference_points():
    # second route: raw displaced-parity sums over a truncated basis
    pts = {
        (0.0 + 0j, 0.0 + 0j): 0.4052847345693511,
        (1.5 + 0j, 1.5 + 0j): 0.2026423703709147,
        (1.5 + 0j, -1.5 + 0j): -2.5001881987113223e-05,
        (0.5 + 0.25j, -0.75 + 0j): 0.004774726750541339,
    }
    for (g1, g2), expected in pts.items():
        assert wigner_hcs2(g1, g2, 1.5) == pytest.approx(expected, abs=1e-13)


def test_hcs2_degenerates_at_zero_alpha():
    with pytest.raises(DomainError):
        wigner_hcs2(0.1, 0.1, 0.0)


def test_kernels_are_parity_symmetric():
    rng = np.random.default_rng(23)
    pts = rng.normal(scale=1.4, size=10) + 1j * rng.normal(scale=1.4, size=10)
    np.testing.assert_allclose(
        wigner_cat(pts, 1.2), wigner_cat(-pts, 1.2), rtol=0, atol=1e-14
    )
    joint = np.stack([pts, np.roll(pts, 3)], axis=-1)
    np.testing.assert_allclose(
        wigner_omega(joint, 0.9), wigner_omega(-joint, 0.9), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        wigner_hcs2(pts, np.roll(pts, 3), 1.1),
        wigner_hcs2(-pts, -np.roll(pts, 3), 1.1),
        rtol=0,
        atol=1e-14,
    )


@pytest.mark.parametrize("alpha,parity", [(1.0, 1), (2.0, 1), (1.0, -1)])
def test_single_mode_magnitude_bound(alpha, parity):
    lo, hi, n = default_feature_window(alpha)
    line = np.linspace(lo, hi, n)
    gx, gy = np.meshgrid(line, line, indexing="ij")
    vals = wigner_cat(gx + 1j * gy, alpha, parity=parity)
    assert float(np.abs(vals).max()) <= TWO_OVER_PI + 1e-12


@pytest.mark.parametrize("alpha,parity", [(1.2, 1), (1.0, -1)])
def test_grid_integral_is_unity(alpha, parity):
    half = abs(alpha) + 4.0
    line = np.linspace(-half, half, 301)
    step = line[1] - line[0]
    gx, gy = np.meshgrid(line, line, indexing="ij")
    vals = wigner_cat(gx + 1j * gy, alpha, parity=parity)
    assert float(vals.sum() * step * step) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# numeric displaced-parity route
# ---------------------------------------------------------------------------

def test_numeric_matches_closed_form_single_mode():
    rng = np.random.default_rng(404)
    for alpha, parity in ((1.2, 1), (1.2, -1)):
        fam = CatFamily.EVEN_CAT if parity == 1 else CatFamily.ODD_CAT
        vec = build_state(
            CatStateSpec(family=fam, modes=1, alpha=alpha), cutoff=60
        )
        for _ in range(20):
            gamma = complex(rng.normal(), rng.normal())
            closed = float(wigner_cat(gamma, alpha, parity=parity))
            numeric = wigner_numeric(vec, [gamma])
            assert numeric == pytest.approx(closed, abs=1e-12)


def test_numeric_matches_closed_form_two_mode():
    rng = np.random.default_rng(405)
    vec = build_state(
        CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=1.0), cutoff=56
    )
    for _ in range(12):
        pair = rng.normal(size=2) + 1j * rng.normal(size=2)
        closed = float(wigner_omega(pair, 1.0))
        numeric = wigner_numeric(vec, pair)
        assert numeric == pytest.approx(closed, abs=1e-12)


def test_numeric_matches_closed_form_hidden_pair():
    rng = np.random.default_rng(406)
    vec = build_state(
        CatStateSpec(family=CatFamily.HCS, modes=2, alpha=1.5), cutoff=40
    )
    for _ in range(12):
        pair = rng.normal(size=2) + 1j * rng.normal(size=2)
        closed = float(wigner_hcs2(pair[0], pair[1], 1.5))
        numeric = wigner_numeric(vec, pair)
        assert numeric == pytest.approx(closed, abs=1e-6)


def test_numeric_guards_cutoff_headroom():
    vec = coherent_vector(1.0, 12)
    with pytest.raises(TruncationError):
        wigner_numeric(vec, [3.0 + 3.0j])


def test_numeric_coordinate_count_is_checked():
    vec = coherent_vector(0.5, 10)
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
# fringe suppression under partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_suppression_closed_form():
    assert partial_trace_fringe_suppression(4, 0, 1.3) == 1.0
    got = partial_trace_fringe_suppression(4, 3, 1.3)
    assert got == pytest.approx(math.exp(-2.0 * 3 * 1.69), rel=1e-12)
    with pytest.raises(DomainError):
        partial_trace_fringe_suppression(4, 5, 1.3)
    with pytest.raises(DomainError):
        partial_trace_fringe_suppression(4, -1, 1.3)


def test_fringe_suppression_measured_on_reduced_state():
    chk = fringe_suppression_check(1.0)
    assert chk["measured_coefficient"] == pytest.approx(math.exp(-2.0), rel=1e-9)
    assert chk["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert chk["measured_exponent"] == pytest.approx(1.0, abs=1e-9)
    assert chk["candidate_exponents"] == (2.0, 0.5)
    assert chk["n_traced"] == 1


def test_fringe_suppression_trivial_alpha_rejected():
    with pytest.raises(DomainError):
        fringe_suppression_check(0.0)


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


def test_grid_requires_every_axis():
    with pytest.raises(DomainError):
        wigner_grid(even_cat(1.0), {"re": np.linspace(-1, 1, 5)})


def test_grid_rejects_unsupported_family():
    spec = CatStateSpec(family=CatFamily.HCS, modes=1, alpha=1.0)
    with pytest.raises(DomainError):
        wigner_grid(spec, {"re": np.linspace(-1, 1, 5), "im": 0.0})


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
    """The row-by-row formatter grid_to_csv replaced: one repr per cell."""
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
    ],
    ids=["single-mode", "slice-first-mode", "slice-second-mode", "joint-4-axis",
         "odd-floats-single", "odd-floats-slice", "odd-floats-joint"],
)
def test_csv_is_byte_identical_to_the_row_formatter(make):
    grid = make()
    assert grid_to_csv(grid) == _reference_csv(grid)


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
