"""Wigner functions of branch superpositions, closed form and numeric.

The convention throughout is the displaced-parity form

    W(gamma) = (2/pi)^m <D(gamma) P_tot D(-gamma)>

with P_tot the joint photon-number parity.  ``wigner_closed`` is the one
closed-form Wigner function: for every family, given coordinates for the
first k of a state's N modes, it returns the Wigner function of those k
modes' reduced state from Gaussians exp(-2|gamma -+ alpha|^2), the envelope
exp(-2|gamma|^2) and fringe phases 4 Im(conj(alpha) gamma), where each
traced mode scales the interference terms by its branch overlap; the even
cat is Omega at one mode, and the kitten terms serve the odd cat and HCS.
The numeric route ``wigner_branches`` reads off the parity sum of the
displaced truncated state, reduced states included, by displacing only the
single-mode branch vectors of a family's state (the vacuum is
product-coherent at alpha = 0), all points at once, at the cutoff
``wigner_cutoff`` picks, which counts at least one photon per branch for
the families that hold the odd kitten.  ``wigner_numeric`` displaces a
joint Fock vector one point at a time: it is the tests' dense reference,
and no route of the package calls it.  Both refuse a displaced vector that
reaches its cutoff through one headroom guard.  ``wigner_gap`` is the one
closed-vs-numeric gap.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .closed_forms import CatFamily, CatStateSpec, abs2, branch_overlap, hcs_norms
from .errors import DomainError, ResolutionError, TruncationError
from .fock import (
    FockVector,
    apply_single_mode,
    check_size,
    default_cutoff,
    displace,
    displacement_op,
    family_branches,
)

CONVENTION = "W(gamma) = (2/pi)^m <D(gamma) P_tot D(-gamma)>"

#: Largest mass the displaced vector may keep in its top three Fock levels.
_HEADROOM_TOL = 1e-6
#: Fraction of the global |W| maximum an extremum must reach to count.
_SIGNIFICANCE = 0.25
#: Feature grids must step no coarser than pi / (_NYQUIST_FACTOR |alpha|).
_NYQUIST_FACTOR = 16.0
#: Rows per block of a CSV export: one block of text is about 1 MB.
_CSV_BLOCK_ROWS = 1 << 12
#: Largest |u| = 4|Re(conj(alpha) gamma)| at which the kitten terms take their
#: cancellation-free forms; beyond it gp + gm exceeds 2 env by a third if w ~ 1.
_SMALL_U = 1.0


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def _gauss(gamma, center):
    g = np.asarray(gamma, dtype=complex)
    # a squared distance that overflows to inf gives exp(-inf) = 0, as it should
    with np.errstate(over="ignore"):
        return np.exp(-2.0 * (np.abs(g - center) ** 2))


def _fringe_phase(gamma, alpha, env):
    """4 Im(conj(alpha) gamma), taken as 0 wherever the envelope ``env`` is 0.

    Far from the origin the product can overflow, and cos(inf) is NaN, but
    the envelope has underflowed there, so env cos and env sin are exactly 0.
    """
    g = np.asarray(gamma, dtype=complex)
    with np.errstate(over="ignore"):
        theta = 4.0 * (np.conjugate(alpha) * g).imag
    return np.where(env == 0.0, 0.0, theta)


def _kitten_terms(gamma, alpha):
    """Kitten pieces at ``gamma`` from the Gaussians gp, gm, env about alpha,
    -alpha, 0 and the fringe phase theta: the numerators gp + gm +-
    2 env cos(theta) of the even and odd kittens |alpha> +- |-alpha>, then
    gp - gm and env sin(theta), as (even, odd, gp - gm, env sin(theta)).

    gp, gm = env w e^{+-u} with u = 4 Re(conj(alpha) gamma).  Where |u| <=
    _SMALL_U the odd numerator is 2 env [2 sinh^2(u/2) + 2 sin^2(theta/2) +
    expm1(-2|alpha|^2) cosh u] and gp - gm is 2 env w sinh u: at small
    |alpha| the plain differences of terms near env would lose their digits.
    """
    g = np.asarray(gamma, dtype=complex)
    gp, gm, env = _gauss(g, alpha), _gauss(g, -alpha), _gauss(g, 0.0)
    theta = _fringe_phase(g, alpha, env)
    cross = 2.0 * env * np.cos(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        u = 4.0 * (np.conjugate(alpha) * g).real
    near = np.abs(u) <= _SMALL_U
    u, e, a = u[near], 2.0 * env[near], abs2(alpha)
    odd = np.asarray(gp + gm - cross)
    odd[near] = e * (
        2.0 * np.sinh(u / 2.0) ** 2 + 2.0 * np.sin(theta[near] / 2.0) ** 2
        + math.expm1(-2.0 * a) * np.cosh(u)
    )
    diff = np.asarray(gp - gm)
    diff[near] = e * math.exp(-2.0 * a) * np.sinh(u)
    return gp + gm + cross, odd, diff, env * np.sin(theta)


def _omega_form(gammas, alpha, modes: int):
    """Omega on ``modes`` modes, reduced to the first k = len(gammas) of
    them, at one coordinate array per kept mode; at one mode it is the even
    cat.

    Each traced mode multiplies the cross term by its branch overlap, so the
    kept modes' cross term carries w^(modes - k) over the full norm 2 + 2 w^modes.
    """
    k = len(gammas)
    w = branch_overlap(alpha)
    norm_sq = 2.0 + 2.0 * w ** modes
    plus = math.prod(_gauss(g, alpha) for g in gammas)
    minus = math.prod(_gauss(g, -alpha) for g in gammas)
    envs = [_gauss(g, 0.0) for g in gammas]
    theta = sum(_fringe_phase(g, alpha, env) for g, env in zip(gammas, envs))
    cross = 2.0 * w ** (modes - k) * math.prod(envs) * np.cos(theta)
    return (2.0 / math.pi) ** k * (plus + minus + cross) / norm_sq


def _hcs_form(gammas, alpha, modes: int):
    """HCS (|even>^N + |odd>^N)/sqrt(2) on N = ``modes`` modes, reduced to
    the first k = len(gammas) of them, from the kitten terms (e, o, d, s)
    at each coordinate:

        1/2 (2/pi)^k [prod e_i / A+^2k + prod o_i / A-^2k + cross],

    with cross = 2 Re prod (d_i + 2i s_i) / (A+ A-)^N at k = N, where
    (A+ A-)^2 = -4 expm1(-4|alpha|^2) keeps its digits where w nears 1, and
    cross = 0 at k < N, since <even|odd> = 0 on every traced mode.  At
    N = 2 each step rounds as the two-mode form always has: the prefactor
    is 4 / pi^2, and the cross product's real part is d1 d2 - (2 s1)(2 s2).
    """
    a_plus, a_minus = hcs_norms(alpha)
    k = len(gammas)
    even, odd, re, im = _kitten_terms(gammas[0], alpha)
    im = 2.0 * im
    for gamma in gammas[1:]:
        e, o, d, s = _kitten_terms(gamma, alpha)
        even, odd = even * e, odd * o
        re, im = re * d - im * (2.0 * s), re * (2.0 * s) + im * d
    total = even / a_plus ** (2 * k) + odd / a_minus ** (2 * k)
    if k == modes:
        total = total + 2.0 * re / (-4.0 * math.expm1(-4.0 * abs2(alpha))) ** (modes / 2)
    return (2.0 ** k / math.pi ** k) * 0.5 * total


def wigner_closed(state: CatStateSpec, *gammas):
    """Closed-form Wigner function of the reduced state of the first
    k = len(gammas) modes of ``state``, at one broadcastable complex
    coordinate array per kept mode (a grid passes sparse axes): the one
    place that maps a family, mode count and k to its closed form.  Refuses
    k outside [1, ``state.modes``]."""
    _check_coordinates(len(gammas), state.modes)
    fam, alpha = state.family, state.alpha
    if fam is CatFamily.PRODUCT_COHERENT:
        return math.prod((2.0 / math.pi) * _gauss(g, alpha) for g in gammas)
    if fam in (CatFamily.OMEGA, CatFamily.EVEN_CAT):
        return _omega_form(gammas, alpha, state.modes)
    if fam is CatFamily.HCS:
        return _hcs_form(gammas, alpha, state.modes)
    # the odd norm A_minus^2 = -2 expm1(-2|alpha|^2) keeps its digits where w nears 1
    return (2.0 / math.pi) * _kitten_terms(gammas[0], alpha)[1] / hcs_norms(alpha)[1] ** 2


# ---------------------------------------------------------------------------
# numeric route
# ---------------------------------------------------------------------------

def wigner_cutoff(state: CatStateSpec, gammas) -> int:
    """Cutoff for the numeric Wigner routes of ``state`` at the coordinates
    ``gammas`` (any shape).

    Displacing by -gamma moves a coherent branch to amplitude at most
    r = |alpha| + max|gamma|, whose photon count is Poisson with mean r^2 and
    standard deviation r.  For r from 0.5 to 12, ceil(r^2 + 5r + 6) is zero
    to three levels above the smallest cutoff at which that law leaves less
    than the headroom guard's 1e-6 in the top three levels.  The odd kitten
    holds a coth a >= 1 photons on average (a = |alpha|^2), and is |1> as
    alpha -> 0, so for the families that hold it, the odd cat and HCS, r
    counts max(|alpha|, 1) in place of |alpha|.  The result never drops
    below default_cutoff(alpha), which the undisplaced state needs.
    """
    peak = abs(complex(state.alpha))
    if state.family in (CatFamily.ODD_CAT, CatFamily.HCS):
        peak = max(peak, 1.0)
    r = peak + float(np.abs(np.asarray(gammas, dtype=complex)).max())
    return max(default_cutoff(state.alpha), math.ceil(r * r + 5.0 * r + 6.0))


def wigner_numeric(vec: FockVector, gammas) -> float:
    """Displaced-parity value of a truncated joint vector at one point.

    ``gammas`` holds one coordinate for each of the first k <= ``modes``
    modes; the value is that of the reduced state of those k modes, the
    probabilities of the displaced vector summed over the remaining modes.
    Displacement can push amplitude toward the cutoff, where the truncated
    operator is no longer unitary; the guard requires the displaced vector to
    keep its top three Fock levels on every mode below 1e-6 of the total mass
    (``_HEADROOM_TOL``).  The parity sum of probabilities is real by
    construction.  The tests' joint-vector reference for ``wigner_branches``.
    """
    points = [complex(g) for g in np.atleast_1d(np.asarray(gammas, dtype=complex))]
    _check_coordinates(len(points), vec.modes)
    d = vec.cutoff + 1
    work = vec
    for mode, gamma in enumerate(points):
        work = apply_single_mode(displacement_op(-gamma, vec.cutoff), work, mode)
    probs = np.abs(work.amplitudes) ** 2
    total = float(probs.sum())
    top = min(3, d)
    mass = [probs.reshape(d**mode, d, -1)[:, d - top :].sum() for mode in range(vec.modes)]
    _check_headroom(np.array([total]), np.array([mass]), top, vec.cutoff)
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    acc = probs
    for _ in points:
        acc = signs @ acc.reshape(d, -1)
    return (2.0 / math.pi) ** len(points) * float(acc.sum()) / total


def wigner_branches(state: CatStateSpec, points) -> np.ndarray:
    """Displaced-parity values of ``state`` at ``points``, from its
    single-mode branch vectors, with no joint vector built.

    ``points`` is a (P, k) array-like: each point holds coordinates for the
    first k <= ``state.modes`` modes, and its value is that of those modes'
    reduced state, as ``wigner_numeric`` gives it on the family's joint
    vector at the cutoff ``wigner_cutoff`` picks from the state and the
    points.  The state is c sum_b v_b^(x N) (``family_branches``), so each
    sum over the displaced joint vector is a sum over branch pairs
    (b, c) of one single-mode factor per mode, multiplied together:
    <x_b|P|x_c> on the displaced modes, x_b = D(-gamma_i) v_b, and <v_b|v_c>
    on the rest for the parity sum; <x_b|x_c> on every mode for the total;
    and for mode j's headroom guard, mode j's top-three projector in place
    of its factor.  The guard is ``wigner_numeric``'s: it raises
    TruncationError at the first such point in order and its first such
    mode.  More than MAX_JOINT_DIM displaced amplitudes P d B are refused
    with SizingError first.  O(P B d^2 + d^3) for P points and B branches.
    """
    points = np.asarray(points, dtype=complex)
    if points.ndim != 2 or not len(points):
        raise DomainError(f"points must be a nonempty (P, k) array, got shape {points.shape}")
    k = _check_coordinates(points.shape[1], state.modes)
    cutoff = wigner_cutoff(state, points)
    columns = family_branches(state, cutoff)[0]  # (d, B)
    size = len(points) * columns.size
    check_size(size, f"{size} displaced amplitudes")
    top = min(3, cutoff + 1)
    # per mode, the (P, B, B) norm, parity and top-level sums; every
    # undisplaced mode shares one set, so mode k checks the tail for them all
    shifted = [
        _pair_sums(displace(columns, -points[:, i], cutoff), top) for i in range(k)
    ]
    rest = _pair_sums(columns[None], top)
    grams = [f[0] for f in shifted] + [rest[0]] * (state.modes - k)
    total = _branch_sum(grams)
    guarded = shifted + [rest] * (state.modes > k)
    mass = [_branch_sum(grams[:j] + [f[2]] + grams[j + 1 :]) for j, f in enumerate(guarded)]
    _check_headroom(total, np.stack(mass, axis=-1), top, cutoff)
    parity = _branch_sum([f[1] for f in shifted] + grams[k:])
    return (2.0 / math.pi) ** k * parity / total


def _check_coordinates(k: int, modes: int) -> int:
    """``k``, or DomainError unless 1 <= k <= ``modes``."""
    if not 1 <= k <= modes:
        raise DomainError(f"expected 1 to {modes} phase-space coordinates, got {k}")
    return k


def _check_headroom(total: np.ndarray, mass: np.ndarray, top: int, cutoff: int) -> None:
    """The numeric routes' one truncation guard, from each point's total
    mass of the displaced vector, ``total`` (P,), and each mode's mass in
    its top ``top`` Fock levels, ``mass`` (P, M).  Raises TruncationError
    if any point lost all amplitude, else at the first point, and its first
    mode, whose top-level share of the total exceeds ``_HEADROOM_TOL``."""
    if (total <= 0.0).any():
        raise TruncationError("the displaced vector lost all amplitude", 1.0, cutoff)
    tails = mass / total[:, None]
    bad = np.argwhere(tails > _HEADROOM_TOL)
    if bad.size:
        point, mode = bad[0]
        raise TruncationError(
            f"displaced amplitude reaches the cutoff on mode {mode}: "
            f"top-{top} mass {tails[point, mode]:.3e} exceeds {_HEADROOM_TOL:.1e}",
            float(tails[point, mode]),
            cutoff,
        )


def _pair_sums(x: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From (P, d, B) branch vectors, the (P, B, B) sums over n of
    conj(x_b[n]) x_c[n]: over all n, with the parity sign (-1)^n, and over
    the top ``top`` levels.  Plain einsum, no BLAS, so the bytes do not
    depend on the thread count."""
    bra = np.conj(x)
    signs = np.where(np.arange(x.shape[1]) % 2 == 0, 1.0, -1.0)[:, None]
    return (
        np.einsum("pnb,pnc->pbc", bra, x),
        np.einsum("pnb,pnc->pbc", bra, signs * x),
        np.einsum("pnb,pnc->pbc", bra[:, -top:], x[:, -top:]),
    )


def _branch_sum(factors) -> np.ndarray:
    """Real part of sum_{b,c} of the product of the (P, B, B) ``factors``."""
    return functools.reduce(np.multiply, factors).sum(axis=(-2, -1)).real


def wigner_gap(state: CatStateSpec, points) -> float:
    """Largest |closed - numeric| Wigner value of ``state`` over ``points``.

    Each point holds one coordinate per mode.  The closed form comes from
    ``wigner_closed``, the numeric value from ``wigner_branches``, each once
    over the whole point array, at the cutoff ``wigner_cutoff`` picks from
    the state and the points.
    """
    points = np.asarray(list(points), dtype=complex)
    numeric = wigner_branches(state, points)
    return float(np.abs(wigner_closed(state, *points.T) - numeric).max())


# ---------------------------------------------------------------------------
# grids and feature extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisSpec:
    name: str
    values: np.ndarray


@dataclass(frozen=True)
class WignerGrid:
    state: str
    convention: str
    axes: tuple[AxisSpec, ...]
    values: np.ndarray
    slice_spec: dict


@dataclass(frozen=True)
class PhaseSpaceFeatures:
    peak_locations: tuple
    peak_values: tuple
    fringe_wavelength: float | None
    fringe_axis: str | None
    peak_separation: float | None


def default_feature_window(alpha) -> tuple[float, float, int]:
    """Symmetric window wide enough for the branch lobes, stepped near 0.04.

    The count is always odd so the center of the window lands on the grid;
    features that sit exactly on a mirror line of the window would otherwise
    tie across the two middle cells and strict extrema detection drops them.
    """
    half = abs(alpha) + 2.0
    steps = 2 * int(round(half / 0.04)) + 1
    return -half, half, steps


def grid_line(lo: float, hi: float, steps: int) -> np.ndarray:
    """``steps`` evenly spaced values on [lo, hi], the shared line of a grid
    that varies two axes over it.

    On a symmetric window with an odd count the middle sample is exactly 0,
    which ``np.linspace`` can miss by a rounding step; every other sample is
    as ``np.linspace`` gives it.  Refuses with SizingError, before
    allocating the line, when that grid would exceed MAX_JOINT_DIM points.
    """
    check_size(steps * steps, f"grid of {steps * steps} points")
    line = np.linspace(lo, hi, steps)
    if steps % 2 and lo == -hi:
        line[steps // 2] = 0.0
    return line


def _axis_array(value) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise DomainError("axis values must be scalars or one-dimensional")
    return arr


def plane_axes(modes: int, line, gamma2: complex | None = None) -> dict:
    """The ``wigner_grid`` axes of a plane scanned along ``line``: one mode's
    (re, im); for two modes the real-real plane (re1, re2), where the branch
    lobes sit, or with ``gamma2`` the (re1, im1) plane at that second-mode point."""
    if modes == 1:
        return {"re": line, "im": line}
    if gamma2 is None:
        return {"re1": line, "im1": 0.0, "re2": line, "im2": 0.0}
    return {"re1": line, "im1": line, "re2": gamma2.real, "im2": gamma2.imag}


def wigner_grid(state: CatStateSpec, axes) -> WignerGrid:
    """Evaluate the closed-form Wigner function over a rectangular grid.

    ``axes`` maps axis names to value arrays or fixed scalars: ``re``/``im``
    for one mode, ``re1``/``im1``/``re2``/``im2`` for two.  Grids of more
    than MAX_JOINT_DIM points are refused with SizingError before the mesh
    is allocated.
    """
    if state.modes == 1:
        names = ("re", "im")
    elif state.modes == 2:
        names = ("re1", "im1", "re2", "im2")
    else:
        raise DomainError("grids cover one- and two-mode states only")
    missing = [n for n in names if n not in axes]
    if missing:
        raise DomainError(f"missing grid axes: {', '.join(missing)}")
    arrays = [_axis_array(axes[n]) for n in names]
    points = math.prod(a.size for a in arrays)
    check_size(points, f"grid of {points} points")
    # sparse axes: wigner_closed broadcasts them to the grid only once
    mesh = np.meshgrid(*arrays, indexing="ij", sparse=True)
    values = wigner_closed(state, *(r + 1j * i for r, i in zip(mesh[::2], mesh[1::2])))
    axis_specs = tuple(AxisSpec(name=n, values=a) for n, a in zip(names, arrays))
    fixed = {
        ax.name: float(ax.values[0]) for ax in axis_specs if ax.values.size == 1
    }
    slice_spec = {
        "state": state.family.value,
        "modes": state.modes,
        "alpha": [complex(state.alpha).real, complex(state.alpha).imag],
        "fixed": fixed,
    }
    return WignerGrid(
        state=state.family.value,
        convention=CONVENTION,
        axes=axis_specs,
        values=np.asarray(values, dtype=float),
        slice_spec=slice_spec,
    )


def extract_features(grid: WignerGrid) -> PhaseSpaceFeatures:
    """Locate significant extrema and the fringe wavelength on a 2-D slice.

    Exactly two axes must vary.  Each varying axis must step no coarser than
    pi / (16 |alpha|), or the fringes alias and extraction is refused.
    Extrema are strict local maxima and minima over the interior
    eight-neighborhoods, kept when |W| reaches a quarter of the global |W|
    maximum.
    """
    varying = [i for i, ax in enumerate(grid.axes) if ax.values.size > 1]
    if len(varying) != 2:
        raise DomainError(
            f"feature extraction needs exactly 2 varying axes, got {len(varying)}"
        )
    alpha = complex(*grid.slice_spec.get("alpha", [0.0, 0.0]))
    mod = abs(alpha)
    for i in varying:
        ax = grid.axes[i]
        step = float(np.max(np.diff(ax.values)))
        if mod > 0.0 and step > math.pi / (_NYQUIST_FACTOR * mod):
            raise ResolutionError(
                f"axis {ax.name} steps {step:.5f} > pi/({_NYQUIST_FACTOR:g}|alpha|)"
                f" = {math.pi / (_NYQUIST_FACTOR * mod):.5f}; refine the grid"
            )
    # collapse the singleton axes
    index = tuple(
        slice(None) if i in varying else 0 for i in range(len(grid.axes))
    )
    plane = grid.values[index]
    ax_u, ax_v = (grid.axes[i] for i in varying)
    peak = float(np.abs(plane).max())
    if peak == 0.0:
        return PhaseSpaceFeatures((), (), None, None, None)

    interior = plane[1:-1, 1:-1]
    neighbors = [
        plane[1 + du:plane.shape[0] - 1 + du, 1 + dv:plane.shape[1] - 1 + dv]
        for du in (-1, 0, 1)
        for dv in (-1, 0, 1)
        if (du, dv) != (0, 0)
    ]
    is_max = np.all([interior > nb for nb in neighbors], axis=0)
    is_min = np.all([interior < nb for nb in neighbors], axis=0)
    keep = (is_max | is_min) & (np.abs(interior) >= _SIGNIFICANCE * peak)
    rows, cols = np.nonzero(keep)
    values = interior[rows, cols]
    order = np.argsort(-np.abs(values), kind="stable")
    # each axis read at the kept points, a singleton axis at its one value:
    # (n, 2M) floats whose complex view keeps a -0.0 coordinate's sign
    at = dict(zip(varying, (rows[order] + 1, cols[order] + 1)))
    coords = np.stack(
        [np.broadcast_to(ax.values[at.get(i, 0)], order.shape)
         for i, ax in enumerate(grid.axes)],
        axis=-1,
    )

    fringe_axis, wavelength = _fringe_profile(plane, ax_u, ax_v)
    return PhaseSpaceFeatures(
        peak_locations=tuple(map(tuple, coords.view(complex).tolist())),
        peak_values=tuple(values[order].tolist()),
        fringe_wavelength=wavelength,
        fringe_axis=fringe_axis,
        peak_separation=widest_separation(coords[:, varying]),
    )


def widest_separation(points) -> float | None:
    """Largest Euclidean distance between any two points; None below two."""
    if len(points) < 2:
        return None
    pts = np.asarray(points, dtype=float)
    deltas = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((deltas ** 2).sum(axis=-1)).max())


def _fringe_profile(plane, ax_u, ax_v):
    """Wavelength from zero crossings of the demeaned central fringe cut."""
    if ax_v.name.startswith("im") or not ax_u.name.startswith("im"):
        axis_name, line_vals = ax_v.name, ax_v.values
        cut_index = int(np.argmin(np.abs(ax_u.values)))
        profile = plane[cut_index, :]
    else:
        axis_name, line_vals = ax_u.name, ax_u.values
        cut_index = int(np.argmin(np.abs(ax_v.values)))
        profile = plane[:, cut_index]
    profile = profile - profile.mean()
    y0, y1 = profile[:-1], profile[1:]
    # a sample at zero is a crossing; a sign change is interpolated linearly
    hit = (y0 == 0.0) | (y0 * y1 < 0.0)
    y0, y1 = y0[hit], y1[hit]
    step = np.diff(line_vals)[hit]
    crossings = line_vals[:-1][hit] + y0 / np.where(y0 == 0.0, 1.0, y0 - y1) * step
    if len(crossings) < 4:
        return axis_name, None
    return axis_name, 2.0 * float(np.diff(crossings).mean())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_grid_csv(grid: WignerGrid, handle: TextIO) -> None:
    """Write the CSV export of ``grid`` to the text ``handle``: the header
    line, then blocks of at most ``_CSV_BLOCK_ROWS`` rows in C order, so the
    text of the whole grid is never held.

    A two-mode slice where a single mode varies flattens to that mode's
    plane and the plain ``re,im,w`` header; a joint grid keeps all four
    coordinates per row, singletons written out.
    """
    axes = list(grid.axes)
    if len(axes) == 4:
        first = axes[0].values.size > 1 or axes[1].values.size > 1
        second = axes[2].values.size > 1 or axes[3].values.size > 1
        if first != second:
            axes = axes[0:2] if first else axes[2:4]
    if len(axes) == 2:
        handle.write("re,im,w\n")
    else:
        handle.write(",".join([ax.name for ax in axes] + ["w"]) + "\n")
    # each axis value is formatted once and the C-order coordinate prefixes
    # are joined lazily from those strings, so each row formats only its W
    # value and only one block of rows is held
    texts = [[repr(v) + "," for v in ax.values.tolist()] for ax in axes]
    prefixes = map("".join, itertools.product(*texts))
    flat = grid.values.reshape(-1)
    for start in range(0, flat.size, _CSV_BLOCK_ROWS):
        # the values come first, so zip stops without taking a spare prefix
        values = flat[start : start + _CSV_BLOCK_ROWS].tolist()
        handle.write("\n".join([p + repr(w) for w, p in zip(values, prefixes)]) + "\n")


def grid_to_json(grid: WignerGrid) -> dict:
    return {
        "state": grid.state,
        "convention": grid.convention,
        "slice_spec": grid.slice_spec,
        "axes": [
            {"name": ax.name, "values": ax.values.tolist()} for ax in grid.axes
        ],
        "values": grid.values.ravel().tolist(),
    }
