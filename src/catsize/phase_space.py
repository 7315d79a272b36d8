"""Wigner functions of branch superpositions, closed form and numeric.

The convention throughout is the displaced-parity form

    W(gamma) = (2/pi)^m <D(gamma) P_tot D(-gamma)>

with P_tot the joint photon-number parity.  Closed forms reduce every state
built from coherent branches to Gaussians exp(-2|gamma -+ alpha|^2), the
envelope exp(-2|gamma|^2), and fringe phases 4 Im(conj(alpha) gamma); the
numeric route displaces a truncated Fock vector and reads off the parity sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import CatFamily, CatStateSpec, abs2, branch_overlap, hcs_norms
from .errors import DomainError, ResolutionError, SizingError, TruncationError
from .fock import (
    MAX_JOINT_DIM,
    FockVector,
    apply_single_mode,
    build_state,
    coherent_vector,
    default_cutoff,
    displacement_op,
)

CONVENTION = "W(gamma) = (2/pi)^m <D(gamma) P_tot D(-gamma)>"

#: Largest mass the displaced vector may keep in its top three Fock levels.
_HEADROOM_TOL = 1e-6
#: Fraction of the global |W| maximum an extremum must reach to count.
_SIGNIFICANCE = 0.25
#: Feature grids must step no coarser than pi / (_NYQUIST_FACTOR |alpha|).
_NYQUIST_FACTOR = 16.0


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def _gauss(gamma, center):
    g = np.asarray(gamma, dtype=complex)
    # a squared distance that overflows to inf gives exp(-inf) = 0, as it should
    with np.errstate(over="ignore"):
        return np.exp(-2.0 * (np.abs(g - center) ** 2))


def _fringe_phase(gamma, alpha):
    g = np.asarray(gamma, dtype=complex)
    return 4.0 * (np.conjugate(alpha) * g).imag


def wigner_coherent(gamma, alpha):
    return (2.0 / math.pi) * _gauss(gamma, alpha)


def wigner_cat(gamma, alpha, parity: int = 1):
    """Single-mode even (parity=+1) or odd (parity=-1) branch superposition."""
    if parity not in (1, -1):
        raise DomainError(f"parity must be +1 or -1, got {parity}")
    if parity == -1:
        hcs_norms(alpha)  # refuses where the odd branch degenerates
    w = branch_overlap(alpha)
    norm_sq = 2.0 + 2.0 * parity * w
    cross = 2.0 * _gauss(gamma, 0.0) * np.cos(_fringe_phase(gamma, alpha))
    num = _gauss(gamma, alpha) + _gauss(gamma, -alpha) + parity * cross
    return (2.0 / math.pi) * num / norm_sq


def wigner_omega(gammas, alpha, modes: int | None = None):
    """Joint Wigner function of the N-mode two-branch superposition.

    ``gammas`` holds one complex phase-space point per mode in its last axis.
    """
    g = np.asarray(gammas, dtype=complex)
    if g.ndim == 0:
        g = g.reshape(1)
    n = g.shape[-1]
    if modes is not None and modes != n:
        raise DomainError(f"expected {modes} phase-space coordinates, got {n}")
    w = branch_overlap(alpha)
    norm_sq = 2.0 + 2.0 * w ** n
    plus = np.prod(_gauss(g, alpha), axis=-1)
    minus = np.prod(_gauss(g, -alpha), axis=-1)
    cross = 2.0 * np.prod(_gauss(g, 0.0), axis=-1) * np.cos(
        np.sum(_fringe_phase(g, alpha), axis=-1)
    )
    return (2.0 / math.pi) ** n * (plus + minus + cross) / norm_sq


def wigner_hcs2(gamma1, gamma2, alpha):
    """Two-mode hidden superposition of the even/odd single-mode pair.

    Expanding over the kitten basis gives even-even and odd-odd diagonal
    blocks plus one cross block; the cross block's real part combines the
    Gaussian differences with a product of fringe sines.
    """
    w = branch_overlap(alpha)
    a_plus, a_minus = hcs_norms(alpha)

    def pieces(gamma):
        gp = _gauss(gamma, alpha)
        gm = _gauss(gamma, -alpha)
        env = _gauss(gamma, 0.0)
        theta = _fringe_phase(gamma, alpha)
        num_e = gp + gm + 2.0 * env * np.cos(theta)
        num_o = gp + gm - 2.0 * env * np.cos(theta)
        diff = gp - gm
        sine = env * np.sin(theta)
        return num_e, num_o, diff, sine

    e1, o1, d1, s1 = pieces(gamma1)
    e2, o2, d2, s2 = pieces(gamma2)
    diag = e1 * e2 / a_plus ** 4 + o1 * o2 / a_minus ** 4
    cross = (d1 * d2 - 4.0 * s1 * s2) / (2.0 * (1.0 - w * w))
    return (4.0 / math.pi ** 2) * 0.5 * (diag + cross)


# ---------------------------------------------------------------------------
# numeric route
# ---------------------------------------------------------------------------

def wigner_cutoff(peak, gammas) -> int:
    """Cutoff for ``wigner_numeric`` of a state whose branches reach per-mode
    amplitude ``peak``, at the coordinates ``gammas`` (any shape).

    Displacing by -gamma moves a branch to amplitude at most
    r = |peak| + max|gamma|, whose photon count is Poisson with mean r^2 and
    standard deviation r.  For r from 0.5 to 12, ceil(r^2 + 5r + 6) is zero
    to three levels above the smallest cutoff at which that law leaves less
    than the headroom guard's 1e-6 in the top three levels.  The result never
    drops below default_cutoff(peak), which the undisplaced state needs.
    """
    r = abs(complex(peak)) + float(np.abs(np.asarray(gammas, dtype=complex)).max())
    return max(default_cutoff(peak), math.ceil(r * r + 5.0 * r + 6.0))


def wigner_numeric(vec: FockVector, gammas) -> float:
    """Displaced-parity value of a truncated joint vector at one point.

    ``gammas`` holds one coordinate for each of the first k <= ``modes``
    modes; the value is that of the reduced state of those k modes, the
    probabilities of the displaced vector summed over the remaining modes.
    Displacement can push amplitude toward the cutoff, where the truncated
    operator is no longer unitary; the guard requires the displaced vector to
    keep its top three Fock levels on every mode below 1e-6 of the total mass
    (``_HEADROOM_TOL``).  The parity sum of probabilities is real by
    construction.
    """
    points = [complex(g) for g in np.atleast_1d(np.asarray(gammas, dtype=complex))]
    if not 1 <= len(points) <= vec.modes:
        raise DomainError(
            f"state has {vec.modes} modes but {len(points)} coordinates were given"
        )
    d = vec.cutoff + 1
    work = vec
    for mode, gamma in enumerate(points):
        work = apply_single_mode(displacement_op(-gamma, vec.cutoff), work, mode)
    probs = np.abs(work.as_tensor()) ** 2
    total = float(probs.sum())
    if total <= 0.0:
        raise TruncationError("the displaced vector lost all amplitude", 1.0, vec.cutoff)
    top = min(3, d)
    for mode in range(vec.modes):
        marginal = np.moveaxis(probs, mode, 0).reshape(d, -1).sum(axis=1)
        tail = float(marginal[d - top:].sum()) / total
        if tail > _HEADROOM_TOL:
            raise TruncationError(
                f"displaced amplitude reaches the cutoff on mode {mode}: "
                f"top-{top} mass {tail:.3e} exceeds {_HEADROOM_TOL:.1e}",
                tail,
                vec.cutoff,
            )
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    acc = probs
    for _ in points:
        acc = np.tensordot(signs, acc, axes=([0], [0]))
    return (2.0 / math.pi) ** len(points) * float(acc.sum()) / total


# ---------------------------------------------------------------------------
# fringe suppression under partial trace
# ---------------------------------------------------------------------------

def partial_trace_fringe_suppression(modes: int, n_traced: int, alpha) -> float:
    """Closed-form factor multiplying the interference term after discarding
    ``n_traced`` of the modes."""
    if not 0 <= n_traced <= modes:
        raise DomainError(f"n_traced must lie in [0, {modes}], got {n_traced}")
    return math.exp(-2.0 * n_traced * abs2(alpha))


def fringe_suppression_check(alpha) -> dict:
    """Measure the interference suppression numerically on a two-mode state.

    Builds the two-mode superposition, evaluates the Wigner function of its
    first mode at the origin (the second mode traced out), and reads the
    interference amplitude as the difference between that value and the
    branch-diagonal reference.  The measured coefficient is compared against
    the closed form exp(-2|alpha|^2); the implied decay exponent is reported
    next to the candidate exponents rather than decided here.
    """
    a = abs2(alpha)
    if a == 0.0:
        raise DomainError("suppression is trivial at alpha = 0")
    spec = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=alpha)
    vec = build_state(spec)
    plus = coherent_vector(alpha, vec.cutoff)
    minus = coherent_vector(-alpha, vec.cutoff)
    scale = 2.0 + 2.0 * branch_overlap(alpha) ** 2
    w_red = wigner_numeric(vec, [0.0])
    w_diag = (wigner_numeric(plus, [0.0]) + wigner_numeric(minus, [0.0])) / scale
    # at the origin the unit-coefficient cross block contributes 2/scale
    # (per branch-ordering) times the kernel value 1, times 2/pi
    unit_cross = (2.0 / math.pi) * 2.0 / scale
    measured = (w_red - w_diag) / unit_cross
    predicted = partial_trace_fringe_suppression(2, 1, alpha)
    return {
        "alpha": complex(alpha),
        "modes": 2,
        "n_traced": 1,
        "measured_coefficient": measured,
        "predicted_coefficient": predicted,
        "ratio": measured / predicted,
        "measured_exponent": -math.log(measured) / (2.0 * a),
        "candidate_exponents": (2.0, 0.5),
    }


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
    _check_grid_points(steps * steps)
    line = np.linspace(lo, hi, steps)
    if steps % 2 and lo == -hi:
        line[steps // 2] = 0.0
    return line


def _check_grid_points(points: int) -> None:
    if points > MAX_JOINT_DIM:
        raise SizingError(f"grid of {points} points exceeds MAX_JOINT_DIM = {MAX_JOINT_DIM}")


def _axis_array(value) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise DomainError("axis values must be scalars or one-dimensional")
    return arr


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
    _check_grid_points(math.prod(a.size for a in arrays))
    mesh = np.meshgrid(*arrays, indexing="ij")
    if state.modes == 1:
        gamma = mesh[0] + 1j * mesh[1]
        fam = state.family
        if fam is CatFamily.PRODUCT_COHERENT:
            values = wigner_coherent(gamma, state.alpha)
        elif fam is CatFamily.EVEN_CAT:
            values = wigner_cat(gamma, state.alpha, parity=1)
        elif fam is CatFamily.ODD_CAT:
            values = wigner_cat(gamma, state.alpha, parity=-1)
        elif fam is CatFamily.OMEGA:
            values = wigner_omega(gamma[..., None], state.alpha, modes=1)
        else:
            raise DomainError(f"no closed-form grid for {fam.value}")
    else:
        gamma1 = mesh[0] + 1j * mesh[1]
        gamma2 = mesh[2] + 1j * mesh[3]
        fam = state.family
        if fam is CatFamily.OMEGA:
            values = wigner_omega(np.stack([gamma1, gamma2], axis=-1), state.alpha)
        elif fam is CatFamily.HCS:
            values = wigner_hcs2(gamma1, gamma2, state.alpha)
        elif fam is CatFamily.PRODUCT_COHERENT:
            values = wigner_coherent(gamma1, state.alpha) * wigner_coherent(
                gamma2, state.alpha
            )
        else:
            raise DomainError(f"no closed-form grid for {fam.value}")
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

    locations = []
    values = []
    coords = []
    for r, c in zip(rows, cols):
        u = float(ax_u.values[r + 1])
        v = float(ax_v.values[c + 1])
        coords.append((u, v))
        values.append(float(interior[r, c]))
        locations.append(_point_location(grid, varying, u, v))
    order = np.argsort([-abs(x) for x in values], kind="stable")
    locations = tuple(locations[i] for i in order)
    values = tuple(values[i] for i in order)
    coords = [coords[i] for i in order]

    fringe_axis, wavelength = _fringe_profile(plane, ax_u, ax_v)
    return PhaseSpaceFeatures(
        peak_locations=locations,
        peak_values=values,
        fringe_wavelength=wavelength,
        fringe_axis=fringe_axis,
        peak_separation=widest_separation(coords),
    )


def widest_separation(points) -> float | None:
    """Largest Euclidean distance between any two points; None below two."""
    if len(points) < 2:
        return None
    pts = np.asarray(points, dtype=float)
    deltas = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((deltas ** 2).sum(axis=-1)).max())


def _point_location(grid: WignerGrid, varying, u, v):
    """Per-mode complex coordinates of one grid point, singletons filled in."""
    full = []
    for i, ax in enumerate(grid.axes):
        if i == varying[0]:
            full.append(u)
        elif i == varying[1]:
            full.append(v)
        else:
            full.append(float(ax.values[0]))
    return tuple(
        complex(full[2 * m], full[2 * m + 1]) for m in range(len(full) // 2)
    )


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
    crossings = []
    for i in range(len(profile) - 1):
        y0, y1 = profile[i], profile[i + 1]
        if y0 == 0.0:
            crossings.append(float(line_vals[i]))
        elif y0 * y1 < 0.0:
            frac = y0 / (y0 - y1)
            crossings.append(float(line_vals[i] + frac * (line_vals[i + 1] - line_vals[i])))
    if len(crossings) < 4:
        return axis_name, None
    spacing = np.diff(np.asarray(crossings))
    return axis_name, 2.0 * float(spacing.mean())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def grid_to_csv(grid: WignerGrid) -> str:
    """Rows in C order.

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
        header = "re,im,w"
    else:
        header = ",".join([ax.name for ax in axes] + ["w"])
    # each axis value is formatted once and the C-order coordinate prefixes
    # are joined from those strings, so each row formats only its W value;
    # the last axis is joined lazily, so only the finished rows are kept
    texts = [[repr(v) + "," for v in ax.values.tolist()] for ax in axes]
    outer = [""]
    for column in texts[:-1]:
        outer = [p + t for p in outer for t in column]
    prefixes = (p + t for p in outer for t in texts[-1])
    lines = [header]
    lines += [p + repr(w) for p, w in zip(prefixes, grid.values.ravel().tolist())]
    return "\n".join(lines) + "\n"


def grid_to_json(grid: WignerGrid) -> dict:
    return {
        "state": grid.state,
        "convention": grid.convention,
        "slice_spec": grid.slice_spec,
        "axes": [
            {"name": ax.name, "values": [float(v) for v in ax.values]}
            for ax in grid.axes
        ],
        "values": [float(v) for v in grid.values.ravel()],
    }
