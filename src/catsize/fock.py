"""Truncated Fock-space numerics used to cross-check the closed forms.

Everything lives on a joint basis of ``modes`` oscillators truncated at a
shared per-mode photon cutoff.  One mechanism serves every unitary in the
package: the exponential of the truncated Hermitian generator, taken from
its eigendecomposition.  Both generators reduce to real symmetric
tridiagonal matrices: the displacement generator is a phase-rotated
quadrature, and the beamsplitter generator splits into one hopping block per
total photon count.

The only two-mode unitary the package applies is the coherent mixer of the
splitting network (``split_network_slabs``), and every mixer there meets a
mode still in vacuum: the mixer on (q - 1, q) sends |n, 0> to
sum_a T[a, n - a] |a, n - a>, so it needs only column n of each hopping
block with n <= cutoff (``_vacuum_mixer``, O(d^3) per mixer from the
eigenpairs of H_n, cached per block n and shared by every cutoff) and is one
broadcast multiply over a Hankel view of the state (``_split_off_vacuum``);
no (d^2 x d^2) matrix and no block of a general two-mode unitary is built.
After the first mixer no mixer touches mode 0, so the output is split and
yielded in blocks of mode-0 rows of at most ``_SLAB_DIM`` amplitudes (1 MB,
so the slabs stay in cache), and no route gathers them into one joint
vector.  The head holds at most ``cutoff`` photons and every mixer conserves
them, so the block that starts at row s is computed and yielded only as its
corner, indices below d - s on every later mode: at four modes, one row per
block, that is sum k^3 for k <= d amplitudes instead of d^4.  The general
block-stored two-mode applier the network is checked against, the gather of
the slabs into one joint vector and the Kronecker product of vectors live in
the tests (``tests/dense_reference.py``).

States are ``FockVector``s of at most MAX_JOINT_DIM amplitudes, and
single-mode operators are plain (d, d) arrays (``mode_ops``,
``displacement_op``); no operator on more than one mode is ever built.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_forms import CatFamily, CatStateSpec, abs2, hcs_norms, omega_norm
from .errors import DomainError, SizingError, TruncationError

#: Largest joint dimension for state vectors ((cutoff+1)**modes).
MAX_JOINT_DIM = 1 << 22

#: Largest slab of the splitting network output, in amplitudes (1 MB, cache-sized).
_SLAB_DIM = 1 << 16

#: Largest amplitude mass a truncated coherent state may leave beyond its cutoff.
_TAIL_TOL = 1e-9


@dataclass(frozen=True)
class FockVector:
    """State vector on ``modes`` oscillators with a shared per-mode cutoff."""

    cutoff: int
    modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0 or self.modes < 1:
            raise DomainError("cutoff must be >= 0 and modes >= 1")
        dim = _check_joint_dim((self.cutoff + 1) ** self.modes)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != dim:
            raise DomainError(f"expected {dim} amplitudes, got {amps.size}")
        object.__setattr__(self, "amplitudes", amps)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.cutoff + 1,) * self.modes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def default_cutoff(alpha) -> int:
    """Cutoff heuristic ceil(|alpha|^2 + 8|alpha| + 20).

    Eight standard deviations of headroom above the Poisson mean plus a
    floor of twenty keeps per-mode tail mass far below 1e-9 for |alpha| <= 4.
    Raises SizingError where |alpha|^2 overflows a float.
    """
    r = abs(complex(alpha))
    levels = r * r + 8.0 * r + 20.0
    if math.isinf(levels):
        raise SizingError(f"no finite cutoff holds |alpha| = {r:g}")
    return math.ceil(levels)


def coherent_vector(alpha, cutoff: int) -> FockVector:
    """Truncated coherent state, built by the stable amplitude recursion.

    Raises TruncationError when the amplitude mass beyond the cutoff exceeds
    1e-9 (``_TAIL_TOL``).
    """
    alpha = complex(alpha)
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs2(alpha))
    for n in range(cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1.0)
    tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"coherent state |alpha| = {abs(alpha):g} keeps tail mass {tail:.3e} "
            f"beyond cutoff {cutoff} (tolerance {_TAIL_TOL:g})",
            tail_mass=tail,
            cutoff=cutoff,
        )
    return FockVector(cutoff=cutoff, modes=1, amplitudes=amps)


def kitten_vectors(alpha, cutoff: int):
    """Normalized even and odd single-mode superpositions (|a> +- |-a>)/A."""
    plus = coherent_vector(alpha, cutoff)
    minus = coherent_vector(-alpha, cutoff)
    a_plus, a_minus = hcs_norms(alpha)
    even = (plus.amplitudes + minus.amplitudes) / a_plus
    odd = (plus.amplitudes - minus.amplitudes) / a_minus
    return (
        FockVector(cutoff=cutoff, modes=1, amplitudes=even),
        FockVector(cutoff=cutoff, modes=1, amplitudes=odd),
    )


def mode_ops(cutoff: int) -> np.ndarray:
    """Truncated single-mode lowering operator a as a (d, d) array, d = cutoff + 1."""
    d = cutoff + 1
    lower = np.zeros((d, d), dtype=complex)
    lower[np.arange(d - 1), np.arange(1, d)] = np.sqrt(np.arange(1, d))
    return lower


def displacement_op(alpha, cutoff: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated basis.

    With alpha = r e^{i phi} the truncated generator equals
    Phi (-i sqrt(2) r x) Phi^dag, where x = (a + a^dag)/sqrt(2) and
    Phi = diag((i e^{i phi})^n), so D = W diag(e^{-i sqrt(2) r lambda}) W^dag
    with W = Phi V and (lambda, V) the eigenpairs of the truncated x.
    Returns the (d, d) array.
    """
    alpha = complex(alpha)
    vals, vecs = _quadrature_eigh(cutoff)
    rotation = (1j * np.exp(1j * cmath.phase(alpha))) ** np.arange(cutoff + 1)
    w = rotation[:, None] * vecs
    phases = np.exp(-1j * math.sqrt(2.0) * abs(alpha) * vals)
    return (w * phases) @ w.conj().T


@functools.lru_cache(maxsize=64)
def _quadrature_eigh(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of the truncated quadrature (a + a^dag)/sqrt(2)."""
    vals, vecs = _hopping_eigh(np.sqrt(np.arange(1.0, cutoff + 1) / 2.0))
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


def _hopping_eigh(hop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the real symmetric tridiagonal matrix with zero diagonal
    and off-diagonal ``hop``."""
    return np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))


def _vacuum_mixer(theta: float, cutoff: int) -> np.ndarray:
    """Amplitudes T[a, b] from |a + b, 0> to |a, b> of the coherent mixer
    P_j(-pi/2) exp(i theta (a^dag b + b^dag a)) P_j(-pi/2), as a (d, d) array.

    The mixer sends |u>|v> to |u cos(theta) + v sin(theta)>
    |u sin(theta) - v cos(theta)> with no stray phases, which is the mixing
    convention the splitting network is stated in.  Its generator conserves
    the total count n; on the states |k, n - k> it is theta times the hopping
    matrix H_n, and |n, 0> is the last of them, so only column n of
    exp(i theta H_n) = V e^{i theta Lambda} V^T is needed, O(n^2) from the
    cached eigenpairs (``_vacuum_block_eigh``).  The phase (-i)^b of the
    second mode scales that column.  T is zero where a + b > cutoff.
    """
    d = cutoff + 1
    phase = np.exp(-0.5j * math.pi * np.arange(d))
    mixer = np.zeros((d, d), dtype=complex)
    for n in range(d):
        vals, vecs = _vacuum_block_eigh(n)
        a = np.arange(n + 1)
        mixer[a, n - a] = phase[n - a] * ((vecs * np.exp(1j * theta * vals)) @ vecs[n])
    return mixer


# a network with a mixer has at least two modes, so d**2 <= MAX_JOINT_DIM
# bounds the blocks any mixer asks for, and the cache never evicts one
@functools.lru_cache(maxsize=math.isqrt(MAX_JOINT_DIM))
def _vacuum_block_eigh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of the hopping block H_n.

    H_n couples |k, n - k> to |k + 1, n - k - 1> with amplitude
    sqrt((k + 1)(n - k)), for k = 0 .. n - 1.  It does not depend on the
    cutoff, so mixers at every cutoff share the blocks; the cache holds the
    blocks n <= the largest cutoff asked for, one cutoff's set.
    """
    k = np.arange(n)
    vals, vecs = _hopping_eigh(np.sqrt((k + 1.0) * (n - k)))
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


def cat_split_thetas(modes: int) -> list[float]:
    """Mixing angles that split one amplitude-sqrt(M) mode evenly over M modes.

    theta_q = f^(M-1-q)(pi/4) with f(x) = atan(1/cos(x)), for q = 1 .. M-1,
    in the order the mixers are applied (pair (q, q+1) gets theta_q).
    """
    if modes < 1:
        raise DomainError(f"modes must be >= 1, got {modes}")
    thetas = []
    for q in range(1, modes):
        t = math.pi / 4.0
        for _ in range(modes - 1 - q):
            t = math.atan(1.0 / math.cos(t))
        thetas.append(t)
    return thetas


def split_network_slabs(head: FockVector, modes: int) -> Iterator[np.ndarray]:
    """Feed ``head`` and ``modes`` - 1 vacuum modes through the even-splitting
    mixer chain over the adjacent mode pairs, and yield the output in corner
    slabs.

    Each slab is the nonzero corner of a block of consecutive mode-0 rows of
    the output tensor, in row order: the block of ``rows`` rows that starts
    at row s is yielded as out[s : s + rows, :e, ..., :e] with e = d - s and
    d = cutoff + 1.  Every mixer conserves photon number and the head holds
    at most ``cutoff`` photons, so every amplitude outside the corner is
    exactly zero.  The mixer on modes (q - 1, q) always meets mode q in
    vacuum, so it appends that mode and splits the last one onto it
    (``_split_off_vacuum``).  Mixer 1 runs once on the head; no later mixer
    touches mode 0, so each block of its rows is split on its own, with the
    (e, e) corner of each later mixer.  A block has the rows of at most
    ``_SLAB_DIM`` amplitudes of the full tensor, or one row where a row alone
    is larger.  The head and the final size (against MAX_JOINT_DIM) are
    checked when this is called, before the first buffer is allocated.
    """
    if head.modes != 1:
        raise DomainError(f"the network head must be one mode, got {head.modes}")
    d = head.cutoff + 1
    _check_joint_dim(d**modes)
    thetas = cat_split_thetas(modes)
    return _network_slabs(head, thetas, max(1, _SLAB_DIM // d ** (modes - 1)))


def _network_slabs(
    head: FockVector, thetas: list[float], rows: int
) -> Iterator[np.ndarray]:
    d = head.cutoff + 1
    mixers = [_vacuum_mixer(theta, head.cutoff) for theta in thetas]
    pair = functools.reduce(_split_off_vacuum, mixers[:1], head.amplitudes)
    for start in range(0, d, rows):
        e = d - start
        corner = pair[_corner(start, rows, e, pair.ndim)]
        yield functools.reduce(
            _split_off_vacuum, [mixer[:e, :e] for mixer in mixers[1:]], corner
        )


def _corner(start: int, rows: int, e: int, modes: int) -> tuple:
    """Index of the rows start .. start + rows - 1, cut to :e on the other modes."""
    return (slice(start, start + rows),) + (slice(e),) * (modes - 1)


def _split_off_vacuum(state: np.ndarray, mixer: np.ndarray) -> np.ndarray:
    """Append a vacuum mode to ``state`` and mix it with the last mode.

    out[..., a, b] = mixer[a, b] * state[..., a + b]: one broadcast multiply
    over the Hankel view of the last axis, padded with zeros to 2e - 1
    (e = len(mixer)) so that every a + b >= e reads an exact zero.
    """
    e = len(mixer)
    padded = np.zeros(state.shape[:-1] + (2 * e - 1,), dtype=complex)
    padded[..., :e] = state
    return mixer * sliding_window_view(padded, e, axis=-1)


def apply_single_mode(kernel: np.ndarray, state: FockVector, mode: int) -> FockVector:
    """Apply a (d x d) matrix to one mode of a joint state.

    One matmul on a reshaped view of the amplitudes, with no transposed copy:
    (-1, d) @ kernel^T for the last mode, kernel @ (d**mode, d, -1) otherwise.
    """
    _check_mode_index(mode, state.modes)
    d = state.cutoff + 1
    if mode == state.modes - 1:
        out = state.amplitudes.reshape(-1, d) @ kernel.T
    else:
        out = kernel @ state.amplitudes.reshape(d**mode, d, -1)
    return FockVector(cutoff=state.cutoff, modes=state.modes, amplitudes=out.reshape(-1))


def total_photon_pmf(state: FockVector) -> np.ndarray:
    """Probability of each total photon count, length modes*cutoff + 1."""
    d = state.cutoff + 1
    totals = np.indices((d,) * state.modes).reshape(state.modes, -1).sum(axis=0)
    weights = np.abs(state.amplitudes) ** 2
    weights = weights / weights.sum()
    return np.bincount(totals, weights=weights, minlength=state.modes * state.cutoff + 1)


def build_state(spec: CatStateSpec, cutoff: int | None = None) -> FockVector:
    """Assemble the truncated vector for a state family.

    The vector is scaled by the closed-form normalization, so any deviation
    of its numeric norm from one is truncation loss, left in place rather
    than silently renormalized.
    """
    if cutoff is None:
        cutoff = default_cutoff(spec.alpha)
    # refuse before assembly; the kron products allocate the full vector
    _check_joint_dim((cutoff + 1) ** spec.modes)
    return FockVector(cutoff=cutoff, modes=spec.modes, amplitudes=_assemble(spec, cutoff))


def _kron_power(v: np.ndarray, n: int) -> np.ndarray:
    return functools.reduce(np.kron, [v] * n)


def _assemble(spec: CatStateSpec, cutoff: int) -> np.ndarray:
    alpha = complex(spec.alpha)
    family = spec.family
    if family in (CatFamily.EVEN_CAT, CatFamily.ODD_CAT):
        even, odd = kitten_vectors(alpha, cutoff)
        return (even if family is CatFamily.EVEN_CAT else odd).amplitudes
    if family is CatFamily.PRODUCT_COHERENT:
        return _kron_power(coherent_vector(alpha, cutoff).amplitudes, spec.modes)
    if family is CatFamily.OMEGA:
        plus = coherent_vector(alpha, cutoff)
        minus = coherent_vector(-alpha, cutoff)
        # in place: _kron_power(v, 1) is v itself, which only this call holds
        branches = _kron_power(plus.amplitudes, spec.modes)
        branches += _kron_power(minus.amplitudes, spec.modes)
        branches *= omega_norm(spec.modes, alpha)
        return branches
    if family is CatFamily.HCS:
        even, odd = kitten_vectors(alpha, cutoff)
        branches = _kron_power(even.amplitudes, spec.modes)
        branches += _kron_power(odd.amplitudes, spec.modes)
        branches /= math.sqrt(2.0)
        return branches
    raise DomainError(f"unknown family {family}")


def _check_joint_dim(dim: int) -> int:
    if dim > MAX_JOINT_DIM:
        raise SizingError(
            f"joint dimension {dim} exceeds MAX_JOINT_DIM = {MAX_JOINT_DIM}"
        )
    return dim


def _check_mode_index(mode: int, modes: int):
    if not 0 <= mode < modes:
        raise DomainError(f"mode index {mode} out of range for {modes} modes")
