"""Truncated Fock-space numerics used to cross-check the closed forms.

Everything lives on a joint basis of ``modes`` oscillators truncated at a
shared per-mode photon cutoff.  One mechanism serves every unitary in the
package: the exponential of the truncated Hermitian generator, taken from
its eigendecomposition.  Both generators reduce to real symmetric
tridiagonal matrices: the displacement generator is a phase-rotated
quadrature, and the beamsplitter generator splits into one hopping block per
total photon count.  Two-mode unitaries conserve that count, so they are
stored and applied as those blocks (``TwoModeKernel``, O(d^3) entries); no
(d^2 x d^2) matrix is ever built.  One in-place core (``_mix_in_place``)
applies them: a block multiplies only the columns of the other modes that
hold a nonzero amplitude (exact zero, no tolerance) and writes its result
back over the amplitudes it read.  ``apply_two_mode`` runs that core on a
copy; the splitting network runs it on the one buffer it owns, which it
grows from the one-mode head by a vacuum mode before each mixer, so no
mixer ever scans modes still in vacuum.  The block eigenpairs do not depend
on the mixing angle and are cached per cutoff.

States are ``FockVector``s of at most MAX_JOINT_DIM amplitudes, and
single-mode operators are plain (d, d) arrays (``mode_ops``,
``displacement_op``); no operator on more than one mode is ever built.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import CatFamily, CatStateSpec, abs2, hcs_norms, omega_norm
from .errors import DomainError, SizingError, TruncationError

#: Largest joint dimension for state vectors ((cutoff+1)**modes).
MAX_JOINT_DIM = 1 << 22

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


@dataclass(frozen=True)
class TwoModeKernel:
    """Number-conserving two-mode unitary stored as photon-number blocks.

    ``blocks[n]`` acts on the states |k, n - k> for k in ``ks[n]``: entry
    (r, c) is the amplitude from |ks[n][c], n - ks[n][c]> to
    |ks[n][r], n - ks[n][r]>.  The blocks partition every pair of counts up to
    the cutoff, so the unitary holds O(d^3) entries instead of d^4.
    """

    cutoff: int
    ks: tuple
    blocks: tuple

    @property
    def size(self) -> int:
        """Number of stored entries."""
        return sum(block.size for block in self.blocks)


def beamsplitter_kernel(theta: float, cutoff: int) -> TwoModeKernel:
    """Photon-number blocks of exp(i theta (a^dag b + b^dag a)).

    The generator conserves total photon number, so the exponential is taken
    block by block: the block at total count n is theta times a real
    symmetric tridiagonal hopping matrix H_n of size at most cutoff + 1, and
    exp(i theta H_n) = V e^{i theta Lambda} V^T from its eigenpairs, which do
    not depend on theta and are cached per cutoff (``_block_eigh``).
    Refuses cutoffs whose blocks would hold more than MAX_JOINT_DIM entries.
    """
    d = cutoff + 1
    entries = d * (2 * d * d + 1) // 3
    if entries > MAX_JOINT_DIM:
        raise SizingError(
            f"two-mode kernel of {entries} entries exceeds "
            f"MAX_JOINT_DIM = {MAX_JOINT_DIM}"
        )
    ks, eigenpairs = _block_eigh(cutoff)
    blocks = tuple(
        (vecs * np.exp(1j * theta * vals)) @ vecs.T for vals, vecs in eigenpairs
    )
    return TwoModeKernel(cutoff, ks, blocks)


@functools.lru_cache(maxsize=8)
def _block_eigh(cutoff: int) -> tuple[tuple, tuple]:
    """Read-only index ranges ks[n] and hopping-block eigenpairs per total count n.

    H_n couples |k, n - k> to |k + 1, n - k - 1> with amplitude
    sqrt((k + 1)(n - k)), for the k in ks[n] that keep both counts <= cutoff.
    """
    ks, eigenpairs = [], []
    for n in range(2 * cutoff + 1):
        k = np.arange(max(0, n - cutoff), min(n, cutoff) + 1)
        vals, vecs = _hopping_eigh(np.sqrt((k[:-1] + 1.0) * (n - k[:-1])))
        for arr in (k, vals, vecs):
            arr.flags.writeable = False
        ks.append(k)
        eigenpairs.append((vals, vecs))
    return tuple(ks), tuple(eigenpairs)


def coherent_mixer_kernel(theta: float, cutoff: int) -> TwoModeKernel:
    """Photon-number blocks of P_j(-pi/2) B(theta) P_j(-pi/2).

    Sends |u>|v> to |u cos(theta) + v sin(theta)> |u sin(theta) - v cos(theta)>
    with no stray phases, which is the mixing convention the splitting
    network is stated in.  The phase (-i)^v of the second mode is diagonal,
    so it scales the rows and columns of each block.
    """
    phase = np.exp(-0.5j * math.pi * np.arange(cutoff + 1))
    splitter = beamsplitter_kernel(theta, cutoff)
    blocks = tuple(
        (phase[n - k][:, None] * block) * phase[n - k][None, :]
        for n, (k, block) in enumerate(zip(splitter.ks, splitter.blocks))
    )
    return TwoModeKernel(cutoff, splitter.ks, blocks)


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


def apply_split_network(head: FockVector, modes: int) -> FockVector:
    """Feed ``head`` and ``modes`` - 1 vacuum modes through the even-splitting
    mixer chain over the adjacent mode pairs.

    The state is grown as the protocol runs: before the mixer on modes
    (q - 1, q) it gets mode q in vacuum, and the mixer acts in place on that
    buffer, so mixer q only meets the d^(q-1) columns of the modes before it.
    The final size is checked against MAX_JOINT_DIM before the first buffer
    is allocated, and at most one joint vector of ``modes`` modes is alive.
    """
    if head.modes != 1:
        raise DomainError(f"the network head must be one mode, got {head.modes}")
    d = head.cutoff + 1
    # refuse before the first buffer; the last one is the largest
    _check_joint_dim(d**modes)
    state = head.amplitudes
    for q, theta in enumerate(cat_split_thetas(modes), start=1):
        grown = np.zeros((d,) * (q + 1), dtype=complex)
        grown[..., 0] = state
        state = grown
        _mix_in_place(coherent_mixer_kernel(theta, head.cutoff), state, q - 1, q)
    return FockVector(head.cutoff, modes, state.reshape(-1))


def apply_single_mode(kernel: np.ndarray, state: FockVector, mode: int) -> FockVector:
    """Apply a (d x d) matrix to one mode of a joint state."""
    _check_mode_index(mode, state.modes)
    t = np.tensordot(kernel, state.as_tensor(), axes=([1], [mode]))
    t = np.moveaxis(t, 0, mode)
    return FockVector(cutoff=state.cutoff, modes=state.modes, amplitudes=t.reshape(-1))


def apply_two_mode(
    kernel: TwoModeKernel, state: FockVector, mode_i: int, mode_j: int
) -> FockVector:
    """Apply a number-conserving two-mode unitary to modes (mode_i, mode_j).

    Runs ``_mix_in_place`` on a copy of the amplitudes, so ``state`` is left
    unchanged.
    """
    _check_mode_pair(mode_i, mode_j, state.modes)
    if kernel.cutoff != state.cutoff:
        raise DomainError(
            f"kernel cutoff {kernel.cutoff} does not match state cutoff {state.cutoff}"
        )
    out = state.amplitudes.copy()
    _mix_in_place(kernel, out.reshape(state.as_tensor().shape), mode_i, mode_j)
    return FockVector(state.cutoff, state.modes, out)


def _mix_in_place(kernel: TwoModeKernel, t: np.ndarray, mode_i: int, mode_j: int):
    """Overwrite the joint tensor ``t`` with the kernel applied to (mode_i, mode_j).

    Each block at total count n reads the anti-diagonal t[ks, n - ks] of the
    (mode_i, mode_j) slice as a (len(ks), rest) matrix, one column per basis
    state of the other modes, and writes the product back to the same
    positions.  The blocks partition the (mode_i, mode_j) pairs, so no block
    reads what another has written.  A column that is exactly zero maps to
    zero and is left as it is; only the columns holding a nonzero amplitude
    go through the block product, at O(d^3) per column.
    """
    view = np.moveaxis(t, [mode_i, mode_j], [0, 1])
    rest = view.shape[2:]
    for n, (ks, block) in enumerate(zip(kernel.ks, kernel.blocks)):
        x = view[ks, n - ks].reshape(len(ks), -1)
        cols = np.flatnonzero(x.any(axis=0))
        if cols.size:
            other = np.unravel_index(cols, rest) if rest else ()
            view[(ks[:, None], (n - ks)[:, None], *other)] = block @ x[:, cols]


def tensor(*parts: FockVector) -> FockVector:
    """Kronecker product of FockVectors with equal cutoffs."""
    if not parts:
        raise DomainError("tensor needs at least one argument")
    if not all(isinstance(p, FockVector) for p in parts):
        raise DomainError("tensor arguments must be FockVectors")
    cutoffs = {p.cutoff for p in parts}
    if len(cutoffs) != 1:
        raise DomainError(f"tensor requires a shared cutoff, got {sorted(cutoffs)}")
    modes = sum(p.modes for p in parts)
    # refuse before the kron products allocate the full vector
    _check_joint_dim((parts[0].cutoff + 1) ** modes)
    amps = functools.reduce(np.kron, [p.amplitudes for p in parts])
    return FockVector(cutoff=parts[0].cutoff, modes=modes, amplitudes=amps)


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


def _check_mode_pair(mode_i: int, mode_j: int, modes: int):
    _check_mode_index(mode_i, modes)
    _check_mode_index(mode_j, modes)
    if mode_i == mode_j:
        raise DomainError("mode indices must differ")
