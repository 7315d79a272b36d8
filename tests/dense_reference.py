"""Reference routes for the tests: projectors, the trace norm, Kronecker
products of vectors, a family's joint state vector with its total-photon pmf
and the joint-vector rqfi variance, the splitting-network output as one
vector and the general two-mode applier.

The package builds no operator on more than one mode and no family's joint
vector; these plain arrays are the full-matrix route its compressed oracles
are checked against.  Its numeric routes read the (d, B) block of
single-mode branch vectors (``fock.family_branches``); ``build_state`` sums
the Kronecker powers of its columns into the (cutoff + 1)^modes vector,
which ``total_photon_pmf`` and ``rqfi_joint_variance`` then read as a
whole.  The package never builds the splitting network output: it
contracts the overlap and the norm as transfer chains over the mixers
(``fock.split_network_overlaps``).  ``tensor`` and ``apply_split_network``
build targets and output as whole vectors.  The package's splitting network
only ever mixes a mode with one in vacuum; the number-conserving two-mode
unitaries below (every photon-number block, any input, any mode pair) are
the general route that network is checked against.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from catsize.closed_forms import CatStateSpec
from catsize.errors import DomainError
from catsize.fock import (
    FockVector,
    apply_single_mode,
    cat_split_thetas,
    check_size,
    default_cutoff,
    family_branches,
)


def projector(amplitudes) -> np.ndarray:
    """|psi><psi| / <psi|psi> as a dense array."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return np.outer(v, v.conj()) / float(np.vdot(v, v).real)


def trace_norm(mat: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian array."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


def tensor(*parts) -> FockVector:
    """Kronecker product of single-mode (d,) arrays of one length, as the
    joint FockVector of ``len(parts)`` modes."""
    if not parts:
        raise DomainError("tensor needs at least one argument")
    shapes = {p.shape for p in parts}
    if len(shapes) != 1 or parts[0].ndim != 1:
        raise DomainError(f"tensor requires (d,) arrays of one length, got {sorted(shapes)}")
    d = len(parts[0])
    # refuse before the kron products allocate the full vector
    check_size(d ** len(parts), f"joint dimension {d ** len(parts)}")
    return FockVector(cutoff=d - 1, modes=len(parts), amplitudes=functools.reduce(np.kron, parts))


def build_state(spec: CatStateSpec, cutoff: int | None = None) -> FockVector:
    """The truncated joint vector (times / over) sum_b v_b^(x modes) of a
    family, from its branch vectors (``fock.family_branches``).

    The vector is scaled by the closed-form normalization, so any deviation
    of its numeric norm from one is truncation loss, left in place rather
    than silently renormalized.
    """
    if cutoff is None:
        cutoff = default_cutoff(spec.alpha)
    # refuse before assembly; the kron products allocate the full vector
    dim = (cutoff + 1) ** spec.modes
    check_size(dim, f"joint dimension {dim}")
    return FockVector(cutoff=cutoff, modes=spec.modes, amplitudes=_assemble(spec, cutoff))


def _kron_power(v: np.ndarray, n: int) -> np.ndarray:
    return functools.reduce(np.kron, [v] * n)


def _assemble(spec: CatStateSpec, cutoff: int) -> np.ndarray:
    columns, times, over = family_branches(spec, cutoff)
    # in place: _kron_power(v, 1) is a view of columns, which only this call holds
    amps = _kron_power(columns[:, 0], spec.modes)
    for v in columns.T[1:]:
        amps += _kron_power(v, spec.modes)
    amps *= times
    amps /= over
    return amps


def total_photon_pmf(state: FockVector) -> np.ndarray:
    """Probability of each total photon count, length modes*cutoff + 1."""
    d = state.cutoff + 1
    totals = np.indices((d,) * state.modes).reshape(state.modes, -1).sum(axis=0)
    weights = np.abs(state.amplitudes) ** 2
    weights = weights / weights.sum()
    return np.bincount(totals, weights=weights, minlength=state.modes * state.cutoff + 1)


def rqfi_joint_variance(state: CatStateSpec, gen, cutoff: int) -> float:
    """Variance of the mode sum of ``gen``'s truncated (d, d) matrix on the
    normalized joint vector of ``state`` at ``cutoff``: one
    ``apply_single_mode`` product per mode, summed, and two ``np.vdot``s."""
    vec = build_state(state, cutoff=cutoff)
    amps = vec.amplitudes
    amps /= vec.norm()  # in place: build_state's vector is this call's own
    mat = gen.builder(cutoff)
    summed = apply_single_mode(mat, vec, 0).amplitudes
    for mode in range(1, state.modes):
        summed += apply_single_mode(mat, vec, mode).amplitudes
    e1 = float(np.vdot(amps, summed).real)
    e2 = float(np.vdot(summed, summed).real)
    return e2 - e1 * e1


def vacuum_mixer_reference(theta: float, cutoff: int) -> np.ndarray:
    """The (d, d) amplitudes T[a, n - a] from |n, 0> to |a, n - a> of
    ``coherent_mixer_kernel``: column n of its block n, zero where a + b > cutoff."""
    d = cutoff + 1
    blocks = coherent_mixer_kernel(theta, cutoff).blocks
    mixer = np.zeros((d, d), dtype=complex)
    for n in range(d):
        a = np.arange(n + 1)
        mixer[a, n - a] = blocks[n][:, n]
    return mixer


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


def apply_split_network(head, modes: int) -> FockVector:
    """Feed the (d,) ``head`` and ``modes`` - 1 vacuum modes through the
    even-splitting mixer chain over the adjacent mode pairs, as one joint
    FockVector at cutoff d - 1.

    The mixer on modes (q - 1, q) always meets mode q in vacuum, so it
    appends that mode and splits the last one onto it (``_split_off_vacuum``).
    The final size is checked against MAX_JOINT_DIM before any buffer is
    allocated.
    """
    head = np.asarray(head, dtype=complex)
    if head.ndim != 1:
        raise DomainError(f"the network head must be one (d,) mode, got shape {head.shape}")
    d = len(head)
    check_size(d**modes, f"joint dimension {d**modes}")
    mixers = [vacuum_mixer_reference(theta, d - 1) for theta in cat_split_thetas(modes)]
    out = functools.reduce(_split_off_vacuum, mixers, head)
    return FockVector(d - 1, modes, out.reshape(-1))


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
    check_size(entries, f"two-mode kernel of {entries} entries")
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
        hop = np.sqrt((k[:-1] + 1.0) * (n - k[:-1]))
        vals, vecs = np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))
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


def apply_two_mode(
    kernel: TwoModeKernel, state: FockVector, mode_i: int, mode_j: int
) -> FockVector:
    """Apply a number-conserving two-mode unitary to modes (mode_i, mode_j).

    Runs ``mix_in_place`` on a copy of the amplitudes, so ``state`` is left
    unchanged.
    """
    for mode in (mode_i, mode_j):
        if not 0 <= mode < state.modes:
            raise DomainError(f"mode index {mode} out of range for {state.modes} modes")
    if mode_i == mode_j:
        raise DomainError("mode indices must differ")
    if kernel.cutoff != state.cutoff:
        raise DomainError(
            f"kernel cutoff {kernel.cutoff} does not match state cutoff {state.cutoff}"
        )
    out = state.amplitudes.copy()
    mix_in_place(kernel, out.reshape(state.as_tensor().shape), mode_i, mode_j)
    return FockVector(state.cutoff, state.modes, out)


def mix_in_place(kernel: TwoModeKernel, t: np.ndarray, mode_i: int, mode_j: int):
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
