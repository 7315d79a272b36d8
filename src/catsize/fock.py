"""Truncated Fock-space numerics used to cross-check the closed forms.

Every mode is truncated at a shared photon cutoff, so a single-mode vector
is a plain (d,) complex array and a single-mode operator a plain (d, d)
array, d = cutoff + 1 (``coherent_vector``, ``kitten_vectors``,
``mode_ops``, ``displacement_op``).  The displacement is the exponential of
its truncated Hermitian generator, a phase-rotated quadrature, taken from
the eigendecomposition of that real symmetric tridiagonal matrix
(``displace``, which applies it to a block of columns for many amplitudes
at once).

Every family's state is a scaled sum of products of single-mode branch
vectors, c sum_b v_b^(x N), and ``family_branches`` returns those branches
as one (d, B) array of columns.  The measures' numeric routes and the
branch Wigner route read that block at any mode count, and no operator on
more than one mode is ever built.

The only two-mode unitary the package applies is the coherent mixer of the
splitting network, and every mixer there meets a mode still in vacuum: the
mixer on (q - 1, q) sends |n, 0> to sum_a T[a, n - a] |a, n - a>.  It sends
|u>|0> to |u cos(theta)>|u sin(theta)>, so T is the closed form
T[a, b] = sqrt(C(a + b, a)) cos(theta)^a sin(theta)^b (``_vacuum_mixer``,
O(d^2) per mixer, nothing cached).  The network's overlap with a product
target and its norm are then transfer chains over a (d,) head, one (d, d)
step per mixer (``split_network_overlaps``), and its d^m output is never
built.

``FockVector`` is only the joint vector of at most MAX_JOINT_DIM amplitudes
that ``apply_single_mode`` and ``phase_space.wigner_numeric`` take.  Every
size is checked against that budget by ``check_size`` before allocating.
The joint vector a family's branches sum to, its total-photon pmf, the
general two-mode applier, the network output and the Kronecker product of
vectors live in the tests (``tests/dense_reference.py``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        dim = (self.cutoff + 1) ** self.modes
        check_size(dim, f"joint dimension {dim}")
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


def coherent_vector(alpha, cutoff: int) -> np.ndarray:
    """Truncated coherent state as a (cutoff + 1,) array, built by the
    stable amplitude recursion.

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
    return amps


def kitten_vectors(alpha, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized even and odd single-mode superpositions (|a> +- |-a>)/A,
    as (cutoff + 1,) arrays."""
    plus = coherent_vector(alpha, cutoff)
    minus = coherent_vector(-alpha, cutoff)
    a_plus, a_minus = hcs_norms(alpha)
    return (plus + minus) / a_plus, (plus - minus) / a_minus


def mode_ops(cutoff: int) -> np.ndarray:
    """Truncated single-mode lowering operator a as a (d, d) array, d = cutoff + 1."""
    d = cutoff + 1
    lower = np.zeros((d, d), dtype=complex)
    lower[np.arange(d - 1), np.arange(1, d)] = np.sqrt(np.arange(1, d))
    return lower


def displacement_op(alpha, cutoff: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) on the truncated basis, as
    a (d, d) array: ``displace`` applied to the identity."""
    d = cutoff + 1
    return displace(np.eye(d, dtype=complex), [alpha], cutoff)[0]


def displace(columns, alphas, cutoff: int) -> np.ndarray:
    """D(alpha) @ ``columns`` for every amplitude in ``alphas``, as a
    (P, d, B) array from a (d, B) block of columns and P amplitudes.

    With alpha = r e^{i phi} the truncated generator equals
    Phi (-i sqrt(2) r x) Phi^dag, where x = (a + a^dag)/sqrt(2) and
    Phi = diag((i e^{i phi})^n), so D = Phi V diag(e^{-i sqrt(2) r lambda})
    V^T Phi^dag with (lambda, V) the real eigenpairs of the truncated x.
    The two products with V act on all P * B columns at once, as real
    (d, d) @ (d, 2PB) products on the interleaved real and imaginary parts.
    """
    columns = np.asarray(columns, dtype=complex)
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    d = cutoff + 1
    if columns.ndim != 2 or columns.shape[0] != d:
        raise DomainError(f"columns must be a (cutoff + 1 = {d}, B) block")
    vals, vecs = _quadrature_eigh(cutoff)
    # Phi's diagonals (i e^{i phi})^n, one column per amplitude: (d, P)
    rotation = np.empty((d, alphas.size), dtype=complex)
    rotation[0] = 1.0
    rotation[1:] = 1j * np.exp(1j * np.angle(alphas))
    np.cumprod(rotation, axis=0, out=rotation)
    work = np.conj(rotation)[:, :, None] * columns[:, None, :]  # (d, P, B)
    work = _real_matmul(vecs.T, work)
    work *= np.exp(-1j * math.sqrt(2.0) * np.abs(alphas) * vals[:, None])[:, :, None]
    work = _real_matmul(vecs, work)
    work *= rotation[:, :, None]
    return work.transpose(1, 0, 2)


def _real_matmul(real: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``real`` @ a C-contiguous complex (d, ...) ``block``, as one real product."""
    flat = block.reshape(block.shape[0], -1).view(np.float64)
    return (real @ flat).view(complex).reshape(block.shape)


@functools.lru_cache(maxsize=64)
def _quadrature_eigh(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of the truncated quadrature (a + a^dag)/sqrt(2),
    the real symmetric tridiagonal matrix with zero diagonal and off-diagonal
    sqrt(n / 2)."""
    hop = np.sqrt(np.arange(1.0, cutoff + 1) / 2.0)
    vals, vecs = np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


def _vacuum_mixer(theta: float, cutoff: int) -> np.ndarray:
    """Amplitudes T[a, b] from |a + b, 0> to |a, b> of the coherent mixer
    P_j(-pi/2) exp(i theta (a^dag b + b^dag a)) P_j(-pi/2), as a real (d, d)
    array: T[a, b] = sqrt(C(a + b, a)) cos(theta)^a sin(theta)^b, zero where
    a + b > cutoff.

    The mixer sends |u>|v> to |u cos(theta) + v sin(theta)>
    |u sin(theta) - v cos(theta)> with no stray phases, which is the mixing
    convention the splitting network is stated in.  So |u>|0> goes to
    |u cos(theta)>|u sin(theta)>, and matching the terms u^n / sqrt(n!) of
    both sides gives T.  sqrt(C(n, a)) = sqrt(n! / (a! b!)) comes from the
    exact factorials as mantissas m_k in [1/2, 1) and exponents e_k,
    k! = m_k 2^e_k, so it stays finite (at most 2^(n/2)) up to n = 2047,
    where C(n, a) itself overflows a float past n = 1029.
    """
    d = cutoff + 1
    mantissa, exponent, factorial = np.empty(d), np.empty(d, dtype=np.int64), 1
    for k in range(d):
        factorial *= max(k, 1)
        bits = factorial.bit_length()
        mantissa[k], exponent[k] = factorial / (1 << bits), bits
    a, b = np.ogrid[:d, :d]
    n = np.minimum(a + b, cutoff)  # a + b > cutoff is zeroed below
    twos = exponent[n] - exponent[a] - exponent[b]
    ratio = np.ldexp(mantissa[n] / (mantissa[a] * mantissa[b]), twos % 2)
    root = np.ldexp(np.sqrt(ratio), twos // 2)
    mixer = root * np.power(math.cos(theta), a) * np.power(math.sin(theta), b)
    mixer[a + b > cutoff] = 0.0
    return mixer


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


def split_network_overlaps(head, modes: int, leaves) -> tuple[np.ndarray, float]:
    """Overlaps <leaf|^(x modes) |out> with each (d,) leaf, and ||out||^2,
    where ``out`` is the (d,) ``head`` and ``modes`` - 1 vacua through the
    mixers, d = len(head).

    The mixer on (q - 1, q) sends |n, 0> to sum_a T_q[a, n - a] |a, n - a>,
    so out[a_0 .. a_{m-1}] = head[r_0] T_1[a_0, r_1] ... T_{m-1}[a_{m-2}, r_{m-1}]
    with r_q = a_q + ... + a_{m-1}.  Both sums over it are contracted right
    to left over r_q, one (d, d) step per mixer:
    c[n] <- sum_a conj(leaf[a]) T_q[a, n - a] c[n - a] from c = conj(leaf),
    w[n] <- sum_a |T_q[a, n - a]|^2 w[n - a] from w = 1; then the overlap is
    head . c and the norm |head|^2 . w.  O(m d^2), where out has d^m
    amplitudes.  Each mixer needs d^2 <= MAX_JOINT_DIM, checked first.
    """
    d = len(head)
    bras = [np.conj(np.asarray(leaf, dtype=complex)) for leaf in leaves]
    if any(bra.shape != (d,) for bra in bras):
        raise DomainError(f"every leaf must hold len(head) = {d} amplitudes")
    check_size(d * d, f"joint dimension {d * d}")
    rows = np.arange(d)[:, None]
    shift = np.arange(d) - rows  # n - a; a negative one wraps and is masked
    overlaps, weight = list(bras), np.ones(d)
    for theta in reversed(cat_split_thetas(modes)):
        mixer = _vacuum_mixer(theta, d - 1)
        by_count = np.where(shift >= 0, mixer[rows, shift], 0)  # T[a, n - a]
        overlaps = [bra @ (by_count * _toeplitz(c)) for bra, c in zip(bras, overlaps)]
        weight = (np.abs(by_count) ** 2 * _toeplitz(weight)).sum(axis=0)
    return np.array([head @ c for c in overlaps]), float(np.abs(head) ** 2 @ weight)


def _toeplitz(carry: np.ndarray) -> np.ndarray:
    """The (d, d) view t[a, n] = carry[n - a], zero where n < a."""
    d = len(carry)
    padded = np.zeros(2 * d - 1, dtype=carry.dtype)
    padded[d - 1 :] = carry
    return sliding_window_view(padded, d)[::-1]


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


def family_branches(spec: CatStateSpec, cutoff: int) -> tuple[np.ndarray, float, float]:
    """Single-mode branch vectors v_b as the columns of a (d, B) array, and
    the factors of the state (times / over) * sum_b v_b^(x modes), at ``cutoff``.

    The kittens are one branch, the even or odd superposition itself;
    product-coherent is one coherent branch; Omega is |alpha>, |-alpha>
    times its closed-form normalization; HCS is the even and odd kittens
    over sqrt(2).
    """
    alpha = complex(spec.alpha)
    family = spec.family
    if family in (CatFamily.EVEN_CAT, CatFamily.ODD_CAT):
        even, odd = kitten_vectors(alpha, cutoff)
        return (even if family is CatFamily.EVEN_CAT else odd)[:, None], 1.0, 1.0
    if family is CatFamily.PRODUCT_COHERENT:
        return coherent_vector(alpha, cutoff)[:, None], 1.0, 1.0
    if family is CatFamily.OMEGA:
        plus = coherent_vector(alpha, cutoff)
        minus = coherent_vector(-alpha, cutoff)
        return np.stack([plus, minus], axis=1), omega_norm(spec.modes, alpha), 1.0
    if family is CatFamily.HCS:
        return np.stack(kitten_vectors(alpha, cutoff), axis=1), 1.0, math.sqrt(2.0)
    raise DomainError(f"unknown family {family}")


def check_size(count: int, what: str) -> int:
    """``count``, or SizingError "``what`` exceeds MAX_JOINT_DIM" where it
    is larger than that budget."""
    if count > MAX_JOINT_DIM:
        raise SizingError(f"{what} exceeds MAX_JOINT_DIM = {MAX_JOINT_DIM}")
    return count


def _check_mode_index(mode: int, modes: int):
    if not 0 <= mode < modes:
        raise DomainError(f"mode index {mode} out of range for {modes} modes")
