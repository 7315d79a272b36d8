"""Truncated Fock-space infrastructure: states, operators, networks."""

import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import projector, trace_norm

from catsize.closed_forms import (
    CatFamily,
    CatStateSpec,
    abs2,
    branch_overlap,
    marquardt_pd,
    omega_norm,
)
from catsize.errors import DomainError, SizingError, TruncationError
from catsize.fock import (
    MAX_JOINT_DIM,
    FockVector,
    apply_single_mode,
    apply_split_network,
    apply_two_mode,
    beamsplitter_kernel,
    build_state,
    cat_split_thetas,
    coherent_mixer_kernel,
    coherent_vector,
    default_cutoff,
    displacement_op,
    kitten_vectors,
    mode_ops,
    tensor,
    total_photon_pmf,
)
from catsize.verify import network_coherent_gap


def vacuum(cutoff: int) -> FockVector:
    amp = np.zeros(cutoff + 1, dtype=complex)
    amp[0] = 1.0
    return FockVector(cutoff=cutoff, modes=1, amplitudes=amp)


def fidelity(lhs: FockVector, rhs: FockVector) -> float:
    num = abs2(complex(np.vdot(lhs.amplitudes, rhs.amplitudes)))
    return num / (lhs.norm() ** 2 * rhs.norm() ** 2)


# ---------------------------------------------------------------------------
# single-mode states and operators
# ---------------------------------------------------------------------------

def test_coherent_vector_amplitudes():
    alpha = 0.7 - 0.4j
    vec = coherent_vector(alpha, 30)
    assert vec.norm() == pytest.approx(1.0, abs=1e-9)
    amp = math.exp(-abs2(alpha) / 2)
    expected = amp
    for n in range(5):
        assert vec.amplitudes[n] == pytest.approx(complex(expected), abs=1e-12)
        expected = expected * alpha / math.sqrt(n + 1)


def test_coherent_vector_truncation_error():
    with pytest.raises(TruncationError) as err:
        coherent_vector(3.0, 5)
    assert err.value.tail_mass > 0.5
    assert err.value.cutoff == 5


def test_default_cutoff_grows_with_amplitude():
    assert default_cutoff(0.0) == 20
    assert default_cutoff(1.0) == math.ceil(1 + 8 + 20)
    assert default_cutoff(2.0) > default_cutoff(1.0)


def test_default_cutoff_refuses_an_overflowing_amplitude():
    # |2e154|^2 overflows; math.ceil(inf) would raise OverflowError
    with pytest.raises(SizingError, match="no finite cutoff"):
        default_cutoff(2e154)


def test_mode_ops_algebra():
    a = mode_ops(25)
    assert isinstance(a, np.ndarray) and a.shape == (26, 26)
    adag = a.conj().T
    comm = a @ adag - adag @ a
    # canonical commutator away from the truncation edge
    assert np.abs(comm[:-1, :-1] - np.eye(25)).max() < 1e-12
    assert np.abs(np.diag(np.arange(26.0)) - adag @ a).max() < 1e-12


def test_displacement_generates_coherent_state():
    alpha = 0.9 + 0.2j
    cutoff = 40
    disp = displacement_op(alpha, cutoff)
    assert isinstance(disp, np.ndarray) and disp.shape == (cutoff + 1, cutoff + 1)
    target = coherent_vector(alpha, cutoff)
    moved = disp @ vacuum(cutoff).amplitudes
    assert np.abs(moved - target.amplitudes).max() < 1e-10
    unitary = disp @ disp.conj().T
    assert np.abs(unitary[:30, :30] - np.eye(30)).max() < 1e-9


def taylor_expm(gen: np.ndarray) -> np.ndarray:
    """exp(gen) by scaling and squaring a 30-term Taylor series."""
    norm = float(np.abs(gen).sum(axis=1).max())
    squarings = max(0, math.ceil(math.log2(norm)) + 1)
    scaled = gen / 2.0**squarings
    term = out = np.eye(gen.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@pytest.mark.parametrize(
    "alpha, cutoff", [(0.9 + 0.2j, 40), (3 + 3j, 72), (-4.2 - 0.3j, 72)]
)
def test_displacement_is_exponential_of_truncated_generator(alpha, cutoff):
    a = mode_ops(cutoff)
    gen = alpha * a.conj().T - np.conj(alpha) * a
    disp = displacement_op(alpha, cutoff)
    assert np.abs(disp - taylor_expm(gen)).max() < 1e-12
    assert np.abs(disp @ disp.conj().T - np.eye(cutoff + 1)).max() < 1e-12


@pytest.mark.parametrize("theta, cutoff", [(0.3, 6), (math.pi / 4, 12), (1.1, 20)])
def test_beamsplitter_kernel_moves_one_photon(theta, cutoff):
    kernel = beamsplitter_kernel(theta, cutoff)
    assert list(kernel.ks[1]) == [0, 1]  # the n = 1 block acts on |0,1>, |1,0>
    expected = np.array([1j * math.sin(theta), math.cos(theta)])
    assert np.abs(kernel.blocks[1][:, 1] - expected).max() < 1e-14  # from |1,0>
    for block in kernel.blocks:
        assert np.abs(block @ block.conj().T - np.eye(len(block))).max() < 1e-12


def dense(kernel, cutoff: int) -> np.ndarray:
    """The (d^2 x d^2) matrix of a block-stored two-mode unitary."""
    d = cutoff + 1
    out = np.zeros((d * d, d * d), dtype=complex)
    for n, (ks, block) in enumerate(zip(kernel.ks, kernel.blocks)):
        idx = ks * d + (n - ks)
        out[np.ix_(idx, idx)] = block
    return out


def dense_references(theta: float, cutoff: int):
    """Dense beamsplitter and coherent mixer from the truncated generator."""
    d = cutoff + 1
    a = mode_ops(cutoff)
    adag = a.conj().T
    gen = 1j * theta * (np.kron(adag, a) + np.kron(a, adag))
    phase = np.kron(np.eye(d), np.diag((-1j) ** np.arange(d)))
    reference = taylor_expm(gen)
    return reference, phase @ reference @ phase


def apply_dense(matrix, state: FockVector, mode_i: int, mode_j: int) -> np.ndarray:
    """Amplitudes after a dense (d^2 x d^2) two-mode matrix acts on a pair."""
    d = state.cutoff + 1
    t = np.tensordot(
        matrix.reshape(d, d, d, d), state.as_tensor(), axes=([2, 3], [mode_i, mode_j])
    )
    return np.moveaxis(t, [0, 1], [mode_i, mode_j]).reshape(-1)


@pytest.mark.parametrize("mode_i, mode_j", [(0, 1), (2, 0), (1, 2)])
def test_two_mode_blocks_match_dense_generator(mode_i, mode_j):
    theta, cutoff = 0.7, 6
    d = cutoff + 1
    reference, mixer_reference = dense_references(theta, cutoff)
    splitter = beamsplitter_kernel(theta, cutoff)
    mixer = coherent_mixer_kernel(theta, cutoff)
    assert np.abs(dense(splitter, cutoff) - reference).max() < 1e-12
    assert np.abs(dense(mixer, cutoff) - mixer_reference).max() < 1e-12

    rng = np.random.default_rng(11)
    amps = rng.normal(size=d**3) + 1j * rng.normal(size=d**3)
    state = FockVector(cutoff=cutoff, modes=3, amplitudes=amps)
    expected = apply_dense(mixer_reference, state, mode_i, mode_j)
    out = apply_two_mode(mixer, state, mode_i, mode_j)
    assert np.abs(out.amplitudes - expected).max() < 1e-12
    with pytest.raises(DomainError):
        apply_two_mode(beamsplitter_kernel(theta, cutoff + 1), state, mode_i, mode_j)


def every_column_applier(kernel, state, mode_i, mode_j):
    """The applier apply_two_mode replaced: every block times every column,
    zero or not."""
    t = np.moveaxis(state.as_tensor(), [mode_i, mode_j], [0, 1])
    out = np.empty_like(state.as_tensor())
    view = np.moveaxis(out, [mode_i, mode_j], [0, 1])
    for n, (ks, block) in enumerate(zip(kernel.ks, kernel.blocks)):
        view[ks, n - ks] = np.tensordot(block, t[ks, n - ks], axes=1)
    return FockVector(state.cutoff, state.modes, out.reshape(-1))


def zeros_output_applier(kernel, state, mode_i, mode_j):
    """The applier the in-place core replaced: the same gather, zero-column
    skip and block product, written into a fresh array of zeros."""
    t = np.moveaxis(state.as_tensor(), [mode_i, mode_j], [0, 1])
    rest = t.shape[2:]
    out = np.zeros(state.as_tensor().shape, dtype=complex)
    view = np.moveaxis(out, [mode_i, mode_j], [0, 1])
    for n, (ks, block) in enumerate(zip(kernel.ks, kernel.blocks)):
        x = t[ks, n - ks].reshape(len(ks), -1)
        cols = np.flatnonzero(x.any(axis=0))
        if cols.size:
            other = np.unravel_index(cols, rest) if rest else ()
            view[(ks[:, None], (n - ks)[:, None], *other)] = block @ x[:, cols]
    return FockVector(state.cutoff, state.modes, out.reshape(-1))


def sparse_state(kind: str, cutoff: int, mode_i: int, mode_j: int) -> FockVector:
    """Three-mode test states with exactly-zero columns or blocks."""
    d = cutoff + 1
    rng = np.random.default_rng(23)
    amps = rng.normal(size=(d,) * 3) + 1j * rng.normal(size=(d,) * 3)
    pair = np.moveaxis(amps, [mode_i, mode_j], [0, 1])  # a view into amps
    if kind == "head-vacuum":
        head = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps = np.kron(head, np.eye(d * d)[0])
    elif kind == "zeroed-slices":
        pair[:, :, rng.random(d) < 0.6] = 0.0
    elif kind == "zero-blocks":
        for n in range(0, 2 * cutoff + 1, 3):
            ks = np.arange(max(0, n - cutoff), min(n, cutoff) + 1)
            pair[ks, n - ks] = 0.0
    return FockVector(cutoff=cutoff, modes=3, amplitudes=amps)


@pytest.mark.parametrize("mode_i, mode_j", [(0, 1), (1, 2), (0, 2), (2, 0)])
@pytest.mark.parametrize("kind", ["dense", "head-vacuum", "zeroed-slices", "zero-blocks"])
def test_zero_columns_are_skipped_without_changing_the_result(kind, mode_i, mode_j):
    theta, cutoff = 0.7, 6
    d = cutoff + 1
    mixer = coherent_mixer_kernel(theta, cutoff)
    state = sparse_state(kind, cutoff, mode_i, mode_j)
    before = state.amplitudes.copy()
    out = apply_two_mode(mixer, state, mode_i, mode_j).amplitudes
    # apply_two_mode mixes a copy in place; its input is left as it was
    assert np.array_equal(state.amplitudes.view(np.float64), before.view(np.float64))
    zeros_out = zeros_output_applier(mixer, state, mode_i, mode_j).amplitudes
    assert np.array_equal(out.view(np.float64), zeros_out.view(np.float64))
    old = every_column_applier(mixer, state, mode_i, mode_j).amplitudes
    # a zero column maps to an exactly zero column
    assert np.all(out[old == 0] == 0)
    if kind in ("dense", "zero-blocks"):
        # every block product keeps its shape, so the arithmetic is unchanged
        assert np.array_equal(out, old)
    else:
        # BLAS may round a column differently when fewer columns share the
        # product, so allow a few ulps of each length-d dot product
        scale = np.abs(state.amplitudes).max()
        assert np.abs(out - old).max() <= 8 * d * np.finfo(float).eps * scale

    _, mixer_reference = dense_references(theta, cutoff)
    expected = apply_dense(mixer_reference, state, mode_i, mode_j)
    assert np.abs(out - expected).max() < 1e-12


def head_vacuum_chain(head: FockVector, modes: int) -> FockVector:
    """The network the grown one replaced: the full head x vacuum product,
    then every mixer on all modes."""
    state = tensor(head, *([vacuum(head.cutoff)] * (modes - 1)))
    for q, theta in enumerate(cat_split_thetas(modes), start=1):
        kernel = coherent_mixer_kernel(theta, head.cutoff)
        state = zeros_output_applier(kernel, state, q - 1, q)
    return state


@pytest.mark.parametrize("modes, cutoff", [(2, 9), (3, 9), (4, 6), (4, 9)])
def test_grown_network_matches_the_head_vacuum_chain_bitwise(modes, cutoff):
    rng = np.random.default_rng(modes * 100 + cutoff)
    head = FockVector(cutoff, 1, rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1))
    out = apply_split_network(head, modes)
    assert out.modes == modes
    ref = head_vacuum_chain(head, modes).amplitudes
    assert np.array_equal(out.amplitudes.view(np.float64), ref.view(np.float64))


@pytest.mark.parametrize("m", [2, 3])
def test_contracted_overlap_matches_the_dense_target(m):
    alpha = 0.4 + 0.3j
    cutoff = default_cutoff(math.sqrt(m) * alpha)
    head = coherent_vector(math.sqrt(m) * alpha, cutoff)
    leaf = coherent_vector(alpha, cutoff)
    dense_gap = 1.0 - fidelity(apply_split_network(head, m), tensor(*([leaf] * m)))
    assert abs(network_coherent_gap(m, alpha) - dense_gap) <= 1e-15


def coherent_network_peak() -> int:
    """Peak bytes traced by tracemalloc over network_coherent_gap(4, 1.5)."""
    tracemalloc.start()
    try:
        network_coherent_gap(4, 1.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_split_network_keeps_two_joint_vectors_alive():
    # at m = 4 and alpha = 1.5 each joint vector is 45**4 amplitudes, 65.6 MB;
    # holding the network input through every mixer peaked near 200 MB
    assert coherent_network_peak() < 150_000_000


def test_split_network_holds_one_joint_vector():
    # neither the head x vacuum input nor the |alpha>^4 target is built
    assert coherent_network_peak() < 80_000_000


def test_split_network_takes_a_one_mode_head():
    with pytest.raises(DomainError):
        apply_split_network(tensor(vacuum(4), vacuum(4)), 3)


def test_block_index_ranges_are_cached_read_only():
    # the eigenpairs behind them do not depend on theta; callers share them
    splitter, mixer = beamsplitter_kernel(0.3, 12), coherent_mixer_kernel(1.1, 12)
    assert splitter.ks is mixer.ks
    with pytest.raises(ValueError):
        splitter.ks[3][0] = 1


def test_two_mode_kernel_stores_cubic_entries():
    # a dense (d^2 x d^2) kernel at cutoff 44 would hold 45**4 entries
    assert coherent_mixer_kernel(math.pi / 4, 44).size <= 45**3
    with pytest.raises(SizingError):
        beamsplitter_kernel(0.3, 200)


def test_kitten_vectors_are_orthonormal_ladder():
    alpha = 1.2
    even, odd = kitten_vectors(alpha, 40)
    assert even.norm() == pytest.approx(1.0, abs=1e-10)
    assert odd.norm() == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(even.amplitudes, odd.amplitudes)) < 1e-12
    t = math.sqrt(math.tanh(abs2(alpha)))
    a = mode_ops(40)
    assert np.abs(a @ even.amplitudes - alpha * t * odd.amplitudes).max() < 1e-12
    assert np.abs(a @ odd.amplitudes - (alpha / t) * even.amplitudes).max() < 1e-12


# ---------------------------------------------------------------------------
# composition and size guards
# ---------------------------------------------------------------------------

def test_tensor_joins_vectors_and_refuses_operators():
    a = coherent_vector(0.8, 12)
    b = coherent_vector(-0.3, 12)
    joint = tensor(a, b)
    assert joint.modes == 2
    assert np.array_equal(joint.as_tensor(), np.outer(a.amplitudes, b.amplitudes))
    with pytest.raises(DomainError):
        tensor(projector(a.amplitudes), projector(b.amplitudes))
    with pytest.raises(DomainError):
        tensor(a, b.amplitudes)


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while ``call`` raises SizingError."""
    tracemalloc.start()
    try:
        with pytest.raises(SizingError):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tensor_refuses_size_before_allocating():
    # 201**3 > MAX_JOINT_DIM; the Kronecker product would take 131 MB
    one = coherent_vector(0.5, 200)
    assert traced_peak(lambda: tensor(one, one, one)) < 5_000_000


def test_split_network_refuses_size_before_allocating():
    # 65**4 > MAX_JOINT_DIM; the last buffer would take 285 MB
    head = coherent_vector(1.0, 64)
    assert traced_peak(lambda: apply_split_network(head, 4)) < 5_000_000


def test_trace_norm_of_known_difference():
    plus = coherent_vector(1.0, 30)
    minus = coherent_vector(-1.0, 30)
    diff = projector(plus.amplitudes) - projector(minus.amplitudes)
    w = branch_overlap(1.0)
    assert trace_norm(diff) == pytest.approx(2 * math.sqrt(1 - w * w), rel=1e-10)


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,modes",
    [
        (CatFamily.OMEGA, 1),
        (CatFamily.OMEGA, 3),
        (CatFamily.HCS, 2),
        (CatFamily.EVEN_CAT, 1),
        (CatFamily.ODD_CAT, 1),
        (CatFamily.PRODUCT_COHERENT, 2),
    ],
)
def test_build_state_is_normalized(family, modes):
    spec = CatStateSpec(family=family, modes=modes, alpha=0.9)
    vec = build_state(spec)
    assert vec.modes == modes
    assert vec.norm() == pytest.approx(1.0, abs=1e-8)


def test_build_omega_matches_branch_sum():
    alpha, cutoff = 1.1, 35
    spec = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=alpha)
    vec = build_state(spec, cutoff=cutoff)
    plus = coherent_vector(alpha, cutoff)
    minus = coherent_vector(-alpha, cutoff)
    manual = (
        tensor(plus, plus).amplitudes + tensor(minus, minus).amplitudes
    ) * omega_norm(2, alpha)
    assert np.abs(vec.amplitudes - manual).max() < 1e-10


def test_build_state_sizing_guard():
    spec = CatStateSpec(family=CatFamily.OMEGA, modes=5, alpha=1.0)
    with pytest.raises(SizingError):
        build_state(spec, cutoff=40)
    assert (41) ** 5 > MAX_JOINT_DIM


def test_total_photon_pmf_of_product_is_poisson():
    alpha, modes = 0.8, 3
    spec = CatStateSpec(family=CatFamily.PRODUCT_COHERENT, modes=modes, alpha=alpha)
    vec = build_state(spec, cutoff=24)
    pmf = total_photon_pmf(vec)
    for d in range(0, 20, 3):
        assert pmf[d] == pytest.approx(marquardt_pd(d, modes, alpha), abs=1e-10)


# ---------------------------------------------------------------------------
# splitting network
# ---------------------------------------------------------------------------

def test_mixer_splits_coherent_state_evenly():
    cutoff, b = 30, 0.8
    joint = tensor(coherent_vector(b, cutoff), vacuum(cutoff))
    out = apply_two_mode(coherent_mixer_kernel(math.pi / 4, cutoff), joint, 0, 1)
    leaf = coherent_vector(b / math.sqrt(2), cutoff)
    assert fidelity(out, tensor(leaf, leaf)) == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_conserves_photon_number():
    cutoff = 12
    joint = tensor(coherent_vector(0.7, cutoff), coherent_vector(0.4, cutoff))
    before = total_photon_pmf(joint)
    after = total_photon_pmf(
        apply_two_mode(beamsplitter_kernel(0.6, cutoff), joint, 0, 1)
    )
    assert np.abs(before - after).max() < 1e-10


def test_cat_split_thetas_recursion():
    thetas = cat_split_thetas(4)
    assert len(thetas) == 3
    assert thetas[-1] == pytest.approx(math.pi / 4, rel=1e-12)
    # each earlier angle solves tan(theta_q) = 1 / cos(theta_{q+1})
    for q in range(len(thetas) - 1):
        assert math.tan(thetas[q]) == pytest.approx(
            1.0 / math.cos(thetas[q + 1]), rel=1e-12
        )


@pytest.mark.parametrize("modes", [2, 3])
def test_split_network_fans_out_coherent_state(modes):
    alpha = 0.5
    cutoff = default_cutoff(math.sqrt(modes) * alpha)
    head = coherent_vector(math.sqrt(modes) * alpha, cutoff)
    out = apply_split_network(head, modes)
    leaf = coherent_vector(alpha, cutoff)
    target = tensor(*([leaf] * modes))
    assert fidelity(out, target) >= 1.0 - 1e-8


def test_split_network_carries_superposition():
    modes, alpha = 3, 0.8
    cutoff = default_cutoff(math.sqrt(modes) * alpha)
    root = math.sqrt(modes) * alpha
    plus = coherent_vector(root, cutoff).amplitudes
    minus = coherent_vector(-root, cutoff).amplitudes
    head = FockVector(cutoff, 1, (plus + minus) * omega_norm(modes, alpha))
    omega = CatStateSpec(family=CatFamily.OMEGA, modes=modes, alpha=alpha)
    target = build_state(omega, cutoff=cutoff)
    assert fidelity(apply_split_network(head, modes), target) >= 1.0 - 1e-8


def test_apply_single_mode_acts_on_named_mode_only():
    cutoff = 14
    a = coherent_vector(0.6, cutoff)
    b = coherent_vector(-0.9, cutoff)
    joint = tensor(a, b)
    number = np.diag(np.arange(cutoff + 1.0))
    bumped = apply_single_mode(number, joint, 1)
    val = complex(np.vdot(joint.amplitudes, bumped.amplitudes)).real
    assert val == pytest.approx(abs2(-0.9), rel=1e-9)
