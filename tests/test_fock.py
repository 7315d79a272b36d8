"""Truncated Fock-space infrastructure: states, operators, networks."""

import decimal
import functools
import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import (
    apply_split_network,
    apply_two_mode,
    beamsplitter_kernel,
    build_state,
    coherent_mixer_kernel,
    projector,
    tensor,
    total_photon_pmf,
    trace_norm,
    vacuum_mixer_reference,
)

from catsize.closed_forms import (
    CatFamily,
    CatStateSpec,
    abs2,
    branch_overlap,
    marquardt_pd,
    omega_norm,
)
from catsize.errors import DomainError, SizingError, TruncationError
from catsize import fock
from catsize.fock import (
    MAX_JOINT_DIM,
    FockVector,
    apply_single_mode,
    cat_split_thetas,
    coherent_vector,
    default_cutoff,
    displace,
    displacement_op,
    family_branches,
    kitten_vectors,
    mode_ops,
    split_network_overlaps,
)
from catsize.verify import network_gap


def vacuum(cutoff: int) -> np.ndarray:
    amp = np.zeros(cutoff + 1, dtype=complex)
    amp[0] = 1.0
    return amp


def fidelity(lhs: FockVector, rhs: FockVector) -> float:
    num = abs2(complex(np.vdot(lhs.amplitudes, rhs.amplitudes)))
    return num / (lhs.norm() ** 2 * rhs.norm() ** 2)


# ---------------------------------------------------------------------------
# single-mode states and operators
# ---------------------------------------------------------------------------

def test_coherent_vector_amplitudes():
    alpha = 0.7 - 0.4j
    vec = coherent_vector(alpha, 30)
    assert vec.shape == (31,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
    amp = math.exp(-abs2(alpha) / 2)
    expected = amp
    for n in range(5):
        assert vec[n] == pytest.approx(complex(expected), abs=1e-12)
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
    moved = disp @ vacuum(cutoff)
    assert np.abs(moved - target).max() < 1e-10
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


def test_displace_applies_each_displacement_to_every_column():
    rng = np.random.default_rng(31)
    cutoff = 40
    columns = rng.normal(size=(cutoff + 1, 3)) + 1j * rng.normal(size=(cutoff + 1, 3))
    alphas = [0.9 + 0.2j, -3.0 + 3.0j, 0.0, 1e-9j, -4.2 - 0.3j]
    moved = displace(columns, alphas, cutoff)
    assert moved.shape == (len(alphas), cutoff + 1, 3)
    for alpha, block in zip(alphas, moved):
        assert np.abs(block - displacement_op(alpha, cutoff) @ columns).max() < 1e-13


def test_family_branches_sum_to_the_built_state():
    # the (d, B) columns are the single-mode vectors themselves, and
    # build_state is the scaled sum of their products, bit for bit
    alpha = 0.8 + 0.3j
    even, odd = kitten_vectors(alpha, 20)
    cases = [
        (CatFamily.EVEN_CAT, 1, [even]),
        (CatFamily.ODD_CAT, 1, [odd]),
        (CatFamily.PRODUCT_COHERENT, 2, [coherent_vector(alpha, 20)]),
        (CatFamily.OMEGA, 3, [coherent_vector(alpha, 20), coherent_vector(-alpha, 20)]),
        (CatFamily.HCS, 2, [even, odd]),
    ]
    for family, modes, expected in cases:
        spec = CatStateSpec(family=family, modes=modes, alpha=alpha)
        columns, times, over = family_branches(spec, 20)
        assert columns.shape == (21, len(expected))
        stacked = np.stack(expected, axis=1)
        assert np.array_equal(columns.view(np.float64), stacked.view(np.float64))
        amps = sum(functools.reduce(np.kron, [v] * modes) for v in columns.T)
        amps = amps * times / over
        assert np.array_equal(amps, build_state(spec, cutoff=20).amplitudes)


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


def head_vacuum_chain(head: np.ndarray, modes: int) -> FockVector:
    """The network the grown one replaced: the full head x vacuum product,
    then every mixer on all modes."""
    state = tensor(head, *([vacuum(len(head) - 1)] * (modes - 1)))
    for q, theta in enumerate(cat_split_thetas(modes), start=1):
        kernel = coherent_mixer_kernel(theta, state.cutoff)
        state = zeros_output_applier(kernel, state, q - 1, q)
    return state


@pytest.mark.parametrize("theta, cutoff", [(0.3, 6), (math.pi / 4, 44), (1.1, 20)])
def test_vacuum_mixer_is_column_n_of_the_reference_blocks(theta, cutoff):
    # two independent routes: the closed form, within 2 eps of a 50-digit
    # reference, and the reference kernel's eigendecomposition of each block,
    # whose own error against that reference reaches 1.7e-15 in the real part
    # with an imaginary residue of 2.1e-15 at cutoff 44, so 16 eps holds both
    mixer = fock._vacuum_mixer(theta, cutoff)
    reference = vacuum_mixer_reference(theta, cutoff)
    assert np.abs(mixer - reference).max() <= 16 * np.finfo(float).eps
    d = cutoff + 1
    assert not mixer[np.add.outer(np.arange(d), np.arange(d)) > cutoff].any()


@pytest.mark.parametrize("cutoff", [6, 44, 120])
@pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.1, 1.4, 2.5])
def test_vacuum_mixer_matches_a_decimal_reference(theta, cutoff):
    # sqrt(C(n, a)) cos^a sin^b at 50 digits, from the float cos and sin
    mixer = fock._vacuum_mixer(theta, cutoff)
    assert mixer.dtype == np.float64
    cos, sin = decimal.Decimal(math.cos(theta)), decimal.Decimal(math.sin(theta))
    worst = decimal.Decimal(0)
    with decimal.localcontext(prec=50):
        for n in range(cutoff + 1):
            for a in range(n + 1):
                exact = decimal.Decimal(math.comb(n, a)).sqrt() * cos**a * sin ** (n - a)
                worst = max(worst, abs(decimal.Decimal(mixer[a, n - a]) - exact))
    assert worst <= 2 * np.finfo(float).eps


def test_vacuum_mixer_stays_finite_at_the_largest_network_cutoff():
    # d^2 = MAX_JOINT_DIM at cutoff 2047, where C(n, a) overflows a float
    # past n = 1029; each column from |n, 0> is a unit vector
    cutoff = math.isqrt(MAX_JOINT_DIM) - 1
    mixer = fock._vacuum_mixer(math.pi / 4, cutoff)
    assert np.isfinite(mixer).all()
    flipped = (mixer**2)[:, ::-1]  # anti-diagonal n of mixer is diagonal cutoff - n
    norms = [np.trace(flipped, offset=cutoff - n) for n in (0, 1029, 1030, cutoff)]
    assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("modes, cutoff", [(2, 9), (3, 9), (4, 6), (4, 9)])
def test_grown_network_matches_the_head_vacuum_chain(modes, cutoff):
    # each output amplitude is one complex product T[a, b] * x[a + b] where
    # the reference's zgemm sums that product with exact zeros, and FMA
    # rounding there is not bitwise one multiply: allow a few ulps of each
    # length-d dot product, the bound the zero-column test uses
    rng = np.random.default_rng(modes * 100 + cutoff)
    head = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    out = apply_split_network(head, modes)
    assert out.modes == modes
    ref = head_vacuum_chain(head, modes).amplitudes
    scale = np.abs(head).max()
    assert np.abs(out.amplitudes - ref).max() <= 8 * (cutoff + 1) * np.finfo(float).eps * scale


@pytest.mark.parametrize("modes, cutoff", [(2, 44), (3, 9), (4, 9), (5, 6)])
def test_network_output_fills_exactly_the_photon_number_simplex(modes, cutoff):
    # the head holds at most `cutoff` photons and every mixer conserves them:
    # amplitudes with more photons in total are exact zeros, and for a head
    # with no zero amplitude every one inside the simplex is nonzero
    rng = np.random.default_rng(modes * 100 + cutoff)
    head = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    out = apply_split_network(head, modes).as_tensor()
    totals = sum(np.indices(out.shape))
    assert not out[totals > cutoff].any()
    assert np.count_nonzero(out) == math.comb(cutoff + modes, modes)


def test_network_amplitude_is_one_product_of_the_head_and_mixers():
    # out[a, b, c] = T2[b, c] * (T1[a, b + c] * head[a + b + c]) inside the
    # simplex and +0 outside it, bit for bit (both products taken by numpy's
    # array multiply, whose rounding can differ from its scalar one)
    cutoff = 6
    rng = np.random.default_rng(7)
    head = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    first, second = (vacuum_mixer_reference(t, cutoff) for t in cat_split_thetas(3))
    out = apply_split_network(head, 3).as_tensor()
    a, b, c = np.indices(out.shape)
    keep = a + b + c <= cutoff
    a, b, c = a[keep], b[keep], c[keep]
    expected = np.zeros_like(out)
    expected[keep] = second[b, c] * (first[a, b + c] * head[a + b + c])
    assert np.array_equal(out.view(np.float64), expected.view(np.float64))


def test_split_network_of_one_mode_is_its_head():
    # one mode has no mixer: the output is the head itself
    head = coherent_vector(0.6 - 0.2j, 12)
    out = apply_split_network(head, 1)
    assert (out.cutoff, out.modes) == (12, 1)
    assert np.array_equal(out.amplitudes.view(np.float64), head.view(np.float64))


def fsum_fidelity(lhs: FockVector, rhs: FockVector) -> float:
    """``fidelity`` with the overlap and both squared norms summed by math.fsum."""
    products = lhs.amplitudes.conj() * rhs.amplitudes
    overlap = complex(math.fsum(products.real), math.fsum(products.imag))
    norms = [math.fsum(abs(v.amplitudes) ** 2) for v in (lhs, rhs)]
    return abs2(overlap) / (norms[0] * norms[1])


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("signs", [(1,), (1, -1)], ids=["coherent", "cat"])
def test_contracted_overlap_matches_the_dense_target(m, signs):
    # at m = 4 the cutoff is 29 and the dense route sums 30**4 = 810000
    # terms; summed by np.vdot, its own rounding put the dense gap at
    # -2.0e-15 at m = 3 (cat), where math.fsum reads 0.0, so the reference
    # sums with math.fsum and leaves only the rounding of each product and
    # of the chain's short sums; the cat's dense target adds a second
    # Kronecker product to every amplitude
    tolerance = (1e-15 if m < 4 else 1e-14) * len(signs)
    alpha = 0.4 + 0.3j
    branches = [sign * alpha for sign in signs]
    cutoff = default_cutoff(math.sqrt(m) * alpha)
    head = sum(coherent_vector(math.sqrt(m) * b, cutoff) for b in branches)
    out = apply_split_network(head, m)
    target = sum(tensor(*([coherent_vector(b, cutoff)] * m)).amplitudes for b in branches)
    dense_gap = 1.0 - fsum_fidelity(out, FockVector(cutoff, m, target))
    assert abs(network_gap(m, branches) - dense_gap) <= tolerance


@pytest.mark.parametrize("modes, cutoff", [(1, 7), (2, 9), (3, 9), (4, 6), (5, 6)])
def test_chain_matches_the_dense_output(modes, cutoff):
    # any head and any leaves, not just coherent ones: the chain sums the
    # same products T * head * bra as the gathered output, in another order
    rng = np.random.default_rng(modes * 100 + cutoff)
    d = cutoff + 1
    head = rng.normal(size=d) + 1j * rng.normal(size=d)
    leaves = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(3)]
    overlaps, norm2 = split_network_overlaps(head, modes, leaves)
    out = apply_split_network(head, modes)
    assert norm2 == pytest.approx(out.norm() ** 2, rel=1e-13)
    for leaf, overlap in zip(leaves, overlaps):
        bra = tensor(*[leaf] * modes).amplitudes
        dense = complex(np.vdot(bra, out.amplitudes))
        scale = math.sqrt(norm2) * np.linalg.norm(leaf) ** modes
        assert abs(overlap - dense) <= 1e-13 * scale


@pytest.mark.parametrize("m", [8, 16])
def test_network_gap_reaches_modes_no_joint_vector_holds(m):
    # 41**8 and 41**16 amplitudes: far beyond MAX_JOINT_DIM, one (41, 41)
    # step per mixer for the chain
    assert (default_cutoff(math.sqrt(m) * 0.5) + 1) ** m > MAX_JOINT_DIM
    assert abs(network_gap(m, [0.5])) <= 1e-8


def test_chain_takes_a_one_mode_head_and_full_leaves():
    # a two-mode head's 25 amplitudes read as d = 25, which leaves of 5 miss
    with pytest.raises(DomainError):
        split_network_overlaps(tensor(vacuum(4), vacuum(4)).amplitudes, 3, [np.ones(5)])
    with pytest.raises(DomainError):
        split_network_overlaps(vacuum(4), 3, [np.ones(4)])
    with pytest.raises(SizingError):
        split_network_overlaps(vacuum(2048), 2, [np.ones(2049)])


def coherent_network_peak() -> int:
    """Peak bytes traced by tracemalloc over network_gap(4, [1.5])."""
    tracemalloc.start()
    try:
        network_gap(4, [1.5])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_split_network_keeps_two_joint_vectors_alive():
    # at m = 4 and alpha = 1.5 each joint vector is 45**4 amplitudes, 65.6 MB;
    # holding the network input through every mixer peaked near 200 MB
    assert coherent_network_peak() < 150_000_000


def test_split_network_holds_one_joint_vector():
    # it now holds none: neither the 45**4 output (65.6 MB), the head x vacuum
    # input nor the |alpha>^4 target is built
    assert coherent_network_peak() < 24_000_000


def test_split_network_holds_one_cache_sized_slab():
    # no slab at all now: the transfer chain holds a few (54, 54) arrays at
    # cutoff 53, and the hopping-block eigenpairs it caches; 0.74 MB with a
    # cold cache, 0.27 MB warm (one 45**3 slab was 1.5 MB, 5 MB the bound)
    assert coherent_network_peak() < 1_500_000


def test_split_network_takes_a_one_mode_head():
    with pytest.raises(DomainError):
        apply_split_network(tensor(vacuum(4), vacuum(4)).as_tensor(), 3)


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
    assert np.linalg.norm(even) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(odd) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(even, odd)) < 1e-12
    t = math.sqrt(math.tanh(abs2(alpha)))
    a = mode_ops(40)
    assert np.abs(a @ even - alpha * t * odd).max() < 1e-12
    assert np.abs(a @ odd - (alpha / t) * even).max() < 1e-12


# ---------------------------------------------------------------------------
# composition and size guards
# ---------------------------------------------------------------------------

def test_tensor_joins_vectors_and_refuses_operators():
    a = coherent_vector(0.8, 12)
    b = coherent_vector(-0.3, 12)
    joint = tensor(a, b)
    assert joint.modes == 2
    assert np.array_equal(joint.as_tensor(), np.outer(a, b))
    with pytest.raises(DomainError):
        tensor(projector(a), projector(b))
    with pytest.raises(DomainError):
        tensor(a, coherent_vector(-0.3, 13))


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
    # 65**4 > MAX_JOINT_DIM; the output would take 285 MB
    head = coherent_vector(1.0, 64)
    assert traced_peak(lambda: apply_split_network(head, 4)) < 5_000_000


def test_trace_norm_of_known_difference():
    plus = coherent_vector(1.0, 30)
    minus = coherent_vector(-1.0, 30)
    diff = projector(plus) - projector(minus)
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
    plus = coherent_vector(root, cutoff)
    minus = coherent_vector(-root, cutoff)
    head = (plus + minus) * omega_norm(modes, alpha)
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


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_apply_single_mode_matches_the_transposed_contraction(mode):
    # one matmul on a reshaped view against the tensordot + moveaxis route it
    # replaced; both sum the same d products, possibly in another order
    rng = np.random.default_rng(17 + mode)
    d = 9
    amps = rng.normal(size=d**3) + 1j * rng.normal(size=d**3)
    kernel = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    state = FockVector(cutoff=d - 1, modes=3, amplitudes=amps)
    out = apply_single_mode(kernel, state, mode)
    ref = np.moveaxis(np.tensordot(kernel, state.as_tensor(), axes=([1], [mode])), 0, mode)
    scale = np.abs(kernel).max() * np.abs(amps).max()
    assert np.abs(out.amplitudes - ref.reshape(-1)).max() <= 4 * d * np.finfo(float).eps * scale
