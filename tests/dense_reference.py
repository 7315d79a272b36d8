"""Dense reference route for the tests: projectors and the trace norm.

The package builds no operator on more than one mode; these plain arrays are
the full-matrix route its compressed oracles are checked against.
"""

import numpy as np


def projector(amplitudes) -> np.ndarray:
    """|psi><psi| / <psi|psi> as a dense array."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return np.outer(v, v.conj()) / float(np.vdot(v, v).real)


def trace_norm(mat: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian array."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))
