"""Sizes of coherent-branch superpositions: closed forms, Fock-space
numerics, Monte Carlo protocol simulations, and phase-space diagnostics.

``import catsize`` executes only ``closed_forms`` and ``errors``.  The
numeric layers ``fock``, ``measures``, ``phase_space`` and ``simulate`` are
registered with ``importlib.util.LazyLoader``: each sits in ``sys.modules``
and on the package from the start, and its source is compiled and run at
its first attribute access, so a command pays only for the layers it calls.
A lazy module, unlike an import deferred into the functions that use it,
stays the one object that code looking modules up in ``sys.modules`` finds
(a tracer that rebinds the layers' functions, say).  The names re-exported
from those layers resolve through the module ``__getattr__`` (PEP 562); an
error raised while a layer executes surfaces at its first use.
"""

__version__ = "0.1.0"

import importlib.util as _importlib_util
import sys as _sys

from .closed_forms import (
    CatFamily,
    CatStateSpec,
    CollapseProblem,
    GeneratorKind,
    MeasureParams,
    abs2,
    branch_overlap,
    cat_size_C,
    cat_size_C_approx,
    delta_validity_interval,
    distill_expected_n,
    distill_pm,
    equivalent_ghz_size,
    ghz_mode_loss_offdiag,
    hcs_norms,
    helstrom_success_n_modes,
    marquardt_pd,
    marquardt_s,
    mode_loss_offdiag,
    mode_loss_offdiag_mean,
    n_eff_integer,
    n_eff_real,
    number_variance_omega,
    omega_norm,
    quadrature_variance_omega,
    rdm_particle_trace,
    rqfi_bound_bounded,
    rqfi_bound_quadrature,
)
from .errors import (
    CatSizeError,
    DomainError,
    ResolutionError,
    SizingError,
    TruncationError,
)

# the re-exports of each lazily loaded layer
_LAZY_EXPORTS = {
    "fock": (
        "cat_split_thetas",
        "coherent_vector",
        "default_cutoff",
        "displace",
        "family_branches",
        "kitten_vectors",
        "mode_ops",
        "split_network_overlaps",
    ),
    "measures": (
        "MeasureKind",
        "MeasureResult",
        "Method",
        "branch_dist_size",
        "branch_dist_size_real",
        "distillation_size",
        "marquardt_size",
        "mode_loss_size",
        "rqfi_size",
        "wigner_empirical_size",
    ),
    "phase_space": (
        "PhaseSpaceFeatures",
        "WignerGrid",
        "extract_features",
        "grid_to_json",
        "wigner_branches",
        "wigner_closed",
        "wigner_grid",
        "write_grid_csv",
    ),
    "simulate": (
        "TrajectoryStats",
        "build_distillation_povm",
        "distillation_outcome_distribution",
        "simulate_branch_collapse",
        "simulate_distillation",
        "simulate_mode_loss",
    ),
}
_EXPORTED_FROM = {name: layer for layer, names in _LAZY_EXPORTS.items() for name in names}


def _register_lazy(layer: str):
    """Put ``layer`` in ``sys.modules`` unexecuted; it runs at first access."""
    spec = _importlib_util.find_spec(f".{layer}", __name__)
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


fock, measures, phase_space, simulate = map(_register_lazy, _LAZY_EXPORTS)


def __getattr__(name: str):
    try:
        layer = _EXPORTED_FROM[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[layer], name)


def __dir__() -> list:
    return sorted([*globals(), *_EXPORTED_FROM])


__all__ = [name for name in __dir__() if not name.startswith("_")]
