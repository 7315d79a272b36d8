"""Sizes of coherent-branch superpositions: closed forms, Fock-space
numerics, Monte Carlo protocol simulations, and phase-space diagnostics.
"""

__version__ = "0.1.0"

from .closed_forms import (
    CatFamily,
    CatStateSpec,
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
from .fock import (
    FockVector,
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
from .measures import (
    MeasureKind,
    MeasureResult,
    Method,
    branch_dist_size,
    branch_dist_size_real,
    distillation_size,
    marquardt_size,
    mode_loss_size,
    rqfi_size,
    wigner_empirical_size,
)
from .phase_space import (
    PhaseSpaceFeatures,
    WignerGrid,
    extract_features,
    grid_to_json,
    wigner_branches,
    wigner_closed,
    wigner_grid,
    wigner_numeric,
    write_grid_csv,
)
from .simulate import (
    CollapseProblem,
    TrajectoryStats,
    build_distillation_povm,
    distillation_outcome_distribution,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)

__all__ = [name for name in dir() if not name.startswith("_")]
