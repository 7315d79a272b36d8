"""Each input guard is defined once: every entry that checks an input
raises that guard's one message, word for word."""

import numpy as np
import pytest

from catsize.closed_forms import (
    CatFamily,
    CatStateSpec,
    MeasureParams,
    cat_size_C_approx,
    mode_loss_offdiag,
    n_eff_real,
)
from catsize.errors import DomainError
from catsize.fock import FockVector, cat_split_thetas
from catsize.phase_space import wigner_branches, wigner_closed, wigner_numeric
from catsize.simulate import (
    CollapseProblem,
    build_distillation_povm,
    distillation_outcome_distribution,
    simulate_branch_collapse,
    simulate_distillation,
    simulate_mode_loss,
)

OMEGA2 = CatStateSpec(family=CatFamily.OMEGA, modes=2, alpha=0.5)
VACUUM2 = FockVector(cutoff=4, modes=2, amplitudes=np.eye(25)[0])

MODES = "modes must be >= 1, got 0"
LAMBDA = "lambda must lie in [0, 1], got 1.5"
SPAN = "the branch span degenerates at alpha = 0"
TRIALS = "trials must be >= 1, got 0"
UNDEFINED = "branch distinguishability is undefined at alpha = 0"


def coordinates(k: int) -> str:
    return f"expected 1 to 2 phase-space coordinates, got {k}"


CASES = {
    "modes-spec": (lambda: CatStateSpec(CatFamily.OMEGA, 0, 1.0), MODES),
    "modes-split-thetas": (lambda: cat_split_thetas(0), MODES),
    "modes-outcome-distribution": (lambda: distillation_outcome_distribution(0, 1.0), MODES),
    "modes-simulate-distillation": (lambda: simulate_distillation(0, 1.0, 10, 0), MODES),
    "modes-simulate-mode-loss": (lambda: simulate_mode_loss(0, 1.0, 0.25, 10, 0), MODES),
    "lambda-offdiag": (lambda: mode_loss_offdiag(3, 1.0, 1.5), LAMBDA),
    "lambda-measure-params": (lambda: MeasureParams(lam=1.5), LAMBDA),
    "lambda-simulate-mode-loss": (lambda: simulate_mode_loss(3, 1.0, 1.5, 10, 0), LAMBDA),
    "span-povm": (lambda: build_distillation_povm(0.0), SPAN),
    "span-simulate-distillation": (lambda: simulate_distillation(5, 0.0, 10, 0), SPAN),
    "trials-distillation": (lambda: simulate_distillation(5, 1.0, 0, 0), TRIALS),
    "trials-mode-loss": (lambda: simulate_mode_loss(5, 1.0, 0.25, 0, 0), TRIALS),
    "trials-collapse": (
        lambda: simulate_branch_collapse(1.0, 0, 0, CollapseProblem.CAT_VS_MIXED),
        TRIALS,
    ),
    "undefined-n-eff-real": (lambda: n_eff_real(0.01, 0.0), UNDEFINED),
    "undefined-size-approx": (lambda: cat_size_C_approx(0.01, 3, 0.0), UNDEFINED),
    "k0-closed": (lambda: wigner_closed(OMEGA2), coordinates(0)),
    "k3-closed": (lambda: wigner_closed(OMEGA2, 0.0, 0.0, 0.0), coordinates(3)),
    "k0-numeric": (lambda: wigner_numeric(VACUUM2, []), coordinates(0)),
    "k3-numeric": (lambda: wigner_numeric(VACUUM2, [0.0, 0.0, 0.0]), coordinates(3)),
    "k0-branches": (lambda: wigner_branches(OMEGA2, np.zeros((1, 0))), coordinates(0)),
    "k3-branches": (lambda: wigner_branches(OMEGA2, np.zeros((1, 3))), coordinates(3)),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_each_guard_raises_its_one_message(call, message):
    with pytest.raises(DomainError) as refused:
        call()
    assert str(refused.value) == message
