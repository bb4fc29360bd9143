"""Rough-path driven McKean-Vlasov simulation and cocycle verification."""

from .controlled import (
    ControlledPath,
    controlled_distance,
    sewing_constant,
)
from .grids import TimeGrid
from .measures import (
    EmpiricalMeasure,
    ScalarFunc,
    default_test_family,
    dp_bracket,
    linear_func,
    moment,
    topology_equivalence_probe,
    wasserstein_p,
)
from .meanfield import (
    FrozenLawConfig,
    MeasureCurve,
    feynman_kac_duality,
    simulate_frozen_law,
    stability_check,
    weak_solution_residual,
)
from .models import (
    MeanFieldModel,
    build_model,
    covariance,
    eks_gaussian_model,
    landau_model,
    psd_sqrt,
)
from .cocycle import (
    FlowRun,
    JointState,
    cocycle_defect,
    cocycle_defect_at,
    continuity_probe,
    wong_zakai_run,
)
from .rde import (
    CoefficientField,
    RdeSolution,
    doss_sussmann_solve,
    flow_jacobian,
    linear_coefficients,
    solve_backward,
    solve_driftless,
)
from .roughpath import (
    ITO,
    STRAT,
    NoisePath,
    RoughPath,
    brownian_lift,
    dyadic_approximation,
    rough_distance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
