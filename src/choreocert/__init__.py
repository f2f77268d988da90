"""Planar two-chain choreography orbits: action minimization and certification.

N equal-mass bodies chase each other on one closed planar curve while three
more chase each other on a second curve, all with period 1 and a shared
rotational symmetry. This package builds the symmetry-reduced loop space,
evaluates and minimizes the Lagrangian action on it, enumerates the exact
collision-time lattices that symmetry forces on colliding loops, and turns
the resulting action lower bounds into collision-free certificates for
explicit orbits.
"""

from .action import (
    ActionBreakdown,
    ActionWorkspace,
    kinetic_action,
    total_action,
)
from .bounds import (
    CaseBound,
    ThresholdReport,
    TimeLattice,
    case_lower_bound,
    collision_closure,
    collision_threshold,
    gordon_periodic,
    gordon_segment,
    verify_time_lemmas,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .loops import (
    GeneratorSpectrum,
    MinSeparation,
    SystemLoop,
    Trajectory,
    evaluate,
    min_separation,
    sample,
    system_from_dict,
    system_to_dict,
    trajectory_to_csv,
    winding_number,
)
from .solver import (
    MinimizeOptions,
    MinimizeResult,
    minimize,
    ode_residual,
)
from .symmetry import (
    CompatibilityResult,
    SymmetryParams,
    allowed_frequencies,
    compatibility_check,
)
from .testorbits import CertificateReport, build_test_orbit, certify, circular_action

__version__ = "0.1.0"

__all__ = [
    "ActionBreakdown",
    "ActionWorkspace",
    "CaseBound",
    "CertificateReport",
    "CompatibilityResult",
    "GeneratorSpectrum",
    "KERNEL_BACKEND",
    "MinSeparation",
    "MinimizeOptions",
    "MinimizeResult",
    "SymmetryParams",
    "SystemLoop",
    "ThresholdReport",
    "TimeLattice",
    "Trajectory",
    "allowed_frequencies",
    "build_test_orbit",
    "case_lower_bound",
    "certify",
    "circular_action",
    "collision_closure",
    "collision_threshold",
    "compatibility_check",
    "evaluate",
    "gordon_periodic",
    "gordon_segment",
    "kinetic_action",
    "min_separation",
    "minimize",
    "ode_residual",
    "sample",
    "system_from_dict",
    "system_to_dict",
    "total_action",
    "trajectory_to_csv",
    "verify_time_lemmas",
    "winding_number",
]
