"""Internal thermal noise of a plano-convex mirror read out by a Gaussian beam."""

from .errors import BudgetExceededError, InfeasibleGeometryError
from .geometry import (
    FUSED_SILICA,
    Material,
    PlanoConvexGeometry,
    solve_geometry,
)
from .modes import fundamental_frequency
from .overlap import BeamSpec
from .susceptibility import (
    BOLTZMANN,
    OpticalMassApprox,
    SpectrumPoint,
    SusceptibilityResult,
    TruncationPolicy,
    displacement_noise_spectrum,
    effective_susceptibility,
    effective_susceptibility_grid,
    optical_mass_model,
    thermal_force_spectrum,
)
from .sweeps import (
    CompareReport,
    SweepRow,
    SweepSpec,
    compare_report,
    convergence_study,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BOLTZMANN",
    "BeamSpec",
    "BudgetExceededError",
    "CompareReport",
    "FUSED_SILICA",
    "InfeasibleGeometryError",
    "Material",
    "OpticalMassApprox",
    "PlanoConvexGeometry",
    "SpectrumPoint",
    "SusceptibilityResult",
    "SweepRow",
    "SweepSpec",
    "TruncationPolicy",
    "compare_report",
    "convergence_study",
    "displacement_noise_spectrum",
    "effective_susceptibility",
    "effective_susceptibility_grid",
    "fundamental_frequency",
    "optical_mass_model",
    "run_sweep",
    "solve_geometry",
    "thermal_force_spectrum",
]
