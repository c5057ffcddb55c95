"""Internal thermal noise of a plano-convex mirror read out by a Gaussian beam."""

from .errors import BudgetExceededError, InfeasibleGeometryError
from .geometry import (
    FUSED_SILICA,
    Material,
    PlanoConvexGeometry,
    solve_geometry,
    thickness_profile,
)
from .modes import (
    ModeData,
    ModeIndex,
    fundamental_frequency,
    mode_data,
)
from .overlap import (
    BeamSpec,
    OverlapWeight,
    overlap_centered,
)
from .susceptibility import (
    BOLTZMANN,
    OpticalMassApprox,
    SpectrumPoint,
    SusceptibilityResult,
    TruncationPolicy,
    displacement_noise_spectrum,
    effective_susceptibility,
    effective_susceptibility_grid,
    mode_susceptibility,
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
    "ModeData",
    "ModeIndex",
    "OpticalMassApprox",
    "OverlapWeight",
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
    "mode_data",
    "mode_susceptibility",
    "optical_mass_model",
    "overlap_centered",
    "run_sweep",
    "solve_geometry",
    "thermal_force_spectrum",
    "thickness_profile",
]
