"""Substrate material and plano-convex geometry.

The mirror is a segment of a sphere: curvature radius R, center thickness h0,
sharp edge at diameter D.  Mass and diameter follow from (R, h0, density):

    M = pi rho h0^2 (R - h0/3)
    D = 2 sqrt(h0 (2R - h0))

All quantities are SI (m, kg, s, rad/s).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleGeometryError

#: thickness/curvature ratio above which the paraxial mode description is dubious
PARAXIAL_WARNING_RATIO = 0.25


def check_loss_angle(phi: float, context: str = "") -> None:
    """Enforce phi in (0, 1); at phi = 0 each mode is singular at its resonance."""
    if not 0 < phi < 1:
        raise ValueError(f"loss angle must lie in (0, 1), got {phi}{context}")


@dataclass(frozen=True)
class Material:
    """Isotropic substrate material.

    density        kg/m^3
    sound_velocity longitudinal sound velocity, m/s
    loss_angle     frequency-independent structural damping factor
    """

    density: float
    sound_velocity: float
    loss_angle: float = 1e-6

    def __post_init__(self):
        if not 0 < self.density < math.inf:
            raise ValueError(f"density must be finite and positive, got {self.density}")
        if not 0 < self.sound_velocity < math.inf:
            raise ValueError(f"sound velocity must be finite and positive, got {self.sound_velocity}")
        check_loss_angle(self.loss_angle)


#: fused silica, the usual substrate for gravitational-wave optics
FUSED_SILICA = Material(density=2200.0, sound_velocity=5960.0, loss_angle=1e-6)


@dataclass(frozen=True)
class PlanoConvexGeometry:
    """Plano-convex substrate with a sharp edge.

    The four geometric fields are redundant (two closure relations tie them
    together); construction verifies consistency to 1e-9 relative so that a
    geometry object can always be trusted downstream.
    """

    thickness: float
    curvature_radius: float
    diameter: float
    mass: float
    material: Material

    def __post_init__(self):
        h0, r = self.thickness, self.curvature_radius
        if not 0 < h0 < r:
            raise InfeasibleGeometryError(
                f"need 0 < thickness < curvature radius, got h0={h0}, R={r}"
            )
        m_closed = math.pi * self.material.density * h0 * h0 * (r - h0 / 3.0)
        d_closed = 2.0 * math.sqrt(h0 * (2.0 * r - h0))
        if abs(self.mass - m_closed) > 1e-9 * m_closed:
            raise ValueError(f"mass {self.mass} inconsistent with closure value {m_closed}")
        if abs(self.diameter - d_closed) > 1e-9 * d_closed:
            raise ValueError(f"diameter {self.diameter} inconsistent with closure value {d_closed}")

    @property
    def paraxial_ratio(self) -> float:
        return self.thickness / self.curvature_radius

    @property
    def paraxial_warning(self) -> bool:
        """True when the thin-substrate assumption behind the Gaussian modes is strained."""
        return self.paraxial_ratio > PARAXIAL_WARNING_RATIO


def solve_geometry(mass: float, thickness: float, material: Material) -> PlanoConvexGeometry:
    """Solve the geometry closure for a requested total mass and center thickness.

    Inverts M = pi rho h0^2 (R - h0/3) for R, then computes the sharp-edge
    diameter.  Raises InfeasibleGeometryError when the thickness is too large
    for the requested mass (R <= h0, no sphere segment exists).
    """
    if not 0 < mass < math.inf:
        raise ValueError(f"mass must be finite and positive, got {mass}")
    if not 0 < thickness < math.inf:
        raise ValueError(f"thickness must be finite and positive, got {thickness}")
    r = mass / (math.pi * material.density * thickness * thickness) + thickness / 3.0
    if r <= thickness:
        raise InfeasibleGeometryError(
            f"thickness {thickness} m too large for mass {mass} kg: "
            f"closure gives R={r} m <= h0"
        )
    d = 2.0 * math.sqrt(thickness * (2.0 * r - thickness))
    return PlanoConvexGeometry(
        thickness=thickness,
        curvature_radius=r,
        diameter=d,
        mass=mass,
        material=material,
    )

