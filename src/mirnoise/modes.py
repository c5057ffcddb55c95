"""Paraxial Gaussian compression modes of the plano-convex substrate.

Each mode carries three indices (n, p, l): longitudinal, radial, angular.
The surface displacement at z=0 is a Laguerre-Gauss profile

    u(r, phi) = exp(-r^2/w_n^2) (sqrt(2) r/w_n)^l L_p^l(2 r^2/w_n^2) ang(l phi)

with ang = cos or sin, acoustic waist w_n^2 = (2 h0 / n pi) sqrt(R h0), and
eigenfrequencies

    Omega_{n,p,l}^2 = Omega_M^2 [n^2 + (2/pi) sqrt(h0/R) n (2p + l + 1)],

Omega_M = pi c_l / h0 being the fundamental longitudinal frequency.  This
module gives each mode's waist, eigenfrequency and effective mass; only the
oracles in mirnoise.validation evaluate the profile u itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .geometry import PlanoConvexGeometry

Parity = Literal["cos", "sin"]


@dataclass(frozen=True)
class ModeIndex:
    n: int
    p: int = 0
    l: int = 0
    parity: Parity = "cos"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"longitudinal index must be >= 1, got {self.n}")
        if self.p < 0 or self.l < 0:
            raise ValueError(f"radial/angular indices must be >= 0, got p={self.p}, l={self.l}")
        if self.parity not in ("cos", "sin"):
            raise ValueError(f"parity must be 'cos' or 'sin', got {self.parity!r}")
        if self.l == 0 and self.parity != "cos":
            raise ValueError("l = 0 modes have no sine partner")

    @property
    def shell(self) -> int:
        """Transverse shell number 2p + l; modes of equal (n, shell) are degenerate."""
        return 2 * self.p + self.l


@dataclass(frozen=True)
class ModeData:
    """Derived per-mode quantities, all SI."""

    index: ModeIndex
    geometry: PlanoConvexGeometry
    waist: float
    frequency: float
    effective_mass: float
    fundamental_frequency: float

    @property
    def confinement_ratio(self) -> float:
        """Transverse mode extent over the mirror radius.

        The Gaussian description needs this to stay well below 1; the value is
        reported rather than enforced.
        """
        extent = self.waist * math.sqrt(2 * self.index.p + self.index.l + 1)
        return extent / (self.geometry.diameter / 2.0)


def fundamental_frequency(geometry: PlanoConvexGeometry) -> float:
    """Omega_M = pi c_l / h0 (rad/s)."""
    return math.pi * geometry.material.sound_velocity / geometry.thickness


def acoustic_waist_sq(geometry: PlanoConvexGeometry, n: int) -> float:
    """w_n^2 = (2 h0 / n pi) sqrt(R h0)."""
    h0 = geometry.thickness
    return (2.0 * h0 / (n * math.pi)) * math.sqrt(geometry.curvature_radius * h0)


def eigenfrequency_sq(geometry: PlanoConvexGeometry, n: int, shell: int) -> float:
    """Omega^2 for all modes of longitudinal index n in transverse shell 2p+l."""
    om = fundamental_frequency(geometry)
    curvature_term = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    return om * om * (n * n + curvature_term * n * (shell + 1))


def factorial_ratio(p: int, l: int) -> float:
    """(p+l)!/p! as a float, accumulated exactly in integer arithmetic.

    Never forms the two factorials separately; the exact integer product is
    converted to float once, so the result is correctly rounded whenever it is
    representable at all.
    """
    if p < 0 or l < 0:
        raise ValueError("indices must be non-negative")
    acc = 1
    for j in range(p + 1, p + l + 1):
        acc *= j
    return float(acc)


def effective_mass(geometry: PlanoConvexGeometry, index: ModeIndex) -> float:
    """Oscillator mass of the mode for its peak surface-displacement coordinate.

    (pi/4) rho h0 w_n^2 for l = 0; the angular integral halves and the radial
    norm picks up (p+l)!/p! for l >= 1.
    """
    rho = geometry.material.density
    wn2 = acoustic_waist_sq(geometry, index.n)
    base = rho * geometry.thickness * wn2
    if index.l == 0:
        return (math.pi / 4.0) * base
    return (math.pi / 8.0) * base * factorial_ratio(index.p, index.l)


def mode_data(geometry: PlanoConvexGeometry, index: ModeIndex) -> ModeData:
    """Assemble waist, eigenfrequency and effective mass for one mode."""
    return ModeData(
        index=index,
        geometry=geometry,
        waist=math.sqrt(acoustic_waist_sq(geometry, index.n)),
        frequency=math.sqrt(eigenfrequency_sq(geometry, index.n, index.shell)),
        effective_mass=effective_mass(geometry, index),
        fundamental_frequency=fundamental_frequency(geometry),
    )
