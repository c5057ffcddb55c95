"""Spectrum of the plano-convex substrate's Gaussian compression modes.

Each mode carries three indices (n, p, l): longitudinal, radial, angular.
Family n's modes have the acoustic waist w_n^2 = (2 h0 / n pi) sqrt(R h0),
and those of one transverse shell s = 2p + l are degenerate, with

    Omega_{n,s}^2 = Omega_M^2 [n^2 + (2/pi) sqrt(h0/R) n (s + 1)],

Omega_M = pi c_l / h0 being the fundamental longitudinal frequency.  The
per-mode layer (indices, effective masses, single-mode overlaps and
susceptibilities) lives in mirnoise.validation, which the runtime never
imports.
"""
from __future__ import annotations

import math

from .geometry import PlanoConvexGeometry


def fundamental_frequency(geometry: PlanoConvexGeometry) -> float:
    """Omega_M = pi c_l / h0 (rad/s)."""
    return math.pi * geometry.material.sound_velocity / geometry.thickness


def acoustic_waist_sq(geometry: PlanoConvexGeometry, n: int) -> float:
    """w_n^2 = (2 h0 / n pi) sqrt(R h0)."""
    h0 = geometry.thickness
    return (2.0 * h0 / (n * math.pi)) * math.sqrt(geometry.curvature_radius * h0)


def spectrum_constants(geometry: PlanoConvexGeometry) -> tuple[float, float]:
    """(Omega_M^2, curv) of shell_frequency_sq, with curv = (2/pi) sqrt(h0/R)."""
    om_m = fundamental_frequency(geometry)
    return om_m * om_m, (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)


def shell_frequency_sq(om_m2, curv, n, s):
    """Omega_{n,s}^2 = Omega_M^2 (n^2 + curv n (s + 1)) of family n's shell s,
    from spectrum_constants; n and s are floats or numpy arrays that
    broadcast."""
    return om_m2 * (n * n + curv * n * (s + 1.0))
