"""Overlaps between the acoustic modes and the readout beam.

A centered beam's overlaps with the l = 0 modes have a closed form.  An
offset beam is summed shell by shell: ShellTraceTable gives, for each
degenerate (n, 2p+l) shell, the total overlap^2 / mass of its modes.  The
per-mode off-axis overlaps and the quadrature oracles live in
mirnoise.validation, which the runtime never imports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlanoConvexGeometry
from .modes import ModeData, ModeIndex, acoustic_waist_sq


@dataclass(frozen=True)
class BeamSpec:
    """TEM00 readout beam: intensity waist and transverse offset along x."""

    waist: float
    offset: float = 0.0

    def __post_init__(self):
        if not 0 < self.waist < math.inf:
            raise ValueError(f"beam waist must be finite and positive, got {self.waist}")
        if not 0 <= self.offset < math.inf:
            raise ValueError(f"beam offset must be finite and non-negative, got {self.offset}")


@dataclass(frozen=True)
class OverlapWeight:
    index: ModeIndex
    value: float


def check_beam_on_mirror(beam: BeamSpec, geometry: PlanoConvexGeometry) -> None:
    """Enforce the margin invariant d + w0 < D/2 (beam entirely on the face)."""
    if beam.offset + beam.waist >= geometry.diameter / 2.0:
        raise ValueError(
            f"beam (waist {beam.waist} m, offset {beam.offset} m) leaves the "
            f"mirror face of radius {geometry.diameter / 2.0} m"
        )


def overlap_centered(mode: ModeData, beam: BeamSpec) -> OverlapWeight:
    """Closed-form overlap for a centered beam and an l = 0 mode.

    value = [2 w_n^2/(2 w_n^2 + w0^2)] * [(2 w_n^2 - w0^2)/(2 w_n^2 + w0^2)]^p
    """
    if beam.offset != 0.0:
        raise ValueError("overlap_centered requires a centered beam (offset = 0)")
    if mode.index.l != 0:
        raise ValueError("modes with l >= 1 have zero overlap with a centered beam")
    wn2 = mode.waist * mode.waist
    w02 = beam.waist * beam.waist
    c = 2.0 * wn2 / (2.0 * wn2 + w02)
    q = (2.0 * wn2 - w02) / (2.0 * wn2 + w02)
    return OverlapWeight(index=mode.index, value=c * q**mode.index.p)


# ---------------------------------------------------------------------------
# Shell traces: total overlap^2 / mass per degenerate transverse shell.
#
# Within one (n, shell) eigenspace, the sum of mass-normalized squared
# overlaps is basis independent, so it can be taken in the separable
# Hermite-Gauss basis, where Mehler's formula sums it in closed form.
# This is what makes off-center susceptibility sums cheap.
# ---------------------------------------------------------------------------


class ShellTraceTable:
    """Shell traces (overlap^2 / mass per shell) of a range of families, one
    geometry and beam.

    The traces T_s of a family are the Cauchy product of its squared offset
    and centered 1D Hermite beam factors, so by
    Mehler's formula (DLMF 18.18.28)

        sum_s T_s t^s = C exp(2 mu^2 t / (1 + beta t)) / (1 - beta^2 t^2),  C = T_0.

    With e_s the coefficients of the exponential and d_s = e_{s+1} + beta e_s,
    its differential equation gives, from e_0 = d_{-1} = 1 and T_{-1} = 0,

        (s+1) d_s = 2 mu^2 e_s - beta (s-1) d_{s-1},   e_{s+1} = d_s - beta e_s,
        T_{s+1} = C e_{s+1} + beta^2 T_{s-1}.

    Each step contracts (|beta| < 1), so rounding errors do not grow with s,
    as they do (~s^2 ulps) in the double-root recurrence of e_s alone.  At
    mu = 0 every e_s past e_0 is exactly 0, and so are the odd T_s.  One numpy
    step per shell advances every family in play; growth continues from the
    last rows and drops lower families' columns (n is visited ascending).
    """

    _CHUNK = 256  # shells whose step coefficients are formed at once

    def __init__(self, geometry: PlanoConvexGeometry, beam: BeamSpec, families: range):
        self._first = families.start  # family of column 0
        wn2 = acoustic_waist_sq(geometry, np.arange(families.start, families.stop, dtype=float))
        w02, d = beam.waist * beam.waist, beam.offset
        g = wn2 / w02
        self._beta = 1.0 - 1.0 / (0.5 + g)
        self._mu2x2 = 2.0 * (g * (math.sqrt(2.0) * d / np.sqrt(wn2)) / (0.5 + g)) ** 2
        self._beta2 = self._beta * self._beta
        # C = c0 e^-x, the (0, 0) mode's overlap^2 / mass, underflows far off
        # axis, though the traces sum to G(1) = c0 / (1 - beta^2): such a family
        # runs as 2^k T_s, with 2^k C near e^-700 and 2^k G(1) below 2^1016
        # (past x = 1400 or so, 2^k C is subnormal and loses digits)
        c0 = 16.0 * wn2 / (math.pi * geometry.material.density * geometry.thickness * (w02 + 2.0 * wn2) ** 2)
        x = 4.0 * d * d / (w02 + 2.0 * wn2)
        k = np.maximum(np.floor(np.minimum((x - 700.0) / math.log(2.0),
                                           1016.0 - np.log2(c0 / (1.0 - self._beta2)))), 0.0)
        self._unscale = np.exp2(-k) if k.any() else None
        c = c0 * np.exp(k * math.log(2.0) - x)
        # row s + 1 holds T_s (times 2^k), row 0 T_{-1} = 0; the state is C e_s, C d_{s-1}
        self._rows = np.array([np.zeros_like(c), c])
        self._e, self._d = c.copy(), c.copy()

    def block(self, n: int, max_shell: int) -> np.ndarray:
        """Shell traces (kg^-1) of families n, n+1, ..., one per column, for
        s = 0..max_shell, read-only."""
        col = n - self._first
        if col < 0:
            raise ValueError(f"family {n} was already dropped (table starts at {self._first})")
        if max_shell + 2 > len(self._rows):
            self._grow(col, max_shell)
            col = 0
        out = self._rows[1 : max_shell + 2, col:]
        if self._unscale is not None:
            out = out * self._unscale[col:]
        out.flags.writeable = False
        return out

    def traces(self, n: int, max_shell: int) -> np.ndarray:
        """Shell traces of family n for s = 0..max_shell (kg^-1), read-only."""
        return self.block(n, max_shell)[:, 0]

    def _grow(self, col: int, max_shell: int) -> None:
        """Drop the columns before col and continue the rest to max_shell."""
        known = len(self._rows) - 1  # shells 0..known-1
        rows = np.empty((max_shell + 2, self._rows.shape[1] - col))
        rows[: known + 1] = self._rows[:, col:]
        self._rows, self._first = rows, self._first + col
        self._mu2x2, self._beta, self._beta2 = self._mu2x2[col:], self._beta[col:], self._beta2[col:]
        if self._unscale is not None:
            self._unscale = self._unscale[col:]
        self._e, self._d = e, d = self._e[col:].copy(), self._d[col:].copy()
        beta, beta2, scratch = self._beta, self._beta2, np.empty(len(e))
        for lo in range(known - 1, max_shell, self._CHUNK):
            # steps s -> s + 1 for s = lo, lo + 1, ...: d_s = p_s e_s - q_s d_{s-1}
            s = np.arange(lo, min(lo + self._CHUNK, max_shell), dtype=float)[:, None]
            p = self._mu2x2 / (s + 1.0)
            q = beta * ((s - 1.0) / (s + 1.0))
            for k in range(len(s)):
                np.multiply(q[k], d, out=scratch)
                np.multiply(p[k], e, out=d)
                d -= scratch
                e *= beta
                np.subtract(d, e, out=e)
                row = rows[lo + k + 2]
                np.multiply(beta2, rows[lo + k], out=row)
                row += e
