"""Overlaps between the acoustic modes and the readout beam.

An offset beam is summed shell by shell: ShellTraceTable gives, for each
degenerate (n, 2p+l) shell, the total overlap^2 / mass of its modes.  The
per-mode overlaps, centered and off axis, and the quadrature oracles live in
mirnoise.validation, which the runtime never imports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlanoConvexGeometry
from .modes import acoustic_waist_sq


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


def check_beam_on_mirror(beam: BeamSpec, geometry: PlanoConvexGeometry) -> None:
    """Enforce the margin invariant d + w0 < D/2 (beam entirely on the face)."""
    if beam.offset + beam.waist >= geometry.diameter / 2.0:
        raise ValueError(
            f"beam (waist {beam.waist} m, offset {beam.offset} m) leaves the "
            f"mirror face of radius {geometry.diameter / 2.0} m"
        )


# ---------------------------------------------------------------------------
# Shell traces: total overlap^2 / mass per degenerate transverse shell.
#
# Within one (n, shell) eigenspace, the sum of mass-normalized squared
# overlaps is basis independent, so it can be taken in the separable
# Hermite-Gauss basis, where Mehler's formula sums it in closed form.
# This is what makes off-center susceptibility sums cheap.
# ---------------------------------------------------------------------------


def mehler_parameters(geometry: PlanoConvexGeometry, beam: BeamSpec, n: np.ndarray):
    """(beta, 2 mu^2, x, c0, 1 - beta) of the families n, which give their
    shell traces' generating function (Mehler's formula, DLMF 18.18.28)

        sum_s T_s t^s = c0 exp(-x (1 - t) / (1 + beta t)) / (1 - beta^2 t^2)
                      = C exp(2 mu^2 t / (1 + beta t)) / (1 - beta^2 t^2),

    with c0 the (0, 0) mode's centered overlap^2 / mass (kg^-1), x = 2 mu^2 /
    (1 + beta) = 4 d^2 / (w0^2 + 2 w_n^2) and C = T_0 = c0 e^-x.  1 - beta =
    1 / (0.5 + g), g = w_n^2 / w0^2, is formed as that quotient: 1 - beta by
    subtraction loses its digits in a narrow beam, where beta -> 1.
    """
    wn2 = acoustic_waist_sq(geometry, n)
    w02, d = beam.waist * beam.waist, beam.offset
    g = wn2 / w02
    gap = 1.0 / (0.5 + g)
    beta = 1.0 - gap
    mu2x2 = 2.0 * (g * (math.sqrt(2.0) * d / np.sqrt(wn2)) / (0.5 + g)) ** 2
    x = 4.0 * d * d / (w02 + 2.0 * wn2)
    c0 = 16.0 * wn2 / (math.pi * geometry.material.density * geometry.thickness * (w02 + 2.0 * wn2) ** 2)
    return beta, mu2x2, x, c0, gap


class ShellTraceTable:
    """Shell traces (overlap^2 / mass per shell) of a range of families, one
    geometry and beam.

    The traces T_s of a family are the Cauchy product of its squared offset
    and centered 1D Hermite beam factors, so Mehler's formula sums them in
    closed form (see mehler_parameters).  With e_s the coefficients of
    exp(2 mu^2 t / (1 + beta t)) and d_s = e_{s+1} + beta e_s, its
    differential equation gives, from e_0 = d_{-1} = 1 and T_{-1} = 0,

        (s+1) d_s = 2 mu^2 e_s - beta (s-1) d_{s-1},   e_{s+1} = d_s - beta e_s,
        T_{s+1} = C e_{s+1} + beta^2 T_{s-1}.

    Each step contracts (|beta| < 1), so rounding errors do not grow with s,
    as they do (~s^2 ulps) in the double-root recurrence of e_s alone.  At
    mu = 0 every e_s past e_0 is exactly 0, and so are the odd T_s.  One numpy
    step per shell advances every family in play, or, for a few columns, the
    same operations in Python floats; growth continues from the
    last rows and keeps the columns of the families last asked for alone.
    Each column's recurrence is its own, so which columns are kept changes
    no value.
    """

    _CHUNK = 256  # shells whose step coefficients are formed at once
    #: a growth of at most this many columns runs in Python floats: a numpy
    #: step costs about 3.5-7 us at any width up to 20, a column's step in
    #: Python floats about 0.25-0.35 us (measured on one x86-64 core)
    _SCALAR_COLUMNS = 12

    def __init__(self, geometry: PlanoConvexGeometry, beam: BeamSpec, families: range):
        self._families = np.arange(families.start, families.stop)  # family of each column
        n = self._families.astype(float)
        self._beta, self._mu2x2, x, c0, _ = mehler_parameters(geometry, beam, n)
        self._beta2 = self._beta * self._beta
        # C = c0 e^-x, the (0, 0) mode's overlap^2 / mass, underflows far off
        # axis, though the traces sum to G(1) = c0 / (1 - beta^2): such a family
        # runs as 2^k T_s, with 2^k C near e^-700 and 2^k G(1) below 2^1016
        # (past x = 1400 or so, 2^k C is subnormal and loses digits)
        k = np.maximum(np.floor(np.minimum((x - 700.0) / math.log(2.0),
                                           1016.0 - np.log2(c0 / (1.0 - self._beta2)))), 0.0)
        self._unscale = np.exp2(-k) if k.any() else None
        c = c0 * np.exp(k * math.log(2.0) - x)
        # row s + 1 holds T_s (times 2^k), row 0 T_{-1} = 0; the state is C e_s, C d_{s-1}
        self._rows = np.array([np.zeros_like(c), c])
        self._e, self._d = c.copy(), c.copy()

    def block(self, families, max_shell: int) -> np.ndarray:
        """Shell traces (kg^-1) for s = 0..max_shell, read-only, one column per
        family: of the ascending families given, or, for one family n, of n and
        every family above it that the table holds.  A growth keeps the columns
        asked for alone; a family left out cannot be read after it."""
        held = self._families
        if np.ndim(families) == 0:
            families = held[held >= families] if families in held else [families]
        cols = np.searchsorted(held, families)
        if not len(cols) or cols[-1] >= len(held) or not np.array_equal(held[cols], families):
            raise ValueError(f"families {np.asarray(families).tolist()} are not all in the table, which "
                             f"holds {len(held)} from {held[0]} to {held[-1]}")
        if max_shell + 2 > len(self._rows):
            self._grow(cols, max_shell)
            cols = np.arange(len(cols))
        if cols[-1] - cols[0] + 1 == len(cols):  # a run of columns: a view, no copy
            cols = slice(cols[0], cols[-1] + 1)
        out = self._rows[1 : max_shell + 2, cols]
        if self._unscale is not None:
            out = out * self._unscale[cols]
        out.flags.writeable = False
        return out

    def traces(self, n: int, max_shell: int) -> np.ndarray:
        """Shell traces of family n for s = 0..max_shell (kg^-1), read-only."""
        return self.block(n, max_shell)[:, 0]

    def _grow(self, cols: np.ndarray, max_shell: int) -> None:
        """Keep the columns cols alone and continue them to max_shell."""
        known = len(self._rows) - 1  # shells 0..known-1
        rows = np.empty((max_shell + 2, len(cols)))
        rows[: known + 1] = self._rows[:, cols]
        self._rows, self._families = rows, self._families[cols]
        self._mu2x2, self._beta, self._beta2 = self._mu2x2[cols], self._beta[cols], self._beta2[cols]
        if self._unscale is not None:
            self._unscale = self._unscale[cols]
        self._e, self._d = e, d = self._e[cols], self._d[cols]
        if len(cols) <= self._SCALAR_COLUMNS:
            self._grow_scalar(known, max_shell)
            return
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

    def _grow_scalar(self, known: int, max_shell: int) -> None:
        """_grow's numpy step, for each column alone in Python floats: the same
        operations in the same order, so the same values."""
        rows = self._rows
        for c, (mu2x2, beta, beta2) in enumerate(zip(self._mu2x2.tolist(), self._beta.tolist(),
                                                     self._beta2.tolist())):
            e, d = self._e[c].item(), self._d[c].item()
            older, old = rows[known - 1 : known + 1, c].tolist()  # T_{s-1}, T_s
            for lo in range(known - 1, max_shell, self._CHUNK):
                chunk = []  # rows lo + 2, ...: the chunks bound the floats held at once
                for s in map(float, range(lo, min(lo + self._CHUNK, max_shell))):
                    d = mu2x2 / (s + 1.0) * e - beta * ((s - 1.0) / (s + 1.0)) * d
                    e = d - e * beta
                    older, old = old, beta2 * older + e
                    chunk.append(old)
                rows[lo + 2 : lo + 2 + len(chunk), c] = chunk
            self._e[c], self._d[c] = e, d
