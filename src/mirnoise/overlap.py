"""Overlap integrals between acoustic-mode surface profiles and the readout beam.

Centered beams have a closed form.  Off-center overlaps are computed by
expanding the Laguerre-Gauss surface profile into products of Hermite-Gauss
functions in x and y, and integrating each factor against the displaced beam
Gaussian with a two-term recurrence in the Hermite order.  The expansion
coefficients are exact integers (up to a known power-of-two/factorial scale),
so the only rounding happens in the final dot product; that dot product runs
in adaptive multiprecision because high-order coefficients cancel deeply.

A direct two-dimensional quadrature over the mirror face serves as the
independent oracle for the analytic path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import QuadratureConvergenceError, RecurrenceOverflowError
from .geometry import PlanoConvexGeometry
from .modes import ModeData, ModeIndex, acoustic_waist_sq, generalized_laguerre


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


def beam_profile(beam: BeamSpec, x, y):
    """Normalized intensity profile (1/m^2); integrates to 1 over the plane."""
    w2 = beam.waist * beam.waist
    return (2.0 / (math.pi * w2)) * np.exp(
        -2.0 * ((np.asarray(x, dtype=float) - beam.offset) ** 2 + np.asarray(y, dtype=float) ** 2) / w2
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
# Exact Hermite-product expansion tables
#
# tables(p, l) returns integer matrices (re, im) such that
#     (X+iY)^l L_p^l(X^2+Y^2) = sum_{m,k} (re+i*im)[m][k] H_m(X) H_k(Y) / den
# with den = 4^p 2^l p!.  Built with the integer-preserving operators
#     2X H_m = H_{m+1} + 2m H_{m-1}      (and likewise for Y)
# and the Laguerre three-term recurrence scaled to stay integral.
# ---------------------------------------------------------------------------


def _mul2x(t):
    rows, cols = len(t), len(t[0])
    out = [[0] * cols for _ in range(rows + 1)]
    for m in range(rows):
        row = t[m]
        dst = out[m + 1]
        for k in range(cols):
            dst[k] += row[k]
        if m >= 1:
            dst = out[m - 1]
            for k in range(cols):
                dst[k] += 2 * m * row[k]
    return out


def _mul2y(t):
    rows, cols = len(t), len(t[0])
    out = [[0] * (cols + 1) for _ in range(rows)]
    for m in range(rows):
        row = t[m]
        dst = out[m]
        for k in range(cols):
            dst[k + 1] += row[k]
            if k >= 1:
                dst[k - 1] += 2 * k * row[k]
    return out


def _padsum(a, b, fa=1, fb=1):
    rows = max(len(a), len(b))
    cols = max(len(a[0]), len(b[0]))
    out = [[0] * cols for _ in range(rows)]
    for m, row in enumerate(a):
        dst = out[m]
        for k, v in enumerate(row):
            dst[k] += fa * v
    for m, row in enumerate(b):
        dst = out[m]
        for k, v in enumerate(row):
            dst[k] += fb * v
    return out


def _mul4t(t):
    """4 (X^2+Y^2) * poly, integer-preserving."""
    return _padsum(_mul2x(_mul2x(t)), _mul2y(_mul2y(t)))


@lru_cache(maxsize=64)
def hermite_product_tables(p: int, l: int):
    """Exact integer expansion tables for mode (p, l); see module comment.

    Returns (re, im, den) where re/im are nested integer lists and den the
    common denominator 4^p 2^l p!.
    """
    re = [[1]]
    im = [[0]]
    for _ in range(l):
        xre, xim = _mul2x(re), _mul2x(im)
        yre, yim = _mul2y(re), _mul2y(im)
        re = _padsum(xre, yim, 1, -1)
        im = _padsum(xim, yre, 1, 1)
    den = 4**p * 2**l * math.factorial(p)
    if p == 0:
        return re, im, den
    prev_re, prev_im = re, im
    cur_re = _padsum([[4 * (l + 1) * v for v in row] for row in prev_re], _mul4t(prev_re), 1, -1)
    cur_im = _padsum([[4 * (l + 1) * v for v in row] for row in prev_im], _mul4t(prev_im), 1, -1)
    for pp in range(1, p):
        scale = 4 * (2 * pp + l + 1)
        nxt_re = _padsum(
            _padsum([[scale * v for v in row] for row in cur_re], _mul4t(cur_re), 1, -1),
            prev_re,
            1,
            -16 * pp * (pp + l),
        )
        nxt_im = _padsum(
            _padsum([[scale * v for v in row] for row in cur_im], _mul4t(cur_im), 1, -1),
            prev_im,
            1,
            -16 * pp * (pp + l),
        )
        prev_re, prev_im, cur_re, cur_im = cur_re, cur_im, nxt_re, nxt_im
    return cur_re, cur_im, den


def _displaced_gauss_hermite_seq(mu, beta, mmax):
    """K_m = beta^{m/2} H_m(mu/sqrt(beta)) by the two-term recurrence.

    These are the reduced 1D integrals: with a = 1/2 + g,
    int H_m(X) e^{-X^2/2} e^{-g(X-delta)^2} dX = pref * K_m,
    pref = exp(g delta^2 (g/a - 1)) sqrt(pi/a), mu = g delta / a, beta = 1 - 1/a.
    Works transparently for mp.mpf or float inputs.
    """
    one = mu - mu + 1  # unit of the same numeric type
    seq = [one]
    if mmax >= 1:
        seq.append(2 * mu)
    for m in range(1, mmax):
        seq.append(2 * mu * seq[m] - 2 * m * beta * seq[m - 1])
    return seq


def overlap_offaxis(mode: ModeData, beam: BeamSpec, target_digits: int = 13) -> OverlapWeight:
    """Overlap of one mode with a beam displaced along x (the analytic path).

    Sine-parity modes are odd across the offset axis and integrate to exactly
    zero; for everything else the Hermite-product expansion is contracted with
    the displaced-Gaussian integral sequences.  Working precision is raised
    adaptively until the requested number of significant digits survives the
    cancellation in the contraction.
    """
    check_beam_on_mirror(beam, mode.geometry)
    idx = mode.index
    if idx.parity == "sin":
        return OverlapWeight(index=idx, value=0.0)
    if beam.offset == 0.0 and idx.l >= 1:
        return OverlapWeight(index=idx, value=0.0)

    tab_re, _tab_im, den = hermite_product_tables(idx.p, idx.l)
    mmax = len(tab_re) - 1
    kmax = len(tab_re[0]) - 1
    wn2 = mode.waist * mode.waist

    dps = 30
    for _ in range(4):
        with mp.workdps(dps):
            g = mp.mpf(wn2) / mp.mpf(beam.waist) ** 2
            a = mp.mpf(0.5) + g
            delta = mp.sqrt(2) * mp.mpf(beam.offset) / mp.mpf(mode.waist)
            mu = g * delta / a
            beta = 1 - 1 / a
            pref = mp.exp(g * delta**2 * (g / a - 1)) * (mp.pi / a)
            seq_x = _displaced_gauss_hermite_seq(mu, beta, mmax)
            seq_y = _displaced_gauss_hermite_seq(mp.mpf(0), beta, kmax)
            tot = mp.mpf(0)
            abstot = mp.mpf(0)
            for m in range(mmax + 1):
                row = tab_re[m]
                sx = seq_x[m]
                for k in range(kmax + 1):
                    cv = row[k]
                    if cv:
                        term = mp.mpf(cv) * sx * seq_y[k]
                        tot += term
                        abstot += abs(term)
            if tot == 0:
                return OverlapWeight(index=idx, value=0.0)
            cancelled = float(mp.log10(abstot / abs(tot)))
            if dps - cancelled >= target_digits + 2:
                value = float((mp.mpf(wn2) / (mp.pi * mp.mpf(beam.waist) ** 2)) * pref * tot / den)
                if not math.isfinite(value):
                    raise RecurrenceOverflowError(
                        f"overlap for {idx} left the float range (got {value})"
                    )
                return OverlapWeight(index=idx, value=value)
            dps = int(cancelled) + target_digits + 20
    raise RecurrenceOverflowError(
        f"overlap contraction for {idx} did not stabilize below {dps} digits"
    )


# ---------------------------------------------------------------------------
# Shell traces: total overlap^2 / mass per degenerate transverse shell.
#
# Within one (n, shell) eigenspace, the sum of mass-normalized squared
# overlaps is basis independent, so it can be taken in the separable
# Hermite-Gauss basis, where Mehler's formula sums it in closed form.
# This is what makes off-center susceptibility sums cheap.
# ---------------------------------------------------------------------------


def normalized_hermite_beam_sequence(wn: float, w0: float, d: float, mmax: int) -> np.ndarray:
    """1D overlaps of unit-norm Hermite-Gauss functions with the beam factor.

    ih[m] = int hhat_m(X) e^{-g (X - delta)^2} dX with hhat_m normalized;
    bounded coherent-state-like values, stable upward recurrence.
    """
    g = wn * wn / (w0 * w0)
    a = 0.5 + g
    delta = math.sqrt(2.0) * d / wn
    mu, beta = g * delta / a, 1.0 - 1.0 / a
    ih = np.empty(mmax + 1)
    ih[0] = math.exp(g * delta * delta * (g / a - 1.0)) * math.sqrt(math.pi / a) / math.pi**0.25
    if mmax >= 1:
        ih[1] = mu * math.sqrt(2.0) * ih[0]
    for m in range(1, mmax):
        ih[m + 1] = mu * math.sqrt(2.0 / (m + 1)) * ih[m] - beta * math.sqrt(m / (m + 1.0)) * ih[m - 1]
    return ih


class ShellTraceTable:
    """shell_overlap_sq_over_mass for a range of families, one geometry and beam.

    The traces T_s of a family are the Cauchy product of its squared offset
    and centered beam factors (normalized_hermite_beam_sequence), so by
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


def shell_overlap_sq_over_mass(
    geometry: PlanoConvexGeometry, beam: BeamSpec, n: int, max_shell: int
) -> np.ndarray:
    """For shells s = 0..max_shell: sum over shell modes of overlap^2 / mass.

    Equals the per-mode Laguerre-Gauss sum exactly (same eigenspace, traced in
    the Cartesian basis).  Units kg^-1.
    """
    return ShellTraceTable(geometry, beam, range(n, n + 1)).traces(n, max_shell).copy()


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


_PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


@lru_cache(maxsize=16)
def _leggauss_longdouble(nr: int):
    """Gauss-Legendre nodes/weights refined to longdouble by Newton iteration."""
    x64, _ = np.polynomial.legendre.leggauss(nr)
    x = x64.astype(np.longdouble)
    for _ in range(3):
        pm1 = np.ones_like(x)
        pk = x.copy()
        for k in range(1, nr):
            pm1, pk = pk, ((2 * k + 1) * x * pk - k * pm1) / (k + 1)
        # pk = P_nr, pm1 = P_{nr-1}
        deriv = nr * (x * pk - pm1) / (x * x - 1.0)
        x = x - pk / deriv
    pm1 = np.ones_like(x)
    pk = x.copy()
    for k in range(1, nr):
        pm1, pk = pk, ((2 * k + 1) * x * pk - k * pm1) / (k + 1)
    deriv = nr * (x * pk - pm1) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * deriv * deriv)
    return x, w


def _disk_integral(mode: ModeData, beam: BeamSpec, radius: float, nr: int, nphi: int, dtype):
    """One evaluation of the overlap on the disk; returns (value, sum of |integrand|)."""
    idx = mode.index
    one = dtype(1.0)
    wn2 = dtype(mode.waist) * dtype(mode.waist)
    wn = np.sqrt(wn2)
    w02 = dtype(beam.waist) * dtype(beam.waist)
    d = dtype(beam.offset)
    if dtype is np.longdouble:
        xg, wg = _leggauss_longdouble(nr)
    else:
        xg, wg = np.polynomial.legendre.leggauss(nr)
        xg = xg.astype(dtype)
        wg = wg.astype(dtype)
    r = dtype(0.5) * dtype(radius) * (xg + one)
    wr = dtype(0.5) * dtype(radius) * wg
    pi_val = _PI_LONG if dtype is np.longdouble else dtype(math.pi)
    j = np.arange(nphi)
    phi = (dtype(2.0) * pi_val / dtype(nphi)) * j.astype(dtype)
    dphi = dtype(2.0) * pi_val / dtype(nphi)
    cphi = np.cos(phi)
    sphi = np.sin(phi)
    # reduce l*phi_j modulo 2*pi exactly in integers: the naive product l*phi_j
    # carries phase roundoff that grows with l and never refines away
    jl = (idx.l * j) % nphi
    ang_phase = (dtype(2.0) * pi_val / dtype(nphi)) * jl.astype(dtype)
    ang = np.cos(ang_phase) if idx.parity == "cos" else np.sin(ang_phase)
    total = dtype(0.0)
    abs_total = dtype(0.0)
    chunk = max(1, 2_000_000 // nphi)
    for i0 in range(0, nr, chunk):
        rr = r[i0 : i0 + chunk][:, None]
        ww = wr[i0 : i0 + chunk]
        arg = dtype(2.0) * rr * rr / wn2
        lag = generalized_laguerre(idx.p, idx.l, arg)
        if idx.l:
            radial = np.exp(idx.l * np.log(np.sqrt(dtype(2.0)) * rr / wn) - rr * rr / wn2) * lag
        else:
            radial = np.exp(-rr * rr / wn2) * lag
        u = radial * ang[None, :]
        x = rr * cphi[None, :]
        y = rr * sphi[None, :]
        v = (dtype(2.0) / (pi_val * w02)) * np.exp(-dtype(2.0) * ((x - d) ** 2 + y * y) / w02)
        f = u * v
        total += (f.sum(axis=1) * dphi * rr[:, 0] * ww).sum()
        abs_total += (np.abs(f).sum(axis=1) * dphi * rr[:, 0] * np.abs(ww)).sum()
    return total, float(abs_total)


def overlap_quadrature_oracle(
    mode: ModeData, beam: BeamSpec, rel_tol: float = 1e-10
) -> OverlapWeight:
    """Direct 2D integration of the overlap on a disk (the validation oracle).

    Gauss-Legendre radially, trapezoid angularly, refined until two successive
    refinements agree to rel_tol; escalates from double to longdouble when the
    double-precision roundoff floor prevents convergence.  Raises
    QuadratureConvergenceError when even that floor is too high, which happens
    for mode/beam combinations whose integrand cancels more deeply than
    ~17 significant digits.
    """
    check_beam_on_mirror(beam, mode.geometry)
    idx = mode.index
    radius = min(
        mode.geometry.diameter / 2.0,
        beam.offset + 8.0 * beam.waist + 4.0 * mode.waist * math.sqrt(idx.shell + 1),
    )
    # angular harmonic content: mode's l plus the displaced beam's sidebands
    k_bound = idx.l + 4.0 * radius * beam.offset / beam.waist**2
    nphi = 256
    while nphi < 3 * k_bound and nphi < 4096:
        nphi *= 2

    stages = [
        (np.float64, 512),
        (np.float64, 1024),
        (np.float64, 2048),
        (np.float64, 4096),
        (np.longdouble, 2048),
        (np.longdouble, 4096),
    ]
    prev = None
    prev_dtype = None
    val = abs_val = None
    last_delta = None
    for dtype, nr in stages:
        eps = 2.2e-16 if dtype is np.float64 else 1.1e-19
        if abs_val is not None and dtype is np.float64 and prev_dtype is np.float64:
            floor = 30.0 * eps * abs_val
            # further double-precision refinements cannot certify rel_tol once
            # the requested band sits below the roundoff floor of sum|f|
            if rel_tol * abs(val) < floor and abs(val) > floor:
                prev = None
                prev_dtype = None
                continue
        val, abs_val = _disk_integral(mode, beam, radius, nr, nphi, dtype)
        floor = 30.0 * eps * abs_val
        if prev is not None:
            last_delta = float(abs(val - prev))  # delta taken before rounding to double
            if last_delta <= rel_tol * abs(float(val)):
                return OverlapWeight(index=idx, value=float(val))
            if abs(float(val)) <= floor and last_delta <= floor:
                # the overlap is zero to within the achievable resolution
                return OverlapWeight(index=idx, value=float(val))
        prev = val
        prev_dtype = dtype
    raise QuadratureConvergenceError(
        f"overlap quadrature for {idx} stalled: the integrand cancels too deeply "
        f"for longdouble (value ~ {float(val):.3e}, integral of |f| ~ {abs_val:.3e})",
        last_value=float(val),
        last_delta=None if last_delta is None else last_delta / max(abs(float(val)), 1e-300),
    )
