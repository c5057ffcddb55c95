"""Independent oracles for the runtime numerics; tests import this module,
the package and its command line never do.

The per-mode layer (mode indices, effective masses, eigenfrequencies, centered
overlaps and single-mode susceptibilities, and the local thickness profile),
per-mode off-axis overlaps (an exact integer Hermite-product expansion,
contracted in adaptive multiprecision with mpmath), direct quadratures of the
overlap and of the effective mass over the mirror face, and one-family views
of the shell traces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import mpmath as mp
import numpy as np

from .geometry import PlanoConvexGeometry
from .modes import acoustic_waist_sq, fundamental_frequency
from .overlap import BeamSpec, ShellTraceTable, check_beam_on_mirror
from .susceptibility import LossAngle, _loss_at

Parity = Literal["cos", "sin"]


# ---------------------------------------------------------------------------
# The per-mode layer
#
# Mode (n, p, l) has the surface displacement at z = 0
#
#     u(r, phi) = exp(-r^2/w_n^2) (sqrt(2) r/w_n)^l L_p^l(2 r^2/w_n^2) ang(l phi),
#
# ang = cos or sin, and lies in the degenerate shell 2p + l of family n.
# ---------------------------------------------------------------------------


def thickness_profile(geometry: PlanoConvexGeometry, r: float) -> float:
    """Local substrate thickness at radial position r on the mirror face.

    h(r) = sqrt(R^2 - r^2) - (R - h0); h(0) = h0 and h(D/2) = 0 at the sharp edge.
    """
    if not 0 <= r <= geometry.diameter / 2.0 * (1.0 + 1e-12):
        raise ValueError(f"radial position {r} outside the mirror face [0, {geometry.diameter / 2}]")
    rc = geometry.curvature_radius
    return math.sqrt(max(rc * rc - r * r, 0.0)) - (rc - geometry.thickness)


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


def eigenfrequency_sq(geometry: PlanoConvexGeometry, n: int, shell: int) -> float:
    """Omega^2 for all modes of longitudinal index n in transverse shell 2p+l;
    written out here as the reference for modes.shell_frequency_sq."""
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


@dataclass(frozen=True)
class OverlapWeight:
    index: ModeIndex
    value: float


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


def mode_susceptibility(mode: ModeData, omega: float, loss_angle: LossAngle) -> complex:
    """Lorentzian response 1/(M (Omega_n^2 - omega^2 - i Omega_n^2 phi))."""
    if omega < 0:
        raise ValueError("frequency must be non-negative")
    # one lossless mode (phi = 0) is singular only at its own resonance
    phi = 0.0 if loss_angle == 0 else _loss_at(loss_angle, omega)
    om_n2 = mode.frequency * mode.frequency
    den = mode.effective_mass * complex(om_n2 - omega * omega, -om_n2 * phi)
    return 1.0 / den


class QuadratureConvergenceError(RuntimeError):
    """An adaptive quadrature stalled before reaching the requested tolerance."""

    def __init__(self, message, last_value=None, last_delta=None):
        super().__init__(message)
        self.last_value = last_value
        self.last_delta = last_delta


class RecurrenceOverflowError(FloatingPointError):
    """An intermediate term of a polynomial recurrence left the representable range."""


def generalized_laguerre(p: int, l: int, x):
    """L_p^l(x) by the three-term recurrence in p; x may be a scalar or ndarray."""
    x = np.asarray(x, dtype=x.dtype if isinstance(x, np.ndarray) else float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for k in range(p):
        prev, cur = cur, ((2 * k + l + 1 - x) * cur - (k + l) * prev) / (k + 1)
    return cur


def surface_displacement(geometry: PlanoConvexGeometry, index: ModeIndex, r, phi):
    """Mode displacement on the mirror face (z=0), normalized to 1 on axis for l=0.

    Accepts scalars or broadcastable arrays for (r, phi); raises for points
    outside the mirror.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(r < 0) or np.any(r > geometry.diameter / 2.0 * (1.0 + 1e-12)):
        raise ValueError("radial position outside the mirror face")
    wn2 = acoustic_waist_sq(geometry, index.n)
    wn = math.sqrt(wn2)
    radial = np.exp(-(r * r) / wn2) * generalized_laguerre(index.p, index.l, 2.0 * r * r / wn2)
    if index.l:
        radial = radial * (np.sqrt(2.0) * r / wn) ** index.l
    angular = np.cos(index.l * phi) if index.parity == "cos" else np.sin(index.l * phi)
    out = radial * angular
    return float(out) if out.ndim == 0 else out


def effective_mass_oracle(
    geometry: PlanoConvexGeometry,
    index: ModeIndex,
    rel_tol: float = 1e-8,
    max_refinements: int = 8,
) -> float:
    """Effective mass by direct quadrature of the paraxial kinetic-energy norm.

    rho (h0/2) * integral of u(r, phi, z=0)^2 over the mirror face, evaluated
    on a Gauss-Legendre (radial) x trapezoid (angular) grid that is refined
    until two successive refinements agree to rel_tol.  Independent of the
    closed forms in effective_mass, so it can arbitrate them.
    """
    rho = geometry.material.density
    h0 = geometry.thickness
    rmax = geometry.diameter / 2.0
    nr, nphi = 128, 64
    prev = None
    for _ in range(max_refinements):
        nodes, weights = np.polynomial.legendre.leggauss(nr)
        r = 0.5 * rmax * (nodes + 1.0)
        wr = 0.5 * rmax * weights
        phi = np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False)
        u = surface_displacement(geometry, index, r[:, None], phi[None, :])
        radial_sum = (u * u).sum(axis=1) * (2.0 * math.pi / nphi)
        val = rho * (h0 / 2.0) * float((radial_sum * r * wr).sum())
        if prev is not None and abs(val - prev) <= rel_tol * abs(val):
            return val
        prev = val
        nr *= 2
        nphi *= 2
    raise QuadratureConvergenceError(
        f"effective-mass quadrature stalled for {index}",
        last_value=val,
        last_delta=abs(val - prev) / abs(val),
    )


def beam_profile(beam: BeamSpec, x, y):
    """Normalized intensity profile (1/m^2); integrates to 1 over the plane."""
    w2 = beam.waist * beam.waist
    return (2.0 / (math.pi * w2)) * np.exp(
        -2.0 * ((np.asarray(x, dtype=float) - beam.offset) ** 2 + np.asarray(y, dtype=float) ** 2) / w2
    )


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
    """Exact integer expansion tables for mode (p, l); see the comment above.

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
# One-family views of the shell traces (see overlap.ShellTraceTable)
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


def shell_overlap_sq_over_mass(
    geometry: PlanoConvexGeometry, beam: BeamSpec, n: int, max_shell: int
) -> np.ndarray:
    """For shells s = 0..max_shell: sum over shell modes of overlap^2 / mass.

    Equals the per-mode Laguerre-Gauss sum exactly (same eigenspace, traced in
    the Cartesian basis).  Units kg^-1.
    """
    return ShellTraceTable(geometry, beam, range(n, n + 1)).traces(n, max_shell).copy()


def family_shell_sum(geometry: PlanoConvexGeometry, beam: BeamSpec, n: int, omega: float = 0.0,
                     loss_angle: float = 0.0) -> complex | float:
    """sum_s T_s / (Omega_s^2 (1 - i phi) - omega^2) of family n (m/N), the
    shell traces' whole sum, as an mpmath quadrature of the t-form

        int_0^1 t^(a_w - 1) G(t) dt / (Omega_M^2 curv n (1 - i phi)),
        a_w = a - omega^2 / (Omega_M^2 curv n (1 - i phi)),   a = 1 + n / curv,

    with G(t) = c0 exp(-x (1 - t) / (1 + beta t)) / (1 - beta^2 t^2) the
    traces' generating function (Mehler's formula).  It holds while Re a_w > 0,
    below the family's base resonance.  At omega = 0 the loss angle drops out
    and the sum is a float; otherwise it is complex.  The family's parameters
    are formed here in 30 digits from the geometry and beam.  Raises
    QuadratureConvergenceError if the quadrature's own error estimate exceeds
    1e-15 of the value.
    """
    with mp.workdps(30):
        h, radius = mp.mpf(geometry.thickness), mp.mpf(geometry.curvature_radius)
        wn2 = 2 * h / (n * mp.pi) * mp.sqrt(radius * h)
        w02, d = mp.mpf(beam.waist) ** 2, mp.mpf(beam.offset)
        beta = 1 - 1 / (mp.mpf(0.5) + wn2 / w02)
        x = 4 * d * d / (w02 + 2 * wn2)
        c0 = 16 * wn2 / (mp.pi * mp.mpf(geometry.material.density) * h * (w02 + 2 * wn2) ** 2)
        curv = 2 / mp.pi * mp.sqrt(h / radius)
        om_m2 = (mp.pi * mp.mpf(geometry.material.sound_velocity) / h) ** 2
        loss = 1 - 1j * mp.mpf(loss_angle) if omega else mp.mpf(1)
        a1 = n / curv - mp.mpf(omega) ** 2 / (om_m2 * curv * n * loss)
        if mp.re(a1) <= -1:
            raise ValueError(f"family {n} at omega={omega} is not below its base resonance")

        def f(t):
            return mp.exp(a1 * mp.log(t) - x * (1 - t) / (1 + beta * t)) / (1 - beta * beta * t * t)

        # the integrand lives within about 1/(a - 1 + x) of t = 1, and a narrow
        # beam's pole at t = 1/beta lies 1 - beta beyond it
        scales = [4**k / (mp.re(a1) + x) for k in range(-2, 12)] + [(1 - beta) * 4**k for k in range(4)]
        points = sorted({mp.mpf(0), mp.mpf(1), *(1 - s for s in scales if s < 1)})
        value, error = mp.quad(f, points, error=True)
        if error > mp.mpf("1e-15") * abs(value):
            raise QuadratureConvergenceError(
                f"family {n}: quadrature error {mp.nstr(error, 3)} of {mp.nstr(value, 10)}",
                last_value=complex(value),
            )
        total = c0 * value / (om_m2 * curv * n * loss)
        return complex(total) if omega else float(total)


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
