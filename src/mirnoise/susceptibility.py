"""Effective susceptibility of the beam-averaged surface displacement.

The readout couples to every acoustic mode through its overlap with the beam;
each mode responds as a Lorentzian oscillator with structural damping.  The
effective susceptibility is the overlap-squared weighted sum of the per-mode
susceptibilities; at zero frequency the loss angle drops out and the sum is
real and positive.  The fluctuation-dissipation theorem then fixes the thermal
force and displacement noise spectra (one-sided, in angular frequency).
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import BudgetExceededError
from .geometry import PlanoConvexGeometry, check_loss_angle
from .modes import acoustic_waist_sq, fundamental_frequency, shell_frequency_sq, spectrum_constants
from .overlap import BeamSpec, ShellTraceTable, check_beam_on_mirror, mehler_parameters

#: Boltzmann constant, J/K (exact SI value)
BOLTZMANN = 1.380649e-23

LossAngle = Union[float, Callable[[float], float]]

#: an offset beam's family stops at this many shells, converged or not
SHELL_CAP = 60_000


def _loss_at(loss_angle: LossAngle, omega: float) -> float:
    phi = loss_angle(omega) if callable(loss_angle) else float(loss_angle)
    check_loss_angle(phi, f" at omega={omega}")
    return phi


def check_count(name: str, value) -> None:
    """Enforce an integer count of at least 1; numpy integers are integers."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be an integer count of at least 1, got {value}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls how the modal sum is truncated.

    The model is the infinite sum over every mode; these settings only say
    where the computation stops.  Where a sum of blocks or shells is cut, its
    bound divides what is left by the smallest denominator left, exact at
    every loss angle (_least_denominator).  The families past the last one
    summed, N, are summed in closed form (_n_tail).

    epsilon    relative tail tolerance for the reported susceptibility (for
               the integrated off-axis families: for their error estimate;
               off axis near a resonance: for the shells' sum-rule bound);
               the family loop stops at the first N whose n-tail error is at
               most epsilon / 2 of |value|
    max_modes  hard budget of explicitly summed terms; exceeding it raises
               BudgetExceededError (off axis only the families summed by
               shells near a resonance sum any)
    n_max      ceiling on N: a sum that reaches it stops there, and its
               n-tail past n_max counts in tail_bound whatever its error
    """

    epsilon: float = 1e-4
    max_modes: int = 1_000_000
    n_max: int = 200

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        check_count("max_modes", self.max_modes)
        check_count("n_max", self.n_max)


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SusceptibilityResult:
    """Modal sum outcome (m/N) with its truncation diagnostics.

    value is the sum over the families n <= N, whose values per_n holds (N
    entries), plus n_tail, the midpoint of the bracket on the families n > N
    (_n_tail).  tail_bound is relative to |value| and covers both: the
    families' own tails and n_tail_bound, the n-tail's error, also relative
    to |value|.  For centered beams the families' tails are rigorous
    geometric bounds.  Off-center the families summed by shells near a
    resonance contribute a rigorous bound too, from the sum rule of their
    traces; the integrated families contribute the quadrature's error
    estimate (plus, at omega > 0, the Taylor series' bound).  The n-tail's
    bracket is an observation, not a theorem, so every result that carries
    it sets tail_is_estimate.  modes_used counts the terms or shells summed
    explicitly, so it is 0 off axis at omega = 0.

    converged means tail_bound <= epsilon / (1 + epsilon), that is, the
    absolute tail is at most epsilon (|value| - tail), the smallest |chi|
    the tail allows: where the tail holds, |value - chi| <= epsilon |chi|,
    also where the sum passes near 0 and |value| exceeds |chi|.
    """

    value: complex
    frequency: float
    modes_used: int
    tail_bound: float
    tail_is_estimate: bool
    converged: bool
    per_n: tuple
    n_tail: complex = 0j
    n_tail_bound: float = 0.0


@dataclass(frozen=True)
class SpectrumPoint:
    """One-sided spectra at angular frequency omega.

    force_spectrum          S_T  (N^2 s)
    displacement_spectrum   S_u  (m^2 s), exact branch
    displacement_spectrum_lowfreq  low-frequency approximation 2 k_B T (phi/omega) chi0
    """

    omega: float
    temperature: float
    force_spectrum: float
    displacement_spectrum: float
    displacement_spectrum_lowfreq: float


@dataclass(frozen=True)
class OpticalMassApprox:
    """Single-oscillator stand-in: the illuminated substrate column's mass."""

    optical_mass: float
    fundamental_frequency: float
    chi_approx: float


def _result(value, omega, modes_used, tail_abs, tail_is_estimate, per_n, policy, n_tail=0.0, n_tail_abs=0.0):
    """The result of a modal sum; tail_abs = inf marks a sum cut short.  value
    and tail_abs include the n-tail's midpoint n_tail and its error
    n_tail_abs."""
    value = complex(value)
    scale = abs(value) if value else 1.0
    tail_rel = tail_abs / scale
    # tail_abs <= epsilon (|value| - tail_abs): the error is then at most
    # epsilon times the smallest |chi| that the tail allows
    return SusceptibilityResult(
        value=value,
        frequency=omega,
        modes_used=modes_used,
        tail_bound=tail_rel,
        tail_is_estimate=tail_is_estimate,
        converged=tail_rel <= policy.epsilon / (1.0 + policy.epsilon),
        per_n=tuple(per_n),
        n_tail=complex(n_tail),
        n_tail_bound=n_tail_abs / scale,
    )


#: a modal sum takes its families in runs: this many first, then each run
#: twice as long as the one before, up to the ceiling n_max
_FIRST_RUN = 32
#: the centered walk's first run: a run costs it more than its families do,
#: and the stops of 1-3 cm beams lie past family 32
_CENTERED_FIRST_RUN = 64


def _family_runs(cap, first=_FIRST_RUN):
    """(lo, hi): the runs of families lo + 1..hi up to family cap, the first
    of them first long."""
    lo, size = 0, first
    while lo < cap:
        yield lo, min(lo + size, cap)
        lo, size = lo + size, 2 * size


def _exp_e1(z):
    """e^z E1(z) for z > 0 (DLMF 6.2): below z = 1 from the power series of
    E1, else from its continued fraction by the modified Lentz method."""
    if z < 1.0:
        # E1(z) = -gamma - log z - sum_{k >= 1} (-z)^k / (k k!)
        term, series, k = 1.0, 0.0, 0
        while abs(term) > 2.0**-60:
            k += 1
            term *= -z / k
            series += term / k
        return math.exp(z) * (-0.5772156649015329 - math.log(z) - series)
    # e^z E1(z) = 1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...)))
    b, c, d = z + 1.0, 1e300, 1.0 / (z + 1.0)
    value = d
    for i in range(1, 10_000):
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        value *= c * d
        if abs(c * d - 1.0) <= 2.0**-53:
            break
    return value


#: nodes of the Gauss-Laguerre rule for the n-tail's constant off axis
_LAGUERRE_NODES = 40


@functools.cache
def _gauss_laguerre():
    """Nodes and weights of the _LAGUERRE_NODES-point Gauss-Laguerre rule;
    numpy.polynomial is imported on first use only."""
    from numpy.polynomial.laguerre import laggauss

    return laggauss(_LAGUERRE_NODES)


def _n_tail_constant(geometry, waist, offset):
    """K(d) = lim n^2 chi_n(0) over the families n of a beam of the given
    waist at offset d:

        K(d) = K0 int_0^inf e^-t (z / (z + t)) exp(-(t z / (z + t)) d^2 / (h R)) dt,

    K0 = 2 / (pi rho h w0^2 Omega_M^2), z = 4 h R / w0^2.  As n grows, w_n -> 0
    and the family's sum over its shells becomes this Laplace integral.
    Centered it is K0 z e^z E1(z); off axis the Gauss-Laguerre rule takes it.
    """
    h, radius, w02 = geometry.thickness, geometry.curvature_radius, waist * waist
    k0 = 2.0 / (math.pi * geometry.material.density * h * w02 * spectrum_constants(geometry)[0])
    z = 4.0 * h * radius / w02
    if offset == 0.0:
        return k0 * z * _exp_e1(z)
    nodes, weights = _gauss_laguerre()
    s = z / (z + nodes)
    return k0 * np.add.reduce(weights * s * np.exp(-(nodes * s) * (offset * offset / (h * radius)))).item()


#: terms of each sum_{m > N} 1/m^k summed before the asymptotic series takes
#: the rest; the first term that the series leaves out is then below 1e-16 of
#: the sum
_POWER_TERMS = 16


@functools.cache
def _power_table(size):
    """sum_{m > N} 1/m^k for k = 2, 3, 4, that is psi'(N + 1), -psi''(N + 1) / 2
    and psi'''(N + 1) / 6 (DLMF 5.15), for N = 0..size - 1: _POWER_TERMS
    terms, then the asymptotic series of the polygammas at y = N + 1 +
    _POWER_TERMS.  Each row is summed on its own, so an entry does not depend
    on size."""
    n = np.arange(float(size))
    inv = 1.0 / (n[:, None] + np.arange(1.0, _POWER_TERMS + 1.0))
    sq = inv * inv
    u = 1.0 / (n + (1.0 + _POWER_TERMS))
    u2 = u * u
    psi1 = u + u2 * (0.5 + u * (1.0 / 6.0 + u2 * (-1.0 / 30.0 + u2 * (1.0 / 42.0 + u2 * (-1.0 / 30.0 + u2 * 5.0 / 66.0)))))
    psi2 = u2 * (0.5 + u * (0.5 + u * (0.25 + u2 * (-1.0 / 12.0 + u2 * (1.0 / 12.0 + u2 * (-0.15 + u2 * 5.0 / 12.0))))))
    psi3 = u2 * u * (1.0 / 3.0 + u * (0.5 + u * (1.0 / 3.0 + u2 * (-1.0 / 6.0 + u2 * (2.0 / 9.0 + u2 * (-0.5 + u2 * 5.0 / 3.0))))))
    return (np.add.reduce(sq, axis=1) + psi1, np.add.reduce(sq * inv, axis=1) + psi2,
            np.add.reduce(sq * sq, axis=1) + psi3)


def _power_tails(n):
    """_power_table's three sums at the N of n, a run of consecutive families."""
    size = 256
    while size <= n[-1]:
        size *= 2
    lo, hi = int(n[0]), int(n[-1]) + 1
    return tuple(column[lo:hi] for column in _power_table(size))


def _n_tail(n, static, heads, k_inf, omega2, phi, epsilon):
    """The families n > N past each candidate stop N of the float array n:
    the midpoint of the bracket on their sum, its error, and whether that
    error is at most epsilon / 2 of |heads + midpoint|.  static holds family
    N's omega = 0 value chi_N(0), heads the row's sums over the families
    <= N, omega2 = (omega / Omega_M)^2 and phi the loss angle at omega.

    n^2 chi_n(0) tends to K = k_inf (_n_tail_constant).  With K1 = N (N^2
    chi_N(0) - K), the omega = 0 sum past N lies between

        upper = K psi'(N + 1)   and   lower = upper + K1 (-psi''(N + 1) / 2).

    The bracket is an observation, not a theorem: n^2 chi_n(0) stays below
    K, and the lower end extrapolates family N's deficit as K1 / n^3, which
    falls off more slowly than the true one.  Its midpoint is the n-tail and
    its half-width the error.  At omega > 0 the n-tail is the midpoint
    divided by c = 1 - i phi: each shell of a family n > N resonates above
    n Omega_M > omega, so the family's sum differs from its omega = 0 sum
    over c by at most chi_n(0) omega2 / (n^2 - omega2) / |c|, and with
    chi_n(0) <= K / n^2 that is at most K omega2 (N + 1)^2 / ((N + 1)^2 -
    omega2) / n^4 / |c|.  The error adds that summed over n > N, with
    psi'''(N + 1) / 6 for the sum of 1/n^4, and is inf where N + 1 <=
    omega / Omega_M.
    """
    s2, s3, s4 = _power_tails(n)
    upper = k_inf * s2
    slope = n * (n * n * static - k_inf) * s3
    mid, err = upper + 0.5 * slope, 0.5 * np.abs(slope)
    if omega2 > 0.0:
        # inf where N + 1 <= omega / Omega_M: a family past N may resonate below omega
        room = (n + 1.0) ** 2 - omega2
        shift = np.divide(k_inf * omega2 * (n + 1.0) ** 2 * s4, room, out=np.full(len(n), math.inf),
                          where=room > 0.0)
        err = (err + shift) / math.hypot(1.0, phi)
        cos2 = 1.0 / (1.0 + phi * phi)
        mid = mid * complex(cos2, cos2 * phi)  # mid / c
    value = heads + mid
    return mid, err, err <= 0.5 * epsilon * np.hypot(value.real, value.imag)


class _Families:
    """A modal sum's families in ascending n, taken in runs up to the first
    N whose n-tail meets its share of epsilon (_n_tail), or up to n_max,
    where the sum stops whatever the n-tail's error."""

    def __init__(self, k_inf, omega, phi, om_m2, policy):
        self._rule = k_inf, omega * omega / om_m2, phi, policy.epsilon  # _n_tail's
        self._n_max = policy.n_max
        self.sums, self.tails, self.count, self.head = [], [], 0, 0.0
        self.stop = None  # (value, n-tail, its error) once stopped

    def take(self, sums, statics, tails):
        """Take a run of families: their sums, omega = 0 values statics and
        tails.  Returns the index in the run of the family where the sum
        stops, or None: families past it are not taken."""
        heads = np.cumsum(np.concatenate(([self.head], sums)))[1:]
        n = np.arange(self.count + 1.0, self.count + len(sums) + 1.0)
        mid, err, met = _n_tail(n, statics, heads, *self._rule)
        if met.any():
            i = int(met.argmax())
        elif self.count + len(sums) >= self._n_max:
            i = len(sums) - 1  # the ceiling
        else:
            i = None
        keep = len(sums) if i is None else i + 1
        self.sums.append(sums[:keep])
        self.tails.append(tails[:keep])
        self.count, self.head = self.count + keep, heads[keep - 1]
        if i is not None:
            self.stop = heads[i] + mid[i], mid[i], err[i].item()
        return i

    def per_n(self):
        return np.concatenate(self.sums).tolist() if self.sums else []

    def result(self, omega, modes_used, policy):
        """The result at the stop: the families' tails summed in order of n,
        plus the n-tail's error."""
        value, mid, err = self.stop
        tail = np.cumsum(np.concatenate(self.tails))[-1].item()
        return _result(value, omega, modes_used, tail + err, True, self.per_n(), policy, mid, err)


def _least_denominator(om_m2, curv, n, omega, phi):
    """(s_least, least) of the families n at omega, elementwise over arrays
    that broadcast: the smallest |Omega_s^2 (1 - i phi) - omega^2| over the
    shells s >= s0 is least where s0 <= s_least, else that of shell s0.

    |den|^2 = (Omega_s^2 - omega^2)^2 + (phi Omega_s^2)^2 is a quadratic in
    Omega_s^2, symmetric about its minimum at omega^2 / (1 + phi^2), and
    Omega_s^2 is linear in s: the minimum sits at a real shell s*, and over
    the shells at floor(s*) or ceil(s*) (both clamped to shell 0).  s_least
    is floor(s*); np.hypot is Python's complex abs, bit for bit.
    """
    om2 = omega * omega
    s_star = (om2 / ((1.0 + phi * phi) * om_m2) - n * n) / (curv * n) - 1.0
    s_least = np.floor(s_star)
    w2 = shell_frequency_sq(om_m2, curv, n, np.maximum([s_least, np.ceil(s_star)], 0.0))
    return s_least, np.hypot(w2 - om2, -w2 * phi).min(axis=0)


def _centered_block(om_m2, curv, n, mass, ovl2_head, q2, p0, count, omega, phi):
    """Sums over p0 <= p < p0 + count of the terms of the families n at omega
    and at 0, with ovl2_head = c^2 q^(2 p0); per-family values are scalars
    (one family) or columns (a row per family)."""
    p = np.arange(p0, p0 + count, dtype=float)
    ovl2 = ovl2_head * q2 ** (p - p0)
    om2 = shell_frequency_sq(om_m2, curv, n, 2.0 * p)
    static = (ovl2 / (mass * om2)).sum(axis=-1)
    if omega == 0.0:
        return static, static
    return (ovl2 / (mass * (om2 - omega * omega - 1j * om2 * phi))).sum(axis=-1), static


#: families summed alone that the centered walk holds back before it takes them
_PENDING_MAX = 8


def _take_pending(families, pending, sums=(), statics=(), tails=(), modes=()):
    """families.take of the families summed alone in pending, then of a
    vector step's; the modes used up to the family where the sum stops, or
    None."""
    if pending:
        alone = list(zip(*pending))
        sums, statics, tails = (np.concatenate((a, b)) for a, b in zip(alone, (sums, statics, tails)))
        modes = [*alone[3], *modes]
    stop = families.take(sums, statics, tails)
    return None if stop is None else int(modes[stop])


@np.errstate(divide="ignore")  # the tail of a degenerate beam is inf
def _chi_centered(geometry, beam, omega, phi, policy):
    """Modal sum for a centered beam: l = 0 cosine modes only, closed-form
    overlaps, rigorous geometric tail bound per longitudinal family.

    Blocks of p double from 64 to 8192 terms until a family's tail meets its
    share of the tolerance.  The families come in runs (_family_runs), and
    the first block of every family of a run is one 2D array, a row per
    family; a walk in ascending n then takes the families whose first block
    suffices in one vector step, up to the next one that needs a further
    block, which it sums alone before walking on.  Each family also sums its
    terms at omega = 0, for the n-tail; the walk stops at the family where
    the n-tail meets its share (_Families), to which it hands the families
    summed alone a few at a time (_take_pending).
    """
    om_m2, curv = spectrum_constants(geometry)
    w02 = beam.waist * beam.waist
    first = 64
    families = _Families(_n_tail_constant(geometry, beam.waist, 0.0), omega, phi, om_m2, policy)
    total, used = 0.0 if omega == 0.0 else 0.0 + 0.0j, 0
    # a family past max_modes // first + 1 cannot be reached within the budget
    for lo, hi in _family_runs(min(policy.n_max, policy.max_modes // first + 1), _CENTERED_FIRST_RUN):
        n = np.arange(lo + 1.0, hi + 1.0)
        wn2 = acoustic_waist_sq(geometry, n)
        mass = (math.pi / 4.0) * geometry.material.density * geometry.thickness * wn2
        c = 2.0 * wn2 / (2.0 * wn2 + w02)
        q = (2.0 * wn2 - w02) / (2.0 * wn2 + w02)
        q2 = q * q
        head = c * c  # c^2 q^(2 p0) at the head of each family's next block
        sums, statics = _centered_block(om_m2, curv, n[:, None], mass[:, None], head[:, None], q2[:, None],
                                        0, first, omega, phi)
        # Python's scalar pow: numpy's vector one can differ from it in the last bit
        head *= [q2_n**first for q2_n in q2.tolist()]
        # no denominator past a block falls below the smallest one left: at omega = 0
        # the next shell's Omega^2, else _least_denominator's rule
        den = shell_frequency_sq(om_m2, curv, n, 2.0 * first)
        if omega > 0.0:
            s_least, least = _least_denominator(om_m2, curv, n, omega, phi)
            den = np.where(2 * first <= s_least, least, np.hypot(den - omega * omega, -den * phi))
        # the overlaps decay as q^(2p); a degenerate beam (w0 -> 0, q2 = 1) has an infinite tail
        tails = head / ((1.0 - q2) * mass * den)

        # families summed alone wait in pending (sum, omega = 0 sum, tail, modes up to
        # them) for the next vector step, the run's end or _PENDING_MAX of them: a
        # take per family would cost more than its blocks
        pending, k, walk = [], 0, True
        while k < len(n):
            j = 0
            if walk:
                # running totals in ascending n from family k on: every family up to
                # the first whose first block falls short is done in one vector step
                # (hypot is Python's complex abs; numpy's can differ in the last bit)
                totals = np.cumsum(np.concatenate(([total], sums[k:])))[1:]
                modes = used + first * np.arange(1, len(totals) + 1)
                target = policy.epsilon * np.hypot(totals.real, totals.imag) / (2.0 * policy.n_max)
                done = (modes <= policy.max_modes) & (tails[k:] <= target)
                j = len(done) if done.all() else int(np.argmin(done))
            if j or len(pending) >= _PENDING_MAX:
                stop = _take_pending(families, pending, sums[k : k + j], statics[k : k + j], tails[k : k + j],
                                     modes[:j] if j else ())
                if stop is not None:
                    return families.result(omega, stop, policy)
                pending = []
                if j:
                    total, used, k = totals[j - 1].item(), int(modes[j - 1]), k + j
            if k == len(n):
                break
            # that family alone: further blocks until its tail meets its target,
            # in Python floats but for q2, whose 1 - q2 may be 0 (an infinite tail)
            s_n, static_n, p, tail_n = sums[k].item(), statics[k].item(), first, tails[k]
            n_k, mass_k, q2_k = n[k].item(), mass[k].item(), q2[k]
            while True:
                if used + p > policy.max_modes:
                    if pending:  # the sum may stop at a family still pending
                        stop = _take_pending(families, pending)
                        if stop is not None:
                            return families.result(omega, stop, policy)
                    raise BudgetExceededError(
                        f"mode budget {policy.max_modes} exhausted at n={lo + k + 1}, p={p}",
                        partial=_result(total + s_n, omega, used + p, math.inf, False, families.per_n(), policy),
                    )
                if tail_n <= policy.epsilon * abs(total + s_n) / (2.0 * policy.n_max):
                    break
                # blocks of 64, 128, ... terms: after p = 64 (2^r - 1) the next is p + 64 long
                count = min(p + 64, 8192)
                block, block_static = _centered_block(om_m2, curv, n_k, mass_k, head[k].item(), q2_k, p, count,
                                                      omega, phi)
                s_n += block.item()
                static_n += block_static.item()
                head[k] *= q2_k.item() ** count
                p += count
                den = shell_frequency_sq(om_m2, curv, n_k, 2.0 * p)
                if omega > 0.0:
                    den = least[k].item() if 2 * p <= s_least[k] else abs(complex(den - omega * omega, -den * phi))
                tail_n = head[k].item() / ((1.0 - q2_k) * mass_k * den)
            total, used, k = total + s_n, used + p, k + 1
            pending.append((s_n, static_n, float(tail_n), used))
            # walk on in vector steps once a family needs no further block; in a
            # narrow beam every family does, and each step would stop at once
            walk = p == first
        if pending:
            stop = _take_pending(families, pending)
            if stop is not None:
                return families.result(omega, stop, policy)
    # the last run ends at n_max, where _Families stops, or runs out of budget
    raise AssertionError("unreachable: the family loop ended without a stop")


#: a shelled family's sum-rule remainder G(1) - sum_{s<=S} T_s is floored at
#: this fraction of G(1), or at (smax + 1) 2^-53 of it where that is larger:
#: what a sequential sum of a level's smax + 1 traces can lose to rounding
_SUM_RULE_FLOOR = 1e-12


def _offaxis_family(table, families, om_m2, curv, g1, omegas, phi, totals, policy):
    """Family n = families[0]'s (kept sum, tail bound, shell count) for each
    row of a frequency grid: its omegas, loss angles phi and running totals
    over the lower families; g1 = G(1) is the sum of all its shell traces.
    families are n and the higher families still to be summed by shells, the
    columns that the table keeps when it grows.

    The traces are non-negative, so a cut after shell S drops at most

        (G(1) - sum_{s<=S} T_s) / min_{s>S} |Omega_s^2 (1 - i phi) - omega^2|,

    the remainder floored for rounding.  Levels take 64 shells, then twice as
    many; a row whose bound at its level's end meets its target keeps the
    shortest prefix whose bound does.  At SHELL_CAP the rest keep every shell,
    with the bound there as their tail.  Within a level the smallest
    denominator is a reversed running minimum of numpy's |den|; past it each
    row looks up _least_denominator's rule, taken once per call, or takes
    hypot at shell smax + 1 (numpy's complex abs can differ from hypot in the
    last bit).  The few numbers per row are Python scalars, which cost less
    than numpy calls on short rows.
    """
    n, found = families[0], [None] * len(totals)
    todo, smax, w2 = list(range(len(totals))), 64, omegas * omegas
    s_least, least = (a.tolist() for a in _least_denominator(om_m2, curv, n, omegas, phi))
    while todo:
        smax = min(smax, SHELL_CAP)
        traces = table.block(families, smax)[:, 0]
        om2_s = shell_frequency_sq(om_m2, curv, n, np.arange(smax + 1.0))
        den = om2_s - w2[:, None] - 1j * om2_s * phi[:, None]
        terms = traces / den
        sums = np.add.reduce(terms, axis=1).tolist()
        targets = [policy.epsilon * abs(totals[k] + s) / (2.0 * policy.n_max) for k, s in zip(todo, sums)]
        # the traces left after each shell, and the smallest |denominator| past the level
        left = np.maximum(g1 - np.cumsum(traces), max(_SUM_RULE_FLOOR, (smax + 1) * 2.0**-53) * g1)
        w2_next = shell_frequency_sq(om_m2, curv, n, smax + 1.0)
        beyond = [least[r] if smax + 1 <= s_least[r] else abs(complex(w2_next - om2, -w2_next * p))
                  for r, om2, p in zip(todo, w2.tolist(), phi.tolist())]
        left_end = left[-1].item()
        done = [smax >= SHELL_CAP or left_end / b <= t for b, t in zip(beyond, targets)]
        fin = [i for i, d in enumerate(done) if d]
        if fin:
            sel = slice(None) if len(fin) == len(todo) else fin
            # the smallest |denominator| after each shell, within the level and past it
            after = np.column_stack((np.abs(den[sel, 1:]), [beyond[i] for i in fin]))
            bounds = left / np.minimum.accumulate(after[:, ::-1], axis=1)[:, ::-1]
            firsts = (bounds <= np.array([[targets[i]] for i in fin])).argmax(axis=1).tolist()
            for i, row, bound, first in zip(fin, terms[sel], bounds, firsts):
                s = first if bound[first] <= targets[i] else smax
                # each kept prefix is summed on its own: padding would reorder it
                found[todo[i]] = np.add.reduce(row[: s + 1]).item(), bound[s].item(), s + 1
            if len(fin) == len(todo):
                break
            still = [i for i, d in enumerate(done) if not d]
            todo = [todo[i] for i in still]
            w2, phi = w2[still], phi[still]
        smax *= 2
    return found


#: Gauss-Legendre nodes per piece of an off-axis family integral
_GL_NODES = 64
#: equal pieces of the integration interval for the value, and for the
#: coarser rule whose difference from it is the error estimate
_GL_PIECES, _GL_CHECK_PIECES = 8, 4
#: families integrated at once: the work arrays are _FAMILY_CHUNK x _GL_NODES
_FAMILY_CHUNK = 256
#: at omega > 0 a family is integrated, as a Taylor series in omega^2, where
#: rho = |delta_omega| / a (about (omega / Omega_{n,0})^2) is at most this:
#: half way to its base resonance or less; closer to it, it is summed by shells
_TAYLOR_RHO = 0.25
#: a series stops at the first term where the bound on what it drops falls
#: to this fraction of the family's omega = 0 integral
_TAYLOR_TARGET = 2.0**-53


@functools.cache
def _gauss_legendre():
    """Nodes on (0, 1) and weights of the _GL_NODES-point Gauss-Legendre rule;
    numpy.polynomial is imported on first use only."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_GL_NODES)
    return (nodes + 1.0) / 2.0, weights / 2.0


def _family_integrals(beta, gap, x, a1, pieces, plain, moments):
    """int_0^1 e^(-x u) t^a1 (-log t)^k / k! du / (1 - beta + 2 beta u),
    t = (1 - u)/(1 + beta u), per beam (row of x), family (column of x) and
    k < moments, as a (beams x moments x families) array, by the
    Gauss-Legendre rule on `pieces` equal pieces; gap = 1 - beta, formed
    without cancellation (mehler_parameters).

    The variable is v = log(1 - beta + 2 beta u), so du / (1 - beta + 2 beta u)
    = dv / (2 beta): that takes out the near-pole at u = 0 of narrow beams
    (beta -> 1).  Where e^v - (1 - beta) would cancel (plain, |beta| < 1e-3)
    the variable is u itself.  The integrand is one exp of its log, which
    stays in range however large x and a1 are; row k takes each node's value
    times (-log t)^k, and is divided by k! at the end.  Only x depends on a
    beam's offset: each piece forms the offset-free node arrays once, and a
    beam then costs one multiply, subtract, clamp and exp, and the matmuls.
    Moment 0 is summed row by row (einsum), so a family's value does not
    depend on the families that share its pass: the zero-frequency sums take
    their families in runs.  BLAS's matrix-vector product can round a row
    differently by its place in the matrix, and serves the higher moments,
    which are taken in one pass over all families.
    """
    nodes, weights = _gauss_legendre()
    lo, hi, jac = ((np.zeros_like(beta), np.ones_like(beta), 1.0) if plain
                   else (np.log(gap), np.log1p(beta), 0.5 / beta))
    width = (hi - lo) / pieces
    # e^v = 1 - beta + 2 beta u: u = (e^v - (1 - beta)) jac, t = (1 + beta - e^v) / (beta (1 + beta + e^v))
    xj = (x * jac)[:, :, None]
    beta, gap, a1, lo, col = (a[:, None] for a in (beta, gap, a1, lo, width))
    total = np.zeros((len(xj), moments, len(beta)))
    # work arrays written in place: a fresh array per operation faults its pages in anew on each call
    var, work, log_t, f = np.empty((4, len(beta), _GL_NODES))
    # the log of the integrand is a1 log t - xj u, with u the offset-free part:
    # v itself if plain (which then divides by 1 - beta + 2 beta u, in work),
    # else e^v - (1 - beta), in work, after which var is free for a1 log t
    u, a1_log_t = (var, np.empty_like(var)) if plain else (work, var)
    for k in range(pieces):
        np.add(lo, np.multiply(col, k + nodes, out=var), out=var)
        if plain:
            np.add(1.0, np.multiply(beta, var, out=f), out=f)
            np.log(np.divide(np.subtract(1.0, var, out=log_t), f, out=log_t), out=log_t)
            np.add(gap, np.multiply(2.0 * beta, var, out=work), out=work)
        else:
            np.multiply(beta, np.add(1.0 + beta, np.exp(var, out=work), out=f), out=f)
            np.log(np.divide(np.subtract(1.0 + beta, work, out=log_t), f, out=log_t), out=log_t)
            np.subtract(work, gap, out=work)
        np.multiply(a1, log_t, out=a1_log_t)
        if moments > 1:
            np.negative(log_t, out=log_t)  # -log t, for the moment rows
        for xj_b, total_b in zip(xj, total):
            np.subtract(a1_log_t, np.multiply(xj_b, u, out=f), out=f)
            # the integrand is 1 at u = 0: below e^-700 it is nothing, and exp
            # would take its slow underflow path
            np.exp(np.maximum(f, -700.0, out=f), out=f)
            if plain:
                f /= work
            total_b[0] += np.einsum("fj,j->f", f, weights)
            for j in range(1, moments):
                f *= log_t  # times -log t
                total_b[j] += f @ weights
    for j in range(2, moments):
        total[:, j] /= float(math.factorial(j))
    return total * width * jac


def _offaxis_integrals(geometry, beams, om_m2, curv, n, moments):
    """Each beam's and family's shell-sum integrals (_family_integrals, a
    (beams x moments x families) array) by the rules on _GL_PIECES and on
    _GL_CHECK_PIECES pieces, and the scale c0 / (Omega_M^2 curv n) that makes
    moment 0 the family's omega = 0 sum.  The beams share one waist, so only
    x differs between them.

    With Omega_s^2 = Omega_M^2 curv n (s + a), a = 1 + n/curv, and
    1/(s + a)^(k+1) = int_0^1 t^(s+a-1) (-log t)^k / k! dt, the moment
    M_k = sum_s T_s / (s + a)^(k+1) is int_0^1 t^(a-1) G(t) (-log t)^k / k! dt,
    with G the generating function of the family's shell traces (see
    mehler_parameters); u = (1-t)/(1+beta t) turns it into c0 times

        int_0^1 e^(-x u) ((1-u)/(1+beta u))^(a-1) (-log t)^k / k! du / (1 - beta + 2 beta u).
    """
    params = [mehler_parameters(geometry, beam, n) for beam in beams]
    beta, _, _, c0, gap = params[0]
    x = np.array([p[2] for p in params])
    a1 = n / curv
    value, check = np.empty((2, len(beams), moments, len(n)))
    plain = np.abs(beta) < 1e-3
    for form in (True, False):
        families = np.flatnonzero(plain == form)
        for lo in range(0, len(families), _FAMILY_CHUNK):
            f = families[lo : lo + _FAMILY_CHUNK]
            for pieces, out in ((_GL_PIECES, value), (_GL_CHECK_PIECES, check)):
                out[:, :, f] = _family_integrals(beta[f], gap[f], x[:, f], a1[f], pieces, form, moments)
    return value, check, c0 / (om_m2 * curv * n)


def _taylor_sums(value, check, scale, shift, phi, rho, terms):
    """Real and imaginary family sums, and their error estimates, of the
    (omega, family) pairs (rows, columns) from the moments of
    _offaxis_integrals:

        sum_s T_s / (Omega_s^2 (1 - i phi) - omega^2)
            = (scale / (1 - i phi)) sum_{k < terms} delta^k M_k / c0,

    delta = shift / (1 - i phi), Horner's rule in real arithmetic.  M_{k+1}
    <= M_k / a (T_s >= 0), so the terms dropped add up to at most
    M_0 rho^terms / (1 - rho); the estimate adds sum_k |delta|^k |M_k - M'_k|,
    M'_k from the coarser rule.  A pair's coefficients past its own terms are
    0, so its sums depend on its own omega only, not on the rest of the grid.
    """
    cos2 = 1.0 / (1.0 + phi * phi)[:, None]
    re_d, im_d = shift * cos2, shift * cos2 * phi[:, None]
    mod_d = shift * np.sqrt(cos2)
    diff = np.abs(value - check)
    re, im, err = np.zeros_like(shift), np.zeros_like(shift), np.zeros_like(shift)
    for k in range(len(value) - 1, -1, -1):
        used = terms > k
        re, im = re * re_d - im * im_d + np.where(used, value[k], 0.0), re * im_d + im * re_d
        err = err * mod_d + np.where(used, diff[k], 0.0)
    err += value[0] * rho**terms / (1.0 - rho)
    # scale / (1 - i phi) = scale cos2 (1 + i phi)
    re_s, im_s = scale * cos2, scale * cos2 * phi[:, None]
    return re_s * re - im_s * im, re_s * im + im_s * re, scale * np.sqrt(cos2) * err


def _chi0_offsets(geometry, waist, offsets, policy):
    """effective_susceptibility at omega = 0 of a beam of the given waist at
    each offset (all > 0, beams on the mirror).  The families come in runs
    (_family_runs), each run one quadrature pass for every beam whose sum has
    not stopped yet: only x = 4 d^2 / (w0^2 + 2 w_n^2) depends on the offset,
    so a pass forms the rest of each node's integrand once for all of them.
    |I_8 - I_4|, the difference of the two rules (_offaxis_integrals), is each
    family's error estimate.  Each result is == to its one-beam call."""
    om_m2, curv = spectrum_constants(geometry)
    beams = [BeamSpec(waist=waist, offset=d) for d in offsets]
    sums = [_Families(_n_tail_constant(geometry, waist, d), 0.0, 0.0, om_m2, policy) for d in offsets]
    todo = list(range(len(beams)))
    for lo, hi in _family_runs(policy.n_max):
        n = np.arange(lo + 1.0, hi + 1.0)
        value, check, scale = _offaxis_integrals(geometry, [beams[b] for b in todo], om_m2, curv, n, 1)
        for b, v, c in zip(todo, value[:, 0], check[:, 0]):
            sums[b].take(scale * v, scale * v, scale * np.abs(v - c))
        todo = [b for b in todo if sums[b].stop is None]
        if not todo:
            break
    return [s.result(0.0, 0, policy) for s in sums]


def _n_tail_past(geometry, beam, n):
    """The families past n at omega = 0 in closed form: _n_tail's midpoint,
    from family n's own sum chi_n.  Off axis that is its moment-0 integral
    by the coarser of _offaxis_integrals' rules: a relative error e in chi_n
    moves the midpoint by about K e / (4 n).  Centered it is the sum of its
    terms c^2 q^(2p) / (m Omega_{n,2p}^2) up to where their geometric rest
    falls below 2^-53 of the first one, and 10^6 terms at most, as the
    study's pool takes them."""
    om_m2, curv = spectrum_constants(geometry)
    if beam.offset > 0.0:
        fam = np.array([float(n)])
        beta, _, x, c0, gap = mehler_parameters(geometry, beam, fam)
        value = _family_integrals(beta, gap, x[None], fam / curv, _GL_CHECK_PIECES, abs(beta.item()) < 1e-3, 1)
        chi_n = (c0 / (om_m2 * curv * fam) * value[0, 0]).item()
    else:
        wn2, w02 = acoustic_waist_sq(geometry, float(n)), beam.waist * beam.waist
        mass = (math.pi / 4.0) * geometry.material.density * geometry.thickness * wn2
        c2 = (2.0 * wn2 / (2.0 * wn2 + w02)) ** 2
        q2 = ((2.0 * wn2 - w02) / (2.0 * wn2 + w02)) ** 2
        count = 10**6
        if q2 < 1.0:  # the terms past count add at most q^(2 count) / (1 - q^2) times the first
            count = 1 if q2 == 0.0 else min(int(math.log(2.0**-53 * (1.0 - q2)) / math.log(q2)) + 2, count)
        chi_n = _centered_block(om_m2, curv, float(n), mass, c2, q2, 0, count, 0.0, 0.0)[1].item()
    k_inf = _n_tail_constant(geometry, beam.waist, beam.offset)
    mid, _, _ = _n_tail(np.array([float(n)]), np.array([chi_n]), np.zeros(1), k_inf, 0.0, 0.0, 0.0)
    return mid[0].item()


def _chi_offaxis(geometry, beam, omegas, phis, policy):
    """Modal sums for a displaced beam at each omega of a grid.

    Within a degenerate (n, 2p+l) shell the mass-normalized overlap-squared sum
    is basis independent, so it is evaluated in the separable Hermite-Gauss
    basis (Mehler's formula, see ShellTraceTable) instead of mode by mode; each shell
    trace folds in the s//2 + 1 cosine modes that couple to an offset along x
    (sine modes vanish identically).

    A family's whole shell sum is an integral of its traces' generating
    function (_offaxis_integrals): at omega = 0 its moment M_0, and at each
    (omega, family) pair with rho = |delta| / a <= _TAYLOR_RHO a Taylor
    series in delta = omega^2 / (Omega_M^2 curv n (1 - i phi)) over the same
    frequency-free moments (_taylor_sums).  No shell is summed there; the
    error estimate is the quadrature's plus the bound on the series' cut.  The
    pairs nearer a resonance (the low families at high omega, a run from
    family 1 on, as rho falls with n) sum shell by shell from a
    ShellTraceTable of those families alone, and modes_used counts these
    shell summands; their per-family tail is the sum-rule bound of
    _offaxis_family, and their tolerance refers to the whole row, the
    integrated families included.  Families run outermost, so each family's
    shell traces serve every omega; within a family the omegas are the rows
    of one (omega x shell) array per level.  Each row stops at its own n-tail
    (_Families), and a row that stops among the shelled families takes no
    further shells.  A grid of omega = 0 alone is _chi0_offsets; any other
    integrates all n_max families in one pass, whose M_0 serve the n-tails.
    """
    om_m2, curv = spectrum_constants(geometry)
    rows = [k for k, omega in enumerate(omegas) if omega != 0.0]
    if not rows:
        return _chi0_offsets(geometry, beam.waist, [beam.offset], policy) * len(omegas)
    n = np.arange(1.0, policy.n_max + 1.0)
    om = np.array([omegas[k] for k in rows], dtype=float)
    phi = np.array([phis[k] for k in rows], dtype=float)
    # |delta| (1 + phi^2)^(1/2) and rho per (omega, family)
    shift = (om * om)[:, None] / (om_m2 * curv * n)
    rho = shift / (np.hypot(1.0, phi)[:, None] * (1.0 + n / curv))
    taylor = rho <= _TAYLOR_RHO
    # a pair's series has the fewest terms K >= 1 with rho^K / (1 - rho) <= _TAYLOR_TARGET
    rho = np.clip(rho, np.finfo(float).tiny, _TAYLOR_RHO)
    terms = np.where(taylor, np.ceil(np.log(_TAYLOR_TARGET * (1.0 - rho)) / np.log(rho)), 0.0)
    moments = int(max(terms.max(initial=0.0), 1.0))
    (value,), (check,), scale = _offaxis_integrals(geometry, [beam], om_m2, curv, n, moments)
    k_inf = _n_tail_constant(geometry, beam.waist, beam.offset)
    static = scale * value[0]
    zero = None
    if len(rows) < len(omegas):
        zero = _Families(k_inf, 0.0, 0.0, om_m2, policy)
        zero.take(static, static, scale * np.abs(value[0] - check[0]))
        zero = zero.result(0.0, 0, policy)
    results = [zero] * len(omegas)  # the omega > 0 rows are set below

    per_n = np.zeros((len(rows), len(n)), dtype=complex)
    errors = np.zeros((len(rows), len(n)))
    if taylor.any():
        per_n.real, per_n.imag, errors = _taylor_sums(value, check, scale, shift, phi, rho, terms)
    totals = []
    for r in range(len(rows)):
        sel = taylor[r]
        totals.append(complex(np.add.reduce(per_n.real[r][sel]).item(), np.add.reduce(per_n.imag[r][sel]).item()))
    per_n = per_n.tolist()
    modes = [0] * len(rows)
    sums = [_Families(k_inf, omegas[k], phis[k], om_m2, policy) for k in rows]

    shelled = np.flatnonzero(~taylor.all(axis=0)).tolist()
    families = [col + 1 for col in shelled]
    table = ShellTraceTable(geometry, beam, range(1, shelled[-1] + 2)) if shelled else None
    beta, _, _, c0, gap = mehler_parameters(geometry, beam, n[shelled])
    # G(1) = c0 / (1 - beta^2), the sum of a family's traces
    for i, (col, g1) in enumerate(zip(shelled, (c0 / (gap * (1.0 + beta))).tolist())):
        n_k = families[i]
        sub = [r for r in np.flatnonzero(~taylor[:, col]).tolist() if sums[r].stop is None]
        if not sub:
            continue
        found = _offaxis_family(table, families[i:], om_m2, curv, g1, om[sub], phi[sub], [totals[r] for r in sub],
                                policy)
        for r, (s_n, tail_n, count) in zip(sub, found):
            # one summand per degenerate shell; each shell trace folds in
            # its s//2 + 1 coupled cosine modes analytically
            modes[r] += count
            if modes[r] > policy.max_modes:
                raise BudgetExceededError(
                    f"mode budget {policy.max_modes} exhausted at n={n_k}",
                    partial=_result(totals[r] + s_n, omegas[rows[r]], modes[r], math.inf, True, per_n[r][:col],
                                    policy),
                )
            totals[r] += s_n
            per_n[r][col] = s_n
            sums[r].take(np.array([s_n]), static[col : col + 1], np.array([tail_n]))
    for r, k in enumerate(rows):
        # the rest of the row's families are integrated
        lo = sums[r].count
        if sums[r].stop is None:
            sums[r].take(np.array(per_n[r][lo:]), static[lo:], errors[r][lo:])
        results[k] = sums[r].result(omegas[k], modes[r], policy)
    return results


def effective_susceptibility_grid(
    geometry: PlanoConvexGeometry,
    beam: BeamSpec,
    omegas: Sequence[float],
    loss_angle: LossAngle | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> list[SusceptibilityResult]:
    """effective_susceptibility at each omega of a grid, in order, with an
    offset beam's frequency-free shell traces built once for the whole grid."""
    for omega in omegas:
        if not 0 <= omega < math.inf:
            raise ValueError(f"frequency must be finite and non-negative, got {omega}")
    check_beam_on_mirror(beam, geometry)
    if loss_angle is None:
        loss_angle = geometry.material.loss_angle
    phis = [_loss_at(loss_angle, omega) if omega > 0 else 0.0 for omega in omegas]
    if beam.offset == 0.0:
        return [_chi_centered(geometry, beam, omega, phi, policy) for omega, phi in zip(omegas, phis)]
    return _chi_offaxis(geometry, beam, omegas, phis, policy)


def effective_susceptibility(
    geometry: PlanoConvexGeometry,
    beam: BeamSpec,
    omega: float = 0.0,
    loss_angle: LossAngle | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SusceptibilityResult:
    """Overlap-weighted modal susceptibility sum at angular frequency omega.

    At omega = 0 the damping term cancels and the sum is real, positive and
    independent of the loss angle.  Enumeration is deterministic: longitudinal
    families in ascending n, transverse shells in ascending 2p+l, so repeated
    runs are bit-identical.
    """
    return effective_susceptibility_grid(geometry, beam, [omega], loss_angle, policy)[0]


def check_temperature(temperature: float) -> None:
    """Enforce a finite, non-negative temperature."""
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and non-negative, got {temperature}")


def thermal_force_spectrum(chi_value: complex, omega: float, temperature: float) -> float:
    """S_T = -(2 k_B T / omega) Im(1/chi), the fluctuation-dissipation relation."""
    if omega <= 0:
        raise ValueError("the force spectrum is defined for omega > 0")
    check_temperature(temperature)
    return -(2.0 * BOLTZMANN * temperature / omega) * (1.0 / chi_value).imag


def spectrum_point(
    omega: float, temperature: float, loss_angle: LossAngle, chi: complex, chi_zero: complex
) -> SpectrumPoint:
    """The spectra at omega from chi_eff[omega] and chi_eff[0]; no modal sum is taken.

    Exact:  S_u = (2 k_B T / omega) Im(chi_eff[omega])
    Approx: S_u ~= 2 k_B T (phi/omega) chi_eff[0]   (valid well below resonance)
    """
    force = thermal_force_spectrum(chi, omega, temperature)
    phi = _loss_at(loss_angle, omega)
    return SpectrumPoint(
        omega=omega,
        temperature=temperature,
        force_spectrum=force,
        displacement_spectrum=(2.0 * BOLTZMANN * temperature / omega) * chi.imag,
        displacement_spectrum_lowfreq=2.0 * BOLTZMANN * temperature * (phi / omega) * chi_zero.real,
    )


def displacement_noise_spectrum(
    geometry: PlanoConvexGeometry,
    beam: BeamSpec,
    omega: float,
    temperature: float,
    loss_angle: LossAngle | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SpectrumPoint:
    """Displacement noise at omega: exact branch and low-frequency approximation.

    See spectrum_point.  Both sums come from one grid call, which builds an
    offset beam's shell traces once; over a frequency grid,
    effective_susceptibility_grid and spectrum_point share one chi_eff[0].
    """
    if omega <= 0:
        raise ValueError("the noise spectrum is defined for omega > 0")
    check_temperature(temperature)
    if loss_angle is None:
        loss_angle = geometry.material.loss_angle
    chi, chi_zero = effective_susceptibility_grid(geometry, beam, [omega, 0.0], loss_angle, policy)
    return spectrum_point(omega, temperature, loss_angle, chi.value, chi_zero.value)


def optical_mass_model(geometry: PlanoConvexGeometry, beam: BeamSpec) -> OpticalMassApprox:
    """Single-oscillator estimate of chi_eff[0] for a centered beam.

    The oscillator mass is the illuminated substrate column (pi/4) rho h0 w0^2
    scaled by 12/pi^2, resonating at the fundamental longitudinal frequency.
    Always an overestimate of the true zero-frequency susceptibility because
    the true transverse shells resonate above the longitudinal baseline.
    """
    if beam.offset != 0.0:
        raise ValueError("the optical-mass approximation assumes a centered beam")
    m_opt = (12.0 / math.pi**2) * (math.pi / 4.0) * geometry.material.density * (
        geometry.thickness * beam.waist * beam.waist
    )
    return OpticalMassApprox(
        optical_mass=m_opt,
        fundamental_frequency=fundamental_frequency(geometry),
        chi_approx=1.0 / (m_opt * spectrum_constants(geometry)[0]),
    )
