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
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import BudgetExceededError
from .geometry import PlanoConvexGeometry, check_loss_angle
from .modes import ModeData, acoustic_waist_sq, fundamental_frequency
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


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls how the modal sum is truncated.

    The model is the infinite sum over every mode; these settings only say
    where the computation stops.

    epsilon    relative tail tolerance for the reported susceptibility (for
               the integrated off-axis families: for their error estimate;
               off axis near a resonance: for the shells' sum-rule bound)
    max_modes  hard budget of explicitly summed terms; exceeding it raises
               BudgetExceededError (off axis only the families summed by
               shells near a resonance sum any)
    n_max      computational cap on the longitudinal index; the families
               above it are left out, and tail_bound does not cover them
    """

    epsilon: float = 1e-4
    max_modes: int = 1_000_000
    n_max: int = 200

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 1 <= self.max_modes < math.inf:
            raise ValueError(f"max_modes must be a finite count of at least 1, got {self.max_modes}")
        if not 1 <= self.n_max < math.inf:
            raise ValueError(f"n_max must be a finite count of at least 1, got {self.n_max}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SusceptibilityResult:
    """Modal sum outcome (m/N) with its truncation diagnostics.

    tail_bound is relative to |value|.  For centered beams it is a rigorous
    geometric bound.  Off-center the families summed by shells near a
    resonance contribute a rigorous bound too, from the sum rule of their
    traces; tail_is_estimate is set there because the integrated families
    contribute the quadrature's error estimate (plus, at omega > 0, the
    Taylor series' bound).  modes_used counts only the shells summed, so it
    is 0 at omega = 0.
    """

    value: complex
    frequency: float
    modes_used: int
    tail_bound: float
    tail_is_estimate: bool
    converged: bool
    per_n: tuple


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


def _result(total, omega, modes_used, tail_abs, tail_is_estimate, per_n, policy):
    """The result of a modal sum; tail_abs = inf marks a sum cut short."""
    tail_rel = tail_abs / (abs(total) if total else 1.0)
    return SusceptibilityResult(
        value=complex(total),
        frequency=omega,
        modes_used=modes_used,
        tail_bound=tail_rel,
        tail_is_estimate=tail_is_estimate,
        converged=tail_rel <= policy.epsilon,
        per_n=tuple(per_n),
    )


def mode_susceptibility(mode: ModeData, omega: float, loss_angle: LossAngle) -> complex:
    """Lorentzian response 1/(M (Omega_n^2 - omega^2 - i Omega_n^2 phi))."""
    if omega < 0:
        raise ValueError("frequency must be non-negative")
    # one lossless mode (phi = 0) is singular only at its own resonance
    phi = 0.0 if loss_angle == 0 else _loss_at(loss_angle, omega)
    om_n2 = mode.frequency * mode.frequency
    den = mode.effective_mass * complex(om_n2 - omega * omega, -om_n2 * phi)
    return 1.0 / den


def _min_abs_denominator(om_m2, n, curv, shell_start, omega, phi):
    """min over shells s >= shell_start of |Omega_{n,s}^2 (1 - i phi) - omega^2|,
    elementwise over the families n.

    Omega^2 grows linearly in s, so the minimum sits at shell_start or at a
    shell either side of the crossing with omega^2.
    """
    om2 = omega * omega
    s_cross = (om2 / om_m2 - n * n) / (curv * n) - 1.0
    s = np.maximum([shell_start, np.floor(s_cross), np.ceil(s_cross)], shell_start)
    w2 = om_m2 * (n * n + curv * n * (s + 1.0))
    return np.hypot(w2 - om2, -w2 * phi).min(axis=0)


def _min_abs_denominator_one(om_m2, n, curv, shell_start, omega, phi):
    """_min_abs_denominator for the one family n, in Python floats: on a single
    family they cost a fifth of numpy's calls."""
    om2 = omega * omega
    s_cross = (om2 / om_m2 - n * n) / (curv * n) - 1.0
    shells = (shell_start, max(math.floor(s_cross), shell_start), max(math.ceil(s_cross), shell_start))
    w2 = [om_m2 * (n * n + curv * n * (s + 1.0)) for s in shells]
    return min(abs(complex(w - om2, -w * phi)) for w in w2)


def _centered_block(om_m2, curv, n, mass, ovl2_head, q2, p0, count, omega, phi):
    """Sums over p0 <= p < p0 + count of the terms of the families n, with
    ovl2_head = c^2 q^(2 p0); per-family values are scalars (one family) or
    columns (a row per family)."""
    p = np.arange(p0, p0 + count, dtype=float)
    ovl2 = ovl2_head * q2 ** (p - p0)
    om2 = om_m2 * (n * n + curv * n * (2.0 * p + 1.0))
    if omega == 0.0:
        return (ovl2 / (mass * om2)).sum(axis=-1)
    return (ovl2 / (mass * (om2 - omega * omega - 1j * om2 * phi))).sum(axis=-1)


def _centered_tail(om_m2, curv, n, mass, q2, ovl2_next, p_next, omega, phi, min_abs_den=_min_abs_denominator):
    """Bound on the terms p >= p_next of the families n: the overlaps decay as
    q^(2p) and no denominator falls below the smallest one left, which
    min_abs_den finds at omega > 0.  A degenerate beam (w0 -> 0, q2 = 1) has
    no geometric decay and an infinite tail."""
    if omega == 0.0:
        min_den = om_m2 * (n * n + curv * n * (2.0 * p_next + 1.0))
    else:
        min_den = min_abs_den(om_m2, n, curv, 2 * p_next, omega, phi)
    return ovl2_next / ((1.0 - q2) * mass * min_den)


@np.errstate(divide="ignore")  # the tail of a degenerate beam is inf
def _chi_centered(geometry, beam, omega, phi, policy):
    """Modal sum for a centered beam: l = 0 cosine modes only, closed-form
    overlaps, rigorous geometric tail bound per longitudinal family.

    Blocks of p double from 64 to 8192 terms until a family's tail meets its
    share of the tolerance.  The first block of every family is one 2D array,
    a row per family; a walk in ascending n then takes the families whose
    first block suffices in one vector step, up to the next one that needs a
    further block, which it sums alone before walking on.
    """
    om_m = fundamental_frequency(geometry)
    om_m2 = om_m * om_m
    curv = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    w02 = beam.waist * beam.waist
    first = 64
    # a family past max_modes // first + 1 cannot be reached within the budget
    n = np.arange(1.0, min(policy.n_max, policy.max_modes // first + 1) + 1.0)
    wn2 = acoustic_waist_sq(geometry, n)
    mass = (math.pi / 4.0) * geometry.material.density * geometry.thickness * wn2
    c = 2.0 * wn2 / (2.0 * wn2 + w02)
    q = (2.0 * wn2 - w02) / (2.0 * wn2 + w02)
    q2 = q * q
    head = c * c  # c^2 q^(2 p0) at the head of each family's next block
    sums = _centered_block(om_m2, curv, n[:, None], mass[:, None], head[:, None], q2[:, None],
                           0, first, omega, phi)
    # Python's scalar pow: numpy's vector one can differ from it in the last bit
    head *= [q2_n**first for q2_n in q2.tolist()]
    tails = _centered_tail(om_m2, curv, n, mass, q2, head, np.full(len(n), first), omega, phi)

    total, used, k, walk = 0.0 if omega == 0.0 else 0.0 + 0.0j, 0, 0, True
    while k < len(n):
        if walk:
            # running totals in ascending n from family k on: every family up to
            # the first whose first block falls short is done in one vector step
            # (hypot is Python's complex abs; numpy's can differ in the last bit)
            totals = np.cumsum(np.concatenate(([total], sums[k:])))[1:]
            modes = used + first * np.arange(1, len(totals) + 1)
            target = policy.epsilon * np.hypot(totals.real, totals.imag) / (2.0 * policy.n_max)
            done = (modes <= policy.max_modes) & (tails[k:] <= target)
            j = len(done) if done.all() else int(np.argmin(done))
            if j:
                total, used, k = totals[j - 1].item(), int(modes[j - 1]), k + j
            if k == len(n):
                break
        # that family alone: further blocks until its tail meets its target,
        # in Python floats but for q2, whose 1 - q2 may be 0 (an infinite tail)
        s_n, p, tail_n = sums[k].item(), first, tails[k]
        n_k, mass_k, q2_k = n[k].item(), mass[k].item(), q2[k]
        while True:
            if used + p > policy.max_modes:
                raise BudgetExceededError(
                    f"mode budget {policy.max_modes} exhausted at n={k + 1}, p={p}",
                    partial=_result(total + s_n, omega, used + p, math.inf, False, sums[:k].tolist(),
                                    policy),
                )
            if tail_n <= policy.epsilon * abs(total + s_n) / (2.0 * policy.n_max):
                break
            # blocks of 64, 128, ... terms: after p = 64 (2^r - 1) the next is p + 64 long
            count = min(p + 64, 8192)
            block = _centered_block(om_m2, curv, n_k, mass_k, head[k].item(), q2_k, p, count, omega, phi)
            s_n += block.item()
            head[k] *= q2_k.item() ** count
            p += count
            tail_n = _centered_tail(om_m2, curv, n_k, mass_k, q2_k, head[k].item(), p, omega, phi,
                                    _min_abs_denominator_one)
        sums[k], tails[k] = s_n, tail_n
        total, used, k = total + s_n, used + p, k + 1
        # walk on in vector steps once a family needs no further block; in a
        # narrow beam every family does, and each step would stop at once
        walk = p == first
    return _result(total, omega, used, np.cumsum(tails)[-1].item(), False, sums.tolist(), policy)


#: a shelled family's sum-rule remainder G(1) - sum_{s<=S} T_s is floored at
#: this fraction of G(1), or at (smax + 1) 2^-53 of it where that is larger:
#: what a sequential sum of a level's smax + 1 traces can lose to rounding
_SUM_RULE_FLOOR = 1e-12


def _offaxis_family(table, n, om_m2, curv, g1, omegas, phi, totals, policy):
    """Family n's (kept sum, tail bound, shell count) for each row of a
    frequency grid: its omegas, loss angles phi and running totals over the
    lower families; g1 = G(1) is the sum of all its shell traces.

    The traces are non-negative, so a cut after shell S drops at most

        (G(1) - sum_{s<=S} T_s) / min_{s>S} |Omega_s^2 (1 - i phi) - omega^2|,

    the remainder floored for rounding.  Levels take 64 shells, then twice as
    many; a row whose bound at its level's end meets its target keeps the
    shortest prefix whose bound does.  At SHELL_CAP the rest keep every shell,
    with the bound there as their tail.  The few numbers per row are Python
    scalars, which cost less than numpy calls on short rows.
    """
    found = [None] * len(totals)
    todo, smax, w2 = list(range(len(totals))), 64, omegas * omegas
    while todo:
        smax = min(smax, SHELL_CAP)
        traces = table.traces(n, smax)
        om2_s = om_m2 * (n * n + curv * n * np.arange(1.0, smax + 2.0))
        den = om2_s - w2[:, None] - 1j * om2_s * phi[:, None]
        terms = traces / den
        sums = np.add.reduce(terms, axis=1).tolist()
        targets = [policy.epsilon * abs(totals[k] + s) / (2.0 * policy.n_max) for k, s in zip(todo, sums)]
        # the traces left after each shell, and the smallest |denominator| past the level
        left = np.maximum(g1 - np.cumsum(traces), max(_SUM_RULE_FLOOR, (smax + 1) * 2.0**-53) * g1)
        beyond = [_min_abs_denominator_one(om_m2, n, curv, smax + 1, omega, p)
                  for omega, p in zip(omegas.tolist(), phi.tolist())]
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
            omegas, w2, phi = omegas[still], w2[still], phi[still]
        smax *= 2
    return found


#: Gauss-Legendre nodes per piece of an off-axis family integral
_GL_NODES = 64
#: equal pieces of the integration interval for the value, and for the
#: coarser rule whose difference from it is the error estimate
_GL_PIECES, _GL_CHECK_PIECES = 8, 4
#: families integrated at once: the temporaries are _FAMILY_CHUNK x _GL_NODES
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


def _family_integrals(beta, x, a1, pieces, plain, moments):
    """int_0^1 e^(-x u) t^a1 (-log t)^k / k! du / (1 - beta + 2 beta u),
    t = (1 - u)/(1 + beta u), per family (column) for k < moments (row), by the
    Gauss-Legendre rule on `pieces` equal pieces.

    The variable is v = log(1 - beta + 2 beta u), so du / (1 - beta + 2 beta u)
    = dv / (2 beta): that takes out the near-pole at u = 0 of narrow beams
    (beta -> 1).  Where e^v - (1 - beta) would cancel (plain, |beta| < 1e-3)
    the variable is u itself.  The integrand is one exp of its log, which
    stays in range however large x and a1 are; row k takes each node's value
    times (-log t)^k, and is divided by k! at the end.
    """
    nodes, weights = _gauss_legendre()
    if plain:
        lo, hi, jac = np.zeros_like(beta), np.ones_like(beta), 1.0
    else:
        lo, hi, jac = np.log1p(-beta), np.log1p(beta), 0.5 / beta
    width = (hi - lo) / pieces
    # e^v = 1 - beta + 2 beta u: u = (e^v - (1 - beta)) jac, t = (1 + beta - e^v) / (beta (1 + beta + e^v))
    xj = x * jac
    beta, x, xj, a1, lo, col = (a[:, None] for a in (beta, x, xj, a1, lo, width))
    total = np.zeros((moments, len(beta)))
    for k in range(pieces):
        var = lo + col * (k + nodes)
        if plain:
            log_t = np.log((1.0 - var) / (1.0 + beta * var))
            log_f = a1 * log_t - x * var
        else:
            e = np.exp(var)
            log_t = np.log(((1.0 + beta) - e) / (beta * (1.0 + beta + e)))
            log_f = a1 * log_t - xj * (e - (1.0 - beta))
        # the integrand is 1 at u = 0: below e^-700 it is nothing, and exp
        # would take its slow underflow path
        f = np.exp(np.maximum(log_f, -700.0))
        if plain:
            f /= 1.0 - beta + 2.0 * beta * var
        total[0] += f @ weights
        if moments > 1:
            minus_log_t = -log_t
            for j in range(1, moments):
                f *= minus_log_t
                total[j] += f @ weights
    for j in range(2, moments):
        total[j] /= float(math.factorial(j))
    return total * width * jac


def _offaxis_integrals(geometry, beam, om_m2, curv, n, moments):
    """Each family's shell-sum integrals (_family_integrals, rows k < moments)
    by the rules on _GL_PIECES and on _GL_CHECK_PIECES pieces, and the scale
    c0 / (Omega_M^2 curv n) that makes row 0 the family's omega = 0 sum.

    With Omega_s^2 = Omega_M^2 curv n (s + a), a = 1 + n/curv, and
    1/(s + a)^(k+1) = int_0^1 t^(s+a-1) (-log t)^k / k! dt, the moment
    M_k = sum_s T_s / (s + a)^(k+1) is int_0^1 t^(a-1) G(t) (-log t)^k / k! dt,
    with G the generating function of the family's shell traces (see
    mehler_parameters); u = (1-t)/(1+beta t) turns it into c0 times

        int_0^1 e^(-x u) ((1-u)/(1+beta u))^(a-1) (-log t)^k / k! du / (1 - beta + 2 beta u).
    """
    beta, _, x, c0 = mehler_parameters(geometry, beam, n)
    a1 = n / curv
    value, check = np.empty((moments, len(n))), np.empty((moments, len(n)))
    plain = np.abs(beta) < 1e-3
    for form in (True, False):
        families = np.flatnonzero(plain == form)
        for lo in range(0, len(families), _FAMILY_CHUNK):
            f = families[lo : lo + _FAMILY_CHUNK]
            value[:, f] = _family_integrals(beta[f], x[f], a1[f], _GL_PIECES, form, moments)
            check[:, f] = _family_integrals(beta[f], x[f], a1[f], _GL_CHECK_PIECES, form, moments)
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
    pairs nearer a resonance (the low families at high omega) sum shell by
    shell from a ShellTraceTable of those families alone, and modes_used
    counts these shell summands; their per-family tail is the sum-rule bound
    of _offaxis_family, and their tolerance refers to the whole row, the
    integrated families included.  Families run outermost, so each family's
    shell traces serve every omega; within a family the omegas are the rows
    of one (omega x shell) array per level.
    """
    om_m = fundamental_frequency(geometry)
    om_m2 = om_m * om_m
    curv = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    n = np.arange(1.0, policy.n_max + 1.0)
    results = [None] * len(omegas)
    rows = [k for k, omega in enumerate(omegas) if omega != 0.0]
    om = np.array([omegas[k] for k in rows], dtype=float)
    phi = np.array([phis[k] for k in rows], dtype=float)
    # |delta| (1 + phi^2)^(1/2) and rho per (omega, family)
    shift = (om * om)[:, None] / (om_m2 * curv * n)
    rho = shift / (np.hypot(1.0, phi)[:, None] * (1.0 + n / curv))
    taylor = rho <= _TAYLOR_RHO
    # a pair's series has the fewest terms K >= 1 with rho^K / (1 - rho) <= _TAYLOR_TARGET
    rho = np.clip(rho, np.finfo(float).tiny, _TAYLOR_RHO)
    terms = np.where(taylor, np.ceil(np.log(_TAYLOR_TARGET * (1.0 - rho)) / np.log(rho)), 0.0)
    if len(rows) < len(omegas) or taylor.any():
        value, check, scale = _offaxis_integrals(geometry, beam, om_m2, curv, n, int(max(terms.max(initial=0.0), 1.0)))
    if len(rows) < len(omegas):
        # omega = 0: each family's moment M_0, and |I_8 - I_4| as its error estimate
        sums, errors = scale * value[0], scale * np.abs(value[0] - check[0])
        total, tail = np.add.reduce(sums).item(), np.add.reduce(errors).item()
        for k, omega in enumerate(omegas):
            if omega == 0.0:
                results[k] = _result(total, omega, 0, tail, True, sums.tolist(), policy)
    if not rows:
        return results

    per_n = np.zeros((len(rows), len(n)), dtype=complex)
    errors = np.zeros((len(rows), len(n)))
    if taylor.any():
        per_n.real, per_n.imag, errors = _taylor_sums(value, check, scale, shift, phi, rho, terms)
    totals, tails = [], []
    for r in range(len(rows)):
        sel = taylor[r]
        totals.append(complex(np.add.reduce(per_n.real[r][sel]).item(), np.add.reduce(per_n.imag[r][sel]).item()))
        tails.append(np.add.reduce(errors[r][sel]).item())
    per_n = per_n.tolist()
    modes = [0] * len(rows)

    shelled = np.flatnonzero(~taylor.all(axis=0)).tolist()
    table = ShellTraceTable(geometry, beam, range(1, shelled[-1] + 2)) if shelled else None
    beta, _, _, c0 = mehler_parameters(geometry, beam, n[shelled])
    for col, g1 in zip(shelled, (c0 / (1.0 - beta * beta)).tolist()):  # G(1), the sum of the family's traces
        n_k = col + 1
        sub = np.flatnonzero(~taylor[:, col]).tolist()
        found = _offaxis_family(table, n_k, om_m2, curv, g1, om[sub], phi[sub], [totals[r] for r in sub], policy)
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
            tails[r] += tail_n
            per_n[r][col] = s_n
    for r, k in enumerate(rows):
        results[k] = _result(totals[r], omegas[k], modes[r], tails[r], True, per_n[r], policy)
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
    chi_zero: SusceptibilityResult | None = None,
) -> SpectrumPoint:
    """Displacement noise at omega: exact branch and low-frequency approximation.

    See spectrum_point.  Pass chi_zero to reuse a previously computed
    zero-frequency sum across a frequency grid; without it both sums come
    from one grid call, which builds an offset beam's shell traces once.
    """
    if omega <= 0:
        raise ValueError("the noise spectrum is defined for omega > 0")
    check_temperature(temperature)
    if loss_angle is None:
        loss_angle = geometry.material.loss_angle
    if chi_zero is None:
        chi, chi_zero = effective_susceptibility_grid(geometry, beam, [omega, 0.0], loss_angle, policy)
    else:
        chi = effective_susceptibility(geometry, beam, omega, loss_angle, policy)
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
    om_m = fundamental_frequency(geometry)
    return OpticalMassApprox(
        optical_mass=m_opt,
        fundamental_frequency=om_m,
        chi_approx=1.0 / (m_opt * om_m * om_m),
    )
