"""Effective susceptibility of the beam-averaged surface displacement.

The readout couples to every acoustic mode through its overlap with the beam;
each mode responds as a Lorentzian oscillator with structural damping.  The
effective susceptibility is the overlap-squared weighted sum of the per-mode
susceptibilities; at zero frequency the loss angle drops out and the sum is
real and positive.  The fluctuation-dissipation theorem then fixes the thermal
force and displacement noise spectra (one-sided, in angular frequency).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import BudgetExceededError
from .geometry import PlanoConvexGeometry, check_loss_angle
from .modes import ModeData, acoustic_waist_sq, fundamental_frequency
from .overlap import BeamSpec, ShellTraceTable, check_beam_on_mirror

#: Boltzmann constant, J/K (exact SI value)
BOLTZMANN = 1.380649e-23

LossAngle = Union[float, Callable[[float], float]]


def _loss_at(loss_angle: LossAngle, omega: float) -> float:
    phi = loss_angle(omega) if callable(loss_angle) else float(loss_angle)
    check_loss_angle(phi, f" at omega={omega}")
    return phi


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls how the modal sum is truncated.

    epsilon    relative tail tolerance for the reported susceptibility
    max_modes  hard budget; exceeding it raises BudgetExceededError
    n_max, p_max, l_max  index caps bounding the enumerated mode universe
    """

    epsilon: float = 1e-4
    max_modes: int = 1_000_000
    n_max: int = 200
    p_max: int = 1_000_000
    l_max: int = 1_000_000

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 1 <= self.max_modes < math.inf:
            raise ValueError(f"max_modes must be a finite count of at least 1, got {self.max_modes}")
        if not all(0 <= cap < math.inf for cap in (self.n_max - 1, self.p_max, self.l_max)):
            raise ValueError("index caps out of range")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SusceptibilityResult:
    """Modal sum outcome (m/N) with its truncation diagnostics.

    tail_bound is relative to |value|.  For centered beams it is a rigorous
    geometric bound; off-center it is an extrapolated estimate and
    tail_is_estimate is set.
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


def _centered_tail(om_m2, curv, n, mass, q2, ovl2_next, p_next, omega, phi):
    """Bound on the terms p >= p_next of the families n: the overlaps decay as
    q^(2p) and no denominator falls below the smallest one left.  A degenerate
    beam (w0 -> 0, q2 = 1) has no geometric decay and an infinite tail."""
    if omega == 0.0:
        min_den = om_m2 * (n * n + curv * n * (2.0 * p_next + 1.0))
    else:
        min_den = _min_abs_denominator(om_m2, n, curv, 2 * p_next, omega, phi)
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
    first = min(64, policy.p_max + 1)
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
            done = (modes <= policy.max_modes) & ((first > policy.p_max) | (tails[k:] <= target))
            j = len(done) if done.all() else int(np.argmin(done))
            if j:
                total, used, k = totals[j - 1].item(), int(modes[j - 1]), k + j
            if k == len(n):
                break
        # that family alone: further blocks until its tail meets its target
        s_n, p, tail_n = sums[k].item(), first, tails[k]
        while True:
            if used + p > policy.max_modes:
                raise BudgetExceededError(
                    f"mode budget {policy.max_modes} exhausted at n={k + 1}, p={p}",
                    partial=_result(total + s_n, omega, used + p, math.inf, False, sums[:k].tolist(),
                                    policy),
                )
            if p > policy.p_max or tail_n <= policy.epsilon * abs(total + s_n) / (2.0 * policy.n_max):
                break
            # blocks of 64, 128, ... terms: after p = 64 (2^r - 1) the next is p + 64 long
            count = min(p + 64, 8192, policy.p_max + 1 - p)
            block = _centered_block(om_m2, curv, n[k], mass[k], head[k], q2[k], p, count, omega, phi)
            s_n += block.item()
            head[k] *= float(q2[k]) ** count
            p += count
            tail_n = _centered_tail(om_m2, curv, n[k], mass[k], q2[k], head[k], p, omega, phi)
        sums[k], tails[k] = s_n, tail_n
        total, used, k = total + s_n, used + p, k + 1
        # walk on in vector steps once a family needs no further block; in a
        # narrow beam every family does, and each step would stop at once
        walk = p == first
    return _result(total, omega, used, np.cumsum(tails)[-1].item(), False, sums.tolist(), policy)


def _shell_tail_estimate(abs_terms):
    """Geometric extrapolation of the remaining shells from the last few
    computed, one estimate per row of abs_terms.

    Strides over four shells to average out the even/odd coupling oscillation;
    inf while the shell weights are still growing (the enumeration has not
    passed the coupling peak yet), and inf when fewer than five shells leave
    no stride to extrapolate from.  A row of zeros has not reached its peak
    either (far off axis a family's head underflows), so it is inf too; one
    that decayed to exact zeros has passed it, and its tail is 0.
    """
    if abs_terms.shape[1] < 5:
        return [math.inf] * len(abs_terms)
    tails = []
    for i, (last, ref) in enumerate(zip(abs_terms[:, -1].tolist(), abs_terms[:, -5].tolist())):
        if last == 0.0 and ref == 0.0:
            tails.append(0.0 if abs_terms[i].any() else math.inf)
        elif ref <= 0.0 or last >= ref:
            tails.append(math.inf)
        else:
            ratio = min((last / ref) ** 0.25, 0.999)
            tails.append(last * ratio / (1.0 - ratio))
    return tails


def _offaxis_family(table, n, om2, shell_cap, w2, phi, totals, policy):
    """Family n's (kept sum, tail estimate, shell count) for each row of a
    frequency grid: omega^2 in w2, loss angles in phi and the running totals
    over the lower families in totals.  om2(smax) gives the family's Omega^2
    up to shell smax.  phi is None for the one zero-frequency row, whose
    terms stay real.

    Every row takes the first 64 shells; the rows whose tail misses their
    target go on together to the next level, of twice as many shells.  The
    shell axis is numpy's; the few numbers per row (tail, target, cut) are
    Python scalars, which cost less than numpy calls on short rows.
    """
    found = [None] * len(totals)
    todo, smax = list(range(len(totals))), 64
    while todo:
        smax = min(smax, shell_cap)
        traces = table.traces(n, smax)
        om2_s = om2(smax)
        if phi is None:
            terms = abs_terms = (traces / om2_s)[None]
        else:
            terms = traces / (om2_s - w2[:, None] - 1j * om2_s * phi[:, None])
            abs_terms = np.abs(terms)
        sums = np.add.reduce(terms, axis=1).tolist()
        targets = [policy.epsilon * abs(totals[k] + s) / (2.0 * policy.n_max) for k, s in zip(todo, sums)]
        tails = _shell_tail_estimate(abs_terms)
        done = [smax >= shell_cap or tail <= target for tail, target in zip(tails, targets)]
        fin = [i for i, d in enumerate(done) if d]
        if fin:
            sel = slice(None) if len(fin) == len(todo) else fin
            # trim: keep the smallest shell prefix whose dropped remainder still
            # meets the per-family target, so the summand count tracks epsilon
            remainder = np.zeros((len(fin), smax + 1))
            remainder[:, :-1] = np.cumsum(abs_terms[sel, :0:-1], axis=1)[:, ::-1]
            remainder += np.array([[tails[i]] for i in fin])
            firsts = (remainder <= np.array([[targets[i]] for i in fin])).argmax(axis=1).tolist()
            for i, row, left, first in zip(fin, terms[sel], remainder, firsts):
                s = first if tails[i] <= targets[i] else smax
                # each kept prefix is summed on its own: padding would reorder it
                found[todo[i]] = np.add.reduce(row[: s + 1]).item(), left[s].item(), s + 1
            if len(fin) == len(todo):
                break
            still = [i for i, d in enumerate(done) if not d]
            todo = [todo[i] for i in still]
            if phi is not None:
                w2, phi = w2[still], phi[still]
        smax *= 2
    return found


def _chi_offaxis(geometry, beam, omegas, phis, policy):
    """Modal sums for a displaced beam at each omega of a grid, shell by shell.

    Within a degenerate (n, 2p+l) shell the mass-normalized overlap-squared sum
    is basis independent, so it is evaluated in the separable Hermite-Gauss
    basis (Mehler's formula, see ShellTraceTable) instead of mode by mode; each shell
    trace folds in the s//2 + 1 cosine modes that couple to an offset along x
    (sine modes vanish identically).  modes_used counts these shell summands.
    The per-family tail is an extrapolated estimate, not a bound.  Families
    run outermost, so each family's shell traces serve every omega; within a
    family the omegas are the rows of one (omega x shell) array per level.
    """
    om_m = fundamental_frequency(geometry)
    om_m2 = om_m * om_m
    curv = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    shell_cap = min(2 * policy.p_max + policy.l_max, 60_000)
    table = ShellTraceTable(geometry, beam, range(1, policy.n_max + 1))
    shells = np.arange(1.0, shell_cap + 2.0)  # s + 1

    # rows: one real row for omega = 0, however often the grid holds it (its
    # rows would all be alike), then a complex row for every other omega
    nonzero = [k for k, omega in enumerate(omegas) if omega != 0.0]
    z = int(len(nonzero) < len(omegas))
    row_of = [0] * len(omegas)
    for r, k in enumerate(nonzero, start=z):
        row_of[k] = r
    w2 = np.array([omegas[k] * omegas[k] for k in nonzero])
    phi = np.array([phis[k] for k in nonzero], dtype=float)
    groups = [g for g in ((range(z), None, None), (range(z, z + len(nonzero)), w2, phi)) if len(g[0])]
    totals = [0.0] * z + [0.0 + 0.0j] * len(nonzero)
    tails = [0.0] * len(totals)
    modes = [0] * len(totals)
    per_n = [[] for _ in totals]

    for n in range(1, policy.n_max + 1):
        def om2(smax):  # Omega^2 of shells 0..smax
            return om_m2 * (n * n + curv * n * shells[: smax + 1])

        sums, tails_n = [None] * len(totals), [None] * len(totals)
        for rows, w2, phi in groups:
            found = _offaxis_family(table, n, om2, shell_cap, w2, phi, totals[rows.start : rows.stop], policy)
            for r, (s_n, tail_n, count) in zip(rows, found):
                # one summand per degenerate shell; each shell trace folds in
                # its s//2 + 1 coupled cosine modes analytically
                sums[r], tails_n[r], modes[r] = s_n, tail_n, modes[r] + count
        for k, r in enumerate(row_of):
            if modes[r] > policy.max_modes:
                raise BudgetExceededError(
                    f"mode budget {policy.max_modes} exhausted at n={n}",
                    partial=_result(totals[r] + sums[r], omegas[k], modes[r], math.inf, True, per_n[r], policy),
                )
        for r, s_n in enumerate(sums):
            totals[r] += s_n
            tails[r] += tails_n[r]
            per_n[r].append(s_n)
    return [_result(totals[r], omega, modes[r], tails[r], True, per_n[r], policy)
            for omega, r in zip(omegas, row_of)]


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
