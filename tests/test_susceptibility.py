import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mirnoise.errors import BudgetExceededError
from mirnoise.geometry import FUSED_SILICA, Material, solve_geometry
from mirnoise.modes import acoustic_waist_sq, fundamental_frequency, shell_frequency_sq, spectrum_constants
from mirnoise.overlap import BeamSpec, ShellTraceTable, mehler_parameters
from mirnoise.susceptibility import (
    BOLTZMANN,
    SHELL_CAP,
    SusceptibilityResult,
    TruncationPolicy,
    _exp_e1,
    _family_integrals,
    _gauss_legendre,
    _least_denominator,
    _n_tail,
    _n_tail_constant,
    _n_tail_past,
    _offaxis_integrals,
    _power_tails,
    displacement_noise_spectrum,
    effective_susceptibility,
    effective_susceptibility_grid,
    optical_mass_model,
    spectrum_point,
    thermal_force_spectrum,
)
from mirnoise.sweeps import _past_peak, convergence_study
from mirnoise.validation import (
    ModeIndex,
    effective_mass,
    eigenfrequency_sq,
    family_shell_sum,
    mode_data,
    mode_susceptibility,
    overlap_centered,
    shell_overlap_sq_over_mass,
)


#: a policy whose n-tail misses its share up to n_max = 200: every family is summed
EVERY_FAMILY = TruncationPolicy(epsilon=1e-9)


@pytest.fixture(scope="module")
def geo():
    return solve_geometry(20.0, 0.07, FUSED_SILICA)


@pytest.fixture(scope="module")
def beam():
    return BeamSpec(waist=0.02)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(max_modes=0)
    with pytest.raises(ValueError):
        TruncationPolicy(n_max=0)
    for kwargs in ({"n_max": 2.5}, {"max_modes": 1000.5}, {"n_max": 50.0}):
        with pytest.raises(ValueError, match="integer"):
            TruncationPolicy(**kwargs)
    assert TruncationPolicy(max_modes=np.int64(1000), n_max=np.int32(50)).n_max == 50
    with pytest.raises(TypeError):  # p and l have no caps
        TruncationPolicy(p_max=1)


def test_mode_susceptibility_static_and_resonant(geo):
    mode = mode_data(geo, ModeIndex(n=1))
    # static limit with vanishing damping
    chi0 = mode_susceptibility(mode, 0.0, 1e-12)
    expected = 1.0 / (mode.effective_mass * mode.frequency**2)
    assert chi0.real == pytest.approx(expected, rel=1e-9)
    assert abs(chi0.imag) < 1e-11 * abs(chi0.real)
    # purely imaginary at resonance
    phi = 1e-6
    chi_res = mode_susceptibility(mode, mode.frequency, phi)
    assert chi_res.real == pytest.approx(0.0, abs=1e-9 * abs(chi_res.imag))
    assert chi_res.imag == pytest.approx(
        1.0 / (mode.effective_mass * mode.frequency**2 * phi), rel=1e-12
    )
    # fundamental-mode magnitude: M_1 ~ 1.117 kg
    assert 1.0 / (1.117 * mode.frequency**2) == pytest.approx(chi0.real, rel=1e-3)


def test_chi_eff_brute_force_equivalence(geo, beam):
    # n <= 2, l = 0, centered: at epsilon 0.05 each family stops after its
    # first block of 64 terms, p < 64, and the n-tail past n = 1 (8% of the
    # value) misses its share; literal term-by-term sum of the two families,
    # the head of the value, which adds the n-tail past n = 2
    policy = TruncationPolicy(epsilon=0.05, n_max=2)
    res = effective_susceptibility(geo, beam, 0.0, policy=policy)
    total = 0.0
    for n in (1, 2):
        mode_mass = effective_mass(geo, ModeIndex(n=n))
        for p in range(64):
            ovl = overlap_centered(mode_data(geo, ModeIndex(n=n, p=p)), beam).value
            total += ovl * ovl / (mode_mass * eigenfrequency_sq(geo, n, 2 * p))
    assert len(res.per_n) == 2 and sum(res.per_n) == pytest.approx(total, rel=1e-12, abs=0.0)
    assert res.value == sum(res.per_n) + res.n_tail and res.n_tail.real > 0.0
    assert res.modes_used == 128


def test_chi_eff_zero_frequency_real_positive_monotone(geo, beam):
    res = effective_susceptibility(geo, beam)
    assert res.value.imag == 0.0
    assert res.value.real > 0.0
    partials = np.cumsum([s.real for s in res.per_n])
    assert np.all(np.diff(partials) >= 0)
    assert all(s.imag == 0 for s in res.per_n)


def test_chi_eff_reference_values(geo):
    res = effective_susceptibility(geo, BeamSpec(waist=0.02))
    assert res.value.real == pytest.approx(11e-11, rel=0.1)
    assert res.tail_bound <= 1e-4
    res2 = effective_susceptibility(geo, BeamSpec(waist=0.055))
    assert res2.value.real == pytest.approx(2.4e-11, rel=0.1)


def test_chi_eff_loss_angle_cancels_at_zero_frequency(geo, beam):
    a = effective_susceptibility(geo, beam, 0.0, 1e-6)
    b = effective_susceptibility(geo, beam, 0.0, 1e-3)
    assert a.value == b.value


def test_chi_eff_loss_angle_hook(geo, beam):
    om = 1e4
    tabulated = effective_susceptibility(geo, beam, om, lambda w: 2e-6 * (w / om))
    constant = effective_susceptibility(geo, beam, om, 2e-6)
    assert tabulated.value == constant.value


def test_chi_eff_budget_error_carries_partial(geo, beam):
    policy = TruncationPolicy(epsilon=1e-6, max_modes=100, n_max=200)
    with pytest.raises(BudgetExceededError) as excinfo:
        effective_susceptibility(geo, beam, policy=policy)
    partial = excinfo.value.partial
    assert partial.modes_used > 100
    assert not partial.converged
    assert 0 < partial.value.real < 2e-10


def test_chi_eff_offaxis_matches_centered_limit(geo):
    centered = effective_susceptibility(geo, BeamSpec(waist=0.02))
    near = effective_susceptibility(geo, BeamSpec(waist=0.02, offset=1e-10))
    assert near.value.real == pytest.approx(centered.value.real, rel=1e-4)
    # both carry the n-tail, whose bracket is an observation
    assert near.tail_is_estimate and centered.tail_is_estimate
    assert near.n_tail.real == pytest.approx(centered.n_tail.real, rel=1e-6, abs=0.0)


@given(
    waist=st.floats(min_value=0.005, max_value=0.055),
    where=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=12, deadline=None)
def test_chi_eff_continuous_as_offset_goes_to_zero(geo, waist, where, n):
    # offsets from 1e-9 m to 1e-4 w0, log-uniform
    offset = math.exp(math.log(1e-9) + where * math.log(1e-4 * waist / 1e-9))
    near = effective_susceptibility(geo, BeamSpec(waist=waist, offset=offset))
    centered = effective_susceptibility(geo, BeamSpec(waist=waist))
    assert near.value.real == pytest.approx(centered.value.real, rel=1e-4)
    # at offset 0 the traces' odd shells vanish exactly
    traces = shell_overlap_sq_over_mass(geo, BeamSpec(waist=waist), n, 301)
    assert not traces[1::2].any()


@pytest.mark.parametrize("offset", [0.0, 0.03])
def test_zero_loss_angle_rejected(geo, offset):
    # phi = 0 makes every mode's Lorentzian singular at its own resonance
    beam = BeamSpec(waist=0.02, offset=offset)
    with pytest.raises(ValueError, match=r"loss angle must lie in \(0, 1\), got 0.0 at omega=10000.0"):
        effective_susceptibility(geo, beam, 1e4, lambda omega: 0.0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        effective_susceptibility_grid(geo, beam, [0.0, 1e4], 0.0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        spectrum_point(1e4, 300.0, lambda omega: 0.0, 1e-10 + 1e-16j, 1e-10 + 0j)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        Material(density=2200.0, sound_velocity=5960.0, loss_angle=0.0)
    # at omega = 0 the loss angle drops out and is not asked for
    assert effective_susceptibility(geo, beam, 0.0, lambda omega: 0.0).converged


def test_thermal_force_spectrum_oscillator_algebra(geo):
    # S_T for one oscillator: 2 k_B T M Omega_n^2 phi / Omega
    mode = mode_data(geo, ModeIndex(n=1))
    phi, temp, om = 1e-6, 300.0, 5000.0
    chi = mode_susceptibility(mode, om, phi)
    got = thermal_force_spectrum(chi, om, temp)
    expected = 2 * BOLTZMANN * temp * mode.effective_mass * mode.frequency**2 * phi / om
    assert got == pytest.approx(expected, rel=1e-12)
    # no dissipation, no fluctuation
    chi_lossless = mode_susceptibility(mode, om, 0.0)
    assert thermal_force_spectrum(chi_lossless, om, temp) == 0.0
    with pytest.raises(ValueError):
        thermal_force_spectrum(chi, 0.0, temp)


@given(st.floats(min_value=1e2, max_value=3e6))
@settings(max_examples=25, deadline=None)
def test_fdt_identity(omega):
    # |chi|^2 S_T = (2 k_B T / omega) Im(chi), an exact algebraic identity
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    beam = BeamSpec(waist=0.02)
    temp = 300.0
    chi = effective_susceptibility(geo, beam, omega, 1e-6).value
    s_t = thermal_force_spectrum(chi, omega, temp)
    lhs = abs(chi) ** 2 * s_t
    rhs = (2 * BOLTZMANN * temp / omega) * chi.imag
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_noise_spectrum_branches_and_scalings(geo, beam):
    om = mode_data(geo, ModeIndex(n=1)).fundamental_frequency / 1000.0
    point = displacement_noise_spectrum(geo, beam, om, 300.0, 1e-6)
    assert point.displacement_spectrum == pytest.approx(
        point.displacement_spectrum_lowfreq, rel=0.01
    )
    zero_t = displacement_noise_spectrum(geo, beam, om, 0.0, 1e-6)
    assert zero_t.displacement_spectrum == 0.0
    assert zero_t.force_spectrum == 0.0
    # linear in T and in phi at fixed low frequency
    double_t = displacement_noise_spectrum(geo, beam, om, 600.0, 1e-6)
    assert double_t.displacement_spectrum == pytest.approx(
        2 * point.displacement_spectrum, rel=1e-9
    )
    double_phi = displacement_noise_spectrum(geo, beam, om, 300.0, 2e-6)
    assert double_phi.displacement_spectrum == pytest.approx(
        2 * point.displacement_spectrum, rel=1e-4
    )
    with pytest.raises(ValueError):
        displacement_noise_spectrum(geo, beam, 0.0, 300.0)


def test_optical_mass_model_values(geo, beam):
    approx = optical_mass_model(geo, beam)
    assert approx.optical_mass == pytest.approx(
        (12 / math.pi**2) * (math.pi / 4) * 2200.0 * 0.07 * 0.02**2, rel=1e-14
    )
    assert approx.optical_mass == pytest.approx(0.0588, rel=1e-3)
    assert approx.chi_approx == pytest.approx(2.376e-10, rel=1e-3)
    # doubling the waist quarters the estimate
    wide = optical_mass_model(geo, BeamSpec(waist=0.04))
    assert wide.chi_approx == pytest.approx(approx.chi_approx / 4, rel=1e-12)
    with pytest.raises(ValueError):
        optical_mass_model(geo, BeamSpec(waist=0.02, offset=0.01))


def test_optical_mass_overestimates(geo):
    for waist in (0.015, 0.02, 0.03, 0.05):
        chi = effective_susceptibility(geo, BeamSpec(waist=waist)).value.real
        approx = optical_mass_model(geo, BeamSpec(waist=waist)).chi_approx
        assert approx >= chi


def test_scaling_collapse(geo):
    # chi_eff[0] tracks h0/w0^2: normalizing by it collapses a ~20x raw spread
    # to a residual factor < 5.5 over the working box (measured ~4.9)
    vals = []
    raw = []
    for h0 in (0.04, 0.07, 0.12):
        geom = solve_geometry(20.0, h0, FUSED_SILICA)
        for w0 in (0.01, 0.03, 0.06):
            chi = effective_susceptibility(geom, BeamSpec(waist=w0)).value.real
            raw.append(chi)
            vals.append(chi * w0**2 / h0)
    assert max(raw) / min(raw) > 15.0
    assert max(vals) / min(vals) < 5.5


def test_mass_insensitivity(geo):
    values = []
    for mass in (5.0, 10.0, 20.0, 35.0, 50.0):
        geom = solve_geometry(mass, 0.07, FUSED_SILICA)
        values.append(effective_susceptibility(geom, BeamSpec(waist=0.02)).value.real)
    spread = (max(values) - min(values)) / min(values)
    assert spread < 0.05


def test_grid_equals_single_frequency_sums(geo):
    # the shared shell traces must not change any omega's result
    omegas = [0.0, 2e2, 3e5, 1e6]
    for beam in (BeamSpec(waist=0.02), BeamSpec(waist=0.02, offset=0.03)):
        grid = effective_susceptibility_grid(geo, beam, omegas, 1e-6)
        assert grid == [effective_susceptibility(geo, beam, om, 1e-6) for om in omegas]


def test_spectrum_point_matches_noise_spectrum(geo, beam):
    om = 4e3
    chi = effective_susceptibility(geo, beam, om, 1e-6)
    chi_zero = effective_susceptibility(geo, beam, 0.0, 1e-6)
    point = spectrum_point(om, 300.0, 1e-6, chi.value, chi_zero.value)
    assert point == displacement_noise_spectrum(geo, beam, om, 300.0, 1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_rejected(geo, beam, bad):
    for kwargs in ({"max_modes": bad}, {"n_max": bad}, {"epsilon": bad}):
        with pytest.raises(ValueError):
            TruncationPolicy(**kwargs)
    with pytest.raises(ValueError):
        effective_susceptibility(geo, beam, bad)
    with pytest.raises(ValueError):
        thermal_force_spectrum(1e-10 + 1e-16j, 1e3, bad)
    with pytest.raises(ValueError):
        displacement_noise_spectrum(geo, beam, 1e3, bad)


@pytest.mark.parametrize("offset", [0.0, 0.03])
def test_noise_spectrum_equals_two_separate_sums(geo, offset):
    beam = BeamSpec(waist=0.02, offset=offset)
    om = 3e3
    chi = effective_susceptibility(geo, beam, om, 1e-6)
    chi_zero = effective_susceptibility(geo, beam, 0.0, 1e-6)
    expected = spectrum_point(om, 300.0, 1e-6, chi.value, chi_zero.value)
    assert displacement_noise_spectrum(geo, beam, om, 300.0, 1e-6) == expected


#: where the least denominator's real shell s* falls: below shell 0, on and
#: between shells, and far up the family
LEAST_SHELLS = (-1.5, -0.5, 0.0, 0.2, 0.5, 3.0, 3.49, 17.5, 64.3, 150.8)


@pytest.mark.parametrize("thickness", [0.04, 0.07, 0.12])
def test_least_denominator_is_the_brute_force_minimum(thickness):
    # min over every shell s >= s0 of |Omega_s^2 (1 - i phi) - omega^2|, for
    # each s0 from 0 to past s*, is least where s0 <= s_least, else shell s0's
    om_m2, curv = spectrum_constants(solve_geometry(20.0, thickness, FUSED_SILICA))
    for n in (1, 2, 7, 50):
        for phi in (1e-6, 0.1, 0.3, 0.5):
            # omega^2 = (1 + phi^2) Omega^2 at the shells s*: across the first resonances
            omegas = np.sqrt((1.0 + phi * phi) * shell_frequency_sq(om_m2, curv, n, np.array(LEAST_SHELLS)))
            s_least, least = _least_denominator(om_m2, curv, n, omegas, np.full(len(omegas), phi))
            shells = np.arange(2000.0)
            w2 = shell_frequency_sq(om_m2, curv, n, shells)
            for omega, s_l, low in zip(omegas, s_least, least):
                den = np.hypot(w2 - omega * omega, -w2 * phi)
                assert den[-1] > den.min()  # the minimum lies well inside the shells tried
                brute = np.minimum.accumulate(den[::-1])[::-1]  # min over s >= s0, per s0
                s0 = np.arange(int(max(s_l, 0.0)) + 3)
                assert np.array_equal(np.where(s0 <= s_l, low, den[s0]), brute[s0])


# ---------------------------------------------------------------------------
# Oracle for the centered modal sum: the per-family implementation that the
# all-families block sum replaced, kept verbatim but for its least
# denominator, which sits at omega^2 / (1 + phi^2) and not at the crossing
# with omega^2, and for the n-tail: each family also sums its terms at
# omega = 0, and the loop stops at the first family where the library's
# n-tail rule (_n_tail, pinned on its own below) is met, or at n_max.  The
# library must reproduce its results, budget errors and partial results
# exactly (==, not approx).
# ---------------------------------------------------------------------------


def _oracle_min_abs_denominator(om_m2, n, curv, shell_start, omega, phi):
    # |den|^2 is a quadratic in Omega_s^2, least at omega^2 / (1 + phi^2)
    def w2(s):
        return om_m2 * (n * n + curv * n * (s + 1.0))

    om2 = omega * omega
    s_star = (om2 / ((1.0 + phi * phi) * om_m2) - n * n) / (curv * n) - 1.0
    candidates = [shell_start] + [s for s in (math.floor(s_star), math.ceil(s_star)) if s >= shell_start]
    return min(abs(complex(w2(s) - om2, -w2(s) * phi)) for s in candidates)


def _oracle_result(total, omega, modes_used, tail_abs, per_n, policy, n_tail=None):
    """n_tail: the (midpoint, error) of the families past the last, or None
    for a partial result."""
    mid, err = n_tail or (0.0, 0.0)
    value = complex(total + mid)
    tail_rel = (tail_abs + err) / (abs(value) if value else 1.0)
    return SusceptibilityResult(
        value=value,
        frequency=omega,
        modes_used=modes_used,
        tail_bound=tail_rel,
        tail_is_estimate=n_tail is not None,
        converged=tail_rel <= policy.epsilon / (1.0 + policy.epsilon),
        per_n=tuple(per_n),
        n_tail=complex(mid),
        n_tail_bound=err / (abs(value) if value else 1.0),
    )


def _oracle_chi_centered(geometry, beam, omega, phi, policy):
    om_m = fundamental_frequency(geometry)
    om_m2 = om_m * om_m
    curv = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    w02 = beam.waist * beam.waist
    rho = geometry.material.density
    h0 = geometry.thickness
    at_zero = omega == 0.0

    total = 0.0 if at_zero else 0.0 + 0.0j
    tail_abs = 0.0
    per_n = []
    modes_used = 0
    k_inf = _n_tail_constant(geometry, beam.waist, 0.0)

    for n in range(1, policy.n_max + 1):
        wn2 = acoustic_waist_sq(geometry, n)
        mass = (math.pi / 4.0) * rho * h0 * wn2
        c = 2.0 * wn2 / (2.0 * wn2 + w02)
        q = (2.0 * wn2 - w02) / (2.0 * wn2 + w02)
        q2 = q * q
        s_n = 0.0 if at_zero else 0.0 + 0.0j
        static_n = 0.0  # the family's sum at omega = 0
        ovl2_head = c * c  # c^2 q^(2 p0) at the head of the current block
        p0 = 0
        block = 64
        tail_n = 0.0
        while True:
            count = block
            p = np.arange(p0, p0 + count, dtype=float)
            ovl2 = ovl2_head * q2 ** (p - p0)
            om2 = om_m2 * (n * n + curv * n * (2.0 * p + 1.0))
            static_n += float((ovl2 / (mass * om2)).sum())
            if at_zero:
                s_n = static_n
            else:
                den = mass * (om2 - omega * omega - 1j * om2 * phi)
                s_n += complex((ovl2 / den).sum())
            modes_used += count
            p_next = p0 + count
            ovl2_next = ovl2_head * q2**count
            if ovl2_next == 0.0:
                tail_n = 0.0
            elif q2 < 1.0:
                min_den = (
                    om_m2 * (n * n + curv * n * (2.0 * p_next + 1.0))
                    if at_zero
                    else _oracle_min_abs_denominator(om_m2, n, curv, 2 * p_next, omega, phi)
                )
                tail_n = ovl2_next / ((1.0 - q2) * mass * min_den)
            else:
                tail_n = float("inf")  # degenerate beam (w0 -> 0): no geometric decay
            if modes_used > policy.max_modes:
                raise BudgetExceededError(
                    f"mode budget {policy.max_modes} exhausted at n={n}, p={p_next}",
                    partial=_oracle_result(total + s_n, omega, modes_used, math.inf, per_n, policy),
                )
            target = policy.epsilon * abs(total + s_n) / (2.0 * policy.n_max)
            if tail_n <= target:
                break
            ovl2_head = ovl2_next
            p0 = p_next
            block = min(2 * block, 8192)
        total += s_n
        tail_abs += tail_n
        per_n.append(s_n)
        mid, err, met = _n_tail(np.array([float(n)]), np.array([static_n]), np.array([total]),
                                k_inf, omega * omega / om_m2, phi, policy.epsilon)
        if met[0] or n == policy.n_max:
            return _oracle_result(total, omega, modes_used, tail_abs, per_n, policy, (mid[0], err[0].item()))


def _outcome(chi, *args):
    """A sum's result, or its budget error's message and partial result."""
    try:
        result = chi(*args)
    except BudgetExceededError as err:
        return "budget", str(err), err.partial, type(err.partial.modes_used)
    types = {type(result.modes_used), type(result.tail_bound), type(result.converged)}
    return "ok", result, types, tuple(type(s) for s in result.per_n)


def assert_matches_oracle(geometry, beam, omega, policy, loss_angle=1e-6):
    phi = loss_angle if omega > 0 else 0.0
    expected = _outcome(_oracle_chi_centered, geometry, beam, omega, phi, policy)
    got = _outcome(effective_susceptibility, geometry, beam, omega, loss_angle, policy)
    assert got == expected


#: across the fundamental resonance of the 7 cm substrate (about 2.7e5 rad/s),
#: and at 2e6 where family 1's least denominator lies past its first block
ORACLE_OMEGAS = (0.0, 2e2, 2.5e5, 2.7e5, 2.9e5, 1e6, 2e6)
ORACLE_POLICIES = (
    TruncationPolicy(),
    TruncationPolicy(n_max=1),
    TruncationPolicy(n_max=50),
    TruncationPolicy(n_max=400),
    TruncationPolicy(epsilon=1e-9),
)


@pytest.mark.parametrize("thickness", [0.04, 0.07, 0.12])
@pytest.mark.parametrize("waist", [0.001, 0.005, 0.02, 0.06])
def test_centered_sum_matches_oracle(thickness, waist):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    beam = BeamSpec(waist=waist)
    for loss_angle in (1e-6, 0.3):  # at 0.3 the least denominator lies well below the crossing
        for policy in ORACLE_POLICIES:
            for omega in ORACLE_OMEGAS:
                assert_matches_oracle(geometry, beam, omega, policy, loss_angle)


@pytest.mark.parametrize(
    "waist, max_modes",
    # at 2,100 the budget runs out at family 29, where the n-tail would stop the sum at 2.7e5 rad/s
    [(0.02, 1), (0.02, 100), (0.02, 2_100), (0.001, 5_000), (0.001, 200_000)],
)
def test_centered_budget_overrun_matches_oracle(geo, waist, max_modes):
    policy = TruncationPolicy(max_modes=max_modes)
    for omega in (0.0, 2.7e5):
        assert_matches_oracle(geo, BeamSpec(waist=waist), omega, policy)
        with pytest.raises(BudgetExceededError):
            effective_susceptibility(geo, BeamSpec(waist=waist), omega, 1e-6, policy)


@pytest.mark.parametrize("waist, max_modes", [(0.001, 10**8), (0.001, 300_000), (0.01, 10**8), (0.06, 10**8)])
def test_centered_sum_does_not_depend_on_its_runs(geo, waist, max_modes, monkeypatch):
    # the walk hands the families it sums alone to the stop rule in batches
    # whose bounds move with the runs; the result, or the budget's partial
    # result, does not
    import mirnoise.susceptibility as susceptibility

    def outcomes():
        out = []
        for omega in (0.0, 2.7e5):
            try:
                out.append(effective_susceptibility(geo, BeamSpec(waist=waist), omega,
                                                    policy=TruncationPolicy(n_max=1000, max_modes=max_modes)))
            except BudgetExceededError as err:
                out.append((str(err), err.partial))
        return out

    ref = outcomes()
    for first, pending in ((1, 1), (7, 3), (32, 100), (1000, 8)):
        monkeypatch.setattr(susceptibility, "_CENTERED_FIRST_RUN", first)
        monkeypatch.setattr(susceptibility, "_PENDING_MAX", pending)
        assert outcomes() == ref


@given(
    thickness=st.floats(min_value=0.04, max_value=0.12),
    waist=st.floats(min_value=0.002, max_value=0.06),
    epsilon=st.floats(min_value=1e-9, max_value=0.5),
    omega=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=2e6)),
)
@settings(max_examples=25, deadline=None)
def test_centered_sum_matches_oracle_property(thickness, waist, epsilon, omega):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    assert_matches_oracle(geometry, BeamSpec(waist=waist), omega, TruncationPolicy(epsilon=epsilon))


# ---------------------------------------------------------------------------
# Oracle for the off-axis modal sum at omega > 0: the per-(family, omega) loop
# that the (omega x shell) array sum replaced, kept verbatim.  The library
# integrates each family's whole shell sum instead wherever it lies at most
# half way to its base resonance (rho <= 1/4), at omega = 0 for every family;
# those families are checked against direct shell sums.  The families it
# still sums by shells are checked against direct shell sums or the mpmath
# quadrature within the library's tail_bound, which is a bound there, and
# against the oracle, family by family and in total, within both results'
# tail_bounds: the two cut the same shell sums at different places.  The
# oracle cuts by an extrapolated estimate, which can run short of its error;
# where the references show it short by more than both tails, they alone pin
# the row.
# ---------------------------------------------------------------------------


def _oracle_shell_tail_estimate(abs_terms):
    last = abs_terms[-1]
    ref = abs_terms[-5]
    if last == 0.0 and ref == 0.0:
        return 0.0 if abs_terms.any() else float("inf")
    if ref <= 0.0 or last >= ref:
        return float("inf")
    ratio = min((last / ref) ** 0.25, 0.999)
    return last * ratio / (1.0 - ratio)


def _oracle_offaxis_result(total, omega, modes_used, tail_abs, per_n, policy):
    tail_rel = tail_abs / (abs(total) if total else 1.0)
    return SusceptibilityResult(
        value=complex(total),
        frequency=omega,
        modes_used=modes_used,
        tail_bound=tail_rel,
        tail_is_estimate=True,
        converged=tail_rel <= policy.epsilon,
        per_n=tuple(per_n),
    )


def _oracle_chi_offaxis(geometry, beam, omegas, phis, policy):
    om_m = fundamental_frequency(geometry)
    om_m2 = om_m * om_m
    curv = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    table = ShellTraceTable(geometry, beam, range(1, policy.n_max + 1))

    totals = [0.0 if omega == 0.0 else 0.0 + 0.0j for omega in omegas]
    tails = [0.0] * len(omegas)
    per_n = [[] for _ in omegas]
    modes = [0] * len(omegas)

    for n in range(1, policy.n_max + 1):
        for k, (omega, phi) in enumerate(zip(omegas, phis)):
            at_zero = omega == 0.0
            smax = 64
            while True:
                smax = min(smax, 60_000)
                traces = table.traces(n, smax)
                s_idx = np.arange(smax + 1, dtype=float)
                om2 = om_m2 * (n * n + curv * n * (s_idx + 1.0))
                if at_zero:
                    cterms = traces / om2
                    abs_terms = cterms
                else:
                    den = om2 - omega * omega - 1j * om2 * phi
                    cterms = traces / den
                    abs_terms = np.abs(cterms)
                tail_beyond = _oracle_shell_tail_estimate(abs_terms)
                target = policy.epsilon * abs(totals[k] + cterms.sum()) / (2.0 * policy.n_max)
                if tail_beyond <= target or smax >= 60_000:
                    break
                smax *= 2
            remainder = np.cumsum(abs_terms[::-1])[::-1]
            remainder = np.append(remainder[1:], 0.0) + tail_beyond
            s_stop = int(np.argmax(remainder <= target)) if remainder[-1] <= target else smax
            s_n = complex(cterms[: s_stop + 1].sum()) if not at_zero else float(cterms[: s_stop + 1].sum())
            tail_n = float(remainder[s_stop])
            modes[k] += s_stop + 1
            if modes[k] > policy.max_modes:
                raise BudgetExceededError(
                    f"mode budget {policy.max_modes} exhausted at n={n}",
                    partial=_oracle_offaxis_result(totals[k] + s_n, omega, modes[k], math.inf, per_n[k], policy),
                )
            totals[k] += s_n
            tails[k] += tail_n
            per_n[k].append(s_n)
    return [
        _oracle_offaxis_result(total, omega, used, tail_abs, sums, policy)
        for total, omega, used, tail_abs, sums in zip(totals, omegas, modes, tails, per_n)
    ]


def _grid_outcome(chi, *args):
    """A grid's results with the Python types of their fields, or its budget
    error's message, partial result and the partial's field types."""
    try:
        results = chi(*args)
    except BudgetExceededError as err:
        p = err.partial
        return "budget", str(err), p, [type(v) for v in (p.value, p.modes_used, p.tail_bound, p.converged)]
    types = [
        (type(r.value), type(r.modes_used), type(r.tail_bound), type(r.converged), [type(s) for s in r.per_n])
        for r in results
    ]
    return "ok", results, types


@functools.lru_cache(maxsize=None)
def _direct_family_sums(geometry, beam, n_max, omega=0.0, loss_angle=0.0):
    """Direct shell sums sum_s T_s / (Omega_s^2 (1 - i phi) - omega^2) of
    families 1..n_max (real at omega = 0, where the loss angle drops out), from
    the shell-trace table out to at most SHELL_CAP shells, which of them are
    complete, and a bound on what each leaves out.  By the sum rule sum_s T_s
    = G(1) = c0 / (1 - beta^2), that is |G(1) - sum of the traces| / (the
    smallest |denominator| left), and a family is complete where it is at most
    1e-12 of the family's |sum|.  A family whose traces lose digits far off
    axis misses the sum rule and counts as incomplete too, and so does one
    whose shells left still cross omega (its bound is inf)."""
    om_m2 = fundamental_frequency(geometry) ** 2
    curv = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    n = np.arange(1.0, n_max + 1.0)
    beta, _, _, c0, gap = mehler_parameters(geometry, beam, n)
    g1 = c0 / (gap * (1.0 + beta))
    sums = np.zeros(n_max, dtype=complex if omega else float)
    traced, left = np.zeros(n_max), np.zeros(n_max)
    w2, loss = omega * omega, 1.0 - 1j * loss_angle
    chunk = 25  # families to a table, which keeps the blocks small
    for lo in range(1, n_max + 1, chunk):
        f = slice(lo - 1, min(lo - 1 + chunk, n_max))
        table = ShellTraceTable(geometry, beam, range(lo, f.stop + 1))
        done, smax = -1, 64
        while True:
            new = table.block(lo, smax)[done + 1 :]  # shells done + 1..smax
            shells = np.arange(done + 2.0, smax + 2.0)[:, None]  # s + 1
            om2 = om_m2 * (n[f] * n[f] + curv * n[f] * shells)
            sums[f] += (new / (om2 * loss - w2 if omega else om2)).sum(axis=0)
            traced[f] += new.sum(axis=0)
            # past omega the denominators grow with s: the next one is the smallest left
            om2 = om_m2 * (n[f] * n[f] + curv * n[f] * (smax + 2.0))
            min_den = np.where(om2 >= w2, np.abs(om2 * loss - w2), 0.0) if omega else om2
            with np.errstate(divide="ignore", invalid="ignore"):  # nothing left of nothing: 0/0
                left[f] = np.abs((g1[f] - traced[f]) / min_den)
            if np.all(left[f] <= 1e-12 * np.abs(sums[f])) or smax >= SHELL_CAP:
                break
            done, smax = smax, min(2 * smax, SHELL_CAP)
    left[np.isnan(left)] = math.inf
    return sums, left <= 1e-12 * np.abs(sums), left


def _head(res):
    """The sum over a result's families n <= N, without the n-tail past N."""
    return res.value - res.n_tail


def assert_zero_frequency_offaxis(geometry, beam, res, policy):
    """An omega = 0 off-axis result against the direct shell sums of its
    families, within 1e-10; a family whose direct sum is incomplete is checked
    against the mpmath quadrature of its t-form instead."""
    direct, complete, _ = _direct_family_sums(geometry, beam, len(res.per_n))
    for n in np.flatnonzero(~complete) + 1:
        direct[n - 1] = family_shell_sum(geometry, beam, int(n))
    assert res.frequency == 0.0 and res.value.imag == 0.0
    assert res.modes_used == 0 and res.tail_is_estimate
    assert res.converged or len(res.per_n) == policy.n_max
    assert all(type(s) is float for s in res.per_n)
    np.testing.assert_allclose(res.per_n, direct, rtol=1e-10, atol=0.0)
    assert _head(res).real == pytest.approx(direct.sum(), rel=1e-10, abs=0.0)


def _integrated(geometry, omega, loss_angle, n_max):
    """Which families the library integrates at omega > 0: those with rho =
    omega^2 / (|1 - i phi| Omega_{n,0}^2) <= 1/4."""
    base = np.array([eigenfrequency_sq(geometry, n, 0) for n in range(1, n_max + 1)])
    return omega * omega / (math.hypot(1.0, loss_angle) * base) <= 0.25


@functools.lru_cache(maxsize=None)
def _mpmath_family_sum(geometry, beam, n, omega, loss_angle):
    """family_shell_sum, or None where the family is not below its base
    resonance and the quadrature does not apply."""
    try:
        return family_shell_sum(geometry, beam, n, omega, loss_angle)
    except ValueError:
        return None


def _reference_family_sums(geometry, beam, n_max, omega, loss_angle):
    """Each family's whole shell sum and a bound on its error: the direct
    shell sum where it is complete, else the mpmath quadrature where that
    applies (to 1e-15), else the direct sum with its sum-rule remainder."""
    ref, complete, err = _direct_family_sums(geometry, beam, n_max, omega, loss_angle)
    ref, err = ref.copy(), err.copy()
    for n in np.flatnonzero(~complete) + 1:
        value = _mpmath_family_sum(geometry, beam, int(n), omega, loss_angle)
        if value is not None:
            ref[n - 1], err[n - 1] = value, 1e-15 * abs(value)
    return ref, err


def assert_offaxis_matches_oracle(geometry, beam, omegas, policy, loss_angle=1e-6):
    """An off-axis grid against its references.  At omega > 0 each integrated
    family lies within 1e-10 of its direct shell sum (or, where that is
    incomplete, of the mpmath quadrature), and so does a row's total when
    every family is integrated.  The families summed by shells lie, in sum,
    within the row's tail_bound of their references (_reference_family_sums,
    whose own error bounds widen the check).  Each of them, and the row's
    total, lies within the two results' tail_bounds of _oracle_chi_offaxis
    (the two sums cut the same shells at different places) wherever the
    oracle's extrapolated tail covers its own distance from the references;
    where it runs short, the references alone pin the row.  All of that holds
    for the row's families n <= N, the head of its value, against the
    oracle's first N families.  The value, if converged, lies within epsilon
    of the direct shell sums plus the n-tail.
    Every omega = 0 row is checked against direct shell sums.  The budget
    changes nothing but whether the grid raises: it does exactly when some
    row needs more shells than max_modes, with the rows' own families below
    the failing one as its partial per_n."""
    rows = [k for k, omega in enumerate(omegas) if omega != 0.0]
    unbudgeted = dataclasses.replace(policy, max_modes=10**9)
    results = effective_susceptibility_grid(geometry, beam, omegas, loss_angle, unbudgeted)
    got = _grid_outcome(effective_susceptibility_grid, geometry, beam, omegas, loss_angle, policy)
    if max(r.modes_used for r in results) > policy.max_modes:
        assert got[0] == "budget"
        _, message, partial, types = got
        n = int(message.rsplit("=", 1)[1])
        assert message == f"mode budget {policy.max_modes} exhausted at n={n}"
        assert types == [complex, int, float, bool]
        assert partial.modes_used > policy.max_modes and partial.tail_bound == math.inf and not partial.converged
        row = results[omegas.index(partial.frequency)]
        assert not _integrated(geometry, partial.frequency, loss_angle, n)[-1]
        assert partial.per_n == row.per_n[: n - 1] and partial.tail_is_estimate
        return
    assert got[0] == "ok" and got[1] == results
    expected = _oracle_chi_offaxis(geometry, beam, [omegas[k] for k in rows], [loss_angle] * len(rows), unbudgeted)
    for k, want in zip(rows, expected):
        res = results[k]
        n_stop = len(res.per_n)
        assert got[2][k] == (complex, int, float, bool, [complex] * n_stop)
        assert res.frequency == want.frequency and res.tail_is_estimate
        integrated = _integrated(geometry, res.frequency, loss_angle, n_stop)
        assert (res.modes_used == 0) == integrated.all()
        all_ref, all_err = _reference_family_sums(geometry, beam, policy.n_max, res.frequency, loss_angle)
        direct, complete, _ = _direct_family_sums(geometry, beam, n_stop, res.frequency, loss_angle)
        ref, err = all_ref[:n_stop], all_err[:n_stop]
        per_n, head = np.array(res.per_n), _head(res)
        np.testing.assert_allclose(per_n[integrated], ref[integrated], rtol=1e-10, atol=0.0)
        if integrated.all():
            assert head == pytest.approx(ref.sum(), rel=1e-10, abs=0.0)
            continue
        res_tail, want_tail = res.tail_bound * abs(res.value), want.tail_bound * abs(want.value)
        assert abs((per_n - ref)[~integrated].sum()) <= res_tail + err[~integrated].sum()
        tol = want_tail + res_tail
        want_per_n = np.array(want.per_n)[:n_stop]
        if abs(want.value - all_ref.sum()) <= tol + all_err.sum():
            assert np.all(np.abs(per_n[~integrated] - want_per_n[~integrated]) <= tol)
            assert abs(head - want_per_n.sum()) <= tol
        if res.converged and complete.all():
            truth = direct.sum() + res.n_tail
            assert abs(res.value - truth) <= policy.epsilon * abs(truth)
    zero = [results[k] for k in range(len(omegas)) if k not in rows]
    if zero:
        assert_zero_frequency_offaxis(geometry, beam, zero[0], policy)
        assert all(r == zero[0] for r in zero)


#: 0 first and in the middle, a repeated omega, across the 2.7e5 rad/s resonance
OFFAXIS_GRIDS = ((0.0, 2e2, 2.6e5, 2.7e5, 2.7e5, 2.8e5, 1e6), (3e4, 0.0, 2.7e5, 0.0))
OFFAXIS_POLICIES = (
    TruncationPolicy(),
    TruncationPolicy(n_max=1),
    TruncationPolicy(n_max=50),
    TruncationPolicy(epsilon=1e-6, n_max=50),
)


@pytest.mark.parametrize(
    "thickness, waist, offset",
    [
        (0.04, 0.02, 0.01),
        (0.04, 0.055, 0.185),
        (0.07, 0.005, 0.03),
        (0.07, 0.02, 0.11),
        (0.07, 0.055, 0.035),
        (0.12, 0.01, 0.1),
        (0.12, 0.03, 0.02),
    ],
)
def test_offaxis_sum_matches_oracle(thickness, waist, offset):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    beam = BeamSpec(waist=waist, offset=offset)
    for policy in OFFAXIS_POLICIES:
        for omegas in OFFAXIS_GRIDS:
            assert_offaxis_matches_oracle(geometry, beam, list(omegas), policy)


def test_offaxis_narrow_beam_matches_oracle(geo):
    # w0 = 1 mm: family 1 climbs through the levels up to 32768 shells; the
    # oracle's extrapolated tail runs 2-6x short of its error there, so the
    # shelled rows are held to the references alone
    policy = TruncationPolicy(n_max=1, epsilon=0.01)
    for omegas in OFFAXIS_GRIDS:
        assert_offaxis_matches_oracle(geo, BeamSpec(waist=0.001, offset=0.05), list(omegas), policy)


@pytest.mark.parametrize("max_modes", [1, 64, 65, 3_000, 6_005])  # the grids' shelled families need 3,586-10,302
def test_offaxis_budget_overrun_matches_oracle(geo, max_modes):
    beam = BeamSpec(waist=0.005, offset=0.03)
    policy = TruncationPolicy(max_modes=max_modes)
    for omegas in ([2.7e5], *OFFAXIS_GRIDS):
        assert_offaxis_matches_oracle(geo, beam, list(omegas), policy)
    with pytest.raises(BudgetExceededError):
        effective_susceptibility_grid(geo, beam, list(OFFAXIS_GRIDS[0]), 1e-6, policy)
    # max_modes budgets explicit shells only: omega = 0 sums none
    res = effective_susceptibility(geo, beam, 0.0, 1e-6, policy)
    assert res.modes_used == 0
    assert_zero_frequency_offaxis(geo, beam, res, policy)


@given(
    waist=st.floats(min_value=0.005, max_value=0.055),
    offset=st.floats(min_value=1e-3, max_value=0.2),
    epsilon=st.floats(min_value=1e-6, max_value=0.5),
    omegas=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=2e6)), min_size=1, max_size=5),
)
@settings(max_examples=15, deadline=None)
# the row passes near 0: its value is 1.5 times the truth, and a tail of 0.447
# of |value| holds but would not, at epsilon 0.5, bound the error by epsilon |truth|
@example(waist=0.017578125, offset=0.162109375, epsilon=0.5, omegas=[720413.0])
def test_offaxis_sum_matches_oracle_property(waist, offset, epsilon, omegas):
    geometry = solve_geometry(20.0, 0.07, FUSED_SILICA)
    offset = min(offset, 0.95 * geometry.diameter / 2.0 - waist)  # keep the beam on the face
    policy = TruncationPolicy(epsilon=epsilon, n_max=40)
    assert_offaxis_matches_oracle(geometry, BeamSpec(waist=waist, offset=offset), omegas, policy)


def assert_tail_bounds_error(geometry, beam, omega, loss_angle, policy):
    """The families n <= N of a row at omega > 0 with families summed by
    shells lie within the row's tail_bound, less the n-tail's part, of the
    families' whole shell sums: complete direct shell sums, or the mpmath
    quadrature where those are incomplete."""
    ref, err = _reference_family_sums(geometry, beam, policy.n_max, omega, loss_angle)
    assert np.all(err <= 1e-12 * np.abs(ref))
    res = effective_susceptibility(geometry, beam, omega, loss_angle, policy)
    assert res.modes_used > 0
    families_tail = (res.tail_bound - res.n_tail_bound) * abs(res.value)
    assert abs(_head(res) - ref[: len(res.per_n)].sum()) <= families_tail


@pytest.mark.parametrize(
    "thickness, waist, offset, omega, policy",
    [
        # an extrapolated tail read 1/1.086 of the true error here
        (0.12, 0.03, 0.02, 2.6e5, TruncationPolicy(epsilon=1e-6, n_max=50)),
        # the top row of the CLI's default spectrum grid, families 1-14 shelled
        (0.07, 0.02, 0.03, 2e6, TruncationPolicy()),
        # family 1 of a narrow beam near its base resonance, 20,000-21,000
        # shells: an extrapolated tail read 1/2.3 to 1/2.1 of the true error
        (0.07, 0.001, 0.05, 2.6e5, TruncationPolicy(epsilon=0.01, n_max=1)),
        (0.07, 0.001, 0.05, 2.7e5, TruncationPolicy(epsilon=0.01, n_max=1)),
        (0.07, 0.001, 0.05, 2.8e5, TruncationPolicy(epsilon=0.01, n_max=1)),
    ],
)
def test_shelled_tail_bounds_error(thickness, waist, offset, omega, policy):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    assert_tail_bounds_error(geometry, BeamSpec(waist=waist, offset=offset), omega, 1e-6, policy)


@given(
    waist=st.floats(min_value=0.002, max_value=0.055),
    offset=st.floats(min_value=1e-3, max_value=0.2),
    omega=st.floats(min_value=1.5e5, max_value=2e6),
    loss_angle=st.floats(min_value=1e-7, max_value=0.5),
)
@settings(max_examples=15, deadline=None)
def test_shelled_tail_bounds_error_property(geo, waist, offset, omega, loss_angle):
    # from 1.5e5 rad/s on family 1 can lie past half way to its base resonance
    # and be summed by shells; the check runs there, wherever the references
    # are complete
    assume(not _integrated(geo, omega, loss_angle, 1)[0])
    beam = BeamSpec(waist=waist, offset=min(offset, 0.95 * geo.diameter / 2.0 - waist))
    policy = TruncationPolicy(n_max=40)
    ref, err = _reference_family_sums(geo, beam, policy.n_max, omega, loss_angle)
    assume(np.all(err <= 1e-12 * np.abs(ref)))
    assert_tail_bounds_error(geo, beam, omega, loss_angle, policy)


def test_past_peak_of_zero_rows():
    # a row of zeros has not reached its peak yet; one that decayed to zeros has passed it
    decayed = np.array([1.0, 0.5, 0.25, 1e-300, 0.0, 0.0, 0.0, 0.0, 0.0])
    rows = np.array([np.zeros(9), decayed, 2.0 ** -np.arange(9.0)])
    assert _past_peak(rows.T).tolist() == [False, True, True]
    # still rising, and level four shells apart: not past it
    assert _past_peak(np.array([np.arange(9.0), np.ones(9)]).T).tolist() == [False, False]
    assert _oracle_shell_tail_estimate(rows[0]) == math.inf
    assert _oracle_shell_tail_estimate(decayed) == 0.0


def test_offaxis_families_with_zero_heads_are_summed(geo):
    # at w0 1 mm, d 18.5 cm (x up to 1,466) the table reads families 197-200
    # as 0 out to the 60,000-shell cap: their scaled T_0 is subnormal.  Their
    # integrals still hold them, to the digits of an mpmath quadrature.  The
    # n-tail of so narrow a beam meets its share past n = 200 only
    beam = BeamSpec(waist=0.001, offset=0.185)
    res = effective_susceptibility(geo, beam, policy=TruncationPolicy(n_max=1000))
    assert res.converged and res.modes_used == 0 and 200 < len(res.per_n) < 1000
    for n in (150, 197, 198, 199, 200):
        assert res.per_n[n - 1] == pytest.approx(family_shell_sum(geo, beam, n), rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ShellTraceTable reads families 197-200 as 0 at w0 1 mm, d 18.5 cm "
                                       "(their scaled T_0 underflows), so the study's term pool lacks them")
def test_offaxis_convergence_study_saturates_at_chi0_far_off_axis(geo):
    # the pool holds 1.3e10 modes, so a checkpoint of 10^12 takes every term it
    # holds; families 1-7 reach SHELL_CAP, whose rest is below 1e-4 of chi0
    beam = BeamSpec(waist=0.001, offset=0.185)
    saturated = convergence_study(geo, beam, 1e-6, [10**12])[0][1]
    # the study's 200 families and the n-tail past them
    families = effective_susceptibility(geo, beam, policy=EVERY_FAMILY)
    assert len(families.per_n) == 200
    assert saturated == pytest.approx(families.value.real, rel=1e-4, abs=0.0)


# ---------------------------------------------------------------------------
# The zero-frequency off-axis kernel: each family's shell sum as one
# integral, against direct shell sums and against mpmath
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "thickness, waist, offset",
    [
        (0.04, 0.001, 1e-4),
        (0.04, 0.06, 0.185),  # beta < 0 from family 4 on
        (0.07, 0.001, 0.01),
        (0.07, 0.001, 0.185),
        (0.07, 0.005, 0.03),
        (0.07, 0.02, 0.11),
        (0.12, 0.003, 0.05),
        (0.12, 0.01, 0.1),
        (0.12, 0.06, 1e-4),
    ],
)
def test_offaxis_family_integrals_match_direct_sums(thickness, waist, offset):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    beam = BeamSpec(waist=waist, offset=offset)
    # at epsilon 1e-9 the n-tail meets its share past n = 200 only: every family is summed
    res = effective_susceptibility(geometry, beam, policy=TruncationPolicy(epsilon=1e-9))
    direct, complete, _ = _direct_family_sums(geometry, beam, 200)
    assert complete.sum() >= 190  # narrow beams' lowest families run past SHELL_CAP
    assert len(res.per_n) == 200
    np.testing.assert_allclose(np.array(res.per_n)[complete], direct[complete], rtol=1e-10, atol=0.0)
    assert res.modes_used == 0 and res.tail_bound - res.n_tail_bound <= 1e-13
    if waist == 0.06:
        assert (mehler_parameters(geometry, beam, np.arange(1.0, 201.0))[0] < -0.5).any()


def test_offaxis_family_integral_branches(geo):
    # a waist with w_n^2 = w0^2 / 2 exactly gives beta = 0 for family n (the
    # plain-u form); 1.0004 times it gives |beta| < 1e-3 (plain-u too), and
    # 1.004 times it a small beta in the v-form
    n = next(n for n in range(10, 201) if math.sqrt(2.0 * acoustic_waist_sq(geo, n)) ** 2
             == 2.0 * acoustic_waist_sq(geo, n))
    w_beta0 = math.sqrt(2.0 * acoustic_waist_sq(geo, n))
    for waist, beta_range in ((w_beta0, (0.0, 0.0)), (1.0004 * w_beta0, (-1e-3, -1e-4)),
                              (1.004 * w_beta0, (-1e-2, -1e-3))):
        beam = BeamSpec(waist=waist, offset=0.05)
        beta = mehler_parameters(geo, beam, np.array([float(n)]))[0][0]
        assert beta_range[0] <= beta <= beta_range[1]
        for policy in (TruncationPolicy(), TruncationPolicy(n_max=1)):
            res = effective_susceptibility(geo, beam, 0.0, policy=policy)
            assert len(res.per_n) <= policy.n_max
            assert_zero_frequency_offaxis(geo, beam, res, policy)
        assert res.per_n[0] == pytest.approx(family_shell_sum(geo, beam, 1), rel=1e-12)
        res = effective_susceptibility(geo, beam, policy=EVERY_FAMILY)
        assert res.per_n[n - 1] == pytest.approx(family_shell_sum(geo, beam, n), rel=1e-12)
        # at 1e6 rad/s family n >= 10 is integrated as a Taylor series over the same branch
        assert_family_matches_mpmath(geo, beam, 1e6, 1e-6, n)


def _family_integrals_by_expressions(beta, gap, x, a1, pieces, plain, moments):
    """_family_integrals with a fresh array per operation: the same arithmetic
    in the same order, written as plain numpy expressions."""
    nodes, weights = _gauss_legendre()
    if plain:
        lo, hi, jac = np.zeros_like(beta), np.ones_like(beta), 1.0
    else:
        lo, hi, jac = np.log(gap), np.log1p(beta), 0.5 / beta
    width = (hi - lo) / pieces
    xj = x * jac
    beta, gap, x, xj, a1, lo, col = (a[:, None] for a in (beta, gap, x, xj, a1, lo, width))
    total = np.zeros((moments, len(beta)))
    for k in range(pieces):
        var = lo + col * (k + nodes)
        if plain:
            log_t = np.log((1.0 - var) / (1.0 + beta * var))
            log_f = a1 * log_t - x * var
        else:
            e = np.exp(var)
            log_t = np.log(((1.0 + beta) - e) / (beta * (1.0 + beta + e)))
            log_f = a1 * log_t - xj * (e - gap)
        f = np.exp(np.maximum(log_f, -700.0))
        if plain:
            f /= gap + 2.0 * beta * var
        total[0] += np.einsum("fj,j->f", f, weights)
        for j in range(1, moments):
            f *= -log_t
            total[j] += f @ weights
    for j in range(2, moments):
        total[j] /= float(math.factorial(j))
    return total * width * jac


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("waist, offset", [(0.001, 0.185), (0.02, 0.03), (0.06, 0.1)])
def test_family_integrals_in_place_equal_expressions(geo, waist, offset, plain):
    # several beams of one waist (a row of x each) in one call: each row is
    # == to the expressions on that row alone
    n = np.arange(1.0, 201.0)
    beta, _, _, _, gap = mehler_parameters(geo, BeamSpec(waist=waist, offset=offset), n)
    x = np.array([mehler_parameters(geo, BeamSpec(waist=waist, offset=d), n)[2]
                  for d in (offset, offset / 2.0, offset / 7.0)])
    if plain:  # the plain-u form's range, beta = 0 included
        beta = np.linspace(-9e-4, 9e-4, len(n))
        gap = 1.0 - beta
    a1 = n / spectrum_constants(geo)[1]
    for pieces in (8, 4):
        for moments in (1, 6):
            got = _family_integrals(beta, gap, x, a1, pieces, plain, moments)
            assert got.shape == (len(x), moments, len(n))
            for got_b, x_b in zip(got, x):
                np.testing.assert_array_equal(got_b, _family_integrals_by_expressions(beta, gap, x_b, a1, pieces,
                                                                                     plain, moments))


def assert_family_matches_mpmath(geometry, beam, omega, loss_angle, n):
    """Family n, integrated at omega, within 1e-12 of the mpmath quadrature of
    its t-form, in its real and its imaginary part."""
    assert _integrated(geometry, omega, loss_angle, n)[-1]
    got = effective_susceptibility(geometry, beam, omega, loss_angle, EVERY_FAMILY).per_n[n - 1]
    want = family_shell_sum(geometry, beam, n, omega, loss_angle)
    assert got.real == pytest.approx(want.real, rel=1e-12)
    assert got.imag == pytest.approx(want.imag, rel=1e-12)


@pytest.mark.parametrize(
    "waist, offset, loss_angle, families",
    [
        (0.02, 0.03, 1e-6, (8, 100, 200)),
        (0.001, 0.185, 1e-6, (8, 150, 200)),  # x up to 1,466: C underflows from family 141 on
        (0.055, 0.035, 1e-6, (8, 20, 200)),  # beta < 0 from family 4 on
        (0.02, 0.03, 0.5, (9, 100, 200)),
    ],
)
def test_offaxis_taylor_families_match_mpmath(geo, waist, offset, loss_angle, families):
    # at 1e6 rad/s families 1-7 cross their base resonance and are summed by
    # shells; the rest are integrated, 8 with the longest series (rho ~ 0.21)
    beam = BeamSpec(waist=waist, offset=offset)
    for n in families:
        assert_family_matches_mpmath(geo, beam, 1e6, loss_angle, n)
    if waist == 0.055:
        assert mehler_parameters(geo, beam, np.array([8.0, 20.0]))[0].max() < 0.0


@given(
    waist=st.floats(min_value=0.005, max_value=0.055),
    offset=st.floats(min_value=1e-3, max_value=0.2),
    loss_angle=st.floats(min_value=1e-7, max_value=0.5),
    omegas=st.lists(st.floats(min_value=1.0, max_value=2e6), min_size=1, max_size=5),
)
@settings(max_examples=15, deadline=None)
def test_offaxis_grid_rows_equal_single_frequency_calls(geo, waist, offset, loss_angle, omegas):
    # each (omega, family) pair takes its series length and its way of summing
    # from its own rho, so no row depends on the rest of the grid
    offset = min(offset, 0.95 * geo.diameter / 2.0 - waist)
    beam = BeamSpec(waist=waist, offset=offset)
    grid = omegas[: len(omegas) // 2] + [0.0] + omegas[len(omegas) // 2 :] + omegas[:1]
    rows = effective_susceptibility_grid(geo, beam, grid, loss_angle)
    assert rows == [effective_susceptibility(geo, beam, omega, loss_angle) for omega in grid]


def test_offaxis_zero_frequency_builds_no_table(geo, monkeypatch):
    # a grid of omega = 0 alone sums no shell, nor does one whose every family
    # lies well below its resonance; one near family 1's builds a table of
    # family 1 alone
    import mirnoise.susceptibility as susceptibility

    built = []
    monkeypatch.setattr(susceptibility, "ShellTraceTable", lambda *args: built.append(args) or ShellTraceTable(*args))
    beam = BeamSpec(waist=0.02, offset=0.03)
    res = effective_susceptibility_grid(geo, beam, [0.0, 0.0])
    assert not built and res[0] == res[1]
    res = effective_susceptibility_grid(geo, beam, [0.0, 1e3])
    assert not built and res[1].modes_used == 0
    res = effective_susceptibility_grid(geo, beam, [0.0, 2.7e5])
    assert [args[2] for args in built] == [range(1, 2)] and res[1].modes_used > 0


@pytest.mark.parametrize("waist", [1e-4, 3e-5])
def test_narrow_beam_family_integral_matches_mpmath(geo, waist):
    # 1 - beta = 1 / (0.5 + g) comes exact from mehler_parameters; formed as
    # 1 - beta it lost 3.9e-12 (0.1 mm) and 3.8e-11 (30 um) of family 1
    om_m2, curv = spectrum_constants(geo)
    beam = BeamSpec(waist=waist)
    (value,), _, scale = _offaxis_integrals(geo, [beam], om_m2, curv, np.array([1.0]), 1)
    want = family_shell_sum(geo, beam, 1)
    assert abs(scale[0] * value[0, 0] - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# The n-tail: the families past the stop N in closed form (_n_tail)
# ---------------------------------------------------------------------------


def test_exp_e1_matches_mpmath():
    # both branches, the switch at z = 1 and the z of the standard beams (21-57)
    for z in (1e-3, 0.3, 0.999, 1.0, 2.0, 21.0, 57.0, 430.0, 7e4):
        with mp.workdps(30):
            want = float(mp.exp(z) * mp.e1(z))
        assert _exp_e1(z) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_power_tails_match_mpmath():
    # sum_{m > N} 1/m^k for k = 2, 3, 4
    n = np.arange(0.0, 600.0)
    sums = _power_tails(n)
    for big_n in (0, 1, 7, 31, 255, 256, 599):
        with mp.workdps(30):
            want = [float(mp.psi(k - 1, big_n + 1) * (-1) ** k / mp.factorial(k - 1)) for k in (2, 3, 4)]
        for column, value in zip(sums, want):
            assert column[big_n] == pytest.approx(value, rel=1e-14, abs=0.0)
        # each value depends on its own N alone, not on the run it is read in
        assert [column[0] for column in _power_tails(n[big_n : big_n + 1])] == [column[big_n] for column in sums]


@pytest.mark.parametrize(
    "thickness, waist, offset",
    [(0.07, 0.02, 0.0), (0.07, 0.001, 0.0), (0.12, 0.06, 0.0), (0.07, 0.02, 0.05), (0.04, 0.005, 0.185),
     (0.12, 0.001, 0.01)],
)
def test_n_tail_constant_matches_mpmath(thickness, waist, offset):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    with mp.workdps(30):
        h, radius = mp.mpf(geometry.thickness), mp.mpf(geometry.curvature_radius)
        om_m2 = (mp.pi * geometry.material.sound_velocity / h) ** 2
        k0 = 2 / (mp.pi * geometry.material.density * h * mp.mpf(waist) ** 2 * om_m2)
        z, shift = 4 * h * radius / mp.mpf(waist) ** 2, mp.mpf(offset) ** 2 / (h * radius)
        want = float(k0 * mp.quad(lambda t: mp.exp(-t - t * z / (z + t) * shift) * z / (z + t), [0, 1, 10, mp.inf]))
    assert _n_tail_constant(geometry, waist, offset) == pytest.approx(want, rel=1e-13, abs=0.0)


def _fine_family_sums(geometry, beam, n_max=2000, pieces=32):
    """Each family's omega = 0 sum for n <= n_max, by the library's integral
    (_family_integrals) on `pieces` equal pieces, four times the library's
    eight, and an error estimate from twice as many; and K psi'(n_max + 1),
    the families past n_max.  The eight-piece rule misreads the families past
    n ~ 300 of beams narrower than about 5 mm (by 5-19 times the n-tail's
    half-width at h 4 cm), so a library run to n_max 4000 cannot serve as
    the reference there."""
    om_m2, curv = spectrum_constants(geometry)
    n = np.arange(1.0, n_max + 1.0)
    beta, _, x, c0, gap = mehler_parameters(geometry, beam, n)
    sums = []
    for rule in (pieces, 2 * pieces):
        value = np.empty(n_max)
        for plain in (True, False):
            f = np.flatnonzero((np.abs(beta) < 1e-3) == plain)
            if len(f):
                value[f] = _family_integrals(beta[f], gap[f], x[None, f], n[f] / curv, rule, plain, 1)[0, 0]
        sums.append(c0 / (om_m2 * curv * n) * value)
    beyond = _n_tail_constant(geometry, beam.waist, beam.offset) * _power_tails(np.array([float(n_max)]))[0][0]
    return sums[0], np.abs(sums[0] - sums[1]), beyond


@given(
    thickness=st.floats(min_value=0.04, max_value=0.12),
    waist=st.floats(min_value=0.002, max_value=0.06),
    offset=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.2)),
    epsilon=st.sampled_from([1e-2, 1e-3, 1e-4]),
)
@settings(max_examples=12, deadline=None)
@example(thickness=0.04, waist=0.002, offset=0.2, epsilon=1e-4)  # the narrowest, farthest off axis
@example(thickness=0.12, waist=0.06, offset=0.0, epsilon=1e-2)  # stops at N = 4
def test_n_tail_bracket_holds(thickness, waist, offset, epsilon):
    # the true sum of the families past the stop N lies within the n-tail's
    # half-width of its midpoint
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    beam = BeamSpec(waist=waist, offset=min(offset, 0.95 * geometry.diameter / 2.0 - waist))
    res = effective_susceptibility(geometry, beam, policy=TruncationPolicy(epsilon=epsilon, max_modes=10**8))
    families, errors, beyond = _fine_family_sums(geometry, beam)
    n_stop, half = len(res.per_n), res.n_tail_bound * abs(res.value)
    assert errors[n_stop:].sum() <= 1e-3 * half
    assert abs(families[n_stop:].sum() + beyond - res.n_tail.real) <= half
    assert res.n_tail.imag == 0.0 and res.tail_is_estimate


@pytest.mark.parametrize("thickness", [0.04, 0.12])
@pytest.mark.parametrize("waist, offset", [(0.001, 0.0), (0.02, 0.0), (0.06, 0.0), (0.002, 0.15), (0.02, 0.025),
                                           (0.055, 0.1)])
def test_n_tail_past_matches_the_sums_n_tail(thickness, waist, offset):
    # the convergence study's n-tail past n_max is the one a sum that stops at
    # n_max adds, from its own sum of family n_max
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    beam = BeamSpec(waist=waist, offset=offset)
    res = effective_susceptibility(geometry, beam, policy=TruncationPolicy(epsilon=1e-12, max_modes=10**8))
    assert len(res.per_n) == 200
    assert _n_tail_past(geometry, beam, 200) == pytest.approx(res.n_tail.real, rel=1e-10, abs=0.0)


@given(
    thickness=st.floats(min_value=0.04, max_value=0.12),
    waist=st.floats(min_value=0.005, max_value=0.06),
    offset=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.2)),
    epsilon=st.floats(min_value=1e-5, max_value=1e-2),
)
@settings(max_examples=12, deadline=None)
def test_converged_chi0_within_epsilon_of_the_infinite_sum(thickness, waist, offset, epsilon):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    beam = BeamSpec(waist=waist, offset=min(offset, 0.95 * geometry.diameter / 2.0 - waist))
    res = effective_susceptibility(geometry, beam, policy=TruncationPolicy(epsilon=epsilon))
    families, _, beyond = _fine_family_sums(geometry, beam)
    truth = families.sum() + beyond
    if res.converged:
        assert abs(res.value.real - truth) <= epsilon * truth
    else:  # only where the n-tail has not met its share by n_max
        assert len(res.per_n) == 200


@pytest.mark.parametrize(
    "thickness, waist, offset",
    [(0.07, 0.02, 0.0), (0.04, 0.055, 0.0), (0.12, 0.01, 0.0), (0.07, 0.02, 0.03), (0.12, 0.03, 0.11),
     (0.04, 0.01, 0.05)],
)
def test_converged_grid_rows_within_epsilon_of_the_infinite_sum(thickness, waist, offset):
    # 12 points across the fundamental resonance up to 1e6 rad/s, against
    # rows summed to n_max 2000 at epsilon 1e-8
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    beam = BeamSpec(waist=waist, offset=offset)
    omegas = [float(omega) for omega in np.geomspace(2e2, 1e6, 12)]
    policy = TruncationPolicy()
    rows = effective_susceptibility_grid(geometry, beam, omegas, 1e-6, policy)
    refs = effective_susceptibility_grid(geometry, beam, omegas, 1e-6,
                                         TruncationPolicy(n_max=2000, epsilon=1e-8, max_modes=10**8))
    for row, ref in zip(rows, refs):
        assert ref.tail_bound <= 1e-3 * policy.epsilon
        if row.converged:
            assert abs(row.value - ref.value) <= policy.epsilon * abs(ref.value)
    assert sum(row.converged for row in rows) >= 10


@pytest.mark.parametrize("waist, offset", [(0.02, 0.03), (0.055, 0.11), (0.005, 0.03), (0.01, 0.185)])
def test_n_max_is_a_ceiling(geo, waist, offset):
    # off axis at omega = 0 a family's integral does not depend on n_max, so
    # a sum that stops below 200 is == at the ceilings 200 and 400
    beam = BeamSpec(waist=waist, offset=offset)
    res = effective_susceptibility(geo, beam)
    assert len(res.per_n) < 200 and res.converged
    assert effective_susceptibility(geo, beam, policy=TruncationPolicy(n_max=400)) == res
    # a centered family's blocks, and a shelled one's shells, meet targets
    # epsilon |total| / (2 n_max): there the two agree within their tails
    for b, omega in ((BeamSpec(waist=waist), 0.0), (BeamSpec(waist=waist), 3e5), (beam, 3e5), (beam, 1e6)):
        low, high = (effective_susceptibility(geo, b, omega, 1e-6, TruncationPolicy(n_max=n_max))
                     for n_max in (200, 400))
        assert len(low.per_n) < 200
        assert abs(low.value - high.value) <= low.tail_bound * abs(low.value) + high.tail_bound * abs(high.value)


def test_family_runs_equal_one_pass(geo):
    # moment 0 of each family, and its check, do not depend on the families
    # or beams that share the pass; at omega > 0 a grid integrates all
    # n_max families in one pass, which serves its omega = 0 rows too
    om_m2, curv = spectrum_constants(geo)
    n = np.arange(1.0, 301.0)
    plain = math.sqrt(2.0 * acoustic_waist_sq(geo, 50.0))  # beta_50 = 0: both forms in one pass
    for waist in (0.001, 0.02, plain):
        beams = [BeamSpec(waist=waist, offset=d) for d in (0.01, 0.05, 0.1)]
        value, check, scale = _offaxis_integrals(geo, beams, om_m2, curv, n, 1)
        for lo, hi in ((0, 32), (32, 96), (96, 224), (224, 300), (5, 17)):
            part, part_check, part_scale = _offaxis_integrals(geo, beams[1:], om_m2, curv, n[lo:hi], 3)
            assert np.array_equal(part[:, 0], value[1:, 0, lo:hi])
            assert np.array_equal(part_check[:, 0], check[1:, 0, lo:hi])
            assert np.array_equal(part_scale, scale[lo:hi])
        for d in (0.01, 0.1):
            beam = BeamSpec(waist=waist, offset=d)
            assert effective_susceptibility_grid(geo, beam, [0.0, 3e5], 1e-6)[0] == effective_susceptibility(geo, beam)
