import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from mirnoise.geometry import FUSED_SILICA, solve_geometry
from mirnoise.modes import acoustic_waist_sq, fundamental_frequency, shell_frequency_sq, spectrum_constants
from mirnoise.validation import (
    ModeIndex,
    effective_mass,
    effective_mass_oracle,
    eigenfrequency_sq,
    factorial_ratio,
    generalized_laguerre,
    mode_data,
    surface_displacement,
)


@pytest.fixture(scope="module")
def geo():
    return solve_geometry(20.0, 0.07, FUSED_SILICA)


def test_mode_index_validation():
    with pytest.raises(ValueError):
        ModeIndex(n=0)
    with pytest.raises(ValueError):
        ModeIndex(n=1, p=-1)
    with pytest.raises(ValueError):
        ModeIndex(n=1, l=0, parity="sin")
    assert ModeIndex(n=1, p=2, l=3).shell == 7


def test_fundamental_frequency_40khz(geo):
    # pi * 5960 / 0.07 ~ 2.675e5 rad/s, i.e. ~42.6 kHz: the "ten times stiffer
    # than a cylinder" headline number
    om = fundamental_frequency(geo)
    assert om == pytest.approx(2.675e5, rel=1e-3, abs=0.0)
    assert om / (2 * math.pi) == pytest.approx(42.6e3, rel=2e-3, abs=0.0)


def test_acoustic_waist_hand_value(geo):
    # w_1^2 = (2 h0/pi) sqrt(R h0)
    w1sq = acoustic_waist_sq(geo, 1)
    expected = (2 * 0.07 / math.pi) * math.sqrt(geo.curvature_radius * 0.07)
    assert w1sq == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert math.sqrt(w1sq) == pytest.approx(0.0961, rel=2e-3, abs=0.0)


def test_eigenfrequency_fundamental_mode(geo):
    om_m2 = fundamental_frequency(geo) ** 2
    curv = (2 / math.pi) * math.sqrt(0.07 / geo.curvature_radius)
    assert eigenfrequency_sq(geo, 1, 0) == pytest.approx(om_m2 * (1 + curv), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("thickness", [0.04, 0.07, 0.12])
def test_shell_frequency_sq_matches_reference(thickness):
    # both square Omega_M as om * om, so every value is the same double
    geo = solve_geometry(20.0, thickness, FUSED_SILICA)
    om_m2, curv = spectrum_constants(geo)
    n, s = np.arange(1, 201), np.arange(65)
    grid = shell_frequency_sq(om_m2, curv, n.astype(float)[:, None], s.astype(float))
    reference = [[eigenfrequency_sq(geo, n_k, s_k) for s_k in s.tolist()] for n_k in n.tolist()]
    assert np.array_equal(grid, reference)
    for n_k, s_k in ((1, 0), (7, 3), (200, 64)):  # Python floats and ints
        assert shell_frequency_sq(om_m2, curv, float(n_k), s_k) == eigenfrequency_sq(geo, n_k, s_k)


def test_mode_data_invariants(geo):
    md = mode_data(geo, ModeIndex(n=3, p=2, l=1))
    assert md.waist**2 * 3 == pytest.approx(acoustic_waist_sq(geo, 1), rel=1e-12, abs=0.0)
    assert md.frequency**2 == pytest.approx(eigenfrequency_sq(geo, 3, 5), rel=1e-12, abs=0.0)
    assert md.fundamental_frequency == pytest.approx(fundamental_frequency(geo), rel=1e-14, abs=0.0)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_frequency_monotone_in_each_index(n, p, l):
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    base = eigenfrequency_sq(geo, n, 2 * p + l)
    assert eigenfrequency_sq(geo, n + 1, 2 * p + l) > base
    assert eigenfrequency_sq(geo, n, 2 * (p + 1) + l) > base
    assert eigenfrequency_sq(geo, n, 2 * p + l + 1) > base


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=30),
)
def test_shell_degeneracy(n, p, l):
    # all (p, l) with equal 2p+l share one eigenfrequency
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    shell = 2 * p + l
    f_ref = eigenfrequency_sq(geo, n, shell)
    for p2 in range(shell // 2 + 1):
        assert eigenfrequency_sq(geo, n, 2 * p2 + (shell - 2 * p2)) == pytest.approx(
            f_ref, rel=1e-12, abs=0.0
        )


@given(st.integers(min_value=1, max_value=50))
def test_waist_scaling(n):
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    assert acoustic_waist_sq(geo, n) * n == pytest.approx(
        acoustic_waist_sq(geo, 1), rel=1e-12, abs=0.0
    )


def test_factorial_ratio():
    assert factorial_ratio(2, 3) == 5 * 4 * 3
    assert factorial_ratio(0, 0) == 1.0
    assert factorial_ratio(7, 0) == 1.0
    assert factorial_ratio(50, 50) == pytest.approx(
        math.factorial(100) / math.factorial(50), rel=1e-12, abs=0.0
    )


def test_effective_mass_l0_independent_of_p(geo):
    masses = [effective_mass(geo, ModeIndex(n=2, p=p, l=0)) for p in range(6)]
    for m in masses[1:]:
        assert m == masses[0]
    expected = (math.pi / 4) * 2200.0 * 0.07 * acoustic_waist_sq(geo, 2)
    assert masses[0] == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_fundamental_effective_mass_value(geo):
    # ~1.117 kg for the 7 cm mirror
    m1 = effective_mass(geo, ModeIndex(n=1))
    assert m1 == pytest.approx(1.117, rel=1e-3, abs=0.0)


def test_surface_displacement_axis_values(geo):
    assert surface_displacement(geo, ModeIndex(n=1), 0.0, 0.0) == pytest.approx(1.0)
    for l in (1, 2, 5):
        assert surface_displacement(geo, ModeIndex(n=1, p=0, l=l), 0.0, 0.3) == 0.0


def test_surface_displacement_explicit_polynomial(geo):
    # L_3^2(x) = -x^3/6 + 5x^2/2 - 10x + 10, assembled from monomials
    idx = ModeIndex(n=1, p=3, l=2)
    w1 = math.sqrt(acoustic_waist_sq(geo, 1))
    r = w1 / 2
    x = 2 * r * r / (w1 * w1)
    lag = -(x**3) / 6 + 5 * x**2 / 2 - 10 * x + 10
    expected = math.exp(-r * r / (w1 * w1)) * (math.sqrt(2) * r / w1) ** 2 * lag
    got = surface_displacement(geo, idx, r, 0.0)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_surface_displacement_parity(geo):
    idx_cos = ModeIndex(n=1, p=1, l=3, parity="cos")
    idx_sin = ModeIndex(n=1, p=1, l=3, parity="sin")
    phi = 0.37
    r = 0.05
    assert surface_displacement(geo, idx_sin, r, phi) == pytest.approx(
        surface_displacement(geo, idx_cos, r, phi) * math.tan(3 * phi), rel=1e-9, abs=0.0
    )


def test_surface_displacement_domain_error(geo):
    with pytest.raises(ValueError):
        surface_displacement(geo, ModeIndex(n=1), geo.diameter, 0.0)


@given(
    st.integers(min_value=0, max_value=10),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_laguerre_recurrence_vs_monomials(p, x):
    # explicit alternating-sum expansion as the independent reference, summed
    # in exact rationals: in floats its cancellation alone exceeds 1e-10
    # relative (p=10, x=11.84375 loses 5.6e-8)
    ref = float(sum(
        Fraction((-1) ** k * math.comb(p, p - k), math.factorial(k)) * Fraction(x) ** k
        for k in range(p + 1)
    ))
    got = float(generalized_laguerre(p, 0, x))
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0.0, max_value=60.0),
)
@settings(max_examples=60)
def test_laguerre_recurrence_vs_scipy(p, l, x):
    got = float(generalized_laguerre(p, l, x))
    ref = float(eval_genlaguerre(p, l, x))
    assert got == pytest.approx(ref, rel=1e-8, abs=1e-8 * (1 + abs(ref)))


def test_effective_mass_oracle_matches_closed_forms(geo):
    # fundamental: (pi/4) rho h0 w_1^2
    m_closed = effective_mass(geo, ModeIndex(n=1))
    m_quad = effective_mass_oracle(geo, ModeIndex(n=1))
    assert m_quad == pytest.approx(m_closed, rel=1e-7, abs=0.0)
    # n=2 mass is half the n=1 mass (w_n^2 ~ 1/n)
    assert effective_mass_oracle(geo, ModeIndex(n=2)) == pytest.approx(
        m_closed / 2, rel=1e-7, abs=0.0
    )
    # l >= 1 closed form carries (p+l)!/p!; the (1,2,3) mode spills over the
    # mirror rim (confinement ratio ~0.96), so the face quadrature sits ~2.3%
    # below the unbounded-plane closed form
    idx = ModeIndex(n=1, p=2, l=3)
    expected = (math.pi / 8) * 2200.0 * 0.07 * acoustic_waist_sq(geo, 1) * (5 * 4 * 3)
    assert effective_mass(geo, idx) == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert effective_mass_oracle(geo, idx) == pytest.approx(expected, rel=3e-2, abs=0.0)


def test_closed_form_mass_against_unbounded_plane_quadrature(geo):
    # same paraxial kinetic-energy integral, but over the whole plane, which
    # is the normalization the closed forms actually use
    idx = ModeIndex(n=1, p=2, l=3)
    wn2 = acoustic_waist_sq(geo, 1)
    wn = math.sqrt(wn2)
    rmax = 8.0 * wn * math.sqrt(idx.shell + 1)
    nodes, weights = np.polynomial.legendre.leggauss(2000)
    r = 0.5 * rmax * (nodes + 1.0)
    wr = 0.5 * rmax * weights
    lag = generalized_laguerre(idx.p, idx.l, 2 * r * r / wn2)
    u2 = np.exp(-2 * r * r / wn2) * (np.sqrt(2) * r / wn) ** (2 * idx.l) * lag**2
    angular = math.pi  # integral of cos^2(l phi) for l >= 1
    mass = 2200.0 * (0.07 / 2.0) * angular * float((u2 * r * wr).sum())
    assert mass == pytest.approx(effective_mass(geo, idx), rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "n,p,l",
    [(1, 0, 0), (2, 0, 0), (2, 2, 1), (3, 4, 2), (5, 5, 5), (5, 7, 0), (5, 0, 14), (4, 6, 3), (5, 4, 6)],
)
def test_effective_mass_oracle_grid(geo, n, p, l):
    # indices confined well inside the face, where rim truncation is negligible
    idx = ModeIndex(n=n, p=p, l=l)
    assert effective_mass_oracle(geo, idx) == pytest.approx(
        effective_mass(geo, idx), rel=1e-6, abs=0.0
    )
