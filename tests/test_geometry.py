import math

import pytest
from hypothesis import given, strategies as st

from mirnoise.errors import InfeasibleGeometryError
from mirnoise.geometry import FUSED_SILICA, Material, solve_geometry
from mirnoise.validation import thickness_profile


def test_material_validation():
    with pytest.raises(ValueError):
        Material(density=-1.0, sound_velocity=5960.0)
    with pytest.raises(ValueError):
        Material(density=2200.0, sound_velocity=0.0)
    with pytest.raises(ValueError):
        Material(density=2200.0, sound_velocity=5960.0, loss_angle=1.5)


def test_reference_geometry_20kg_7cm():
    # 20 kg / 7 cm silica mirror: R ~ 61 cm, D ~ 57 cm
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    assert 0.609 <= geo.curvature_radius <= 0.619
    assert 0.564 <= geo.diameter <= 0.574
    assert not geo.paraxial_warning


def test_solve_geometry_hand_value_5kg():
    # R = M/(pi rho h0^2) + h0/3
    geo = solve_geometry(5.0, 0.07, FUSED_SILICA)
    expected = 5.0 / (math.pi * 2200.0 * 0.07**2) + 0.07 / 3.0
    assert geo.curvature_radius == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert geo.curvature_radius == pytest.approx(0.171, rel=2e-3, abs=0.0)


def test_infeasible_at_sphere_segment_boundary():
    # mass chosen so that R = h0 exactly: no segment exists
    h0 = 0.07
    mass = math.pi * FUSED_SILICA.density * h0**2 * (2.0 * h0 / 3.0)
    with pytest.raises(InfeasibleGeometryError):
        solve_geometry(mass, h0, FUSED_SILICA)
    with pytest.raises(ValueError):
        solve_geometry(-1.0, h0, FUSED_SILICA)


def test_paraxial_warning_flag():
    # a 5 kg mirror at 7 cm thickness has h0/R ~ 0.41
    geo = solve_geometry(5.0, 0.07, FUSED_SILICA)
    assert geo.paraxial_ratio > 0.25
    assert geo.paraxial_warning


def test_thickness_profile_endpoints():
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    assert thickness_profile(geo, 0.0) == pytest.approx(geo.thickness, rel=1e-14, abs=0.0)
    assert thickness_profile(geo, geo.diameter / 2.0) == pytest.approx(0.0, abs=1e-12)


def test_thickness_profile_hand_value():
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    r = 0.2
    expected = math.sqrt(geo.curvature_radius**2 - r * r) - (geo.curvature_radius - 0.07)
    assert thickness_profile(geo, r) == pytest.approx(expected, rel=1e-14, abs=0.0)
    # circle-equation evaluation at R ~ 0.6139 m gives about 36.5 mm
    assert expected == pytest.approx(0.03651, rel=1e-3, abs=0.0)


def test_thickness_profile_domain():
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    with pytest.raises(ValueError):
        thickness_profile(geo, -0.01)
    with pytest.raises(ValueError):
        thickness_profile(geo, geo.diameter / 2.0 + 0.01)


feasible = st.tuples(
    st.floats(min_value=1.0, max_value=100.0),
    st.floats(min_value=0.02, max_value=0.15),
    st.floats(min_value=1000.0, max_value=5000.0),
)


@given(feasible)
def test_mass_round_trip(args):
    mass, h0, rho = args
    mat = Material(density=rho, sound_velocity=5960.0)
    try:
        geo = solve_geometry(mass, h0, mat)
    except InfeasibleGeometryError:
        return
    back = math.pi * rho * h0**2 * (geo.curvature_radius - h0 / 3.0)
    assert back == pytest.approx(mass, rel=1e-12, abs=0.0)
    d = 2.0 * math.sqrt(h0 * (2.0 * geo.curvature_radius - h0))
    assert geo.diameter == pytest.approx(d, rel=1e-12, abs=0.0)


@given(
    st.floats(min_value=1.0, max_value=50.0),
    st.floats(min_value=1.0, max_value=50.0),
    st.floats(min_value=0.02, max_value=0.12),
)
def test_radius_monotone_in_mass(m1, m2, h0):
    if m1 == m2:
        return
    lo, hi = sorted((m1, m2))
    try:
        g_lo = solve_geometry(lo, h0, FUSED_SILICA)
        g_hi = solve_geometry(hi, h0, FUSED_SILICA)
    except InfeasibleGeometryError:
        return
    assert g_hi.curvature_radius > g_lo.curvature_radius


@given(
    st.floats(min_value=0.02, max_value=0.12),
    st.floats(min_value=0.02, max_value=0.12),
)
def test_radius_monotone_in_thickness(h1, h2):
    if h1 == h2:
        return
    lo, hi = sorted((h1, h2))
    try:
        g_lo = solve_geometry(20.0, lo, FUSED_SILICA)
        g_hi = solve_geometry(20.0, hi, FUSED_SILICA)
    except InfeasibleGeometryError:
        return
    assert g_hi.curvature_radius < g_lo.curvature_radius


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_profile_strictly_decreasing(f1, f2):
    geo = solve_geometry(20.0, 0.07, FUSED_SILICA)
    lo, hi = sorted((f1, f2))
    # h falls off quadratically near the apex, so separate the squares to
    # stay above float resolution of the profile
    if hi * hi - lo * lo < 1e-10:
        return
    r_lo = lo * geo.diameter / 2.0
    r_hi = hi * geo.diameter / 2.0
    assert thickness_profile(geo, r_hi) < thickness_profile(geo, r_lo)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError):
        Material(density=bad, sound_velocity=5960.0)
    with pytest.raises(ValueError):
        Material(density=2200.0, sound_velocity=bad)
    with pytest.raises(ValueError):
        Material(density=2200.0, sound_velocity=5960.0, loss_angle=bad)
    with pytest.raises(ValueError):
        solve_geometry(bad, 0.07, FUSED_SILICA)
    with pytest.raises(ValueError):
        solve_geometry(20.0, bad, FUSED_SILICA)
