import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mirnoise import susceptibility, sweeps
from mirnoise.geometry import FUSED_SILICA, solve_geometry
from mirnoise.modes import acoustic_waist_sq, fundamental_frequency
from mirnoise.overlap import BeamSpec, ShellTraceTable, mehler_parameters
from mirnoise.susceptibility import TruncationPolicy, _chi0_offsets, effective_susceptibility
from mirnoise.sweeps import (
    CSV_HEADER,
    CompareReport,
    SweepSpec,
    _POOL_FLOOR,
    _centered_term_pool,
    _shell_term_pool,
    compare_report,
    convergence_study,
    run_sweep,
    sweep_csv,
)
from mirnoise.validation import ModeIndex, mode_data, overlap_centered


@pytest.fixture(scope="module")
def geo():
    return solve_geometry(20.0, 0.07, FUSED_SILICA)


def test_sweep_spec_validation():
    for parameter in ("bogus", "mode_count"):
        with pytest.raises(ValueError):
            SweepSpec(parameter=parameter, lo=10.0, hi=100.0, points=5)
    with pytest.raises(ValueError):
        SweepSpec(parameter="waist", lo=0.06, hi=0.01, points=5)
    with pytest.raises(ValueError):
        SweepSpec(parameter="waist", lo=0.01, hi=0.06, points=1)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.06), (math.nan, 0.06)):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(parameter="offset", lo=lo, hi=hi, points=5)
    with pytest.raises(ValueError, match="finite"):  # the swept parameter's fixed value too
        SweepSpec(parameter="mass", lo=5.0, hi=10.0, points=2, mass=math.nan)
    for points in (2.5, 3.0, "3"):  # a count is an integer
        with pytest.raises(ValueError, match="points must be an integer count"):
            SweepSpec(parameter="waist", lo=0.01, hi=0.06, points=points)
    assert len(SweepSpec(parameter="waist", lo=0.01, hi=0.06, points=np.int64(3)).values()) == 3


def test_invalid_point_aborts_before_computation():
    # thickness too large for the fixed mass at the top of the range
    spec = SweepSpec(parameter="thickness", lo=0.05, hi=0.60, points=4, mass=1.0)
    with pytest.raises(Exception):
        run_sweep(spec)


def test_thickness_sweep_monotone_increasing():
    spec = SweepSpec(parameter="thickness", lo=0.04, hi=0.12, points=9)
    rows = run_sweep(spec)
    chi = [r.chi0 for r in rows]
    assert all(b > a for a, b in zip(chi, chi[1:]))
    assert all(r.converged for r in rows)


def test_waist_sweep_strictly_decreasing():
    spec = SweepSpec(parameter="waist", lo=0.01, hi=0.06, points=8)
    rows = run_sweep(spec)
    chi = [r.chi0 for r in rows]
    assert all(b < a for a, b in zip(chi, chi[1:]))


@given(thickness=st.floats(min_value=0.04, max_value=0.12), waist=st.floats(min_value=0.005, max_value=0.055))
@example(thickness=0.07, waist=0.02)
@settings(max_examples=10, deadline=None)
def test_offset_sweep_nonincreasing(thickness, waist):
    # chi0 falls as the beam moves off axis, from the centre to the rim
    radius = solve_geometry(20.0, thickness, FUSED_SILICA).diameter / 2.0
    spec = SweepSpec(parameter="offset", lo=0.0, hi=0.95 * (radius - waist), points=7, thickness=thickness,
                     waist=waist)
    chi = [r.chi0 for r in run_sweep(spec)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(chi, chi[1:]))


@pytest.mark.parametrize("waist", [0.02, 0.055, "plain", 0.001])
def test_offset_sweep_rows_equal_single_point_calls(geo, waist, monkeypatch):
    if waist == "plain":  # w0^2 = 2 w_50^2: beta_50 = 0, and its neighbours take the plain-u form
        waist = math.sqrt(2.0 * acoustic_waist_sq(geo, 50.0))
        beta = mehler_parameters(geo, BeamSpec(waist=waist), np.arange(1.0, 201.0))[0]
        assert 0 < np.count_nonzero(np.abs(beta) < 1e-3) < 200
    spec = SweepSpec(parameter="offset", lo=0.0, hi=min(0.22, 0.95 * geo.diameter / 2.0 - waist), points=7,
                     waist=waist)
    calls = []
    integrals = susceptibility._offaxis_integrals
    monkeypatch.setattr(susceptibility, "_offaxis_integrals", lambda *a: calls.append(a) or integrals(*a))
    rows = run_sweep(spec)
    assert len(calls) == 1 and len(calls[0][1]) == 6  # one quadrature pass, every offset but d = 0
    monkeypatch.undo()
    offsets = [row.value for row in rows]
    assert offsets[0] == 0.0 and rows[0].modes_used > 0  # the centered path
    batch = [None] + _chi0_offsets(geo, waist, offsets[1:], spec.policy)
    for row, d, res in zip(rows, offsets, batch):
        one = effective_susceptibility(*spec.operating_point(d), policy=spec.policy)
        if res is not None:
            assert res == one  # value, tail_bound, per_n, converged and the rest
        assert (row.chi0, row.modes_used, row.tail_bound, row.converged) == (
            one.value.real, one.modes_used, one.tail_bound, one.converged)


def test_offset_sweep_row_seconds_share_the_pass():
    rows = run_sweep(SweepSpec(parameter="offset", lo=0.0, hi=0.2, points=5))
    assert all(row.seconds > 0.0 for row in rows)
    assert len({row.seconds for row in rows[1:]}) == 1  # an equal share each


def test_mass_sweep_rows_flag_paraxiality():
    spec = SweepSpec(parameter="mass", lo=5.0, hi=50.0, points=4)
    rows = run_sweep(spec)
    assert rows[0].paraxial_warning  # 5 kg at 7 cm is strongly curved
    assert not rows[-1].paraxial_warning


def test_unconverged_rows_recorded_not_raised():
    policy = TruncationPolicy(epsilon=1e-6, max_modes=50, n_max=200)
    spec = SweepSpec(parameter="waist", lo=0.02, hi=0.04, points=3, policy=policy)
    rows = run_sweep(spec)
    assert len(rows) == 3
    assert not any(r.converged for r in rows)
    assert all(math.isinf(r.tail_bound) for r in rows)


def test_jobs_parallel_matches_serial():
    spec = SweepSpec(parameter="mass", lo=10.0, hi=30.0, points=3)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert [(r.value, r.chi0, r.modes_used) for r in serial] == [
        (r.value, r.chi0, r.modes_used) for r in parallel
    ]


def test_sweep_csv_deterministic_and_excludes_timing():
    spec = SweepSpec(parameter="waist", lo=0.02, hi=0.04, points=3)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    sweep_csv(buf_a, spec, run_sweep(spec))
    sweep_csv(buf_b, spec, run_sweep(spec))
    assert buf_a.getvalue() == buf_b.getvalue()
    header, columns = buf_a.getvalue().splitlines()[:2]
    assert header == CSV_HEADER
    assert "seconds" not in columns


def test_convergence_single_mode_checkpoint(geo):
    beam = BeamSpec(waist=0.02)
    pairs = convergence_study(geo, beam, 1e-6, [1, 100])
    mode = mode_data(geo, ModeIndex(n=1))
    ovl = overlap_centered(mode, beam).value
    single = ovl * ovl / (mode.effective_mass * mode.frequency**2)
    assert pairs[0] == (1, pytest.approx(single, rel=1e-12))


def test_convergence_nondecreasing_and_saturating(geo):
    beam = BeamSpec(waist=0.02)
    pairs = convergence_study(geo, beam, 1e-6, [1, 10, 100, 10_000, 1_000_000])
    values = [v for _, v in pairs]
    assert all(b >= a for a, b in zip(values, values[1:]))
    full = effective_susceptibility(geo, beam, policy=TruncationPolicy(epsilon=1e-9)).value.real
    assert values[-1] == pytest.approx(full, rel=1e-6)


def test_convergence_requires_increasing_checkpoints(geo):
    with pytest.raises(ValueError):
        convergence_study(geo, BeamSpec(waist=0.02), 1e-6, [100, 100])
    with pytest.raises(ValueError):
        convergence_study(geo, BeamSpec(waist=0.02), 1e-6, [0, 10])
    with pytest.raises(ValueError):
        convergence_study(geo, BeamSpec(waist=0.02), 1e-6, [])


@pytest.mark.parametrize("offset", [0.0, 0.03])
@pytest.mark.parametrize("checkpoints", [[1.5, 10.2], [1, 10.0], [np.float64(5)]])
def test_convergence_study_rejects_fractional_checkpoints(geo, offset, checkpoints):
    with pytest.raises(ValueError, match="checkpoint must be an integer count"):
        convergence_study(geo, BeamSpec(waist=0.02, offset=offset), 1e-6, checkpoints)


@pytest.mark.parametrize("offset", [0.0, 0.03])
@pytest.mark.parametrize("n_max", [0, -3, 2.5])
def test_convergence_study_rejects_bad_n_max(geo, offset, n_max):
    with pytest.raises(ValueError, match="n_max must be an integer count"):
        convergence_study(geo, BeamSpec(waist=0.02, offset=offset), 1e-6, [1, 10], n_max=n_max)


def test_convergence_offaxis_checkpoints(geo):
    # at w0 5 mm, d 11 cm some families peak past their first 64 shells;
    # its last checkpoint takes every term of the study (1.4e8 modes)
    for waist, offset, checkpoints, rel in ((0.02, 0.05, [10, 1000, 100_000], 1e-3),
                                            (0.005, 0.11, [10, 1000, 100_000, 10**9], 1e-4)):
        beam = BeamSpec(waist=waist, offset=offset)
        pairs = convergence_study(geo, beam, 1e-6, checkpoints)
        values = [v for _, v in pairs]
        assert all(b >= a for a, b in zip(values, values[1:]))
        ref = effective_susceptibility(geo, beam).value.real
        assert values[-1] == pytest.approx(ref, rel=rel)


def test_compare_report_reference_waists(geo):
    report = compare_report(geo, BeamSpec(waist=0.02))
    assert isinstance(report, CompareReport)
    assert report.cylindrical_reference == 46e-11
    # the plano-convex value beats the cylindrical one by at least 4x
    assert report.improvement_ratio > 4.0
    report_b = compare_report(geo, BeamSpec(waist=0.055))
    assert report_b.cylindrical_reference == 11e-11
    assert report_b.improvement_ratio == pytest.approx(4.6, rel=0.05)


def test_compare_report_refuses_other_waists(geo):
    with pytest.raises(ValueError):
        compare_report(geo, BeamSpec(waist=0.03))
    report = compare_report(geo, BeamSpec(waist=0.03), include_cylindrical=False)
    assert report.cylindrical_reference is None
    assert report.improvement_ratio is None
    assert report.chi0 > 0


def _oracle_centered_term_pool(geometry, beam, n_max, floor_rel=1e-25):
    """The per-family loop that the all-families pool replaced, kept verbatim."""
    om_m2 = fundamental_frequency(geometry) ** 2
    curv = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    w02 = beam.waist * beam.waist
    rho = geometry.material.density
    h0 = geometry.thickness

    top = None
    per_n = []
    for n in range(1, n_max + 1):
        wn2 = acoustic_waist_sq(geometry, n)
        mass = (math.pi / 4.0) * rho * h0 * wn2
        c = 2.0 * wn2 / (2.0 * wn2 + w02)
        q2 = ((2.0 * wn2 - w02) / (2.0 * wn2 + w02)) ** 2
        head = c * c / (mass * om_m2 * (n * n + curv * n))
        if top is None:
            top = head
        floor = top * floor_rel
        if head < floor:
            per_n.append((n, np.empty(0), np.empty(0, dtype=int)))
            continue
        # p count from pure geometric decay (denominator growth only helps)
        if q2 > 0.0:
            count = int(math.log(floor / head) / math.log(q2)) + 2 if q2 < 1 else 10**6
        else:
            count = 1
        p = np.arange(count, dtype=float)
        ovl2 = (c * c) * q2**p
        om2 = om_m2 * (n * n + curv * n * (2.0 * p + 1.0))
        terms = ovl2 / (mass * om2)
        keep = terms >= floor
        per_n.append((n, terms[keep], p[keep].astype(int)))
    return per_n


@pytest.mark.parametrize("thickness", [0.04, 0.07, 0.12])
def test_centered_term_pool_matches_oracle(thickness):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    for waist in (0.001, 0.005, 0.02, 0.06):
        for n_max in (1, 7, 200):
            pool = _oracle_centered_term_pool(geometry, BeamSpec(waist=waist), n_max, _POOL_FLOOR)
            terms, n_ids, p_ids = _centered_term_pool(geometry, BeamSpec(waist=waist), n_max, _POOL_FLOOR)
            assert np.array_equal(terms, np.concatenate([t for _, t, _ in pool]))
            assert np.array_equal(n_ids, np.concatenate([np.full(len(t), n) for n, t, _ in pool]))
            assert np.array_equal(p_ids, np.concatenate([p for _, _, p in pool]))
            assert n_ids.dtype.kind == p_ids.dtype.kind == "i"


def _oracle_shell_term_pool(geometry, beam, n_max, floor_rel=1e-25):
    """The per-(family, level) loop that the level-by-level pool replaced, kept verbatim."""
    om_m2 = fundamental_frequency(geometry) ** 2
    curv = (2.0 / math.pi) * math.sqrt(geometry.thickness / geometry.curvature_radius)
    table = ShellTraceTable(geometry, beam, range(1, n_max + 1))
    top = None
    per_n = []
    for n in range(1, n_max + 1):
        smax = 64
        while True:
            traces = table.traces(n, smax)
            om2 = om_m2 * (n * n + curv * n * (np.arange(smax + 1) + 1.0))
            terms = traces / om2
            if top is None:
                top = terms.max()
            # the engine's rule: below the floor and past the peak
            last, ref = terms[-1], terms[-5]
            past_peak = terms.any() if last == 0.0 and ref == 0.0 else 0.0 < ref and last < ref
            if (terms[-1] < top * floor_rel and past_peak) or smax >= 60_000:
                break
            smax = min(2 * smax, 60_000)
        s = np.nonzero(terms >= top * floor_rel)[0]
        per_n.append((terms[s], np.full(len(s), n), s))
    return tuple(np.concatenate(parts) for parts in zip(*per_n))


@pytest.mark.parametrize("thickness", [0.04, 0.07, 0.12])
def test_shell_term_pool_matches_oracle(thickness):
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    # the narrow beam's families run to 8192-32768 shells, so it stops at n = 40;
    # at w0 5 mm, d 11 cm the far families peak past their first 64 shells, and
    # at w0 1 mm, d 18.5 cm families 1-7 run to the 60,000-shell cap
    for waist, offset, n_caps in ((0.005, 0.001, (1, 7, 40)), (0.02, 0.025, (1, 7, 200)),
                                  (0.02, 0.11, (1, 7, 200)), (0.055, 0.185, (1, 7, 200)),
                                  (0.005, 0.11, (200,)), (0.001, 0.185, (200,))):
        beam = BeamSpec(waist=waist, offset=offset)
        for n_max in n_caps:
            got = _shell_term_pool(geometry, beam, n_max, _POOL_FLOOR)
            for a, b in zip(got, _oracle_shell_term_pool(geometry, beam, n_max, _POOL_FLOOR)):
                assert np.array_equal(a, b) and a.dtype == b.dtype


@pytest.mark.parametrize("thickness", [0.04, 0.07, 0.12])
def test_convergence_study_floor_is_invisible(thickness, monkeypatch):
    # the study adds its terms largest first, so every term below the pools'
    # floor, 2^-54 of the leading one, is below half an ulp of the running sum:
    # the terms down to 1e-25 of it change no checkpoint
    geometry = solve_geometry(20.0, thickness, FUSED_SILICA)
    beams = [BeamSpec(waist, offset) for waist, offset in (
        (0.002, 0.0), (0.02, 0.0), (0.055, 0.0), (0.002, 0.05), (0.005, 0.11), (0.02, 0.025),
        (0.035, 0.1), (0.055, 0.14), (0.002, 0.185))]
    if thickness == 0.07:  # families 1-8 run to SHELL_CAP, and 197-200 run scaled and read 0
        beams.append(BeamSpec(0.001, 0.185))
    checkpoints = [1, 10, 100, 1000, 10**4, 10**5, 10**6, 10**8, 10**12]
    sizes, studies = {}, {}
    for floor_rel in (_POOL_FLOOR, 1e-25):
        for name, pool in (("_centered_term_pool", _centered_term_pool), ("_shell_term_pool", _shell_term_pool)):
            def at_floor(geometry, beam, n_max, pool=pool, floor_rel=floor_rel):
                out = pool(geometry, beam, n_max, floor_rel)
                sizes.setdefault(floor_rel, []).append(len(out[0]))
                return out
            monkeypatch.setattr(sweeps, name, at_floor)
        studies[floor_rel] = [convergence_study(geometry, beam, 1e-6, checkpoints) for beam in beams]
    assert studies[_POOL_FLOOR] == studies[1e-25]
    assert all(a < b for a, b in zip(sizes[_POOL_FLOOR], sizes[1e-25]))  # the floors keep different terms
