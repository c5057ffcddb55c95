"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is asserted exactly as stated; two criteria (4 and 6) encode
literature-envelope expectations that the converged numerics do not meet, and
they are intentionally left strict rather than loosened.  Run with
``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion lines.
"""
import io
import math
import time

import numpy as np
import pytest

from mirnoise.geometry import FUSED_SILICA, solve_geometry
from mirnoise.modes import fundamental_frequency
from mirnoise.overlap import BeamSpec
from mirnoise.susceptibility import (
    BOLTZMANN,
    TruncationPolicy,
    displacement_noise_spectrum,
    effective_susceptibility,
    optical_mass_model,
    thermal_force_spectrum,
)
from mirnoise.sweeps import SweepSpec, convergence_study, run_sweep, sweep_csv
from mirnoise.validation import (
    ModeIndex,
    effective_mass,
    effective_mass_oracle,
    mode_data,
    overlap_offaxis,
    overlap_quadrature_oracle,
)


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def geo():
    return solve_geometry(20.0, 0.07, FUSED_SILICA)


def test_criterion_1_geometry_closure(geo):
    ok = 0.609 <= geo.curvature_radius <= 0.619 and 0.564 <= geo.diameter <= 0.574
    assert verdict(
        1,
        "geometry closure",
        ok,
        f"R={geo.curvature_radius:.4f} m, D={geo.diameter:.4f} m",
    )


def test_criterion_2_reference_susceptibilities(geo):
    start = time.perf_counter()
    res_a = effective_susceptibility(geo, BeamSpec(waist=0.02))
    res_b = effective_susceptibility(geo, BeamSpec(waist=0.055))
    elapsed = time.perf_counter() - start
    ok = (
        abs(res_a.value.real - 11e-11) <= 0.1 * 11e-11
        and abs(res_b.value.real - 2.4e-11) <= 0.1 * 2.4e-11
        and res_a.tail_bound <= 1e-4
        and res_b.tail_bound <= 1e-4
        and res_a.modes_used <= 10**6
        and res_b.modes_used <= 10**6
        and elapsed < 20.0
    )
    assert verdict(
        2,
        "reference susceptibilities",
        ok,
        f"chi0(2cm)={res_a.value.real:.4e} (ref 1.1e-10), "
        f"chi0(5.5cm)={res_b.value.real:.4e} (ref 2.4e-11), "
        f"tails=({res_a.tail_bound:.1e},{res_b.tail_bound:.1e}), {elapsed:.2f}s",
    )


def test_criterion_3_convergence(geo):
    start = time.perf_counter()
    pairs = convergence_study(
        geo, BeamSpec(waist=0.02), 1e-6, [100, 1000, 10_000, 100_000, 1_000_000]
    )
    elapsed = time.perf_counter() - start
    values = [v for _, v in pairs]
    nondecreasing = all(b >= a for a, b in zip(values, values[1:]))
    chi_1e4 = dict(pairs)[10_000]
    chi_1e6 = dict(pairs)[1_000_000]
    gap = abs(chi_1e4 - chi_1e6) / chi_1e6
    ok = gap < 0.02 and nondecreasing and elapsed < 60.0
    assert verdict(
        3,
        "modal convergence",
        ok,
        f"|chi(1e4)-chi(1e6)|/chi(1e6)={gap:.2e}, nondecreasing={nondecreasing}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_optical_mass_envelope(geo):
    rows = run_sweep(SweepSpec(parameter="waist", lo=0.01, hi=0.06, points=26))
    ratios = []
    for row in rows:
        approx = optical_mass_model(geo, BeamSpec(waist=row.value)).chi_approx
        ratios.append(approx / row.chi0)
    overestimates = all(r >= 1.0 for r in ratios)
    within_3 = all(r <= 3.0 for r in ratios)
    ok = overestimates and within_3
    verdict(
        4,
        "optical-mass envelope",
        ok,
        f"always >= chi0: {overestimates}; max ratio {max(ratios):.3f} at "
        f"w0={rows[int(np.argmax(ratios))].value:.3f} m (bound 3.0)",
    )
    assert overestimates
    assert within_3, (
        f"chi_approx/chi0 reaches {max(ratios):.3f} > 3 at the smallest waists; "
        "the single-oscillator estimate degrades as the beam narrows"
    )


def test_criterion_5_mass_insensitivity():
    values = []
    for mass in (5.0, 10.0, 20.0, 35.0, 50.0):
        geom = solve_geometry(mass, 0.07, FUSED_SILICA)
        values.append(effective_susceptibility(geom, BeamSpec(waist=0.02)).value.real)
    spread = (max(values) - min(values)) / min(values)
    ok = spread < 0.05
    assert verdict(
        5, "mass insensitivity", ok, f"relative spread {spread:.4f} over 5-50 kg"
    )


def test_criterion_6_misalignment_reduction(geo):
    rows = run_sweep(
        SweepSpec(parameter="offset", lo=0.0, hi=0.12, points=13, waist=0.02)
    )
    chi = [r.chi0 for r in rows]
    nonincreasing = all(b <= a * (1 + 1e-9) for a, b in zip(chi, chi[1:]))
    ratio = min(chi) / chi[0]
    ok = nonincreasing and ratio <= 0.6
    verdict(
        6,
        "misalignment reduction",
        ok,
        f"nonincreasing={nonincreasing}, min chi(d)/chi(0)={ratio:.3f} over "
        f"d in [0, 0.12] m (bound 0.6; the halving point lies near d=0.24 m)",
    )
    assert nonincreasing
    assert ratio <= 0.6, (
        f"chi(d)/chi(0) only falls to {ratio:.3f} by d=0.12 m; the factor-2 "
        "reduction is reached near d~0.24 m on this geometry"
    )


OFFAXIS_SAMPLE = [
    # (n, p, l, offset/waist) with waist = 0.02 m
    (1, 0, 0, 0.5),
    (1, 2, 1, 1.5),
    (2, 10, 5, 3.0),
    (3, 5, 4, 1.5),
    (1, 20, 15, 3.0),
    (5, 50, 0, 3.0),
    (5, 0, 50, 3.0),
    (1, 50, 50, 3.0),
    (5, 50, 50, 3.0),
]

MASS_SAMPLE = [
    # well confined on the face: rim truncation below the 1e-6 tolerance
    (1, 0, 0),
    (2, 0, 0),
    (2, 2, 1),
    (3, 4, 2),
    (4, 6, 3),
    (5, 5, 5),
    (5, 7, 0),
    (5, 0, 14),
    (5, 4, 6),
]


def test_criterion_7_oracle_equivalence(geo):
    worst_overlap = 0.0
    for n, p, l, d_over_w in OFFAXIS_SAMPLE:
        mode = mode_data(geo, ModeIndex(n=n, p=p, l=l))
        beam = BeamSpec(waist=0.02, offset=d_over_w * 0.02)
        fast = overlap_offaxis(mode, beam).value
        quad = overlap_quadrature_oracle(mode, beam, rel_tol=1e-10).value
        rel = abs(fast - quad) / max(abs(quad), 1e-300)
        worst_overlap = max(worst_overlap, rel)
    worst_mass = 0.0
    for n, p, l in MASS_SAMPLE:
        idx = ModeIndex(n=n, p=p, l=l)
        rel = abs(effective_mass_oracle(geo, idx) - effective_mass(geo, idx)) / (
            effective_mass(geo, idx)
        )
        worst_mass = max(worst_mass, rel)
    ok = worst_overlap < 1e-8 and worst_mass < 1e-6
    assert verdict(
        7,
        "oracle equivalence",
        ok,
        f"overlap fast-vs-quadrature worst {worst_overlap:.2e} over "
        f"{len(OFFAXIS_SAMPLE)} modes up to (n,p,l)=(5,50,50), d/w0=3; "
        f"mass closed-form-vs-quadrature worst {worst_mass:.2e} over "
        f"{len(MASS_SAMPLE)} confined modes",
    )


def test_criterion_8_fdt_identity(geo):
    beam = BeamSpec(waist=0.02)
    om_m = fundamental_frequency(geo)
    temp = 300.0
    phi = 1e-6
    omegas = np.geomspace(om_m / 1e4, 10 * om_m, 100)
    worst = 0.0
    for omega in omegas:
        chi = effective_susceptibility(geo, beam, float(omega), phi).value
        s_t = thermal_force_spectrum(chi, float(omega), temp)
        lhs = abs(chi) ** 2 * s_t
        rhs = (2 * BOLTZMANN * temp / omega) * chi.imag
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    worst_branch = 0.0
    for omega in omegas[omegas <= om_m / 100]:
        point = displacement_noise_spectrum(geo, beam, float(omega), temp, phi)
        worst_branch = max(
            worst_branch,
            abs(point.displacement_spectrum - point.displacement_spectrum_lowfreq)
            / point.displacement_spectrum,
        )
    ok = worst < 1e-12 and worst_branch < 0.01
    assert verdict(
        8,
        "fluctuation-dissipation identity",
        ok,
        f"identity residual worst {worst:.2e} over 100 frequencies; "
        f"low-frequency branch gap worst {worst_branch:.2e}",
    )


def test_criterion_9_deterministic_csv():
    spec = SweepSpec(parameter="thickness", lo=0.04, hi=0.12, points=8)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    sweep_csv(buf_a, spec, run_sweep(spec))
    sweep_csv(buf_b, spec, run_sweep(spec))
    ok = buf_a.getvalue().encode() == buf_b.getvalue().encode()
    assert verdict(
        9, "deterministic CSV", ok, f"{len(buf_a.getvalue())} bytes, identical={ok}"
    )
