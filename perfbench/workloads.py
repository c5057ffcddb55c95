"""Seeded, stratified inputs for the mirnoise benchmark and the checks on their outputs.

Every input sits on a fixed lattice of design points, so the committed table
``reference.csv`` (written by ``make_reference.py``) holds a tightly truncated
chi0 for each point any seed can draw.  All points use the 20 kg fused-silica
substrate, whose closure is feasible over the whole thickness axis, and keep
the beam on the mirror face, so no operation is expected to raise.

Workloads (closed loop, one client, ``jobs=1``):

centered  chi0 at the four corners and a Latin-hypercube draw over the figures'
          thickness and waist axes, one thickness sweep and one waist sweep
          over the full axes, a convergence study at 2 cm and the comparison
          report at both standard waists.  Only the closed-form centered sum runs: shell
          traces do no work.
offaxis   one three-point offset sweep per standard waist with a point in each
          third of 0..0.22 m, plus an off-axis convergence study.  Cost per
          point rises about 30x across the axis, so each point is drawn from a
          +-2 mm window around its third's centre: the inputs change with the
          seed while the work per pass stays the same.
spectrum  ``mirnoise spectrum`` in process for a centered beam at a standard
          waist and a 2 cm beam offset by 2-3 cm, on a log grid across the
          fundamental resonance: the only traffic at finite frequency, through
          the CLI and CSV layers.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mirnoise.cli as cli
import mirnoise.geometry as geometry_mod
import mirnoise.susceptibility as susceptibility_mod
import mirnoise.sweeps as sweeps_mod
from mirnoise.geometry import FUSED_SILICA
from mirnoise.overlap import BeamSpec

WORKLOADS = ("centered", "offaxis", "spectrum")

MASS = 20.0
#: the figures' thickness axis (m) at 20 kg, 5 mm lattice
THICKNESSES = tuple(round(0.040 + 0.005 * i, 6) for i in range(17))
#: the figures' waist axis (m), 2.5 mm lattice
WAISTS = tuple(round(0.010 + 0.0025 * i, 6) for i in range(21))
#: thickness of the off-axis and spectrum geometry (m)
DESIGN_THICKNESS = 0.07
#: the paper's two standard waists (m)
STANDARD_WAISTS = (0.02, 0.055)
#: centres of the thirds of the 0..0.22 m offset axis, 75 mm apart
OFFSET_CENTRES = (0.035, 0.110, 0.185)
OFFSET_JITTERS = (-0.002, -0.001, 0.0, 0.001, 0.002)
#: offsets (m) of the 2 cm beam in the off-axis convergence study and the
#: spectrum, a range over which each costs the same to within a few percent
NEAR_OFFSETS = (0.020, 0.025, 0.030)
#: Latin-hypercube strata per axis for the centered chi0 draws
CENTERED_STRATA = 8
#: corners of the thickness-waist design space, in every centered input set;
#: the truncation bias peaks at a corner, so chi_rel_err_max does not depend
#: on the seed
CORNERS = tuple((h, w) for h in (THICKNESSES[0], THICKNESSES[-1]) for w in (WAISTS[0], WAISTS[-1]))
CONVERGE_CHECKPOINTS = (100, 1000, 10_000, 100_000, 1_000_000)
#: the grid crosses the fundamental resonance (2.7e5 rad/s) and stops at 1e6
#: rad/s: further up, chi of an offset beam passes close to zero between shell
#: resonances, where no relative tail tolerance can be met and the CLI reports
#: the row unconverged (at w0 = 2 cm, d = 3 cm and 2e6 rad/s, for one)
SPECTRUM_POINTS = 12
SPECTRUM_ARGS = ("--omega-min", "200", "--omega-max", "1e6", "--points", str(SPECTRUM_POINTS))
SPECTRUM_TEMPERATURES = (290.0, 295.0, 300.0, 305.0, 310.0)

#: a chi0 further than this from the reference fails its operation; it sits
#: above the present n-tail bias (up to 1.5%) and below the 10% bands of the
#: acceptance criterion on the reference susceptibilities
CHI_REL_TOL = 0.03
#: FDT identity tolerance; the CSV carries nine significant digits
FDT_REL_TOL = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.csv")

Key = tuple  # (thickness, waist, offset), each rounded to the micrometre


def key(thickness: float, waist: float, offset: float) -> Key:
    return (round(thickness, 6), round(waist, 6), round(offset, 6))


def lattice() -> list[Key]:
    """Every design point some seed can draw, in a fixed order."""
    points = [key(h, w, 0.0) for h in THICKNESSES for w in WAISTS]
    for w in STANDARD_WAISTS:
        for centre in OFFSET_CENTRES:
            points += [key(DESIGN_THICKNESS, w, centre + j) for j in OFFSET_JITTERS]
    points += [key(DESIGN_THICKNESS, STANDARD_WAISTS[0], d) for d in NEAR_OFFSETS]
    return list(dict.fromkeys(points))


def load_reference(path: Path = REFERENCE_PATH) -> dict[Key, float]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return {
            key(float(r["thickness"]), float(r["waist"]), float(r["offset"])): float(r["chi0"])
            for r in rows
        }


# ---------------------------------------------------------------------------
# Seeded input generation
# ---------------------------------------------------------------------------


def strata(values: tuple, count: int) -> list[tuple]:
    n = len(values)
    return [values[k * n // count : (k + 1) * n // count] for k in range(count)]


def draw_inputs(workload: str, seed: int) -> dict:
    """The workload's input set for this seed: plain numbers, no library objects."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "centered":
        pairing = list(range(CENTERED_STRATA))
        rng.shuffle(pairing)
        h_strata = strata(THICKNESSES, CENTERED_STRATA)
        w_strata = strata(WAISTS, CENTERED_STRATA)
        return {
            "chi0": [
                (rng.choice(h_strata[k]), rng.choice(w_strata[pairing[k]]))
                for k in range(CENTERED_STRATA)
            ],
            "thickness_sweep_waist": rng.choice(WAISTS),
            "waist_sweep_thickness": rng.choice(THICKNESSES),
            # the study's cost grows with the waist; the 2 cm beam of the
            # paper's convergence figure keeps it the same from seed to seed
            "converge": (rng.choice(THICKNESSES), STANDARD_WAISTS[0]),
            "compare_thickness": rng.choice(THICKNESSES),
        }
    if workload == "offaxis":
        return {
            "offset_sweeps": [(w, rng.choice(OFFSET_JITTERS)) for w in STANDARD_WAISTS],
            "converge_offset": rng.choice(NEAR_OFFSETS),
        }
    if workload == "spectrum":
        return {
            "centered_waist": rng.choice(STANDARD_WAISTS),
            "offset": rng.choice(NEAR_OFFSETS),
            "temperature": rng.choice(SPECTRUM_TEMPERATURES),
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def input_keys(workload: str, inputs: dict) -> list[Key]:
    """Every design point whose chi0 the workload's outputs are checked against."""
    if workload == "centered":
        keys = [key(h, w, 0.0) for h, w in CORNERS + tuple(inputs["chi0"])]
        keys += [key(h, inputs["thickness_sweep_waist"], 0.0) for h in THICKNESSES]
        keys += [key(inputs["waist_sweep_thickness"], w, 0.0) for w in WAISTS]
        keys.append(key(*inputs["converge"], 0.0))
        keys += [key(inputs["compare_thickness"], w, 0.0) for w in STANDARD_WAISTS]
        return keys
    if workload == "offaxis":
        keys = [
            key(DESIGN_THICKNESS, w, centre + j)
            for w, j in inputs["offset_sweeps"]
            for centre in OFFSET_CENTRES
        ]
        keys.append(key(DESIGN_THICKNESS, STANDARD_WAISTS[0], inputs["converge_offset"]))
        return keys
    return [
        key(DESIGN_THICKNESS, inputs["centered_waist"], 0.0),
        key(DESIGN_THICKNESS, STANDARD_WAISTS[0], inputs["offset"]),
    ]


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


class Verdict:
    """What one execution of an operation produced, checked against the reference."""

    def __init__(self, reference: dict[Key, float]):
        self.reference = reference
        self.fingerprint = ""
        self.chi_rel_errs: list[float] = []
        self.problems: list[str] = []

    def chi(self, k: Key, value: float, what: str) -> None:
        ref = self.reference.get(k)
        if ref is None:
            self.problems.append(f"{what}: {k} is not in the reference table")
            return
        err = abs(value - ref) / abs(ref)
        self.chi_rel_errs.append(err)
        if not err <= CHI_REL_TOL:
            self.problems.append(f"{what} at {k}: chi0 {value:.6e} is {err:.2%} from {ref:.6e}")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def done(self, fingerprint: str) -> "Verdict":
        self.fingerprint = fingerprint
        return self


@dataclass(frozen=True)
class Op:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``run`` looks every library function up through its module at call time,
    so the tracer's wrappers see the call.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def _chi0_op(reference, h, w) -> Op:
    def run():
        geometry = geometry_mod.solve_geometry(MASS, h, FUSED_SILICA)
        return susceptibility_mod.effective_susceptibility(geometry, BeamSpec(waist=w))

    def check(res):
        c = Verdict(reference)
        c.require(res.converged, f"chi0 at h={h}, w={w} did not converge")
        c.chi(key(h, w, 0.0), res.value.real, "chi0")
        return c.done(repr((res.value, res.modes_used)))

    return Op(f"chi0 h={h} w={w}", run, check)


def _sweep_op(reference, spec_kwargs: dict, label: str) -> Op:
    def run():
        spec = sweeps_mod.SweepSpec(mass=MASS, material=FUSED_SILICA, **spec_kwargs)
        return spec, sweeps_mod.run_sweep(spec, jobs=1)

    def check(out):
        spec, rows = out
        c = Verdict(reference)
        c.require(len(rows) == spec.points, f"{label}: {len(rows)} rows for {spec.points} points")
        for row in rows:
            point = {"thickness": spec.thickness, "waist": spec.waist, "offset": spec.offset}
            point[spec.parameter] = row.value
            c.require(row.converged, f"{label}: row at {row.value} did not converge")
            c.chi(key(point["thickness"], point["waist"], point["offset"]), row.chi0, label)
        return c.done(repr([(r.value, r.chi0, r.modes_used, r.tail_bound) for r in rows]))

    return Op(label, run, check)


def _converge_op(reference, h, w, d) -> Op:
    label = f"converge h={h} w={w} d={d}"

    def run():
        geometry = geometry_mod.solve_geometry(MASS, h, FUSED_SILICA)
        return sweeps_mod.convergence_study(
            geometry, BeamSpec(waist=w, offset=d), FUSED_SILICA.loss_angle,
            CONVERGE_CHECKPOINTS,
        )

    def check(pairs):
        c = Verdict(reference)
        values = [v for _, v in pairs]
        c.require([k for k, _ in pairs] == list(CONVERGE_CHECKPOINTS), f"{label}: checkpoints changed")
        c.require(all(a <= b for a, b in zip(values, values[1:])), f"{label}: not nondecreasing")
        c.chi(key(h, w, d), values[-1], label)
        return c.done(repr(pairs))

    return Op(label, run, check)


def _compare_op(reference, h, w) -> Op:
    label = f"compare h={h} w={w}"

    def run():
        geometry = geometry_mod.solve_geometry(MASS, h, FUSED_SILICA)
        return sweeps_mod.compare_report(geometry, BeamSpec(waist=w))

    def check(report):
        c = Verdict(reference)
        c.require(
            report.tail_bound <= susceptibility_mod.DEFAULT_POLICY.epsilon,
            f"{label}: tail bound {report.tail_bound} above epsilon",
        )
        c.require(
            report.improvement_ratio is not None and report.improvement_ratio > 1.0,
            f"{label}: no improvement over the cylindrical mirror",
        )
        c.chi(key(h, w, 0.0), report.chi0, label)
        return c.done(repr(report))

    return Op(label, run, check)


def _spectrum_op(reference, w, d, temperature) -> Op:
    label = f"spectrum w={w} d={d}"
    argv = [
        "spectrum", "--mass", repr(MASS), "--thickness", repr(DESIGN_THICKNESS),
        "--waist", repr(w), "--offset", repr(d), "--temperature", repr(temperature),
        *SPECTRUM_ARGS,
    ]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        c = Verdict(reference)
        c.require(code == 0, f"{label}: exit code {code}")
        lines = text.splitlines()
        c.require(len(lines) >= 2 and lines[0] == sweeps_mod.CSV_HEADER, f"{label}: no CSV header")
        rows = list(csv.DictReader(lines[1:]))
        c.require(len(rows) == SPECTRUM_POINTS, f"{label}: {len(rows)} rows, not {SPECTRUM_POINTS}")
        for r in rows:
            omega = float(r["omega"])
            s_u = float(r["displacement_spectrum"])
            fdt = 2.0 * susceptibility_mod.BOLTZMANN * temperature / omega * float(r["chi_imag"])
            c.require(
                math.isclose(s_u, fdt, rel_tol=FDT_REL_TOL),
                f"{label}: FDT identity fails at omega={omega}: {s_u} vs {fdt}",
            )
            c.require(r["converged"] == "1", f"{label}: unconverged row at omega={omega}")
        if rows:
            # omega_min sits three decades below resonance: chi is chi0 to ~1e-6
            c.chi(key(DESIGN_THICKNESS, w, d), float(rows[0]["chi_real"]), label)
        return c.done(text)

    return Op(label, run, check)


def make_ops(workload: str, seed: int, reference: dict[Key, float]) -> list[Op]:
    """The fixed, ordered input set of one run."""
    inputs = draw_inputs(workload, seed)
    if workload == "centered":
        ops = [_chi0_op(reference, h, w) for h, w in CORNERS + tuple(inputs["chi0"])]
        w = inputs["thickness_sweep_waist"]
        ops.append(_sweep_op(
            reference,
            dict(parameter="thickness", lo=THICKNESSES[0], hi=THICKNESSES[-1],
                 points=len(THICKNESSES), waist=w),
            f"thickness sweep w={w}",
        ))
        h = inputs["waist_sweep_thickness"]
        ops.append(_sweep_op(
            reference,
            dict(parameter="waist", lo=WAISTS[0], hi=WAISTS[-1], points=len(WAISTS), thickness=h),
            f"waist sweep h={h}",
        ))
        ops.append(_converge_op(reference, *inputs["converge"], 0.0))
        ops += [_compare_op(reference, inputs["compare_thickness"], w) for w in STANDARD_WAISTS]
        return ops
    if workload == "offaxis":
        ops = [
            _sweep_op(
                reference,
                dict(parameter="offset", lo=round(OFFSET_CENTRES[0] + j, 6),
                     hi=round(OFFSET_CENTRES[-1] + j, 6), points=len(OFFSET_CENTRES),
                     thickness=DESIGN_THICKNESS, waist=w),
                f"offset sweep w={w} shift={j}",
            )
            for w, j in inputs["offset_sweeps"]
        ]
        ops.append(_converge_op(
            reference, DESIGN_THICKNESS, STANDARD_WAISTS[0], inputs["converge_offset"]
        ))
        return ops
    if workload == "spectrum":
        t = inputs["temperature"]
        return [
            _spectrum_op(reference, inputs["centered_waist"], 0.0, t),
            _spectrum_op(reference, STANDARD_WAISTS[0], inputs["offset"], t),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
