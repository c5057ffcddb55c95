"""Command-line front end.

Subcommands: geometry, chi0, spectrum, sweep, converge, compare.
Flags may also be given through a flat ``key = value`` config file
(# comments allowed); explicit command-line flags win over the file.

Exit codes: 0 success, 2 invalid specification, 3 any unconverged or cut-short result.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from .errors import BudgetExceededError
from .geometry import Material, solve_geometry
from .overlap import BeamSpec
from .susceptibility import (
    TruncationPolicy,
    check_temperature,
    effective_susceptibility,
    effective_susceptibility_grid,
    spectrum_point,
)
from .sweeps import (
    DEFAULT_RANGES,
    SweepSpec,
    compare_report,
    convergence_study,
    run_sweep,
    sweep_csv,
    write_csv,
)

DEFAULTS = {
    "mass": 20.0,
    "thickness": 0.07,
    "waist": 0.02,
    "offset": 0.0,
    "temperature": 300.0,
    "loss_angle": 1e-6,
    "density": 2200.0,
    "sound_speed": 5960.0,
    "epsilon": 1e-4,
    "max_modes": 1_000_000,
    "n_max": 200,
    "jobs": 1,
    "offset_in_waists": False,
}


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, on a parent parser built once."""
    parser = argparse.ArgumentParser(add_help=False)
    add = parser.add_argument
    add("--mass", type=float, help="mirror mass, kg")
    add("--thickness", type=float, help="center thickness, m")
    add("--waist", type=float, help="beam waist, m")
    add("--offset", type=float, help="beam offset from the mirror axis, m")
    add("--offset-in-waists", action="store_true", default=None,
        help="interpret offsets (and offset sweep bounds) in units of the waist")
    add("--temperature", type=float, help="temperature, K")
    add("--loss-angle", type=float, help="structural loss angle")
    add("--density", type=float, help="substrate density, kg/m^3")
    add("--sound-speed", type=float, help="longitudinal sound velocity, m/s")
    add("--epsilon", type=float, help="relative tail tolerance of the modal sum")
    add("--max-modes", type=int, help="mode budget")
    add("--n-max", type=int, help="ceiling on the longitudinal families summed before the closed-form n-tail")
    add("--jobs", type=int, help="processes for the points of a thickness, waist or mass sweep")
    add("--output", type=str, help="write results to this file instead of stdout")
    add("--config", type=str, help="flat key = value config file")
    return parser


def _read_config(path: str) -> dict:
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            settings[key.replace("-", "_")] = value
    return settings


def _coerce(key: str, value):
    if isinstance(value, str):
        default = DEFAULTS[key]
        if isinstance(default, bool):
            if value.lower() in ("1", "true", "yes", "on"):
                return True
            if value.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"config key {key} must be a boolean, got {value!r}")
        if isinstance(default, int):  # "1e6" is a count; "2.5" and "inf" are not
            number = float(value)
            if not number.is_integer():
                raise ValueError(f"config key {key} must be an integer, got {value!r}")
            return int(number)
        return float(value)
    return value


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, default in DEFAULTS.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in config:
            merged[key] = _coerce(key, config[key])
        else:
            merged[key] = default
    check_temperature(merged["temperature"])
    return merged


def _material(settings: dict) -> Material:
    return Material(
        density=settings["density"],
        sound_velocity=settings["sound_speed"],
        loss_angle=settings["loss_angle"],
    )


def _policy(settings: dict) -> TruncationPolicy:
    return TruncationPolicy(
        epsilon=settings["epsilon"],
        max_modes=settings["max_modes"],
        n_max=settings["n_max"],
    )


def _metres(settings: dict, offset: float) -> float:
    """An offset in m, given in waists under --offset-in-waists."""
    return offset * settings["waist"] if settings["offset_in_waists"] else offset


def _setup(settings: dict):
    geometry = solve_geometry(settings["mass"], settings["thickness"], _material(settings))
    beam = BeamSpec(waist=settings["waist"], offset=_metres(settings, settings["offset"]))
    return geometry, beam, _policy(settings)


def _open_output(path):
    if path:
        return open(path, "w", encoding="utf-8", newline="\n")
    return nullcontext(sys.stdout)


def _warn_paraxial(geometry) -> None:
    if geometry.paraxial_warning:
        print(
            f"warning: thickness/curvature ratio {geometry.paraxial_ratio:.3f} > 0.25; "
            "the Gaussian mode description is strained",
            file=sys.stderr,
        )


def _cmd_geometry(args) -> int:
    settings = _resolve(args)
    geometry, _, _ = _setup(settings)
    _warn_paraxial(geometry)
    lines = [
        f"thickness = {geometry.thickness:.8e}",
        f"curvature_radius = {geometry.curvature_radius:.8e}",
        f"diameter = {geometry.diameter:.8e}",
        f"mass = {geometry.mass:.8e}",
        f"paraxial_ratio = {geometry.paraxial_ratio:.8e}",
        f"paraxial_warning = {1 if geometry.paraxial_warning else 0}",
    ]
    with _open_output(args.output) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_chi0(args) -> int:
    settings = _resolve(args)
    geometry, beam, policy = _setup(settings)
    _warn_paraxial(geometry)
    try:
        res = effective_susceptibility(geometry, beam, 0.0, settings["loss_angle"], policy)
        converged = res.converged
    except BudgetExceededError as err:
        res = err.partial
        converged = False
    lines = [
        f"chi0 = {res.value.real:.8e}",
        f"modes_used = {res.modes_used}",
        f"tail_bound = {res.tail_bound:.8e}",
        f"tail_is_estimate = {1 if res.tail_is_estimate else 0}",
        f"converged = {1 if converged else 0}",
    ]
    with _open_output(args.output) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0 if converged else 3


def _cmd_spectrum(args) -> int:
    settings = _resolve(args)
    geometry, beam, policy = _setup(settings)
    _warn_paraxial(geometry)
    if not 0 < args.omega_min < args.omega_max < np.inf:
        raise ValueError("need 0 < omega-min < omega-max < inf")
    if args.points < 1:
        raise ValueError(f"a spectrum needs at least 1 point, got {args.points}")
    omegas = [float(omega) for omega in np.geomspace(args.omega_min, args.omega_max, args.points)]
    chi_zero, *chis = effective_susceptibility_grid(
        geometry, beam, [0.0, *omegas], settings["loss_angle"], policy
    )
    rows = []
    all_converged = chi_zero.converged
    for omega, chi in zip(omegas, chis):
        point = spectrum_point(
            omega, settings["temperature"], settings["loss_angle"], chi.value, chi_zero.value
        )
        all_converged = all_converged and chi.converged
        rows.append(
            (
                omega,
                chi.value.real,
                chi.value.imag,
                point.force_spectrum,
                point.displacement_spectrum,
                point.displacement_spectrum_lowfreq,
                chi.tail_bound,
                chi.converged,
            )
        )
    with _open_output(args.output) as fh:
        write_csv(
            fh,
            (
                "omega",
                "chi_real",
                "chi_imag",
                "force_spectrum",
                "displacement_spectrum",
                "displacement_spectrum_lowfreq",
                "tail_bound",
                "converged",
            ),
            rows,
        )
    return 0 if all_converged else 3


def _cmd_sweep(args) -> int:
    settings = _resolve(args)
    lo_default, hi_default, points_default = DEFAULT_RANGES[args.param]
    lo = args.lo if args.lo is not None else lo_default
    hi = args.hi if args.hi is not None else hi_default
    points = args.points if args.points is not None else points_default
    if args.param == "offset":
        lo, hi = _metres(settings, lo), _metres(settings, hi)
    spec = SweepSpec(
        parameter=args.param,
        lo=lo,
        hi=hi,
        points=points,
        mass=settings["mass"],
        thickness=settings["thickness"],
        waist=settings["waist"],
        offset=_metres(settings, settings["offset"]),
        material=_material(settings),
        policy=_policy(settings),
    )
    rows = run_sweep(spec, jobs=settings["jobs"])
    with _open_output(args.output) as fh:
        sweep_csv(fh, spec, rows)
    return 0 if all(r.converged for r in rows) else 3


def _cmd_converge(args) -> int:
    settings = _resolve(args)
    geometry, beam, _ = _setup(settings)
    _warn_paraxial(geometry)
    checkpoints = [int(tok) for tok in args.checkpoints.split(",") if tok.strip()]
    pairs = convergence_study(geometry, beam, settings["loss_angle"], checkpoints,
                              n_max=settings["n_max"])
    with _open_output(args.output) as fh:
        write_csv(fh, ("modes", "chi0"), pairs)
    return 0


def _cmd_compare(args) -> int:
    settings = _resolve(args)
    geometry, beam, policy = _setup(settings)
    _warn_paraxial(geometry)
    report = compare_report(
        geometry, beam, policy, include_cylindrical=not args.no_cylindrical
    )
    columns = ["waist", "chi0_plano_convex", "modes_used", "tail_bound"]
    row = [report.waist, report.chi0, report.modes_used, report.tail_bound]
    if report.cylindrical_reference is not None:
        columns += ["chi0_cylindrical_reference", "improvement_ratio"]
        row += [report.cylindrical_reference, report.improvement_ratio]
    with _open_output(args.output) as fh:
        write_csv(fh, columns, [row])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirnoise",
        description="Internal thermal noise of a plano-convex mirror seen by a Gaussian beam",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]

    p_geo = sub.add_parser("geometry", help="solve the mass/thickness closure", parents=common)
    p_geo.set_defaults(func=_cmd_geometry)

    p_chi = sub.add_parser("chi0", help="zero-frequency effective susceptibility", parents=common)
    p_chi.set_defaults(func=_cmd_chi0)

    p_spec = sub.add_parser("spectrum", help="thermal noise spectra on a log frequency grid", parents=common)
    p_spec.add_argument("--omega-min", type=float, default=2e2, help="grid start, rad/s")
    p_spec.add_argument("--omega-max", type=float, default=2e6, help="grid end, rad/s")
    p_spec.add_argument("--points", type=int, default=100)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and write CSV", parents=common)
    p_sweep.add_argument("--param", required=True,
                         choices=["thickness", "waist", "offset", "mass"])
    p_sweep.add_argument("--lo", type=float)
    p_sweep.add_argument("--hi", type=float)
    p_sweep.add_argument("--points", type=int)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_conv = sub.add_parser("converge", help="susceptibility vs number of modes", parents=common)
    p_conv.add_argument("--checkpoints", type=str, default="100,1000,10000,100000,1000000")
    p_conv.set_defaults(func=_cmd_converge)

    p_cmp = sub.add_parser("compare", help="compare against the cylindrical reference values", parents=common)
    p_cmp.add_argument("--no-cylindrical", action="store_true",
                       help="report only the plano-convex value, any waist allowed")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # InfeasibleGeometryError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
