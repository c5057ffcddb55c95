"""Parameter sweeps, the convergence study, comparison report, and CSV output.

Sweeps vary one of {thickness, waist, offset, mass} while holding
the rest fixed, re-solving the geometry closure wherever the swept parameter
touches it.  Output rows are deterministic: fixed enumeration order inside the
modal sums and fixed float formatting, so identical sweeps give byte-identical
CSV files (wall-times are kept on the row objects but never written).
"""
from __future__ import annotations

import concurrent.futures
import math
import time
from dataclasses import dataclass, field
from typing import IO, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .geometry import Material, FUSED_SILICA, PlanoConvexGeometry, solve_geometry
from .modes import acoustic_waist_sq, shell_frequency_sq, spectrum_constants
from .overlap import BeamSpec, ShellTraceTable, check_beam_on_mirror
from .susceptibility import (
    DEFAULT_POLICY,
    SHELL_CAP,
    SusceptibilityResult,
    TruncationPolicy,
    _chi0_offsets,
    _n_tail_past,
    check_count,
    effective_susceptibility,
)

CSV_HEADER = "# mirnoise v1, one-sided angular-frequency spectra, SI units"

SWEEP_PARAMETERS = ("thickness", "waist", "offset", "mass")

#: zero-frequency susceptibility of a standard cylindrical mirror of equal
#: mass, literature reference values (not recomputed here), keyed by beam waist
CYLINDRICAL_REFERENCE = {0.02: 46e-11, 0.055: 11e-11}

#: default sweep ranges; figure-axis choices, not measured quantities
DEFAULT_RANGES = {
    "thickness": (0.04, 0.12, 30),
    "waist": (0.01, 0.06, 26),
    "offset": (0.0, 0.22, 23),
    "mass": (5.0, 50.0, 10),
}


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description plus the fixed operating point."""

    parameter: str
    lo: float
    hi: float
    points: int
    mass: float = 20.0
    thickness: float = 0.07
    waist: float = 0.02
    offset: float = 0.0
    material: Material = FUSED_SILICA
    policy: TruncationPolicy = DEFAULT_POLICY

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        for name in ("lo", "hi", "mass", "thickness", "waist", "offset"):
            if not math.isfinite(getattr(self, name)):  # the swept one of the last four goes unused
                raise ValueError(f"sweep {name} must be finite, got {getattr(self, name)}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        check_count("points", self.points)
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 points")
        if self.parameter == "offset" and self.lo < 0:
            raise ValueError("offsets are non-negative")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def operating_point(self, value: float):
        """Geometry and beam at one sweep point; swept parameter substituted."""
        mass = value if self.parameter == "mass" else self.mass
        thickness = value if self.parameter == "thickness" else self.thickness
        waist = value if self.parameter == "waist" else self.waist
        offset = value if self.parameter == "offset" else self.offset
        geometry = solve_geometry(mass, thickness, self.material)
        beam = BeamSpec(waist=waist, offset=offset)
        check_beam_on_mirror(beam, geometry)
        return geometry, beam


@dataclass(frozen=True)
class SweepRow:
    value: float
    chi0: float
    modes_used: int
    tail_bound: float
    paraxial_warning: bool
    converged: bool
    seconds: float = field(default=0.0, compare=False)


def validate_sweep(spec: SweepSpec) -> list:
    """Check every sweep point's invariants before any computation is spent;
    returns each point's (geometry, beam), in sweep order."""
    return [spec.operating_point(float(value)) for value in spec.values()]


def _row(value: float, geometry: PlanoConvexGeometry, res: SusceptibilityResult, seconds: float) -> SweepRow:
    return SweepRow(
        value=value,
        chi0=res.value.real,
        modes_used=res.modes_used,
        tail_bound=res.tail_bound,
        paraxial_warning=geometry.paraxial_warning,
        converged=res.converged,
        seconds=seconds,
    )


def _sweep_point(spec: SweepSpec, value: float, geometry: PlanoConvexGeometry, beam: BeamSpec) -> SweepRow:
    start = time.perf_counter()
    try:
        res = effective_susceptibility(geometry, beam, policy=spec.policy)
    except BudgetExceededError as err:
        res = err.partial  # its tail_bound is inf: unconverged
    return _row(value, geometry, res, time.perf_counter() - start)


def _offset_sweep(spec: SweepSpec, values: list[float], points: list) -> list[SweepRow]:
    """An offset sweep's rows: d = 0 on the centered path, every other offset
    from one _chi0_offsets call, whose quadrature passes serve them all."""
    start = time.perf_counter()
    offsets = [v for v in values if v != 0.0]
    geometry = points[0][0]  # one geometry for every offset
    results = iter(_chi0_offsets(geometry, spec.waist, offsets, spec.policy))
    seconds = (time.perf_counter() - start) / len(offsets)
    return [_sweep_point(spec, v, *point) if v == 0.0 else _row(v, geometry, next(results), seconds)
            for v, point in zip(values, points)]


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[SweepRow]:
    """Evaluate chi_eff[0] across the sweep; rows come back in sweep order.

    Budget-exceeded points are recorded as unconverged rows and the sweep
    continues; an invalid spec aborts before any point is computed.  The
    points of other parameters run one by one, in jobs processes if jobs > 1,
    and each row's seconds is the wall time of its own point.  An offset sweep
    runs in this process whatever jobs is: its non-zero offsets share their
    quadrature passes, and each of their rows' seconds is an equal share of
    those passes' wall time.  Each point's geometry is solved once, by
    validate_sweep.  Every row is == to its one-point computation.
    """
    points = validate_sweep(spec)
    values = [float(v) for v in spec.values()]
    if spec.parameter == "offset":
        return _offset_sweep(spec, values, points)
    if jobs <= 1:
        return [_sweep_point(spec, v, *point) for v, point in zip(values, points)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_point, [spec] * len(values), values, *zip(*points)))


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------


#: the term pools keep the terms of at least this fraction of their leading
#: term L.  The study adds the terms largest first, so its running sum S is
#: already >= L when a term t < 2^-54 L comes up; then t < 2^-54 S < ulp(S) / 2,
#: and round-to-nearest leaves S as it is.  Every partial sum is the same
#: with or without the terms below the floor.
_POOL_FLOOR = 2.0**-54


def _centered_term_pool(geometry, beam, n_max, floor_rel=_POOL_FLOOR):
    """All (n, p) zero-frequency terms of at least floor_rel times family 1's
    p = 0 term, as flat arrays (terms, n, p) in ascending n, then p.

    Each family's run of p is one stretch of flat arrays that hold the
    family's values repeated along it, so many families are built at once.
    """
    om_m2, curv = spectrum_constants(geometry)
    w02 = beam.waist * beam.waist
    n = np.arange(1, n_max + 1)
    wn2 = acoustic_waist_sq(geometry, n.astype(float))
    mass = (math.pi / 4.0) * geometry.material.density * geometry.thickness * wn2
    c = 2.0 * wn2 / (2.0 * wn2 + w02)
    # Python's scalar pow and log: numpy's vector ones can differ in the last bit
    q2 = [q**2 for q in ((2.0 * wn2 - w02) / (2.0 * wn2 + w02)).tolist()]
    head = (c * c / (mass * shell_frequency_sq(om_m2, curv, n, 0.0))).tolist()
    floor = head[0] * floor_rel
    # p count from pure geometric decay (denominator growth only helps)
    counts = np.array([
        0 if head_n < floor
        else 1 if q2_n <= 0.0
        else int(math.log(floor / head_n) / math.log(q2_n)) + 2 if q2_n < 1 else 10**6
        for head_n, q2_n in zip(head, q2)
    ])
    per_family = (n, c * c, np.array(q2), mass)
    ends = np.cumsum(counts)
    starts = ends - counts
    parts, lo = [], 0
    while lo < n_max:
        # families lo..hi-1: one family or more, up to about 2^15 terms, so
        # that the temporaries stay in cache
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + 2**15, side="right")))
        n_k, c2, q2_k, mass_k = (np.repeat(a[lo:hi], counts[lo:hi]) for a in per_family)
        p = np.arange(len(n_k)) - np.repeat(starts[lo:hi] - starts[lo], counts[lo:hi])
        terms = c2 * q2_k ** p.astype(float)  # the overlap^2, c^2 q^(2p)
        terms /= mass_k * shell_frequency_sq(om_m2, curv, n_k, 2.0 * p)
        keep = terms >= floor
        parts.append((terms[keep], n_k[keep], p[keep]))
        lo = hi
    return tuple(np.concatenate(part) for part in zip(*parts))


def _past_peak(terms):
    """Per column of a (shell x family) block: its last term lies below the one
    four shells back (the stride averages out the even/odd oscillation), or
    both are 0 after non-zero ones; a column of zeros (a head that underflowed
    far off axis) has not reached its peak."""
    last, ref = terms[-1], terms[-5]
    past = (last < ref) & (ref > 0.0)
    zeros = (last == 0.0) & (ref == 0.0)
    past[zeros] = terms[:, zeros].any(axis=0)  # on these columns alone: on all it is a pass over the block
    return past


def _shell_term_levels(geometry, beam, n_max, floor_rel):
    """Per level (64, 128, ..., SHELL_CAP), the terms (terms, n, shell) of the
    families that finish there, in ascending n, then shell: those below the
    floor at their last shell and past their peak (_past_peak), and every
    family at SHELL_CAP.  The rest take the next level together; the table
    grows their columns alone."""
    om_m2, curv = spectrum_constants(geometry)
    table = ShellTraceTable(geometry, beam, range(1, n_max + 1))
    todo = np.arange(1, n_max + 1)
    smax, floor = 64, None
    while len(todo):
        smax = min(smax, SHELL_CAP)
        terms = table.block(todo, smax) / shell_frequency_sq(om_m2, curv, todo, np.arange(smax + 1.0)[:, None])
        if floor is None:
            floor = terms[:, 0].max() * floor_rel
        done = ((terms[-1] < floor) & _past_peak(terms)) | (smax >= SHELL_CAP)
        kept = terms[:, done].T  # a row per finished family
        rows, s = np.nonzero(kept >= floor)
        yield kept[rows, s], todo[done][rows], s
        todo, smax = todo[~done], 2 * smax


def _shell_term_pool(geometry, beam, n_max, floor_rel=_POOL_FLOOR):
    """All (n, shell) zero-frequency terms of a displaced beam of at least
    floor_rel times the largest term of family 1's first 64 shells, as flat
    arrays (terms, n, shell) in ascending n, then shell."""
    parts = list(_shell_term_levels(geometry, beam, n_max, floor_rel))  # frees the table and the last level
    terms, n_ids, s_ids = (np.concatenate(part) for part in zip(*parts))
    del parts  # before the reordered copies are made
    order = np.argsort(n_ids, kind="stable")
    return terms[order], n_ids[order], s_ids[order]


def convergence_study(
    geometry: PlanoConvexGeometry,
    beam: BeamSpec,
    loss_angle: float,
    checkpoints: Sequence[int],
    n_max: int = DEFAULT_POLICY.n_max,
) -> list[tuple[int, float]]:
    """chi_eff[0] truncated to the first K modes, for each checkpoint K.

    The canonical enumeration orders the modes of the families n <= n_max by
    decreasing zero-frequency contribution (ties by ascending n then p), so
    checkpoint values form a nondecreasing sequence whose first entry is the
    fundamental mode alone.  The terms are summed in that order, so a term
    below 2^-54 of the leading one is below half an ulp of the running sum and
    rounds away (_POOL_FLOOR): the pools leave such terms out.  A checkpoint
    whose sum has reached that of every term kept, so that the families
    n <= n_max have nothing left to add, also takes the families past n_max,
    in closed form as effective_susceptibility does (_n_tail_past): it reads
    the full chi0 rather than the n_max head.
    """
    check_count("n_max", n_max)
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise ValueError("checkpoints must be one or more positive counts, got none")
    for c in checkpoints:
        check_count("checkpoint", c)
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    check_beam_on_mirror(beam, geometry)

    centered = beam.offset == 0.0
    pool = _centered_term_pool if centered else _shell_term_pool
    terms, _, sub_ids = pool(geometry, beam, n_max)
    # the pool comes in ascending n, then p or shell, so a stable sort breaks ties that way
    order = np.argsort(-terms, kind="stable")
    # sequential sums in grain order; a checkpoint takes grains until their modes reach it
    csum = np.cumsum(terms[order])
    # off axis the grains are degenerate shells of s//2 + 1 (cosine) modes
    counts = np.ones(len(terms), dtype=int) if centered else sub_ids[order] // 2 + 1
    taken = np.minimum(np.searchsorted(np.cumsum(counts), checkpoints) + 1, len(csum))
    values = [float(csum[j - 1]) for j in taken]
    head = float(csum[-1])
    if values[-1] == head:
        # the families n <= n_max have nothing left to add: those past n_max follow
        n_tail = _n_tail_past(geometry, beam, n_max)
        values = [v + n_tail if v == head else v for v in values]
    return list(zip(checkpoints, values))


# ---------------------------------------------------------------------------
# Comparison report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    waist: float
    chi0: float
    modes_used: int
    tail_bound: float
    cylindrical_reference: Optional[float]
    improvement_ratio: Optional[float]


def compare_report(
    geometry: PlanoConvexGeometry,
    beam: BeamSpec,
    policy: TruncationPolicy = DEFAULT_POLICY,
    include_cylindrical: bool = True,
) -> CompareReport:
    """Plano-convex chi_eff[0] next to the cylindrical literature reference.

    The cylindrical values exist only at the two standard waists; other waists
    are refused unless the cylindrical column is suppressed.
    """
    if beam.offset != 0.0:
        raise ValueError("the comparison is defined for a centered beam")
    reference = None
    if include_cylindrical:
        for ref_waist, ref_value in CYLINDRICAL_REFERENCE.items():
            if math.isclose(beam.waist, ref_waist, rel_tol=1e-9):
                reference = ref_value
                break
        else:
            raise ValueError(
                f"no cylindrical reference at waist {beam.waist} m; available at "
                f"{sorted(CYLINDRICAL_REFERENCE)} (or suppress the cylindrical column)"
            )
    res = effective_susceptibility(geometry, beam, 0.0, None, policy)
    chi0 = res.value.real
    return CompareReport(
        waist=beam.waist,
        chi0=chi0,
        modes_used=res.modes_used,
        tail_bound=res.tail_bound,
        cylindrical_reference=reference,
        improvement_ratio=None if reference is None else reference / chi0,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.8e}"


def write_csv(fh: IO[str], columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    fh.write(CSV_HEADER + "\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def sweep_csv(fh: IO[str], spec: SweepSpec, rows: Sequence[SweepRow]) -> None:
    write_csv(
        fh,
        (spec.parameter, "chi0", "modes_used", "tail_bound", "paraxial_warning", "converged"),
        [(r.value, r.chi0, r.modes_used, r.tail_bound, r.paraxial_warning, r.converged) for r in rows],
    )
