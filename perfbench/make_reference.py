#!/usr/bin/env python3
"""Write ``reference.csv``: chi0 at every benchmark design point, tightly truncated.

Run from the repository root:

    python3 perfbench/make_reference.py

The policy (epsilon 1e-6, n_max 2000) is far tighter than the library default
(1e-4, 200), so the table exposes the default truncation's bias, chiefly the
dropped families n > n_max.  The off-axis points dominate the cost: a few
seconds at 1 cm offset, minutes at 19 cm, about half an hour in all on one core.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from mirnoise.geometry import FUSED_SILICA, solve_geometry  # noqa: E402
from mirnoise.overlap import BeamSpec  # noqa: E402
from mirnoise.susceptibility import TruncationPolicy, effective_susceptibility  # noqa: E402

import workloads  # noqa: E402

POLICY = TruncationPolicy(epsilon=1e-6, max_modes=10**9, n_max=2000)


def main() -> int:
    rows = []
    start = time.perf_counter()
    for h, w, d in workloads.lattice():
        t0 = time.perf_counter()
        geometry = solve_geometry(workloads.MASS, h, FUSED_SILICA)
        res = effective_susceptibility(geometry, BeamSpec(waist=w, offset=d), 0.0, None, POLICY)
        if not res.converged:
            raise SystemExit(f"reference point {(h, w, d)} did not converge")
        rows.append(
            f"{workloads.MASS!r},{h!r},{w!r},{d!r},{res.value.real!r},"
            f"{res.modes_used},{res.tail_bound:.3e}"
        )
        if d:
            print(f"h={h} w={w} d={d}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# chi0 (m/N) of the mirnoise benchmark design points, fused silica; written by\n"
            f"# perfbench/make_reference.py with epsilon={POLICY.epsilon}, n_max={POLICY.n_max}\n"
        )
        fh.write("mass,thickness,waist,offset,chi0,modes_used,tail_bound\n")
        fh.write("\n".join(rows) + "\n")
    print(f"{len(rows)} points in {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
