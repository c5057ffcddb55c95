"""Tests of the benchmark itself: inputs, checks, tracing and output format.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mirnoise.overlap as overlap  # noqa: E402
import mirnoise.susceptibility as susceptibility  # noqa: E402
import mirnoise.sweeps as sweeps  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mirnoise.geometry import FUSED_SILICA, solve_geometry  # noqa: E402
from mirnoise.overlap import BeamSpec, check_beam_on_mirror  # noqa: E402

SEEDS = range(200)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_and_varies_with_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.draw_inputs(name, 5) == workloads.draw_inputs(name, 5)
        assert len({repr(workloads.draw_inputs(name, s)) for s in range(20)}) > 5


def _stratum(values, value, count):
    (k,) = [k for k, group in enumerate(workloads.strata(values, count)) if value in group]
    return k


def test_centered_chi0_draws_are_a_latin_hypercube():
    k = workloads.CENTERED_STRATA
    for seed in SEEDS:
        draws = workloads.draw_inputs("centered", seed)["chi0"]
        assert sorted(_stratum(workloads.THICKNESSES, h, k) for h, _ in draws) == list(range(k))
        assert sorted(_stratum(workloads.WAISTS, w, k) for _, w in draws) == list(range(k))


def test_offset_sweeps_put_one_point_in_each_third_of_the_axis():
    third = 0.22 / 3
    for seed in SEEDS:
        keys = workloads.input_keys("offaxis", workloads.draw_inputs("offaxis", seed))
        for w in workloads.STANDARD_WAISTS:
            offsets = [d for h, ww, d in keys[:6] if ww == w]
            assert [int(d // third) for d in offsets] == [0, 1, 2]


def test_every_design_point_is_feasible_and_in_the_reference(reference):
    points = workloads.lattice()
    assert set(points) == set(reference)
    for h, w, d in points:
        check_beam_on_mirror(BeamSpec(waist=w, offset=d), solve_geometry(workloads.MASS, h, FUSED_SILICA))
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            assert set(workloads.input_keys(name, workloads.draw_inputs(name, seed))) <= set(points)


def test_checks_catch_a_wrong_chi_and_a_changed_csv(reference):
    op = workloads.make_ops("spectrum", 0, reference)[0]
    code, text = op.run()
    assert op.check((code, text)).problems == []
    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[1] = f"{float(fields[1]) * 1.1:.8e}"  # chi_real at omega_min, 10% off
    bad = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n"
    assert any("from" in p for p in op.check((code, bad)).problems)
    assert op.check((3, text)).problems == [f"{op.label}: exit code 3"]

    bench = run.Run([op])
    bench.execute(traced=False)
    bench.ops = [workloads.Op(op.label, lambda: (code, bad), op.check)]
    bench.execute(traced=False)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert any("differs from an earlier repeat" in p for p in bench.problems)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (
        susceptibility.shell_overlap_sq_over_mass,
        sweeps.shell_overlap_sq_over_mass,
        overlap.normalized_hermite_beam_sequence,
    )
    t = tracer.Tracer()
    t.install()
    try:
        assert susceptibility.shell_overlap_sq_over_mass is not originals[0]
        geometry = solve_geometry(20.0, 0.07, FUSED_SILICA)
        sweeps.convergence_study(geometry, BeamSpec(waist=0.02, offset=0.01), 1e-6, [10, 100], n_max=3)
    finally:
        t.remove()
    assert (
        susceptibility.shell_overlap_sq_over_mass,
        sweeps.shell_overlap_sq_over_mass,
        overlap.normalized_hermite_beam_sequence,
    ) == originals
    spans = t.take()
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    (study,) = by_name["sweeps.convergence_study"]
    shells = by_name["overlap.shell_overlap_sq_over_mass"]
    assert shells and all(spans[s.parent] is study for s in shells)
    hermite = by_name["overlap.normalized_hermite_beam_sequence"]
    assert len(hermite) == 2 * len(shells)
    assert all(spans[s.parent].name == "overlap.shell_overlap_sq_over_mass" for s in hermite)
    summary = tracer.summarize(spans)
    assert summary["stats"]["overlap.normalized_hermite_beam_sequence"]["steps"] == sum(
        2 * (s.stats["shells"] - 1) for s in shells
    )
    assert 0 < summary["self_s"]["sweeps.convergence_study"] < study.end - study.start


def test_traced_counts_repeat_and_spectrum_evaluates_chi_twice_per_point(reference):
    ops = workloads.make_ops("spectrum", 3, reference)
    bench = run.Run(ops, tracer.Tracer())
    bench.execute(traced=True)
    bench.execute(traced=True)
    first, second = bench.summaries
    assert first["calls"] == second["calls"] and first["stats"] == second["stats"]
    points = workloads.SPECTRUM_POINTS
    assert first["chi_evals_per_point"] == pytest.approx(2 + 1 / points, rel=1e-12)
    assert bench.failed == 0


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def _result(trace):
    proc = _run_bench(ROOT, "--workload", "spectrum", "--seed", "0", "--seconds", "1",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    declared = {m["name"]: m["unit"] for m in _bench_json()[section]}
    assert {k: v["unit"] for k, v in _result(trace).items()} == declared


def test_traced_counts_repeat_between_runs():
    first, second = _result("1"), _result("1")
    counts = [k for k, v in first.items() if v["unit"] != "s" and k != "trace.overhead_frac"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["susceptibility.effective_susceptibility.calls"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "centered", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
