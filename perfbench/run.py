#!/usr/bin/env python3
"""The mirnoise benchmark: one seeded, closed-loop workload, one client, one thread.

    python3 perfbench/run.py --workload centered --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from ``src``.
The workload's fixed input set (see ``workloads.py``) runs pass after pass
until ``--seconds`` is spent, after one warm-up pass.  Every execution of
every operation is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

  setup_s          median wall time of a fresh interpreter that imports mirnoise,
                   builds the CLI parser and solves the 20 kg / 7 cm geometry
  solve_s          sum over the inputs of each input's median time across passes
  solve_tail_s     the highest whole percentile of the pass times that has at
                   least ten passes beyond it; the summary line names it
  ok_frac          share of executions that passed every check (1 - failed share)
  chi_rel_err_max  largest relative deviation of any chi0 from reference.csv
  peak_rss_mb      peak resident memory of this process

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics from the traced ones (counts from the first traced pass, times as
medians per pass), with ``trace.overhead_frac`` comparing solve_s between the
two kinds of pass.  The spans of the first traced pass are written to
``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_CODE = (
    "import mirnoise, mirnoise.cli as cli; cli.build_parser(); "
    "mirnoise.solve_geometry(20.0, 0.07, mirnoise.FUSED_SILICA)"
)
SETUP_REPEATS = 7
MIN_PASSES = 3
#: samples that must lie beyond the reported tail percentile
TAIL_SAMPLES_BEYOND = 10
#: failure messages kept for the report; the count is kept in full
PROBLEMS_KEPT = 20

#: per-layer metrics: each traced function with the stats reported for it;
#: "calls" and "self_s" come from the spans, the rest from tracer.PROBES
LAYER_METRICS = [
    ("overlap.normalized_hermite_beam_sequence", ("calls", "self_s", "steps")),
    ("overlap.shell_overlap_sq_over_mass", ("calls", "self_s", "shells")),
    ("susceptibility.effective_susceptibility", ("calls", "self_s", "summands", "unconverged")),
    ("susceptibility.displacement_noise_spectrum", ("calls", "self_s")),
    ("sweeps.run_sweep", ("self_s",)),
    ("sweeps.convergence_study", ("calls", "self_s")),
    ("sweeps.write_csv", ("self_s", "bytes")),
    ("geometry.solve_geometry", ("calls", "self_s")),
    ("modes.acoustic_waist_sq", ("calls",)),
    ("modes.fundamental_frequency", ("calls",)),
    ("cli.main", ("calls", "self_s")),
]
UNITS = {"calls": "count", "self_s": "s", "steps": "count", "shells": "count",
         "summands": "count", "unconverged": "count", "bytes": "B"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one fills the bytecode cache
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Executes and checks operations, keeping per-input times and failures."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.times = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.fingerprints = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.chi_err_max = 0.0
        self.problems = []
        self.first_spans = None
        self.summaries = []

    def execute(self, traced: bool) -> float:
        """One pass over the input set; returns its duration."""
        if traced:
            self.tracer.install()
        total = 0.0
        try:
            for i, op in enumerate(self.ops):
                if traced:
                    self.tracer.op = i
                problems = []
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as err:  # a failed operation is counted, not fatal
                    dt = time.perf_counter() - t0
                    problems.append(f"{op.label}: raised {type(err).__name__}: {err}")
                else:
                    dt = time.perf_counter() - t0
                    try:
                        verdict = op.check(out)
                    except Exception as err:
                        problems.append(f"{op.label}: check raised {type(err).__name__}: {err}")
                    else:
                        problems += verdict.problems
                        self.chi_err_max = max([self.chi_err_max, *verdict.chi_rel_errs])
                        if self.fingerprints[i] is None:
                            self.fingerprints[i] = verdict.fingerprint
                        elif verdict.fingerprint != self.fingerprints[i]:
                            problems.append(f"{op.label}: output differs from an earlier repeat")
                self.times[traced][i].append(dt)
                total += dt
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.problems = (self.problems + problems)[:PROBLEMS_KEPT]
        finally:
            if traced:
                self.tracer.remove()
                spans = self.tracer.take()
                self.summaries.append(tracer_mod.summarize(spans))
                if self.first_spans is None:
                    self.first_spans = spans
        return total

    def loop(self, seconds: float, alternate: bool) -> None:
        """Warm up, then run passes until the next one would overrun ``seconds``."""
        self.execute(traced=False)
        for kind in self.times.values():
            for t in kind:
                t.clear()
        start = time.perf_counter()
        durations = []
        while True:
            done = len(durations)
            elapsed = time.perf_counter() - start
            if done >= (2 * MIN_PASSES if alternate else MIN_PASSES) and (
                elapsed + statistics.median(durations) > seconds
            ):
                break
            durations.append(self.execute(traced=alternate and done % 2 == 1))

    def solve_s(self, traced: bool = False) -> float:
        return sum(statistics.median(t) for t in self.times[traced])


def tail(run: Run) -> tuple[float, int, int]:
    """The highest whole percentile of the pass times with ten passes beyond it."""
    samples = [sum(times) for times in zip(*run.times[False])]
    cuts = statistics.quantiles(samples, n=100)
    for q in range(99, 0, -1):
        if sum(1 for s in samples if s > cuts[q - 1]) >= TAIL_SAMPLES_BEYOND:
            return cuts[q - 1], q, len(samples)
    return max(samples), 100, len(samples)


def layer_metrics(run: Run) -> dict:
    summaries = run.summaries
    first = summaries[0]
    metrics = {}
    for fn, stats in LAYER_METRICS:
        for stat in stats:
            if stat == "self_s":
                value = statistics.median(s["self_s"].get(fn, 0.0) for s in summaries)
            elif stat == "calls":
                value = first["calls"].get(fn, 0)
            else:
                value = first["stats"].get(fn, {}).get(stat, 0)
            metrics[f"{fn}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    metrics["overlap.shell_use_ratio"] = {"value": first["shell_use_ratio"], "unit": "ratio"}
    metrics["susceptibility.chi_evals_per_point"] = {
        "value": first["chi_evals_per_point"], "unit": "ratio"}
    metrics["trace.overhead_frac"] = {
        "value": run.solve_s(traced=True) / run.solve_s(traced=False) - 1.0, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mirnoise" / "__init__.py").is_file():
        print(f"error: no mirnoise sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ops = workloads.make_ops(args.workload, args.seed, workloads.load_reference())
    if args.trace:
        run = Run(ops, tracer_mod.Tracer())
        run.loop(args.seconds, alternate=True)
        metrics = layer_metrics(run)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer_mod.write_spans(run.first_spans, out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        detail = f"{len(run.summaries)} traced passes"
    else:
        setup_s = measure_setup()
        run = Run(ops)
        run.loop(args.seconds, alternate=False)
        solve_s = run.solve_s()
        tail_s, q, n = tail(run)
        detail = f"{n} timed passes, solve_tail_s at percentile {q}"
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "solve_tail_s": {"value": tail_s, "unit": "s"},
            "ok_frac": {"value": 1.0 - run.failed / run.attempted, "unit": "ratio"},
            "chi_rel_err_max": {"value": run.chi_err_max, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} inputs, {detail}, "
          f"{run.attempted} executions, {run.failed} failed")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
