#!/usr/bin/env python3
"""A/B benchmark: a committed revision against the working tree, in alternating pairs.

    python3 scripts/ab_bench.py --rev HEAD --workload centered,offaxis,spectrum --seed 1 --seconds 30 \
        --json BENCH_<short-sha>.json

The revision's committed files are exported into a temporary directory with
``git archive``, so nothing is registered with git and an interrupted run
leaves at most a stray directory under the system temporary directory.  Each
pair runs ``python3 perfbench/run.py --workload W --seed S+i --seconds T``
once in that copy and once in the working tree; the side that goes first
alternates from pair to pair, so a drift in machine speed hits both sides
alike.  Several workloads, comma-separated, run one after another.  The
report gives, per workload, the median [q1, q3] of every end-to-end metric
on each side and the number of pairs in which the working tree had the lower
solve_s.  ``--json PATH`` also writes the whole run as one record: both
revisions, the machine, the settings, every pair's metrics, and per workload
the median and quartiles of each metric on each side and the solve_s win
count.  Standard library only; perfbench/ is run, never imported.

After the workloads it times the end-to-end cases in E2E_CASES on both
trees: the import of the package, CLI commands and
``scripts/reproduce_figures.py``, each a fresh interpreter, so start-up is
included.  Each case runs E2E_REPEATS times per side, alternating which side
goes first, and the report gives the best and the slowest of the wall times
with the exit codes seen.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: runs per side of each end-to-end case
E2E_REPEATS = 3
#: end-to-end cases: a name and the arguments to the interpreter, run in the
#: tree with its src/ on the path; {out} is a fresh scratch directory
E2E_CASES = (
    ("import mirnoise, mirnoise.cli", ("-c", "import mirnoise, mirnoise.cli")),
    ("reproduce_figures.py", ("scripts/reproduce_figures.py", "{out}")),
    ("spectrum --points 200", ("-m", "mirnoise.cli", "spectrum", "--points", "200")),
    ("spectrum --points 200 --offset 0.05",
     ("-m", "mirnoise.cli", "spectrum", "--points", "200", "--offset", "0.05")),
    ("spectrum --waist 1e-3 --offset 0.01 --points 50",
     ("-m", "mirnoise.cli", "spectrum", "--waist", "1e-3", "--offset", "0.01", "--points", "50")),
    ("sweep --param offset", ("-m", "mirnoise.cli", "sweep", "--param", "offset")),
    ("chi0", ("-m", "mirnoise.cli", "chi0")),
    ("chi0 --waist 1e-3 --offset 0.01", ("-m", "mirnoise.cli", "chi0", "--waist", "1e-3", "--offset", "0.01")),
    ("chi0 --waist 1e-3 --offset 0.185", ("-m", "mirnoise.cli", "chi0", "--waist", "1e-3", "--offset", "0.185")),
    ("converge --offset 0.025", ("-m", "mirnoise.cli", "converge", "--offset", "0.025")),
    ("converge --waist 5e-3 --offset 0.03",
     ("-m", "mirnoise.cli", "converge", "--waist", "5e-3", "--offset", "0.03")),
    ("converge --waist 1e-3 --offset 0.185",
     ("-m", "mirnoise.cli", "converge", "--waist", "1e-3", "--offset", "0.185")),
)


def export_revision(rev: str, dest: Path) -> None:
    """Write the files committed at rev into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one perfbench run in tree; exits if the run fails."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"error: perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    report = json.loads(lines[-1])
    if not report["correct"]:
        print(f"warning: {report['failed']} failed executions in {tree}", file=sys.stderr)
    return {name: metric["value"] for name, metric in report["metrics"].items()}


def run_case(tree: Path, args: tuple) -> tuple[float, int]:
    """Wall time and exit code of one end-to-end case in tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="ab_bench-out-") as out:
        argv = [sys.executable, *(a.format(out=out) for a in args)]
        t0 = time.perf_counter()
        code = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        return time.perf_counter() - t0, code


def end_to_end(trees: dict, rev: str) -> dict:
    """Wall times, their best, and the exit codes of every case on each side."""
    record = {}
    print(f"\nend to end, best [slowest] of {E2E_REPEATS} wall times (s), start-up included")
    for name, args in E2E_CASES:
        runs = {side: [] for side in trees}
        for i in range(E2E_REPEATS):
            for side in list(trees) if i % 2 == 0 else list(trees)[::-1]:
                runs[side].append(run_case(trees[side], args))
        record[name] = {side: {"best_s": min(t for t, _ in r), "runs_s": [t for t, _ in r],
                               "exit_codes": sorted({c for _, c in r})} for side, r in runs.items()}
        base, change = record[name]["base"], record[name]["change"]
        print(f"  {name:40s} {rev} {base['best_s']:.3f} [{max(base['runs_s']):.3f}] (exit {base['exit_codes']}), "
              f"working tree {change['best_s']:.3f} [{max(change['runs_s']):.3f}] "
              f"(exit {change['exit_codes']})", flush=True)
    return record


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 of the values (all three equal for a single value)."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(runs: dict) -> dict:
    """Per metric and side, the quartiles over the pairs; and the solve_s win count."""
    stats = {name: {side: quartiles([r[name] for r in runs[side]]) for side in ("base", "change")}
             for name in runs["base"][0]}
    wins = sum(c["solve_s"] < b["solve_s"] for b, c in zip(runs["base"], runs["change"]))
    return {"metrics": stats, "solve_s_wins": wins}


def report(workload: str, summary: dict, rev: str, pairs: int, seconds: float) -> None:
    """One workload's block: median [q1, q3] per metric and side, and the win count."""
    print(f"\n{workload}, {pairs} pairs of {seconds:g} s runs, median [q1, q3]")
    for name, sides in summary["metrics"].items():
        for side, label in (("base", rev), ("change", "working tree")):
            q = sides[side]
            print(f"  {name:16s} {label:14s} {q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]")
    print(f"working tree faster on solve_s in {summary['solve_s_wins']} of {pairs} pairs")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def machine() -> dict:
    """What the runs ran on."""
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--rev", default="HEAD", help="revision to compare against (default HEAD)")
    p.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    p.add_argument("--seed", type=int, default=1, help="pair i runs seed + i on both sides")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--json", metavar="PATH", help="also write the whole run as a JSON record")
    args = p.parse_args(argv)

    workloads = args.workload.split(",")
    record = {
        "base": {"rev": args.rev, "commit": git("rev-parse", args.rev)},
        "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "machine": machine(),
        "settings": {"workloads": workloads, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        base = Path(tmp)
        export_revision(args.rev, base)
        for workload in workloads:
            runs, pairs = {"base": [], "change": []}, []
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("base", base), ("change", ROOT)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(bench(tree, workload, seed, args.seconds))
                pairs.append({"seed": seed, "first": "base" if i % 2 == 0 else "change",
                              "base": runs["base"][-1], "change": runs["change"][-1]})
                base_s, change_s = runs["base"][-1]["solve_s"], runs["change"][-1]["solve_s"]
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: solve_s {args.rev} {base_s:.4g} s, "
                      f"working tree {change_s:.4g} s", flush=True)
            summary = summarize(runs)
            report(workload, summary, args.rev, args.pairs, args.seconds)
            record["workloads"][workload] = {"pairs": pairs, **summary}
            if args.json:  # rewritten after every workload, so a cut run keeps what it finished
                Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        record["end_to_end"] = end_to_end({"base": base, "change": ROOT}, args.rev)
        if args.json:
            Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
