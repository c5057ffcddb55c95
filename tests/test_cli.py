import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mirnoise.cli import DEFAULTS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, value = line.split(" = ")
        out[key] = value
    return out


def test_geometry_command(capsys):
    code, out, _ = run_cli(capsys, "geometry", "--mass", "20", "--thickness", "0.07")
    assert code == 0
    values = parse_kv(out)
    assert float(values["curvature_radius"]) == pytest.approx(0.6139, rel=1e-3)
    assert float(values["diameter"]) == pytest.approx(0.5694, rel=1e-3)
    assert values["paraxial_warning"] == "0"


def test_geometry_paraxial_warning_on_stderr(capsys):
    code, out, err = run_cli(capsys, "geometry", "--mass", "5", "--thickness", "0.07")
    assert code == 0
    assert parse_kv(out)["paraxial_warning"] == "1"
    assert "warning" in err


def test_chi0_command(capsys):
    code, out, _ = run_cli(capsys, "chi0")
    assert code == 0
    values = parse_kv(out)
    assert float(values["chi0"]) == pytest.approx(1.106e-10, rel=1e-3)
    assert values["converged"] == "1"


def test_chi0_budget_exit_code(capsys):
    code, out, _ = run_cli(capsys, "chi0", "--max-modes", "10")
    assert code == 3
    assert parse_kv(out)["converged"] == "0"


def test_infeasible_geometry_exit_code(capsys):
    code, _, err = run_cli(capsys, "geometry", "--mass", "1", "--thickness", "0.5")
    assert code == 2
    assert "error" in err


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("waist = 0.055\nmass = 20\n# comment line\n")
    code, out, _ = run_cli(capsys, "chi0", "--config", str(cfg))
    assert code == 0
    assert float(parse_kv(out)["chi0"]) == pytest.approx(2.38e-11, rel=1e-2)
    # explicit flag wins over the file
    code, out, _ = run_cli(capsys, "chi0", "--config", str(cfg), "--waist", "0.02")
    assert float(parse_kv(out)["chi0"]) == pytest.approx(1.106e-10, rel=1e-3)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("waste = 0.02\n")
    code, _, err = run_cli(capsys, "chi0", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err
    # so is an unknown sweep parameter; argparse exits 2 itself
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--param", "mode-count"])
    assert exc.value.code == 2
    assert "invalid choice: 'mode-count'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["n_max = 2.5", "max_modes = 1000.5", "max_modes = inf", "jobs = nan"])
def test_non_integer_config_count_exit_code(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "chi0", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: config key ") and err.count("\n") == 1


def test_sweep_csv_format_and_determinism(capsys):
    args = ("sweep", "--param", "waist", "--lo", "0.02", "--hi", "0.04", "--points", "3")
    code, out_a, _ = run_cli(capsys, *args)
    assert code == 0
    code, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b
    lines = out_a.splitlines()
    assert lines[0] == "# mirnoise v1, one-sided angular-frequency spectra, SI units"
    assert lines[1].split(",")[0] == "waist"
    assert len(lines) == 2 + 3


def test_sweep_output_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "mass", "--lo", "10", "--hi", "30",
        "--points", "3", "--output", str(path),
    )
    assert code == 0
    assert out == ""
    content = path.read_text().splitlines()
    assert content[0].startswith("# mirnoise v1")
    assert len(content) == 5


def test_sweep_unconverged_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "mass", "--lo", "10", "--hi", "30",
        "--points", "3", "--max-modes", "10",
    )
    assert code == 3


def test_offset_sweep_in_waist_units(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "offset", "--lo", "0", "--hi", "3",
        "--points", "3", "--offset-in-waists",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert float(rows[-1][0]) == pytest.approx(3 * 0.02, rel=1e-12)


def test_spectrum_command(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--omega-min", "1e3", "--omega-max", "1e4", "--points", "3",
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[1].split(",")
    assert header[0] == "omega"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    for row in rows:
        om = float(row[0])
        s_u = float(row[4])
        s_u_low = float(row[5])
        assert s_u > 0
        assert s_u == pytest.approx(s_u_low, rel=0.01)


def test_converge_command(capsys):
    code, out, _ = run_cli(capsys, "converge", "--checkpoints", "1,100,10000")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    values = [float(r[1]) for r in rows]
    assert values[0] == pytest.approx(9.864e-12, rel=1e-3)
    assert values == sorted(values)


def test_compare_command(capsys):
    code, out, _ = run_cli(capsys, "compare", "--waist", "0.02")
    assert code == 0
    header = out.splitlines()[1].split(",")
    row = out.splitlines()[2].split(",")
    ratio = float(row[header.index("improvement_ratio")])
    assert ratio == pytest.approx(4.16, rel=0.02)


def test_compare_rejects_nonreference_waist(capsys):
    code, _, err = run_cli(capsys, "compare", "--waist", "0.03")
    assert code == 2
    code, out, _ = run_cli(capsys, "compare", "--waist", "0.03", "--no-cylindrical")
    assert code == 0
    assert "improvement_ratio" not in out.splitlines()[1]


# golden files written by the per-family implementations that the shared
# shell-trace table (offset beams) and the all-families block sum (centered
# beams) replaced; the CSV output must not change by a byte
GOLDEN_RUNS = {
    "spectrum_centered.csv": ("spectrum", "--omega-min", "200", "--omega-max", "1e6", "--points", "12"),
    "spectrum_offset.csv": (
        "spectrum", "--offset", "0.03", "--omega-min", "200", "--omega-max", "1e6", "--points", "12",
    ),
    "sweep_offset.csv": (
        "sweep", "--param", "offset", "--waist", "0.055", "--lo", "0.035", "--hi", "0.185",
        "--points", "3",
    ),
    # 23 offsets from d = 0: the centered path, then one quadrature pass for the other 22
    "sweep_offset_default.csv": ("sweep", "--param", "offset"),
    "converge_offset.csv": ("converge", "--offset", "0.025"),
    "sweep_thickness.csv": ("sweep", "--param", "thickness"),
    "sweep_waist.csv": ("sweep", "--param", "waist"),
    "converge_centered.csv": ("converge",),
    "compare_centered.csv": ("compare",),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_csv_matches_golden_bytes(name, tmp_path, capsys):
    path = tmp_path / name
    code, _, _ = run_cli(capsys, *GOLDEN_RUNS[name], "--output", str(path))
    assert code == 0
    golden = Path(__file__).with_name("data") / name
    assert path.read_bytes() == golden.read_bytes()


def test_spectrum_budget_exit_code(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--points", "3", "--max-modes", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("error: mode budget 10 exhausted")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("chi0", "--offset", "nan"),
        ("chi0", "--waist", "inf"),
        ("chi0", "--mass", "inf"),
        ("chi0", "--thickness", "nan"),
        ("chi0", "--density", "inf"),
        ("chi0", "--sound-speed", "nan"),
        ("chi0", "--epsilon", "nan"),
        ("spectrum", "--points", "3", "--temperature", "nan"),
        ("spectrum", "--points", "3", "--temperature", "inf"),
        ("spectrum", "--points", "3", "--omega-max", "inf"),
        ("sweep", "--param", "mass", "--lo", "10", "--hi", "20", "--points", "2", "--temperature", "nan"),
        # empty grids: no header-only CSV
        ("spectrum", "--points", "0"),
        ("converge", "--checkpoints", ","),
    ],
)
def test_non_finite_inputs_exit_code(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


FLOAT_FLAGS = ("mass", "thickness", "waist", "offset", "temperature", "loss-angle", "density",
               "sound-speed", "epsilon")
COMMAND_FLOAT_FLAGS = {
    ("chi0",): FLOAT_FLAGS,
    ("spectrum", "--points=3"): FLOAT_FLAGS + ("omega-min", "omega-max"),
    **{("sweep", f"--param={param}", "--points=2"): FLOAT_FLAGS + ("lo", "hi")
       for param in ("thickness", "waist", "offset", "mass")},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy warning on the way to the error
@given(
    command_flag=st.sampled_from([(cmd, flag) for cmd, flags in COMMAND_FLOAT_FLAGS.items() for flag in flags]),
    value=st.sampled_from(["nan", "inf", "-inf"]),
)
@settings(max_examples=200, deadline=None)
def test_non_finite_float_flag_exit_code(command_flag, value):
    # --flag=value, because argparse would read a separate -inf as a flag
    command, flag = command_flag
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*command, f"--{flag}={value}"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_runtime_imports_no_validation_code():
    script = """
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
import mirnoise, mirnoise.cli
for argv in (["chi0"], ["chi0", "--offset", "0.03"], ["chi0", "--waist", "0.001", "--offset", "0.185"],
             ["spectrum", "--points", "3"], ["converge"], ["geometry"],
             ["sweep", "--param", "mass", "--lo", "10", "--hi", "20", "--points", "2"], ["compare"]):
    assert mirnoise.cli.main(argv) == 0, argv
assert "mirnoise.validation" not in sys.modules
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("chi0",),
        ("spectrum", "--points", "3"),
        ("sweep", "--param", "mass", "--lo", "10", "--hi", "20", "--points", "2"),
    ],
)
def test_zero_loss_angle_exit_code(argv, capsys):
    # phi = 0 makes every mode's Lorentzian singular at its own resonance
    code, out, err = run_cli(capsys, *argv, "--loss-angle", "0")
    assert code == 2
    assert out == ""
    assert err == "error: loss angle must lie in (0, 1), got 0.0\n"


#: the flags that every subcommand takes: (flag, its value or None for a
#: switch, the Namespace attribute, the parsed value)
COMMON_FLAGS = (
    ("--mass", "21", "mass", 21.0),
    ("--thickness", "0.08", "thickness", 0.08),
    ("--waist", "0.03", "waist", 0.03),
    ("--offset", "0.01", "offset", 0.01),
    ("--offset-in-waists", None, "offset_in_waists", True),
    ("--temperature", "290", "temperature", 290.0),
    ("--loss-angle", "2e-6", "loss_angle", 2e-6),
    ("--density", "2300", "density", 2300.0),
    ("--sound-speed", "6000", "sound_speed", 6000.0),
    ("--epsilon", "1e-5", "epsilon", 1e-5),
    ("--max-modes", "1000", "max_modes", 1000),
    ("--n-max", "50", "n_max", 50),
    ("--jobs", "2", "jobs", 2),
    ("--output", "out.csv", "output", "out.csv"),
    ("--config", "run.cfg", "config", "run.cfg"),
)


@pytest.mark.parametrize("command", ["geometry", "chi0", "spectrum", "sweep", "converge", "compare"])
def test_every_subcommand_takes_every_common_flag(command):
    assert {dest for _, _, dest, _ in COMMON_FLAGS} == set(DEFAULTS) | {"output", "config"}
    argv = [command, "--param", "waist"] if command == "sweep" else [command]
    for flag, value, _, _ in COMMON_FLAGS:
        argv += [flag] if value is None else [flag, value]
    args = build_parser().parse_args(argv)
    assert [getattr(args, dest) for _, _, dest, _ in COMMON_FLAGS] == [value for *_, value in COMMON_FLAGS]
