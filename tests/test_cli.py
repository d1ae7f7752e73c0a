import os
import subprocess
import sys

import numpy as np
import pytest

import spinwire
from spinwire import cli
from spinwire.fields import load_profile


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env():
    """Environment whose PYTHONPATH finds the spinwire these tests import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinwire.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


SWEEP_ARGS = [
    "sweep",
    "--scheme", "scheme1",
    "--L", "3",
    "--E-min", "-1",
    "--E-max", "4",
    "--points", "12",
    "--segments", "256",
]


def test_sweep_is_byte_deterministic(capsys):
    code1, out1, _ = run_cli(SWEEP_ARGS, capsys)
    code2, out2, _ = run_cli(SWEEP_ARGS, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_schema_and_finiteness(capsys):
    code, out, err = run_cli(SWEEP_ARGS, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "E", "P00", "P01", "P10", "P11", "R00sq", "hs_t_minus_U", "hs_r",
        "unitarity_defect", "conductance", "regime", "defect_flag",
    ]
    assert len(lines) == 13
    for line in lines[1:]:
        cells = line.split(",")
        for idx, cell in enumerate(cells):
            if header[idx] == "regime":
                assert cell in ("two_channel", "single_channel")
            else:
                assert np.isfinite(float(cell))
        assert cells[-1] == "0"
    # band edges were nudged, with notes on the diagnostic stream only
    energies = [float(line.split(",")[0]) for line in lines[1:]]
    assert -1.0 not in energies and 1.0 not in energies
    assert "nudged" in err
    assert "nudged" not in out


def test_sweep_respects_output_groups(capsys):
    code, out, _ = run_cli(SWEEP_ARGS + ["--outputs", "probabilities"], capsys)
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    assert header == [
        "E", "P00", "P01", "P10", "P11", "R00sq",
        "unitarity_defect", "regime", "defect_flag",
    ]


def test_sweep_workers_do_not_change_bytes(tmp_path, capsys):
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    code1, _, _ = run_cli(SWEEP_ARGS + ["--out", str(out1)], capsys)
    code2, _, _ = run_cli(SWEEP_ARGS + ["--workers", "2", "--out", str(out2)], capsys)
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_uniform_sweep_is_transparent(capsys):
    code, out, _ = run_cli(
        ["sweep", "--scheme", "uniform", "--thetaL", "0.5", "--L", "2",
         "--E-min", "2", "--E-max", "4", "--points", "5", "--segments", "64"],
        capsys,
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(1.0, abs=1e-10)  # P00
        assert float(cells[9]) == pytest.approx(2.0, abs=1e-10)  # conductance


def test_defect_flag_reflects_configured_tolerance(capsys):
    # impossible tolerance: every row must carry the defect flag
    code, out, _ = run_cli(SWEEP_ARGS + ["--defect-tol", "1e-20"], capsys)
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[-1] == "1"


def test_config_file_roundtrip_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo sweep\n"
        "scheme = scheme1\n"
        "L = 3\n"
        "E_min = 1.5\n"
        "E_max = 2.5\n"
        "points = 3\n"
        "segments = 128\n"
    )
    code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    # flag overrides file key
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--points", "2"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_unknown_config_key_is_an_error_with_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = scheme1\ntypo_key = 1\n")
    code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 1
    assert "bad.cfg:2" in err
    assert "typo_key" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(["sweep", "--nope"], capsys)
    assert code == 1


def test_closed_window_rejected(capsys):
    code, _, err = run_cli(
        ["sweep", "--scheme", "scheme1", "--E-min", "-3", "--E-max", "0", "--points", "4"],
        capsys,
    )
    assert code == 1
    assert "closed regime" in err


def test_non_finite_length_is_a_config_error(capsys):
    code, out, err = run_cli(
        ["sweep", "--scheme", "scheme1", "--L", "nan", "--points", "4", "--segments", "16"],
        capsys,
    )
    assert code == 1
    assert "length must be positive and finite" in err
    assert out == ""


@pytest.mark.parametrize(
    "scheme_args",
    [
        ["--scheme", "wall", "--thetaL", "0", "--thetaR", "nan", "--L", "2"],
        ["--scheme", "uniform", "--thetaL", "inf", "--L", "2"],
    ],
)
def test_non_finite_angle_is_a_config_error(scheme_args, capsys):
    code, out, err = run_cli(
        ["sweep", *scheme_args, "--points", "3", "--E-min", "0", "--E-max", "2"],
        capsys,
    )
    assert code == 1
    assert "lead angle" in err and "must be finite" in err
    assert out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-8"])
def test_defect_tol_must_be_non_negative_and_finite(tol, capsys):
    code, out, err = run_cli(SWEEP_ARGS + [f"--defect-tol={tol}"], capsys)
    assert code == 1
    assert "defect_tol must be non-negative and finite" in err
    assert out == ""


def test_nan_defect_is_flagged(monkeypatch, capsys):
    sweep_rows = cli._sweep_rows

    def first_row_nan(*args):
        rows = sweep_rows(*args)
        rows[0]["unitarity_defect"] = float("nan")
        return rows

    monkeypatch.setattr(cli, "_sweep_rows", first_row_nan)
    code, out, _ = run_cli(SWEEP_ARGS, capsys)
    assert code == 0
    flags = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
    assert flags == ["1"] + ["0"] * (len(flags) - 1)


def test_numeric_failure_exit_code(capsys):
    # evanescent growth across a 60-unit region trips the overflow guard
    code, _, err = run_cli(
        ["sweep", "--scheme", "scheme2", "--L", "60", "--E-min", "-0.99",
         "--E-max", "-0.98", "--points", "2", "--segments", "64"],
        capsys,
    )
    assert code == 3
    assert "numeric failure" in err


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--scheme", "wall", "--thetaL", "0", "--thetaR", "3.141592653589793",
         "--L", "3", "--against", "wall"],
        ["validate", "--scheme", "scheme2", "--L", "6", "--segments", "2048",
         "--against", "berry"],
        ["validate", "--scheme", "wall", "--thetaL", "0", "--thetaR", "1.2", "--L", "2",
         "--against", "delta"],
        ["validate", "--scheme", "scheme1", "--L", "3", "--segments", "512",
         "--against", "convergence"],
    ],
    ids=["wall", "berry", "delta", "convergence"],
)
def test_validate_modes_pass(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "verdict: PASS" in out


def test_validate_oracle_passes(capsys):
    code, out, _ = run_cli(
        ["validate", "--scheme", "scheme1", "--L", "3", "--against", "oracle"],
        capsys,
    )
    assert code == 0
    assert "verdict: PASS" in out


def test_validate_fail_exit_code(monkeypatch, capsys):
    # poison the reference so the comparison cannot pass
    real = cli.magnetic_wall_scattering

    def tampered(cfg):
        res = real(cfg)
        return type(res)(
            t=res.t + 1e-3,
            r=res.r,
            channel=res.channel,
            probabilities=res.probabilities,
            unitarity_defect=res.unitarity_defect,
            conductance=res.conductance,
            n_segments=res.n_segments,
            flow_defect=res.flow_defect,
        )

    monkeypatch.setattr(cli, "magnetic_wall_scattering", tampered)
    code, out, _ = run_cli(
        ["validate", "--scheme", "wall", "--thetaL", "0", "--thetaR", "1.0",
         "--L", "2", "--against", "wall"],
        capsys,
    )
    assert code == 2
    assert "verdict: FAIL" in out


def test_validate_wall_needs_wall_scheme(capsys):
    code, _, err = run_cli(
        ["validate", "--scheme", "scheme1", "--L", "3", "--against", "wall"], capsys
    )
    assert code == 1


def test_dump_profile_roundtrips_through_loader(tmp_path, capsys):
    out_path = tmp_path / "profile.txt"
    code, _, _ = run_cli(
        ["dump-profile", "--scheme", "scheme2", "--L", "6", "--points", "201",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    field = load_profile(out_path)
    assert field.length == pytest.approx(6.0)
    assert field.theta_right == pytest.approx(np.pi / 2, abs=1e-9)


def test_current_zero_bias(capsys):
    code, out, _ = run_cli(
        ["current", "--scheme", "uniform", "--thetaL", "0", "--L", "2",
         "--E-min", "4.9", "--E-max", "5.1", "--points", "21", "--segments", "64",
         "--mu-left", "5.0", "--mu-right", "5.0"],
        capsys,
    )
    assert code == 0
    assert "current = 0" in out


def test_current_transparent_wire(capsys):
    code, out, _ = run_cli(
        ["current", "--scheme", "uniform", "--thetaL", "0", "--L", "2",
         "--E-min", "4.9", "--E-max", "5.1", "--points", "81", "--segments", "64",
         "--mu-left", "5.05", "--mu-right", "4.95"],
        capsys,
    )
    assert code == 0
    value = float(out.split("current = ")[1].split()[0])
    assert value == pytest.approx(2.0 * 0.1 / (2.0 * np.pi), rel=0.01)


@pytest.mark.parametrize("flag", ["--mu-left", "--mu-right", "--temp"])
def test_current_rejects_nan(flag, capsys):
    values = {"--mu-left": "5.05", "--mu-right": "4.95", "--temp": "0"}
    values[flag] = "nan"
    code, out, err = run_cli(
        ["current", "--scheme", "uniform", "--thetaL", "0", "--L", "2",
         "--E-min", "4.9", "--E-max", "5.1", "--points", "21", "--segments", "64"]
        + [tok for item in values.items() for tok in item],
        capsys,
    )
    assert code == 1
    assert "nan" in err.lower()
    assert out == ""


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spinwire.cli", "sweep", "--scheme", "uniform",
         "--thetaL", "0", "--L", "1", "--E-min", "2", "--E-max", "3",
         "--points", "2", "--segments", "16"],
        capture_output=True,
        text=True,
        timeout=120,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("E,")


def test_import_leaves_scipy_unloaded():
    # scipy is imported only by TabulatedField and the lattice oracle
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spinwire, spinwire.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
