import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import spinwire
from spinwire import cli, scattering
from spinwire.fields import load_profile

from conftest import hs_norm_reference, probability_table_reference


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


def test_workers_flag_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(SWEEP_ARGS + ["--workers", "2", "--out", str(out_path)], capsys)
    assert code == 1
    assert "unrecognized arguments" in err and "--workers" in err
    assert out == "" and not out_path.exists()


def test_a_usage_error_leaves_the_next_sweep_unchanged(tmp_path, capsys):
    # the parser is built once per process and shared by every main call
    assert cli.make_parser() is cli.make_parser()
    before = run_cli(SWEEP_ARGS, capsys)
    assert run_cli(SWEEP_ARGS + ["--workers", "2"], capsys)[0] == 1
    assert run_cli(SWEEP_ARGS, capsys) == before and before[0] == 0


# commands that fail after parsing: a config error, a missing profile file and
# the evanescent-growth guard
FAILING_COMMANDS = {
    "unknown_scheme": (["sweep", "--scheme", "nope"], 1),
    "closed_window": (["sweep", "--E-min", "-2"], 1),
    "no_points": (["sweep", "--points", "0"], 1),
    "no_segments": (["sweep", "--segments", "0", "--points", "3"], 1),
    "missing_profile": (["dump-profile", "--scheme", "tabulated:{tmp}/missing.txt"], 1),
    "growth_guard": (["sweep", "--scheme", "scheme1", "--L", "80", "--E-min", "-0.5",
                      "--E-max", "0.5"], 3),
}


@pytest.mark.parametrize("existing", [True, False], ids=["existing_out", "missing_out"])
@pytest.mark.parametrize("args, expected", FAILING_COMMANDS.values(), ids=FAILING_COMMANDS.keys())
def test_failed_command_leaves_out_as_it_was(args, expected, existing, tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    if existing:
        out_path.write_bytes(b"earlier output\n")
    argv = [arg.format(tmp=tmp_path) for arg in args] + ["--out", str(out_path)]
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (expected, "")
    if existing:
        assert out_path.read_bytes() == b"earlier output\n"
    else:
        assert not out_path.exists()


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


# key -> (flag, a valid value other than the default)
CONFIG_KEYS = {
    "scheme": ("--scheme", "wall"),
    "q1": ("--q1", "3"),
    "q2": ("--q2", "2"),
    "L": ("--L", "4.5"),
    "thetaL": ("--thetaL", "0.25"),
    "thetaR": ("--thetaR", "1.5"),
    "E_min": ("--E-min", "-0.5"),
    "E_max": ("--E-max", "7"),
    "points": ("--points", "33"),
    "segments": ("--segments", "128"),
    "outputs": ("--outputs", "conductance"),
    "defect_tol": ("--defect-tol", "1e-6"),
}


def test_config_keys_cover_the_sweep_config():
    assert set(CONFIG_KEYS) == set(vars(cli.SweepConfig()))


@pytest.mark.parametrize("key", list(CONFIG_KEYS))
def test_config_key_and_flag_agree(key, tmp_path, capsys):
    flag, raw = CONFIG_KEYS[key]
    path = tmp_path / "one.cfg"
    path.write_text(f"{key} = {raw}\n")
    parser = cli.make_parser()
    from_file = cli.build_config(parser.parse_args(["sweep", "--config", str(path)]))
    from_flag = cli.build_config(parser.parse_args(["sweep", flag, raw]))
    assert from_file == from_flag != cli.SweepConfig()
    kind = type(getattr(cli.SweepConfig(), key))
    if kind is str:
        return
    bad = "1.5" if kind is int else "x"
    path.write_text(f"{key} = {bad}\n")
    for argv in (["sweep", "--config", str(path)], ["sweep", flag, bad]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert repr(bad) in err


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


FIELD_KEYS = {"scheme", "q1", "q2", "L", "thetaL", "thetaR"}
# each command with its own required arguments, and the config keys it reads
COMMAND_KEYS = {
    "sweep": ([], set(CONFIG_KEYS)),
    "validate": (["--against", "berry"], FIELD_KEYS | {"segments"}),
    "dump-profile": ([], FIELD_KEYS | {"points"}),
    "current": (["--mu-left", "0.55", "--mu-right", "0.45"], FIELD_KEYS | {"segments"}),
}


@pytest.mark.parametrize("command", COMMAND_KEYS)
def test_a_command_takes_the_flags_of_the_keys_it_reads(command, tmp_path, capsys):
    required, keys = COMMAND_KEYS[command]
    parser = cli.make_parser()
    for key, (flag, raw) in CONFIG_KEYS.items():
        argv = [command, *required, flag, raw]
        if key in keys:
            assert getattr(parser.parse_args(argv), key) == type(getattr(cli.SweepConfig(), key))(raw)
        else:
            # a flag the command would ignore is a usage error, not a silent no-op
            assert run_cli(argv, capsys) == (1, "", f"error: unrecognized arguments: {flag} {raw}\n")
    # a config file may still set every key, so one file serves every command
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {raw}\n" for key, (_, raw) in CONFIG_KEYS.items()))
    from_file = cli.build_config(parser.parse_args([command, *required, "--config", str(path)]))
    assert from_file == cli.build_config(parser.parse_args(["sweep", "--config", str(path)]))


STATS_SWEEPS = {
    "tree-rows": ["--scheme", "scheme1", "--L", "6", "--E-min", "-1", "--points", "600"],
    "gated-out": ["--scheme", "scheme1", "--q2", "1", "--L", "40", "--E-min", "-1", "--points", "600"],
    "coarse": ["--scheme", "scheme2", "--q1", "1", "--L", "6", "--segments", "64", "--E-min", "-1",
               "--E-max", "40", "--points", "600"],
}


@pytest.mark.parametrize("args", STATS_SWEEPS.values(), ids=STATS_SWEEPS.keys())
def test_stats_leave_the_csv_byte_identical(args, tmp_path, capsys):
    plain, recorded, stats = tmp_path / "plain.csv", tmp_path / "recorded.csv", tmp_path / "st.json"
    without = run_cli(["sweep", *args, "--out", str(plain)], capsys)
    start = time.perf_counter_ns()
    with_stats = run_cli(["sweep", *args, "--out", str(recorded), "--stats", str(stats)], capsys)
    wall = time.perf_counter_ns() - start
    assert with_stats == without and without[0] == 0
    assert recorded.read_bytes() == plain.read_bytes()
    record = json.loads(stats.read_text())
    for name in ("energy", "growth", "rcond", "k_min", "flux_defect", "flow_defect"):
        assert len(record[name]) == 600, name
    direct = args is STATS_SWEEPS["gated-out"]
    assert set(record["fits"]) == (set() if direct else {"granule", "wire"})
    # a declined grid times the interpolant's growth gate as "fits", then its direct product
    product = {"fits", "product"} if direct else {"granules", "fits"}
    assert set(record["layer_ns"]) == {"plan", "matching", "assembly", "csv"} | product
    assert all(ns > 0 for ns in record["layer_ns"].values())
    assert sum(record["layer_ns"].values()) <= wall


@pytest.mark.parametrize("existing", [True, False], ids=["existing_stats", "missing_stats"])
def test_a_failed_sweep_writes_no_stats(existing, tmp_path, capsys):
    # an exactly singular matching step at 256 segments: exit 3
    stats = tmp_path / "st.json"
    if existing:
        stats.write_bytes(b"earlier record\n")
    argv = ["sweep", *STATS_SWEEPS["gated-out"], "--segments", "256", "--stats", str(stats)]
    assert run_cli(argv, capsys)[:2] == (3, "")
    assert stats.read_bytes() == b"earlier record\n" if existing else not stats.exists()


@pytest.mark.parametrize("command", ["validate", "dump-profile", "current"])
def test_stats_is_a_sweep_flag(command, tmp_path, capsys):
    stats = tmp_path / "x"
    argv = [command, *COMMAND_KEYS[command][0], "--stats", str(stats)]
    assert run_cli(argv, capsys) == (1, "", f"error: unrecognized arguments: --stats {stats}\n")
    assert not stats.exists()


def test_closed_window_rejected(capsys):
    window = ["--scheme", "scheme1", "--E-min", "-3", "--E-max", "0", "--points", "4"]
    code, out, err = run_cli(["sweep"] + window, capsys)
    assert (code, out) == (1, "")
    # the grid's nudged point 2 gets no note: only the gate's error is printed
    assert err == "error: E=-3.0 is below both bands; nothing scatters\n"


def test_bad_config_value_is_an_error_with_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = scheme1\nq1 = x\n")
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert "bad.cfg:2: bad value for 'q1'" in err


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
    solve = cli.solve_scattering_sweep

    def first_defect_nan(*args):
        batch = solve(*args)
        defects = batch.unitarity_defect.copy()
        defects[0] = float("nan")
        return dataclasses.replace(batch, unitarity_defect=defects)

    monkeypatch.setattr(cli, "solve_scattering_sweep", first_defect_nan)
    code, out, _ = run_cli(SWEEP_ARGS, capsys)
    assert code == 0
    flags = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
    assert flags == ["1"] + ["0"] * (len(flags) - 1)


def test_a_library_warning_is_one_plain_line(monkeypatch, capsys):
    solve = cli.solve_scattering_sweep

    def warning_solve(*args):
        warnings.warn("the sweep saw something odd", UserWarning)
        return solve(*args)

    _, expected, _ = run_cli(SWEEP_ARGS, capsys)
    monkeypatch.setattr(cli, "solve_scattering_sweep", warning_solve)
    code, out, err = run_cli(SWEEP_ARGS, capsys)
    assert (code, out) == (0, expected)
    assert "warning: the sweep saw something odd\n" in err
    assert "UserWarning" not in err and ".py" not in err


def physical_block(res, m):
    """The entries of m that carry current: all four with two open channels, else (0, 0)."""
    return m if res.channel.regime is spinwire.Regime.TWO_CHANNEL else m[:1, :1]


# The per-energy rows and row loop that the batch tail of `run_sweep`
# replaced, kept as its reference: the CSV must equal this byte for byte.
# `solve` is the solve whose results the rows are built from.
def sweep_rows_reference(field, energies, segments, solve=spinwire.solve_scattering_batch):
    results = solve(field, np.asarray(energies), segments)
    berry = spinwire.berry_operator_planar(field, 0.0, field.length)
    return [
        {
            "E": res.channel.energy,
            **probability_table_reference(res),
            "hs_t_minus_U": hs_norm_reference(physical_block(res, res.t - berry)),
            "hs_r": hs_norm_reference(physical_block(res, res.r)),
            "unitarity_defect": res.unitarity_defect,
            "conductance": res.conductance,
            "regime": res.channel.regime.value,
        }
        for res in results
    ]


def sweep_csv_reference(cfg):
    grid = cli.energy_grid(cfg)[0]
    out = io.StringIO()
    columns = cfg.csv_columns()
    print(",".join(columns), file=out)
    rows = sweep_rows_reference(cli.build_field(cfg), grid, cfg.segments, spinwire.solve_scattering_sweep)
    for row in rows:
        row["defect_flag"] = "0" if row["unitarity_defect"] <= cfg.defect_tol else "1"
        cells = (row[col] for col in columns)
        print(",".join(c if isinstance(c, str) else format(float(c), ".12g") for c in cells), file=out)
    return out.getvalue()


TAIL_FIELDS = {
    "scheme1": ["--scheme", "scheme1", "--q1", "1", "--L", "3"],
    "scheme2": ["--scheme", "scheme2", "--q2", "1", "--L", "6"],
    "wall": ["--scheme", "wall", "--thetaL", "0.3", "--thetaR", "2.0", "--L", "2"],
}
# every subset of the output groups, the empty one included
OUTPUT_SUBSETS = [
    ",".join(groups)
    for n in range(len(cli.OUTPUT_GROUPS) + 1)
    for groups in itertools.combinations(cli.OUTPUT_GROUPS, n)
]


@pytest.mark.parametrize("field_args", TAIL_FIELDS.values(), ids=TAIL_FIELDS.keys())
def test_sweep_csv_equals_the_per_energy_reference(field_args, capsys):
    # 61 points on [-1, 5] nudge both band edges and cover both regimes
    base = ["sweep", *field_args, "--E-min", "-1", "--E-max", "5", "--points", "61",
            "--segments", "256"]
    for outputs in OUTPUT_SUBSETS:
        argv = base + ["--outputs", outputs]
        code, out, err = run_cli(argv, capsys)
        cfg = cli.build_config(cli.make_parser().parse_args(argv))
        assert (code, out) == (0, sweep_csv_reference(cfg)), argv
        assert err.count("nudged") == 2


@pytest.mark.parametrize("field_args", TAIL_FIELDS.values(), ids=TAIL_FIELDS.keys())
def test_sweep_numbers_equal_the_per_energy_reference(field_args):
    # bit for bit, below the 12 digits the CSV shows
    cfg = cli.build_config(cli.make_parser().parse_args(["sweep", *field_args, "--points", "601"]))
    field, grid = cli.build_field(cfg), cli.energy_grid(cfg)[0]
    numbers = cli._sweep_numbers(field, spinwire.solve_scattering_batch(field, grid, 256))
    rows = sweep_rows_reference(field, grid, 256)
    assert {"regime"} == set(rows[0]) - set(numbers)
    for name, column in numbers.items():
        expected = np.array([row[name] for row in rows])
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize(
    "field_args", [*TAIL_FIELDS.values(), ["--scheme", "uniform", "--thetaL", "0.7", "--L", "2"]],
    ids=[*TAIL_FIELDS.keys(), "uniform"],
)
def test_single_channel_distances_take_the_lower_entries_only(field_args):
    # below E = 1 only t00 and r00 carry current; the other entries are
    # evanescent admixtures whose last digits depend on rounding
    cfg = cli.build_config(cli.make_parser().parse_args(["sweep", *field_args, "--points", "601"]))
    field, grid = cli.build_field(cfg), cli.energy_grid(cfg)[0]
    results = spinwire.solve_scattering_batch(field, grid, 256)
    numbers = cli._sweep_numbers(field, results)
    single = grid < 1.0
    assert np.count_nonzero(single) == 200
    u00 = spinwire.berry_operator_planar(field, 0.0, field.length)[0, 0]
    t00 = np.array([res.t[0, 0] for res in results])
    assert np.allclose(numbers["hs_r"][single], np.sqrt(numbers["R00sq"][single]), rtol=1e-11, atol=0.0)
    assert np.allclose(numbers["hs_t_minus_U"][single], np.abs(t00 - u00)[single], rtol=1e-11, atol=0.0)


@pytest.mark.parametrize(
    "args, reason",
    [
        # evanescent growth across a 60-unit region trips the overflow guard
        (["sweep", "--scheme", "scheme2", "--L", "60", "--E-min", "-0.99",
          "--E-max", "-0.98", "--points", "2", "--segments", "64"], "evanescent growth"),
        # a = L/8192 is too coarse for the lattice oracle's band to hold E = 2
        (["validate", "--scheme", "scheme1", "--L", "20000", "--against", "oracle"],
         "lattice band too narrow"),
    ],
    ids=["growth_guard", "lattice_band"],
)
def test_numeric_failure_exit_code(args, reason, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 3
    assert "numeric failure" in err
    assert reason in err


# a profile whose field vanishes at an interior sample: the direction is
# undefined there, so the profile is refused as bad input
ZERO_PROFILE = "# y b1 b3\n0 0 1\n0.5 0 0.5\n1 0 0\n1.5 0 -0.5\n2 0 -1\n"

# the exception that ends each command picks its exit code
EXIT_BY_EXCEPTION = {
    "FieldDirectionError": (["sweep", "--scheme", "tabulated:{tmp}/zero.txt", "--E-min", "0",
                             "--E-max", "2", "--points", "5"], 1, "error: tabulated profile has |B| = 0"),
    "EvanescentOverflowError": (FAILING_COMMANDS["growth_guard"][0], 3,
                                "numeric failure: evanescent growth"),
    "ChannelMismatchError": (["validate", "--scheme", "scheme1", "--L", "20000", "--against",
                              "oracle"], 3, "numeric failure: lattice band too narrow"),
    "FileNotFoundError": (FAILING_COMMANDS["missing_profile"][0], 1, "error: "),
}


@pytest.mark.parametrize("args, expected, message", EXIT_BY_EXCEPTION.values(),
                         ids=EXIT_BY_EXCEPTION.keys())
def test_exit_code_follows_the_exception_type(args, expected, message, tmp_path, capsys):
    (tmp_path / "zero.txt").write_text(ZERO_PROFILE)
    code, out, err = run_cli([arg.format(tmp=tmp_path) for arg in args], capsys)
    assert (code, out) == (expected, "")
    assert err.startswith(message)


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--scheme", "wall", "--thetaL", "0", "--thetaR", "3.141592653589793",
         "--L", "3", "--against", "wall"],
        ["validate", "--scheme", "scheme2", "--L", "6", "--segments", "2048",
         "--against", "berry"],
        ["validate", "--scheme", "wall", "--thetaL", "0", "--thetaR", "1.2", "--L", "2",
         "--against", "delta"],
        # lead angles past +-pi: the closed form's U carries the other double-cover sign
        ["validate", "--scheme", "scheme1", "--q2", "1", "--L", "3", "--against", "delta"],
        ["validate", "--scheme", "scheme2", "--q1", "1", "--q2", "1", "--L", "6",
         "--against", "delta"],
        ["validate", "--scheme", "wall", "--thetaL", "0", "--thetaR", "7", "--L", "3",
         "--against", "delta"],
        ["validate", "--scheme", "scheme1", "--L", "3", "--segments", "512",
         "--against", "convergence"],
        ["validate", "--scheme", "scheme1", "--q1", "1", "--L", "3", "--against", "convergence"],
        ["validate", "--scheme", "scheme1", "--L", "3", "--against", "oracle"],
        # P01 and P10 of a uniform field are exactly 0: checked absolutely
        ["validate", "--scheme", "uniform", "--thetaL", "0.7", "--L", "3",
         "--against", "oracle"],
    ],
    ids=["wall", "berry", "delta", "delta_scheme1_3pi", "delta_scheme2_5pi_2", "delta_wall_7",
         "convergence", "convergence_winding", "oracle", "oracle_uniform"],
)
def test_validate_modes_pass(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "verdict: PASS" in out


# each mode's report on its field of the console-script smoke test, the deviation masked as D
SMOKE_REPORTS = {
    "wall": (["--scheme", "wall", "--thetaL", "0.3", "--thetaR", "2.0", "--L", "3"],
             ["entrywise engine vs wall matching: max deviation D (tol 1.0e-10) at E={worst} [ok]"]),
    "berry": (["--scheme", "scheme2", "--q1", "1", "--q2", "1", "--L", "6"],
              ["segmented vs planar transport (sign-aligned): max deviation D (tol 1.0e-08) "
               "at E=nan [ok]"]),
    "delta": (["--scheme", "wall", "--thetaL", "0.3", "--thetaR", "2.0", "--L", "3"],
              ["delta closed form vs wall at L=1e-6: max deviation D (tol 1.0e-04) at E=1.5 [ok]"]),
    "convergence": (["--scheme", "scheme1", "--L", "3"],
                    ["error ratio per halving at E=3: max deviation D (tol 5.0e-01) at E=3 [ok]"]),
    "oracle": (["--scheme", "scheme1", "--L", "3"],
               [f"probability rel. error (a=L/8192): max deviation D (tol 1.0e-04) at E={e} [ok]"
                for e in (2, 5)]),
}


@pytest.mark.parametrize("mode", SMOKE_REPORTS)
def test_validate_report_lines(mode, capsys):
    field_args, lines = SMOKE_REPORTS[mode]
    code, out, err = run_cli(["validate", *field_args, "--against", mode], capsys)
    masked = re.sub(r"max deviation \d\.\d{3}e[+-]\d{2} ", "max deviation D ", out)
    # the wall's worst energy is where rounding peaks, so any of its 50 energies will do
    worst = re.search(r"at E=(\S+) \[", out).group(1)
    if mode == "wall":
        assert worst in {cli._fmt(e) for e in np.linspace(1.01, 100.0, 50)}
    expected = "".join(f"  {line.format(worst=worst)}\n" for line in lines) + "verdict: PASS\n"
    assert (code, masked, err) == (0, expected, "")


@pytest.mark.parametrize("mode", ["oracle", "wall", "delta"])
def test_validate_engine_rows_check_the_engine(mode, monkeypatch, capsys):
    # an engine off by 1e-3 in t, r and the stored probabilities must fail each engine row
    real = cli.solve_scattering_batch

    def off(*args):
        batch = real(*args)
        return dataclasses.replace(batch, t=batch.t + 1e-3, r=batch.r + 1e-3,
                                   probabilities=batch.probabilities + 1e-3)

    monkeypatch.setattr(cli, "solve_scattering_batch", off)
    code, out, _ = run_cli(["validate", *SMOKE_REPORTS[mode][0], "--against", mode], capsys)
    assert (code, out.splitlines()[-1]) == (2, "verdict: FAIL"), out


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


@pytest.mark.parametrize(
    "field_args",
    [["--scheme", "wall", "--thetaR", "1.2", "--L", "2"],
     ["--scheme", "uniform", "--thetaL", "0.7", "--L", "3"]],
    ids=["wall", "uniform"],
)
def test_validate_convergence_refuses_exact_plans(field_args, capsys):
    # a constant interior makes every plan exact: the error ratio would be rounding
    code, out, err = run_cli(["validate", *field_args, "--against", "convergence"], capsys)
    assert (code, out) == (1, "")
    assert "needs a non-constant profile" in err


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


# The per-row loop that the one vectorised pass of `run_dump_profile`
# replaced, kept as its reference: the table must equal this byte for byte.
def dump_profile_reference(cfg):
    field = cli.build_field(cfg)
    out = io.StringIO()
    print("# y b1 b3 theta |B|", file=out)
    for y in np.linspace(0.0, field.length, max(cfg.points, 2)):
        b1, b3 = field.components(float(y))
        mag = float(field.magnitude(float(y)))
        try:
            theta = float(field.theta(float(y)))
        except spinwire.FieldDirectionError:
            theta = float("nan")
        print(" ".join(format(float(v), ".12g") for v in (y, float(b1), float(b3), theta, mag)),
              file=out)
    return out.getvalue()


DUMP_FIELDS = {
    "scheme1": ["--scheme", "scheme1", "--q1", "1", "--q2", "1", "--L", "3"],
    "scheme2": ["--scheme", "scheme2", "--L", "6", "--points", "401"],
    "wall": ["--scheme", "wall", "--thetaL", "0.3", "--thetaR", "2.5", "--L", "2", "--points", "333"],
    "uniform": ["--scheme", "uniform", "--thetaL", "0.7", "--L", "3"],
    "tabulated": ["--scheme", "tabulated:{tmp}/profile.txt"],
    "zero_length_wall": ["--scheme", "wall", "--thetaR", "1", "--L", "0", "--points", "7"],
}


@pytest.mark.parametrize("field_args", DUMP_FIELDS.values(), ids=DUMP_FIELDS.keys())
def test_dump_profile_equals_the_per_row_reference(field_args, tmp_path, capsys):
    ys = np.linspace(0.0, 4.0, 201)
    b1, b3 = spinwire.scheme2_field(1, 0, 4.0).components(ys)
    np.savetxt(tmp_path / "profile.txt", np.column_stack([ys, b1, b3]), fmt="%.17g", header="y b1 b3")
    argv = ["dump-profile", *(arg.format(tmp=tmp_path) for arg in field_args)]
    out_path = tmp_path / "dump.txt"
    code, out, _ = run_cli(argv + ["--out", str(out_path)], capsys)
    assert (code, out) == (0, "")
    text = out_path.read_text(encoding="utf-8")
    assert text == dump_profile_reference(cli.build_config(cli.make_parser().parse_args(argv)))
    thetas = [row.split()[3] for row in text.splitlines()[1:]]
    if field_args == DUMP_FIELDS["wall"]:
        # the direction is undefined inside the wall, and only there
        assert (thetas[0], thetas[-1]) == ("0.3", "2.5")
        assert set(thetas[1:-1]) == {"nan"}
    if field_args == DUMP_FIELDS["zero_length_wall"]:
        assert thetas == ["0"] * 7


def test_tabulated_profile_runs_every_engine_command(tmp_path, capsys):
    # a dumped profile fed back through --scheme tabulated:PATH
    path = tmp_path / "scheme2.txt"
    dump = ["dump-profile", "--scheme", "scheme2", "--q1", "1", "--L", "4", "--out", str(path)]
    assert run_cli(dump, capsys)[0] == 0
    scheme = ["--scheme", f"tabulated:{path}"]
    code, out, _ = run_cli(["sweep", *scheme, "--E-min", "0.5", "--E-max", "4", "--points", "6",
                            "--segments", "256"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 6 and all(row.endswith(",0") for row in rows)
    for mode in ("oracle", "berry", "convergence"):
        code, out, _ = run_cli(["validate", *scheme, "--against", mode], capsys)
        assert (code, out.splitlines()[-1]) == (0, "verdict: PASS"), out


UNIFORM = ["--scheme", "uniform", "--thetaL", "0", "--L", "2", "--segments", "64"]


def current_value(out: str) -> float:
    return float(out.split("current = ")[1].split()[0])


def test_current_zero_bias(capsys):
    code, out, _ = run_cli(["current", *UNIFORM, "--mu-left", "5.0", "--mu-right", "5.0"], capsys)
    assert (code, out) == (0, "current = 0  (mu_left=5, mu_right=5, T=0)\n")


def test_current_transparent_wire(capsys):
    code, out, _ = run_cli(["current", *UNIFORM, "--mu-left", "5.05", "--mu-right", "4.95"], capsys)
    assert code == 0
    assert current_value(out) == pytest.approx(2.0 * 0.1 / (2.0 * np.pi), rel=1e-11)


@pytest.mark.parametrize("flag", ["--mu-left", "--mu-right", "--temp"])
def test_current_rejects_nan(flag, capsys):
    values = {"--mu-left": "5.05", "--mu-right": "4.95", "--temp": "0"}
    values[flag] = "nan"
    code, out, err = run_cli(
        ["current", *UNIFORM] + [tok for item in values.items() for tok in item], capsys
    )
    assert code == 1
    assert "nan" in err.lower()
    assert out == ""


def test_current_from_the_lower_band_edge(capsys):
    # G = 1 on (-1, 1) and 2 on (1, 5.05) in the transparent wire: 10.1 / (2 pi)
    code, out, _ = run_cli(["current", *UNIFORM, "--mu-left", "5.05", "--mu-right", "-1"], capsys)
    assert code == 0
    assert out.startswith("current = 1.60746492523  ")
    assert current_value(out) == pytest.approx(10.1 / (2.0 * np.pi), rel=1e-11)


@pytest.mark.parametrize("flag", ["--E-min", "--E-max", "--points"])
def test_current_takes_no_grid(flag, capsys):
    argv = ["current", *UNIFORM, "--mu-left", "5.05", "--mu-right", "4.95", flag, "81"]
    assert run_cli(argv, capsys) == (1, "", f"error: unrecognized arguments: {flag} 81\n")


def test_current_prints_the_same_bytes_twice(capsys):
    argv = ["current", "--scheme", "scheme1", "--q1", "1", "--q2", "1", "--L", "6",
            "--mu-left", "3", "--mu-right", "-0.9", "--temp", "0.01"]
    first = run_cli(argv, capsys)
    assert first[0] == 0 and first == run_cli(argv, capsys)


def test_a_current_that_does_not_converge_is_a_numeric_failure(monkeypatch, capsys):
    monkeypatch.setattr(scattering, "CURRENT_MAX_SOLVES", 96)
    argv = ["current", "--scheme", "scheme1", "--q1", "1", "--q2", "1", "--L", "6",
            "--mu-left", "3", "--mu-right", "-0.9"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err == "numeric failure: the current did not converge in 96 solves\n"


def test_a_current_whose_nodes_miss_the_flux_identity_is_a_numeric_failure(capsys):
    argv = ["current", "--scheme", "scheme1", "--q1", "1", "--q2", "1", "--L", "20",
            "--mu-left", "3", "--mu-right", "-0.9"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure: the flux defect at E = ")


@pytest.mark.parametrize("flag", ["--mu-left", "--mu-right", "--temp"])
def test_current_rejects_inf(flag, capsys):
    values = {"--mu-left": "5.05", "--mu-right": "4.95", "--temp": "0"}
    values[flag] = "inf"
    code, out, err = run_cli(
        ["current", *UNIFORM] + [tok for item in values.items() for tok in item], capsys
    )
    assert (code, out) == (1, "")
    assert "must be" in err and "finite" in err


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
    # scipy is imported only by the lattice oracle, numpy.polynomial only by the
    # current's first quadrature, and no solve imports a thread or process pool at all
    heavy = ("scipy", "numpy.polynomial", "multiprocessing", "concurrent.futures")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, spinwire, spinwire.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        timeout=120,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fields_solves_and_sweep_leave_scipy_unloaded(tmp_path):
    # Every field, a loaded profile among them, solved at an open energy, a
    # tabulated sweep, and two lone closed energies: one within the regrouping
    # limit, which runs the granule tree, and one over it, which chains
    # segment by segment.  Neither imports scipy.  A 600-energy, 256-segment
    # direct batch and a current start no thread: a product runs in the
    # calling thread.
    profile, sweep = tmp_path / "profile.txt", tmp_path / "sweep.csv"
    script = f"""
import contextlib, io, sys, threading
import numpy as np
import spinwire, spinwire.cli
from spinwire import cli, scattering
from spinwire.scattering import solve_scattering_sweep

assert cli.main(["dump-profile", "--scheme", "scheme2", "--q1", "1", "--q2", "1", "--L", "4",
                 "--points", "200", "--out", {str(profile)!r}]) == 0
fields = [spinwire.scheme1_field(0, 1, 3.0), spinwire.scheme2_field(1, 1, 4.0),
          spinwire.magnetic_wall_field(0.3, 2.5, 2.0), spinwire.uniform_field(0.7, 3.0),
          spinwire.load_profile({str(profile)!r})]
for field in fields:
    spinwire.solve_scattering(field, 2.5)
spinwire.solve_scattering(spinwire.scheme2_field(1, 0, 4.0), 0.7)
spinwire.solve_scattering(spinwire.scheme1_field(0, 0, 20.0), -0.5)
assert cli.main(["sweep", "--scheme", "tabulated:" + {str(profile)!r},
                 "--E-min", "-0.999", "--E-max", "5", "--points", "600", "--out", {str(sweep)!r}]) == 0
grid = np.linspace(-0.9, 4.0, 600)
assert len(spinwire.solve_scattering_batch(spinwire.scheme2_field(1, 1, 6.0), grid, 256)) == 600
with contextlib.redirect_stdout(io.StringIO()) as current:
    assert cli.main(["current", "--scheme", "scheme2", "--q1", "1", "--q2", "1", "--L", "6",
                     "--segments", "256", "--mu-left", "2", "--mu-right", "0"]) == 0
assert current.getvalue().startswith("current = ")
assert "concurrent.futures" not in sys.modules
assert threading.active_count() == 1
print("scipy" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert len(sweep.read_text().splitlines()) == 601


def test_current_prints_a_solve_warning_as_plain_line(monkeypatch, capsys):
    # cli.main turns each warning the command raises, numpy's among them, into one line
    product = scattering.ordered_product

    def warning_product(*args):
        warnings.warn("overflow encountered in the solve", UserWarning)
        return product(*args)

    # the uniform field's levels are matched on their ordered products
    monkeypatch.setattr(scattering, "ordered_product", warning_product)
    code, out, err = run_cli(["current", *UNIFORM, "--mu-left", "2", "--mu-right", "0"], capsys)
    assert code == 0 and out.startswith("current = ")
    assert err == "warning: overflow encountered in the solve\n"
