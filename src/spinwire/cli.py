"""Configuration-driven sweep runner and validator.

Commands:
  sweep         solve the configured profile on an energy grid, emit CSV
  validate      compare the engine with one mode's references in VALIDATE_CHECKS
  dump-profile  emit the field profile as a y/b1/b3/theta/|B| table
  current       Landauer current for a bias window, by adaptive quadrature of
                the conductances matched on one interpolant of the window

Configs are flat ``key = value`` text files with ``#`` comments; command-line
flags override file keys.  Unknown keys and bad values are hard errors.  A
sweep solves its grid by `scattering.solve_scattering_sweep`, and
`transfer.product_interpolant` says when it interpolates the transfer
product and when the grid is solved directly.
A `current` reads no grid: `scattering.landauer_current` places its own
nodes over the bias window.
Sweeps and currents are deterministic: the nodes depend only on the
configuration, so identical configuration yields identical bytes, floats are
rendered with at most 12 significant digits, and sweep grids are nudged off
the exact band edges by `core.EDGE_NUDGE` = 1e-9 (with a note on stderr,
never in the CSV).  A command writes its notes, then each warning as one
plain ``warning:`` line on stderr, then its output, to stdout or ``--out``,
and a sweep's ``--stats`` record (`diagnostics.Diagnostics` as JSON) last,
only after it has succeeded: a command that fails writes only its error
line, and an existing ``--out`` or ``--stats`` file keeps its contents.

Exit codes follow the type of the exception that ended the command:
0 success/PASS; 1 usage error or any other refused input, a bad profile
included (ValueError, OSError); 2 validation FAIL; 3 numeric failure, any
ArithmeticError (singular matching, evanescent overflow, a lattice spacing too
coarse for the oracle, a current that does not converge or whose nodes miss
the flux identity).
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import dataclass, fields as dataclass_fields, replace

import numpy as np

from .core import EDGE_NUDGE, Regime, hs_norm
from .diagnostics import Recorder, timed
from .berry import (
    align_sign,
    berry_operator_planar,
    berry_operator_segmented,
    field_directions,
    planar_direction,
)
from .fields import (
    PlanarField,
    load_profile,
    magnetic_wall_field,
    scheme1_field,
    scheme2_field,
    uniform_field,
)
from .scattering import (
    DEFAULT_SEGMENTS,
    landauer_current,
    physical_mask,
    solve_scattering_batch,
    solve_scattering_sweep,
    transmission_columns,
)
from .analytic import WallConfig, delta_wall_scattering, high_energy_t, magnetic_wall_scattering
from .lattice import fd_scattering

# CSV columns in order, by the output group that enables them; None is always on
CSV_LAYOUT = (
    (None, ("E",)),
    ("probabilities", ("P00", "P01", "P10", "P11", "R00sq")),
    ("distances", ("hs_t_minus_U", "hs_r")),
    (None, ("unitarity_defect",)),
    ("conductance", ("conductance",)),
    (None, ("regime", "defect_flag")),
)
OUTPUT_GROUPS = tuple(group for group, _ in CSV_LAYOUT if group)


@dataclass
class SweepConfig:
    """All knobs of a run: its fields are the config-file keys and, spelled with -, the flags."""

    scheme: str = "scheme1"
    q1: int = 0
    q2: int = 0
    L: float = 3.0
    thetaL: float = 0.0
    thetaR: float = np.pi
    E_min: float = -1.0
    E_max: float = 5.0
    points: int = 200
    segments: int = DEFAULT_SEGMENTS
    outputs: str = "probabilities,distances,conductance"
    defect_tol: float = 1e-8

    def output_groups(self) -> tuple[str, ...]:
        groups = tuple(tok.strip() for tok in self.outputs.split(",") if tok.strip())
        for tok in groups:
            if tok not in OUTPUT_GROUPS:
                raise ValueError(f"unknown output group {tok!r}; choose from {OUTPUT_GROUPS}")
        return groups

    def csv_columns(self) -> tuple[str, ...]:
        groups = self.output_groups()
        return tuple(
            col for group, cols in CSV_LAYOUT if group is None or group in groups for col in cols
        )


_CONFIG_TYPES = {f.name: type(f.default) for f in dataclass_fields(SweepConfig)}
_FIELD_KEYS = ("scheme", "q1", "q2", "L", "thetaL", "thetaR")

_CONFIG_HELP = {
    "scheme": "scheme1 | scheme2 | wall | uniform | tabulated:PATH",
    "L": "region length in magnetic-length units",
    "thetaL": "left lead angle (wall/uniform)",
    "thetaR": "right lead angle (wall)",
    "segments": "segments of the midpoint plan; wall and uniform solve with one, which is exact",
    "outputs": "comma list of column groups: " + ",".join(OUTPUT_GROUPS),
}


def parse_config_file(path: str) -> dict:
    """Flat key = value parser; '#' starts a comment; unknown keys are errors."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from exc
    return values


def build_config(args: argparse.Namespace) -> SweepConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in _CONFIG_TYPES:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = override
    cfg = SweepConfig(**values)
    if cfg.points < 1:
        raise ValueError("points must be >= 1")
    if cfg.segments < 1:
        raise ValueError("segments must be >= 1")
    if not (np.isfinite(cfg.defect_tol) and cfg.defect_tol >= 0.0):
        raise ValueError(f"defect_tol must be non-negative and finite, got {cfg.defect_tol}")
    cfg.output_groups()
    return cfg


def build_field(cfg: SweepConfig) -> PlanarField:
    scheme = cfg.scheme
    if scheme == "scheme1":
        return scheme1_field(cfg.q1, cfg.q2, cfg.L)
    if scheme == "scheme2":
        return scheme2_field(cfg.q1, cfg.q2, cfg.L)
    if scheme == "wall":
        return magnetic_wall_field(cfg.thetaL, cfg.thetaR, cfg.L)
    if scheme == "uniform":
        return uniform_field(cfg.thetaL, cfg.L)
    if scheme.startswith("tabulated:"):
        return load_profile(scheme.split(":", 1)[1])
    raise ValueError(
        f"unknown scheme {scheme!r}; expected scheme1, scheme2, wall, uniform or tabulated:PATH"
    )


def energy_grid(cfg: SweepConfig) -> tuple[np.ndarray, list[str]]:
    """Sweep grid with exact band edges nudged off by EDGE_NUDGE, and a note per nudged point."""
    grid = np.linspace(cfg.E_min, cfg.E_max, cfg.points)
    hits = [(i, e) for e in (-1.0, 1.0) for i in np.nonzero(np.abs(grid - e) < 1e-12)[0]]
    for i, e in hits:
        grid[i] = e + EDGE_NUDGE
    return grid, [f"note: grid point {i} nudged off the band edge {e:+g} by {EDGE_NUDGE:g}"
                  for i, e in hits]


_FLOAT = "%.12g"  # how the CLI prints every float: at most 12 significant digits


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


def _sweep_numbers(field, batch) -> dict[str, np.ndarray]:
    """Every numeric CSV column of a sweep, read from its batch's arrays.

    A single-channel row takes its distances from the (0, 0) entries alone,
    the physical ones, as `transmission_columns` masks its P columns.
    """
    physical = physical_mask(batch.two_channel)
    return {
        "E": batch.energy,
        **transmission_columns(batch),
        "hs_t_minus_U": hs_norm(np.where(physical, batch.t - high_energy_t(field), 0.0)),
        "hs_r": hs_norm(np.where(physical, batch.r, 0.0)),
        "unitarity_defect": batch.unitarity_defect,
        "conductance": batch.conductance,
    }


def run_sweep(cfg: SweepConfig, recorder: Recorder | None = None) -> tuple[str, list[str]]:
    """The CSV text and the grid's notes; a ``recorder`` also times the CSV, layer "csv"."""
    field = build_field(cfg)
    grid, notes = energy_grid(cfg)
    batch = solve_scattering_sweep(field, grid, cfg.segments, recorder)
    with timed(recorder, "csv"):
        columns = cfg.csv_columns()
        cells = _sweep_numbers(field, batch)
        regimes = Regime.TWO_CHANNEL.value, Regime.SINGLE_CHANNEL.value
        cells["regime"] = np.where(batch.two_channel, *regimes)
        # a NaN defect is flagged too
        cells["defect_flag"] = np.where(cells["unitarity_defect"] <= cfg.defect_tol, "0", "1")
        row = ",".join("%s" if name in ("regime", "defect_flag") else _FLOAT for name in columns)
        rows = [row % values for values in zip(*(cells[name].tolist() for name in columns))]
        return "\n".join([",".join(columns), *rows]) + "\n", notes


def run_dump_profile(cfg: SweepConfig) -> str:
    field = build_field(cfg)
    ys = np.linspace(0.0, field.length, max(cfg.points, 2))
    b1, b3 = field.components(ys)
    mag = field.magnitude(ys)
    # the direction is undefined where the field vanishes: inside the wall
    undefined = mag == 0.0
    theta = np.where(undefined, np.nan, field.theta(np.where(undefined, 0.0, ys)))
    table = np.column_stack([ys, b1, b3, theta, mag]).tolist()
    return "\n".join(["# y b1 b3 theta |B|", *(" ".join(map(_fmt, row)) for row in table)]) + "\n"


def run_current(cfg: SweepConfig, mu_left: float, mu_right: float, temperature: float) -> str:
    current = landauer_current(build_field(cfg), mu_left, mu_right, temperature, cfg.segments)
    return (f"current = {_fmt(current)}  (mu_left={_fmt(mu_left)}, "
            f"mu_right={_fmt(mu_right)}, T={_fmt(temperature)})\n")


def _deviation(ref, eng) -> float:
    """Largest entrywise |delta t| or |delta r| between two scattering results."""
    return max(float(np.max(np.abs(ref.t - eng.t))), float(np.max(np.abs(ref.r - eng.r))))


def _engine_check(label, tol, energies, reference, deviation, field, segments, *,
                  solved=lambda field: field, refusal=lambda field: None) -> tuple:
    """One report line: the engine solves `solved(field)` once at `energies`, and the line
    gives the largest `deviation(reference(solved field, e), engine at e)` and its energy.
    A field for which `refusal` returns a message is refused with it."""
    if message := refusal(field):
        raise ValueError(message)
    field = solved(field)
    engine = solve_scattering_batch(field, energies, segments)
    devs = [deviation(reference(field, e), x) for e, x in zip(energies, engine)]
    worst = int(np.argmax(devs))
    return label, devs[worst], tol, energies[worst]


def _berry_check(field: PlanarField, segments: int) -> tuple:
    if field.zero_field_interior:
        raise ValueError("validate --against berry needs a continuous profile")
    segmented = berry_operator_segmented(field_directions(field, segments))
    planar = berry_operator_planar(field, 0.0, field.length)
    dev = float(np.max(np.abs(align_sign(segmented, planar) - planar)))
    return "segmented vs planar transport (sign-aligned)", dev, 1e-8, float("nan")


def _convergence_check(field: PlanarField, segments: int) -> tuple:
    if field.constant_interior:
        # the plan is exact, so the errors it would divide are rounding
        raise ValueError("validate --against convergence needs a non-constant profile")
    if segments < 4:
        raise ValueError("validate --against convergence needs segments >= 4")
    energy = 3.0
    probs = [solve_scattering_batch(field, [energy], n)[0].probabilities
             for n in (segments // 4, segments // 2, segments, 4 * segments)]
    errors = [float(np.max(np.abs(p - probs[-1]))) for p in probs[:-1]]  # coarsest first
    ratio = max(fine / coarse if coarse > 0 else 0.0 for coarse, fine in zip(errors, errors[1:]))
    # error ratio bound: each halving of the step must gain >= 2x
    return f"error ratio per halving at E={_fmt(energy)}", ratio, 0.5, energy


# the checks of each `validate --against` mode, one report line each, in report order
VALIDATE_CHECKS = {
    "oracle": tuple(functools.partial(
        _engine_check, "probability rel. error (a=L/8192)", 1e-4, (energy,),
        lambda field, e: fd_scattering(field, e, field.length / 8192),
        # relative where the engine's probability is nonzero, absolute where it is 0
        lambda ref, eng: float(np.max(np.abs(ref.probabilities - eng.probabilities)
                                      / np.where(eng.probabilities > 0, eng.probabilities, 1.0))),
    ) for energy in (2.0, 5.0)),
    "wall": (functools.partial(
        _engine_check, "entrywise engine vs wall matching", 1e-10, np.linspace(1.01, 100.0, 50),
        lambda wall, e: magnetic_wall_scattering(
            WallConfig(wall.theta_left, wall.theta_right, wall.length, e)),
        _deviation,
        refusal=lambda field: None if field.zero_field_interior else (
            "validate --against wall needs scheme = wall"),
    ),),
    "delta": (functools.partial(
        _engine_check, "delta closed form vs wall at L=1e-6", 1e-4, (1.5, 2.0, 5.0, 20.0),
        lambda wall, e: delta_wall_scattering(
            planar_direction(wall.theta_left), planar_direction(wall.theta_right), e),
        # t is linear in the closed form's U, whose overlap gauge fixes it only up to
        # the double-cover sign (see `berry`); r does not carry that sign
        lambda ref, eng: _deviation(replace(ref, t=align_sign(ref.t, eng.t)), eng),
        solved=lambda field: magnetic_wall_field(field.theta_left, field.theta_right, 1e-6),
    ),),
    "berry": (_berry_check,),
    "convergence": (_convergence_check,),
}


def run_validate(cfg: SweepConfig, against: str) -> tuple[str, int]:
    """The report text and the exit code: 0 on PASS, 2 on FAIL."""
    field = build_field(cfg)
    lines = [check(field, cfg.segments) for check in VALIDATE_CHECKS[against]]
    ok = all(value <= tol for _, value, tol, _ in lines)
    return "".join(
        f"  {name}: max deviation {value:.3e} (tol {tol:.1e}) at E={_fmt(energy)} "
        f"[{'ok' if value <= tol else 'EXCEEDED'}]\n"
        for name, value, tol, energy in lines
    ) + f"verdict: {'PASS' if ok else 'FAIL'}\n", 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _add_config_flags(parser: argparse.ArgumentParser, keys=tuple(_CONFIG_TYPES)) -> None:
    """The flags of the config keys a command reads; a config file may set any key."""
    parser.add_argument("--config", help="flat key = value config file")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=_CONFIG_TYPES[key], help=_CONFIG_HELP.get(key))


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="spinwire",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep",
        help="energy sweep to CSV",
        description=(
            "CSV columns in order, a group's only when it is enabled: " + "; ".join(
                (f"{group} -> " if group else "") + ",".join(cols) for group, cols in CSV_LAYOUT
            ) + ".  P{l}{l'} = |t[l,l']|^2; "
            "hs_t_minus_U is the Hilbert-Schmidt distance between t and the "
            "full-interval eigenbasis transport U, and hs_r the Hilbert-Schmidt "
            "norm of r; on single-channel rows both take the (0,0) entries "
            "only: |t00 - U00| and |r00|.  defect_flag is 1 when the "
            "flux identity misses the configured tolerance."
        ),
    )
    _add_config_flags(sweep)
    sweep.add_argument("--out", help="output CSV path (default: stdout)")
    sweep.add_argument("--stats", help="also write the solve's diagnostics record to this path, as JSON")

    validate = sub.add_parser("validate", help="cross-check the engine against a reference")
    _add_config_flags(validate, _FIELD_KEYS + ("segments",))
    validate.add_argument("--against", required=True, choices=tuple(VALIDATE_CHECKS))

    dump = sub.add_parser("dump-profile", help="emit 'y b1 b3 theta |B|' profile table")
    _add_config_flags(dump, _FIELD_KEYS + ("points",))
    dump.add_argument("--out", help="output path (default: stdout)")

    current = sub.add_parser("current", help="Landauer current over the bias window")
    _add_config_flags(current, _FIELD_KEYS + ("segments",))
    current.add_argument("--mu-left", type=float, required=True)
    current.add_argument("--mu-right", type=float, required=True)
    current.add_argument("--temp", type=float, default=0.0)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        code, notes = 0, []
        recorder = Recorder() if getattr(args, "stats", None) else None
        with warnings.catch_warnings(record=True) as caught:
            if args.command == "sweep":
                text, notes = run_sweep(cfg, recorder)
            elif args.command == "dump-profile":
                text = run_dump_profile(cfg)
            elif args.command == "validate":
                text, code = run_validate(cfg, args.against)
            else:
                text = run_current(cfg, args.mu_left, args.mu_right, args.temp)
        # only now, after the command succeeded: its notes, one line per warning, its output
        for line in notes + [f"warning: {warning.message}" for warning in caught]:
            print(line, file=sys.stderr)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(text)
        else:
            sys.stdout.write(text)
        if recorder is not None:
            with open(args.stats, "w", encoding="utf-8") as out:
                out.write(recorder.record().to_json())
        return code
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
