"""Configuration-driven sweep runner and validator.

Commands:
  sweep         solve the configured profile on an energy grid, emit CSV
  validate      compare the engine against an independent reference
  dump-profile  emit the field profile as a y/b1/b3/theta/|B| table
  current       Landauer current for a bias window on the configured grid

Configs are flat ``key = value`` text files with ``#`` comments; command-line
flags override file keys.  Unknown keys are hard errors.  Sweeps are
deterministic: identical configuration yields byte-identical CSV, floats are
rendered with at most 12 significant digits, and energy grids are nudged off
the exact band edges by 1e-9 (with a note on stderr, never in the CSV).

Exit codes: 0 success/PASS, 1 usage or config error, 2 validation FAIL,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .core import (
    ChannelMismatchError,
    EvanescentOverflowError,
    FieldDirectionError,
    RegimeError,
    SingularSystemError,
    hs_distance,
    hs_norm,
)
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
    landauer_current,
    solve_scattering_batch,
    transmission_probabilities,
)
from .analytic import WallConfig, delta_wall_scattering, magnetic_wall_scattering
from .lattice import fd_scattering

NUMERIC_ERRORS = (
    RegimeError,
    SingularSystemError,
    EvanescentOverflowError,
    ChannelMismatchError,
    FieldDirectionError,
    FloatingPointError,
    np.linalg.LinAlgError,
)

OUTPUT_GROUPS = ("probabilities", "distances", "conductance")

CSV_GROUP_COLUMNS = {
    "probabilities": ("P00", "P01", "P10", "P11", "R00sq"),
    "distances": ("hs_t_minus_U", "hs_r"),
    "conductance": ("conductance",),
}


class ConfigError(ValueError):
    pass


@dataclass
class SweepConfig:
    """All knobs of a run; mirrors the flat config-file keys."""

    scheme: str = "scheme1"
    q1: int = 0
    q2: int = 0
    L: float = 3.0
    thetaL: float = 0.0
    thetaR: float = np.pi
    E_min: float = -1.0
    E_max: float = 5.0
    points: int = 200
    segments: int = 4096
    outputs: str = "probabilities,distances,conductance"
    defect_tol: float = 1e-8

    def output_groups(self) -> tuple[str, ...]:
        groups = tuple(tok.strip() for tok in self.outputs.split(",") if tok.strip())
        for tok in groups:
            if tok not in OUTPUT_GROUPS:
                raise ConfigError(f"unknown output group {tok!r}; choose from {OUTPUT_GROUPS}")
        return groups

    def csv_columns(self) -> tuple[str, ...]:
        groups = self.output_groups()
        cols: list[str] = ["E"]
        for group in ("probabilities", "distances"):
            if group in groups:
                cols.extend(CSV_GROUP_COLUMNS[group])
        cols.append("unitarity_defect")
        if "conductance" in groups:
            cols.extend(CSV_GROUP_COLUMNS["conductance"])
        cols.extend(("regime", "defect_flag"))
        return tuple(cols)


_CONFIG_TYPES = {f.name: f.type for f in dataclass_fields(SweepConfig)}


def _coerce(key: str, raw: str):
    kind = _CONFIG_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """Flat key = value parser; '#' starts a comment; unknown keys are errors."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, raw)
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
        raise ConfigError("points must be >= 1")
    if cfg.segments < 1:
        raise ConfigError("segments must be >= 1")
    if cfg.L <= 0 and not cfg.scheme.startswith("wall"):
        raise ConfigError("L must be positive")
    if not (np.isfinite(cfg.defect_tol) and cfg.defect_tol >= 0.0):
        raise ConfigError(f"defect_tol must be non-negative and finite, got {cfg.defect_tol}")
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
    raise ConfigError(
        f"unknown scheme {scheme!r}; expected scheme1, scheme2, wall, uniform or tabulated:PATH"
    )


def energy_grid(cfg: SweepConfig, diag) -> np.ndarray:
    """Sweep grid with exact band edges nudged off by 1e-9."""
    grid = np.linspace(cfg.E_min, cfg.E_max, cfg.points)
    for edge in (-1.0, 1.0):
        hits = np.nonzero(np.abs(grid - edge) < 1e-12)[0]
        for idx in hits:
            grid[idx] = edge + 1e-9
            print(
                f"note: grid point {idx} nudged off the band edge {edge:+g} by 1e-9",
                file=diag,
            )
    if np.any(grid <= -1.0):
        raise ConfigError("energy window extends into the closed regime (E <= -1)")
    return grid


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _sweep_rows(field, energies, segments):
    results = solve_scattering_batch(field, np.asarray(energies), segments)
    berry = berry_operator_planar(field, 0.0, field.length)
    rows = []
    for res in results:
        table = transmission_probabilities(res)
        rows.append(
            {
                "E": res.channel.energy,
                "P00": table["P00"],
                "P01": table["P01"],
                "P10": table["P10"],
                "P11": table["P11"],
                "R00sq": table["R00sq"],
                "hs_t_minus_U": hs_distance(res.t, berry),
                "hs_r": hs_norm(res.r),
                "unitarity_defect": res.unitarity_defect,
                "conductance": res.conductance,
                "regime": res.channel.regime.value,
            }
        )
    return rows


def _sweep_chunk(payload):
    field, energies, segments = payload
    return _sweep_rows(field, energies, segments)


def run_sweep(cfg: SweepConfig, out, diag, workers: int = 1) -> int:
    field = build_field(cfg)
    grid = energy_grid(cfg, diag)
    if workers > 1:
        chunks = np.array_split(grid, min(workers * 4, grid.size))
        chunks = [c for c in chunks if c.size]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_chunk, [(field, c, cfg.segments) for c in chunks]))
        rows = [row for part in parts for row in part]
    else:
        rows = _sweep_rows(field, grid, cfg.segments)
    columns = cfg.csv_columns()
    print(",".join(columns), file=out)
    for row in rows:
        # a NaN defect is flagged too
        row["defect_flag"] = int(not row["unitarity_defect"] <= cfg.defect_tol)
        cells = []
        for col in columns:
            value = row[col]
            if col == "regime":
                cells.append(value)
            elif col == "defect_flag":
                cells.append(str(value))
            else:
                cells.append(_fmt(value))
        print(",".join(cells), file=out)
    return 0


def run_dump_profile(cfg: SweepConfig, out) -> int:
    field = build_field(cfg)
    ys = np.linspace(0.0, field.length, max(cfg.points, 2))
    print("# y b1 b3 theta |B|", file=out)
    for y in ys:
        b1, b3 = field.components(float(y))
        mag = float(field.magnitude(float(y)))
        try:
            theta = float(field.theta(float(y)))
        except FieldDirectionError:
            theta = float("nan")
        print(
            " ".join(_fmt(v) for v in (y, float(b1), float(b3), theta, mag)),
            file=out,
        )
    return 0


def run_current(cfg: SweepConfig, mu_left: float, mu_right: float, temperature: float, out, diag) -> int:
    field = build_field(cfg)
    grid = energy_grid(cfg, diag)
    current = landauer_current(field, mu_left, mu_right, temperature, grid, cfg.segments)
    print(
        f"current = {_fmt(current)}  (grid: {grid.size} points in "
        f"[{_fmt(grid[0])}, {_fmt(grid[-1])}], mu_left={_fmt(mu_left)}, "
        f"mu_right={_fmt(mu_right)}, T={_fmt(temperature)})",
        file=out,
    )
    return 0


def _report(lines, verdict, out):
    for name, value, tol, energy in lines:
        status = "ok" if value <= tol else "EXCEEDED"
        print(f"  {name}: max deviation {value:.3e} (tol {tol:.1e}) at E={_fmt(energy)} [{status}]", file=out)
    print(f"verdict: {verdict}", file=out)


def _two_channel_grid(cfg: SweepConfig, n: int, upper: float) -> np.ndarray:
    return np.linspace(1.01, upper, n)


def run_validate(cfg: SweepConfig, against: str, out, diag) -> int:
    field = build_field(cfg)
    lines = []
    if against == "oracle":
        spacing = field.length / 8192
        tol = 1e-4
        for energy in (2.0, 5.0):
            eng = solve_scattering_batch(field, [energy], cfg.segments)[0]
            lat = fd_scattering(field, energy, spacing)
            rel = float(np.max(np.abs(lat.probabilities - eng.probabilities) / np.abs(eng.probabilities)))
            lines.append((f"probability rel. error (a=L/8192)", rel, tol, energy))
    elif against == "wall":
        if not field.zero_field_interior:
            raise ConfigError("validate --against wall needs scheme = wall")
        tol = 1e-10
        worst, worst_e = 0.0, 0.0
        for energy in _two_channel_grid(cfg, 50, 100.0):
            eng = solve_scattering_batch(field, [energy], cfg.segments)[0]
            ana = magnetic_wall_scattering(WallConfig(cfg.thetaL, cfg.thetaR, cfg.L, energy))
            dev = max(
                float(np.max(np.abs(eng.t - ana.t))),
                float(np.max(np.abs(eng.r - ana.r))),
            )
            if dev > worst:
                worst, worst_e = dev, energy
        lines.append(("entrywise engine vs wall matching", worst, tol, worst_e))
    elif against == "delta":
        tol = 1e-4
        n_l = planar_direction(field.theta_left)
        n_r = planar_direction(field.theta_right)
        worst, worst_e = 0.0, 0.0
        for energy in (1.5, 2.0, 5.0, 20.0):
            delta = delta_wall_scattering(n_l, n_r, energy)
            wall = magnetic_wall_scattering(
                WallConfig(field.theta_left, field.theta_right, 1e-6, energy)
            )
            dev = max(
                float(np.max(np.abs(delta.t - wall.t))),
                float(np.max(np.abs(delta.r - wall.r))),
            )
            if dev > worst:
                worst, worst_e = dev, energy
        lines.append(("delta closed form vs wall at L=1e-6", worst, tol, worst_e))
    elif against == "berry":
        if field.zero_field_interior:
            raise ConfigError("validate --against berry needs a continuous profile")
        tol = 1e-8
        segmented = berry_operator_segmented(field_directions(field, cfg.segments))
        planar = berry_operator_planar(field, 0.0, field.length)
        dev = float(np.max(np.abs(align_sign(segmented, planar) - planar)))
        lines.append(("segmented vs planar transport (sign-aligned)", dev, tol, float("nan")))
    elif against == "convergence":
        if cfg.segments < 4:
            raise ConfigError("validate --against convergence needs segments >= 4")
        tol = 0.5  # error ratio bound: each halving of the step must gain >= 2x
        energy = 3.0
        reference = solve_scattering_batch(field, [energy], 4 * cfg.segments)[0].probabilities
        errors = []
        n = cfg.segments
        for _ in range(3):
            probs = solve_scattering_batch(field, [energy], n)[0].probabilities
            errors.append(float(np.max(np.abs(probs - reference))))
            n //= 2
        errors = errors[::-1]  # coarsest first
        ratio = max(errors[i + 1] / errors[i] if errors[i] > 0 else 0.0 for i in range(2))
        lines.append((f"error ratio per halving at E={_fmt(energy)}", ratio, tol, energy))
    else:
        raise ConfigError(f"unknown validation mode {against!r}")
    ok = all(value <= tol for _, value, tol, _ in lines)
    _report(lines, "PASS" if ok else "FAIL", out)
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--scheme", help="scheme1 | scheme2 | wall | uniform | tabulated:PATH")
    parser.add_argument("--q1", type=int)
    parser.add_argument("--q2", type=int)
    parser.add_argument("--L", type=float, help="region length in magnetic-length units")
    parser.add_argument("--thetaL", type=float, help="left lead angle (wall/uniform)")
    parser.add_argument("--thetaR", type=float, help="right lead angle (wall)")
    parser.add_argument("--E-min", dest="E_min", type=float)
    parser.add_argument("--E-max", dest="E_max", type=float)
    parser.add_argument("--points", type=int)
    parser.add_argument("--segments", type=int)
    parser.add_argument("--outputs", help="comma list of column groups: probabilities,distances,conductance")
    parser.add_argument("--defect-tol", dest="defect_tol", type=float)


def make_parser() -> argparse.ArgumentParser:
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
            "CSV schema (in order): E; then per enabled output group: "
            "probabilities -> P00,P01,P10,P11,R00sq; distances -> "
            "hs_t_minus_U,hs_r; then always unitarity_defect; conductance -> "
            "conductance; always: regime, defect_flag.  P{l}{l'} = |t[l,l']|^2; "
            "hs_t_minus_U is the Hilbert-Schmidt distance between t and the "
            "full-interval eigenbasis transport; defect_flag is 1 when the "
            "flux identity misses the configured tolerance."
        ),
    )
    _add_config_flags(sweep)
    sweep.add_argument("--out", help="output CSV path (default: stdout)")
    sweep.add_argument("--workers", type=int, default=1, help="parallel workers (order-preserving)")

    validate = sub.add_parser("validate", help="cross-check the engine against a reference")
    _add_config_flags(validate)
    validate.add_argument(
        "--against",
        required=True,
        choices=("oracle", "wall", "delta", "berry", "convergence"),
    )

    dump = sub.add_parser("dump-profile", help="emit 'y b1 b3 theta |B|' profile table")
    _add_config_flags(dump)
    dump.add_argument("--out", help="output path (default: stdout)")

    current = sub.add_parser("current", help="Landauer current over the configured grid")
    _add_config_flags(current)
    current.add_argument("--mu-left", type=float, required=True)
    current.add_argument("--mu-right", type=float, required=True)
    current.add_argument("--temp", type=float, default=0.0)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        if args.command == "sweep":
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    return run_sweep(cfg, fh, sys.stderr, workers=args.workers)
            return run_sweep(cfg, sys.stdout, sys.stderr, workers=args.workers)
        if args.command == "validate":
            return run_validate(cfg, args.against, sys.stdout, sys.stderr)
        if args.command == "dump-profile":
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    return run_dump_profile(cfg, fh)
            return run_dump_profile(cfg, sys.stdout)
        if args.command == "current":
            return run_current(cfg, args.mu_left, args.mu_right, args.temp, sys.stdout, sys.stderr)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
