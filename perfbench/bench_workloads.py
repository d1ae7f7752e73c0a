"""The benchmark's three workloads: inputs drawn from a seed, operations, checks.

Each workload is a closed loop with one caller: the next operation starts when
the previous one has returned.  A run repeats whole rounds of the same
operations, so the share of failed operations is the same in every run.

* ``sweep``: one operation is ``spinwire.cli.main(["sweep", ...])`` on a
  600-point grid from -1 to 5, written to a CSV file.
* ``point``: one operation is ``solve_scattering(field, E)``.
* ``long_wire``: one operation is one energy of a 20-energy
  ``solve_scattering_batch`` on wires of length 10, 20 and 40, where the
  evanescent growth across the wire reaches e^14, e^27 and e^55.

Every workload uses the program's default segment count and ``--workers``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import spinwire as sw
import spinwire.cli as sw_cli

import bench_checks as bc
from bench_fields import build_field, cli_flags, label

SWEEP_POINTS, SWEEP_E_MIN, SWEEP_E_MAX = 600, -1.0, 5.0
Q1_CHOICES, Q2_CHOICES = (0, 1, 10), (0, 1)
LONG_WIRE_ENERGIES = np.linspace(-0.95, 0.95, 20)
LONG_WIRE_CASES = [("scheme1", 10.0), ("scheme2", 10.0), ("scheme1", 20.0),
                   ("scheme2", 20.0), ("scheme1", 40.0), ("scheme2", 40.0)]
TABULATED_SAMPLES = 200


@dataclass
class Op:
    """One operation of a round: a call of a public entry point on fixed inputs."""

    entry: str  # dotted name of the public entry point the operation calls
    spec: dict
    field: object
    energies: np.ndarray  # energies one call solves
    call: Callable[[], object]
    cli_args: list  # ``spinwire sweep`` arguments for the same field and energies

    @property
    def csv_path(self) -> str:
        return self.cli_args[self.cli_args.index("--out") + 1]


def _draw_scheme(rng, lengths) -> dict:
    return {"kind": str(rng.choice(["scheme1", "scheme2"])), "q1": int(rng.choice(Q1_CHOICES)),
            "q2": int(rng.choice(Q2_CHOICES)), "L": float(lengths(rng))}


def _draw_energy(rng) -> float:
    """An energy in (-0.99, 10), at least 1e-3 from either band edge."""
    while True:
        energy = float(rng.uniform(-0.99, 10.0))
        if min(abs(energy - 1.0), abs(energy + 1.0)) >= 1e-3:
            return energy


def _sweep_args(spec: dict, e_min: float, e_max: float, points: int, out: str) -> list:
    return (["sweep"] + cli_flags(spec) + ["--points", str(points), "--E-min", repr(float(e_min)),
            "--E-max", repr(float(e_max)), "--out", out])


def run_cli(args: list) -> None:
    code = sw_cli.main(args)
    if code != 0:
        raise RuntimeError(f"spinwire {' '.join(args)} exited with {code}")


def write_tabulated(path: str, q1: int, q2: int, length: float) -> dict:
    """Write a '# y b1 b3' profile sampled from a scheme2 field; return its spec."""
    ys = np.linspace(0.0, length, TABULATED_SAMPLES)
    b1, b3 = sw.scheme2_field(q1, q2, length).components(ys)
    np.savetxt(path, np.column_stack([ys, b1, b3]), fmt="%.17g", header="y b1 b3")
    return {"kind": "tabulated", "path": path}


class Workload:
    name = ""
    uses_cli = False  # whether set-up imports spinwire.cli

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.refs = bc.References()

    def setup_specs(self) -> list:
        """Field specs that set-up builds in a fresh interpreter."""
        specs = []
        for op in self.ops:
            if op.spec not in specs:
                specs.append(op.spec)
        return specs

    def round(self) -> list:
        return list(self.ops)

    def attempted_per_op(self, op: Op) -> int:
        return 1

    def collect(self, op: Op, value):
        """The output of one call, read after its clock has stopped."""
        return value

    def segments(self, op: Op, output) -> int:
        """Segment count the operation used: the engine's default, read from its result."""
        if isinstance(output, list):
            output = output[0]
        if isinstance(output, Exception):
            return sw.scattering.DEFAULT_SEGMENTS
        return output.n_segments

    def details(self) -> dict:
        """Workload-specific facts for the run record."""
        return {}

    def check(self, records: list):
        """Check every (op, output) record.

        Returns (failed, problems, prob_err, selftest_misses): ``failed`` counts
        operations hit by the unstabilised-product fault, ``problems`` lists any
        other wrong output.
        """
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"
    uses_cli = True
    CONFIGS_PER_ROUND = 2
    CHECKED_PER_CONFIG = 6
    # Accuracy panel: fixed inputs, so prob_err compares across commits; no
    # grid point lies within 1e-3 of a band edge, where the lattice degrades.
    PANEL = ({"kind": "scheme1", "q1": 1, "q2": 1, "L": 6.0},
             {"kind": "scheme2", "q1": 0, "q2": 1, "L": 6.0})
    PANEL_GRID = (-0.9, 4.9, 15)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.grid = bc.sweep_grid(SWEEP_E_MIN, SWEEP_E_MAX, SWEEP_POINTS)
        self.ops, self.checked = [], {}
        for i in range(self.CONFIGS_PER_ROUND):
            spec = _draw_scheme(self.rng, lambda r: r.choice([3.0, 6.0]))
            path = os.path.join(workdir, f"sweep-{i}.csv")
            args = _sweep_args(spec, SWEEP_E_MIN, SWEEP_E_MAX, SWEEP_POINTS, path)
            self.ops.append(Op("cli.main", spec, build_field(spec), self.grid,
                               lambda args=args: run_cli(args), args))
            # Row 0 is the CLI's nudged band edge E = -1 + 1e-9, where the
            # lattice's group velocity underflows to zero; it gets the
            # property checks only.
            rows = self.rng.choice(np.arange(1, SWEEP_POINTS), self.CHECKED_PER_CONFIG, replace=False)
            self.checked[i] = sorted(int(k) for k in rows)

    def collect(self, op, value):
        with open(op.csv_path, "r", encoding="utf-8") as fh:
            return fh.read()

    def segments(self, op, output):
        return sw_cli.SweepConfig().segments

    def check(self, records):
        problems, misses, first = [], [], {}
        prob_err = 0.0
        for op, text in records:
            i = self.ops.index(op)
            refs = {k: self.refs.get(op.spec, self.grid[k]) for k in self.checked[i]}
            verdict = bc.check_csv(text, self.grid, refs)
            problems += [f"{label(op.spec)}: {m}" for _, m in verdict.problems]
            if i not in first:
                first[i] = text
                misses += bc.selftest_csv(text, self.grid, refs)
            elif text != first[i]:
                problems.append(f"{label(op.spec)}: CSV differs between two runs of one config")
        for spec in self.PANEL:
            path = os.path.join(self.workdir, "panel.csv")
            run_cli(_sweep_args(spec, *self.PANEL_GRID, path))
            grid = bc.sweep_grid(*self.PANEL_GRID)
            with open(path, "r", encoding="utf-8") as fh:
                verdict = bc.check_csv(fh.read(), grid, {k: self.refs.get(spec, e) for k, e in enumerate(grid)})
            problems += [f"panel {label(spec)}: {m}" for _, m in verdict.problems]
            prob_err = max(prob_err, verdict.prob_err)
        return 0, problems, prob_err, misses


class Point(Workload):
    name = "point"
    SCHEME_DRAWS, WALL_DRAWS, TABULATED_DRAWS = 6, 3, 3
    # Accuracy panel: fixed (field, energy) pairs, so prob_err compares across commits.
    PANEL_ENERGIES = {"scheme1": (-0.5, 2.5), "scheme2": (-0.38, 3.0),
                      "tabulated": (0.5, 4.0), "wall": (0.3, 6.0)}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        draws = [_draw_scheme(rng, lambda r: r.uniform(2.0, 6.0)) for _ in range(self.SCHEME_DRAWS)]
        draws += [{"kind": "wall", "thetaL": float(rng.uniform(0, 2 * np.pi)),
                   "thetaR": float(rng.uniform(0, 2 * np.pi)), "L": float(rng.uniform(1.0, 4.0))}
                  for _ in range(self.WALL_DRAWS)]
        tab = write_tabulated(os.path.join(workdir, "tabulated.txt"), int(rng.choice((0, 1))),
                              int(rng.choice(Q2_CHOICES)), float(rng.uniform(2.0, 6.0)))
        draws += [tab] * self.TABULATED_DRAWS
        self.ops = []
        for spec in draws:
            field, energy = build_field(spec), _draw_energy(rng)
            self.ops.append(Op("scattering.solve_scattering", spec, field, np.array([energy]),
                               lambda f=field, e=energy: sw.solve_scattering(f, e),
                               self._cli_args(spec, energy)))
        self.panel = [
            ({"kind": "scheme1", "q1": 1, "q2": 1, "L": 5.0}, self.PANEL_ENERGIES["scheme1"]),
            ({"kind": "scheme2", "q1": 0, "q2": 1, "L": 6.0}, self.PANEL_ENERGIES["scheme2"]),
            (write_tabulated(os.path.join(workdir, "panel-tabulated.txt"), 1, 0, 4.0),
             self.PANEL_ENERGIES["tabulated"]),
            ({"kind": "wall", "thetaL": 0.0, "thetaR": 2.0, "L": 3.0}, self.PANEL_ENERGIES["wall"]),
        ]

    def _cli_args(self, spec, energy):
        return _sweep_args(spec, energy, energy, 1, os.path.join(self.workdir, "point.csv"))

    def check(self, records):
        problems = []
        for op, res in records:
            verdict = bc.check_result(res, self.refs.get(op.spec, op.energies[0]))
            problems += [f"{label(op.spec)}: {m}" for _, m in verdict.problems]
        op, res = records[0]
        misses = bc.selftest_result(res, self.refs.get(op.spec, op.energies[0]))
        prob_err = 0.0
        for spec, energies in self.panel:
            field = build_field(spec)
            for energy in energies:
                verdict = bc.check_result(sw.solve_scattering(field, energy), self.refs.get(spec, energy))
                problems += [f"panel {label(spec)}: {m}" for _, m in verdict.problems]
                prob_err = max(prob_err, verdict.prob_err)
        return 0, problems, prob_err, misses


class LongWire(Workload):
    """Fixed wires and energies; the seed draws only the order of the cases.

    The inputs cannot depend on the seed: the unstabilised product fails on a
    fixed subset of them, and that subset must be the same in every run.
    """

    name = "long_wire"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ops = []
        for k in self.rng.permutation(len(LONG_WIRE_CASES)):
            kind, length = LONG_WIRE_CASES[k]
            spec = {"kind": kind, "q1": 0, "q2": 0, "L": length}
            field = build_field(spec)
            args = _sweep_args(spec, LONG_WIRE_ENERGIES[0], LONG_WIRE_ENERGIES[-1],
                               LONG_WIRE_ENERGIES.size, os.path.join(workdir, "long_wire.csv"))
            self.ops.append(Op("scattering.solve_scattering_batch", spec, field, LONG_WIRE_ENERGIES,
                               lambda f=field: self._solve(f), args))

    @staticmethod
    def _solve(field):
        try:
            return sw.solve_scattering_batch(field, LONG_WIRE_ENERGIES)
        except sw.EvanescentOverflowError as exc:
            return exc

    def attempted_per_op(self, op):
        return int(op.energies.size)

    def details(self):
        return {"failed_energies": self.failed_energies}

    def check(self, records):
        failed, problems, misses = 0, [], []
        prob_err, selftested = 0.0, False
        self.failed_energies = {}
        for op, results in records:
            if isinstance(results, Exception):
                failed += op.energies.size
                self.failed_energies.setdefault(label(op.spec), [float(e) for e in op.energies])
                continue
            bad = []
            for res in results:
                energy = res.channel.energy
                verdict = bc.check_result(res, None)
                if not verdict.checks & bc.PRODUCT_FAULT_CHECKS:
                    # the reference is needed only where the flux identity holds
                    ref = self.refs.get(op.spec, energy)
                    verdict = bc.check_result(res, ref)
                if verdict.checks & bc.PRODUCT_FAULT_CHECKS:
                    bad.append(energy)
                else:
                    # prob_err is taken on the L=10 wires, which pass today, so
                    # that a fix letting longer wires pass does not read as a loss
                    if op.spec["L"] == 10.0:
                        prob_err = max(prob_err, verdict.prob_err)
                    if not selftested:
                        misses += bc.selftest_result(res, ref)
                        selftested = True
                problems += [f"{label(op.spec)}: {m}" for c, m in verdict.problems
                             if c not in bc.PRODUCT_FAULT_CHECKS]
            failed += len(bad)
            self.failed_energies.setdefault(label(op.spec), bad)
        return failed, problems, prob_err, misses


WORKLOADS = {cls.name: cls for cls in (Sweep, Point, LongWire)}
