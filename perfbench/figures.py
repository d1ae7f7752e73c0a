#!/usr/bin/env python3
"""Reference figures for perfbench/README.md: the ROADMAP baseline table.

    python3 perfbench/figures.py [--out perfbench/results/BENCH_figures.json]

Measures a fresh ``import spinwire`` and the part of it spent importing
``scipy.interpolate``; ``segment_plan``; a one-energy solve and its product
step; a 200-energy batch with its product and its matching (the matching split
off on a one-segment plan, as in the traced run); the lattice oracle at
a = L/8192; the 600-point CLI sweep at ``--workers 1`` and ``--workers 2``,
alternating; and ``spinwire validate --against wall``.  Every figure is the
median of repeats, in nominal time (see bench_timing.py), with the wall-clock
median beside it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

from bench_timing import SpeedGauge
from run import HERE, OUT_DIR, SRC, environment, limit_threads, scipy_interpolate_ms


def timed(fn, repeats: int, gauge: SpeedGauge) -> tuple[float, float]:
    """Median (nominal, wall-clock) time of ``fn()`` in seconds."""
    nominal, wall = [], []
    before = gauge.sample()
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        wall.append(time.perf_counter() - t0)
        after = gauge.sample()
        nominal.append(wall[-1] * gauge.scale(before, after))
        before = after
    return statistics.median(nominal), statistics.median(wall)


def fresh_import(repeats: int, gauge: SpeedGauge, workdir: str) -> dict:
    """A fresh interpreter's ``import spinwire``, through the set-up probe with no fields."""
    specs = os.path.join(workdir, "no-fields.json")
    with open(specs, "w", encoding="utf-8") as fh:
        json.dump([], fh)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, specs]
    imports, interp = [], []
    for _ in range(repeats):
        probe = json.loads(subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                          check=True).stdout.strip().splitlines()[-1])
        imports.append(probe["import_ms"] / 1e3 * gauge.scale(probe["kernel_ms"], probe["kernel_ms"]))
        proc = subprocess.run(cmd[:1] + ["-X", "importtime"] + cmd[1:], capture_output=True,
                              text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        interp.append(scipy_interpolate_ms(proc.stderr) / 1e3
                      * gauge.scale(probe["kernel_ms"], probe["kernel_ms"]))
    return {"import_s": statistics.median(imports),
            "import_scipy_interpolate_s": statistics.median(interp)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the figures as JSON")
    args = parser.parse_args(argv)
    limit_threads()
    sys.path.insert(0, SRC)
    import numpy as np
    import spinwire as sw
    import spinwire.cli as sw_cli

    gauge = SpeedGauge()
    field = sw.scheme1_field(0, 0, 3.0)
    n = sw.scattering.DEFAULT_SEGMENTS
    grid200 = np.linspace(1.01, 10.0, 200)
    plan, plan1 = sw.segment_plan(field, n), sw.segment_plan(field, 1)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        fig = {k: (v, None) for k, v in fresh_import(5, gauge, tmp).items()}
        fig["segment_plan_s"] = timed(lambda: sw.segment_plan(field, n), 20, gauge)
        fig["one_energy_total_s"] = timed(lambda: sw.solve_scattering(field, 2.5), 7, gauge)
        fig["one_energy_product_s"] = timed(
            lambda: sw.gamma_piecewise_batch(field, [2.5], n, plan=plan), 7, gauge)
        fig["batch200_total_s"] = timed(lambda: sw.solve_scattering_batch(field, grid200, n), 3, gauge)
        fig["batch200_product_s"] = timed(
            lambda: sw.gamma_piecewise_batch(field, grid200, n, plan=plan), 3, gauge)
        solve1 = timed(lambda: sw.solve_scattering_batch(field, grid200, 1, plan=plan1), 7, gauge)
        product1 = timed(lambda: sw.gamma_piecewise_batch(field, grid200, 1, plan=plan1), 7, gauge)
        fig["batch200_match_s"] = (solve1[0] - product1[0], solve1[1] - product1[1])
        fig["lattice_oracle_s"] = timed(lambda: sw.fd_scattering(field, 2.5, field.length / 8192), 10, gauge)
        sweep = ["sweep", "--scheme", "scheme1", "--L", "3", "--E-min", "-1", "--E-max", "5",
                 "--points", "600", "--out", os.path.join(tmp, "sweep.csv")]
        workers = {1: [], 2: []}
        for _ in range(3):
            for w in (1, 2):
                workers[w].append(timed(lambda: sw_cli.main(sweep + ["--workers", str(w)]), 1, gauge))
        for w, samples in workers.items():
            fig[f"cli_sweep600_workers{w}_s"] = tuple(statistics.median(x) for x in zip(*samples))
        validate = ["validate", "--scheme", "wall", "--thetaL", "0", "--thetaR", "3.141592653589793",
                    "--L", "3", "--against", "wall"]
        with redirect_stdout(io.StringIO()):
            fig["validate_wall_s"] = timed(lambda: sw_cli.main(validate), 2, gauge)

    for name, (nominal, wall) in fig.items():
        print(f"{name} = {nominal:.4g} s nominal" + (f", {wall:.4g} s wall-clock" if wall is not None else ""))
    if args.out:
        record = {"figures_s": {k: {"nominal": v, "wall_clock": w} for k, (v, w) in fig.items()},
                  "segments": n, "environment": environment()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
