#!/usr/bin/env python3
"""spinwire benchmark: run one workload, check its outputs, report metrics.

    python3 perfbench/run.py --workload {sweep,point,long_wire} --seed N \\
        --seconds S --trace {0,1} [--out PATH]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, taken from spans recorded around
calls of spinwire's public entry points, and the spans are written as JSON
(to ``--out``, or to ``.perfbench_out/`` at the repository root).
``--out`` writes the whole run record: result, environment, latencies and,
when traced, the spans.  Reported times are nominal: wall time scaled by a
calibration kernel timed around every operation (see bench_timing.py); the
record keeps the wall-clock figures too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from bench_timing import SpeedGauge, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Operation counts of one transfer factor, computed from array sizes: a 4x4
# complex matrix product is 64 complex multiply-adds (8 real flops each) and
# reads two and writes one 16-entry complex128 array.
FLOPS_PER_FACTOR = 64 * 8
BYTES_PER_FACTOR = 3 * 16 * 16
# Per-layer figures that are times, and so get scaled to nominal speed.
LAYER_TIMES = ("sample_ms", "plan_ms", "product_ms", "match_ms", "emit_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="spinwire benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "point", "long_wire"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the run record as JSON to this path")
    return parser.parse_args(argv)


def limit_threads() -> None:
    """At most one BLAS/OpenMP thread per CPU, set before numpy is imported."""
    ncpu = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = min(int(os.environ.get(var, ncpu)), ncpu)
        except ValueError:
            wanted = ncpu
        os.environ[var] = str(max(wanted, 1))


def median(values):
    return statistics.median(values) if values else float("nan")


def measure_setup(workload, workdir: str, trace: bool, gauge: SpeedGauge) -> dict:
    """Time fresh interpreters that import spinwire and build the workload's fields.

    Times are nominal: each probe's times are scaled by the calibration kernel
    it runs at its end, in the same process and so on the same CPU.
    """
    specs_path = os.path.join(workdir, "setup-specs.json")
    with open(specs_path, "w", encoding="utf-8") as fh:
        json.dump(workload.setup_specs(), fh)
    cmd = [os.path.join(HERE, "setup_probe.py"), SRC, specs_path] + (["--cli"] if workload.uses_cli else [])
    walls, raw_walls, imports, builds, interp = [], [], [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable] + cmd, capture_output=True, text=True, timeout=120, check=True)
        raw_walls.append(time.perf_counter() - t0)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = gauge.scale(probe["kernel_ms"], probe["kernel_ms"])
        # the parent's wall time of the probe, less the kernel, is the set-up time
        walls.append((raw_walls[-1] - probe["kernel_ms"] / 1e3) * scale)
        imports.append(probe["import_ms"] * scale)
        builds.append(probe["build_ms"] * scale)
    for _ in range(IMPORTTIME_REPEATS if trace else 0):
        proc = subprocess.run([sys.executable, "-X", "importtime"] + cmd, capture_output=True,
                              text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        interp.append(scipy_interpolate_ms(proc.stderr) * gauge.scale(probe["kernel_ms"], probe["kernel_ms"]))
    return {"setup_s": median(walls), "raw_setup_s": median(raw_walls), "import_ms": median(imports),
            "build_ms": median(builds), "import_scipy_interpolate_ms": median(interp),
            "setup_s_samples": walls}


def scipy_interpolate_ms(importtime_log: str) -> float:
    """Cumulative import time of scipy.interpolate from ``-X importtime``; 0 if never imported."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.interpolate":
            return int(parts[1]) / 1e3
    return 0.0


def decompose(workload, op, output, tracer, op_id: int) -> dict:
    """Call each layer's public entry point on the operation's own field and energies.

    Sampling, plan and product use the workload's segment count.  Matching and
    CSV output do not depend on it, and beside a full product they are too
    small to survive a difference of two noisy timings, so they are split off
    on a one-segment plan, where the product costs almost nothing:
    matching = solve - product, emit = CLI - (plan + solve), all three calls
    with one segment.
    """
    import numpy as np
    import spinwire as sw
    import spinwire.cli as sw_cli

    field, energies = op.field, op.energies
    n = workload.segments(op, output)
    mids = (np.arange(n) + 0.5) * (field.length / n)
    spans = {}
    with tracer.span("fields.sample", op_id) as spans["sample"]:
        if not field.zero_field_interior:
            field.theta(mids)
        field.magnitude(mids)
    with tracer.span("transfer.segment_plan", op_id) as spans["plan"]:
        plan = sw.segment_plan(field, n)
    try:
        with tracer.span("transfer.gamma_piecewise_batch", op_id) as spans["product"]:
            sw.gamma_piecewise_batch(field, energies, n, plan=plan)
        with tracer.span("transfer.segment_plan@1", op_id) as spans["plan1"]:
            plan = sw.segment_plan(field, 1)
        with tracer.span("transfer.gamma_piecewise_batch@1", op_id) as spans["product1"]:
            sw.gamma_piecewise_batch(field, energies, 1, plan=plan)
        with tracer.span("scattering.solve_scattering_batch@1", op_id) as spans["solve1"]:
            sw.solve_scattering_batch(field, energies, 1, plan=plan)
    except ArithmeticError:  # overflow or a singular system: the split is left out
        return None
    # the operation's own CSV where it wrote one, else the one-segment CLI's
    csv_bytes = os.path.getsize(op.csv_path) if op.entry == "cli.main" else None
    with tracer.span("cli.main@1", op_id) as spans["cli1"]:
        sw_cli.main(op.cli_args + ["--segments", "1"])
    ms = {k: Tracer.duration_ns(s) / 1e6 for k, s in spans.items()}
    return {"sample_ms": ms["sample"], "plan_ms": ms["plan"], "product_ms": ms["product"],
            "match_ms": ms["solve1"] - ms["product1"],
            "emit_ms": ms["cli1"] - ms["plan1"] - ms["solve1"],
            "energies": energies.size, "factors": energies.size * n,
            "csv_bytes": csv_bytes if csv_bytes is not None else os.path.getsize(op.csv_path)}


def run_loop(workload, seconds: float, tracer, gauge: SpeedGauge):
    """Closed loop over whole rounds until ``seconds`` have passed.

    Returns the (op, output) records, each operation's wall latency in ms, the
    gauge's scale to nominal time for each operation, and, when traced, each
    operation's per-layer figures already in nominal time.
    """
    round_ops = workload.round()
    records, latencies_ms, scales, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    op_id = 0
    before = gauge.sample()
    while True:
        for op in round_ops:
            if tracer is None:
                t0 = time.perf_counter_ns()
                value = op.call()
                latencies_ms.append((time.perf_counter_ns() - t0) / 1e6)
                output = workload.collect(op, value)
                layer = None
            else:
                with tracer.span("operation", op_id):
                    with tracer.span(op.entry, op_id) as span:
                        value = op.call()
                    output = workload.collect(op, value)
                    layer = decompose(workload, op, output, tracer, op_id)
                latencies_ms.append(Tracer.duration_ns(span) / 1e6)
            after = gauge.sample()
            scales.append(gauge.scale(before, after))
            before = after
            if layer is not None:
                layers.append({k: v * scales[-1] if k in LAYER_TIMES else v for k, v in layer.items()})
            records.append((op, output))
            op_id += 1
        if time.perf_counter() >= deadline:
            return records, latencies_ms, scales, layers


def end_to_end(records, latencies_ms, setup_s: float, prob_err: float) -> dict:
    import numpy as np

    lat_ms = np.asarray(latencies_ms)
    energies = sum(op.energies.size for op, _ in records)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "energies_per_s": {"value": energies / (lat_ms.sum() / 1e3), "unit": "1/s"},
        "solve_ms_p50": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
        "solve_ms_p90": {"value": float(np.percentile(lat_ms, 90)), "unit": "ms"},
        "prob_err": {"value": prob_err, "unit": "1"},
    }


def per_layer(layers, setup, tracer) -> dict:
    def med(key):
        return median([x[key] for x in layers])

    factors, product_ms = med("factors"), med("product_ms")
    roots = tracer.roots()
    unaccounted = sum(tracer.self_ns(r) for r in roots) / sum(Tracer.duration_ns(r) for r in roots)
    metrics = {
        "setup.import_ms": (setup["import_ms"], "ms"),
        "setup.import_scipy_interpolate_ms": (setup["import_scipy_interpolate_ms"], "ms"),
        "fields.build_ms": (setup["build_ms"], "ms"),
        "fields.sample_ms": (med("sample_ms"), "ms"),
        "transfer.plan_ms": (med("plan_ms"), "ms"),
        "transfer.product_ms": (product_ms, "ms"),
        "transfer.factors": (factors, "count"),
        "transfer.ns_per_factor": (product_ms * 1e6 / factors, "ns"),
        "transfer.flops_computed": (factors * FLOPS_PER_FACTOR, "count"),
        "transfer.bytes_computed": (factors * BYTES_PER_FACTOR, "B"),
        "scattering.match_ms": (med("match_ms"), "ms"),
        "scattering.match_us_per_energy": (med("match_ms") * 1e3 / med("energies"), "us"),
        "cli.emit_ms": (med("emit_ms"), "ms"),
        "cli.csv_bytes": (med("csv_bytes"), "B"),
        "trace.unaccounted_share": (unaccounted, "1"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "machine": platform.machine(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinwire", "__init__.py")):
        print(f"error: no spinwire package under {SRC}", file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, SRC)
    import spinwire

    if not os.path.abspath(spinwire.__file__).startswith(SRC + os.sep):
        print(f"error: spinwire imported from {spinwire.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        gauge = SpeedGauge()
        setup = measure_setup(workload, workdir, bool(args.trace), gauge)
        t1 = time.perf_counter()
        tracer = Tracer() if args.trace else None
        records, latencies_ms, scales, layers = run_loop(workload, args.seconds, tracer, gauge)
        t2 = time.perf_counter()
        failed, problems, prob_err, misses = workload.check(records)
        details = workload.details()
        phases = {"inputs_and_setup": t1 - t0, "timed_loop": t2 - t1, "checks": time.perf_counter() - t2}
    print("phases (s): " + ", ".join(f"{k} {v:.1f}" for k, v in phases.items()), file=sys.stderr)

    nominal_ms = [lat * k for lat, k in zip(latencies_ms, scales)]
    e2e = end_to_end(records, nominal_ms, setup["setup_s"], prob_err)
    raw_e2e = end_to_end(records, latencies_ms, setup["raw_setup_s"], prob_err)
    attempted = sum(workload.attempted_per_op(op) for op, _ in records)
    for message in problems[:20]:
        print(f"problem: {message}", file=sys.stderr)
    for corruption in misses:
        print(f"self-test: the checks let a {corruption} through", file=sys.stderr)
    result = {"correct": not problems and not misses, "attempted": attempted, "failed": failed}
    if args.trace:
        result["metrics"] = per_layer(layers, setup, tracer)
        print("traced end-to-end: " + json.dumps({k: v["value"] for k, v in e2e.items()}))
    else:
        result["metrics"] = e2e
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")

    out = args.out or (os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
                       if args.trace else None)
    if out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "result": result, "end_to_end": e2e,
                  "wall_clock_end_to_end": raw_e2e, "setup": setup, "phases": phases,
                  "environment": environment(), "latencies_ms": latencies_ms,
                  "gauge_ms": gauge.samples_ms, "problems": problems,
                  "details": details, "spans": tracer.spans if tracer else None}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
