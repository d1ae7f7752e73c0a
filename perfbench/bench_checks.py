"""Independent references and output checks for the spinwire benchmark.

References are computed apart from the transfer engine:

* scheme and tabulated profiles: the tight-binding lattice (``fd_scattering``,
  which shares no solver code with the engine) at a = L/16384 and L/32768.
  Probabilities are Richardson-extrapolated, (4 P_fine - P_coarse) / 3;
  amplitudes are compared with the fine lattice, which uses the engine's gauge.
* zero-field walls: the exact matching solution ``magnetic_wall_scattering``.

Every check returns named problems, so that the self-test can assert that the
check meant to catch a corruption is the one that fires.  No check compares
against a stored copy of the engine's own output.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass

import numpy as np
import spinwire as sw

from bench_fields import build_field

# Tolerances of the acceptance gate (tests/test_acceptance.py), restated here
# because the benchmark imports nothing from the test suite.
TOL_UNITARITY = 1e-8  # flux identity
TOL_FLOW = 1e-8  # symplectic defect of gamma_tilde
TOL_REFERENCE = 1e-4  # engine against the lattice oracle
TOL_WALL = 1e-10  # engine against the analytic wall, entrywise
# Identities between CSV columns, which are rendered with 12 significant digits.
TOL_CSV = 1e-10
LATTICE_DIVISIONS = (16384, 32768)

CSV_COLUMNS = (
    "E", "P00", "P01", "P10", "P11", "R00sq", "hs_t_minus_U", "hs_r",
    "unitarity_defect", "conductance", "regime", "defect_flag",
)

# Problems caused by the unstabilised transfer product: the flux identity and
# agreement with the reference break together once evanescent growth is large.
PRODUCT_FAULT_CHECKS = frozenset({"unitarity", "reference"})


@dataclass(frozen=True)
class Reference:
    t: np.ndarray
    r: np.ndarray
    p: np.ndarray
    entry_tol: float  # tolerance on amplitude entries


@dataclass
class Verdict:
    """Named problems found in one output, and its probability error."""

    problems: list  # (check name, message)
    prob_err: float = 0.0

    def add(self, check: str, message: str) -> None:
        self.problems.append((check, message))

    @property
    def checks(self) -> set:
        return {name for name, _ in self.problems}


def regime_of(energy: float) -> str:
    if energy > 1.0:
        return "two_channel"
    if energy > -1.0:
        return "single_channel"
    return "closed"


def physical(energy: float):
    """Index of the physical entries: all four with two open channels, else (0,0)."""
    return np.s_[:, :] if energy > 1.0 else np.s_[:1, :1]


def lattice_reference(field, energy: float) -> Reference:
    coarse, fine = (sw.fd_scattering(field, energy, field.length / n) for n in LATTICE_DIVISIONS)
    p = (4.0 * fine.probabilities - coarse.probabilities) / 3.0
    return Reference(t=fine.t, r=fine.r, p=p, entry_tol=TOL_REFERENCE)


def wall_reference(spec: dict, energy: float) -> Reference:
    res = sw.magnetic_wall_scattering(sw.WallConfig(spec["thetaL"], spec["thetaR"], spec["L"], energy))
    return Reference(t=res.t, r=res.r, p=res.probabilities, entry_tol=TOL_WALL)


class References:
    """Reference results, computed once per (field, energy) outside the timed region."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, spec: dict, energy: float) -> Reference:
        key = (repr(sorted(spec.items())), float(energy))
        if key not in self._cache:
            if spec["kind"] == "wall":
                self._cache[key] = wall_reference(spec, energy)
            else:
                self._cache[key] = lattice_reference(build_field(spec), energy)
        return self._cache[key]


def flux_defect(t: np.ndarray, r: np.ndarray, energy: float) -> float:
    """Flux identity recomputed from the amplitudes, independent of the engine's own."""
    if energy > 1.0:
        return float(np.linalg.norm(r.conj().T @ r + t.conj().T @ t - np.eye(2)))
    return abs(abs(r[0, 0]) ** 2 + abs(t[0, 0]) ** 2 - 1.0)


def check_result(res, ref: Reference | None) -> Verdict:
    """Properties every ScatterResult must have, plus agreement with a reference."""
    verdict = Verdict([])
    energy = res.channel.energy
    if res.channel.regime.value != regime_of(energy):
        verdict.add("regime", f"regime {res.channel.regime.value} at E={energy:.6g}")
    if not np.allclose(res.probabilities, np.abs(res.t) ** 2, rtol=1e-12, atol=1e-15):
        verdict.add("probabilities", f"probabilities differ from |t|^2 at E={energy:.6g}")
    sel = physical(energy)
    expected_g = float(np.sum(np.abs(res.t[sel]) ** 2))
    if abs(res.conductance - expected_g) > 1e-12 * max(1.0, expected_g):
        verdict.add("conductance", f"conductance {res.conductance:.12g} != {expected_g:.12g}")
    table = sw.transmission_probabilities(res)
    if energy <= 1.0 and any(table[k] != 0.0 for k in ("P01", "P10", "P11")):
        verdict.add("masking", f"unphysical entries not masked at E={energy:.6g}")
    defect = flux_defect(res.t, res.r, energy)
    if not defect <= TOL_UNITARITY:
        verdict.add("unitarity", f"flux defect {defect:.2e} at E={energy:.6g}")
    # Only without an evanescent channel is gamma_tilde of order one, so that
    # the absolute symplectic defect is a bound on rounding.
    if energy > 1.0 and not res.flow_defect <= TOL_FLOW:
        verdict.add("flow", f"symplectic defect {res.flow_defect:.2e} at E={energy:.6g}")
    if ref is not None:
        entry = max(float(np.max(np.abs(res.t[sel] - ref.t[sel]))),
                    float(np.max(np.abs(res.r[sel] - ref.r[sel]))))
        err = float(np.max(np.abs(res.probabilities[sel] - ref.p[sel])))
        if not (entry <= ref.entry_tol and err <= TOL_REFERENCE):
            verdict.add("reference", f"amplitude error {entry:.2e}, probability error {err:.2e} "
                                     f"at E={energy:.6g}")
        if np.isfinite(err):
            verdict.prob_err = max(verdict.prob_err, err)
    return verdict


def sweep_grid(e_min: float, e_max: float, points: int) -> np.ndarray:
    """The CLI's documented sweep grid: linspace, band edges nudged up by 1e-9."""
    grid = np.linspace(e_min, e_max, points)
    for edge in (-1.0, 1.0):
        grid[np.abs(grid - edge) < 1e-12] = edge + 1e-9
    return grid


def check_csv(text: str, grid: np.ndarray, refs: dict) -> Verdict:
    """Check a sweep CSV: schema, grid, masking, flux and conductance identities,
    defect flags, and the probability columns against references at some rows.

    ``refs`` maps row index to the Reference at that row's energy.
    """
    verdict = Verdict([])
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        verdict.add("header", f"header {rows[0] if rows else None}")
        return verdict
    if len(rows) - 1 != grid.size:
        verdict.add("rows", f"{len(rows) - 1} rows for {grid.size} energies")
        return verdict
    col = {name: i for i, name in enumerate(CSV_COLUMNS)}
    num = np.array([[float(x) for x in row[:col["regime"]]] for row in rows[1:]])
    energies, p = num[:, col["E"]], num[:, col["P00"]:col["P11"] + 1]
    r00sq, hs_r = num[:, col["R00sq"]], num[:, col["hs_r"]]
    conductance, defect = num[:, col["conductance"]], num[:, col["unitarity_defect"]]
    regimes = [row[col["regime"]] for row in rows[1:]]
    flags = [row[col["defect_flag"]] for row in rows[1:]]

    if not np.allclose(energies, grid, rtol=1e-11, atol=1e-12):
        verdict.add("grid", "E column differs from the requested grid")
    two = grid > 1.0
    if regimes != [regime_of(e) for e in grid]:
        verdict.add("regime", "regime column does not follow E")
    if np.any(p[~two, 1:] != 0.0):
        verdict.add("masking", "unphysical entries not masked below the upper band")
    # Flux summed over the incoming channels: sum P + ||r||^2 = 2 with two open
    # channels; P00 + |r00|^2 = 1 with one.
    flux = np.where(two, p.sum(axis=1) + hs_r**2 - 2.0, p[:, 0] + r00sq - 1.0)
    if np.any(~(np.abs(flux) <= TOL_UNITARITY + TOL_CSV)):
        verdict.add("unitarity", f"flux identity off by {np.nanmax(np.abs(flux)):.2e}")
    if np.any(~(np.abs(conductance - np.where(two, p.sum(axis=1), p[:, 0])) <= TOL_CSV)):
        verdict.add("conductance", "conductance differs from the sum of the P columns")
    if np.any(~(defect <= TOL_UNITARITY)) or any(f != "0" for f in flags):
        verdict.add("defect_flag", "a row reports a flux defect")
    for idx, ref in refs.items():
        sel = physical(grid[idx])
        engine = np.array([[p[idx, 0], p[idx, 1]], [p[idx, 2], p[idx, 3]]])
        err = max(float(np.max(np.abs(engine[sel] - ref.p[sel]))),
                  abs(r00sq[idx] - abs(ref.r[0, 0]) ** 2))
        if not err <= TOL_REFERENCE:
            verdict.add("reference", f"probability error {err:.2e} at E={grid[idx]:.6g}")
        verdict.prob_err = max(verdict.prob_err, err)
    return verdict


def selftest_result(res, ref: Reference) -> list[str]:
    """Corrupt a checked result; return the corruptions the checks let through."""
    sel = physical(res.channel.energy)
    mag = np.zeros((2, 2))
    mag[sel] = np.abs(res.t[sel])
    i, j = np.unravel_index(np.argmax(mag), mag.shape)
    flipped_t = res.t.copy()
    flipped_t[i, j] *= -1.0
    flipped = dataclasses.replace(res, t=flipped_t)
    scaled_t = 1.01 * res.t
    scaled_p = np.abs(scaled_t) ** 2
    nonunitary = dataclasses.replace(
        res, t=scaled_t, probabilities=scaled_p,
        conductance=float(np.sum(scaled_p[sel])),
    )
    missed = []
    if "reference" not in check_result(flipped, ref).checks:
        missed.append("sign flip in t")
    if "unitarity" not in check_result(nonunitary, ref).checks:
        missed.append("non-unitary result")
    return missed


def selftest_csv(text: str, grid: np.ndarray, refs: dict) -> list[str]:
    """Swap the P00 and R00sq columns of a good CSV; return what was let through."""
    lines = text.splitlines()
    header = lines[0].split(",")
    a, b = header.index("P00"), header.index("R00sq")
    swapped = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[a], cells[b] = cells[b], cells[a]
        swapped.append(",".join(cells))
    if not {"conductance", "reference"} & check_csv("\n".join(swapped) + "\n", grid, refs).checks:
        return ["CSV with swapped columns"]
    return []
