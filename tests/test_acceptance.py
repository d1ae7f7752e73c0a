"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Shared sweeps are computed once per module in fixtures; criterion 9
re-checks the symplectic invariant on every engine build those sweeps
produced.
"""

import time

import numpy as np
import pytest

from spinwire.core import hs_distance, hs_norm
from spinwire.berry import (
    align_sign,
    berry_operator_overlap,
    berry_operator_segmented,
    planar_direction,
    planar_rotation,
)
from spinwire.fields import magnetic_wall_field, scheme1_field, scheme2_field
from spinwire.analytic import WallConfig, delta_wall_scattering, magnetic_wall_scattering
from spinwire.lattice import fd_scattering
from spinwire.scattering import ScatterBatch, solve_scattering, solve_scattering_batch

TOL_UNITARITY = 1e-8
TOL_SINGLE_CHANNEL = 1e-8
TOL_PROB_EQUALITY = 1e-8
TOL_AMPLITUDE_EQUALITY = 1e-8
TOL_WALL_ENTRYWISE = 1e-10
TOL_DELTA_VS_WALL = 1e-4
TOL_DELTA_HERMITIAN = 1e-12
TOL_ORACLE_REL = 1e-4
TOL_BERRY_ALIGNED = 1e-8
TOL_FLOW = 1e-8
RUNTIME_TARGET_S = 30.0

SEGMENTS = 4096
GRID_TWO_CHANNEL = np.linspace(1.01, 10.0, 200)
GRID_SINGLE = np.linspace(-0.99, 0.99, 102)[1:-1]
Q_CASES = [(0, 0), (1, 0), (10, 0), (0, 1), (0, 10)]

SCHEME_LENGTH = {"scheme1": 3.0, "scheme2": 6.0}
SCHEME_FACTORY = {"scheme1": scheme1_field, "scheme2": scheme2_field}


def make_field(name, q1, q2):
    return SCHEME_FACTORY[name](q1, q2, SCHEME_LENGTH[name])


def report(number, description, ok, detail):
    print(f"ACCEPTANCE {number}: {description}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def two_channel_sweeps():
    start = time.perf_counter()
    sweeps = {}
    for name in ("scheme1", "scheme2"):
        for q1, q2 in Q_CASES:
            field = make_field(name, q1, q2)
            sweeps[(name, q1, q2)] = solve_scattering_batch(field, GRID_TWO_CHANNEL, SEGMENTS)
    return sweeps, time.perf_counter() - start


@pytest.fixture(scope="module")
def single_channel_sweeps():
    return {
        name: solve_scattering_batch(make_field(name, 0, 0), GRID_SINGLE, SEGMENTS)
        for name in ("scheme1", "scheme2")
    }


@pytest.fixture(scope="module")
def focus_results():
    out = {}
    f1 = make_field("scheme1", 0, 0)
    f2 = make_field("scheme2", 0, 0)
    out["scheme1_gap_window"] = solve_scattering_batch(f1, np.linspace(0.5, 0.999, 30), SEGMENTS)
    out["scheme2_gap_window"] = solve_scattering_batch(f2, np.linspace(0.02, 0.999, 30), SEGMENTS)
    out["scheme1_inversion"] = solve_scattering(f1, 6.0, SEGMENTS)
    for name, field in (("scheme1", f1), ("scheme2", f2)):
        for energy in (10.0, 100.0):
            out[f"{name}_E{int(energy)}"] = solve_scattering(field, energy, SEGMENTS)
    return out


@pytest.fixture(scope="module")
def wall_comparison():
    theta_l, theta_r, length = 0.0, np.pi, 3.0
    field = magnetic_wall_field(theta_l, theta_r, length)
    energies = np.linspace(1.01, 100.0, 50)
    engine = solve_scattering_batch(field, energies, 64)
    reference = [
        magnetic_wall_scattering(WallConfig(theta_l, theta_r, length, e)) for e in energies
    ]
    return energies, engine, reference


@pytest.fixture(scope="module")
def oracle_comparison():
    cases = {}
    for name in ("scheme1", "scheme2"):
        field = make_field(name, 0, 0)
        length = SCHEME_LENGTH[name]
        for energy in (2.0, 5.0):
            engine = solve_scattering(field, energy, SEGMENTS)
            lattice = {
                div: fd_scattering(field, energy, length / div)
                for div in (2048, 4096, 8192)
            }
            cases[(name, energy)] = (engine, lattice)
    return cases


@pytest.fixture(scope="module")
def convergence_study():
    field = make_field("scheme1", 0, 0)
    energy = 3.0
    reference = solve_scattering(field, energy, 16384)
    ladder = [solve_scattering(field, energy, n) for n in (256, 512, 1024, 2048, 4096)]
    return reference, ladder


def test_criterion_01_flux_unitarity(two_channel_sweeps):
    """Two-channel flux conservation across both schemes and all q-cases."""
    sweeps, elapsed = two_channel_sweeps
    worst = 0.0
    worst_case = None
    for case, results in sweeps.items():
        defect = max(res.unitarity_defect for res in results)
        if defect > worst:
            worst, worst_case = defect, case
    ok = worst <= TOL_UNITARITY and elapsed < RUNTIME_TARGET_S
    report(
        1,
        "two-channel flux unitarity",
        ok,
        f"max defect {worst:.2e} at {worst_case}, tol {TOL_UNITARITY:.0e}, "
        f"sweep time {elapsed:.1f}s < {RUNTIME_TARGET_S:.0f}s",
    )
    assert worst <= TOL_UNITARITY
    assert elapsed < RUNTIME_TARGET_S


def test_criterion_02_single_channel_identity(single_channel_sweeps):
    """|r00|^2 + |t00|^2 = 1 below the upper band for both schemes."""
    worst = max(
        res.unitarity_defect
        for results in single_channel_sweeps.values()
        for res in results
    )
    ok = worst <= TOL_SINGLE_CHANNEL
    report(2, "single-channel flux identity", ok, f"max defect {worst:.2e}")
    assert ok


def test_criterion_03_antiparallel_lead_numbers(two_channel_sweeps, focus_results):
    """Near-perfect spin flip below the gap, 90% band inversion at E=6, and
    exact equality of the two channel-preserving probabilities."""
    flip = max(res.probabilities[0, 0] for res in focus_results["scheme1_gap_window"])
    inversion = focus_results["scheme1_inversion"].probabilities[1, 0]
    sweeps, _ = two_channel_sweeps
    equality_gap = max(
        abs(res.probabilities[1, 0] - res.probabilities[0, 1])
        for res in sweeps[("scheme1", 0, 0)]
    )
    ok = flip >= 0.99 and 0.85 <= inversion <= 0.95 and equality_gap <= TOL_PROB_EQUALITY
    report(
        3,
        "antiparallel-leads numbers",
        ok,
        f"max spin-flip {flip:.4f}, inversion(E=6) {inversion:.3f}, "
        f"P10-P01 gap {equality_gap:.2e}",
    )
    assert flip >= 0.99
    assert 0.85 <= inversion <= 0.95
    assert equality_gap <= TOL_PROB_EQUALITY


def test_criterion_04_orthogonal_lead_numbers(focus_results):
    """Near-perfect spin mixing below the gap and the quarter-probability
    plateau at high energy."""
    mixing = max(res.probabilities[0, 0] for res in focus_results["scheme2_gap_window"])
    probs100 = focus_results["scheme2_E100"].probabilities
    plateau_dev = float(np.max(np.abs(probs100 - 0.5)))
    ok = mixing >= 0.99 and plateau_dev <= 0.05
    report(
        4,
        "orthogonal-leads numbers",
        ok,
        f"max mixing {mixing:.4f}, |P-1/2| at E=100 {plateau_dev:.3f}",
    )
    assert mixing >= 0.99
    assert plateau_dev <= 0.05


def test_criterion_04c_transmission_amplitude_reciprocity(two_channel_sweeps):
    """Amplitude-level reciprocity of the off-diagonal transmissions for the
    orthogonal-leads profile, phases included.

    The real Zeeman term makes S = S^T, and the profile is mirror-symmetric
    about L/2 (|B|(L-y) = |B|(y), theta(L-y) = thetaL + thetaR - theta(y)).
    Together these give t01 = -t10 with each lead's waves referenced at its
    own interface.  In the solver's gauge (left interface at y = 0, right-lead
    phases diag(exp(i k L))) the relation reads
    t01 + exp(-i (k0 - k1) L) t10 = 0.  As E grows the phase tends to 1 and
    t01 -> -t10, the opposite-sign off-diagonals of the quarter-turn rotation
    of criterion 5.
    """
    sweeps, _ = two_channel_sweeps
    length = SCHEME_LENGTH["scheme2"]
    gap = max(
        abs(res.t[0, 1] + np.exp(-1j * (res.channel.k0 - res.channel.k1) * length) * res.t[1, 0])
        for res in sweeps[("scheme2", 0, 0)]
    )
    ok = gap <= TOL_AMPLITUDE_EQUALITY
    report(
        "4c",
        "orthogonal-leads amplitude reciprocity t01 = -exp(-i(k0-k1)L) t10",
        ok,
        f"max |t01 + exp(-i(k0-k1)L) t10| = {gap:.3e} (lead waves referenced at "
        "their own interfaces; mirror symmetry about L/2 and S = S^T)",
    )
    assert gap <= TOL_AMPLITUDE_EQUALITY


def test_criterion_04_reciprocity_of_moduli(two_channel_sweeps):
    """Gauge-invariant content of transmission reciprocity: |t01| = |t10|
    for both schemes at every tested energy."""
    sweeps, _ = two_channel_sweeps
    worst = 0.0
    for name in ("scheme1", "scheme2"):
        for res in sweeps[(name, 0, 0)]:
            worst = max(worst, abs(abs(res.t[0, 1]) - abs(res.t[1, 0])))
    ok = worst <= 1e-12
    report("4m", "off-diagonal transmission moduli equal", ok, f"max gap {worst:.2e}")
    assert ok


def test_criterion_05_high_energy_transport_convergence(focus_results):
    """Transmission approaches the boundary transport operator and the
    reflection dies away as the energy grows."""
    details = []
    ok = True
    for name in ("scheme1", "scheme2"):
        u = planar_rotation(np.pi if name == "scheme1" else np.pi / 2)
        d10 = hs_distance(focus_results[f"{name}_E10"].t, u)
        d100 = hs_distance(focus_results[f"{name}_E100"].t, u)
        r100 = hs_norm(focus_results[f"{name}_E100"].r)
        ok = ok and d100 < d10 and r100 < 0.1
        details.append(f"{name}: |t-U| {d10:.3f}->{d100:.3f}, |r(100)| {r100:.1e}")
    report(5, "high-energy transport convergence", ok, "; ".join(details))
    assert ok


def test_criterion_06_oracle_equivalence(oracle_comparison):
    """Engine probabilities match the independent lattice solver at the
    finest spacing, with the expected quadratic improvement."""
    worst_rel = 0.0
    trend_ok = True
    details = []
    for (name, energy), (engine, lattice) in oracle_comparison.items():
        errs = []
        for div in (2048, 4096, 8192):
            rel = float(
                np.max(
                    np.abs(lattice[div].probabilities - engine.probabilities)
                    / engine.probabilities
                )
            )
            errs.append(rel)
        worst_rel = max(worst_rel, errs[-1])
        trend_ok = trend_ok and errs[0] > errs[1] > errs[2]
        ratio = errs[0] / errs[2]
        details.append(f"{name}@E={energy:g}: {errs[-1]:.1e} (x{ratio:.0f} over 4x spacing)")
    ok = worst_rel <= TOL_ORACLE_REL and trend_ok
    report(6, "lattice-oracle equivalence", ok, "; ".join(details))
    assert worst_rel <= TOL_ORACLE_REL
    assert trend_ok


def test_criterion_07_analytic_wall_agreement(wall_comparison):
    """Engine vs direct wavefunction matching on the zero-field wall, the
    abrupt-interface closed form against a short wall, and Hermiticity of the
    closed-form reflection."""
    energies, engine, reference = wall_comparison
    worst_wall = max(
        max(float(np.max(np.abs(e.t - a.t))), float(np.max(np.abs(e.r - a.r))))
        for e, a in zip(engine, reference)
    )
    n3 = planar_direction(0.0)
    worst_delta = 0.0
    worst_herm = 0.0
    for energy in (1.5, 2.0, 5.0, 20.0):
        delta = delta_wall_scattering(n3, -n3, energy)
        wall = magnetic_wall_scattering(WallConfig(0.0, np.pi, 1e-6, energy))
        worst_delta = max(
            worst_delta,
            float(np.max(np.abs(delta.t - wall.t))),
            float(np.max(np.abs(delta.r - wall.r))),
        )
        worst_herm = max(worst_herm, float(np.max(np.abs(delta.r - delta.r.conj().T))))
    ok = (
        worst_wall <= TOL_WALL_ENTRYWISE
        and worst_delta <= TOL_DELTA_VS_WALL
        and worst_herm <= TOL_DELTA_HERMITIAN
    )
    report(
        7,
        "analytic-limit agreement",
        ok,
        f"wall entrywise {worst_wall:.1e}, delta-vs-wall {worst_delta:.1e}, "
        f"r hermiticity {worst_herm:.1e}",
    )
    assert worst_wall <= TOL_WALL_ENTRYWISE
    assert worst_delta <= TOL_DELTA_VS_WALL
    assert worst_herm <= TOL_DELTA_HERMITIAN


def test_criterion_08_berry_cross_validation():
    """Segmented overlap products against the planar closed form for windings
    up to 3*pi, and the boundary-overlap formula against the closed form.

    The vector-gauge overlap construction flips sign once per full spinor
    cover, so segmented products are compared after global-sign alignment.
    Exact (sign-free) equality of the boundary-overlap formula holds up to a
    half-turn of winding, which covers every sub-2*pi winding the built-in
    profiles realize (a quarter turn for orthogonal leads; the antiparallel
    half-turn pair is antipodal and contractually served by the planar form).
    """
    worst_aligned = 0.0
    for winding in (np.pi / 2, np.pi, 1.5 * np.pi, 2.0 * np.pi, 2.5 * np.pi, 3.0 * np.pi):
        thetas = np.linspace(0.0, winding, SEGMENTS + 1)
        dirs = np.stack(
            [np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1
        )
        seg = berry_operator_segmented(dirs)
        closed = planar_rotation(winding)
        worst_aligned = max(
            worst_aligned, float(np.max(np.abs(align_sign(seg, closed) - closed)))
        )
    worst_overlap = 0.0
    for winding in (0.3 * np.pi, 0.5 * np.pi, 0.9 * np.pi, 0.999 * np.pi):
        u = berry_operator_overlap(planar_direction(0.0), planar_direction(winding))
        worst_overlap = max(
            worst_overlap, float(np.max(np.abs(u - planar_rotation(winding))))
        )
    ok = worst_aligned <= TOL_BERRY_ALIGNED and worst_overlap <= 1e-12
    report(
        8,
        "berry-route cross-validation",
        ok,
        f"segmented-vs-planar (aligned) {worst_aligned:.1e}, "
        f"overlap-vs-closed-form {worst_overlap:.1e}",
    )
    assert worst_aligned <= TOL_BERRY_ALIGNED
    assert worst_overlap <= 1e-12


def test_criterion_09_symplectic_invariant(
    two_channel_sweeps,
    single_channel_sweeps,
    focus_results,
    wall_comparison,
    oracle_comparison,
    convergence_study,
):
    """The transfer matrix preserves the symplectic form on every engine build
    used by the other criteria.  The solve reads the real product gamma; the
    geometry-stripped gamma_tilde gives the same defect up to rounding, so the
    tolerance is the one criterion 9 always had."""
    sweeps, _ = two_channel_sweeps
    collected = []
    for results in sweeps.values():
        collected.extend(results)
    for results in single_channel_sweeps.values():
        collected.extend(results)
    for value in focus_results.values():
        collected.extend(value if isinstance(value, ScatterBatch) else [value])
    collected.extend(wall_comparison[1])
    collected.extend(engine for engine, _ in oracle_comparison.values())
    reference, ladder = convergence_study
    collected.append(reference)
    collected.extend(ladder)
    worst = max(res.flow_defect for res in collected)
    ok = worst <= TOL_FLOW
    report(
        9,
        "symplectic-form preservation",
        ok,
        f"max defect {worst:.2e} over {len(collected)} engine builds",
    )
    assert ok


def test_criterion_10_self_convergence(convergence_study):
    """Probability error against a 16384-segment reference must at least
    halve with every doubling of the segment count."""
    reference, ladder = convergence_study
    errors = [
        float(np.max(np.abs(res.probabilities - reference.probabilities)))
        for res in ladder
    ]
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(np.diff(errors) < 0) and all(r >= 2.0 for r in ratios)
    report(
        10,
        "segment-count self-convergence",
        ok,
        "errors " + " > ".join(f"{e:.1e}" for e in errors)
        + f", min ratio {min(ratios):.2f}",
    )
    assert all(np.diff(errors) < 0)
    assert all(r >= 2.0 for r in ratios)
