import dataclasses
import json
import os
import time

import numpy as np
import pytest

import spinwire
from spinwire import cli, scattering, transfer
from spinwire.core import (
    J4,
    ChannelData,
    EvanescentOverflowError,
    Regime,
    RegimeError,
    SingularSystemError,
    ThresholdError,
    channel_at,
    scattering_channel,
)
from spinwire.analytic import WallConfig, magnetic_wall_scattering
from spinwire.diagnostics import Recorder
from spinwire.berry import planar_rotation
from spinwire.fields import (
    TabulatedField,
    magnetic_wall_field,
    scheme1_field,
    scheme2_field,
    uniform_field,
)
from spinwire.scattering import (
    DEFAULT_SEGMENTS,
    ScatterBatch,
    ScatterResult,
    build_result,
    build_results,
    landauer_current,
    physical_mask,
    solve_scattering,
    solve_scattering_batch,
    solve_scattering_sweep,
    transmission_columns,
    transmission_probabilities,
)
from spinwire.transfer import flow_defect, gamma_piecewise_batch, segment_plan

from conftest import hs_norm_reference, probability_table_reference


class TestSolve:
    def test_uniform_wire_is_transparent(self):
        u = uniform_field(0.9, 4.0)
        res = solve_scattering(u, 5.0, 64)
        assert np.max(np.abs(res.t - np.eye(2))) < 1e-10
        assert np.max(np.abs(res.r)) < 1e-10

    def test_uniform_wire_single_channel(self):
        res = solve_scattering(uniform_field(0.0, 4.0), 0.2, 64)
        assert abs(res.t[0, 0] - 1.0) < 1e-10
        assert abs(res.r[0, 0]) < 1e-10
        assert res.unitarity_defect < 1e-10

    def test_threshold_rejected(self):
        with pytest.raises(ThresholdError):
            solve_scattering(scheme1_field(0, 0, 3.0), 1.0, 64)

    def test_closed_rejected(self):
        with pytest.raises(RegimeError):
            solve_scattering(scheme1_field(0, 0, 3.0), -1.5, 64)

    def test_near_gap_spin_flip(self):
        res = solve_scattering(scheme1_field(0, 0, 3.0), 0.99, 4096)
        assert res.probabilities[0, 0] > 0.99

    def test_band_inversion_plateau(self):
        res = solve_scattering(scheme1_field(0, 0, 3.0), 6.0, 4096)
        assert 0.85 <= res.probabilities[1, 0] <= 0.95

    def test_channel_swap_probabilities_equal(self):
        for energy in (1.5, 2.0, 4.0, 9.0):
            res = solve_scattering(scheme1_field(0, 0, 3.0), energy, 2048)
            assert abs(res.probabilities[1, 0] - res.probabilities[0, 1]) < 1e-8

    def test_batch_matches_scalar(self):
        # the CLI's 120-point grid on [-1, 5]: its nudged lower edge, single-channel
        # energies, where the upper channel is closed, and two-channel ones
        f = scheme2_field(0, 0, 6.0)
        energies = cli.energy_grid(cli.SweepConfig(E_min=-1.0, E_max=5.0, points=120))[0]
        batch = solve_scattering_batch(f, energies, 512)
        assert energies[0] == -1.0 + 1e-9 and set(batch.two_channel.tolist()) == {False, True}
        # every row equals its lone solve bit for bit
        assert_results_equal_reference(batch, [solve_scattering(f, e, 512) for e in energies])

    def test_a_batch_is_a_sequence_of_results(self):
        f = scheme1_field(1, 1, 3.0)
        energies = [-0.5, 0.5, 2.0]
        for solve in (solve_scattering_batch, solve_scattering_sweep):
            batch = solve(f, energies, 64)
            assert type(batch) is ScatterBatch and len(batch) == 3 and batch.n_segments == 64
            results = list(batch)
            assert [type(res) for res in results] == [ScatterResult] * 3
            assert [res.channel.energy for res in results] == energies
            assert [res.n_segments for res in results] == [64] * 3
            assert batch[-1].t.tobytes() == results[2].t.tobytes() == batch.t[2].tobytes()
            with pytest.raises(IndexError):
                batch[3]
        # a result indexed out is a dataclass of its own: replacing a field leaves the batch alone
        t = batch.t[2].copy()
        flipped = dataclasses.replace(batch[2], t=-batch[2].t)
        assert type(flipped) is ScatterResult and flipped.t.tobytes() == (-t).tobytes()
        assert flipped.channel == batch[2].channel and batch.t[2].tobytes() == t.tobytes()

    @pytest.mark.parametrize(
        "energies",
        [[], np.zeros(0), [[0.5, 2.0]], np.full((2, 2), 2.0)],
        ids=["empty-list", "empty-array", "row", "square"],
    )
    def test_batch_must_be_non_empty_and_1d(self, energies):
        f = scheme1_field(0, 0, 3.0)
        with pytest.raises(ValueError, match="non-empty 1-D"):
            solve_scattering_batch(f, energies, 64)

    @pytest.mark.parametrize(
        "field",
        [scheme1_field(1, 1, 3.0), scheme2_field(1, 1, 3.0), magnetic_wall_field(0.0, 2.0, 2.0),
         pytest.param(uniform_field(0.7, 2.0), marks=pytest.mark.xfail(strict=True, reason=(
             "a wire transparent at a band edge loses flux to rounding in the unit-wave "
             "matching: unitarity_defect 1.85e-8 at E = nextafter(-1, 0) (CHANGES.md FOUND, "
             "S-matrix matching)")))],
        ids=["scheme1", "scheme2", "wall", "uniform"],
    )
    def test_next_float_off_a_band_edge_solves(self, field):
        # the threshold test is exact: one ulp off an edge is a regular energy
        near = [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]
        for res in solve_scattering_batch(field, near):
            assert res.unitarity_defect <= 1e-8
        with pytest.raises(ThresholdError):
            solve_scattering(field, 1.0)
        with pytest.raises(RegimeError):
            solve_scattering(field, -1.0)

    @pytest.mark.parametrize("energy", [-0.7, 0.1, 0.9])
    def test_single_channel_flux_identity(self, energy):
        for f in (scheme1_field(0, 0, 3.0), scheme2_field(0, 0, 6.0)):
            res = solve_scattering(f, energy, 2048)
            assert res.unitarity_defect < 1e-8


class TestProbabilityTable:
    def test_pure_rotation_pattern(self):
        # r = 0 and t a half-turn rotation: both channel-preserving entries
        # vanish, both channel-swapping ones are certain
        ch = scattering_channel(5.0)
        res = build_result(planar_rotation(np.pi), np.zeros((2, 2)), ch)
        table = transmission_probabilities(res)
        assert table["P00"] == pytest.approx(0.0)
        assert table["P11"] == pytest.approx(0.0)
        assert table["P01"] == pytest.approx(1.0)
        assert table["P10"] == pytest.approx(1.0)
        assert table["R00sq"] == pytest.approx(0.0)

    def test_single_channel_masks_upper_entries(self):
        res = solve_scattering(scheme1_field(0, 0, 3.0), 0.5, 512)
        table = transmission_probabilities(res)
        assert table["P01"] == table["P10"] == table["P11"] == 0.0
        assert table["P00"] + table["R00sq"] == pytest.approx(1.0, abs=1e-10)

    def test_the_physical_mask_of_a_batch_and_of_one_result(self):
        # all four entries with two open channels, else the (0, 0) entry alone
        batch = solve_scattering_batch(scheme1_field(1, 1, 3.0), [-0.5, 0.5, 2.0, 5.0], 64)
        assert physical_mask(batch.two_channel).tolist() == physical_entries(batch).tolist()
        for res in batch:
            assert physical_mask(res.two_channel).tolist() == physical_entries([res])[0].tolist()


class TestConductance:
    def test_transparent_wire(self):
        res = solve_scattering(uniform_field(0.0, 2.0), 5.0, 32)
        assert res.conductance == pytest.approx(2.0, abs=1e-10)

    def test_single_open_channel_near_gap(self):
        res = solve_scattering(scheme1_field(0, 0, 3.0), 0.99, 2048)
        assert res.conductance == pytest.approx(res.probabilities[0, 0])
        assert res.conductance > 0.95


SCHEME1_L3 = scheme1_field(0, 0, 3.0)
TRANSPARENT = uniform_field(0.0, 2.0)


def transparent_current(mu_left, mu_right, temperature):
    """The current of `TRANSPARENT` in closed form: G = 1 on (-1, 1) and 2 above.

    Each plateau [a, b] of G contributes G * int_a^b f dE, with
    int_a^b f dE = T [ln(1 + e^((mu-a)/T)) - ln(1 + e^((mu-b)/T))] at T > 0.
    """
    def occupied(mu, a, b):
        if temperature == 0.0:
            return max(min(mu, b) - a, 0.0)
        return temperature * (np.logaddexp(0.0, (mu - a) / temperature)
                               - np.logaddexp(0.0, (mu - b) / temperature))

    plateaus = ((1.0, -1.0, 1.0), (2.0, 1.0, np.inf))
    return sum(g * (occupied(mu_left, a, b) - occupied(mu_right, a, b))
               for g, a, b in plateaus) / (2.0 * np.pi)


def record_sweeps(monkeypatch):
    """The batch of each call of the solve a `scattering._window` returns (a level of the
    current, or a whole sweep), in call order."""
    batches, window = [], scattering._window

    def recording(*args):
        solve = window(*args)

        def solve_recorded(channels):
            batches.append(solve(channels))
            return batches[-1]

        return solve_recorded

    monkeypatch.setattr(scattering, "_window", recording)
    return batches


def wall_reference_current(wall, mu_left, mu_right):
    """A T = 0 current of the wall from `magnetic_wall_scattering` alone: 64 equal panels
    of a 16-point Gauss-Legendre rule on each side of E = 1, in u = sqrt|E - 1| there."""
    x, w = np.polynomial.legendre.leggauss(16)

    def conductance(energy):
        return magnetic_wall_scattering(
            WallConfig(wall.theta_l, wall.theta_r, wall.length, energy)).conductance

    lo, hi = sorted((mu_left, mu_right))
    total = 0.0
    for side, a, b in ((-1.0, max(lo, -1.0), min(hi, 1.0)), (1.0, max(lo, 1.0), hi)):
        if a >= b:
            continue
        edges = np.linspace(*sorted(np.sqrt(side * (np.array([a, b]) - 1.0))), 65)
        for a, b in zip(edges[:-1], edges[1:]):
            u = 0.5 * (a + b) + 0.5 * (b - a) * x
            total += 0.5 * (b - a) * sum(wi * 2.0 * ui * conductance(1.0 + side * ui * ui)
                                         for wi, ui in zip(w, u))
    return np.sign(mu_left - mu_right) * total / (2.0 * np.pi)


class TestLandauer:
    @pytest.mark.parametrize(
        "mu_left, mu_right, expected",
        [(2.0, 0.0, 3.0), (2.0, -1.0, 4.0), (5.05, -1.0, 10.1), (0.5, -2.0, 1.5),
         (1.0, -1.0, 2.0), (0.0, 2.0, -3.0)],
    )
    def test_transparent_wire_at_zero_temperature(self, mu_left, mu_right, expected):
        # the window is cut at the band edges and the potentials, and clipped at E = -1
        current = landauer_current(TRANSPARENT, mu_left, mu_right, 0.0, 64)
        assert abs(current - expected / (2.0 * np.pi)) <= 1e-12

    @pytest.mark.parametrize(
        "mu_left, mu_right, temperature",
        [(2.0, 0.0, 0.05), (2.0, -1.0, 0.1), (5.05, 4.95, 0.02), (0.5, -2.0, 0.2),
         (1.0, -1.0, 0.3), (-1.2, -3.0, 0.1), (0.0, 2.0, 0.5)],
    )
    def test_transparent_wire_at_finite_temperature(self, mu_left, mu_right, temperature):
        current = landauer_current(TRANSPARENT, mu_left, mu_right, temperature, 64)
        assert abs(current - transparent_current(mu_left, mu_right, temperature)) <= 1e-12

    def test_transparent_wire_small_bias(self):
        current = landauer_current(TRANSPARENT, 5.05, 4.95, 0.0, 64)
        assert abs(current - 2.0 * 0.1 / (2.0 * np.pi)) <= 1e-12

    def test_finite_temperature_smooths(self):
        current = landauer_current(TRANSPARENT, 5.2, 4.8, 0.05, 64)
        assert abs(current - transparent_current(5.2, 4.8, 0.05)) <= 1e-12
        assert current == pytest.approx(2.0 * 0.4 / (2.0 * np.pi), rel=1e-6)

    def test_zero_bias_zero_current(self):
        assert landauer_current(TRANSPARENT, 5.0, 5.0, 0.0, 64) == 0.0

    def test_each_level_is_one_sweep(self, monkeypatch):
        # cut at E = 1: two panels, each taken whole and in halves by one sweep of 96
        # nodes, and G is flat on both, so one level settles them
        batches = record_sweeps(monkeypatch)
        landauer_current(TRANSPARENT, 2.0, 0.0, 0.0, 64)
        assert [len(batch) for batch in batches] == [96]
        # a resonance takes more levels, each one sweep of 32 nodes per open panel
        batches.clear()
        landauer_current(scheme1_field(1, 1, 6.0), 3.0, -0.9, 0.0, 256)
        # cut at E = 0 and E = 1: three panels
        assert len(batches) > 2 and len(batches[0]) == 3 * 48
        assert all(len(batch) % 32 == 0 for batch in batches[1:])

    @pytest.mark.parametrize(
        "mu_left, mu_right, temperature",
        [(5.0, 5.0, 0.01), (-1.0, -2.0, 0.0), (-1.0, -1.0, 0.0),
         (-3.0, -1.5, 0.0), (-3.0, -5.0, 0.01)],
    )
    def test_no_window_carries_no_current(self, mu_left, mu_right, temperature, monkeypatch):
        # zero bias, and a window wholly at or below E = -1, where nothing scatters: at
        # T = 0.01 the tail past a potential at -3 stops 0.37 above it
        batches = record_sweeps(monkeypatch)
        assert landauer_current(SCHEME1_L3, mu_left, mu_right, temperature, 64) == 0.0
        assert batches == []

    @pytest.mark.parametrize(
        "mu_left, mu_right, temperature",
        [(1.0, -1.0, 0.0), (1.0, 0.5, 0.0), (3.0, 1.0, 0.0), (-1.0, 1.0, 0.1),
         (1.0 + 1e-13, 0.5, 0.0)],
    )
    def test_a_potential_on_a_band_edge_solves(self, mu_left, mu_right, temperature, monkeypatch):
        # no node lands on a band edge, where `scattering_channels` refuses it, even where
        # a panel's node rounds onto it (the last case, 1e-13 above E = 1)
        batches = record_sweeps(monkeypatch)
        current = landauer_current(TRANSPARENT, mu_left, mu_right, temperature, 64)
        assert abs(current - transparent_current(mu_left, mu_right, temperature)) <= 1e-12
        nodes = np.concatenate([batch.energy for batch in batches])
        assert nodes.min() > -1.0 and not np.any(nodes == 1.0)
        landauer_current(scheme1_field(1, 1, 6.0), mu_left, mu_right, temperature, 256)

    @pytest.mark.parametrize(
        "mu_left, mu_right, temperature",
        [(3.0, -0.9, 0.0), (0.0, -0.3, 0.0), (-0.1, -0.2, 0.005), (0.5, -1.0, 0.02)],
    )
    def test_the_sweep_and_the_batch_give_the_same_current(self, mu_left, mu_right, temperature,
                                                           monkeypatch):
        # the windows cross the resonance at E = -0.1455, where G reaches 0.9995 over a
        # width of about 0.005
        field = scheme1_field(1, 1, 6.0)
        plans = record_plans(monkeypatch)
        swept = landauer_current(field, mu_left, mu_right, temperature, 256)
        assert plans == []  # every level matched on the interpolant: no direct product
        monkeypatch.setattr(scattering, "product_interpolant", lambda *args: None)
        direct = landauer_current(field, mu_left, mu_right, temperature, 256)
        assert plans  # every level a direct batch
        assert abs(swept - direct) <= 1e-9

    def test_one_fit_serves_every_level(self, monkeypatch):
        # the window's granule products are taken once, at the degree-8 nodes and the
        # 8 between them, and its wire interpolant fitted once at 25 nodes; each of
        # the nine levels is matched on it
        granules, nodes = record_products(monkeypatch), record_nodes(monkeypatch)
        batches = record_sweeps(monkeypatch)
        landauer_current(scheme1_field(1, 1, 6.0), 3.0, -0.9, 0.0, 256)
        assert [len(batch) for batch in batches] == [144, 192, 128] + [64] * 6
        assert granules == [9, 8]
        assert nodes == [25]

    def test_a_current_whose_nodes_miss_the_flux_identity_raises(self, monkeypatch):
        # past the interpolant's growth gate the levels are direct batches, and the
        # unstabilised product's flux defects reach 0.76 below E = -0.6 on the first
        batches = record_sweeps(monkeypatch)
        with pytest.raises(ArithmeticError, match=r"the flux defect at E = -0\.\d+ is "):
            landauer_current(scheme1_field(1, 1, 20.0), 3.0, -0.9, 0.0)
        assert [len(batch) for batch in batches] == [144]

    @pytest.mark.parametrize("mu_left, mu_right", [(3.0, 1.2), (1.5, -0.5), (-0.2, 2.0)])
    def test_the_wall_matches_a_quadrature_of_its_closed_form(self, mu_left, mu_right):
        wall = magnetic_wall_field(0.3, 2.5, 2.0)
        current = landauer_current(wall, mu_left, mu_right, 0.0)
        assert abs(current - wall_reference_current(wall, mu_left, mu_right)) <= 1e-10

    def test_a_current_that_does_not_converge_raises(self, monkeypatch):
        # one level of nodes cannot resolve the resonance at E = -0.1455
        monkeypatch.setattr(scattering, "CURRENT_MAX_SOLVES", 96)
        with pytest.raises(ArithmeticError, match="did not converge in 96 solves"):
            landauer_current(scheme1_field(1, 1, 6.0), 3.0, -0.9, 0.0, 256)
        # a flat G converges within it
        assert landauer_current(TRANSPARENT, 2.0, 0.0, 0.0, 64) == pytest.approx(3.0 / (2 * np.pi))

    @pytest.mark.parametrize("n_segments", [0, 2.5, np.nan],
                             ids=["no-segments", "fractional-segments", "nan-segments"])
    def test_zero_bias_refuses_the_grids_a_bias_refuses(self, n_segments):
        # the current takes no grid now: a bad count is all there is to refuse
        refusals = []
        for mu_right in (2.0, 2.5):  # a bias, then none
            with pytest.raises(ValueError) as refused:
                landauer_current(SCHEME1_L3, 2.5, mu_right, 0.0, n_segments)
            refusals.append((type(refused.value), str(refused.value)))
        assert refusals[0] == refusals[1]

    def test_linear_response_matches_conductance(self):
        f = scheme1_field(0, 0, 3.0)
        g = solve_scattering(f, 0.5, 1024).conductance
        current = landauer_current(f, 0.51, 0.49, 0.0, 1024)
        assert current == pytest.approx(g * 0.02 / (2.0 * np.pi), rel=0.02)

    @pytest.mark.parametrize(
        "mu_left, mu_right, temperature",
        [(np.nan, 4.95, 0.0), (5.05, np.nan, 0.0), (5.05, 4.95, np.nan), (5.0, 5.0, np.nan)],
    )
    def test_nan_inputs_rejected(self, mu_left, mu_right, temperature):
        with pytest.raises(ValueError, match="NaN|non-negative"):
            landauer_current(TRANSPARENT, mu_left, mu_right, temperature, 64)

    @pytest.mark.parametrize(
        "mu_left, mu_right, temperature",
        [(np.inf, 4.95, 0.0), (5.05, -np.inf, 0.0), (5.05, 4.95, np.inf), (5.0, 5.0, np.inf),
         (5.05, 4.95, -0.1)],
    )
    def test_infinite_inputs_rejected(self, mu_left, mu_right, temperature):
        with pytest.raises(ValueError, match="finite"):
            landauer_current(TRANSPARENT, mu_left, mu_right, temperature, 64)


def reciprocity_gaps(field, energy, n_segments):
    """|t01 + exp(-i (k0 - k1) L) t10| and ||t01|^2 - |t10|^2| at a two-channel energy.

    Both vanish for a mirror-symmetric profile (see acceptance criterion 4c).
    """
    res = solve_scattering(field, energy, n_segments)
    assert res.channel.regime is Regime.TWO_CHANNEL
    t01, t10 = res.t[0, 1], res.t[1, 0]
    phase = np.exp(-1j * (res.channel.k0 - res.channel.k1) * field.length)
    return abs(t01 + phase * t10), abs(abs(t01) ** 2 - abs(t10) ** 2)


class TestReciprocity:
    def test_orthogonal_leads_probability_symmetry(self):
        amplitude_gap, probability_gap = reciprocity_gaps(scheme2_field(0, 0, 6.0), 2.0, 2048)
        assert probability_gap < 1e-12
        assert amplitude_gap < 1e-12

    def test_antiparallel_leads_probability_symmetry(self):
        amplitude_gap, probability_gap = reciprocity_gaps(scheme1_field(0, 0, 3.0), 2.0, 2048)
        assert probability_gap < 1e-12
        assert amplitude_gap < 1e-12

    def test_asymmetric_profile_breaks_amplitude_relation(self):
        # winding and magnitude both skewed towards the right lead, so the
        # profile has no mirror symmetry about its midpoint
        ys = np.linspace(0.0, 4.0, 41)
        theta = 0.5 * np.pi * (ys / 4.0) ** 2
        mag = 1.0 + 0.5 * (ys / 4.0) * np.sin(np.pi * ys / 4.0)
        field = TabulatedField(ys, mag * np.sin(theta), mag * np.cos(theta))
        amplitude_gap, _ = reciprocity_gaps(field, 2.0, 2048)
        assert amplitude_gap > 0.1

    def test_uniform_wire_trivial(self):
        amplitude_gap, probability_gap = reciprocity_gaps(uniform_field(0.0, 2.0), 2.0, 32)
        assert amplitude_gap < 1e-12
        assert probability_gap < 1e-12


def test_unitarity_across_parameter_sample():
    cases = [
        (scheme1_field(1, 0, 3.0), 1.3),
        (scheme1_field(0, 1, 3.0), 4.2),
        (scheme2_field(10, 0, 6.0), 2.0),
        (scheme2_field(0, 10, 6.0), 8.8),
    ]
    for field, energy in cases:
        res = solve_scattering(field, energy, 2048)
        assert res.channel.regime is Regime.TWO_CHANNEL
        assert res.unitarity_defect < 1e-8
        assert res.flow_defect < 1e-8


@pytest.mark.parametrize("make", [scheme1_field, scheme2_field])
def test_amplitudes_stable_under_segment_doubling(make):
    # measured doubling residue at the default segment count is ~2e-8 at the
    # low end of the two-channel window and falls quadratically with N
    length = 3.0 if make is scheme1_field else 6.0
    f = make(0, 0, length)
    for energy in (2.0, 10.0):
        coarse = solve_scattering(f, energy, 4096)
        fine = solve_scattering(f, energy, 8192)
        assert np.max(np.abs(coarse.t - fine.t)) < 5e-8
        assert np.max(np.abs(coarse.r - fine.r)) < 5e-8


def test_entry_points_used_by_the_benchmark():
    """The calls perfbench/run.py makes, with its keywords, keep working."""
    field = scheme1_field(0, 0, 3.0)
    energies = np.array([0.5, 2.0])
    plan = segment_plan(field, 64)
    gamma, gamma_tilde, berry = gamma_piecewise_batch(field, energies, 64, plan=plan)
    assert gamma.shape == gamma_tilde.shape == (2, 4, 4) and berry.shape == (2, 2)
    planned = solve_scattering_batch(field, energies, 64, plan=plan)
    for a, b in zip(planned, solve_scattering_batch(field, energies, 64)):
        assert np.array_equal(a.t, b.t) and np.array_equal(a.r, b.r)
    one = segment_plan(field, 1)
    gamma_piecewise_batch(field, energies, 1, plan=one)
    assert [res.n_segments for res in solve_scattering_batch(field, energies, 1, plan=one)] == [1, 1]
    assert scattering.DEFAULT_SEGMENTS == DEFAULT_SEGMENTS >= 1
    # perfbench/run.py samples theta only where the field has a direction
    assert field.zero_field_interior is False
    assert magnetic_wall_field(0.0, 2.0, 2.0).zero_field_interior is True
    # the CLI's convergence check refuses fields whose plan is exact
    assert field.constant_interior is False
    assert magnetic_wall_field(0.0, 2.0, 2.0).constant_interior is True
    assert uniform_field(0.7, 3.0).constant_interior is True
    assert cli.SweepConfig().segments >= 1
    # perfbench/bench_checks.py corrupts engine results with dataclasses.replace
    res = planned[1]
    scaled_p = np.abs(1.01 * res.t) ** 2
    corrupted = dataclasses.replace(
        res, t=1.01 * res.t, probabilities=scaled_p, conductance=float(np.sum(scaled_p))
    )
    assert np.array_equal(corrupted.t, 1.01 * res.t) and corrupted.r is res.r
    assert corrupted.conductance != res.conductance
    for name in (
        "scheme1_field", "scheme2_field", "magnetic_wall_field", "load_profile",
        "segment_plan", "gamma_piecewise_batch", "solve_scattering", "solve_scattering_batch",
        "transmission_probabilities", "fd_scattering", "WallConfig",
        "magnetic_wall_scattering", "EvanescentOverflowError",
    ):
        assert hasattr(spinwire, name), name


def test_results_report_the_segment_count_of_the_plan():
    # the plan, not the n_segments argument it overrides, sets the count
    field = scheme1_field(1, 1, 3.0)
    planned = solve_scattering_batch(field, [0.5, 2.0], plan=segment_plan(field, 64))
    assert [res.n_segments for res in planned] == [64, 64]


def solve_plan(field, n_segments):
    """The plan `solve_scattering_batch(field, energies, n_segments)` builds."""
    return segment_plan(field, 1 if field.constant_interior else n_segments)


def stack(results, name):
    """The (n, 2, 2) stack of one matrix field of a batch of results."""
    return np.array([getattr(res, name) for res in results])


def physical_entries(results):
    """(n, 2, 2) mask of the physical entries: all four with two open channels, else (0, 0)."""
    two = np.array([res.channel.regime is Regime.TWO_CHANNEL for res in results])
    return np.where(two[:, None, None], True, [[True, False], [False, False]])


CONSTANT_FIELDS = {
    "wall": magnetic_wall_field(0.3, 2.0, 2.0),
    "wall_antiparallel": magnetic_wall_field(0.0, 3.1, 4.0),
    "wall_L0": magnetic_wall_field(1.1, 0.4, 0.0),
    "uniform": uniform_field(0.7, 3.0),
}
# a closed wall interior (E < 0), single-channel and two-channel energies
CONSTANT_ENERGIES = np.array([-0.86, -0.3, 0.3, 0.99, 1.5, 2.0, 6.0, 40.0])


def record_plans(monkeypatch):
    """The list of plans the solve hands to `ordered_product`, appended as it runs."""
    plans = []
    product = transfer.ordered_product

    def recording(plan, energies):
        plans.append(plan)
        return product(plan, energies)

    monkeypatch.setattr(scattering, "ordered_product", recording)
    return plans


class TestConstantInteriorPlan:
    """A constant interior has D(h)^N = D(N h): one segment is its exact plan."""

    @pytest.mark.parametrize("field", CONSTANT_FIELDS.values(), ids=CONSTANT_FIELDS.keys())
    def test_solves_take_one_segment_at_any_count(self, field):
        one = solve_scattering_batch(field, CONSTANT_ENERGIES, 1)
        for n_segments in (1, 64, 4096):
            results = solve_scattering_batch(field, CONSTANT_ENERGIES, n_segments)
            assert [res.n_segments for res in results] == [1] * CONSTANT_ENERGIES.size
            for name in ("t", "r"):
                assert stack(results, name).tobytes() == stack(one, name).tobytes(), name
        references = [solve_scattering_batch(field, CONSTANT_ENERGIES, plan=segment_plan(field, 4096))]
        if field.zero_field_interior:
            references.append([
                magnetic_wall_scattering(WallConfig(field.theta_l, field.theta_r, field.length, e))
                for e in CONSTANT_ENERGIES
            ])
        mask = physical_entries(one)
        for reference in references:
            for name in ("t", "r"):
                assert np.max(np.abs(stack(one, name) - stack(reference, name))[mask]) < 1e-12, name

    def test_an_explicit_plan_is_used_as_given(self, monkeypatch):
        field = CONSTANT_FIELDS["wall"]
        plan = segment_plan(field, 64)
        used = record_plans(monkeypatch)
        runs = [solve_scattering_batch(field, CONSTANT_ENERGIES, n, plan=plan) for n in (1, 64, 4096)]
        assert all(p is plan for p in used) and len(used) == 3
        for results in runs:
            assert [res.n_segments for res in results] == [64] * CONSTANT_ENERGIES.size
            for name in ("t", "r"):
                assert stack(results, name).tobytes() == stack(runs[0], name).tobytes(), name
        # the 64 factors are really built: their rounding differs from the one-segment plan's
        one = solve_scattering_batch(field, CONSTANT_ENERGIES, 64)
        assert stack(one, "t").tobytes() != stack(runs[0], "t").tobytes()

    def test_the_product_builds_one_segment_only_for_constant_fields(self, monkeypatch):
        plans, sweeps = record_plans(monkeypatch), record_sweeps(monkeypatch)
        ys = np.linspace(0.0, 4.0, 41)
        tabulated = TabulatedField(ys, np.sin(0.4 * ys), np.cos(0.4 * ys))
        for field, want in [
            (CONSTANT_FIELDS["wall"], 1),
            (CONSTANT_FIELDS["wall_L0"], 1),
            (CONSTANT_FIELDS["uniform"], 1),
            (scheme1_field(1, 1, 3.0), 96),
            (scheme2_field(0, 1, 6.0), 96),
            (tabulated, 96),
        ]:
            plans.clear()
            solve_scattering_batch(field, [0.5, 2.0], 96)
            solve_scattering(field, 2.0, 96)
            assert [plan.n_segments for plan in plans] == [want] * 2, field
            # the current's sweeps solve with the same plans
            sweeps.clear()
            landauer_current(field, 2.1, 2.0, 0.0, 96)
            assert {plan.n_segments for plan in plans} == {want}, field
            assert [batch.n_segments for batch in sweeps] == [want] * len(sweeps), field
        # the CLI's sweep reaches the solve with its --segments
        plans.clear()
        argv = ["sweep", "--scheme", "wall", "--thetaR", "1.2", "--L", "2", "--points", "3",
                "--E-min", "0.5", "--E-max", "3", "--segments", "64", "--out", os.devnull]
        assert cli.main(argv) == 0
        assert [plan.n_segments for plan in plans] == [1]

    @pytest.mark.parametrize("n_segments", [0, -2, 2.5, float("nan"), float("inf")])
    def test_the_requested_count_is_still_checked(self, n_segments):
        for field in CONSTANT_FIELDS.values():
            with pytest.raises(ValueError, match="need a whole number of segments >= 1"):
                solve_scattering_batch(field, [2.0], n_segments)


# The per-energy assembly that `build_results` replaced, kept as its
# reference: each field of a batch result must equal this bit for bit.
def unitarity_defect_reference(t, r, regime):
    if regime is Regime.TWO_CHANNEL:
        return hs_norm_reference(r.conj().T @ r + t.conj().T @ t - np.eye(2))
    return abs(abs(r[0, 0]) ** 2 + abs(t[0, 0]) ** 2 - 1.0)


def flow_defect_reference(gamma_tilde):
    return hs_norm_reference(gamma_tilde.conj().T @ J4 @ gamma_tilde - J4)


def build_result_reference(t, r, channel, n_segments=0, flow=float("nan")):
    probs = np.abs(t) ** 2
    if channel.regime is Regime.TWO_CHANNEL:
        cond = float(np.sum(probs))
    else:
        cond = float(probs[0, 0])
    return ScatterResult(
        t=t,
        r=r,
        channel=channel,
        probabilities=probs,
        unitarity_defect=unitarity_defect_reference(t, r, channel.regime),
        conductance=cond,
        n_segments=int(n_segments),
        flow_defect=float(flow),
    )


def assert_results_equal_reference(got, want):
    """Every field equal bit for bit, and of the same type.

    The one type that changed on purpose: a single-channel unitarity defect
    was a numpy float64 (a float subclass of equal value) and is now a float.
    """
    assert len(got) == len(want)
    got = list(got)  # index a batch's results out once
    for name in ("t", "r", "probabilities"):
        a = np.stack([getattr(res, name) for res in got])
        b = np.stack([getattr(res, name) for res in want])
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert {type(getattr(res, name)) for res in got} == {np.ndarray}
    for name in ("unitarity_defect", "conductance", "flow_defect", "n_segments"):
        a = np.array([getattr(res, name) for res in got])
        b = np.array([getattr(res, name) for res in want])
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        kinds = {type(getattr(res, name)) for res in got}
        assert kinds == ({int} if name == "n_segments" else {float}), name
        if name != "unitarity_defect":
            assert kinds == {type(getattr(res, name)) for res in want}, name
    assert [res.channel for res in got] == [res.channel for res in want]


def random_amplitudes(rng, n):
    """Seeded t, r stacks: Gaussian entries over eight decades of scale, half of
    them rescaled so that |r00|^2 + |t00|^2 = 1 up to rounding."""
    t, r = (rng.normal(size=(2, n, 2, 2)) + 1j * rng.normal(size=(2, n, 2, 2))) * 10.0 ** rng.uniform(
        -4.0, 4.0, size=(2, n, 1, 1)
    )
    flux = np.sqrt(np.abs(t[:, 0, 0]) ** 2 + np.abs(r[:, 0, 0]) ** 2)
    half = rng.random(n) < 0.5
    t[half, 0, 0] /= flux[half]
    r[half, 0, 0] /= flux[half]
    return t, r


# the fields of the engine-level assembly and matching references
engine_fields = pytest.mark.parametrize(
    "field",
    [scheme1_field(1, 1, 3.0), scheme2_field(0, 1, 6.0), magnetic_wall_field(0.3, 2.0, 2.0)],
    ids=["scheme1", "scheme2", "wall"],
)


def cli_grid_and_edges():
    """The CLI's 601-point grid with its nudged band edges, and that grid with
    the energies next to E = 1 appended."""
    grid = cli.energy_grid(cli.SweepConfig(E_min=-1.0, E_max=5.0, points=601))[0]
    return grid, np.concatenate([grid, [1.0 - 1e-12, 1.0 + 1e-13, np.nextafter(1.0, 2.0)]])


class TestBatchAssembly:
    def test_build_results_equal_the_per_energy_reference(self):
        rng = np.random.default_rng(12)
        n = 100_000
        t, r = random_amplitudes(rng, n)
        # both regimes, shuffled
        channels = spinwire.scattering_channels(rng.uniform(-0.999, 5.0, size=n))
        assert set(channels[2].tolist()) == {False, True}
        gamma = rng.normal(size=(n, 4, 4))
        flow = flow_defect(gamma)
        batch = build_results(t, r, channels, 64, gamma)
        # each result indexed out of the batch equals the reference of its energy
        want = [
            build_result_reference(t[i], r[i], channel_at(channels, i), 64, flow[i])
            for i in range(n)
        ]
        assert_results_equal_reference(batch, want)

    def test_build_result_is_the_batch_of_one(self):
        rng = np.random.default_rng(13)
        t, r = random_amplitudes(rng, 200)
        channels = spinwire.scattering_channels(np.linspace(-0.9, 3.0, 200))
        got = [build_result(t[i], r[i], channel_at(channels, i)) for i in range(200)]
        want = [build_result_reference(t[i], r[i], channel_at(channels, i)) for i in range(200)]
        assert_results_equal_reference(got, want)

    @engine_fields
    def test_engine_results_equal_the_per_energy_reference(self, field):
        cli_grid, grid = cli_grid_and_edges()
        assert cli_grid[0] == -1.0 + 1e-9 and cli_grid[200] == 1.0 + 1e-9
        results = solve_scattering_batch(field, grid, 256)
        # the reference is built from the plan the solve used (one segment for the wall)
        plan = solve_plan(field, 256)
        gamma, _, _ = gamma_piecewise_batch(field, grid, 256, plan=plan)
        want = [
            build_result_reference(res.t, res.r, res.channel, plan.n_segments, flow_defect_reference(g))
            for res, g in zip(results, gamma)
        ]
        assert_results_equal_reference(results, want)

    def test_stacked_norms_equal_the_per_matrix_ones(self):
        rng = np.random.default_rng(14)
        gamma_tilde = rng.normal(size=(500, 4, 4)) * np.exp(1j * rng.normal(size=(500, 4, 4)))
        stacked = flow_defect(gamma_tilde)
        assert stacked.shape == (500,)
        assert stacked.tobytes() == np.array([flow_defect_reference(g) for g in gamma_tilde]).tobytes()
        assert spinwire.hs_norm(gamma_tilde[0]) == hs_norm_reference(gamma_tilde[0])


def berry_matching_reference(field, energies, plan):
    """t, r and the flow defect from the matching the engine used before it
    took the real product and matched through S-matrices: on gamma_tilde, with
    the Berry factor U multiplied back and the lead wave vectors K in every
    term, U (X11 K + i X10) + K U (X00 - i X01 K) and so on."""
    _, gamma_tilde, berry = gamma_piecewise_batch(field, energies, plan.n_segments, plan=plan)
    x00, x01 = gamma_tilde[:, :2, :2], gamma_tilde[:, :2, 2:]
    x10, x11 = gamma_tilde[:, 2:, :2], gamma_tilde[:, 2:, 2:]
    k = spinwire.scattering_channels(energies)[1]
    w = np.stack([np.ones_like(k[:, 0]), np.sqrt(k[:, 1] / k[:, 0])], axis=-1)
    winv = 1.0 / w[:, None, :]
    fr_dag = np.exp(-1j * k * field.length)
    kc, kr = k[:, :, None], k[:, None, :]
    u = berry[None, :, :]
    plus = x00 + 1j * (x01 * kr)
    minus = x00 - 1j * (x01 * kr)
    a_mat = u @ (x11 * kr + 1j * x10) + kc * (u @ minus)
    b_mat = u @ (x11 * kr - 1j * x10) - kc * (u @ plus)
    r_w = np.linalg.inv(a_mat) @ b_mat
    r = w[:, :, None] * (r_w * winv)
    t = (w * fr_dag)[:, :, None] * ((u @ (plus + minus @ r_w)) * winv)
    return t, r, flow_defect(gamma_tilde)


class TestRealProductMatching:
    @engine_fields
    def test_matching_on_gamma_agrees_with_the_berry_matching(self, field):
        _, grid = cli_grid_and_edges()
        results = solve_scattering_batch(field, grid, 256)
        t_ref, r_ref, flow_ref = berry_matching_reference(field, grid, solve_plan(field, 256))
        t = np.array([res.t for res in results])
        r = np.array([res.r for res in results])
        flow = np.array([res.flow_defect for res in results])
        two = grid > 1.0
        # Measured worst cases over the three fields, 10x below each bound:
        # 3.8e-12 on the two-channel entries (scheme2 at E = nextafter(1, 2),
        # where w1 = sqrt(k1/k0) is tiny), 2.8e-13 on single-channel t00 and
        # r00 (scheme2, E = -0.31) and 3.8e-15 on the flow defect (scheme2).
        assert np.max(np.abs(t - t_ref)[two]) < 4e-11
        assert np.max(np.abs(r - r_ref)[two]) < 4e-11
        assert np.max(np.abs(t - t_ref)[~two, 0, 0]) < 3e-12
        assert np.max(np.abs(r - r_ref)[~two, 0, 0]) < 3e-12
        assert np.max(np.abs(flow - flow_ref)[two]) < 4e-14

    def test_solves_never_strip_the_berry_factor(self, monkeypatch, capsys):
        def refuse(u):
            raise AssertionError("a solve built the Berry strip")

        monkeypatch.setattr(transfer, "_diag4", refuse)
        with pytest.raises(AssertionError):
            gamma_piecewise_batch(scheme1_field(1, 1, 3.0), [2.0], 64)
        results = solve_scattering_batch(scheme1_field(1, 1, 3.0), [-0.5, 0.5, 2.0], 64)
        assert all(np.isfinite(res.t).all() for res in results)
        argv = ["sweep", "--scheme", "scheme2", "--L", "3", "--points", "12", "--segments", "64"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 13


W0 = np.block([[np.eye(2), np.eye(2)], [1j * np.eye(2), -1j * np.eye(2)]])


def s_matrix_reference(transfer):
    """(r, t, r', t') of a stack of transfer matrices taking (right-, left-moving)
    amplitudes on the left to those on the right, by np.linalg."""
    t11, t12 = transfer[:, :2, :2], transfer[:, :2, 2:]
    t21, t22 = transfer[:, 2:, :2], transfer[:, 2:, 2:]
    tp = np.linalg.inv(t22)
    r = -tp @ t21
    return r, t11 + t12 @ r, t12 @ tp, tp


def lead_waves(k):
    """(psi, psi') of the flux-normalised lead waves exp(+-iky)/sqrt(k) at y = 0, for (n, 2) k."""
    eye = np.broadcast_to(np.eye(2), (len(k), 2, 2))
    ik = 1j * k[:, :, None] * np.eye(2)
    return np.block([[eye, eye], [ik, -ik]]) / np.sqrt(np.concatenate([k, k], axis=1))[:, None, :]


def random_s_matrices(rng, n=50):
    """Four random (2, 2, n) stacks: the matching's layout, matrix axes first."""
    return tuple(rng.normal(size=(2, 2, n)) + 1j * rng.normal(size=(2, 2, n)) for _ in range(4))


def stacked(blocks):
    """(2, 2, n) stacks of the matching as (n, 2, 2) stacks."""
    return tuple(np.moveaxis(block, -1, 0) for block in blocks)


class TestSMatrixMatching:
    def test_a_real_gamma_in_unit_waves_has_conjugate_blocks(self):
        rng = np.random.default_rng(21)
        gamma = rng.normal(size=(200, 4, 4))
        block = np.linalg.inv(W0) @ gamma @ W0
        a, b = block[:, :2, :2], block[:, :2, 2:]
        assert np.max(np.abs(block[:, 2:, :2] - np.conj(b))) < 1e-14
        assert np.max(np.abs(block[:, 2:, 2:] - np.conj(a))) < 1e-14
        for got, want in zip(stacked(scattering._wire_block(gamma)), s_matrix_reference(block)):
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-12

    @pytest.mark.parametrize("k", [0.3, 1.0, 2.7, 0.4j, 3.1j], ids=str)
    def test_lead_steps_are_the_lead_waves_in_unit_waves(self, k):
        k = np.array([[k, k]], dtype=complex)
        rho, tau = (d[:, :, None] * np.eye(2) for d in scattering._lead_step(k))
        left = s_matrix_reference(np.linalg.inv(W0) @ lead_waves(k))
        right = s_matrix_reference(np.linalg.inv(lead_waves(k)) @ W0)
        for got, want in zip(left + right, (rho, tau, -rho, tau, -rho, tau, rho, tau)):
            assert np.max(np.abs(got - want)) < 1e-14

    def test_star_is_associative_with_the_identity(self):
        rng = np.random.default_rng(22)
        a, b, c = (random_s_matrices(rng) for _ in range(3))
        star = scattering._star
        for got, want in zip(star(star(a, b), c), star(a, star(b, c))):
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-10
        zero, eye = np.zeros((2, 2, 50)), np.broadcast_to(scattering._EYE, (2, 2, 50))
        identity = (zero, eye, zero, eye)
        for got, want in zip(star(identity, a) + star(a, identity), a + a):
            assert np.max(np.abs(got - want)) < 1e-14

    def test_star_of_the_wire_between_its_leads_is_the_transfer_product(self):
        rng = np.random.default_rng(23)
        k = np.array([[1.3, 0.2], [0.8, 0.5j]], dtype=complex)
        gamma = rng.normal(size=(2, 4, 4))
        rho, tau = (d * scattering._EYE for d in scattering._lead_step(k.T))
        left = scattering._star((rho, tau, -rho, tau), scattering._wire_block(gamma))
        got = stacked(scattering._star(left, (-rho, tau, rho, tau)))
        want = s_matrix_reference(np.linalg.inv(lead_waves(k)) @ gamma @ lead_waves(k))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w) / (1.0 + np.abs(w))) < 1e-12
        # given only the right step's r and t, the star gives the same r and t
        for g, w in zip(stacked(scattering._star(left, (-rho, tau))), got):
            assert g.tobytes() == w.tobytes()

    def test_an_exactly_singular_step_raises(self):
        eye = np.eye(2)[:, :, None].astype(complex)
        step = (eye, eye, eye, eye)
        with pytest.raises(SingularSystemError, match="exactly singular"):
            scattering._star(step, step)  # I - r'_a r_b = 0
        with pytest.raises(SingularSystemError, match="exactly singular"):
            scattering._wire_block(np.zeros((1, 4, 4)))  # conj(A) = 0

    def test_long_wire_batch_returns_every_energy(self):
        # the reciprocal 1-norm condition of conj(A) falls to 1e-21 on this grid;
        # the matching raises only on an exactly singular step
        results = solve_scattering_batch(scheme2_field(0, 0, 40.0), np.linspace(-0.95, 0.95, 20))
        assert len(results) == 20


def assert_columns_equal_reference(results, u):
    """`transmission_columns` and the stacked distances equal the per-result code bit for bit."""
    got = transmission_columns(results)
    want = [probability_table_reference(res) for res in results]
    assert list(got) == list(want[0])
    for name, column in got.items():
        expected = np.array([row[name] for row in want])
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name
    t = np.array([res.t for res in results])
    r = np.array([res.r for res in results])
    distances = np.array([hs_norm_reference(res.t - u) for res in results])
    norms = np.array([hs_norm_reference(res.r) for res in results])
    assert spinwire.hs_distance(t, u).tobytes() == distances.tobytes()
    assert spinwire.hs_norm(r).tobytes() == norms.tobytes()


class TestProbabilityColumns:
    def test_columns_equal_the_per_result_reference(self):
        rng = np.random.default_rng(15)
        n = 20_000
        t, r = random_amplitudes(rng, n)
        # both regimes, shuffled, with the CLI's two nudged band edges
        energies = rng.uniform(-0.999, 5.0, size=n)
        energies[:2] = (-1.0 + 1e-9, 1.0 + 1e-9)
        channels = spinwire.scattering_channels(energies)
        assert channels[2][:2].tolist() == [False, True]
        results = build_results(t, r, channels, 64)
        assert_columns_equal_reference(results, planar_rotation(0.7))

    @pytest.mark.parametrize(
        "field",
        [scheme1_field(1, 1, 3.0), scheme2_field(0, 1, 6.0), magnetic_wall_field(0.3, 2.0, 2.0)],
        ids=["scheme1", "scheme2", "wall"],
    )
    def test_engine_columns_equal_the_per_result_reference(self, field):
        grid = cli.energy_grid(cli.SweepConfig(E_min=-1.0, E_max=5.0, points=601))[0]
        assert grid[0] == -1.0 + 1e-9 and grid[200] == 1.0 + 1e-9
        results = solve_scattering_batch(field, grid, 256)
        u = spinwire.berry_operator_planar(field, 0.0, field.length)
        assert_columns_equal_reference(results, u)

    def test_probabilities_are_the_batch_of_one(self):
        rng = np.random.default_rng(16)
        t, r = random_amplitudes(rng, 200)
        channels = spinwire.scattering_channels(np.linspace(-0.9, 3.0, 200))
        for res in build_results(t, r, channels, 64):
            table = transmission_probabilities(res)
            assert table == probability_table_reference(res)
            assert {type(value) for value in table.values()} == {float}


def record_calls(monkeypatch, name, size, direct):
    """``size`` of the arguments of each `transfer.<name>` call that no direct batch makes, in order.

    A direct batch is a `scattering.ordered_product` call; with ``direct`` it
    records its own batch size, once, whatever rows its product splits into.
    """
    sizes, inside = [], []
    function, product = getattr(transfer, name), scattering.ordered_product

    def record(*args):
        if not inside:
            sizes.append(size(*args))
        return function(*args)

    def direct_product(plan, energies):
        if direct:
            sizes.append(len(energies))
        inside.append(True)
        try:
            return product(plan, energies)
        finally:
            inside.pop()

    monkeypatch.setattr(transfer, name, record)
    monkeypatch.setattr(scattering, "ordered_product", direct_product)
    return sizes


def record_products(monkeypatch):
    """The size of each batch whose factors are built, in call order: a direct batch's
    (`scattering.ordered_product`), or that of each set of granule products the
    interpolant takes (`transfer._block_products`)."""
    return record_calls(monkeypatch, "_block_products", lambda plan, energies, regroup: len(energies),
                        direct=True)


def record_nodes(monkeypatch):
    """The energy count of each `transfer._chain` call of the interpolant (the wire's nodes), in order."""
    return record_calls(monkeypatch, "_chain", lambda plan, blocks, n_e, regroup: n_e, direct=False)


def sweep_csv(tmp_path, argv, name):
    """The exit code of a `spinwire sweep` and the bytes of the CSV it wrote with --out, if any."""
    out = tmp_path / f"{name}.csv"
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


SWEEP_GRID = cli.energy_grid(cli.SweepConfig(E_min=-1.0, E_max=5.0, points=600))[0]
SAMPLES = np.linspace(0.0, 6.0, 301)  # a tabulated copy's sample points on a wire of length 6


class TestSweep:
    @pytest.mark.parametrize(
        "field, n_segments, sizes",
        [
            (scheme1_field(0, 0, 6.0), 256, [9, 8]),
            (scheme2_field(0, 0, 6.0), 256, [9, 8]),
            (scheme1_field(10, 1, 3.0), 256, [9, 8]),
            (scheme2_field(1, 1, 6.0), 64, [9, 8, 16]),
        ],
        ids=["scheme1-L6", "scheme2-L6", "scheme1-q10-L3", "coarse-plan"],
    )
    def test_interpolated_rows_agree_with_the_direct_batch(self, field, n_segments, sizes,
                                                           monkeypatch):
        # the granules' degree-8 nodes, then those between them, each doubling adding only
        # the new ones: a 32-segment granule needs degree 16 on this window at 256 segments,
        # and 32 at 64, where it is half the wire
        granule_sizes, nodes = record_products(monkeypatch), record_nodes(monkeypatch)
        swept = solve_scattering_sweep(field, SWEEP_GRID, n_segments)
        assert granule_sizes == sizes
        assert nodes == [25]  # the wire's degree-24 nodes alone
        direct = solve_scattering_batch(field, SWEEP_GRID, n_segments)
        got, want = transmission_columns(swept), transmission_columns(direct)
        for name in want:
            assert np.max(np.abs(got[name] - want[name])) <= 1e-10, name
        swept_defects = np.array([res.unitarity_defect for res in swept])
        direct_defects = np.array([res.unitarity_defect for res in direct])
        assert np.max(np.abs(swept_defects - direct_defects)) <= 1e-10
        assert np.array_equal(swept_defects <= 1e-8, direct_defects <= 1e-8)  # the CLI's defect_tol
        assert [res.n_segments for res in swept] == [n_segments] * 600

    def test_a_wide_window_doubles_the_degree_on_nested_nodes(self, monkeypatch):
        field = scheme1_field(1, 1, 3.0)
        grid = np.linspace(-0.999, 200.0, 600)
        sizes, nodes = record_products(monkeypatch), record_nodes(monkeypatch)
        swept = solve_scattering_sweep(field, grid, 256)
        assert sizes == [9, 8]  # the granules' degree 16 adds only the 8 nodes between the first 9
        assert nodes == [25, 24]  # the wire's degree 48 adds only the 24 between the first 25
        got, want = transmission_columns(swept), transmission_columns(solve_scattering_batch(field, grid, 256))
        for name in want:
            assert np.max(np.abs(got[name] - want[name])) <= 1e-10, name

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--scheme", "scheme1", "--q2", "1", "--L", "40", "--E-min", "-0.5", "--points", "600"], 0),
            (["--scheme", "scheme1", "--q2", "1", "--L", "40", "--E-min", "-1", "--points", "600"], 3),
            (["--scheme", "scheme1", "--q1", "1", "--q2", "1", "--L", "3", "--points", "25"], 0),
            (["--scheme", "scheme1", "--q1", "1", "--q2", "1", "--L", "3", "--points", "60",
              "--E-max", "2000"], 0),
            (["--scheme", "scheme1", "--q1", "1", "--q2", "1", "--L", "3", "--points", "60",
              "--E-min", "2", "--E-max", "2"], 0),
            (["--scheme", "wall", "--thetaL", "0.3", "--thetaR", "2.0", "--L", "2", "--points", "600"], 0),
            (["--scheme", "uniform", "--thetaL", "0.7", "--L", "2", "--points", "600"], 0),
        ],
        ids=["gated-out", "gated-out-singular", "short-grid", "tail-needs-the-grid", "zero-width",
             "wall", "uniform"],
    )
    def test_sweeps_the_interpolant_skips_are_the_direct_csv(self, argv, code, tmp_path, monkeypatch):
        # the gated-out wire keeps the direct batch's flagged rows, and at
        # E = -1 + 1e-9 its exit 3 (an exactly singular step at 256 segments)
        argv = ["sweep", "--E-min", "-1", *argv, "--segments", "256"]
        swept = sweep_csv(tmp_path, argv, "swept")
        monkeypatch.setattr(cli, "solve_scattering_sweep", solve_scattering_batch)
        assert swept == sweep_csv(tmp_path, argv, "direct")
        assert swept[0] == code

    def test_the_gate_is_the_growth_at_the_lowest_energy(self, monkeypatch):
        # scheme1 (0, 0) grows by e^10.4 across L = 7.5 at E = -1 + 1e-9, and by e^11.1 across L = 8
        for length, interpolated in ((7.5, True), (8.0, False)):
            field = scheme1_field(0, 0, length)
            growth = transfer.evanescent_growth(segment_plan(field, 256), SWEEP_GRID[:1])[0]
            assert bool(growth <= transfer.REGROUP_GROWTH_LIMIT) is interpolated
            sizes, nodes = record_products(monkeypatch), record_nodes(monkeypatch)
            # the lowest energy, not the first
            swept = solve_scattering_sweep(field, SWEEP_GRID[::-1], 256)
            assert sizes == ([9, 8] if interpolated else [600]), length
            assert nodes == ([25] if interpolated else []), length
            # just under the gate the granule-built rows still agree with the direct batch
            got = transmission_columns(swept)
            want = transmission_columns(solve_scattering_batch(field, SWEEP_GRID[::-1], 256))
            for name in want:
                assert np.max(np.abs(got[name] - want[name])) <= 1e-10, (length, name)

    @pytest.mark.parametrize(
        "grid",
        [np.append(SWEEP_GRID, 1.0), np.append(SWEEP_GRID, -1.0), np.append(SWEEP_GRID, np.nan), []],
        ids=["threshold", "lower-edge", "nan", "empty"],
    )
    def test_a_grid_is_refused_as_a_batch_is_before_any_product(self, grid, monkeypatch):
        field = scheme1_field(1, 1, 3.0)
        with pytest.raises(Exception) as direct:
            solve_scattering_batch(field, grid, 256)
        sizes = record_products(monkeypatch)
        with pytest.raises(direct.type):
            solve_scattering_sweep(field, grid, 256)
        assert sizes == []

    @pytest.mark.parametrize("segments", ["64", "256", "4096"],
                             ids=["granule-degree-32", "granule-degree-16", "granule-degree-8"])
    def test_the_csv_depends_only_on_the_config(self, segments, tmp_path):
        argv = ["sweep", "--scheme", "scheme2", "--q1", "1", "--q2", "1", "--L", "6",
                "--E-min", "-1", "--points", "600", "--segments", segments]
        first = sweep_csv(tmp_path, argv, "first")
        assert first[0] == 0 and first[1].count(b"\n") == 601
        assert sweep_csv(tmp_path, argv, "second") == first

    @pytest.mark.parametrize(
        "field, n_segments, mirror",
        [
            (scheme2_field(1, 1, 6.0), 4096, True),
            (scheme1_field(1, 1, 6.0), 4095, False),
            (TabulatedField(SAMPLES, *scheme2_field(1, 1, 6.0).components(SAMPLES)), 4096, False),
        ],
        ids=["mirror", "odd-count", "tabulated"],
    )
    def test_granule_built_nodes_agree_with_the_ordered_product(self, field, n_segments, mirror,
                                                                 monkeypatch):
        plan, lo, hi = segment_plan(field, n_segments), SWEEP_GRID[0], SWEEP_GRID[-1]
        assert plan.mirror_symmetric is mirror
        sizes, chained, chain = record_products(monkeypatch), [], transfer._chain

        def keep(*args):
            chained.append(chain(*args))
            return chained[-1]

        monkeypatch.setattr(transfer, "_chain", keep)
        assert transfer.product_interpolant(plan, lo, hi, SWEEP_GRID.size - 1) is not None
        assert sizes == [9]  # a 32-segment granule of a wire of length 6 needs degree 8 on [-1, 5]
        nodes = transfer._lobatto_energies(transfer._SWEEP_DEGREE, lo, hi)
        got = chained[0]  # the wire's first nodes, chained from the granule interpolants
        want = transfer.ordered_product(plan, nodes)
        assert got.shape == want.shape
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * scale)


# a tree-row sweep, interpolated, and the wire over the interpolant's growth gate, solved directly
TREE_SWEEP = ["sweep", "--scheme", "scheme1", "--q1", "1", "--q2", "1", "--L", "6", "--E-min", "-1",
              "--points", "600"]
GATED_OUT_SWEEP = ["sweep", "--scheme", "scheme1", "--q2", "1", "--L", "40", "--E-min", "-1",
                   "--points", "600"]


def tail_ratio(values, nodes, lo, hi):
    """The largest ratio, over the matrices of (nodes, m, 16) values, of the last four Chebyshev
    coefficients of their interpolant to its largest, fitted by numpy's own Chebyshev fit."""
    x = (2.0 * nodes - (lo + hi)) / (hi - lo)
    coeffs = np.abs(np.polynomial.chebyshev.chebfit(x, values.reshape(nodes.size, -1), nodes.size - 1))
    coeffs = coeffs.reshape(nodes.size, *values.shape[1:])
    return np.max(coeffs[-4:].max(axis=(0, 2)) / coeffs.max(axis=(0, 2)))


class TestDiagnostics:
    """The flow defect computed on first read, and the opt-in record of a solve."""

    def test_a_sweep_never_computes_the_flow_defect(self, tmp_path, monkeypatch):
        calls, real = [], scattering.flow_defect

        def spy(gamma):
            calls.append(len(gamma))
            return real(gamma)

        monkeypatch.setattr(scattering, "flow_defect", spy)
        for argv in (TREE_SWEEP, GATED_OUT_SWEEP):
            assert sweep_csv(tmp_path, argv, "plain")[0] == 0
        assert calls == []
        # the record reads it, once
        assert cli.main(TREE_SWEEP + ["--out", str(tmp_path / "s.csv"),
                                      "--stats", str(tmp_path / "st.json")]) == 0
        assert calls == [600]

    @pytest.mark.parametrize(
        "field, energies, route",
        [
            (scheme1_field(1, 1, 6.0), SWEEP_GRID, "interpolated"),
            (scheme1_field(0, 1, 40.0), SWEEP_GRID, "direct"),
            (scheme2_field(1, 0, 4.0), np.array([0.7]), "one-energy"),
        ],
        ids=["interpolated", "direct", "one-energy"],
    )
    def test_flow_defect_is_that_of_the_gamma_matched_on(self, field, energies, route):
        plan = segment_plan(field, DEFAULT_SEGMENTS)
        interpolant = transfer.product_interpolant(plan, energies.min(), energies.max(), energies.size - 1)
        interpolated = None if interpolant is None else interpolant(energies)
        assert (interpolated is None) is (route != "interpolated")
        gamma = transfer.ordered_product(plan, energies) if interpolated is None else interpolated
        if route == "one-energy":
            batch = solve_scattering_batch(field, energies)
            results = [solve_scattering(field, energies[0])]
        else:
            batch = solve_scattering_sweep(field, energies)
            results = list(batch)
        assert batch.gamma.tobytes() == gamma.tobytes()
        want = flow_defect(gamma)
        assert batch.flow_defect.tobytes() == want.tobytes()
        assert np.array([res.flow_defect for res in results]).tobytes() == want.tobytes()

    def test_the_record_matches_independent_computations(self, tmp_path, monkeypatch):
        field, n = scheme1_field(1, 1, 6.0), DEFAULT_SEGMENTS
        plan, lo, hi = segment_plan(field, n), SWEEP_GRID[0], SWEEP_GRID[-1]
        sizes, nodes = record_products(monkeypatch), record_nodes(monkeypatch)
        stats = tmp_path / "st.json"
        start = time.perf_counter_ns()
        assert cli.main(TREE_SWEEP + ["--out", str(tmp_path / "s.csv"), "--stats", str(stats)]) == 0
        wall = time.perf_counter_ns() - start
        record = json.loads(stats.read_text())
        monkeypatch.undo()
        energies = np.array(record["energy"])
        assert energies.tobytes() == SWEEP_GRID.tobytes()

        # growth: the sum over segments of h sqrt(max(|B| - E, 0)), summed pairwise here
        h = field.length / n
        magnitudes = field.magnitude((np.arange(n) + 0.5) * h)
        growth = (h * np.sqrt(np.maximum(magnitudes - energies[:, None], 0.0))).sum(axis=1)
        assert np.allclose(record["growth"], growth, rtol=1e-12, atol=0.0)
        assert max(record["growth"]) > 7.0 and min(record["growth"]) == 0.0

        k_min = np.sqrt(np.abs(energies[:, None] - np.array([-1.0, 1.0]))).min(axis=1)
        assert np.allclose(record["k_min"], k_min, rtol=1e-15, atol=0.0)

        batch = solve_scattering_sweep(field, SWEEP_GRID, n)
        flux = [unitarity_defect_reference(res.t, res.r, res.channel.regime) for res in batch]
        assert np.array(record["flux_defect"]).tobytes() == np.array(flux).tobytes()

        # flow: that of the direct product, within the sweep's 1e-10 agreement with it
        direct = flow_defect(transfer.ordered_product(plan, SWEEP_GRID))
        assert np.max(np.abs(np.array(record["flow_defect"]) - direct)) <= 1e-10

        # rcond: the 2x2 inverses of the matching, rebuilt from the S-matrices of np.linalg
        gamma = transfer.product_interpolant(plan, lo, hi, SWEEP_GRID.size - 1)(SWEEP_GRID)
        k = spinwire.scattering_channels(SWEEP_GRID)[1]
        block = np.linalg.inv(W0) @ gamma @ W0
        left_rp = s_matrix_reference(np.linalg.inv(W0) @ lead_waves(k))[2]
        wire_left_rp = s_matrix_reference(np.linalg.inv(W0) @ gamma @ lead_waves(k))[2]
        right_r = s_matrix_reference(np.linalg.inv(lead_waves(k)) @ W0)[0]
        eye = np.eye(2)
        steps = (block[:, 2:, 2:], eye - left_rp @ s_matrix_reference(block)[0], eye - wire_left_rp @ right_r)
        rcond = np.min([1.0 / np.linalg.cond(m, 1) for m in steps], axis=0)
        assert np.allclose(record["rcond"], rcond, rtol=1e-8, atol=0.0)
        assert 0.0 < min(record["rcond"]) <= max(record["rcond"]) <= 1.0

        # fits: the degrees of the nodes the products were taken at, and tails within the rule
        assert sizes == [9] and nodes == [25]
        fits = record["fits"]
        assert (fits["granule"]["degree"], fits["wire"]["degree"]) == (8, 24)
        granule_nodes = transfer._lobatto_energies(8, lo, hi)
        granules = np.concatenate(list(transfer._block_products(plan, granule_nodes, True)))
        wire_nodes = transfer._lobatto_energies(24, lo, hi)
        wire = transfer.ordered_product(plan, wire_nodes).reshape(25, 1, 16)
        for name, values, at in (("granule", granules.swapaxes(0, 1).reshape(9, -1, 16), granule_nodes),
                                 ("wire", wire, wire_nodes)):
            assert 0.0 < fits[name]["tail"] <= transfer._SWEEP_TAIL_TOL
            assert tail_ratio(values, at, lo, hi) <= transfer._SWEEP_TAIL_TOL

        layers = record["layer_ns"]
        assert set(layers) == {"plan", "granules", "fits", "matching", "assembly", "csv"}
        assert all(ns > 0 for ns in layers.values())
        assert sum(layers.values()) <= wall

    def test_a_one_energy_solve_records_its_layers(self):
        recorder = Recorder()
        with pytest.raises(ValueError, match="no solve has filled"):
            recorder.record()
        field = scheme2_field(1, 0, 4.0)
        res = solve_scattering(field, 0.7, recorder=recorder)
        record = recorder.record()
        assert set(record.layer_ns) == {"plan", "product", "matching", "assembly"}
        assert record.fits == {}
        assert record.energy.tolist() == [0.7]
        assert record.flux_defect.tolist() == [res.unitarity_defect]
        assert record.flow_defect.tolist() == [res.flow_defect]
        assert record.growth[0] == transfer.evanescent_growth(segment_plan(field, DEFAULT_SEGMENTS),
                                                              np.array([0.7]))[0] > 0.0
