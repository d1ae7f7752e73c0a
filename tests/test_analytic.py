import numpy as np
import pytest

from spinwire.core import hs_distance, hs_norm
from spinwire.berry import planar_direction, planar_rotation
from spinwire.fields import (
    magnetic_wall_field,
    scheme1_field,
    scheme2_field,
    uniform_field,
)
from spinwire.analytic import (
    WallConfig,
    delta_wall_scattering,
    high_energy_t,
    magnetic_wall_scattering,
)
from spinwire.scattering import solve_scattering


class TestHighEnergyTransmission:
    def test_antiparallel_leads(self):
        u = high_energy_t(scheme1_field(0, 0, 3.0))
        assert np.allclose(u, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    def test_orthogonal_leads(self):
        u = high_energy_t(scheme2_field(0, 0, 6.0))
        assert np.allclose(u, np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0), atol=1e-15)

    def test_zero_length_wall_is_the_lead_to_lead_rotation(self):
        # t of the abrupt interface tends to the transport at high energy
        f = magnetic_wall_field(0.3, 2.1, 0.0)
        u = high_energy_t(f)
        assert np.array_equal(u, planar_rotation(2.1 - 0.3))
        assert np.max(np.abs(solve_scattering(f, 1e4, 16).t - u)) < 1e-4
        ref = delta_wall_scattering(planar_direction(0.3), planar_direction(2.1), 1e4)
        assert np.max(np.abs(ref.t - u)) < 1e-4

    def test_uniform(self):
        assert np.allclose(high_energy_t(uniform_field(0.5, 2.0)), np.eye(2))

    def test_limit_is_independent_of_profile_details(self):
        assert np.allclose(
            high_energy_t(scheme1_field(10, 0, 3.0)),
            high_energy_t(scheme1_field(0, 0, 3.0)),
            atol=1e-14,
        )

    @pytest.mark.parametrize("make,length", [(scheme1_field, 3.0), (scheme2_field, 6.0)])
    def test_transmission_approaches_the_limit(self, make, length):
        f = make(0, 0, length)
        u = high_energy_t(f)
        d10 = hs_distance(solve_scattering(f, 10.0, 4096).t, u)
        d100 = hs_distance(solve_scattering(f, 100.0, 4096).t, u)
        assert d100 < d10


class TestDeltaWall:
    def test_aligned_leads_transparent(self):
        n = planar_direction(0.8)
        res = delta_wall_scattering(n, n, 3.0)
        assert np.max(np.abs(res.t - np.eye(2))) < 1e-12
        assert np.max(np.abs(res.r)) < 1e-12

    def test_reflection_is_hermitian(self, rng):
        for _ in range(10):
            a, b = rng.uniform(0.0, np.pi, size=2)
            res = delta_wall_scattering(planar_direction(a), planar_direction(b), 2.5)
            assert np.max(np.abs(res.r - res.r.conj().T)) < 1e-12

    def test_high_energy_limit_is_the_transport_operator(self):
        n_l = planar_direction(0.0)
        n_r = planar_direction(np.pi / 2)
        res = delta_wall_scattering(n_l, n_r, 1e6)
        assert hs_distance(res.t, planar_rotation(np.pi / 2)) < 1e-4
        assert hs_norm(res.r) < 1e-4

    def test_antipodal_pair_matches_short_wall(self):
        n = planar_direction(0.0)
        for energy in (1.5, 2.0, 5.0):
            delta = delta_wall_scattering(n, -n, energy)
            wall = magnetic_wall_scattering(WallConfig(0.0, np.pi, 1e-6, energy))
            assert np.max(np.abs(delta.t - wall.t)) < 1e-4
            assert np.max(np.abs(delta.r - wall.r)) < 1e-4

    def test_unitarity(self):
        res = delta_wall_scattering(planar_direction(0.3), planar_direction(1.9), 4.0)
        assert res.unitarity_defect < 1e-12

    @pytest.mark.parametrize(
        "n_left, n_right",
        [
            ([0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]),
            ([np.nan, 0.0, 0.0], [0.0, 0.0, 1.0]),
            # antipodal, so the overlap route that checks directions is skipped
            ([0.0, 0.0, 2.0], [0.0, 0.0, -2.0]),
            ([0.0, 0.0, 1.0], [0.0, 0.0, -2.0]),
        ],
    )
    def test_directions_must_be_unit_vectors(self, n_left, n_right):
        with pytest.raises(ValueError, match="direction must be a unit 3-vector"):
            delta_wall_scattering(n_left, n_right, 2.0)


class TestMagneticWall:
    def test_aligned_leads_still_scatter(self):
        # the gapless interior is a band mismatch even with aligned leads
        cfg = WallConfig(0.4, 0.4, 2.0, 5.0)
        res = magnetic_wall_scattering(cfg)
        assert hs_norm(res.r) > 1e-3
        eng = solve_scattering(magnetic_wall_field(0.4, 0.4, 2.0), 5.0, 4)
        assert np.max(np.abs(res.t - eng.t)) < 1e-10
        assert np.max(np.abs(res.r - eng.r)) < 1e-10

    def test_zero_length_aligned_is_transparent(self):
        res = magnetic_wall_scattering(WallConfig(1.1, 1.1, 0.0, 3.0))
        assert np.max(np.abs(res.t - np.eye(2))) < 1e-12
        assert np.max(np.abs(res.r)) < 1e-12

    @pytest.mark.parametrize("energy", np.linspace(1.01, 100.0, 12).tolist())
    def test_unitarity_two_channel(self, energy):
        res = magnetic_wall_scattering(WallConfig(0.0, np.pi, 3.0, energy))
        assert res.unitarity_defect < 1e-10

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (WallConfig(float("nan"), 1.0, 2.0, 2.0), "lead angle theta_l must be finite, got nan"),
            (WallConfig(0.0, float("inf"), 2.0, 2.0), "lead angle theta_r must be finite, got inf"),
            (WallConfig(0.0, 1.0, float("nan"), 2.0), "wall length must be non-negative and finite, got nan"),
            (WallConfig(0.0, 1.0, float("inf"), 2.0), "wall length must be non-negative and finite, got inf"),
            (WallConfig(0.0, 1.0, -1.0, 2.0), "wall length must be non-negative and finite, got -1.0"),
        ],
    )
    def test_non_finite_inputs_refused_as_the_wall_field_refuses_them(self, cfg, message, recwarn):
        with pytest.raises(ValueError) as info:
            magnetic_wall_scattering(cfg)
        assert str(info.value) == message
        assert len(recwarn) == 0

    def test_single_channel_matches_engine(self):
        cfg = WallConfig(0.0, np.pi / 2, 1.5, 0.5)
        res = magnetic_wall_scattering(cfg)
        eng = solve_scattering(magnetic_wall_field(0.0, np.pi / 2, 1.5), 0.5, 4)
        assert np.max(np.abs(res.t - eng.t)) < 1e-10
        assert res.unitarity_defect < 1e-10


class TestWallLimits:
    def test_sharpness_parameter_drives_profile_to_wall(self):
        # engine transmission approaches the wall solution monotonically in q1
        energy = 2.0
        wall_t = magnetic_wall_scattering(WallConfig(0.0, np.pi, 3.0, energy)).t
        dists = [
            hs_distance(solve_scattering(scheme1_field(q, 0, 3.0), energy, 4096).t, wall_t)
            for q in (0, 1, 10)
        ]
        assert dists[0] > dists[1] > dists[2]

    def test_winding_parameter_reaches_wall_in_the_limit(self):
        # q2 convergence is not monotone through q2=1 (the extra-winding
        # profile is farther from the wall than the base one), but the q2=10
        # profile is already an order of magnitude closer
        energy = 2.0
        wall_t = magnetic_wall_scattering(WallConfig(0.0, np.pi, 3.0, energy)).t
        d0 = hs_distance(solve_scattering(scheme1_field(0, 0, 3.0), energy, 4096).t, wall_t)
        d10 = hs_distance(solve_scattering(scheme1_field(0, 10, 3.0), energy, 4096).t, wall_t)
        assert d10 < 0.1 * d0

    def test_orthogonal_scheme_sharpness(self):
        energy = 2.0
        wall_t = magnetic_wall_scattering(WallConfig(0.0, np.pi / 2, 6.0, energy)).t
        dists = [
            hs_distance(solve_scattering(scheme2_field(q, 0, 6.0), energy, 4096).t, wall_t)
            for q in (0, 1, 10)
        ]
        assert dists[0] > dists[1] > dists[2]
