import numpy as np
import pytest

from spinwire.core import hs_norm
from spinwire.berry import (
    align_sign,
    berry_operator_overlap,
    berry_operator_planar,
    berry_operator_segmented,
    field_directions,
    planar_direction,
    planar_rotation,
    spin_eigenvectors,
)
from spinwire.fields import magnetic_wall_field, scheme1_field, scheme2_field


class TestPlanarOperator:
    def test_identity_for_equal_endpoints(self):
        f = scheme1_field(0, 0, 3.0)
        assert np.allclose(berry_operator_planar(f, 1.0, 1.0), np.eye(2))

    def test_half_turn_full_interval(self):
        f = scheme1_field(0, 0, 3.0)
        u = berry_operator_planar(f, 0.0, 3.0)
        assert np.allclose(u, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    def test_quarter_turn_full_interval(self):
        f = scheme2_field(0, 0, 6.0)
        u = berry_operator_planar(f, 0.0, 6.0)
        assert np.allclose(u, np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0), atol=1e-15)

    def test_unitary_and_special(self):
        for delta in (0.3, 2.0, 7.5, -4.4):
            u = planar_rotation(delta)
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-15)
            assert np.linalg.det(u) == pytest.approx(1.0)

    def test_array_of_angles_stacks_the_scalar_rotations(self):
        deltas = np.array([0.0, 0.3, -2.0, 7.5, 3.0 * np.pi])
        stack = planar_rotation(deltas)
        assert stack.shape == (5, 2, 2)
        for delta, u in zip(deltas, stack):
            assert np.array_equal(u, planar_rotation(float(delta)))

    def test_composition(self):
        f = scheme1_field(0, 1, 3.0)
        u_02 = berry_operator_planar(f, 0.0, 2.0)
        u_23 = berry_operator_planar(f, 2.0, 3.0)
        u_03 = berry_operator_planar(f, 0.0, 3.0)
        assert hs_norm(u_23 @ u_02 - u_03) < 1e-10


class TestWallTransport:
    """The wall carries the left lead's basis and rotates it at y = L."""

    wall = magnetic_wall_field(0.3, 2.1, 2.0)

    def test_identity_inside_the_wall(self):
        assert np.array_equal(berry_operator_planar(self.wall, 0.5, 0.7), np.eye(2))

    @pytest.mark.parametrize("y", [0.5, 1.0, 1.5])
    def test_composition_across_the_jump(self, y):
        u_0y = berry_operator_planar(self.wall, 0.0, y)
        u_yl = berry_operator_planar(self.wall, y, 2.0)
        assert np.array_equal(u_yl @ u_0y, berry_operator_planar(self.wall, 0.0, 2.0))


class TestOverlapRoute:
    def test_equal_directions_identity(self):
        n = np.array([0.3, 0.4, np.sqrt(1 - 0.25)])
        assert np.allclose(berry_operator_overlap(n, n), np.eye(2), atol=1e-15)

    def test_orthogonal_pair_matches_quarter_turn(self):
        u = berry_operator_overlap(planar_direction(0.0), planar_direction(np.pi / 2))
        assert np.allclose(u, planar_rotation(np.pi / 2), atol=1e-15)

    def test_antipodal_rejected(self):
        n = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            berry_operator_overlap(n, -n)

    @pytest.mark.parametrize("n_right", [[0.0, 0.0, -2.0], [np.nan, 0.0, 0.0]])
    def test_directions_checked_before_the_antipodal_test(self, n_right):
        for call in (
            lambda: berry_operator_overlap([0.0, 0.0, 1.0], n_right),
            lambda: berry_operator_segmented([[0.0, 0.0, 1.0], n_right]),
        ):
            with pytest.raises(ValueError, match="direction must be a unit 3-vector"):
                call()

    def test_random_pair_unitary_and_matches_geodesic_product(self, rng):
        for _ in range(10):
            v = rng.normal(size=3)
            w = rng.normal(size=3)
            n_a = v / np.linalg.norm(v)
            n_b = w / np.linalg.norm(w)
            if np.dot(n_a, n_b) < -0.9:
                continue
            u = berry_operator_overlap(n_a, n_b)
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
            # geodesic samples between the endpoints (slerp)
            angle = np.arccos(np.clip(np.dot(n_a, n_b), -1, 1))
            ts = np.linspace(0.0, 1.0, 257)
            if angle < 1e-12:
                continue
            path = [
                (np.sin((1 - t) * angle) * n_a + np.sin(t * angle) * n_b) / np.sin(angle)
                for t in ts
            ]
            seg = berry_operator_segmented(path)
            assert hs_norm(align_sign(seg, u) - u) < 1e-8


class TestSegmentedRoute:
    def test_two_identical_directions(self):
        n = planar_direction(0.4)
        assert np.allclose(berry_operator_segmented([n, n]), np.eye(2), atol=1e-15)

    def test_matches_planar_closed_form_small_winding(self):
        f = scheme2_field(0, 0, 6.0)
        seg = berry_operator_segmented(field_directions(f, 4096))
        pl = berry_operator_planar(f, 0.0, 6.0)
        assert hs_norm(seg - pl) < 1e-8  # exact equality: winding below a half turn

    def test_matches_planar_up_to_sign_with_windings(self):
        f = scheme1_field(0, 1, 3.0)  # winding 3*pi
        seg = berry_operator_segmented(field_directions(f, 4096))
        pl = berry_operator_planar(f, 0.0, 3.0)
        assert hs_norm(seg + pl) < 1e-8  # double cover: global sign flips
        assert hs_norm(align_sign(seg, pl) - pl) < 1e-8

    def test_single_step_boundary_overlap(self):
        f = scheme2_field(0, 0, 6.0)
        step = berry_operator_segmented(
            [planar_direction(f.theta_left), planar_direction(f.theta_right)]
        )
        assert np.allclose(step, planar_rotation(np.pi / 2), atol=1e-15)

    def test_antipodal_step_rejected(self):
        with pytest.raises(ValueError):
            berry_operator_segmented([planar_direction(0.0), planar_direction(np.pi)])


def test_all_routes_unitary(rng):
    f = scheme1_field(0, 0, 3.0)
    for u in (
        berry_operator_planar(f, 0.3, 2.7),
        berry_operator_overlap(planar_direction(0.1), planar_direction(2.0)),
        berry_operator_segmented(field_directions(f, 128)),
    ):
        assert hs_norm(u.conj().T @ u - np.eye(2)) < 1e-12


@pytest.mark.parametrize(
    "direction", [[np.nan, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, np.inf, 0.0], [1.0, 0.0]]
)
def test_spin_eigenvectors_need_a_unit_vector(direction):
    with pytest.raises(ValueError, match="direction must be a unit 3-vector"):
        spin_eigenvectors(direction)


def test_spin_eigenvectors_orthonormal(rng):
    for _ in range(20):
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        lo, up = spin_eigenvectors(n)
        assert abs(np.vdot(lo, lo) - 1) < 1e-14
        assert abs(np.vdot(up, up) - 1) < 1e-14
        assert abs(np.vdot(lo, up)) < 1e-14
