import numpy as np
import pytest

from spinwire.core import FieldDirectionError
from spinwire.fields import (
    TabulatedField,
    load_profile,
    magnetic_wall_field,
    scheme1_field,
    scheme2_field,
    uniform_field,
)


def winding_by_integration(field, n=200_001):
    """Independent winding oracle: integrate theta' reconstructed from the
    raw components, theta' = (b3 b1' - b1 b3') / |B|^2, on a dense grid."""
    ys = np.linspace(0.0, field.length, n)
    b1, b3 = field.components(ys)
    b1 = np.asarray(b1, dtype=float)
    b3 = np.asarray(b3, dtype=float)
    d1 = np.gradient(b1, ys)
    d3 = np.gradient(b3, ys)
    dtheta = (b3 * d1 - b1 * d3) / (b1**2 + b3**2)
    return np.trapezoid(dtheta, ys)


class TestScheme1:
    def test_midpoint_components(self):
        f = scheme1_field(0, 0, 3.0)
        b1, b3 = f.components(1.5)
        assert b1 == pytest.approx(1.0)
        assert b3 == pytest.approx(0.0, abs=1e-15)
        assert float(f.theta(1.5)) == pytest.approx(np.pi / 2)

    def test_right_boundary_antiparallel(self):
        f = scheme1_field(0, 0, 3.0)
        b1, b3 = f.components(3.0)
        assert b1 == pytest.approx(0.0, abs=1e-15)
        assert b3 == pytest.approx(-1.0)
        assert float(f.theta(3.0)) == pytest.approx(np.pi)

    def test_q0_profile_formula(self):
        # base case: b1 = sin^2(pi s), b3 = cos(pi s)
        f = scheme1_field(0, 0, 3.0)
        for s in (0.1, 0.3, 0.45, 0.8):
            b1, b3 = f.components(3.0 * s)
            assert b1 == pytest.approx(np.sin(np.pi * s) ** 2, abs=1e-14)
            assert b3 == pytest.approx(np.cos(np.pi * s), abs=1e-14)

    def test_winding_with_q2_matches_integration_oracle(self):
        f = scheme1_field(0, 1, 3.0)
        assert float(f.theta(3.0)) == pytest.approx(3.0 * np.pi, abs=1e-12)
        assert winding_by_integration(f) == pytest.approx(3.0 * np.pi, abs=1e-6)

    @pytest.mark.parametrize("q1,q2", [(0, 0), (1, 0), (10, 0), (0, 1), (0, 10)])
    def test_magnitude_positive_everywhere(self, q1, q2):
        f = scheme1_field(q1, q2, 3.0)
        mags = np.asarray(f.magnitude(np.linspace(0.0, 3.0, 20_001)))
        assert mags.min() > 0.0

    @pytest.mark.parametrize("q1,q2", [(0, 0), (2, 0), (0, 2)])
    def test_theta_matches_atan2_mod_2pi(self, q1, q2):
        f = scheme1_field(q1, q2, 3.0)
        ys = np.linspace(0.0, 3.0, 501)
        b1, b3 = f.components(ys)
        raw = np.arctan2(b1, b3)
        th = np.asarray(f.theta(ys))
        wrapped = np.mod(th - raw + np.pi, 2.0 * np.pi) - np.pi
        assert np.max(np.abs(wrapped)) < 1e-10

    def test_theta_is_monotone(self):
        f = scheme1_field(1, 2, 3.0)
        th = np.asarray(f.theta(np.linspace(0.0, 3.0, 10_001)))
        assert np.all(np.diff(th) >= -1e-12)


class TestScheme2:
    def test_boundaries(self):
        f = scheme2_field(0, 0, 6.0)
        b1l, b3l = f.components(0.0)
        b1r, b3r = f.components(6.0)
        assert (b1l, b3l) == (pytest.approx(0.0, abs=1e-15), pytest.approx(1.0))
        assert (b1r, b3r) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-15))
        assert float(f.theta(0.0)) == pytest.approx(0.0)
        assert float(f.theta(6.0)) == pytest.approx(np.pi / 2)

    def test_q0_profile_formula(self):
        # base case: b1 = sin^2(pi s / 2), b3 = cos^2(pi s / 2)
        f = scheme2_field(0, 0, 6.0)
        for s in (0.2, 0.5, 0.75):
            b1, b3 = f.components(6.0 * s)
            assert b1 == pytest.approx(np.sin(np.pi * s / 2) ** 2, abs=1e-14)
            assert b3 == pytest.approx(np.cos(np.pi * s / 2) ** 2, abs=1e-14)

    def test_winding_with_q2(self):
        f = scheme2_field(0, 1, 6.0)
        assert float(f.theta(6.0)) == pytest.approx(5.0 * np.pi / 2, abs=1e-12)
        assert winding_by_integration(f) == pytest.approx(5.0 * np.pi / 2, abs=1e-6)

    def test_theta_matches_atan2_mod_2pi(self):
        f = scheme2_field(1, 1, 6.0)
        ys = np.linspace(0.0, 6.0, 501)
        b1, b3 = f.components(ys)
        th = np.asarray(f.theta(ys))
        wrapped = np.mod(th - np.arctan2(b1, b3) + np.pi, 2.0 * np.pi) - np.pi
        assert np.max(np.abs(wrapped)) < 1e-10


@pytest.mark.parametrize(
    "field",
    [scheme1_field(0, 0, 3.0), scheme1_field(0, 1, 3.0), scheme2_field(0, 0, 6.0), scheme2_field(1, 1, 6.0)],
    ids=["s1_q0", "s1_q2=1", "s2_q0", "s2_q1=q2=1"],
)
def test_component_derivatives_vanish_at_interfaces(field):
    h = 1e-5
    for y0, sign in ((0.0, +1), (field.length, -1)):
        b1a, b3a = field.components(y0)
        b1b, b3b = field.components(y0 + sign * h)
        assert abs((b1b - b1a) / h) < 1e-3
        assert abs((b3b - b3a) / h) < 1e-3
    # the connection inherits the flat interface: theta' -> 0 there
    assert abs(float(field.theta_deriv(0.0))) == 0.0
    assert abs(float(field.theta_deriv(field.length))) == 0.0


def test_uniform_field_is_flat():
    f = uniform_field(0.7, 2.0)
    ys = np.linspace(0.0, 2.0, 11)
    assert np.allclose(np.asarray(f.theta(ys)), 0.7)
    assert np.allclose(np.asarray(f.magnitude(ys)), 1.0)
    assert np.allclose(np.asarray(f.theta_deriv(ys)), 0.0)


class TestOmega:
    def test_lead_values(self):
        f = scheme1_field(0, 0, 3.0)
        assert float(f.magnitude(0.0)) == pytest.approx(1.0)

    def test_wall_interior_is_gapless(self):
        w = magnetic_wall_field(0.0, np.pi, 2.0)
        assert float(w.magnitude(1.0)) == 0.0

    def test_scheme1_midpoint(self):
        assert float(scheme1_field(0, 0, 3.0).magnitude(1.5)) == pytest.approx(1.0)


@pytest.mark.parametrize("length", [float("nan"), float("inf")])
def test_non_finite_length_rejected(length):
    with pytest.raises(ValueError, match="finite"):
        scheme1_field(0, 0, length)
    with pytest.raises(ValueError, match="finite"):
        magnetic_wall_field(0.0, 1.0, length)


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_angle_rejected(angle):
    for build in (
        lambda: magnetic_wall_field(angle, 1.0, 2.0),
        lambda: magnetic_wall_field(0.0, angle, 2.0),
        lambda: uniform_field(angle, 1.0),
    ):
        with pytest.raises(ValueError, match="lead angle .* must be finite"):
            build()
    for column in range(3):
        samples = [np.linspace(0.0, 2.0, 8), np.zeros(8), np.ones(8)]
        samples[column][-1] = angle
        with pytest.raises(ValueError, match="profile samples must be finite"):
            TabulatedField(*samples)


def test_wall_direction_undefined_inside():
    w = magnetic_wall_field(0.2, 1.3, 2.0)
    with pytest.raises(FieldDirectionError):
        w.theta(1.0)
    assert float(w.theta(0.0)) == pytest.approx(0.2)
    assert float(w.theta(2.0)) == pytest.approx(1.3)


class TestTabulated:
    def make_samples(self, n=41):
        src = scheme2_field(0, 0, 6.0)
        ys = np.linspace(0.0, 6.0, n)
        b1, b3 = src.components(ys)
        return ys, np.asarray(b1, dtype=float), np.asarray(b3, dtype=float)

    def test_round_trip_through_file(self, tmp_path):
        ys, b1, b3 = self.make_samples()
        path = tmp_path / "profile.txt"
        with open(path, "w") as fh:
            fh.write("# y b1 b3\n")
            for row in zip(ys, b1, b3):
                fh.write(" ".join(format(v, ".17g") for v in row) + "\n")
        field = load_profile(path)
        assert np.array_equal(field.ys, ys)
        assert np.array_equal(field.b1s, b1)
        assert np.array_equal(field.b3s, b3)

    def test_interpolant_tracks_source(self):
        ys, b1, b3 = self.make_samples(201)
        field = TabulatedField(ys, b1, b3)
        src = scheme2_field(0, 0, 6.0)
        probe = np.linspace(0.0, 6.0, 333)
        assert np.allclose(np.asarray(field.theta(probe)), np.asarray(src.theta(probe)), atol=1e-5)
        assert np.allclose(np.asarray(field.magnitude(probe)), np.asarray(src.magnitude(probe)), atol=1e-5)

    def test_unwrapped_winding_preserved(self):
        src = scheme1_field(0, 1, 3.0)
        ys = np.linspace(0.0, 3.0, 601)
        b1, b3 = src.components(ys)
        field = TabulatedField(ys, np.asarray(b1), np.asarray(b3))
        assert field.theta_right == pytest.approx(3.0 * np.pi, abs=1e-9)

    def test_interior_zero_rejected(self):
        ys = np.linspace(0.0, 1.0, 5)
        b1 = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        b3 = np.array([1.0, 0.5, 0.0, -0.5, -1.0])
        with pytest.raises(FieldDirectionError):
            TabulatedField(ys, b1, b3)

    def test_non_increasing_y_rejected(self):
        ys = np.array([0.0, 0.5, 0.5, 1.0])
        ones = np.array([0.0, 0.1, 0.1, 0.0])
        b3 = np.array([1.0, 0.9, 0.9, 1.0])
        with pytest.raises(ValueError):
            TabulatedField(ys, ones, b3)

    def test_lead_magnitude_enforced(self):
        ys = np.linspace(0.0, 1.0, 5)
        b1 = np.zeros(5)
        b3 = np.array([0.7, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            TabulatedField(ys, b1, b3)
