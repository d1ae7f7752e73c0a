"""Planar Zeeman field profiles along the wire.

A profile lives on [0, L] (the left interface is always at y = 0) and extends
into the leads with the constant boundary values.  The field direction stays
in the plane spanned by two orthonormal axes n1 and n3, so it is fully
described by the magnitude |B(y)| (in units of the lead magnitude B0) and one
*unwrapped* polar angle theta(y) measured from n3.  Keeping theta continuous
instead of tracking per-component sign functions is what makes the winding
profiles well defined: the built-in profiles wind by (1 + 2*q2)*pi
(antiparallel leads) or (1 + 4*q2)*pi/2 (orthogonal leads).

Components:   b1 = |B| sin(theta),  b3 = |B| cos(theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FieldDirectionError, zeeman_matrix


class PlanarField:
    """Base class; subclasses provide magnitude/theta and their derivative.

    All evaluation methods accept scalars or arrays of positions.  Positions
    outside [0, L] clamp to the lead values.
    """

    length: float
    theta_left: float
    theta_right: float
    zero_field_interior = False

    def magnitude(self, y):
        raise NotImplementedError

    def theta(self, y):
        raise NotImplementedError

    def theta_deriv(self, y):
        raise NotImplementedError

    def components(self, y):
        """Field components (b1, b3) in B0 units."""
        mag = self.magnitude(y)
        th = self.theta(y)
        return mag * np.sin(th), mag * np.cos(th)

    def zeeman_term(self, y: float) -> np.ndarray:
        """On-site Zeeman 2x2 matrix in the fixed (up, down) basis."""
        b1, b3 = self.components(float(y))
        return zeeman_matrix(float(b1), float(b3))

    def _clamp(self, y):
        return np.clip(np.asarray(y, dtype=float), 0.0, self.length)


def _check_length(length: float) -> float:
    length = float(length)
    if not (np.isfinite(length) and length > 0.0):
        raise ValueError(f"scattering region length must be positive and finite, got {length}")
    return length


def _check_angle(name: str, theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"lead angle {name} must be finite, got {theta}")
    return theta


@dataclass(frozen=True)
class Scheme1Field(PlanarField):
    """Winding profile between antiparallel leads: B points along +n3 at the
    left lead and along -n3 at the right lead.

    q1 sharpens the components around the midpoint (the magnetic-wall limit as
    q1 grows), q2 adds full extra windings.  The total winding of theta is
    (1 + 2*q2)*pi and |B| never vanishes.
    """

    q1: int
    q2: int
    length: float

    def __post_init__(self):
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("q1 and q2 must be non-negative integers")
        object.__setattr__(self, "length", _check_length(self.length))
        object.__setattr__(self, "theta_left", 0.0)
        object.__setattr__(self, "theta_right", (1 + 2 * self.q2) * np.pi)

    def _phase(self, y):
        return (1 + 2 * self.q2) * np.pi * self._clamp(y) / self.length

    def magnitude(self, y):
        u = self._phase(y)
        a = 2 + 2 * self.q1
        b = 1 + 2 * self.q1
        return np.hypot(np.abs(np.sin(u)) ** a, np.abs(np.cos(u)) ** b)

    def theta(self, y):
        u = self._phase(y)
        sec = np.minimum(np.floor(u / np.pi), 1 + 2 * self.q2)
        v = u - sec * np.pi
        a = 2 + 2 * self.q1
        b = 1 + 2 * self.q1
        # within a half-turn section sin(v) >= 0 and cos(v)**b carries the sign,
        # so atan2 lands in [0, pi] and the sections chain continuously
        return sec * np.pi + np.arctan2(np.sin(v) ** a, np.cos(v) ** b)

    def theta_deriv(self, y):
        u = self._phase(y)
        sec = np.minimum(np.floor(u / np.pi), 1 + 2 * self.q2)
        v = u - sec * np.pi
        a = 2 + 2 * self.q1
        b = 1 + 2 * self.q1
        s, c = np.sin(v), np.cos(v)
        num = a * s ** (a - 1) * c ** (b + 1) + b * s ** (a + 1) * c ** (b - 1)
        den = s ** (2 * a) + c ** (2 * b)
        inside = (np.asarray(y, dtype=float) > 0.0) & (np.asarray(y, dtype=float) < self.length)
        return np.where(inside, num / den, 0.0) * ((1 + 2 * self.q2) * np.pi / self.length)


@dataclass(frozen=True)
class Scheme2Field(PlanarField):
    """Winding profile between orthogonal leads: B points along n3 at the left
    lead and along n1 at the right lead.

    Both components carry the same even exponent 2 + 2*q1; q2 adds full extra
    windings.  The total winding of theta is (1 + 4*q2)*pi/2.
    """

    q1: int
    q2: int
    length: float

    def __post_init__(self):
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("q1 and q2 must be non-negative integers")
        object.__setattr__(self, "length", _check_length(self.length))
        object.__setattr__(self, "theta_left", 0.0)
        object.__setattr__(self, "theta_right", (1 + 4 * self.q2) * np.pi / 2.0)

    def _phase(self, y):
        return (1 + 4 * self.q2) * np.pi * self._clamp(y) / (2.0 * self.length)

    def magnitude(self, y):
        u = self._phase(y)
        a = 2 + 2 * self.q1
        return np.hypot(np.abs(np.sin(u)) ** a, np.abs(np.cos(u)) ** a)

    def theta(self, y):
        u = self._phase(y)
        half = np.pi / 2.0
        sec = np.minimum(np.floor(u / half), 1 + 4 * self.q2)
        v = u - sec * half
        a = 2 + 2 * self.q1
        return sec * half + np.arctan2(np.sin(v) ** a, np.cos(v) ** a)

    def theta_deriv(self, y):
        u = self._phase(y)
        half = np.pi / 2.0
        sec = np.minimum(np.floor(u / half), 1 + 4 * self.q2)
        v = u - sec * half
        a = 2 + 2 * self.q1
        s, c = np.sin(v), np.cos(v)
        num = a * (s * c) ** (a - 1)
        den = s ** (2 * a) + c ** (2 * a)
        inside = (np.asarray(y, dtype=float) > 0.0) & (np.asarray(y, dtype=float) < self.length)
        return np.where(inside, num / den, 0.0) * ((1 + 4 * self.q2) * np.pi / (2.0 * self.length))


@dataclass(frozen=True)
class UniformField(PlanarField):
    """Constant field of lead magnitude pointing at a fixed angle."""

    theta0: float
    length: float

    def __post_init__(self):
        object.__setattr__(self, "length", _check_length(self.length))
        object.__setattr__(self, "theta_left", _check_angle("theta0", self.theta0))
        object.__setattr__(self, "theta_right", self.theta_left)

    def magnitude(self, y):
        return np.ones_like(self._clamp(y))

    def theta(self, y):
        return np.full_like(self._clamp(y), self.theta0)

    def theta_deriv(self, y):
        return np.zeros_like(self._clamp(y))


@dataclass(frozen=True)
class MagneticWallField(PlanarField):
    """Zero-field region of length L between misaligned uniform leads.

    The direction is undefined inside the wall; the angle discontinuity at the
    interfaces is handled by the transfer engine through boundary rotations.
    """

    theta_l: float
    theta_r: float
    length: float
    zero_field_interior = True

    def __post_init__(self):
        object.__setattr__(self, "length", float(self.length))
        if not (np.isfinite(self.length) and self.length >= 0.0):
            raise ValueError(f"wall length must be non-negative and finite, got {self.length}")
        object.__setattr__(self, "theta_left", _check_angle("theta_l", self.theta_l))
        object.__setattr__(self, "theta_right", _check_angle("theta_r", self.theta_r))

    def magnitude(self, y):
        y = np.asarray(y, dtype=float)
        inside = (y > 0.0) & (y < self.length)
        return np.where(inside, 0.0, 1.0)

    def theta(self, y):
        y = np.asarray(y, dtype=float)
        if np.any((y > 0.0) & (y < self.length)):
            raise FieldDirectionError("field direction undefined inside the wall")
        return np.where(y <= 0.0, self.theta_left, self.theta_right)

    def theta_deriv(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def components(self, y):
        y = np.asarray(y, dtype=float)
        mag = self.magnitude(y)
        th = np.where(y <= 0.0, self.theta_left, self.theta_right)
        return mag * np.sin(th), mag * np.cos(th)

    def zeeman_term(self, y: float) -> np.ndarray:
        # average the one-sided limits on the exact interface points so that
        # lattice discretizations keep second-order accuracy across the jump
        y = float(y)
        if y == 0.0:
            return 0.5 * zeeman_matrix(np.sin(self.theta_left), np.cos(self.theta_left))
        if y == self.length:
            return 0.5 * zeeman_matrix(np.sin(self.theta_right), np.cos(self.theta_right))
        b1, b3 = self.components(y)
        return zeeman_matrix(float(b1), float(b3))


class TabulatedField(PlanarField):
    """Profile interpolated from (y, b1, b3) samples.

    Components are cubic splines clamped to zero slope at the endpoints, so
    the geometric connection vanishes at the interfaces as the solver
    requires.  The unwrapped angle follows the sampled winding.
    """

    def __init__(self, ys, b1s, b3s):
        ys = np.asarray(ys, dtype=float)
        b1s = np.asarray(b1s, dtype=float)
        b3s = np.asarray(b3s, dtype=float)
        if ys.ndim != 1 or ys.size < 4:
            raise ValueError("need at least 4 samples")
        if not (b1s.shape == b3s.shape == ys.shape):
            raise ValueError("y, b1, b3 must have the same length")
        if not (np.isfinite(ys).all() and np.isfinite(b1s).all() and np.isfinite(b3s).all()):
            # the lead angles are those of the boundary samples
            raise ValueError("profile samples must be finite")
        if np.any(np.diff(ys) <= 0):
            raise ValueError("y samples must be strictly increasing")
        mags = np.hypot(b1s, b3s)
        if abs(mags[0] - 1.0) > 1e-6 or abs(mags[-1] - 1.0) > 1e-6:
            raise ValueError("boundary samples must have lead magnitude 1")
        if np.any(mags < 1e-12):
            raise FieldDirectionError(
                "tabulated profile has |B| = 0 at an interior sample; "
                "zero-field regions are only supported as the built-in wall"
            )
        self.ys = ys - ys[0]
        self.length = float(self.ys[-1])
        self.b1s = b1s
        self.b3s = b3s
        from scipy.interpolate import CubicSpline  # deferred: slow import, needed only here

        self._spl1 = CubicSpline(self.ys, b1s, bc_type="clamped")
        self._spl3 = CubicSpline(self.ys, b3s, bc_type="clamped")
        self._d1 = self._spl1.derivative()
        self._d3 = self._spl3.derivative()
        self._theta_samples = np.unwrap(np.arctan2(b1s, b3s))
        self.theta_left = float(self._theta_samples[0])
        self.theta_right = float(self._theta_samples[-1])

    def magnitude(self, y):
        y = self._clamp(y)
        return np.hypot(self._spl1(y), self._spl3(y))

    def theta(self, y):
        y = self._clamp(y)
        raw = np.arctan2(self._spl1(y), self._spl3(y))
        guide = np.interp(y, self.ys, self._theta_samples)
        return raw + 2.0 * np.pi * np.round((guide - raw) / (2.0 * np.pi))

    def theta_deriv(self, y):
        y = self._clamp(y)
        b1, b3 = self._spl1(y), self._spl3(y)
        num = b3 * self._d1(y) - b1 * self._d3(y)
        return num / (b1 * b1 + b3 * b3)

    def components(self, y):
        y = self._clamp(y)
        return self._spl1(y), self._spl3(y)


def scheme1_field(q1: int, q2: int, length: float) -> Scheme1Field:
    """Profile connecting a +n3 left lead to a -n3 right lead."""
    return Scheme1Field(q1=int(q1), q2=int(q2), length=length)


def scheme2_field(q1: int, q2: int, length: float) -> Scheme2Field:
    """Profile connecting a +n3 left lead to a +n1 right lead."""
    return Scheme2Field(q1=int(q1), q2=int(q2), length=length)


def uniform_field(theta: float, length: float) -> UniformField:
    return UniformField(theta0=theta, length=length)


def magnetic_wall_field(theta_l: float, theta_r: float, length: float) -> MagneticWallField:
    return MagneticWallField(theta_l=theta_l, theta_r=theta_r, length=length)


def load_profile(path) -> TabulatedField:
    """Read a tabulated profile: '# y b1 b3' header, whitespace columns.

    Extra columns beyond the first three are ignored, which lets profile
    dumps round-trip through this loader.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise ValueError(f"profile row needs at least 3 columns: {line!r}")
            rows.append([float(parts[0]), float(parts[1]), float(parts[2])])
    if not rows:
        raise ValueError("profile file contains no samples")
    data = np.asarray(rows, dtype=float)
    return TabulatedField(data[:, 0], data[:, 1], data[:, 2])
