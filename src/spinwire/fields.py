"""Planar Zeeman field profiles along the wire.

A profile lives on [0, L] (the left interface is always at y = 0) and extends
into the leads with the constant boundary values.  The field direction stays
in the plane spanned by two orthonormal axes n1 and n3, so it is fully
described by the magnitude |B(y)| (in units of the lead magnitude B0) and one
*unwrapped* polar angle theta(y) measured from n3.  Keeping theta continuous
instead of tracking per-component sign functions is what makes the winding
profiles well defined.  The paper's two schemes are one class, WindingField:
scheme s = 1 (antiparallel leads) winds by (1 + 2*q2)*pi and s = 2
(orthogonal leads) by (1 + 4*q2)*pi/2, that is n sections of pi/s with
n = 1 + 2*s*q2.

Components:   b1 = |B| sin(theta),  b3 = |B| cos(theta).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FieldDirectionError


class PlanarField:
    """Base class; a field is its magnitude |B|(y) and unwrapped angle theta(y).

    Subclasses provide `magnitude` and `theta`; `components` and
    `basis_theta` derive from them unless a subclass overrides them.

    All evaluation methods accept scalars or arrays of positions.  Positions
    outside [0, L] clamp to the lead values.

    A field does not change after construction: `transfer.segment_plan`
    keeps its plans on it.
    """

    length: float
    theta_left: float
    theta_right: float
    zero_field_interior = False
    # field constant on (0, L), so a piecewise-constant plan is exact at any
    # segment count (see `solve_scattering_batch`)
    constant_interior = False
    # |B|(L - y) = |B|(y) and theta(L - y) = theta_left + theta_right - theta(y), so a
    # plan of even segment count is a palindrome whose product `transfer` builds from its
    # first half; TabulatedField does not claim it, as its samples need not obey it
    mirror_symmetric = False

    def magnitude(self, y):
        raise NotImplementedError

    def theta(self, y):
        raise NotImplementedError

    def basis_theta(self, y):
        """Angle of the eigenbasis the transfer engine carries at y; theta(y) unless overridden."""
        return self.theta(y)

    def components(self, y):
        """Field components (b1, b3) in B0 units."""
        mag = self.magnitude(y)
        th = self.theta(y)
        return mag * np.sin(th), mag * np.cos(th)

    def _clamp(self, y):
        return np.clip(np.asarray(y, dtype=float), 0.0, self.length)


def _check_length(length: float) -> float:
    length = float(length)
    if not (np.isfinite(length) and length > 0.0):
        raise ValueError(f"scattering region length must be positive and finite, got {length}")
    return length


def _check_count(name: str, value) -> int:
    """A whole number >= 0 (1.0 and numpy integers count) as a plain int."""
    if not (value >= 0 and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number >= 0, got {value!r}")
    return int(value)


def _check_angle(name: str, theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"lead angle {name} must be finite, got {theta}")
    return theta


@dataclass(frozen=True)
class WindingField(PlanarField):
    """Winding profile of the paper's two schemes, selected by scheme s in {1, 2}.

    B points along +n3 at the left lead and along -n3 (s = 1, antiparallel
    leads) or +n1 (s = 2, orthogonal leads) at the right lead.  theta winds
    through n = 1 + 2*s*q2 sections of pi/s each, so q2 adds full extra
    windings.  With the phase u = n*pi*y/(s*L) the components are
    |b1| = |sin u|**a and |b3| = |cos u|**b, a = 2 + 2*q1 and b = s + 2*q1:
    q1 sharpens them (the magnetic-wall limit as q1 grows) and |B| never
    vanishes.
    """

    q1: int
    q2: int
    length: float
    scheme: int
    mirror_symmetric = True

    def __post_init__(self):
        if self.scheme not in (1, 2):
            raise ValueError(f"scheme must be 1 or 2, got {self.scheme!r}")
        object.__setattr__(self, "q1", _check_count("q1", self.q1))
        object.__setattr__(self, "q2", _check_count("q2", self.q2))
        object.__setattr__(self, "length", _check_length(self.length))
        object.__setattr__(self, "theta_left", 0.0)
        object.__setattr__(self, "theta_right", self._sections * np.pi / self.scheme)

    @property
    def _sections(self) -> int:
        return 1 + 2 * self.scheme * self.q2

    @property
    def _exponents(self) -> tuple[int, int]:
        return 2 + 2 * self.q1, self.scheme + 2 * self.q1

    def _phase(self, y):
        return self._sections * np.pi * self._clamp(y) / (self.scheme * self.length)

    def magnitude(self, y):
        u = self._phase(y)
        a, b = self._exponents
        return np.hypot(np.abs(np.sin(u)) ** a, np.abs(np.cos(u)) ** b)

    def theta(self, y):
        u = self._phase(y)
        width = np.pi / self.scheme
        start = np.minimum(np.floor(u / width), self._sections) * width
        v = u - start
        a, b = self._exponents
        # within a section sin(v) >= 0 and cos(v)**b carries the sign, so
        # atan2 lands in [0, pi] and the sections chain continuously
        return start + np.arctan2(np.sin(v) ** a, np.cos(v) ** b)


@dataclass(frozen=True)
class UniformField(PlanarField):
    """Constant field of lead magnitude pointing at a fixed angle."""

    theta0: float
    length: float
    constant_interior = True

    def __post_init__(self):
        object.__setattr__(self, "length", _check_length(self.length))
        object.__setattr__(self, "theta_left", _check_angle("theta0", self.theta0))
        object.__setattr__(self, "theta_right", self.theta_left)

    def magnitude(self, y):
        return np.ones_like(self._clamp(y))

    def theta(self, y):
        return np.full_like(self._clamp(y), self.theta0)


@dataclass(frozen=True)
class MagneticWallField(PlanarField):
    """Zero-field region of length L between misaligned uniform leads.

    The direction is undefined inside the wall, so theta raises there.  The
    transfer engine carries the left lead's eigenbasis through the wall and
    rotates it to the right lead's at y = L (`basis_theta`).
    """

    theta_l: float
    theta_r: float
    length: float
    zero_field_interior = True
    constant_interior = True

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

    def basis_theta(self, y):
        return np.where(np.asarray(y, dtype=float) < self.length, self.theta_left, self.theta_right)

    def components(self, y):
        y = np.asarray(y, dtype=float)
        mag = self.magnitude(y)
        th = np.where(y <= 0.0, self.theta_left, self.theta_right)
        return mag * np.sin(th), mag * np.cos(th)


def _clamped_spline(x, values):
    """Coefficients of cubic splines through (x, values) with zero slope at both ends.

    ``values`` holds one spline per row.  The knot slopes solve the C2
    continuity system, which is tridiagonal and diagonally dominant, by a
    Thomas sweep with slope 0 at the first and the last knot.  The result,
    shape (4, rows, n), holds the coefficients of (y - x[i])**3 ... (y - x[i])**0
    on interval i; column n - 1 is the constant extension past x[-1], so the
    spline takes the last sample and slope 0 there exactly.
    """
    h = np.diff(x)
    secant = np.diff(values, axis=1) / h
    # interior knot i, slopes s:
    #   h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1] = 3 (h[i] secant[i-1] + h[i-1] secant[i])
    sub, sup = h[1:].tolist(), h[:-1].tolist()
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    rhs = (3.0 * (h[1:] * secant[:, :-1] + h[:-1] * secant[:, 1:])).tolist()
    m = len(diag)
    for k in range(1, m):
        w = sub[k] / diag[k - 1]
        diag[k] -= w * sup[k - 1]
        for r in rhs:
            r[k] -= w * r[k - 1]
    for r in rhs:
        r[m - 1] /= diag[m - 1]
        for k in range(m - 2, -1, -1):
            r[k] = (r[k] - sup[k] * r[k + 1]) / diag[k]
    slopes = np.zeros_like(values)
    slopes[:, 1:-1] = rhs
    t = (slopes[:, :-1] + slopes[:, 1:] - 2.0 * secant) / h
    coef = np.zeros((4,) + values.shape)
    coef[0, :, :-1] = t / h
    coef[1, :, :-1] = (secant - slopes[:, :-1]) / h - t
    coef[2, :, :-1] = slopes[:, :-1]
    coef[3] = values
    return coef


class TabulatedField(PlanarField):
    """Profile interpolated from (y, b1, b3) samples.

    Components are cubic splines, built in numpy, clamped to zero slope at
    the endpoints, so the field direction does not change at either interface,
    as the solver requires.  The two splines share one interval lookup per
    evaluation.  The unwrapped angle follows the sampled winding.
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
        self._coef = _clamped_spline(self.ys, np.stack([b1s, b3s]))
        self._theta_samples = np.unwrap(np.arctan2(b1s, b3s))
        self.theta_left = float(self._theta_samples[0])
        self.theta_right = float(self._theta_samples[-1])

    def _splines(self, y):
        """(b1, b3) at the clamped y: one interval lookup for both."""
        i = np.searchsorted(self.ys[1:], y, side="right")
        s = y - self.ys[i]
        c0, c1, c2, c3 = np.take(self._coef, i, axis=-1)  # contiguous, unlike [..., i]
        return ((c0 * s + c1) * s + c2) * s + c3

    def magnitude(self, y):
        return np.hypot(*self._splines(self._clamp(y)))

    def theta(self, y):
        y = self._clamp(y)
        b1, b3 = self._splines(y)
        raw = np.arctan2(b1, b3)
        guide = np.interp(y, self.ys, self._theta_samples)
        return raw + 2.0 * np.pi * np.round((guide - raw) / (2.0 * np.pi))

    def components(self, y):
        b1, b3 = self._splines(self._clamp(y))
        return b1, b3


def scheme1_field(q1: int, q2: int, length: float) -> WindingField:
    """Profile connecting a +n3 left lead to a -n3 right lead."""
    return WindingField(q1=q1, q2=q2, length=length, scheme=1)


def scheme2_field(q1: int, q2: int, length: float) -> WindingField:
    """Profile connecting a +n3 left lead to a +n1 right lead."""
    return WindingField(q1=q1, q2=q2, length=length, scheme=2)


def uniform_field(theta: float, length: float) -> UniformField:
    """Field of the lead magnitude at the constant angle theta on [0, length]."""
    return UniformField(theta0=theta, length=length)


def magnetic_wall_field(theta_l: float, theta_r: float, length: float) -> MagneticWallField:
    """Zero-field interior of the given length between leads at angles theta_l and theta_r."""
    return MagneticWallField(theta_l=theta_l, theta_r=theta_r, length=length)


def load_profile(path) -> TabulatedField:
    """Read a tabulated profile: whitespace columns y b1 b3, one sample a row.

    '#' starts a comment and blank lines are skipped.  Columns beyond the
    third are ignored, so a `dump-profile` table reads back; a row with fewer
    than three columns, or a file with no rows, raises ValueError.
    """
    with warnings.catch_warnings():
        # an empty file: TabulatedField refuses its zero samples with a ValueError
        warnings.simplefilter("ignore", UserWarning)
        ys, b1s, b3s = np.loadtxt(path, comments="#", usecols=(0, 1, 2), ndmin=2, unpack=True)
    return TabulatedField(ys, b1s, b3s)
