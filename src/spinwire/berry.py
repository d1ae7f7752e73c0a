"""Geometric (Wilson-line) part of the transfer problem.

Three independent routes compute the same unitary that transports the local
Zeeman eigenbasis along the wire:

* the planar closed form, a rotation by half the unwrapped angle difference;
* an ordered product of eigenbasis overlap matrices over a sampled path;
* the single boundary-overlap matrix, which for two-level systems depends on
  the endpoint directions only.

The engine always uses the winding-aware planar form.  The overlap routes fix
the spinor gauge from the direction vectors alone, so they agree with the
planar form only up to a global sign once the path winds past the principal
range (spinor double cover); products are compared after sign alignment.
"""

from __future__ import annotations

import numpy as np

from .fields import PlanarField

_ANTIPODAL_TOL = 1e-12


def planar_rotation(delta_theta) -> np.ndarray:
    """Eigenbasis transport for an in-plane direction change delta_theta.

    A real rotation by delta_theta / 2 acting on the (lower, upper) channel
    pair; windings beyond 2*pi flip the overall sign, as spinors require.
    An array of angles gives a stack of rotations of shape (..., 2, 2).
    """
    half = 0.5 * np.asarray(delta_theta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    return np.moveaxis(np.array([[c, -s], [s, c]], dtype=complex), (0, 1), (-2, -1))


def berry_operator_planar(field: PlanarField, y1: float, y2: float) -> np.ndarray:
    """Transport operator from y1 to y2 for a planar field (closed form).

    It rotates between the eigenbases `PlanarField.basis_theta` carries at the
    two ends.  y1 = 0 is the left interface and starts from the left lead's
    angle, as the engine's plan does, so a zero-length wall keeps its jump.
    """
    if not (0.0 <= y1 <= y2 <= field.length):
        raise ValueError("need 0 <= y1 <= y2 <= length")
    th1 = float(field.basis_theta(y1)) if y1 > 0.0 else field.theta_left
    return planar_rotation(float(field.basis_theta(y2)) - th1)


def unit_direction(direction) -> np.ndarray:
    """The direction as a float 3-vector, refused unless its norm is 1 to within 1e-6."""
    n = np.asarray(direction, dtype=float)
    # written so that a NaN norm fails the test
    if n.shape != (3,) or not abs(np.linalg.norm(n) - 1.0) <= 1e-6:
        raise ValueError("direction must be a unit 3-vector")
    return n


def spin_eigenvectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) Zeeman eigenspinors for a unit 3-vector (n1, n2, n3).

    Standard spin-coherent gauge: polar angle from n3, azimuth from n1 toward
    n2, phases fixed so the north-pole spinors are real non-negative.
    """
    n = unit_direction(direction)
    n = n / np.linalg.norm(n)
    polar = np.arccos(np.clip(n[2], -1.0, 1.0))
    azimuth = np.arctan2(n[1], n[0]) if np.hypot(n[0], n[1]) > 1e-300 else 0.0
    c, s = np.cos(polar / 2.0), np.sin(polar / 2.0)
    phase = np.exp(1j * azimuth)
    upper = np.array([c, s * phase], dtype=complex)
    lower = np.array([-s / phase, c], dtype=complex)
    return lower, upper


def is_antipodal(n_a, n_b) -> bool:
    """Whether two unit directions are opposite, where the overlap gauge is undefined."""
    return float(np.dot(n_a, n_b)) < -1.0 + _ANTIPODAL_TOL


def _overlap(n_from, n_to) -> np.ndarray:
    lo_f, up_f = spin_eigenvectors(n_from)
    lo_t, up_t = spin_eigenvectors(n_to)
    u = np.empty((2, 2), dtype=complex)
    u[0, 0] = np.vdot(lo_t, lo_f)
    u[0, 1] = np.vdot(lo_t, up_f)
    u[1, 0] = np.vdot(up_t, lo_f)
    u[1, 1] = np.vdot(up_t, up_f)
    return u


def berry_operator_overlap(n_left, n_right) -> np.ndarray:
    """Boundary-only transport operator [U]_{l'l} = <phi_l'(nR) | phi_l(nL)>.

    Exact for quenches between non-antipodal directions; equals the planar
    closed form up to the double-cover sign.
    """
    n_left, n_right = unit_direction(n_left), unit_direction(n_right)
    if is_antipodal(n_left, n_right):
        raise ValueError(
            "antipodal boundary directions leave the overlap gauge undefined; "
            "use the planar closed form with an explicit winding"
        )
    return _overlap(n_left, n_right)


def berry_operator_segmented(directions) -> np.ndarray:
    """Ordered product of step overlaps along a sampled direction path.

    Later steps multiply on the left.  Consecutive antipodal samples are
    rejected; refine the path instead.
    """
    dirs = [unit_direction(d) for d in directions]
    if len(dirs) < 2:
        raise ValueError("need at least two directions")
    u = np.eye(2, dtype=complex)
    for n_from, n_to in zip(dirs[:-1], dirs[1:]):
        if is_antipodal(n_from, n_to):
            raise ValueError("consecutive antipodal directions in segmented path")
        u = _overlap(n_from, n_to) @ u
    return u


def planar_direction(theta) -> np.ndarray:
    """Unit 3-vector (n1, n2, n3 components) at in-plane angle theta.

    An array of angles gives a stack of directions of shape (..., 3).
    """
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)


def field_directions(field: PlanarField, n_points: int) -> np.ndarray:
    """Direction samples at n_points + 1 equally spaced stations on [0, L]."""
    return planar_direction(field.theta(np.linspace(0.0, field.length, n_points + 1)))


def align_sign(u: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip the global sign of u to best match the reference matrix."""
    overlap = np.real(np.sum(np.conj(reference) * u))
    return -u if overlap < 0.0 else u
