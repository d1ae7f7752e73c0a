"""Closed-form and asymptotic solvers for the analytically tractable regimes.

These serve both as fast paths and as independent references for the
piecewise engine: the infinite-energy limit (transmission becomes the pure
eigenbasis transport), the abrupt-interface (delta-wall) limit, and the
zero-field magnetic wall solved by direct wavefunction matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SingularSystemError,
    planar_spinors,
    scattering_channel,
    wavenumber,
)
from .berry import (
    berry_operator_overlap,
    berry_operator_planar,
    is_antipodal,
    planar_rotation,
    unit_direction,
)
from .fields import MagneticWallField, PlanarField
from .scattering import ScatterResult, build_result


def high_energy_t(field: PlanarField) -> np.ndarray:
    """Transmission matrix in the limit where the energy dwarfs the Zeeman gap.

    Equals the full-interval eigenbasis transport; reflection vanishes in the
    same limit.  Useful once E is large compared to the maximal local gap.
    """
    return berry_operator_planar(field, 0.0, field.length)


def delta_wall_scattering(n_left, n_right, energy: float) -> ScatterResult:
    """Closed-form scattering of an abrupt lead-direction change (L -> 0).

    r = (M - 1)(M + 1)^-1 and t = 2 W^-1 U W (M + 1)^-1 with
    M = W U^dag W^-2 U W; with two open channels M is Hermitian and so is the
    reflection matrix.  Antipodal lead pairs fall back to the planar transport
    with a half-turn winding, where the boundary-overlap gauge is undefined.
    """
    ch = scattering_channel(energy)
    n_left, n_right = unit_direction(n_left), unit_direction(n_right)
    if is_antipodal(n_left, n_right):
        u = planar_rotation(np.pi)
    else:
        u = berry_operator_overlap(n_left, n_right)
    w = np.diag([1.0, np.sqrt(ch.k1 / ch.k0)]).astype(complex)
    winv = np.diag([1.0, np.sqrt(ch.k0 / ch.k1)]).astype(complex)
    winv2 = winv @ winv
    m = w @ u.conj().T @ winv2 @ u @ w
    core = np.linalg.inv(m + np.eye(2))
    r = (m - np.eye(2)) @ core
    t = 2.0 * winv @ u @ w @ core
    return build_result(t, r, ch, n_segments=0)


@dataclass(frozen=True)
class WallConfig:
    """Zero-field wall of given length between leads at two in-plane angles."""

    theta_l: float
    theta_r: float
    length: float
    energy: float


def magnetic_wall_scattering(cfg: WallConfig) -> ScatterResult:
    """Exact wall solution by matching the spinor and its derivative.

    Plane waves at the lead wave vectors meet a spin-degenerate interior at
    momentum sqrt(E) (evanescent below E = 0).  The interior is parametrized
    by its boundary value and slope, which keeps the 8x8 system regular even
    for L = 0 and at the interior band bottom.
    """
    ch = scattering_channel(cfg.energy)
    # refuses a negative or non-finite length and non-finite angles
    MagneticWallField(cfg.theta_l, cfg.theta_r, cfg.length)
    k = np.array([ch.k0, ch.k1], dtype=complex)
    chi_l = planar_spinors(cfg.theta_l)
    chi_r = planar_spinors(cfg.theta_r)
    # interior propagation written in terms of the boundary value and slope,
    # entire in the energy (no division by the interior momentum)
    k_in = complex(wavenumber(cfg.energy))
    kl = k_in * cfg.length
    c_in = np.cos(kl)
    if abs(kl) < 1e-6:
        s_in = cfg.length * (1.0 - kl * kl / 6.0)
    else:
        s_in = np.sin(kl) / k_in
    ms_in = -cfg.energy * s_in

    mat = np.zeros((8, 8), dtype=complex)
    rhs = np.zeros((8, 2), dtype=complex)
    # unknowns: [R0, R1, p_up, p_dn, m_up, m_dn, T0, T1]
    for ell in range(2):
        mat[0:2, ell] = chi_l[ell]
        mat[2:4, ell] = -1j * k[ell] * chi_l[ell]
        phase = np.exp(1j * k[ell] * cfg.length)
        mat[4:6, 6 + ell] = -phase * chi_r[ell]
        mat[6:8, 6 + ell] = -1j * k[ell] * phase * chi_r[ell]
    mat[0:2, 2:4] = -np.eye(2)
    mat[2:4, 4:6] = -np.eye(2)
    mat[4:6, 2:4] = c_in * np.eye(2)
    mat[4:6, 4:6] = s_in * np.eye(2)
    mat[6:8, 2:4] = ms_in * np.eye(2)
    mat[6:8, 4:6] = c_in * np.eye(2)
    for inc in range(2):
        rhs[0:2, inc] = -chi_l[inc]
        rhs[2:4, inc] = -1j * k[inc] * chi_l[inc]
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"wall matching singular at E={cfg.energy}") from exc

    t = np.empty((2, 2), dtype=complex)
    r = np.empty((2, 2), dtype=complex)
    for out in range(2):
        for inc in range(2):
            scale = np.sqrt(k[out] / k[inc])
            r[out, inc] = sol[out, inc] * scale
            t[out, inc] = sol[6 + out, inc] * scale
    return build_result(t, r, ch, n_segments=0)
