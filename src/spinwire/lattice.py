"""Independent tight-binding oracle for the scattering problem.

Used only for validation.  The wire is discretized on a uniform grid with
hopping 1/a^2; semi-infinite leads are handled by matching the interior
wavefunction onto exact lead Bloch modes at the two boundaries (no Green's
function machinery).  This module deliberately avoids every solver code path
of the transfer engine; it shares only the core substrate, the field profile,
and the result container, so agreement with the engine is a genuine
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    E_LOWER,
    E_UPPER,
    ChannelMismatchError,
    ThresholdError,
    planar_spinors,
    scattering_channel,
    zeeman_matrix,
)
from .fields import PlanarField
from .scattering import ScatterResult, build_result


_MAX_OPEN_KA = 0.5  # accuracy guard for open channels


@dataclass(frozen=True)
class Lattice:
    """Discretized scattering region; leads continue as exact Bloch modes."""

    spacing: float
    ys: np.ndarray  # site positions spanning [0, L]
    onsite: np.ndarray  # (n_sites, 2, 2) Zeeman matrices in the fixed basis


def build_lattice(field: PlanarField, spacing: float) -> Lattice:
    """On-site Zeeman matrices of the field on round(L / spacing) >= 8 equal cells of [0, L]."""
    if not (np.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"lattice spacing must be positive and finite, got {spacing}")
    n_cells = int(round(field.length / spacing))
    if n_cells < 8:
        raise ValueError("spacing too coarse: fewer than 8 cells across the region")
    a = field.length / n_cells
    ys = np.arange(n_cells + 1) * a
    onsite = zeeman_matrix(*field.components(ys))
    # the end sites are evaluated at exactly 0 and L: ys[-1] can miss L by an
    # ulp, which inside a wall lands on the zero field.  A wall's field jumps
    # at both ends, and the mean of its one-sided limits keeps the lattice
    # second-order accurate across the jump.
    for site, y in ((0, 0.0), (-1, field.length)):
        end = zeeman_matrix(*field.components(y))
        onsite[site] = 0.5 * end if field.zero_field_interior else end
    return Lattice(spacing=a, ys=ys, onsite=onsite)


def lattice_wavenumbers(energy: float, spacing: float) -> tuple[complex, complex]:
    """Per-channel lead momenta from the lattice dispersion 2(1-cos ka)/a^2.

    Raises exactly on a band edge, when the lattice and continuum disagree
    about which channels are open, or when an open channel is too poorly
    resolved (ka >= 0.5).
    """
    ks = []
    for band in (E_LOWER, E_UPPER):
        x = energy - band
        if x == 0.0:
            raise ThresholdError(f"E={energy} sits on the band edge at {band}")
        if x > 0.0:
            # continuum channel is open; the lattice band must reach it
            if x >= 4.0 / spacing**2:
                raise ChannelMismatchError(
                    "lattice band too narrow for this energy; reduce the spacing"
                )
            ka = 2.0 * np.arcsin(0.5 * spacing * np.sqrt(x))
            if ka >= _MAX_OPEN_KA:
                raise ChannelMismatchError(
                    f"open channel resolved with ka={ka:.3f} >= {_MAX_OPEN_KA}; "
                    "reduce the spacing"
                )
            ks.append(complex(ka / spacing))
        else:
            kappa = 2.0 * np.arcsinh(0.5 * spacing * np.sqrt(-x)) / spacing
            ks.append(1j * kappa)
    return ks[0], ks[1]


def _bloch_projector(spinors, lambdas) -> np.ndarray:
    out = np.zeros((2, 2), dtype=complex)
    for chi, lam in zip(spinors, lambdas):
        out += lam * np.outer(chi, chi.conj())
    return out


def fd_scattering(field: PlanarField, energy: float, spacing: float) -> ScatterResult:
    """Scattering matrices from the tight-binding wire at one energy.

    Solves the bounded linear system for the scattering state with unit
    incoming amplitude in each channel, then normalizes amplitudes with the
    lattice group velocities 2 sin(ka)/a so flux unitarity is exact on the
    lattice.
    """
    ch = scattering_channel(energy)
    lat = build_lattice(field, spacing)
    a = lat.spacing
    k_lat = lattice_wavenumbers(energy, a)
    lam = np.exp(1j * np.array(k_lat, dtype=complex) * a)
    chi_l = planar_spinors(field.theta_left)
    chi_r = planar_spinors(field.theta_right)

    n_sites = lat.ys.size
    nd = 2 * n_sites
    inv_a2 = 1.0 / a**2
    # banded system, bandwidth 2 after flattening the spin index
    ab = np.zeros((5, nd), dtype=complex)
    diag = np.empty(nd, dtype=complex)
    diag[0::2] = 2.0 * inv_a2 - energy + lat.onsite[:, 0, 0]
    diag[1::2] = 2.0 * inv_a2 - energy + lat.onsite[:, 1, 1]
    sup1 = np.zeros(nd - 1, dtype=complex)
    sub1 = np.zeros(nd - 1, dtype=complex)
    sup1[0::2] = lat.onsite[:, 0, 1]
    sub1[0::2] = lat.onsite[:, 1, 0]

    lam_l = _bloch_projector(chi_l, lam)
    lam_r = _bloch_projector(chi_r, lam)
    diag[0] -= inv_a2 * lam_l[0, 0]
    diag[1] -= inv_a2 * lam_l[1, 1]
    sup1[0] -= inv_a2 * lam_l[0, 1]
    sub1[0] -= inv_a2 * lam_l[1, 0]
    diag[-2] -= inv_a2 * lam_r[0, 0]
    diag[-1] -= inv_a2 * lam_r[1, 1]
    sup1[-1] -= inv_a2 * lam_r[0, 1]
    sub1[-1] -= inv_a2 * lam_r[1, 0]

    ab[0, 2:] = -inv_a2
    ab[1, 1:] = sup1
    ab[2, :] = diag
    ab[3, :-1] = sub1
    ab[4, :-2] = -inv_a2

    rhs = np.zeros((nd, 2), dtype=complex)
    for inc in range(2):
        source = (1.0 / lam[inc] - lam[inc]) * chi_l[inc]
        rhs[0:2, inc] = inv_a2 * source
    from scipy.linalg import solve_banded  # deferred: slow import, needed only here

    psi = solve_banded((2, 2), ab, rhs)

    psi_0 = psi[0:2, :]
    psi_m = psi[-2:, :]
    velocity = 2.0 * np.sin(np.array(k_lat, dtype=complex) * a) / a
    t = np.empty((2, 2), dtype=complex)
    r = np.empty((2, 2), dtype=complex)
    for out in range(2):
        for inc in range(2):
            scale = np.sqrt(velocity[out] / velocity[inc])
            refl = np.vdot(chi_l[out], psi_0[:, inc]) - (1.0 if out == inc else 0.0)
            tran = np.vdot(chi_r[out], psi_m[:, inc]) * np.exp(-1j * k_lat[out] * field.length)
            r[out, inc] = refl * scale
            t[out, inc] = tran * scale
    return build_result(t, r, ch, n_segments=n_sites - 1)
