"""Numerical substrate shared by every solver: units, wave vectors, channels.

Everything is nondimensionalized.  Energies are measured in units of the
Zeeman half-gap of the leads, lengths in units of the magnetic length
``sqrt(hbar^2 / (2 m E_Z))``.  In these units ``hbar^2 / 2m = 1`` and the two
spin-split band bottoms in the leads sit at -1 (lower channel, index 0) and
+1 (upper channel, index 1).  Channel index 0 always refers to the locally
lower Zeeman eigenstate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

E_LOWER = -1.0  # band bottom of the lower spin channel in the leads
E_UPPER = +1.0  # band bottom of the upper spin channel
# how far a sweep grid moves an energy up off a band edge; E_LOWER + EDGE_NUDGE
# is the lowest energy a sweep grid holds
EDGE_NUDGE = 1e-9

# Symplectic form preserved by the dynamical part of the transfer matrix;
# its conservation is what guarantees flux unitarity of the scattering matrix.
J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]).astype(complex)


class RegimeError(ValueError):
    """The requested operation is not defined in this channel regime."""


class ThresholdError(RegimeError):
    """Energy sits exactly on a band edge where a wave vector vanishes."""


class FieldDirectionError(ValueError):
    """The field magnitude vanishes where a direction is required."""


class SingularSystemError(ArithmeticError):
    """A boundary-matching linear system is exactly singular."""


class EvanescentOverflowError(ArithmeticError):
    """Evanescent growth across the region exceeds the double-precision guard."""


class ChannelMismatchError(ArithmeticError):
    """The lattice spacing is too coarse for the energy: a numeric failure, not a bad input.

    The lattice band misses a channel the continuum opens, or resolves it too
    poorly; a finer spacing cures it.
    """


class Regime(enum.Enum):
    """Channel regime of an energy that scatters: both lead channels open, or the lower one only."""

    TWO_CHANNEL = "two_channel"
    SINGLE_CHANNEL = "single_channel"


@dataclass(frozen=True)
class ChannelData:
    """Wave vectors and channel regime at one injection energy."""

    energy: float
    k0: complex
    k1: complex
    regime: Regime


def wavenumber(x):
    """sqrt with the branch Im >= 0, so evanescent waves decay to the right."""
    x = np.asarray(x, dtype=float)
    pos = np.sqrt(np.clip(x, 0.0, None)).astype(complex)
    neg = 1j * np.sqrt(np.clip(-x, 0.0, None))
    return pos + neg


def energy_batch(energies) -> np.ndarray:
    """A batch of energies as a non-empty 1-D float64 array; one scalar is a batch of one."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if energies.ndim != 1 or energies.size == 0:
        raise ValueError(f"energies must be a non-empty 1-D batch, got shape {energies.shape}")
    return energies


def scattering_channels(energies) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lead wave vectors of a batch of energies that scatter: above E = -1 and on neither band edge.

    This is the one gate that decides whether an energy scatters, and in which
    regime.  It returns the batch as float64 energies (n,), wave vectors
    ``k`` (n, 2) with ``k_l = sqrt(E - E_l)`` on the decaying branch
    (Im k >= 0), and the mask (n,) of the two-channel energies.  The
    band-edge test is exact: next to an edge a float64 energy still has
    |k| >= 1.05e-8, so only k == 0 itself is refused.  A batch with an energy
    that does not scatter is refused with the error of its first such energy,
    in batch order.
    """
    energies = energy_batch(energies)
    finite = np.isfinite(energies)
    safe = np.where(finite, energies, 0.0)
    k = wavenumber(safe[:, None] - np.array([E_LOWER, E_UPPER]))
    # band-edge ties belong to the lower regime: E = +1 has one open channel, E = -1 none
    closed = safe <= E_LOWER
    refused = ~finite | closed | (k[:, 1] == 0)
    if refused.any():
        i = int(refused.argmax())
        energy = float(energies[i])
        if not finite[i]:
            raise ValueError("energy must be finite")
        if closed[i]:
            raise RegimeError(f"E={energy} is below both bands; nothing scatters")
        raise ThresholdError(f"E={energy} sits on a band edge; nudge the energy off the threshold")
    return energies, k, safe > E_UPPER


def channel_at(channels, i: int) -> ChannelData:
    """The ChannelData of energy i of a batch's `scattering_channels` arrays."""
    energies, k, two_channel = channels
    regime = Regime.TWO_CHANNEL if two_channel[i] else Regime.SINGLE_CHANNEL
    return ChannelData(float(energies[i]), complex(k[i, 0]), complex(k[i, 1]), regime)


def scattering_channel(energy: float) -> ChannelData:
    """Lead wave vectors of one energy that scatters; see `scattering_channels`."""
    return channel_at(scattering_channels([float(energy)]), 0)


def hs_norm(a: np.ndarray) -> np.floating | np.ndarray:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr[A A^dag]); a stack (..., m, n) gives one per matrix."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def hs_distance(a: np.ndarray, b: np.ndarray) -> np.floating | np.ndarray:
    """Hilbert-Schmidt distance sqrt(Tr[(A-B)(A-B)^dag]); stacks broadcast and give one per matrix."""
    return hs_norm(np.asarray(a) - np.asarray(b))


def planar_spinors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Zeeman eigenspinors of a field at polar angle theta in the n1-n3 plane.

    Components are given in the fixed (up, down) basis along n3.  The returned
    pair is (lower-energy, higher-energy); the lower state is anti-aligned with
    the field.  The angle is the *unwrapped* one, so theta and theta + 2*pi
    give opposite spinor signs (double cover).
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    phi0 = np.array([-s, c], dtype=complex)
    phi1 = np.array([c, s], dtype=complex)
    return phi0, phi1


def zeeman_matrix(b1, b3) -> np.ndarray:
    """Zeeman term b1*sigma_x + b3*sigma_z in the fixed (up, down) basis.

    Arrays of components give a stack of matrices of shape (..., 2, 2).
    """
    b1, b3 = np.broadcast_arrays(b1, b3)
    return np.moveaxis(np.array([[b3, b1], [b1, -b3]], dtype=complex), (0, 1), (-2, -1))
