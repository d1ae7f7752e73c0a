"""Piecewise-constant construction of the 4x4 generalized transfer matrix.

The scattering region is split into N equal segments.  Each segment propagates
the channel amplitudes and their derivatives with the matrix function

    D_L(Q) = [[cos(sqrt(Q) L),            sin(sqrt(Q) L)/sqrt(Q)],
              [-sqrt(Q) sin(sqrt(Q) L),   cos(sqrt(Q) L)        ]]

evaluated spectrally (cos -> cosh on negative eigenvalues, so evanescent
segments grow hyperbolically), and each segment boundary contributes a
block-diagonal eigenbasis rotation.  Larger-y factors multiply on the left.
Every factor preserves the symplectic form J, so the full product does too up
to roundoff; that discrete conservation law is what makes the scattering
matrices downstream flux-unitary.

For real energies every factor is real (cos(sqrt(q) L) and
sin(sqrt(q) L)/sqrt(q) are entire in q, and the rotations are real), so the
product is accumulated in float64.  The propagator entries are still evaluated
in complex arithmetic and their zero imaginary parts dropped.  That keeps every
bit of the complex128 product it replaced.  Real cos/cosh, sin/sinh and
division round differently, and on the unstabilised product that rounding
matters: with them a scheme2 wire of length 20 at E = -0.35 (4096 segments)
failed flux unitarity where the complex evaluation passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import J4, EvanescentOverflowError, hs_norm
from .berry import planar_rotation
from .fields import PlanarField

GROWTH_GUARD = 60.0  # refuse builds whose evanescent growth exceeds exp(60)
_BLOCK_BYTES = 1 << 20  # one block of factors, small enough to stay in L2 cache

# A factor's entry [2a + i, 2b + j] is u[i, j] * P[a][b][j], with u the
# eigenbasis rotation, P = [[c, s], [ms, c]] the propagator pieces and j the
# channel.  With the pieces stacked as rows 2k + j for k = (c, s, ms), these
# pick u's flat entry and the piece row of each of the 16 entries in turn.
_ROTATION_INDEX = np.array([2 * i + j for a, i, b, j in np.ndindex(2, 2, 2, 2)])
_PIECE_INDEX = np.array([2 * ((0, 1), (2, 0))[a][b] + j for a, i, b, j in np.ndindex(2, 2, 2, 2)])


def _propagator_entries(q, length: float):
    """Real scalar pieces (cos, sin/sqrt, -q*sin/sqrt) of D for real eigenvalue(s) q.

    Uses the Im >= 0 square-root branch; since cos and sin(x)/x are even in
    sqrt(q), negative eigenvalues turn into hyperbolic growth automatically.
    Each piece is the real part of its complex evaluation (see the module
    docstring); the small-|sqrt(q) L| series is evaluated only where it
    applies.  The fourth piece is the evanescent growth |Im sqrt(q)| * length.
    """
    q = np.asarray(q, dtype=float)
    z = np.sqrt(q.astype(complex))
    zl = z * length
    small = np.abs(zl) < 1e-4
    s = (np.sin(zl) / np.where(small, 1.0, z)).real
    if small.any():
        zl2 = zl[small] * zl[small]
        s[small] = (length * (1.0 - zl2 / 6.0 + zl2 * zl2 / 120.0)).real
    return np.cos(zl).real, s, -q * s, np.abs(zl.imag)


@dataclass(frozen=True)
class SegmentPlan:
    """Precomputed, energy-independent data for one piecewise build."""

    n_segments: int
    seg_length: float
    magnitudes: np.ndarray  # (N,) field magnitude at segment midpoints
    jump_angles: np.ndarray  # (N+1,) in-plane angle step at each crossing
    jumps: np.ndarray  # (N+1, 2, 2) real eigenbasis rotations at the crossings
    theta_total: float  # total winding, equals sum of the jump angles

    @property
    def total_rotation(self) -> np.ndarray:
        return planar_rotation(self.theta_total)


def segment_plan(field: PlanarField, n_segments: int) -> SegmentPlan:
    """Split the region into equal segments with midpoint-sampled field data.

    The eigenbasis rotation between consecutive midpoint directions sits at
    the shared segment boundary; the first and last crossings connect to the
    lead directions.  A zero-field interior has no eigenbasis of its own: it
    inherits the left-lead basis and the full lead-to-lead rotation sits on
    the right interface.
    """
    n_segments = int(n_segments)
    if n_segments < 1:
        raise ValueError("need at least one segment")
    h = field.length / n_segments
    angles = np.zeros(n_segments + 1)
    if field.zero_field_interior:
        mags = np.zeros(n_segments)
        angles[-1] = field.theta_right - field.theta_left
    else:
        mids = (np.arange(n_segments) + 0.5) * h
        th = np.asarray(field.theta(mids), dtype=float)
        mags = np.asarray(field.magnitude(mids), dtype=float)
        angles[0] = th[0] - field.theta_left
        angles[1:-1] = np.diff(th)
        angles[-1] = field.theta_right - th[-1]
    half = 0.5 * angles
    jumps = np.zeros((n_segments + 1, 2, 2))
    jumps[:, 0, 0] = jumps[:, 1, 1] = np.cos(half)
    jumps[:, 1, 0] = np.sin(half)
    jumps[:, 0, 1] = -np.sin(half)
    return SegmentPlan(
        n_segments=n_segments,
        seg_length=h,
        magnitudes=mags,
        jump_angles=angles,
        jumps=jumps,
        theta_total=float(field.theta_right - field.theta_left),
    )


def _ordered_product(plan: SegmentPlan, energies: np.ndarray) -> np.ndarray:
    """Batched transfer product over all segments of the plan, in float64.

    The product is real for real energies.  Its entries come from complex
    evaluation (see the module docstring), so it equals the complex128
    product of the same factors bit for bit.  The factors of each block of
    segments are built in one vectorised pass into a buffer reused across
    blocks; only the left multiplication runs per segment.  The association
    is that of a plain per-segment loop, so the result does not depend on the
    block size.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    n_e = energies.shape[0]
    gamma = np.zeros((n_e, 4, 4))
    gamma[:, :2, :2] = plan.jumps[0]
    gamma[:, 2:, 2:] = plan.jumps[0]
    growth = np.zeros(n_e)
    block = max(1, _BLOCK_BYTES // (max(n_e, 1) * 16 * 8))  # 16 float64 per factor
    factors = np.empty((block, n_e, 16))
    for j0 in range(0, plan.n_segments, block):
        j1 = min(j0 + block, plan.n_segments)
        nb = j1 - j0
        mags = plan.magnitudes[j0:j1, None]
        q = np.stack([energies + mags, energies - mags])  # (channel, segment, energy)
        c, s, ms, kappa = _propagator_entries(q, plan.seg_length)
        # running growth summed in segment order; it never decreases, so
        # testing the block's last row catches any crossing inside the block
        steps = np.maximum(kappa[0], kappa[1])
        steps[0] += growth
        growth = np.cumsum(steps, axis=0)[-1]
        if growth.max() > GROWTH_GUARD:
            raise EvanescentOverflowError(
                f"evanescent growth exceeds exp({GROWTH_GUARD:g}); "
                "region too long for this energy"
            )
        pieces = np.stack([c, s, ms]).reshape(6, nb, n_e)
        u = plan.jumps[j0 + 1 : j1 + 1].reshape(nb, 1, 4)
        np.multiply(
            pieces[_PIECE_INDEX].transpose(1, 2, 0), u[..., _ROTATION_INDEX], out=factors[:nb]
        )
        for factor in factors[:nb].reshape(nb, n_e, 4, 4):
            gamma = factor @ gamma
    return gamma


@dataclass(frozen=True)
class TransferMatrix4:
    """Generalized transfer matrix and its geometry-stripped counterpart."""

    gamma: np.ndarray
    gamma_tilde: np.ndarray
    berry: np.ndarray  # full-interval eigenbasis transport
    energy: float
    n_segments: int


def gamma_piecewise_batch(
    field: PlanarField,
    energies,
    n_segments: int,
    plan: SegmentPlan | None = None,
):
    """Transfer matrices for many energies at once.

    Returns (gamma, gamma_tilde) with shape (n_energies, 4, 4), gamma real
    and gamma_tilde complex, plus the full-interval transport matrix shared by
    all energies.
    """
    if plan is None:
        plan = segment_plan(field, n_segments)
    gamma = _ordered_product(plan, energies)
    berry = plan.total_rotation
    gamma_tilde = np.einsum("ij,ejk->eik", _diag4(berry.conj().T), gamma)
    return gamma, gamma_tilde, berry


def _diag4(u: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = u
    out[2:, 2:] = u
    return out


def gamma_piecewise(field: PlanarField, energy: float, n_segments: int) -> TransferMatrix4:
    """Build the transfer matrix of a field at one energy with N segments."""
    gamma, gamma_tilde, berry = gamma_piecewise_batch(field, [float(energy)], n_segments)
    return TransferMatrix4(
        gamma=gamma[0],
        gamma_tilde=gamma_tilde[0],
        berry=berry,
        energy=float(energy),
        n_segments=int(n_segments),
    )


def flow_defect(gamma_tilde: np.ndarray) -> float:
    """Deviation of gamma_tilde from preserving the symplectic form J.

    It is the absolute Hilbert-Schmidt norm of gamma_tilde^dag J gamma_tilde - J.
    Once a channel is evanescent the entries of gamma_tilde grow, and rounding
    alone makes this norm grow like eps * |gamma_tilde|^2.  It therefore bounds
    the rounding of the product only above the upper band (E > 1).  Below it a
    correct product can read large: scheme1 at L = 10, E = -0.95 reads 1.4e-4
    on a result within 7e-8 of the lattice oracle.
    """
    return hs_norm(gamma_tilde.conj().T @ J4 @ gamma_tilde - J4)
