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
product is accumulated in float64.  The propagator entries keep every bit of
the complex128 evaluation (Im >= 0 branch of sqrt(q)) they replaced.  With
y = sqrt(|q|) and x = y L, an open channel (q >= 0) is evaluated in real
arithmetic: cos(x), and sin(x) multiplied by 1/y, since numpy's complex
division by a number with a zero imaginary part multiplies by its reciprocal.
A closed channel (q < 0) keeps the complex cos and sin of i x, evaluated on
the closed entries only: numpy's real cosh and sinh each differ from them
in the last bit on about a quarter of the closed entries of a sweep.  The
naive real build (cos/cosh, sin/sinh and a true division) is not used.  Its
bits differ, and on the unstabilised product that rounding matters: with it
a scheme2 wire of length 20 at E = -0.35 (4096 segments) failed flux
unitarity where the complex evaluation passes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import J4, EvanescentOverflowError, energy_batch, hs_norm
from .berry import planar_rotation
from .fields import PlanarField

GROWTH_GUARD = 60.0  # refuse builds whose evanescent growth exceeds exp(60)
# A block of factors holds at most _BLOCK_BYTES (so it stays in L2 cache) and at
# most _BLOCK_ROWS segments.  The row cap binds below 33 energies: a one-energy
# block's temporaries then stay in cache and under glibc's mmap and trim
# thresholds, so the heap top is not handed back and re-faulted on every call,
# and the gather-multiply that builds a block costs about 2.5x less per row
# than in one 4096-row block.  Larger batches keep the byte budget (27 rows at
# 300 energies).
_BLOCK_BYTES = 1 << 20
_BLOCK_ROWS = 256
# Fewest energies a thread's chunk of a batch may hold (see _ordered_product).
# Two threads against one on an otherwise idle 2-vCPU machine, 4096-segment
# scheme1 plan:
#   energies   20     32     48     96         192        256        600
#   speed-up   0.75x  0.82x  1.16x  0.87-1.07x 0.99-1.23x 1.20-1.50x 1.52-1.75x
# The split breaks even near 48 energies per chunk; 128 keeps a margin for
# machines with more cores, whose threads share the GIL in every segment step.
_MIN_CHUNK_ENERGIES = 128
# Fewest segments a plan must have for a batch to be split at all: a thin
# plan gives each thread too little work for the pool to pay for itself.
# Two threads against one on a 2-vCPU machine, 600 energies, scheme1 plan:
#   segments   1     16    32    64    96    128       256       512
#   speed-up   0.3x  0.8x  0.9x  1.0x  1.1x  1.1-1.2x  1.3-1.4x  1.3-1.4x
# The split breaks even near 64 segments; 128 keeps a margin.
_MIN_SPLIT_SEGMENTS = 128

# A factor's entry [2a + i, 2b + j] is u[i, j] * P[a][b][j], with u the
# eigenbasis rotation, P = [[c, s], [ms, c]] the propagator pieces and j the
# channel.  With the pieces stacked as rows 2k + j for k = (c, s, ms), these
# pick u's flat entry and the piece row of each of the 16 entries in turn.
_ROTATION_INDEX = np.array([2 * i + j for a, i, b, j in np.ndindex(2, 2, 2, 2)])
_PIECE_INDEX = np.array([2 * ((0, 1), (2, 0))[a][b] + j for a, i, b, j in np.ndindex(2, 2, 2, 2)])


def _propagator_entries(q, length: float):
    """Real scalar pieces (cos, sin/sqrt, -q*sin/sqrt) of D for real eigenvalue(s) q.

    With y = sqrt(|q|) and x = y * length, open channels (q >= 0) take cos(x)
    and sin(x) in real arithmetic, and closed channels (q < 0) take
    cos(i x).real and sin(i x).imag from the complex functions, evaluated on
    the closed entries only, so they grow hyperbolically.  Either sine is
    divided by y as a multiplication by 1 / y.  Each piece equals, bit for
    bit, the real part of the complex evaluation it replaced (see the module
    docstring).  The small-x series, with x**2 taking the sign of q and the
    same reciprocal multiplications, is evaluated only where it applies.  The
    fourth piece is the evanescent growth: x on closed channels, 0 on open ones.
    """
    q = np.asarray(q, dtype=float)
    closed = q < 0
    y = np.sqrt(np.abs(q))
    x = y * length
    small = x < 1e-4
    c = np.cos(x)
    sn = np.sin(x)
    if closed.any():
        zl = 1j * x[closed]
        c[closed] = np.cos(zl).real
        sn[closed] = np.sin(zl).imag
    s = sn * (1.0 / np.where(small, 1.0, y))
    if small.any():
        xs = x[small]
        x2 = np.where(closed[small], -(xs * xs), xs * xs)
        s[small] = length * (1.0 - x2 * (1.0 / 6.0) + x2 * x2 * (1.0 / 120.0))
    return c, s, -q * s, np.where(closed, x, 0.0)


@dataclass(frozen=True)
class SegmentPlan:
    """Precomputed, energy-independent data for one piecewise build."""

    n_segments: int
    seg_length: float
    magnitudes: np.ndarray  # (N,) field magnitude at segment midpoints
    jumps: np.ndarray  # (N+1, 2, 2) real eigenbasis rotations at the crossings


def segment_midpoints(length: float, n_segments) -> tuple[float, np.ndarray]:
    """Length h and midpoints of n_segments equal segments of [0, length].

    The count must be a whole number of at least one (4096.0 counts as 4096).
    """
    if not (n_segments >= 1 and float(n_segments).is_integer()):
        raise ValueError(f"need a whole number of segments >= 1, got {n_segments!r}")
    n_segments = int(n_segments)
    h = length / n_segments
    return h, (np.arange(n_segments) + 0.5) * h


def segment_plan(field: PlanarField, n_segments: int) -> SegmentPlan:
    """Split the region into equal segments with midpoint-sampled field data.

    The eigenbasis rotation between consecutive midpoint bases
    (`PlanarField.basis_theta`) sits at the shared segment boundary; the first
    and last crossings connect to the lead directions.
    """
    h, mids = segment_midpoints(field.length, n_segments)
    th = np.asarray(field.basis_theta(mids), dtype=float)
    angles = np.diff(th, prepend=field.theta_left, append=field.theta_right)
    return SegmentPlan(
        n_segments=mids.size,
        seg_length=h,
        magnitudes=np.asarray(field.magnitude(mids), dtype=float),
        jumps=planar_rotation(angles).real,
    )


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_product(plan: SegmentPlan, energies: np.ndarray) -> np.ndarray:
    """Batched transfer product over all segments of the plan, in float64.

    Each energy's product is independent of the others, so a large batch is
    split along the energy axis into one contiguous chunk per usable CPU, the
    chunks run in threads (numpy's ufuncs and the stacked matmul release the
    GIL) and are joined in order.  Every energy keeps its association, so the
    result is bit for bit that of one serial pass.  A batch is split only when
    every chunk gets at least _MIN_CHUNK_ENERGIES energies and the plan has at
    least _MIN_SPLIT_SEGMENTS segments: on small chunks the threads'
    per-segment Python dispatch contends for the GIL, and on thin plans
    starting the pool costs more than the product, so the split loses to the
    serial loop.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    n_chunks = min(usable_cpus(), energies.shape[0] // _MIN_CHUNK_ENERGIES)
    if n_chunks < 2 or plan.n_segments < _MIN_SPLIT_SEGMENTS:
        return _serial_product(plan, energies)
    from concurrent.futures import ThreadPoolExecutor  # here, so `import spinwire` skips it

    # a pool per call: no thread outlives it, and the with waits for every
    # chunk before an EvanescentOverflowError from one of them propagates
    with ThreadPoolExecutor(max_workers=n_chunks) as pool:
        parts = list(pool.map(partial(_serial_product, plan), np.array_split(energies, n_chunks)))
    return np.concatenate(parts)


def _serial_product(plan: SegmentPlan, energies: np.ndarray) -> np.ndarray:
    """The ordered product of one batch of energies, in one thread.

    The product is real for real energies.  Its entries keep the bits of
    the complex evaluation (see the module docstring), so it equals the
    complex128 product of the same factors bit for bit.  The factors of each
    block of segments (at most _BLOCK_ROWS of them, within _BLOCK_BYTES) are
    built in one vectorised pass into a buffer reused across blocks; only the
    left multiplication runs per segment.  The association is that of a
    plain per-segment loop, so the result does not depend on the block size.

    A batch of one energy is carried as 2-D (4, 4) matrices and multiplied
    with np.dot: the same dgemm call, and so the same bits, as `@` on
    (1, 4, 4) stacks, without the stacked dispatch that otherwise costs
    most of each segment's step.
    """
    n_e = energies.shape[0]
    shape = (4, 4) if n_e == 1 else (n_e, 4, 4)
    gamma = np.zeros((n_e, 4, 4))
    gamma[:, :2, :2] = plan.jumps[0]
    gamma[:, 2:, 2:] = plan.jumps[0]
    gamma = gamma.reshape(shape)
    multiply = np.dot if gamma.ndim == 2 else np.matmul
    growth = np.zeros(n_e)
    # 16 float64 per factor; no more rows than the plan has segments
    block = min(_BLOCK_ROWS, max(1, _BLOCK_BYTES // (max(n_e, 1) * 16 * 8)), plan.n_segments)
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
        for factor in factors[:nb].reshape(nb, *shape):
            gamma = multiply(factor, gamma)
    return gamma.reshape(n_e, 4, 4)


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
    all energies.  The batch is a non-empty 1-D sequence (or one scalar).
    """
    energies = energy_batch(energies)
    if plan is None:
        plan = segment_plan(field, n_segments)
    gamma = _ordered_product(plan, energies)
    berry = planar_rotation(field.theta_right - field.theta_left)
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


def flow_defect(gamma_tilde: np.ndarray):
    """Deviation of gamma_tilde from preserving the symplectic form J.

    It is the absolute Hilbert-Schmidt norm of gamma_tilde^dag J gamma_tilde - J,
    one per matrix of a stack.
    Once a channel is evanescent the entries of gamma_tilde grow, and rounding
    alone makes this norm grow like eps * |gamma_tilde|^2.  It therefore bounds
    the rounding of the product only above the upper band (E > 1).  Below it a
    correct product can read large: scheme1 at L = 10, E = -0.95 reads 1.4e-4
    on a result within 7e-8 of the lattice oracle.
    """
    return hs_norm(np.conj(gamma_tilde).swapaxes(-1, -2) @ J4 @ gamma_tilde - J4)
