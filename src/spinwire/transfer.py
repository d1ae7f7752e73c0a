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
product is accumulated in float64.

The rows that run the granule tree (below) take their propagator pieces
from one Taylor series in w = -q h^2 (`_series_entries`): c = sum of
w^k / (2k)! and s = h * sum of w^k / (2k + 1)!, _SERIES_TERMS terms each
by Horner, for open and closed channels alike, with no square root, no
complex function and no division.  An entry with |w| > W_MAX, where the
first omitted term would pass eps / 2, takes the trig pieces below instead.
The choice is made entry by entry, so an energy's product still depends
only on the plan and on that energy.  At 4096 segments every entry of a
sweep's nodes on [-1, 5] is within W_MAX on a wire of length up to 6.
Against exact sums, c is within 1.5 ulp (near W_MAX the truncation is one
ulp of a cosine just below 1), s within 0.64 ulp and -q s within 1.23 ulp,
against 0.5, 2.8 and 3.0 ulp for the trig pieces; on those sweep nodes,
|w| <= 1.3e-5, within 0.52, 0.50 and 1.02 ulp.

The chain rows, and the tree rows' entries beyond W_MAX, keep every bit of
the complex128 evaluation (Im >= 0 branch of sqrt(q)) they replaced
(`_propagator_entries`).  With y = sqrt(|q|) and x = y L, an open channel
(q >= 0) is evaluated in real arithmetic: cos(x), and sin(x) multiplied by
1/y, since numpy's complex division by a number with a zero imaginary part
multiplies by its reciprocal.  A closed channel (q < 0) keeps the complex
cos and sin of i x, evaluated on the closed entries only: numpy's real cosh
and sinh each differ from them in the last bit on about a quarter of the
closed entries of a sweep.  The naive real build (cos/cosh, sin/sinh and a
true division) is not used.  Its bits differ, and on the unstabilised
product that rounding matters: with it a scheme2 wire of length 20 at
E = -0.35 (4096 segments) failed flux unitarity where the complex
evaluation passes.

The association of the product depends only on the plan and on the energy,
never on the batch or the block size, and a product runs in one thread.
Every batch, a batch of one included, is an (n, 4, 4) stack chained with
np.matmul.  Each energy's `evanescent_growth` g is computed once, before any
factor is built: a batch in which some g passes GROWTH_GUARD is refused, and
g alone picks how the energy's product is grouped.

* An energy with g <= REGROUP_GROWTH_LIMIT (every open energy, E >= max|B|,
  has g = 0) reduces each granule of _GRANULE consecutive segments, counted
  from segment 0, by a balanced pairwise tree (`_pairwise_products`) and
  chains the granule products in segment order, which removes most of the
  per-segment multiplication calls.  Its rounding relative to the largest
  entry, about eps * e^g, stays under 1e-11, so the grouping moves a result
  by no more than that.
* On a plan of even N whose field is `mirror_symmetric`, those energies
  run the tree over the first N/2 segments, to H, which ends with the middle
  jump R_m.  The plan is a palindrome to rounding (2e-14 on the schemes with
  q1 <= 10, q2 <= 1), and K F K = F^-1 for each jump and propagator, with
  K = diag(1, -1, -1, 1), so gamma = K H^-1 K R_m^-1 H.  H^-1 = -J H^T J
  makes K H^-1 K an exact signed block transpose, and only R_m^-1 H and one
  4x4 product round.  H is symplectic to about eps * |H|^2 <= eps * e^g,
  the tree's budget above.
* Any other energy has a granule of one segment: it multiplies its factors
  one at a time, as a plain per-segment loop does.  On the unstabilised
  product regrouping a large growth moves which energies fail: a pairwise
  tree over every energy made scheme1 (0, 0), L = 40 raise
  SingularSystemError, and scheme2 (0, 0), L = 20 fail 8 of 20 energies
  instead of 7.

One block loop (`_block_products`) yields each block's granule products,
and `_chain` multiplies them after the plan's first jump.  One flag,
``regroup``, selects all that a tree row does differently in the two: the
first half of a mirror-symmetric plan, granules of _GRANULE segments built
from the series pieces, and the final mirror step.  A sweep or a current
(`product_interpolant`) takes the tree rows' granule products at a few
energies, interpolates each granule in E, and chains the interpolants
evaluated at its own nodes: its node products come from the granule
interpolants, not from `ordered_product`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import J4, EvanescentOverflowError, energy_batch, hs_norm
from .diagnostics import Recorder, timed
from .berry import berry_operator_planar, planar_rotation
from .fields import PlanarField

GROWTH_GUARD = 60.0  # refuse builds whose evanescent growth exceeds exp(60)
# The largest evanescent growth g at which a product may be regrouped (the
# granule tree) or interpolated (`product_interpolant`): rounding
# relative to the largest entry, about eps * e^g, stays under 1e-11.
REGROUP_GROWTH_LIMIT = float(np.log(1e-11 / np.finfo(float).eps))
# A block of factors holds at most _BLOCK_BYTES (so it stays in L2 cache) and at
# most _BLOCK_ROWS segments.  The row cap binds below 33 energies: a one-energy
# block's temporaries then stay in cache and under glibc's mmap and trim
# thresholds, so the heap top is not handed back and re-faulted on every call,
# and the gather-multiply that builds a block costs about 2.5x less per row
# than in one 4096-row block.  Larger batches keep the byte budget (27 rows at
# 300 energies).  The tree's rows round a block down to whole granules, but
# never below one (_GRANULE rows: 2.4 MB at 600 energies).
# The propagator pieces are taken over a span of whole blocks whose pieces fit
# in _BLOCK_BYTES // 8 (128 KiB, glibc's default mmap threshold), so no
# temporary of a call grows past it either: a span holds more than one block
# only for batches of at most 5 energies (10 blocks, 2560 rows, for one), and
# a one-energy solve then takes its pieces in one or two passes, not 8 or 16.
_BLOCK_BYTES = 1 << 20
_BLOCK_ROWS = 256
# Consecutive segments an energy within REGROUP_GROWTH_LIMIT reduces by a
# pairwise tree before the granule product joins the chain (see the module
# docstring).  A 4096-segment scheme2 (1, 0, L = 4) plan, open energies on
# [1, 5], medians of nine rounds on a shared 2-vCPU VM, with the half tree
# and the series pieces (the per-segment chain's products: 5.67 ms for one
# energy, 16.3 ms and 197 ms):
#   granule                       16        32        64
#   solve_scattering, E = 2.5     0.97 ms   0.86 ms   0.88 ms
#   product, 20 energies          5.57 ms   4.02 ms   4.09 ms
#   product, 400 energies         81.2 ms   77.1 ms   82.3 ms
# 64 rounds a large batch's block up past _BLOCK_BYTES; 32 keeps most of its
# gain on small batches.
_GRANULE = 32
# Terms of the tree rows' Taylor series in w = -q h^2 (`_series_entries`).
# W_MAX is the largest |w| at which the first omitted term of the cosine's
# series, w^n / (2n)! for n terms, is within eps / 2, to the rounding of the
# root; the sine's, w^n / (2n + 1)!, is smaller.
_SERIES_TERMS = 3
W_MAX = float((np.finfo(float).eps / 2 * math.factorial(2 * _SERIES_TERMS)) ** (1 / _SERIES_TERMS))
# the interpolation rule of a sweep or a current (see product_interpolant)
_SWEEP_DEGREE = 24
_GRANULE_DEGREE = 8  # the granule interpolants' first degree
_SWEEP_TAIL = 4
_SWEEP_TAIL_TOL = 1e-13

# A factor's entry [2a + i, 2b + j] is u[i, j] * P[a][b][j], with u the
# eigenbasis rotation, P = [[c, s], [ms, c]] the propagator pieces and j the
# channel.  With the pieces stacked as rows 2k + j for k = (c, s, ms), these
# pick u's flat entry and the piece row of each of the 16 entries in turn.
_ROTATION_INDEX = np.array([2 * i + j for a, i, b, j in np.ndindex(2, 2, 2, 2)])
_PIECE_INDEX = np.array([2 * ((0, 1), (2, 0))[a][b] + j for a, i, b, j in np.ndindex(2, 2, 2, 2)])
# K J, so that K H^-1 K = -K J H^T J K = _MIRROR H^T _MIRROR for a symplectic H
_MIRROR = np.kron([[0.0, 1.0], [1.0, 0.0]], np.diag([1.0, -1.0]))


def _propagator_entries(q, length: float):
    """Real scalar pieces (cos, sin/sqrt, -q*sin/sqrt) of D for real eigenvalue(s) q.

    These are the chain rows' pieces, and the tree rows' beyond W_MAX (see
    `_series_entries`).  On a 256-segment block of a sweep's 25 nodes on
    `scheme1` (1, 1, L = 6) they take 490-550 us, a third of it in the
    complex functions of the closed quarter of the entries, against 54-57 us
    for the series (best of 7 x 200, shared 2-vCPU VM).

    With y = sqrt(|q|) and x = y * length, open channels (q >= 0) take cos(x)
    and sin(x) in real arithmetic, and closed channels (q < 0) take
    cos(i x).real and sin(i x).imag from the complex functions, evaluated on
    the closed entries only, so they grow hyperbolically.  Either sine is
    divided by y as a multiplication by 1 / y.  Each piece equals, bit for
    bit, the real part of the complex evaluation it replaced (see the module
    docstring).  The small-x series, with x**2 taking the sign of q and the
    same reciprocal multiplications, is evaluated only where it applies.
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
    ms = np.multiply(q, s)
    return c, s, np.negative(ms, out=ms)  # the bits of -q * s


def _series_entries(q, length: float) -> np.ndarray:
    """The pieces (c, s, -q s) of the tree rows' factors, stacked: (3, *q.shape).

    With w = q * -(length * length), c = sum of w^k / (2k)! and s = sum of
    w^k * length / (2k + 1)!, over k < _SERIES_TERMS, each by Horner in w
    with every coefficient a correctly rounded quotient.  One formula serves
    open and closed channels.  An entry with |w| > W_MAX keeps the bits of
    `_propagator_entries`, so each entry depends on its own q and length only.
    """
    q = np.asarray(q, dtype=float)
    w = q * -(length * length)
    pieces = np.empty((3, *w.shape))
    c, s, ms = pieces
    top = _SERIES_TERMS - 1
    for out, scale, odd in ((c, 1.0, 0), (s, length, 1)):
        out.fill(scale / math.factorial(2 * top + odd))
        for k in reversed(range(top)):
            out *= w
            out += scale / math.factorial(2 * k + odd)
    np.negative(np.multiply(q, s, out=ms), out=ms)  # the bits of -q * s
    far = np.abs(w) > W_MAX
    if far.any():
        c[far], s[far], ms[far] = _propagator_entries(q[far], length)
    return pieces


@dataclass(frozen=True)
class SegmentPlan:
    """Precomputed, energy-independent data for one piecewise build.

    This is the geometric half of a solve: it depends on the field and the
    segment count only.  Plans are shared and read-only; see `segment_plan`.
    ``rotations`` holds each factor's geometric half, ``jumps[1:]`` spread
    over the factor's 16 entries (`_ROTATION_INDEX`), so a product multiplies
    it by the energy's propagator pieces and gathers nothing per energy.  At
    4096 segments a plan's ``magnitudes`` and ``jumps`` take 160 KB, and its
    ``rotations`` 512 KB more.
    """

    n_segments: int
    seg_length: float
    magnitudes: np.ndarray  # (N,) field magnitude at segment midpoints
    jumps: np.ndarray  # (N+1, 2, 2) real eigenbasis rotations at the crossings
    rotations: np.ndarray  # (N, 16) each factor's rotation entries, jumps[1:] by _ROTATION_INDEX
    mirror_symmetric: bool = False  # a `mirror_symmetric` field's plan of even N


def segment_count(n_segments) -> int:
    """A segment count as a plain int: a whole number of at least one (4096.0 counts as 4096)."""
    if not (n_segments >= 1 and float(n_segments).is_integer()):
        raise ValueError(f"need a whole number of segments >= 1, got {n_segments!r}")
    return int(n_segments)


def segment_plan(field: PlanarField, n_segments: int) -> SegmentPlan:
    """Split the region into equal segments with midpoint-sampled field data.

    The eigenbasis rotation between consecutive midpoint bases
    (`PlanarField.basis_theta`) sits at the shared segment boundary; the first
    and last crossings connect to the lead directions.

    A field's plan is built once per segment count: it is kept on the field
    object itself, lives as long as the field, and every later call with
    that count returns the same plan.  Its ``magnitudes``, ``jumps`` and
    ``rotations`` are therefore read-only.  This rests on a field not
    changing after construction (see `PlanarField`).  A plan handed to a
    solve as ``plan=`` is used as given and wins over the ``n_segments``
    passed with it; it must be the field's own (`check_plan`, ValueError).
    """
    n_segments = segment_count(n_segments)
    plans = vars(field).setdefault("_plans", {})
    plan = plans.get(n_segments)
    if plan is None:
        h = field.length / n_segments
        mids = (np.arange(n_segments) + 0.5) * h
        th = np.asarray(field.basis_theta(mids), dtype=float)
        angles = np.diff(th, prepend=field.theta_left, append=field.theta_right)
        magnitudes = np.asarray(field.magnitude(mids), dtype=float)
        jumps = planar_rotation(angles).real
        rotations = jumps[1:].reshape(n_segments, 4)[:, _ROTATION_INDEX]
        magnitudes.flags.writeable = jumps.flags.writeable = rotations.flags.writeable = False
        # threads that race on a first build all return the plan stored first
        mirror = field.mirror_symmetric and n_segments % 2 == 0
        plan = plans.setdefault(
            n_segments, SegmentPlan(n_segments, h, magnitudes, jumps, rotations, mirror)
        )
    return plan


def check_plan(field: PlanarField, plan: SegmentPlan) -> None:
    """Refuse a plan that is not this field object's own (ValueError).

    A field's plans are the ones `segment_plan` keeps on it, so the memo
    decides (building the field's own plan at that count if it has none yet):
    a plan of another field object, even an equal one or one of the same
    length, is refused.
    """
    if plan is not segment_plan(field, plan.n_segments):
        raise ValueError(
            f"plan of {plan.n_segments} segments is not this field's own: "
            "pass segment_plan(field, n_segments) of the field object being solved"
        )


def ordered_product(plan: SegmentPlan, energies: np.ndarray) -> np.ndarray:
    """The real transfer product gamma of a batch, in float64: what the matching uses.

    Each energy's `evanescent_growth` is taken once (open energies have
    none).  The batch is refused if one of them exceeds GROWTH_GUARD, before
    any factor is built.  Otherwise the energies within REGROUP_GROWTH_LIMIT
    run the granule tree with the series pieces, on a mirror-symmetric plan
    over its first half, and the rest chain segment by segment (see the
    module docstring), so an energy's product depends only on the plan and
    on that energy.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    growth = evanescent_growth(plan, energies)
    if np.any(growth > GROWTH_GUARD):
        raise EvanescentOverflowError(
            f"evanescent growth exceeds exp({GROWTH_GUARD:g}); region too long for this energy"
        )
    gamma = np.empty((energies.shape[0], 4, 4))
    tree = growth <= REGROUP_GROWTH_LIMIT
    for rows, regroup in ((tree, True), (~tree, False)):
        if rows.any():
            blocks = _block_products(plan, energies[rows], regroup)
            gamma[rows] = _chain(plan, blocks, rows.sum(), regroup)
    return gamma


def product_interpolant(plan: SegmentPlan, lo: float, hi: float, stop: int,
                        recorder: Recorder | None = None):
    """A function giving gamma, (n, 4, 4), at an array of energies in [lo, hi], or None.

    Every factor of gamma is entire in E, so the real product gamma(E) is
    too, and its Chebyshev interpolant on the window [lo, hi] converges
    geometrically (Trefethen, Approximation Theory and Approximation
    Practice, SIAM 2013, ch. 8).  gamma is taken at the Chebyshev-Lobatto
    nodes of the window and fitted.  The nodes start at degree _SWEEP_DEGREE
    and double, keeping the products already taken, until the last
    _SWEEP_TAIL coefficients are at most _SWEEP_TAIL_TOL of the largest.

    The node products come from granule interpolants: every granule product
    of the tree rows (`_block_products` with ``regroup``, over the first half
    of a mirror-symmetric plan) is taken at the Lobatto nodes of degree
    _GRANULE_DEGREE, fitted and doubled by the same tail rule, granule by
    granule, then evaluated and chained at the wire's nodes (`_chain`, with
    the mirror step), so a later doubling of the wire takes no new product.
    A granule is entire in E as the wire is, and shorter, so it needs a lower
    degree (8 on [-1, 5] at 4096 segments, where the wire needs 24; 32 at 64
    segments, where a granule is half the wire).  The node rule depends only
    on the plan and the window, so the interpolant does too.

    None, before any factor is built, when ``stop`` is at most _SWEEP_DEGREE,
    for a window of zero width, and for a window whose lowest energy has an
    evanescent growth g over REGROUP_GROWTH_LIMIT (about 10.7), since the
    interpolant keeps gamma only to rounding relative to its largest entry,
    about eps * e^g.  None too, after the granule products are taken, once
    the degree the tail asks for, of the granules or of the wire, would reach
    ``stop``: a caller that would otherwise solve stop + 1 energies directly
    takes no more products here.  A ``recorder`` (`diagnostics.Recorder`)
    gets each fit's degree and tail and the time of the granule products,
    layer "granules".
    """
    if stop <= _SWEEP_DEGREE or lo == hi or (
            evanescent_growth(plan, np.array([lo]))[0] > REGROUP_GROWTH_LIMIT):
        return None

    def granule_products(nodes: np.ndarray) -> np.ndarray:
        with timed(recorder, "granules"):
            products = np.concatenate(list(_block_products(plan, nodes, True)))
            return products.swapaxes(0, 1).reshape(nodes.size, -1, 16)

    granules = _fit(granule_products, _GRANULE_DEGREE, stop, lo, hi, recorder, "granule")
    if granules is None:
        return None

    def node_products(nodes: np.ndarray) -> np.ndarray:
        values = _chebyshev_values(granules, nodes, lo, hi).reshape(nodes.size, -1, 4, 4)
        gamma = _chain(plan, [np.ascontiguousarray(values.swapaxes(0, 1))], nodes.size, True)
        return gamma.reshape(-1, 1, 16)

    coeffs = _fit(node_products, _SWEEP_DEGREE, stop, lo, hi, recorder, "wire")
    if coeffs is None:
        return None
    return lambda energies: _chebyshev_values(coeffs, energies, lo, hi).reshape(-1, 4, 4)


def evanescent_growth(plan: SegmentPlan, energies: np.ndarray) -> np.ndarray:
    """Each energy's evanescent growth exponent across the plan.

    The growth is the sum over segments of h * sqrt(max(|B| - E, 0)): the
    upper channel's decay exponent, which bounds the lower one's.  It is
    summed in segment order; an open energy (E >= max|B|) has none and
    takes no sum.
    """
    growth = np.zeros(energies.shape[0])
    closed = energies < plan.magnitudes.max()
    steps = np.subtract(plan.magnitudes, energies[closed][:, None])  # (energy, segment), in place below
    np.sqrt(np.maximum(steps, 0.0, out=steps), out=steps)
    steps *= plan.seg_length
    growth[closed] = np.cumsum(steps, axis=1, out=steps)[:, -1]
    return growth


def _chain(plan: SegmentPlan, blocks, n_e: int, regroup: bool) -> np.ndarray:
    """The plan's first jump, then each granule product of each block multiplied on the left.

    With ``regroup`` on a `mirror_symmetric` plan the blocks are those of the
    first half, whose product H is followed by the mirror step
    K H^-1 K R_m^-1 H (module docstring).
    """
    gamma = np.zeros((n_e, 4, 4))
    gamma[:, :2, :2] = plan.jumps[0]
    gamma[:, 2:, 2:] = plan.jumps[0]
    for products in blocks:
        for product in products:
            gamma = np.matmul(product, gamma)
    if not (regroup and plan.mirror_symmetric):
        return gamma
    m = plan.n_segments // 2
    mirrored = _MIRROR @ gamma.swapaxes(1, 2) @ _MIRROR  # K H^-1 K, exact
    return mirrored @ (np.kron(np.eye(2), plan.jumps[m].T) @ gamma)


def _block_products(plan: SegmentPlan, energies: np.ndarray, regroup: bool):
    """Yield the granule products of each block of segments, (granules, energies, 4, 4), in order.

    With ``regroup`` (the tree rows) a granule of _GRANULE segments is
    reduced by a pairwise tree, its factors built from the series pieces,
    over the first N/2 segments of a `mirror_symmetric` plan, which end with
    the middle jump R_m (module docstring).  Without it a granule of 1 is a
    segment's own factor, built from the trig pieces, over the whole plan.
    The pieces are taken once per span of whole blocks (see _BLOCK_BYTES).
    The factors of each block of segments (at most _BLOCK_ROWS of them,
    within _BLOCK_BYTES, but always whole granules) are then its slice of the
    span's pieces times the plan's ``rotations``, built in one vectorised pass
    into a buffer reused across blocks, so a product that is a lone factor is
    a view that the next block overwrites.  Every piece and factor entry is
    computed elementwise, and the association depends on the granule alone,
    so the products depend on neither the block nor the span.
    """
    if regroup and plan.mirror_symmetric:
        m = plan.n_segments // 2
        plan = SegmentPlan(m, plan.seg_length, plan.magnitudes[:m], plan.jumps[: m + 1],
                           plan.rotations[:m])
    granule, entries = (_GRANULE, _series_entries) if regroup else (1, _propagator_entries)
    n_e = energies.shape[0]
    # 16 float64 per factor, in whole granules; no more rows than the plan has segments
    rows = min(_BLOCK_ROWS, max(1, _BLOCK_BYTES // (n_e * 16 * 8)))
    block = min(max(granule, rows - rows % granule), plan.n_segments)
    # 6 float64 pieces per segment and energy, in whole blocks
    span = block * max(1, _BLOCK_BYTES // 8 // (n_e * 6 * 8 * block))
    factors = np.empty((block, n_e, 16))
    for s0 in range(0, plan.n_segments, span):
        mags = plan.magnitudes[s0 : s0 + span, None]
        q = np.stack([energies + mags, energies - mags])  # (channel, segment, energy)
        pieces = np.asarray(entries(q, plan.seg_length)).reshape(6, -1, n_e)
        for j0 in range(0, pieces.shape[1], block):
            nb = min(block, pieces.shape[1] - j0)
            u = plan.rotations[s0 + j0 : s0 + j0 + nb, None]
            np.multiply(pieces[_PIECE_INDEX, j0 : j0 + nb].transpose(1, 2, 0), u, out=factors[:nb])
            yield _pairwise_products(factors[:nb].reshape(nb, n_e, 4, 4), granule)


def _pairwise_products(factors: np.ndarray, granule: int) -> np.ndarray:
    """Products of each run of `granule` consecutive factors, in segment order.

    Each run, counted from the first factor, is reduced by a balanced pairwise
    tree: adjacent pairs multiply with the later factor on the left, and an
    odd factor is carried up to the next level unchanged.  A short last run is
    paired the same way.  A granule of 1 returns the factors themselves.
    """
    n = factors.shape[0]
    full = n - n % granule
    runs = []
    if full:
        runs.append(factors[:full].reshape(full // granule, granule, *factors.shape[1:]))
    if full < n:
        runs.append(factors[None, full:])
    products = []
    for level in runs:
        while level.shape[1] > 1:
            m = level.shape[1]
            paired = np.matmul(level[:, 1::2], level[:, : m - 1 : 2])
            level = np.concatenate([paired, level[:, m - 1 :]], axis=1) if m % 2 else paired
        products.append(level[:, 0])
    return products[0] if len(products) == 1 else np.concatenate(products)


def _fit(values_at, degree: int, stop: int, lo: float, hi: float, recorder=None, name=""):
    """Chebyshev coefficients (degree + 1, m * 16) of m matrices on [lo, hi], or None.

    ``values_at`` gives the (nodes, m, 16) matrices at an array of nodes.  The
    nodes start at ``degree`` and double, keeping the values already taken,
    until the last _SWEEP_TAIL coefficients of every matrix are at most
    _SWEEP_TAIL_TOL of its largest; None once the degree would reach ``stop``.
    A ``recorder`` keeps, as its fit ``name``, the last degree fitted and the
    largest ratio of those tails to their largest coefficients.
    """
    values = values_at(_lobatto_energies(degree, lo, hi))
    while True:
        coeffs = _chebyshev_coefficients(values.reshape(degree + 1, -1))
        size = np.abs(coeffs).reshape(values.shape)
        tail, top = size[-_SWEEP_TAIL:].max(axis=(0, 2)), size.max(axis=(0, 2))
        if recorder is not None:
            recorder.fits[name] = {"degree": degree, "tail": float(np.max(tail / top))}
        if np.all(tail <= _SWEEP_TAIL_TOL * top):
            return coeffs
        degree *= 2
        if degree >= stop:
            return None
        # the nodes of degree 2n are those of degree n and the odd-indexed ones between them
        nested = np.empty((degree + 1, *values.shape[1:]))
        nested[::2] = values
        nested[1::2] = values_at(_lobatto_energies(degree, lo, hi)[1::2])
        values = nested


def _chebyshev_values(coeffs: np.ndarray, energies: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """sum_m c_m T_m(x) at each energy's x in [-1, 1] on [lo, hi], with T_m(x) = cos(m arccos x)."""
    x = np.clip((2.0 * energies - (lo + hi)) / (hi - lo), -1.0, 1.0)
    return np.cos(np.outer(np.arccos(x), np.arange(coeffs.shape[0]))) @ coeffs


def _lobatto_energies(degree: int, lo: float, hi: float) -> np.ndarray:
    """The degree + 1 Chebyshev-Lobatto points cos(pi k / degree) of [lo, hi], from hi down to lo."""
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(degree + 1) / degree)
    nodes[0], nodes[-1] = hi, lo  # the grid's own end energies
    return nodes


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients c_m of sum_m c_m T_m through values at the Lobatto points, by a cosine matrix.

    This is the type-I discrete cosine transform, written as a matrix so that
    no FFT module is imported; its angles pi m k / n are reduced mod 2 pi exactly.
    """
    n = values.shape[0] - 1
    m = np.arange(n + 1)
    cosines = np.cos(np.pi * (np.outer(m, m) % (2 * n)) / n)
    ends = np.ones(n + 1)
    ends[[0, -1]] = 0.5
    coeffs = (2.0 / n) * (cosines @ (ends[:, None] * values))
    coeffs[[0, -1]] *= 0.5
    return coeffs


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
    """The paper's geometric x dynamical factorization; no solve path calls it.

    Returns gamma = `ordered_product` and gamma_tilde = diag(U^dag, U^dag) gamma,
    both (n_energies, 4, 4), and the full-interval transport U shared by all
    energies.  The batch is a non-empty 1-D sequence (or one scalar).  The
    plan is the field's `segment_plan` at ``n_segments``, or ``plan`` by that
    function's rule.
    """
    energies = energy_batch(energies)
    if plan is None:
        plan = segment_plan(field, n_segments)
    else:
        check_plan(field, plan)
    gamma = ordered_product(plan, energies)
    berry = berry_operator_planar(field, 0.0, field.length)
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


def flow_defect(gamma: np.ndarray):
    """Deviation of a transfer matrix gamma from preserving the symplectic form J.

    It is the absolute Hilbert-Schmidt norm of gamma^dag J gamma - J, one per
    matrix of a stack; gamma_tilde reads the same up to rounding.
    Once a channel is evanescent the entries of gamma grow, and rounding
    alone makes this norm grow like eps * |gamma|^2.  It therefore bounds
    the rounding of the product only above the upper band (E > 1).  Below it a
    correct product can read large: scheme1 at L = 10, E = -0.95 reads 1.4e-4
    on a result within 7e-8 of the lattice oracle.
    """
    return hs_norm(np.conj(gamma).swapaxes(-1, -2) @ J4 @ gamma - J4)
