"""Boundary matching: turn transfer matrices into t_E, r_E and observables.

The matching works with S-matrices (Ko & Inkson, PRB 38, 9945 (1988); L. Li,
JOSA A 13, 1024 (1996)).  Inside the wire the waves are written at the unit
wave vector, W0 = [[I, I], [iI, -iI]], so the lead wave vectors never enter
the wire's block.  Each lead is a diagonal step between its flux-normalised
waves and the unit waves, with rho = (k - 1)/(k + 1) and
tau = 2 sqrt(k)/(k + 1), and one Redheffer star product folds the three
from the left: (left * wire) * right.

Conventions: the left interface sits at y = 0 (so the left phase matrix is the
identity), amplitudes carry the sqrt(k_out/k_in) flux normalization, and in
the single-channel regime only the (0,0) entries of t and r are physical; the
other entries describe evanescent admixtures and are masked in probability
tables.  Only moduli of amplitudes are convention-free.

A batch's results are one `ScatterBatch` of arrays, from the channel gate to
the observables; a `ScatterResult` is built only when one is indexed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    E_LOWER,
    E_UPPER,
    ChannelData,
    Regime,
    SingularSystemError,
    channel_at,
    hs_norm,
    scattering_channels,
)
from .diagnostics import Recorder, timed
from .fields import PlanarField
from .transfer import (
    SegmentPlan,
    check_plan,
    evanescent_growth,
    flow_defect,
    ordered_product,
    product_interpolant,
    segment_count,
    segment_plan,
)

DEFAULT_SEGMENTS = 4096
# `landauer_current`'s tolerance on the window's integral, shared among its panels
# by width: above the sweep interpolant's rounding of G, about 2e-11.  It also
# bounds each level's flux defects, weighted as the rule weights its nodes' G.
# It stops at CURRENT_MAX_SOLVES energies, not at a depth: where G is rounding
# noise every panel fails, and their count doubles at each level.  Its window
# ends where an occupation tail is under eps, _TAIL temperatures past a potential.
CURRENT_TOL = 1e-8
CURRENT_MAX_SOLVES = 8192
_TAIL = float(np.log(2.0 / np.finfo(float).eps))


@dataclass(frozen=True)
class ScatterResult:
    """Scattering matrices at one energy plus derived observables.

    ``flow_defect`` is `transfer.flow_defect` of the energy's real product
    gamma, equal to gamma_tilde's up to rounding: the Berry strip
    diag(U^dag, U^dag), U a real rotation, is orthogonal and commutes with J.
    It bounds the product's rounding only above the upper band (see its docstring).
    """

    t: np.ndarray
    r: np.ndarray
    channel: ChannelData
    probabilities: np.ndarray  # |t[l, l']|^2
    unitarity_defect: float
    conductance: float
    n_segments: int  # the segment count of the plan the solve used
    flow_defect: float

    @property
    def two_channel(self) -> bool:
        return self.channel.regime is Regime.TWO_CHANNEL


@dataclass(frozen=True)
class ScatterBatch:
    """The results of a batch of energies: `scattering_channels`' arrays and the
    `ScatterResult` fields of the same names, stacked in batch order.

    ``gamma`` is the real transfer products the batch was matched on, and
    ``flow_defect`` is computed from them on its first read, so a caller that
    never reads it never pays for it.  As a sequence (``len``, iteration,
    indexing) it holds one `ScatterResult` per energy, built with its
    `ChannelData` only when it is indexed out.
    """

    energy: np.ndarray  # (n,)
    k: np.ndarray  # (n, 2) lead wave vectors k0, k1
    two_channel: np.ndarray  # (n,) bool: both lead channels open
    t: np.ndarray  # (n, 2, 2)
    r: np.ndarray  # (n, 2, 2)
    probabilities: np.ndarray  # (n, 2, 2)
    unitarity_defect: np.ndarray  # (n,)
    conductance: np.ndarray  # (n,)
    gamma: np.ndarray | None  # (n, 4, 4), or None for results no transfer product gave
    n_segments: int  # the segment count of the plan the solve used

    @cached_property
    def flow_defect(self) -> np.ndarray:
        """(n,) `transfer.flow_defect` of each energy's gamma; NaN where there is no gamma."""
        return np.full(len(self), np.nan) if self.gamma is None else flow_defect(self.gamma)

    def __len__(self) -> int:
        return self.energy.size

    def __getitem__(self, i: int) -> ScatterResult:
        return ScatterResult(
            self.t[i], self.r[i], channel_at((self.energy, self.k, self.two_channel), i),
            self.probabilities[i], float(self.unitarity_defect[i]), float(self.conductance[i]),
            self.n_segments, float(self.flow_defect[i]),
        )


def _abs2(z: np.ndarray) -> np.ndarray:
    # the bits of Python's abs(z) ** 2 on a complex128 scalar: hypot, then pow;
    # numpy's array abs and ** 2 round differently on some values
    return np.float_power(np.hypot(z.real, z.imag), 2)


def build_results(
    t: np.ndarray, r: np.ndarray, channels, n_segments: int, gamma: np.ndarray | None = None
) -> ScatterBatch:
    """The ScatterBatch of (n, 2, 2) stacks of t and r, their `scattering_channels` and products.

    The unitarity defect is the flux residual: with two open channels the norm
    of r^dag r + t^dag t - 1, with one the (0, 0) entries' alone.
    """
    energy, k, two_channel = channels
    probs = np.abs(t) ** 2
    conductance = np.where(two_channel, probs.sum(axis=(-2, -1)), probs[:, 0, 0])
    gram = np.conj(r).swapaxes(-1, -2) @ r + np.conj(t).swapaxes(-1, -2) @ t
    lower = np.abs(_abs2(r[:, 0, 0]) + _abs2(t[:, 0, 0]) - 1.0)
    defect = np.where(two_channel, hs_norm(gram - np.eye(2)), lower)
    return ScatterBatch(energy, k, two_channel, t, r, probs, defect, conductance, gamma, int(n_segments))


def build_result(
    t: np.ndarray, r: np.ndarray, channel: ChannelData, n_segments: int = 0
) -> ScatterResult:
    """The ScatterResult of one energy: `build_results` of a batch of one."""
    two_channel = np.array([channel.regime is Regime.TWO_CHANNEL])
    channels = (np.array([channel.energy]), np.array([[channel.k0, channel.k1]]), two_channel)
    return build_results(t[None], r[None], channels, n_segments)[0]


_EYE = np.eye(2)[:, :, None]  # the identity of a (2, 2, n) stack
_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]  # a 2x2 adjugate's signs


def _mul(a, b):
    """Products of two stacks of 2x2 matrices held matrix axes first, (2, 2, n), entry by entry.

    A diagonal operand is held as its (2, n) diagonal and multiplies with one
    broadcast: a left one scales the other's rows, a right one its columns.
    That gives the bits of the full product, whose zero entries add only
    x * 0 terms.  On a sweep's 600 energies two full stacks multiply 15x
    faster than with np.matmul on (n, 2, 2) stacks.
    """
    if b.ndim == 2:
        return a * b
    if a.ndim == 2:
        return a[:, None] * b
    return a[:, :1] * b[0] + a[:, 1:] * b[1]


def _add(a, b):
    """The sum of two (2, 2, n) stacks, either of them maybe a (2, n) diagonal (see `_mul`),
    which is added to the other's diagonal entries only."""
    if a.ndim == b.ndim:
        return a + b
    full, diagonal = (a, b) if b.ndim == 2 else (b, a)
    out = full.copy()
    out.reshape(4, -1)[::3] += diagonal  # entries (0, 0) and (1, 1)
    return out


def _inv2(m, conditions=None):
    """Inverses of a (2, 2, n) stack; an exactly singular matrix raises SingularSystemError.

    Given a list ``conditions``, it appends each matrix's reciprocal 1-norm
    condition number |det| / (|m|_1 |m|_inf): a 2x2 adjugate's 1-norm is the
    matrix's inf-norm.
    """
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if np.any(det == 0):
        raise SingularSystemError("a 2x2 step of the boundary matching is exactly singular")
    if conditions is not None:
        a = np.abs(m)
        conditions.append(np.abs(det) / ((a[0] + a[1]).max(axis=0) * (a[:, 0] + a[:, 1]).max(axis=0)))
    return m[::-1, ::-1].swapaxes(0, 1) * _SIGNS / det  # the adjugate over det


def _star(a, b, conditions=None):
    """Redheffer star product of two S-matrices (r, t, r', t') of (2, 2, n) stacks, a on the left.

    r and t answer a wave incident from the left, r' and t' one from the
    right.  A block may be held as its (2, n) diagonal (see `_mul`), as a lead
    step's are, so long as a's r' or b's r is full; a diagonal r or r' is
    added to the diagonal entries only.  Given only b's r and t, it gives
    only the product's r and t.  ``conditions`` goes to its one `_inv2`.
    """
    ra, ta, rpa, tpa = a
    rb, tb, *primed = b
    m = _inv2(_EYE - _mul(rpa, rb), conditions)  # the multiple reflections between a and b
    rb_m, tb_m = _mul(rb, m), _mul(tb, m)
    r, t = _add(ra, _mul(tpa, _mul(rb_m, ta))), _mul(tb_m, ta)
    if not primed:
        return r, t
    rpb, tpb = primed
    return (r, t, _add(rpb, _mul(_mul(tb_m, rpa), tpb)),
            _mul(tpa, _mul(_EYE + _mul(rb_m, rpa), tpb)))


def _wire_block(gamma: np.ndarray, conditions=None):
    """S-matrix of a stack of real transfer products (n, 4, 4) in the wire's unit waves.

    In the unit waves W0 = [[I, I], [iI, -iI]] a real gamma reads
    W0^-1 gamma W0 = [[A, B], [conj(B), conj(A)]], so one 2x2 inverse,
    that of conj(A), gives the block's S-matrix, as (2, 2, n) stacks.
    ``conditions`` goes to that `_inv2`.
    """
    g = gamma.transpose(1, 2, 0)
    g00, g01, g10, g11 = g[:2, :2], g[:2, 2:], g[2:, :2], g[2:, 2:]
    a = 0.5 * ((g00 + g11) + 1j * (g01 - g10))
    b = 0.5 * ((g00 - g11) - 1j * (g01 + g10))
    tp = _inv2(np.conj(a), conditions)
    r = -_mul(tp, np.conj(b))
    return r, a + _mul(b, r), _mul(b, tp), tp


def _lead_step(k):
    """rho and tau of the step between a lead's flux-normalised waves and unit waves.

    A lead wave of wave vector k meets the unit wave vector: the left lead's
    step has the S-matrix (rho, tau, -rho, tau), the right lead's the mirror
    (-rho, tau, rho, tau), all four diagonal.  For an evanescent k = i kappa,
    sqrt(k) carries the flux normalisation of the closed channel.
    """
    return (k - 1.0) / (k + 1.0), 2.0 * np.sqrt(k) / (k + 1.0)


def solve_scattering_batch(
    field: PlanarField,
    energies,
    n_segments: int = DEFAULT_SEGMENTS,
    plan: SegmentPlan | None = None,
    recorder: Recorder | None = None,
) -> ScatterBatch:
    """Scattering matrices of the field for a batch of energies, as one ScatterBatch.

    The batch is a non-empty 1-D sequence (or one scalar) of energies that
    scatter (`core.scattering_channels`); the sweep layer is responsible for
    nudging its grids off the band edges.  It matches on the real
    `ordered_product`: the Berry strip of gamma_tilde would cancel here.

    Without ``plan`` the solve takes ``segment_plan(field, n_segments)``,
    except for a field with a constant interior (the wall, the uniform field):
    its one-segment plan is exact, so it takes that one whatever
    ``n_segments`` says, after checking the count.  An explicit ``plan``
    follows `segment_plan`'s rule.  The batch's ``n_segments`` is the count
    of the plan used.  A ``recorder`` (`diagnostics.Recorder`) is filled with
    the solve's diagnostics and its layers "plan", "product", "matching" and
    "assembly"; the results do not depend on it.
    """
    channels = scattering_channels(energies)
    return _match(field, channels, _plan(field, n_segments, recorder, plan), None, recorder)


def _plan(field: PlanarField, n_segments, recorder: Recorder | None,
          plan: SegmentPlan | None = None) -> SegmentPlan:
    """The plan a solve takes, layer "plan": an explicit ``plan``, checked; else, once the
    count is checked, a constant interior's exact one-segment plan or the count's own."""
    with timed(recorder, "plan"):
        if plan is not None:
            check_plan(field, plan)
            return plan
        n_segments = segment_count(n_segments)  # checked even where the plan needs one segment
        return segment_plan(field, 1 if field.constant_interior else n_segments)


def _window(field: PlanarField, n_segments, lo: float, hi: float, stop: int,
            recorder: Recorder | None = None):
    """A function that matches checked channels in [lo, hi] on the field's `_plan`, and,
    unless the interior is constant, on one `transfer.product_interpolant` of the window
    (layer "fits", declined or not) with ``stop``."""
    plan, interpolant = _plan(field, n_segments, recorder), None
    if not field.constant_interior:
        with timed(recorder, "fits"):
            interpolant = product_interpolant(plan, lo, hi, stop, recorder)
    return lambda channels: _match(field, channels, plan, interpolant, recorder)


def _match(field: PlanarField, channels, plan: SegmentPlan, interpolant,
           recorder: Recorder | None) -> ScatterBatch:
    """The ScatterBatch of checked channels on the ``interpolant``'s gamma (layer "fits"), or
    without one on the `ordered_product` ("product"); a ``recorder`` gets its diagnostics."""
    energies = channels[0]
    with timed(recorder, "product" if interpolant is None else "fits"):
        gamma = ordered_product(plan, energies) if interpolant is None else interpolant(energies)
    conditions = None if recorder is None else []
    with timed(recorder, "matching"):
        k = channels[1].T
        rho, tau = _lead_step(k)  # (2, n) diagonals
        left = _star((rho, tau, -rho, tau), _wire_block(gamma, conditions), conditions)
        r, t = _star(left, (-rho, tau), conditions)
        t = np.exp(-1j * k * field.length)[:, None] * t  # the right lead's waves carry diag(exp(i k L))
        # C-contiguous (n, 2, 2) stacks: np.matmul rounds the flux check of a strided one differently
        r, t = (np.ascontiguousarray(x.transpose(2, 0, 1)) for x in (r, t))
    with timed(recorder, "assembly"):
        batch = build_results(t, r, channels, plan.n_segments, gamma)
    if recorder is not None:
        recorder.per_energy = dict(
            energy=batch.energy, growth=evanescent_growth(plan, batch.energy),
            rcond=np.min(conditions, axis=0), k_min=np.abs(batch.k).min(axis=1),
            flux_defect=batch.unitarity_defect, flow_defect=batch.flow_defect,
        )
    return batch


def solve_scattering_sweep(
    field: PlanarField,
    energies,
    n_segments: int = DEFAULT_SEGMENTS,
    recorder: Recorder | None = None,
) -> ScatterBatch:
    """Scattering matrices of a sweep's grid, its products taken from a Chebyshev interpolant.

    The grid is matched exactly, as a batch is, on the gamma of one
    `transfer.product_interpolant` of its window [min E, max E] with fewer
    nodes than the grid has energies; that function states the node rule and
    when it declines.  A field with a constant interior, and a grid the
    interpolant declines, is solved byte for byte as `solve_scattering_batch`
    would.  A ``recorder`` is filled as a batch's is, and also times the
    interpolant's granule products, layer "granules", and the rest of it, "fits".
    """
    channels = scattering_channels(energies)
    grid = channels[0]
    return _window(field, n_segments, grid.min(), grid.max(), grid.size - 1, recorder)(channels)


def solve_scattering(
    field: PlanarField,
    energy: float,
    n_segments: int = DEFAULT_SEGMENTS,
    recorder: Recorder | None = None,
) -> ScatterResult:
    """Scattering matrices of the field at one energy: the first result of a batch of one."""
    return solve_scattering_batch(field, [float(energy)], n_segments, recorder=recorder)[0]


def physical_mask(two_channel) -> np.ndarray:
    """The (..., 2, 2) mask of the physical entries of t, r and P for a `two_channel` flag
    or array: all four with both lead channels open, else the (0, 0) entry alone."""
    return np.where(np.asarray(two_channel)[..., None, None], True, [[True, False], [False, False]])


def transmission_columns(batch: ScatterBatch | ScatterResult) -> dict[str, np.ndarray]:
    """Labeled probability columns of a batch, keyed by matrix indices.

    P{l}{l'} is the probability to go from incoming channel l' to outgoing
    channel l; R00sq is the lower-channel reflection probability.  For
    antiparallel leads P00 is the spin-flip transmission; for orthogonal leads
    it feeds the balanced-mixing channel.  Single-channel energies mask every
    entry except the lower-to-lower ones, which carry all the current
    (`physical_mask`).  A lone ScatterResult gives 0-d columns.
    """
    p = batch.probabilities
    masked = np.where(physical_mask(batch.two_channel), p, 0.0)
    return {
        "P00": p[..., 0, 0], "P01": masked[..., 0, 1], "P10": masked[..., 1, 0],
        "P11": masked[..., 1, 1], "R00sq": _abs2(batch.r[..., 0, 0]),
    }


def transmission_probabilities(result: ScatterResult) -> dict[str, float]:
    """The probability table of one result: its `transmission_columns`, as floats."""
    return {key: float(column) for key, column in transmission_columns(result).items()}


def fermi_occupation(energy: np.ndarray, mu: float, temperature: float) -> np.ndarray:
    """Fermi-Dirac occupations 1 / (1 + e^((E - mu) / T)) of an energy array; a step at T = 0."""
    if temperature == 0.0:
        return (energy < mu).astype(float)
    return np.exp(-np.logaddexp(0.0, (energy - mu) / temperature))


def landauer_current(
    field: PlanarField,
    mu_left: float,
    mu_right: float,
    temperature: float,
    n_segments: int = DEFAULT_SEGMENTS,
) -> float:
    """Two-terminal current I = (1/2 pi) int G_E (f_L - f_R) dE, by adaptive Gauss-Legendre.

    The window is [max(min mu - tau T, -1), max mu + tau T], tau = ln(2/eps),
    past which each occupation tail is under eps; nothing scatters at or below
    E = -1.  It is cut at both band edges, at E = 0 between them, and at both
    potentials.  Each panel integrates in u, E = anchor +- u^2, anchored on
    its end on a band edge, which removes G's square-root onset there, or on
    its lower end.  Each level takes a 16-point rule on both halves of every
    open panel (and, at the first, on the panels themselves) in one batch.
    A panel is done when its halves agree with it to CURRENT_TOL times its
    share of the window; the others are halved again.

    G_E is matched at every node, on gamma from one `transfer.product_interpolant`
    of the whole window, fitted before the first level with fewer nodes than
    that level solves; where it declines, and on a field with a constant
    interior, each level is matched on its `ordered_product`, as a batch is
    (`solve_scattering_sweep` shares this route).  Where the flux
    identity fails, G is known no better than the flux defect, so a level
    whose defects, each weighted as the rule weights that node's G (occupation
    included), sum past CURRENT_TOL (or to NaN) raises ArithmeticError at
    once, naming the worst node; so does a current not done within
    CURRENT_MAX_SOLVES energies.  A node within rounding of a band edge, where
    the flux defect grows like eps / k, weighs about k and passes.

    A non-finite mu or T, a negative T and a bad count are refused before any
    solve.  Zero bias, and a window at or below E = -1, carry no current: 0.0.
    """
    if not np.isfinite([mu_left, mu_right]).all():
        raise ValueError(f"chemical potentials must be finite, not NaN: {mu_left}, {mu_right}")
    if not (np.isfinite(temperature) and temperature >= 0.0):
        raise ValueError(f"temperature must be non-negative and finite, got {temperature}")
    n_segments = segment_count(n_segments)
    tail = _TAIL * temperature
    lo, hi = max(min(mu_left, mu_right) - tail, E_LOWER), max(mu_left, mu_right) + tail
    if mu_left == mu_right or hi <= E_LOWER:
        return 0.0
    from numpy.polynomial.legendre import leggauss  # here, so `import spinwire` stays lean

    x, w = leggauss(16)
    cuts = np.unique(np.clip([lo, hi, E_LOWER, 0.0, E_UPPER, mu_left, mu_right], lo, hi))
    a, b = cuts[:-1], cuts[1:]
    side = np.where(np.isin(b, (E_LOWER, E_UPPER)), -1.0, 1.0)
    panels = np.column_stack([np.zeros_like(a), np.sqrt(b - a), np.where(side < 0, b, a), side])
    # the first level solves 3 x.size nodes per panel; the fit takes fewer
    solve = _window(field, n_segments, lo, hi, 3 * x.size * len(panels) - 1)
    current, whole, solves = 0.0, None, 0
    while len(panels):
        halves = np.repeat(panels, 2, axis=0)
        halves[0::2, 1] = halves[1::2, 0] = 0.5 * (panels[:, 0] + panels[:, 1])
        solved = halves if whole is not None else np.concatenate([panels, halves])
        solves += x.size * len(solved)
        if solves > CURRENT_MAX_SOLVES:
            raise ArithmeticError(f"the current did not converge in {CURRENT_MAX_SOLVES} solves")
        u0, u1, anchor, side = solved.T[..., None]
        u = u0 + 0.5 * (u1 - u0) * (1.0 + x)
        energies = anchor + side * u * u
        # a node that rounds onto its anchor, a band edge maybe, moves one float into its panel
        energies = np.where(energies == anchor, np.nextafter(anchor, anchor + side), energies)
        occ = (fermi_occupation(energies, mu_left, temperature)
               - fermi_occupation(energies, mu_right, temperature))
        batch = solve(scattering_channels(energies.ravel()))
        # how far each node's G may be off, its flux defect, can move the integral
        risk = batch.unitarity_defect * np.abs(occ * u * w * (u1 - u0)).ravel()
        if not risk.sum() <= CURRENT_TOL:  # a NaN defect fails too
            worst = int(np.argmax(risk))
            raise ArithmeticError(
                f"the flux defect at E = {batch.energy[worst]:.12g} is "
                f"{batch.unitarity_defect[worst]:.3g}: the level's defects could move the "
                f"current past its tolerance {CURRENT_TOL:g}"
            )
        # dE = 2u du, times the rule's half-width (u1 - u0) / 2
        parts = (batch.conductance.reshape(u.shape) * occ * u) @ w * (u1 - u0)[:, 0]
        whole, parts = (whole, parts) if whole is not None else np.split(parts, [len(panels)])
        parts = parts.reshape(-1, 2)
        share = (panels[:, 1] ** 2 - panels[:, 0] ** 2) / (hi - lo)
        done = np.abs(parts.sum(axis=1) - whole) <= CURRENT_TOL * share
        current += parts[done].sum()
        panels, whole = halves.reshape(-1, 2, 4)[~done].reshape(-1, 4), parts[~done].ravel()
    return float(current / (2.0 * np.pi))
