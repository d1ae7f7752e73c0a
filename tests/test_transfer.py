import concurrent.futures
import dataclasses
import gc
import itertools
import math
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinwire import transfer
from spinwire.core import J4, EvanescentOverflowError, hs_norm
from spinwire.berry import planar_rotation
from spinwire.fields import (
    PlanarField,
    TabulatedField,
    WindingField,
    magnetic_wall_field,
    scheme1_field,
    scheme2_field,
    uniform_field,
)
from spinwire.scattering import solve_scattering, solve_scattering_batch
from spinwire.transfer import (
    GROWTH_GUARD,
    W_MAX,
    ordered_product,
    _propagator_entries,
    _series_entries,
    flow_defect,
    gamma_piecewise,
    gamma_piecewise_batch,
    segment_plan,
)


def dblock_oracle(q, length):
    """Scaling-and-squaring exponential of the 4x4 generator."""
    gen = np.zeros((4, 4), dtype=complex)
    gen[:2, 2:] = np.eye(2)
    gen[2:, :2] = -np.asarray(q, dtype=complex)
    return expm(gen * length)


def propagator(q_diag, length):
    """D_length(Q) for a diagonal Q, assembled from `_propagator_entries`."""
    c, s, ms = _propagator_entries(np.asarray(q_diag), length)
    return np.block([[np.diag(c), np.diag(s)], [np.diag(ms), np.diag(c)]])


class TestDblock:
    """The per-segment propagator D_L(Q) on the diagonal Q the engine builds."""

    def test_scalar_block_matches_plane_wave_form(self):
        k = 1.7
        length = 2.3
        got = propagator([k**2, k**2], length)
        c, s = np.cos(k * length), np.sin(k * length)
        want = np.block(
            [[c * np.eye(2), (s / k) * np.eye(2)], [-k * s * np.eye(2), c * np.eye(2)]]
        )
        assert np.allclose(got, want, atol=1e-14)

    def test_zero_length_is_identity(self):
        assert np.allclose(propagator([2.0, -1.0], 0.0), np.eye(4), atol=1e-15)

    def test_mixed_signature_matches_expm_oracle(self):
        q = [4.0, -9.0]
        got = propagator(q, 0.3)
        assert np.max(np.abs(got - dblock_oracle(np.diag(q), 0.3))) < 1e-12

    @given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_random_hermitian_matches_expm(self, a, d, length):
        # the engine's Q is diagonal in the local eigenbasis
        got = propagator([a, d], length)
        want = dblock_oracle(np.diag([a, d]), length)
        assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))

    def test_preserves_symplectic_form(self, rng):
        for _ in range(20):
            d = propagator(rng.normal(size=2) * 5.0, 0.7)
            assert hs_norm(d.conj().T @ J4 @ d - J4) < 1e-10


class TestSegmentPlan:
    def test_uniform_plan_is_trivial(self):
        plan = segment_plan(uniform_field(0.8, 2.0), 16)
        assert np.allclose(plan.jumps, np.broadcast_to(np.eye(2), (17, 2, 2)), atol=1e-15)
        assert np.allclose(plan.magnitudes, 1.0)

    def test_scheme1_jump_angles_telescope(self):
        plan = segment_plan(scheme1_field(0, 0, 3.0), 4096)
        half_angles = np.arctan2(plan.jumps[:, 1, 0], plan.jumps[:, 0, 0])
        assert np.sum(half_angles) == pytest.approx(np.pi / 2, abs=1e-10)

    def test_wall_plan_concentrates_rotation(self):
        w = magnetic_wall_field(0.3, 2.1, 2.0)
        plan = segment_plan(w, 1)
        assert np.allclose(plan.magnitudes, 0.0)
        assert np.allclose(plan.jumps[0], np.eye(2))
        assert np.allclose(plan.jumps[1], planar_rotation(1.8), atol=1e-15)

    def test_needs_at_least_one_segment(self):
        with pytest.raises(ValueError):
            segment_plan(uniform_field(0.0, 1.0), 0)

    @pytest.mark.parametrize("n_segments", [-2, 2.5, float("nan"), float("inf")])
    def test_segment_count_must_be_a_positive_whole_number(self, n_segments):
        with pytest.raises(ValueError, match="need a whole number of segments >= 1"):
            segment_plan(uniform_field(0.0, 1.0), n_segments)

    def test_integral_float_count_is_that_count(self):
        f = scheme1_field(1, 1, 3.0)
        a, b = segment_plan(f, 64.0), segment_plan(f, np.int64(64))
        assert type(a.n_segments) is type(b.n_segments) is int and a.n_segments == 64
        assert np.array_equal(a.jumps, b.jumps) and np.array_equal(a.magnitudes, b.magnitudes)


class TestGammaPiecewise:
    def test_uniform_field_reduces_to_dblock(self):
        length, energy = 2.5, 3.2
        tm = gamma_piecewise(uniform_field(1.0, length), energy, 32)
        want = dblock_oracle(np.diag([energy + 1.0, energy - 1.0]), length)
        assert np.max(np.abs(tm.gamma_tilde - want)) < 1e-12
        assert np.allclose(tm.berry, np.eye(2), atol=1e-15)

    def test_zero_field_wall_closed_form(self):
        length, energy = 1.5, 4.0
        theta_r = 2.2
        tm = gamma_piecewise(magnetic_wall_field(0.0, theta_r, length), energy, 8)
        u = planar_rotation(theta_r)
        k = np.sqrt(energy)
        c, s = np.cos(k * length), np.sin(k * length)
        want = np.block([[c * u, (s / k) * u], [-k * s * u, c * u]])
        assert np.max(np.abs(tm.gamma - want)) < 1e-12

    def test_short_wall_limit_is_pure_rotation(self):
        tm = gamma_piecewise(magnetic_wall_field(0.0, 1.0, 1e-12), 2.0, 1)
        u = planar_rotation(1.0)
        want = np.block([[u, np.zeros((2, 2))], [np.zeros((2, 2)), u]])
        assert np.max(np.abs(tm.gamma - want)) < 1e-10

    def test_self_convergence_improves_with_doubling(self):
        f = scheme1_field(0, 0, 3.0)
        fine = gamma_piecewise(f, 3.0, 2048).gamma
        err = [
            np.max(np.abs(gamma_piecewise(f, 3.0, n).gamma - fine)) for n in (256, 512)
        ]
        assert err[0] / err[1] >= 2.0

    @pytest.mark.parametrize("energy", [-0.5, 0.3, 1.7, 5.0])
    def test_flow_invariant(self, energy):
        f = scheme2_field(0, 0, 6.0)
        tm = gamma_piecewise(f, energy, 512)
        assert flow_defect(tm.gamma_tilde) < 1e-8

    def test_determinant_is_one(self):
        tm = gamma_piecewise(scheme1_field(1, 0, 3.0), 2.4, 512)
        assert np.linalg.det(tm.gamma) == pytest.approx(1.0, abs=1e-9)

    def test_batch_matches_single_solves(self):
        f = scheme2_field(1, 0, 6.0)
        energies = np.array([0.5, 2.0, 7.0])
        gammas, tildes, berry = gamma_piecewise_batch(f, energies, 128)
        for i, e in enumerate(energies):
            tm = gamma_piecewise(f, e, 128)
            assert np.max(np.abs(gammas[i] - tm.gamma)) < 1e-12
            assert np.max(np.abs(tildes[i] - tm.gamma_tilde)) < 1e-12

    def test_growth_guard_triggers(self):
        with pytest.raises(EvanescentOverflowError):
            gamma_piecewise(scheme2_field(0, 0, 60.0), -0.99, 64)

    @pytest.mark.parametrize("energies", [[], [[0.5, 2.0]]])
    def test_empty_or_nested_batch_refused_at_entry(self, energies):
        with pytest.raises(ValueError, match="energies must be a non-empty 1-D batch"):
            gamma_piecewise_batch(scheme1_field(1, 0, 3.0), energies, 64)

    def test_entries_bounded_by_evanescent_envelope(self):
        f = scheme1_field(0, 0, 3.0)
        energy = -0.5
        tm = gamma_piecewise(f, energy, 256)
        kappa_max = np.sqrt(1.0 - energy)
        bound = 4.0 * np.exp(kappa_max * f.length)
        assert np.max(np.abs(tm.gamma_tilde)) < bound


def propagator_entries_reference(q, length):
    """The propagator pieces (c, s, -q s, growth) evaluated in complex128 throughout."""
    q = np.asarray(q, dtype=complex)
    z = np.sqrt(q)
    zl = z * length
    small = np.abs(zl) < 1e-4
    zl2 = zl * zl
    series = length * (1.0 - zl2 / 6.0 + zl2 * zl2 / 120.0)
    s = np.where(small, series, np.sin(zl) / np.where(small, 1.0, z))
    c = np.cos(zl)
    return c, s, -q * s, np.abs(zl.imag)


def series_entries_reference(q, length):
    """The tree rows' pieces (c, s, -q s, growth) in complex128.

    Where |w| <= W_MAX, w = q * -(length * length), c and s are Horner sums
    over k < _SERIES_TERMS of w^k / (2k)! and w^k * length / (2k + 1)!;
    beyond it they are `propagator_entries_reference`'s.
    """
    c, s, ms, growth = propagator_entries_reference(q, length)
    q = np.asarray(q, dtype=complex)
    w = q * -(length * length)
    cos_sum = np.zeros_like(w)
    sin_sum = np.zeros_like(w)
    for k in reversed(range(transfer._SERIES_TERMS)):
        cos_sum = cos_sum * w + 1.0 / math.factorial(2 * k)
        sin_sum = sin_sum * w + length / math.factorial(2 * k + 1)
    near = np.abs(w) <= W_MAX
    c, s = np.where(near, cos_sum, c), np.where(near, sin_sum, s)
    return c, s, np.where(near, -q * s, ms), growth


def initial_reference(plan, n_e):
    """The lead-side rotation every product starts from, as a complex stack."""
    gamma = np.zeros((n_e, 4, 4), dtype=complex)
    gamma[:, :2, :2] = plan.jumps[0]
    gamma[:, 2:, 2:] = plan.jumps[0]
    return gamma


def segment_factors_reference(plan, energies, entries=propagator_entries_reference):
    """Each segment's complex128 factor stack in segment order, under the growth guard."""
    n_e = energies.shape[0]
    growth = np.zeros(n_e)
    for j in range(plan.n_segments):
        mag = plan.magnitudes[j]
        q = np.stack([energies + mag, energies - mag], axis=-1)
        c, s, ms, kappa = entries(q, plan.seg_length)
        growth += kappa.max(axis=-1)
        if growth.max() > GROWTH_GUARD:
            raise EvanescentOverflowError("evanescent growth")
        u = plan.jumps[j + 1]
        factor = np.empty((n_e, 4, 4), dtype=complex)
        factor[:, :2, :2] = u * c[:, None, :]
        factor[:, :2, 2:] = u * s[:, None, :]
        factor[:, 2:, :2] = u * ms[:, None, :]
        factor[:, 2:, 2:] = u * c[:, None, :]
        yield factor


def ordered_product_reference(plan, energies):
    """Complex128 per-segment loop that builds each factor and multiplies it on the left."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    gamma = initial_reference(plan, energies.shape[0])
    for factor in segment_factors_reference(plan, energies):
        gamma = factor @ gamma
    return gamma


def pairwise_reference(level):
    """A list of matrix stacks reduced pair by pair, the later one on the left and an
    odd one carried up unchanged."""
    while len(level) > 1:
        pairs = [later @ earlier for earlier, later in zip(level[::2], level[1::2])]
        level = pairs + level[2 * len(pairs) :]
    return level[0]


def tree_product_reference(plan, energies, granule=transfer._GRANULE):
    """Complex128 product over granules of `granule` segments counted from segment 0.

    Each granule is reduced pairwise (`pairwise_reference`), and so are the
    granule products, whose product then multiplies the lead-side rotation.
    The factors take the tree rows' pieces, `series_entries_reference`.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    factors = segment_factors_reference(plan, energies, series_entries_reference)
    granules = [
        pairwise_reference([next(factors) for _ in range(min(granule, plan.n_segments - g0))])
        for g0 in range(0, plan.n_segments, granule)
    ]
    return pairwise_reference(granules) @ initial_reference(plan, energies.shape[0])


# K = diag(1, -1, -1, 1): K F K = F^-1 for every jump and propagator the engine builds
K4 = np.diag([1.0, -1.0, -1.0, 1.0])


def mirror_product_reference(plan, energies):
    """Complex128 tree product of a mirror-symmetric plan from its first half.

    H is the tree product of the first N/2 segments, ending with the middle
    jump R_m; the second half is the first traversed backwards, so the
    product is K H^-1 K R_m^-1 H, with H^-1 = -J H^T J.
    """
    m = plan.n_segments // 2
    half = dataclasses.replace(
        plan, n_segments=m, magnitudes=plan.magnitudes[:m], jumps=plan.jumps[: m + 1],
        mirror_symmetric=False,
    )
    h = tree_product_reference(half, energies)
    mirrored = K4 @ (-J4 @ h.swapaxes(1, 2) @ J4) @ K4
    r_inv = np.kron(np.eye(2), plan.jumps[m].T).astype(complex)  # diag(u^T, u^T)
    return mirrored @ (r_inv @ h)


def block_products_reference(plan, energies, regroup):
    """`transfer._block_products` of the whole plan at once: every piece in one pass,
    each factor's rotation entries read from its jump, granules reduced by the
    engine's pairwise tree."""
    if regroup and plan.mirror_symmetric:
        m = plan.n_segments // 2
        plan = dataclasses.replace(plan, n_segments=m, magnitudes=plan.magnitudes[:m],
                                   jumps=plan.jumps[: m + 1], mirror_symmetric=False)
    granule, entries = ((transfer._GRANULE, transfer._series_entries) if regroup
                        else (1, transfer._propagator_entries))
    mags = plan.magnitudes[:, None]
    c, s, ms = entries(np.stack([energies + mags, energies - mags]), plan.seg_length)
    u = plan.jumps[1:, None]  # (segment, 1, 2, 2)
    factors = np.empty((plan.n_segments, energies.size, 4, 4))
    for a, b, piece in ((0, 0, c), (0, 1, s), (1, 0, ms), (1, 1, c)):
        # entry [2a + i, 2b + j] is u[i, j] times the piece of channel j
        factors[:, :, 2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = u * piece.transpose(1, 2, 0)[:, :, None, :]
    return transfer._pairwise_products(factors, granule)


def product_reference(plan, energies):
    """Row by row: the tree where the evanescent growth is within the regrouping
    limit (open energies have none), from the first half on a mirror-symmetric
    plan, and the loop where it is over."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    tree = transfer.evanescent_growth(plan, energies) <= transfer.REGROUP_GROWTH_LIMIT
    want = np.empty((energies.shape[0], 4, 4), dtype=complex)
    if not tree.all():
        want[~tree] = ordered_product_reference(plan, energies[~tree])
    if tree.any():
        tree_reference = mirror_product_reference if plan.mirror_symmetric else tree_product_reference
        want[tree] = tree_reference(plan, energies[tree])
    return want


def tabulated_field():
    src = scheme2_field(1, 0, 4.0)
    ys = np.linspace(0.0, 4.0, 201)
    b1, b3 = src.components(ys)
    return TabulatedField(ys, np.asarray(b1, dtype=float), np.asarray(b3, dtype=float))


PRODUCT_FIELDS = {
    "scheme1": lambda: scheme1_field(1, 0, 3.0),
    "scheme2": lambda: scheme2_field(0, 1, 6.0),
    "wall": lambda: magnetic_wall_field(0.3, 2.1, 2.0),
    "tabulated": tabulated_field,
}


class TestBlockedProduct:
    """The blocked real product reproduces its complex reference bit for bit.

    The reference is the granule tree, with the series pieces, for an energy
    whose evanescent growth is within the regrouping limit, and the
    per-segment loop, with the trig pieces, for one over it
    (`product_reference`).
    """

    def test_entries_are_the_real_parts_of_the_complex_ones(self):
        # both signs, the small-|z h| series branch and q = 0 itself
        q = np.array([-50.0, -1.0, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 0.3, 50.0])
        for length in (1e-3, 0.1, 2.0):
            got = _propagator_entries(q, length)
            want = propagator_entries_reference(q, length)
            assert len(got) == 3
            for g, w in zip(got, want[:3]):
                assert g.dtype == np.float64
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("length", [6 / 4096, 40 / 4096, 3 / 16384, 0.1, 2.0, 50.0])
    def test_entries_pinned_bit_for_bit(self, length):
        # 20k seeded eigenvalues per length (120k in all), both sides of the
        # x = sqrt(|q|) * length < 1e-4 series cut for either sign, signed
        # zeros, subnormals, and an all-open and an all-closed array
        rng = np.random.default_rng(20261018)
        x_cut = 1e-4 * (1.0 + 1e-15 * np.arange(-40, 41))
        q_cut = (x_cut / length) ** 2
        near_cut = np.concatenate([q_cut, -q_cut])
        small = np.sqrt(np.abs(near_cut)) * length < 1e-4
        for sign in (near_cut > 0, near_cut < 0):
            assert small[sign].any() and not small[sign].all()
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300])
        mixed = np.concatenate([rng.uniform(-3.0, 12.0, 19_000), near_cut, special])
        for q in (mixed, rng.uniform(0.0, 12.0, 500), rng.uniform(-3.0, -1e-3, 500)):
            got = _propagator_entries(q, length)
            c, s, ms, _ = propagator_entries_reference(q, length)
            assert len(got) == 3
            for g, w in zip(got, (c, s, ms)):
                assert g.dtype == np.float64
                assert np.array_equal(g, w)
            # signed zeros too; -q * s is taken in real arithmetic on the real s
            for g, w in zip(got, (c.real, s.real, -q * s.real)):
                assert np.array_equal(np.signbit(g), np.signbit(w))

    @pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
    @pytest.mark.parametrize("n_segments", [1, 7, 512])
    def test_bit_identical_to_per_segment_loop(self, name, n_segments):
        plan = segment_plan(PRODUCT_FIELDS[name](), n_segments)
        # complex rotations give the complex references the same bits as real ones
        complex_plan = dataclasses.replace(plan, jumps=plan.jumps.astype(complex))
        # -0.5 is closed on every field; 2.5 is open on every field, 0.3 on the
        # wall only; every growth here is within the regrouping limit
        energies = np.array([-0.5, 0.3, 2.5])
        for batch in (energies, energies[:1], energies[1:2], energies[2:]):
            got = ordered_product(plan, batch)
            assert got.dtype == np.float64
            # array_equal against a complex array also asserts a zero imaginary part
            assert np.array_equal(got, product_reference(plan, batch))
            assert np.array_equal(got, product_reference(complex_plan, batch))

    @pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
    def test_sub_range_and_small_blocks(self, name, monkeypatch):
        # a budget of 5 segments of 16 float64 entries for the whole batch, so
        # block boundaries fall inside the plan; a batch of one crosses them as
        # a stack of one.  The tree's rows round their blocks up to whole
        # granules of 32 segments.
        plan = segment_plan(PRODUCT_FIELDS[name](), 64)
        energies = np.array([-0.5, 0.3, 2.5])
        for batch in (energies, energies[1:2], energies[2:]):
            monkeypatch.setattr(transfer, "_BLOCK_BYTES", 5 * 16 * 8 * batch.size)
            want = product_reference(plan, batch)
            assert np.array_equal(ordered_product(plan, batch), want)

    @pytest.mark.parametrize(
        "field, n_segments",
        [(scheme2_field(0, 1, 6.0), 4096), (scheme2_field(0, 1, 6.0), 4095),
         (scheme1_field(1, 0, 3.0), 150), (tabulated_field(), 64)],
        ids=["mirror-half", "whole-odd", "mirror-short-granule", "whole-coarse"],
    )
    @pytest.mark.parametrize("regroup", [True, False], ids=["tree", "chain"])
    @pytest.mark.parametrize("budget", ["default", "rows-32", "bytes-5-rows"])
    def test_spans_and_blocks_give_the_same_granule_products(self, field, n_segments, regroup,
                                                              budget, monkeypatch):
        # the pieces are taken once per span of whole blocks: one span of 2560 rows
        # and a last one of 1536 for a lone energy on 4096 segments, the whole
        # 2048-row half in one, 512 rows for 5 energies, one block for 9 and 20;
        # 32-row blocks put several in a span at 20 energies, and a budget of 5
        # factor rows one block in each.  30 is past W_MAX at 64 segments.
        plan = segment_plan(field, n_segments)
        for energies in ([-0.5], [30.0], np.linspace(-0.9, 4.0, 5), np.linspace(-0.9, 30.0, 9),
                         np.linspace(-0.95, 30.0, 20)):
            energies = np.asarray(energies)
            if budget == "rows-32":
                monkeypatch.setattr(transfer, "_BLOCK_ROWS", 32)
            elif budget == "bytes-5-rows":
                monkeypatch.setattr(transfer, "_BLOCK_BYTES", 5 * 16 * 8 * energies.size)
            # a lone factor is a view of the block buffer: copy it before the next block
            got = np.concatenate([p.copy() for p in transfer._block_products(plan, energies, regroup)])
            assert np.array_equal(got, block_products_reference(plan, energies, regroup))

    @pytest.mark.parametrize(
        "n_e, regroup, spans",
        [(1, True, [2048]), (1, False, [2560, 1536]), (5, False, [512] * 8), (6, False, [256] * 16),
         (9, True, [256] * 8), (20, False, [256] * 16)],
    )
    def test_pieces_are_taken_once_per_span(self, n_e, regroup, spans, monkeypatch):
        # a span holds the whole blocks whose pieces fit in _BLOCK_BYTES // 8: more
        # than one block only up to 5 energies, and the tree rows of a mirror plan
        # run over its first 2048 segments
        name = "_series_entries" if regroup else "_propagator_entries"
        rows, entries = [], getattr(transfer, name)
        monkeypatch.setattr(transfer, name, lambda q, length: rows.append(q.shape[1]) or entries(q, length))
        plan = segment_plan(scheme2_field(0, 1, 6.0), 4096)
        for _ in transfer._block_products(plan, np.linspace(0.5, 3.0, n_e), regroup):
            pass
        assert rows == spans

    def test_one_energy_product_peak_allocation(self):
        # row-capped blocks keep a one-energy call's temporaries small (2.3 MiB
        # with one 4096-row block), so the heap top is not trimmed and re-faulted;
        # the closed 0.7 and the open 2.5 run the granule tree, and -0.5 on the
        # long wire is over the regrouping limit and chains per segment
        short = segment_plan(scheme1_field(1, 1, 6.0), 4096)
        long = segment_plan(scheme1_field(0, 0, 20.0), 4096)
        for plan, energy in ((short, 0.7), (short, 2.5), (long, -0.5)):
            tracemalloc.start()
            try:
                ordered_product(plan, np.array([energy]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 512 * 1024, energy

    def test_batch_equals_chunks_and_single_energies(self):
        f = scheme2_field(1, 0, 5.0)
        energies = np.linspace(-0.99, 10.0, 600)
        whole = solve_scattering_batch(f, energies, 512)
        chunks = [
            res
            for part in np.array_split(energies, 7)
            for res in solve_scattering_batch(f, part, 512)
        ]
        singles = [solve_scattering_batch(f, [e], 512)[0] for e in energies]
        for got in (chunks, singles):
            for a, b in zip(whole, got):
                assert np.array_equal(a.t, b.t)
                assert np.array_equal(a.r, b.r)

    def test_growth_guard_trips_where_the_reference_sum_does(self):
        # uniform field at E = -0.99: each segment of length 50/64 adds
        # (50/64) * sqrt(1.99) ~ 1.1 to the growth, which passes 60 in segment 55;
        # the first 48 segments (length 37.5) stay below it
        energies = np.array([-0.99])
        head = segment_plan(uniform_field(0.0, 37.5), 48)
        assert np.isfinite(ordered_product(head, energies)).all()
        plan = segment_plan(uniform_field(0.0, 50.0), 64)
        with pytest.raises(EvanescentOverflowError):
            ordered_product_reference(plan, energies)
        with pytest.raises(EvanescentOverflowError):
            ordered_product(plan, energies)

    def test_overflowing_batch_builds_no_factor(self, monkeypatch):
        # the guard is decided for the whole batch before the first block
        calls = []
        entries = transfer._propagator_entries
        monkeypatch.setattr(
            transfer, "_propagator_entries", lambda *args: calls.append(1) or entries(*args)
        )
        plan = segment_plan(uniform_field(0.0, 50.0), 64)
        for batch in ([-0.99], [2.5, -0.99], [0.0, -0.99]):
            with pytest.raises(EvanescentOverflowError, match=r"exceeds exp\(60\)"):
                ordered_product(plan, np.array(batch))
        assert not calls
        ordered_product(plan, np.array([2.5, 0.0]))  # growth 50 at E = 0
        assert calls


ENTRY_LENGTHS = [6 / 4096, 40 / 4096, 3 / 16384, 0.1, 2.0, 50.0]


def ulps(got, want):
    """|got - want| in units of the spacing of floats at |want|."""
    return np.abs(got - want) / np.spacing(np.abs(want))


class TestSeriesEntries:
    """The tree rows' pieces: a Taylor series in w = -q h^2 within W_MAX, trig beyond."""

    @pytest.mark.parametrize("length", ENTRY_LENGTHS)
    def test_entries_are_the_reference_horner_bit_for_bit(self, length):
        # 20k seeded eigenvalues per length (120k in all): the sweep's range,
        # eigenvalues within twice the cut, both sides of |w| = W_MAX for
        # either sign, signed zeros, subnormals, and an all-near and an
        # all-far array
        rng = np.random.default_rng(20261020)
        q_cut = W_MAX / length**2
        cut = q_cut * (1.0 + 1e-15 * np.arange(-40, 41))
        near_cut = np.concatenate([cut, -cut])
        near = np.abs(near_cut * -(length * length)) <= W_MAX
        for sign in (near_cut > 0, near_cut < 0):
            assert near[sign].any() and not near[sign].all()
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300])
        sweep_range = rng.uniform(-3.0, 12.0, 9_000)
        within_twice = rng.uniform(-2.0, 2.0, 10_000) * q_cut
        mixed = np.concatenate([sweep_range, within_twice, near_cut, special])
        all_near = rng.uniform(-0.99, 0.99, 500) * q_cut
        all_far = rng.choice([-1.0, 1.0], 500) * rng.uniform(1.01, 3.0, 500) * q_cut
        for q in (mixed, all_near, all_far):
            got = _series_entries(q, length)
            c, s, ms, _ = series_entries_reference(q, length)
            assert got.shape == (3, q.size) and got.dtype == np.float64
            for g, w in zip(got, (c, s, ms)):
                assert np.array_equal(g, w)
            for g, w in zip(got, (c.real, s.real, -q * s.real)):
                assert np.array_equal(np.signbit(g), np.signbit(w))
        # beyond the cut the pieces are the trig ones, bit for bit
        assert np.array_equal(
            _series_entries(all_far, length), _propagator_entries(all_far, length)
        )

    @pytest.mark.parametrize("length", ENTRY_LENGTHS)
    def test_within_ulps_of_the_trig_reference(self, length):
        # the complex trig reference is itself up to 2.9 ulp off the exact
        # s (sqrt, sin and a division each round), so s and -q s may lie 3
        # and 4 ulp from it
        q = np.random.default_rng(20261021).uniform(-1.0, 1.0, 20_000) * W_MAX / length**2
        got = _series_entries(q, length)
        want = propagator_entries_reference(q, length)
        for g, w, bound in zip(got, want, (1, 3, 4)):
            assert ulps(g, w.real).max() <= bound

    def test_within_ulps_of_the_exact_series(self):
        # exact rational sums of 8 terms, whose tail is below W_MAX^8 / 16! ~ 1e-48.
        # c: half an ulp of rounding plus a truncation of at most eps / 2, which
        # is one ulp of a cosine just below 1; s: the rounding of h plus a small
        # correction; -q s: one more rounding
        rng = np.random.default_rng(20261022)
        for length in ENTRY_LENGTHS:
            q = rng.uniform(-1.0, 1.0, 300) * W_MAX / length**2
            got = _series_entries(q, length)
            h = Fraction(length)
            for j, qj in enumerate(q):
                w = -Fraction(qj) * h * h
                c = sum(w**k / math.factorial(2 * k) for k in range(8))
                s = h * sum(w**k / math.factorial(2 * k + 1) for k in range(8))
                for g, exact, bound in zip(got[:, j], (c, s, -Fraction(qj) * s), (1.5, 1.0, 1.5)):
                    spacing = Fraction(np.spacing(abs(float(exact))))
                    assert abs(Fraction(float(g)) - exact) <= bound * spacing

    def test_cut_is_where_the_first_omitted_term_reaches_half_eps(self):
        n = transfer._SERIES_TERMS
        eps = np.finfo(float).eps
        cos_term = Fraction(W_MAX) ** n / math.factorial(2 * n)
        # to the rounding of the n-th root: a few ulp of W_MAX, n times as many of its power
        assert abs(cos_term / (Fraction(eps) / 2) - 1) <= 4 * n * eps
        assert Fraction(W_MAX) ** n / math.factorial(2 * n + 1) < cos_term
        # every entry of the sweep's products at 4096 segments is within the cut
        for scheme, q1, q2, length in SWEEP_WIRES.values():
            plan = segment_plan(scheme(q1, q2, length), 4096)
            assert (5.0 + plan.magnitudes.max()) * plan.seg_length**2 < W_MAX

    def test_blocks_mixing_near_and_far_entries_keep_each_energy_alone(self):
        # at 64 segments h^2 = 0.0088, so the cut falls at |q| = 0.0049 and only
        # eleven energies of the grid have entries within it
        plan = segment_plan(scheme2_field(1, 0, 6.0), 64)
        energies = np.linspace(-1.0, 40.0, 600)
        q = np.stack([energies[:, None] + plan.magnitudes, energies[:, None] - plan.magnitudes])
        near = (np.abs(q * -(plan.seg_length**2)) <= W_MAX).any(axis=(0, 2))
        assert near.sum() == 11
        assert np.all(transfer.evanescent_growth(plan, energies) <= transfer.REGROUP_GROWTH_LIMIT)
        whole = ordered_product(plan, energies)
        singles = np.concatenate([ordered_product(plan, [e]) for e in energies])
        assert np.array_equal(singles, whole)
        assert np.array_equal(whole, product_reference(plan, energies))
        # the near entries move the bits of those energies' products only
        trig = ordered_product(dataclasses.replace(plan, mirror_symmetric=False), energies)
        assert not np.array_equal(whole, trig)


# fields whose evanescent growth crosses the regrouping limit at a closed
# scattering energy: E = -0.21, -0.79 and -0.79 at 150 segments
EDGE_FIELDS = {
    "scheme1": lambda: scheme1_field(0, 0, 10.0),
    "uniform": lambda: uniform_field(0.0, 8.0),
    "wall": lambda: magnetic_wall_field(0.3, 2.1, 12.0),  # |B| = 0: growth L sqrt(-E)
}


def growth_edge(plan):
    """The lowest energy whose evanescent growth is within the regrouping limit.

    The growth falls as the energy rises, so this bisects down to two
    adjacent floats; the one below the edge is over the limit.
    """
    lo, hi = plan.magnitudes.max() - 100.0, plan.magnitudes.max()
    while np.nextafter(lo, np.inf) < hi:
        mid = 0.5 * (lo + hi)
        if transfer.evanescent_growth(plan, np.array([mid]))[0] <= transfer.REGROUP_GROWTH_LIMIT:
            hi = mid
        else:
            lo = mid
    return hi


class TestOpenTree:
    """Energies within the regrouping limit run the granule tree; the others keep the loop."""

    @pytest.mark.parametrize("name", sorted(EDGE_FIELDS))
    def test_regime_edge_and_determinism(self, name, monkeypatch):
        # 150 segments: four whole granules and a short one of 22
        plan = segment_plan(EDGE_FIELDS[name](), 150)
        edge = growth_edge(plan)
        below = np.nextafter(edge, -np.inf)
        growth = transfer.evanescent_growth(plan, np.array([edge, below]))
        assert growth[0] <= transfer.REGROUP_GROWTH_LIMIT < growth[1]
        assert -1.0 < edge < plan.magnitudes.max()
        energies = np.concatenate([np.linspace(edge - 1.5, edge + 3.0, 598), [edge, below]])
        whole = ordered_product(plan, energies)
        # the edge itself runs the tree, the float just below it the loop
        assert np.array_equal(whole[-2], product_reference(plan, [edge])[0])
        assert np.array_equal(whole[-1], ordered_product_reference(plan, [below])[0])
        assert not np.array_equal(whole[-2], ordered_product_reference(plan, [edge])[0])
        singles = np.concatenate([ordered_product(plan, [e]) for e in energies])
        chunks = np.concatenate([ordered_product(plan, p) for p in np.array_split(energies, 7)])
        assert np.array_equal(singles, whole)
        assert np.array_equal(chunks, whole)
        # a budget of 5 segments for the whole batch cuts the loop rows'
        # blocks inside the plan, and the tree rows round theirs up to one
        # granule; no row moves
        monkeypatch.setattr(transfer, "_BLOCK_BYTES", 5 * 16 * 8 * energies.size)
        assert np.array_equal(ordered_product(plan, energies), whole)

    @pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
    def test_open_tree_within_roundoff_of_the_loop(self, name):
        plan = segment_plan(PRODUCT_FIELDS[name](), 4096)
        energies = plan.magnitudes.max() + np.linspace(0.0, 9.0, 600)
        got = ordered_product(plan, energies)
        want = ordered_product_reference(plan, energies)
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * scale)

    @pytest.mark.parametrize("scheme", [scheme1_field, scheme2_field])
    @pytest.mark.parametrize("length", [10.0, 20.0, 40.0])
    def test_evanescent_wires_keep_the_loop(self, scheme, length):
        # every energy of these wires has a closed channel; those whose growth
        # is over the regrouping limit keep the loop, and only they fail flux
        # unitarity, so the set of energies whose unstabilised product fails
        # cannot move
        field = scheme(0, 0, length)
        plan = segment_plan(field, 4096)
        energies = np.linspace(-0.95, 0.95, 20)
        assert np.all(energies < plan.magnitudes.max())
        got = ordered_product(plan, energies)
        over = transfer.evanescent_growth(plan, energies) > transfer.REGROUP_GROWTH_LIMIT
        assert np.array_equal(got[over], ordered_product_reference(plan, energies[over]))
        results = solve_scattering_batch(field, energies)
        assert np.all(over[[res.unitarity_defect > 1e-8 for res in results]])
        # one energy at a time takes the same grouping
        singles = np.concatenate([ordered_product(plan, [e]) for e in energies])
        assert np.array_equal(singles, got)
        assert np.array_equal(np.signbit(singles), np.signbit(got))


# the winding wires a 600-point sweep is measured on: both schemes, q1 in
# (0, 1, 10), q2 in (0, 1) and L in (3, 6)
SWEEP_WIRES = {
    f"{scheme.__name__[:7]}-{q1}-{q2}-{length:g}": (scheme, q1, q2, length)
    for scheme, q1, q2, length in itertools.product(
        (scheme1_field, scheme2_field), (0, 1, 10), (0, 1), (3.0, 6.0)
    )
}


class TestMirrorProduct:
    """A mirror-symmetric plan of even count builds its tree rows from its first half."""

    def test_k_inverts_every_jump_and_propagator(self):
        # the second half of a mirror plan is the first traversed backwards because
        # K F K = F^-1 for each jump R (exactly) and each propagator D of a factor R D
        plan = segment_plan(scheme2_field(1, 1, 6.0), 64)
        for u in plan.jumps:
            rotation = np.kron(np.eye(2), u)
            assert np.array_equal(K4 @ rotation @ K4, rotation.T)
        for energy, mag in itertools.product((-0.9, 0.3, 2.5, 8.0), plan.magnitudes):
            d = propagator([energy + mag, energy - mag], plan.seg_length)
            assert np.abs(K4 @ d @ K4 @ d - np.eye(4)).max() < 1e-14 * max(1.0, np.abs(d).max() ** 2)

    def test_sweep_plans_are_palindromes(self):
        # |B|(L - y) = |B|(y) and theta(L - y) = theta_L + theta_R - theta(y); the
        # largest deviation is 1.9e-14, on the jumps of q1 = 10, q2 = 1
        for scheme, q1, q2, length in SWEEP_WIRES.values():
            field = scheme(q1, q2, length)
            assert field.mirror_symmetric
            plan = segment_plan(field, 4096)
            assert plan.mirror_symmetric and not segment_plan(field, 4095).mirror_symmetric
            assert np.abs(plan.magnitudes - plan.magnitudes[::-1]).max() < 5e-14
            assert np.abs(plan.jumps - plan.jumps[::-1]).max() < 5e-14

    @pytest.mark.parametrize("wire", SWEEP_WIRES)
    def test_half_tree_within_roundoff_of_the_full_tree_and_the_loop(self, wire):
        scheme, q1, q2, length = SWEEP_WIRES[wire]
        plan = segment_plan(scheme(q1, q2, length), 4096)
        energies = np.linspace(-1.0, 5.0, 41)
        got = ordered_product(plan, energies)
        tree = transfer.evanescent_growth(plan, energies) <= transfer.REGROUP_GROWTH_LIMIT
        loop = transfer._chain(plan, transfer._block_products(plan, energies, False), energies.size, False)
        assert np.array_equal(got[~tree], loop[~tree])
        for want in (ordered_product(dataclasses.replace(plan, mirror_symmetric=False), energies), loop):
            scale = np.abs(want).max(axis=(1, 2))
            assert np.all(np.abs(got - want).max(axis=(1, 2))[tree] <= 1e-12 * scale[tree])

    def test_odd_counts_and_tabulated_fields_keep_the_full_tree(self):
        energies = np.array([-0.5, 0.3, 2.5])
        assert not TabulatedField.mirror_symmetric
        for field, n_segments in ((scheme1_field(1, 0, 3.0), 63),
                                  (scheme2_field(0, 1, 6.0), 129),
                                  (tabulated_field(), 128)):
            plan = segment_plan(field, n_segments)
            assert not plan.mirror_symmetric
            assert np.array_equal(ordered_product(plan, energies), product_reference(plan, energies))
            assert np.array_equal(
                ordered_product(plan, energies), tree_product_reference(plan, energies)
            )
        # an even count of the same winding field takes the half tree, whose bits differ
        plan = segment_plan(scheme1_field(1, 0, 3.0), 64)
        got = ordered_product(plan, energies)
        assert np.array_equal(got, product_reference(plan, energies))
        assert not np.array_equal(got, tree_product_reference(plan, energies))

    @pytest.mark.parametrize(
        "field, n_segments",
        [(scheme2_field(1, 1, 6.0), 4096), (scheme1_field(1, 0, 3.0), 4097), (tabulated_field(), 300)],
        ids=["mirror", "lone-last-segment", "tabulated-short-run"],
    )
    def test_collected_granules_chain_to_the_ordered_product(self, field, n_segments):
        # the granules a sweep collects and chains are the ones the product streams, bit for bit
        energies = np.array([-0.5, 0.3, 2.5])
        plan = segment_plan(field, n_segments)
        assert np.all(transfer.evanescent_growth(plan, energies) <= transfer.REGROUP_GROWTH_LIMIT)
        granules = np.concatenate(list(transfer._block_products(plan, energies, True)))
        tree_segments = n_segments // 2 if plan.mirror_symmetric else n_segments
        assert granules.shape == (-(-tree_segments // transfer._GRANULE), 3, 4, 4)
        assert np.array_equal(transfer._chain(plan, [granules], 3, True), ordered_product(plan, energies))

    @pytest.mark.parametrize("field, count", [(scheme2_field(1, 1, 6.0), 64), (tabulated_field(), 128)],
                             ids=["mirror", "tabulated"])
    def test_tree_rows_in_energy_chunks_equal_single_energies(self, field, count, monkeypatch):
        # the tree rows are reduced in chunks of energies whose granule products fit
        # in _BLOCK_BYTES: 64 granules on the mirror plan's first half, 128 on the
        # tabulated plan; a budget of 7 energies cuts 40 into six chunks
        plan = segment_plan(field, 4096)
        energies = np.linspace(-0.9, 5.0, 40)
        assert np.all(transfer.evanescent_growth(plan, energies) <= transfer.REGROUP_GROWTH_LIMIT)
        singles = np.concatenate([ordered_product(plan, [e]) for e in energies])
        assert transfer._granule_count(plan) == count
        monkeypatch.setattr(transfer, "_BLOCK_BYTES", 7 * count * 16 * 8)
        chunks, chain = [], transfer._chain
        monkeypatch.setattr(transfer, "_chain", lambda plan, blocks, n_e, regroup: (
            chunks.append(n_e) or chain(plan, blocks, n_e, regroup)))
        got = ordered_product(plan, energies)
        assert chunks == [7] * 5 + [5]
        assert got.tobytes() == singles.tobytes()

    def test_a_sweeps_tree_rows_hold_at_most_the_block_budget_of_granules(self, monkeypatch):
        # 600 energies on a 4096-segment plan that is not mirror-symmetric: 128
        # granule products of 128 bytes per energy, so 64 energies per chunk
        plan = segment_plan(scheme2_field(0, 1, 6.0), 4095)
        energies = np.linspace(-0.9, 5.0, 600)
        chunks, chain = [], transfer._chain
        monkeypatch.setattr(transfer, "_chain", lambda plan, blocks, n_e, regroup: (
            chunks.append(n_e) or chain(plan, blocks, n_e, regroup)))
        ordered_product(plan, energies)
        assert sum(chunks) == 600 and max(chunks) == 64
        assert max(chunks) * transfer._granule_count(plan) * 16 * 8 <= transfer._BLOCK_BYTES

    def test_batch_chunks_singles_and_blocks_agree_on_a_mirror_field(self, monkeypatch):
        # the growth crosses the regrouping limit inside the window, so the batch
        # holds half-tree and loop rows alike
        plan = segment_plan(scheme1_field(0, 0, 10.0), 4096)
        energies = np.linspace(-0.95, 3.0, 90)
        tree = transfer.evanescent_growth(plan, energies) <= transfer.REGROUP_GROWTH_LIMIT
        assert plan.mirror_symmetric and tree.any() and not tree.all()
        whole = ordered_product(plan, energies)
        singles = np.concatenate([ordered_product(plan, [e]) for e in energies])
        chunks = np.concatenate([ordered_product(plan, p) for p in np.array_split(energies, 7)])
        assert np.array_equal(singles, whole)
        assert np.array_equal(chunks, whole)
        # blocks of one granule, so block boundaries fall all through the half
        monkeypatch.setattr(transfer, "_BLOCK_BYTES", 5 * 16 * 8 * energies.size)
        assert np.array_equal(ordered_product(plan, energies), whole)


def record_block_products(monkeypatch):
    """The energy count of each `transfer._block_products` call, in order."""
    sizes, blocks = [], transfer._block_products

    def record(plan, energies, regroup):
        sizes.append(len(energies))
        return blocks(plan, energies, regroup)

    monkeypatch.setattr(transfer, "_block_products", record)
    return sizes


def interpolant_of_grid(plan, energies):
    """`product_interpolant` as a sweep calls it: the grid's window, its size less one as ``stop``."""
    return transfer.product_interpolant(plan, energies.min(), energies.max(), energies.size - 1)


class TestProductInterpolantDeclines:
    """`product_interpolant` returns None on the grids a sweep solves directly."""

    @pytest.mark.parametrize(
        "field, energies",
        [
            (scheme1_field(1, 1, 3.0), np.linspace(-0.999, 5.0, 25)),
            (scheme1_field(1, 1, 3.0), np.linspace(-0.999, 5.0, 21)),
            (scheme1_field(1, 1, 3.0), np.linspace(-0.999, 5.0, 9)),
            (scheme1_field(1, 1, 3.0), np.linspace(-0.999, 5.0, 2)),
            (scheme1_field(1, 1, 3.0), np.full(60, 2.0)),
            (scheme1_field(0, 0, 8.0), np.linspace(-1.0 + 1e-9, 5.0, 600)),
        ],
        ids=["short-grid", "short-grid-21", "short-grid-9", "short-grid-2", "zero-width",
             "over-the-growth-gate"],
    )
    def test_declines_before_any_factor_is_built(self, field, energies, monkeypatch):
        # 25 points or fewer are no more than the wire's first nodes, so a stop of at
        # most 24 declines before the granule products (the tail rule alone would take
        # 9 nodes, or 17 at 21 and 25 points); scheme1 (0, 0, 8) grows by e^11.1 at its
        # lowest energy, over the regrouping limit
        plan = segment_plan(field, 256)
        sizes = record_block_products(monkeypatch)
        assert interpolant_of_grid(plan, energies) is None
        assert sizes == []

    def test_declines_once_the_tail_asks_for_the_grid_size(self, monkeypatch):
        # the granule fits double from degree 8 to 32 on this wide window, and
        # degree 64 would need 65 nodes, more than the grid's 60 points
        plan = segment_plan(scheme1_field(1, 1, 3.0), 256)
        energies = np.linspace(-1.0 + 1e-9, 2000.0, 60)
        sizes = record_block_products(monkeypatch)
        assert interpolant_of_grid(plan, energies) is None
        assert sizes == [9, 8, 16]


MEMO_FIELDS = {**PRODUCT_FIELDS, "uniform": lambda: uniform_field(0.8, 2.0)}


class TestPlanMemo:
    """A field's plan is sampled once per segment count and shared read-only."""

    def test_a_field_is_sampled_once_per_count(self, monkeypatch):
        calls = {"basis_theta": 0, "magnitude": 0}
        for cls, name in ((PlanarField, "basis_theta"), (WindingField, "magnitude")):
            method = getattr(cls, name)

            def counting(self, y, method=method, name=name):
                calls[name] += 1
                return method(self, y)

            monkeypatch.setattr(cls, name, counting)
        field = scheme1_field(1, 1, 3.0)
        for energy in np.linspace(-0.5, 4.0, 20):
            solve_scattering(field, energy)
        assert calls == {"basis_theta": 1, "magnitude": 1}
        for _ in range(3):
            solve_scattering(field, 2.0, 64)
        assert calls == {"basis_theta": 2, "magnitude": 2}
        assert segment_plan(field, 64) is segment_plan(field, 64.0)

    @pytest.mark.parametrize("name", sorted(MEMO_FIELDS))
    def test_a_reused_field_solves_as_a_fresh_one(self, name):
        energies = np.array([-0.5, 0.3, 1.5, 2.5])
        reused = MEMO_FIELDS[name]()
        solve_scattering_batch(reused, energies)
        got = solve_scattering_batch(reused, energies)
        for mine, fresh in zip(got, solve_scattering_batch(MEMO_FIELDS[name](), energies)):
            assert mine.t.tobytes() == fresh.t.tobytes()
            assert mine.r.tobytes() == fresh.r.tobytes()
            assert mine.flow_defect == fresh.flow_defect

    def test_plan_arrays_are_read_only(self):
        plan = segment_plan(scheme2_field(0, 1, 6.0), 64)
        with pytest.raises(ValueError):
            plan.magnitudes[0] = 2.0
        with pytest.raises(ValueError):
            plan.jumps[1] *= 2.0
        with pytest.raises(ValueError):
            plan.rotations[0, 0] = 2.0

    @pytest.mark.parametrize("n_segments", [1, 64, 4095])
    def test_rotation_entries_are_each_factors_jump(self, n_segments):
        # a factor's entry [2a + i, 2b + j] carries u[i, j] of its segment's jump
        plan = segment_plan(scheme2_field(0, 1, 6.0), n_segments)
        spread = plan.rotations.reshape(n_segments, 2, 2, 2, 2)
        want = np.broadcast_to(plan.jumps[1:, None, :, None, :], spread.shape)
        assert np.array_equal(spread, want)

    def test_threads_racing_on_a_first_build_share_one_plan(self):
        field = scheme2_field(1, 0, 4.0)
        barrier = threading.Barrier(8, timeout=30)

        def build(_):
            barrier.wait()
            return segment_plan(field, 256)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                plans = list(pool.map(build, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(plan is segment_plan(field, 256) for plan in plans)

    def test_a_plan_is_freed_with_its_field(self):
        field = scheme1_field(1, 0, 3.0)
        plan = weakref.ref(segment_plan(field, 64))
        solve_scattering(field, 2.0, 64)
        assert plan() is not None
        del field
        gc.collect()
        assert plan() is None


class TestForeignPlan:
    """An explicit plan must be the very `segment_plan` of the solved field object."""

    def test_a_plan_of_another_length_is_refused(self):
        field = scheme1_field(1, 0, 3.0)
        foreign = segment_plan(scheme1_field(1, 0, 6.0), 64)
        with pytest.raises(ValueError, match="not this field's own"):
            solve_scattering_batch(field, [2.0], 64, plan=foreign)
        with pytest.raises(ValueError, match="not this field's own"):
            gamma_piecewise_batch(field, [2.0], 64, plan=foreign)

    @pytest.mark.parametrize(
        "field, owner",
        [(scheme2_field(1, 1, 3.0), scheme1_field(0, 0, 3.0)),
         (scheme2_field(1, 1, 3.0), scheme2_field(1, 1, 3.0))],
        ids=["same-length-other-field", "equal-separate-field"],
    )
    def test_a_plan_of_another_field_object_is_refused(self, field, owner):
        foreign = segment_plan(owner, 64)
        with pytest.raises(ValueError, match="not this field's own"):
            solve_scattering_batch(field, [2.0], plan=foreign)
        with pytest.raises(ValueError, match="not this field's own"):
            gamma_piecewise_batch(field, [2.0], 64, plan=foreign)

    def test_the_fields_own_plans_solve(self):
        field = scheme1_field(1, 0, 3.0)
        for n_segments in (1, 64, 4096):
            plan = segment_plan(field, n_segments)
            want = solve_scattering_batch(field, [2.0], n_segments)
            got = solve_scattering_batch(field, [2.0], plan=plan)
            assert got[0].t.tobytes() == want[0].t.tobytes()
            gamma_piecewise_batch(field, [2.0], 7, plan=plan)
        wall = magnetic_wall_field(0.3, 2.1, 2.0)
        got = solve_scattering_batch(wall, [2.0], plan=segment_plan(wall, 1))
        assert got[0].t.tobytes() == solve_scattering_batch(wall, [2.0])[0].t.tobytes()
