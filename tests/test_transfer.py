import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinwire import transfer
from spinwire.core import J4, EvanescentOverflowError, hs_norm
from spinwire.berry import planar_rotation
from spinwire.fields import (
    TabulatedField,
    magnetic_wall_field,
    scheme1_field,
    scheme2_field,
    uniform_field,
)
from spinwire.scattering import solve_scattering_batch
from spinwire.transfer import (
    GROWTH_GUARD,
    _ordered_product,
    _propagator_entries,
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
    c, s, ms, _ = _propagator_entries(np.asarray(q_diag), length)
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
        assert np.sum(plan.jump_angles) == pytest.approx(np.pi, abs=1e-10)

    def test_wall_plan_concentrates_rotation(self):
        w = magnetic_wall_field(0.3, 2.1, 2.0)
        plan = segment_plan(w, 1)
        assert np.allclose(plan.magnitudes, 0.0)
        assert np.allclose(plan.jumps[0], np.eye(2))
        assert np.allclose(plan.jumps[1], planar_rotation(1.8), atol=1e-15)

    def test_needs_at_least_one_segment(self):
        with pytest.raises(ValueError):
            segment_plan(uniform_field(0.0, 1.0), 0)


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


def ordered_product_reference(plan, energies):
    """Complex128 per-segment loop that builds each factor and multiplies it on the left."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    n_e = energies.shape[0]
    gamma = np.zeros((n_e, 4, 4), dtype=complex)
    gamma[:, :2, :2] = plan.jumps[0]
    gamma[:, 2:, 2:] = plan.jumps[0]
    growth = np.zeros(n_e)
    factor = np.empty((n_e, 4, 4), dtype=complex)
    for j in range(plan.n_segments):
        mag = plan.magnitudes[j]
        q = np.stack([energies + mag, energies - mag], axis=-1)
        c, s, ms, kappa = propagator_entries_reference(q, plan.seg_length)
        growth += kappa.max(axis=-1)
        if growth.max() > GROWTH_GUARD:
            raise EvanescentOverflowError("evanescent growth")
        u = plan.jumps[j + 1]
        factor[:, :2, :2] = u * c[:, None, :]
        factor[:, :2, 2:] = u * s[:, None, :]
        factor[:, 2:, :2] = u * ms[:, None, :]
        factor[:, 2:, 2:] = u * c[:, None, :]
        gamma = factor @ gamma
    return gamma


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
    """The blocked real product reproduces the complex per-segment loop bit for bit."""

    def test_entries_are_the_real_parts_of_the_complex_ones(self):
        # both signs, the small-|z h| series branch and q = 0 itself
        q = np.array([-50.0, -1.0, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 0.3, 50.0])
        for length in (1e-3, 0.1, 2.0):
            got = _propagator_entries(q, length)
            want = propagator_entries_reference(q, length)
            for g, w in zip(got, want):
                assert g.dtype == np.float64
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
    @pytest.mark.parametrize("n_segments", [1, 7, 512])
    def test_bit_identical_to_per_segment_loop(self, name, n_segments):
        plan = segment_plan(PRODUCT_FIELDS[name](), n_segments)
        # complex rotations give the complex loop the same bits as real ones
        complex_plan = dataclasses.replace(plan, jumps=plan.jumps.astype(complex))
        energies = np.array([-0.5, 0.3, 2.5])
        for batch in (energies, energies[:1], energies[1:2], energies[2:]):
            got = _ordered_product(plan, batch)
            assert got.dtype == np.float64
            # array_equal against a complex array also asserts a zero imaginary part
            assert np.array_equal(got, ordered_product_reference(plan, batch))
            assert np.array_equal(got, ordered_product_reference(complex_plan, batch))

    @pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
    def test_sub_range_and_small_blocks(self, name, monkeypatch):
        # blocks of 5 segments of 16 float64 entries, so block boundaries fall inside the plan
        plan = segment_plan(PRODUCT_FIELDS[name](), 64)
        energies = np.array([-0.5, 0.3, 2.5])
        monkeypatch.setattr(transfer, "_BLOCK_BYTES", 5 * 16 * 8 * energies.size)
        want = ordered_product_reference(plan, energies)
        assert np.array_equal(_ordered_product(plan, energies), want)

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

    def test_growth_guard_trips_after_the_first_block(self, monkeypatch):
        # uniform field at E = -0.99: each segment of length 50/64 adds
        # (50/64) * sqrt(1.99) ~ 1.1 to the growth, which passes 60 in segment 55;
        # the first 48 segments (length 37.5) stay below it
        energies = np.array([-0.99])
        monkeypatch.setattr(transfer, "_BLOCK_BYTES", 8 * 16 * 8)  # 8 segments per block
        head = segment_plan(uniform_field(0.0, 37.5), 48)
        assert np.isfinite(_ordered_product(head, energies)).all()
        plan = segment_plan(uniform_field(0.0, 50.0), 64)
        with pytest.raises(EvanescentOverflowError):
            ordered_product_reference(plan, energies)
        with pytest.raises(EvanescentOverflowError):
            _ordered_product(plan, energies)
