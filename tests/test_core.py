import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire.core import (
    E_LOWER,
    E_UPPER,
    ChannelData,
    Regime,
    RegimeError,
    ThresholdError,
    channel_at,
    hs_distance,
    planar_spinors,
    scattering_channel,
    scattering_channels,
    wavenumber,
    zeeman_matrix,
)

from conftest import random_cmat2


def test_wave_vectors_two_channel():
    ch = scattering_channel(5.0)
    assert ch.regime is Regime.TWO_CHANNEL
    assert ch.k0 == pytest.approx(np.sqrt(6.0))
    assert ch.k1 == pytest.approx(2.0)


def test_wave_vectors_band_edge_belongs_to_lower_regime():
    # the edge itself is refused; the float64 energies on either side of it
    # are classified as the open-channel count says
    with pytest.raises(ThresholdError):
        scattering_channel(1.0)
    below, above = scattering_channel(np.nextafter(1.0, 0.0)), scattering_channel(np.nextafter(1.0, 2.0))
    assert below.regime is Regime.SINGLE_CHANNEL and above.regime is Regime.TWO_CHANNEL
    assert below.k0 == above.k0 == pytest.approx(np.sqrt(2.0))
    assert below.k1.real == 0.0 and above.k1.imag == 0.0


def test_wave_vectors_evanescent_branch():
    ch = scattering_channel(0.0)
    assert ch.regime is Regime.SINGLE_CHANNEL
    assert ch.k0 == pytest.approx(1.0)
    assert ch.k1 == pytest.approx(1j)


def test_wave_vectors_closed():
    for energy in (-1.0, -4.0):
        with pytest.raises(RegimeError, match="below both bands"):
            scattering_channel(energy)


def one_energy_channel(energy):
    """Wave vectors and regime of one energy, each from a 0-d evaluation."""
    k0 = complex(wavenumber(energy - E_LOWER))
    k1 = complex(wavenumber(energy - E_UPPER))
    regime = Regime.TWO_CHANNEL if energy > E_UPPER else Regime.SINGLE_CHANNEL
    return ChannelData(energy=energy, k0=k0, k1=k1, regime=regime)


def test_scattering_channels_equal_the_one_energy_gate():
    grid = np.linspace(-1.0, 5.0, 601)
    # the CLI nudges grid points on a band edge by 1e-9
    grid[0], grid[200] = -1.0 + 1e-9, 1.0 + 1e-9
    ulp_off = [np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    grid = np.concatenate([grid, ulp_off, [1.0 - 1e-9, 1e300]])
    batch = scattering_channels(grid)
    energies, k, two_channel = batch
    assert energies.tobytes() == grid.tobytes()
    assert k.shape == (grid.size, 2) and two_channel.shape == grid.shape
    for i, e in enumerate(grid):
        got = channel_at(batch, i)
        for want in (scattering_channel(e), one_energy_channel(float(e))):
            assert type(got.energy) is float and got.energy == want.energy
            for name in ("k0", "k1"):
                g, w = getattr(got, name), getattr(want, name)
                assert type(g) is complex
                assert np.array(g).tobytes() == np.array(w).tobytes()
            assert got.regime is want.regime


@pytest.mark.parametrize(
    "energy, error, message",
    [
        (-1.0, RegimeError, "E=-1.0 is below both bands; nothing scatters"),
        (-2.5, RegimeError, "E=-2.5 is below both bands; nothing scatters"),
        (1.0, ThresholdError, "E=1.0 sits on a band edge; nudge the energy off the threshold"),
        (float("nan"), ValueError, "energy must be finite"),
        (float("-inf"), ValueError, "energy must be finite"),
    ],
)
def test_scattering_channels_refuse_the_first_offender(energy, error, message):
    for call in (lambda: scattering_channel(energy), lambda: scattering_channels([energy])):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message
    # a later offender of another kind does not mask the first one
    for later in (-3.0, 1.0, float("inf")):
        with pytest.raises(error) as info:
            scattering_channels([2.0, 0.5, energy, later])
        assert type(info.value) is error and str(info.value) == message


def test_scattering_channels_need_a_batch():
    for energies in ([], [[2.0, 3.0]]):
        with pytest.raises(ValueError, match="energies must be a non-empty 1-D batch"):
            scattering_channels(energies)


@given(st.floats(min_value=-5.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_dispersion_round_trip(energy):
    if energy <= E_LOWER or energy == E_UPPER:
        with pytest.raises(RegimeError):
            scattering_channel(energy)
        return
    ch = scattering_channel(energy)
    assert ch.k0**2 + E_LOWER == pytest.approx(energy, abs=1e-12)
    assert ch.k1**2 + E_UPPER == pytest.approx(energy, abs=1e-12)
    assert ch.k0.imag >= 0.0 and ch.k1.imag >= 0.0


def test_evanescent_wave_decays_rightward():
    ch = scattering_channel(0.0)
    amplitudes = np.abs(np.exp(1j * ch.k1 * np.array([1.0, 5.0, 20.0])))
    assert np.all(np.diff(amplitudes) < 0)


def test_hs_distance_examples():
    eye = np.eye(2)
    assert hs_distance(eye, eye) == 0.0
    assert hs_distance(eye, -eye) == pytest.approx(2.0 * np.sqrt(2.0))
    # stacks give one distance per matrix, and a single matrix broadcasts against them
    stack = np.stack([eye, -eye, 2.0 * eye])
    assert hs_distance(stack, eye).shape == (3,)
    assert hs_distance(stack, eye) == pytest.approx([0.0, 2.0 * np.sqrt(2.0), np.sqrt(2.0)])
    assert hs_distance(stack, stack[::-1]) == pytest.approx([np.sqrt(2.0), 0.0, np.sqrt(2.0)])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_hs_distance_triangle_inequality(seed):
    gen = np.random.default_rng(seed)
    a, b, c = (random_cmat2(gen) for _ in range(3))
    assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-12


def test_planar_spinors_are_zeeman_eigenvectors():
    for theta in (0.0, 0.4, np.pi / 2, 2.2, np.pi):
        lo, up = planar_spinors(theta)
        h = zeeman_matrix(np.sin(theta), np.cos(theta))
        assert np.allclose(h @ lo, -lo, atol=1e-14)
        assert np.allclose(h @ up, +up, atol=1e-14)
        assert abs(np.vdot(lo, up)) < 1e-15
