import pathlib
import warnings

import numpy as np
import pytest

from spinwire.core import ChannelMismatchError, ThresholdError, zeeman_matrix
from spinwire.fields import (
    TabulatedField,
    magnetic_wall_field,
    scheme1_field,
    scheme2_field,
    uniform_field,
)
from spinwire.analytic import WallConfig, magnetic_wall_scattering
from spinwire.lattice import build_lattice, fd_scattering, lattice_wavenumbers
from spinwire.scattering import solve_scattering


def test_lattice_dispersion_matches_continuum_for_fine_spacing():
    k0, k1 = lattice_wavenumbers(5.0, 1e-3)
    assert k0 == pytest.approx(np.sqrt(6.0), rel=1e-5)
    assert k1 == pytest.approx(2.0, rel=1e-5)


def test_lattice_evanescent_momentum():
    _, k1 = lattice_wavenumbers(0.0, 1e-3)
    assert k1.real == 0.0
    assert k1.imag == pytest.approx(1.0, rel=1e-5)


def test_uniform_wire_transparent():
    res = fd_scattering(uniform_field(0.6, 2.0), 5.0, 2.0 / 1024)
    assert np.max(np.abs(res.t - np.eye(2))) < 1e-4
    assert np.max(np.abs(res.r)) < 1e-4
    assert res.unitarity_defect < 1e-10


def test_matches_engine_on_winding_profile():
    f = scheme1_field(0, 0, 3.0)
    eng = solve_scattering(f, 2.0, 4096)
    lat = fd_scattering(f, 2.0, 3.0 / 2048)
    rel = np.max(np.abs(lat.probabilities - eng.probabilities) / eng.probabilities)
    assert rel < 1e-4


def test_quadratic_convergence_to_engine():
    f = scheme1_field(0, 0, 3.0)
    eng = solve_scattering(f, 2.0, 4096).probabilities
    errors = [
        np.max(np.abs(fd_scattering(f, 2.0, 3.0 / div).probabilities - eng))
        for div in (1024, 2048)
    ]
    assert 3.0 < errors[0] / errors[1] < 5.0


def test_matches_analytic_wall():
    wall = magnetic_wall_field(0.0, np.pi / 2, 3.0)
    ana = magnetic_wall_scattering(WallConfig(0.0, np.pi / 2, 3.0, 3.0))
    errors = []
    for div in (1024, 2048):
        lat = fd_scattering(wall, 3.0, 3.0 / div)
        errors.append(np.max(np.abs(lat.probabilities - ana.probabilities)))
    assert errors[-1] < 1e-6
    assert 3.0 < errors[0] / errors[1] < 5.0


@pytest.mark.parametrize("energy", [2.0, 5.0])
def test_amplitude_reciprocity_converges(energy):
    # the oracle approaches the engine's mirror-symmetry relation
    # t01 + exp(-i (k0 - k1) L) t10 = 0 at second order in the spacing
    f = scheme2_field(0, 0, 6.0)
    residuals = []
    for div in (2048, 4096, 8192):
        res = fd_scattering(f, energy, 6.0 / div)
        phase = np.exp(-1j * (res.channel.k0 - res.channel.k1) * f.length)
        residuals.append(abs(res.t[0, 1] + phase * res.t[1, 0]))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 3.0 < coarse / fine < 5.0
    assert residuals[-1] < 1e-6


@pytest.mark.parametrize("energy", [-0.5, 0.4, 2.0, 6.0])
def test_lattice_flux_unitarity(energy):
    f = scheme2_field(0, 0, 6.0)
    res = fd_scattering(f, energy, 6.0 / 1024)
    assert res.unitarity_defect < 1e-10


def test_coarse_spacing_rejected():
    with pytest.raises(ChannelMismatchError):
        fd_scattering(scheme1_field(0, 0, 3.0), 2.0, 0.3)


@pytest.mark.parametrize("spacing", [0.0, -0.1, float("nan"), float("inf")])
def test_spacing_must_be_positive_and_finite(spacing, recwarn):
    field = scheme1_field(0, 0, 3.0)
    for call in (lambda: build_lattice(field, spacing), lambda: fd_scattering(field, 2.0, spacing)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"lattice spacing must be positive and finite, got {spacing}"
    assert len(recwarn) == 0


def test_band_top_mismatch_rejected():
    # continuum says open, lattice band cannot reach this energy
    with pytest.raises(ChannelMismatchError):
        lattice_wavenumbers(5000.0, 0.05)


def test_threshold_rejected():
    with pytest.raises(ThresholdError):
        fd_scattering(scheme1_field(0, 0, 3.0), 1.0, 3.0 / 1024)
    for edge in (-1.0, 1.0):
        with pytest.raises(ThresholdError):
            lattice_wavenumbers(edge, 3.0 / 8192)


@pytest.mark.parametrize(
    "field",
    [scheme1_field(1, 1, 3.0), scheme2_field(1, 1, 3.0), magnetic_wall_field(0.0, 2.0, 2.0)],
    ids=["scheme1", "scheme2", "wall"],
)
def test_energies_next_to_a_band_edge_solve(field):
    # only an energy exactly on an edge is refused, as in the engine
    for energy in (1.0 + 1e-13, 1.0 - 1e-13, -1.0 + 1e-13):
        res = fd_scattering(field, energy, field.length / 8192)
        assert np.all(np.isfinite(res.t)) and np.all(np.isfinite(res.r))
        assert res.unitarity_defect <= 1e-10
        engine = solve_scattering(field, energy).probabilities[0, 0]
        assert abs(res.probabilities[0, 0] - engine) <= 1e-4 * engine


def test_lattice_sites_span_region():
    lat = build_lattice(scheme1_field(0, 0, 3.0), 3.0 / 64)
    assert lat.ys[0] == 0.0
    assert lat.ys[-1] == pytest.approx(3.0)
    assert lat.onsite.shape == (65, 2, 2)


def _tabulated_scheme2(length):
    ys = np.linspace(0.0, length, 200)
    return TabulatedField(ys, *scheme2_field(1, 1, length).components(ys))


@pytest.mark.parametrize(
    "field",
    [magnetic_wall_field(0.3, 2.0, 3.3), scheme1_field(1, 1, 3.3), uniform_field(0.7, 3.3),
     _tabulated_scheme2(3.3)],
    ids=["wall", "scheme1", "uniform", "tabulated"],
)
def test_end_sites_sit_exactly_on_the_interfaces(field):
    # 3.3 / 0.003 rounds to 1100 cells, whose last site misses L by an ulp:
    # inside the wall, where the field is 0
    lat = build_lattice(field, 0.003)
    assert lat.ys[-1] != field.length
    if field.zero_field_interior:
        # the field jumps at both ends: the mean of the one-sided limits
        ends = [0.5 * zeeman_matrix(np.sin(th), np.cos(th)) for th in (0.3, 2.0)]
    else:
        ends = [zeeman_matrix(*field.components(y)) for y in (0.0, field.length)]
    assert np.array_equal(lat.onsite[0], ends[0])
    assert np.array_equal(lat.onsite[-1], ends[1])


def test_oracle_shares_no_solver_code_with_the_engine():
    import spinwire.lattice as lattice_module

    text = pathlib.Path(lattice_module.__file__).read_text(encoding="utf-8")
    for banned in ("from .berry", "from .transfer", "import berry", "import transfer",
                   "solve_scattering", "gamma_piecewise", "berry_operator"):
        assert banned not in text, f"oracle must not touch engine path: {banned}"


def test_band_edge_energy_gives_finite_amplitudes():
    # E = -1 + 1e-9 is where the CLI nudges a grid point on the lower band
    # edge; there a^2 (E + 1) / 2 is below the rounding of 1 at a = L/16384
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = fd_scattering(scheme2_field(0, 0, 3.0), -1.0 + 1e-9, 3.0 / 16384)
    assert np.all(np.isfinite(res.t))
    assert np.all(np.isfinite(res.r))
    assert res.unitarity_defect <= 1e-8
