import math

import pytest

from diskchain import (CONSTANTS, energy_to_freq, freq_to_energy,
                       freq_to_wavelength, wavelength_to_freq)


def test_vacuum_wavevector():
    assert math.isclose(CONSTANTS.k0, 2.0 * math.pi / 0.637, rel_tol=1e-12)
    assert math.isclose(CONSTANTS.k0, 9.8646, rel_tol=1e-4)


def test_zpl_frequency():
    assert math.isclose(CONSTANTS.omega0, 2.9569e15, rel_tol=1e-4)


def test_zpl_energy_consistent_with_wavelength():
    # hbar * 2 pi c / lambda0 should land on the quoted 1.945 eV
    ev = freq_to_energy(wavelength_to_freq(CONSTANTS.zpl_wavelength))
    assert abs(ev - CONSTANTS.zpl_energy) / CONSTANTS.zpl_energy < 1e-3
    assert math.isclose(ev, 1.9465, rel_tol=1e-4)


def test_zero_field_splitting_units():
    assert CONSTANTS.zero_field_splitting == 2.87e9
    assert math.isclose(CONSTANTS.zero_field_splitting_rad_s,
                        2.0 * math.pi * 2.87e9, rel_tol=1e-12)


def test_freq_energy_round_trip():
    for omega in (0.0, 1.0e10, 2.95e15):
        assert math.isclose(energy_to_freq(freq_to_energy(omega)), omega,
                            rel_tol=1e-12, abs_tol=1e-30)
    assert freq_to_energy(0.0) == 0.0
    assert math.isclose(freq_to_energy(2.95e15), 1.9417, rel_tol=1e-4)


def test_wavelength_round_trip():
    lam = 0.637
    assert math.isclose(freq_to_wavelength(wavelength_to_freq(lam)), lam,
                        rel_tol=1e-12)


@pytest.mark.parametrize("fn,bad", [
    (freq_to_energy, -1.0),
    (energy_to_freq, -0.5),
    (wavelength_to_freq, 0.0),
    (wavelength_to_freq, -2.0),
    (freq_to_wavelength, 0.0),
])
def test_conversion_domains(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)

