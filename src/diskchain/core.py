"""Physical constants and unit conventions shared by every module.

Internal unit choices (deliberate, do not mix):

* lengths in micrometres, so the cylinder-function arguments k*R stay of
  order 30..50 instead of 3e7,
* angular frequencies in rad/s with hbar = 1,
* energies in eV only at the reporting boundary.

A note on "Hz": the quoted transition frequency 2.95e15 of the nitrogen
vacancy zero-phonon line is consistent with 2*pi*c/637nm = 2.957e15 only
if read as an angular frequency.  This package therefore treats the
quoted values of omega, g and delta as rad/s throughout.  Pulse-area
formulas such as T = pi/(2 g) then hold verbatim.  The zero-field
splitting is kept as an honest 2.87 GHz cyclic frequency and converted
with an explicit 2*pi where a rad/s value is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

# CODATA-level constants, trimmed to what the simulator actually uses.
SPEED_OF_LIGHT_UM_S = 2.99792458e14  # um/s
HBAR_EV_S = 6.582119569e-16          # eV*s


@dataclass(frozen=True)
class PhysicalConstants:
    """Fixed device constants of the diamond microdisk register."""

    speed_of_light: float = SPEED_OF_LIGHT_UM_S  # um/s
    zpl_wavelength: float = 0.637                # um, NV zero-phonon line
    zpl_energy: float = 1.945                    # eV, same transition
    diamond_index: float = 2.4                   # refractive index n_c
    zero_field_splitting: float = 2.87e9         # Hz (cyclic), ground-state D_g

    @property
    def k0(self) -> float:
        """Vacuum wavevector 2*pi/lambda0 in 1/um."""
        return 2.0 * math.pi / self.zpl_wavelength

    @property
    def omega0(self) -> float:
        """Angular ZPL frequency 2*pi*c/lambda0 in rad/s (= 2.957e15)."""
        return 2.0 * math.pi * self.speed_of_light / self.zpl_wavelength

    @property
    def zero_field_splitting_rad_s(self) -> float:
        return 2.0 * math.pi * self.zero_field_splitting


CONSTANTS = PhysicalConstants()


def freq_to_energy(omega: float) -> float:
    """hbar*omega in eV for an angular frequency omega in rad/s.

    Negative frequencies are rejected: every frequency handled here is a
    physical mode or transition frequency.
    """
    if omega < 0.0:
        raise ValueError("freq_to_energy: omega must be >= 0")
    return HBAR_EV_S * omega


def energy_to_freq(energy_ev: float) -> float:
    """Inverse of freq_to_energy."""
    if energy_ev < 0.0:
        raise ValueError("energy_to_freq: energy must be >= 0")
    return energy_ev / HBAR_EV_S


def wavelength_to_freq(lam_um: float) -> float:
    """Angular frequency 2*pi*c/lambda for a vacuum wavelength in um."""
    if lam_um <= 0.0:
        raise ValueError("wavelength_to_freq: wavelength must be > 0")
    return 2.0 * math.pi * SPEED_OF_LIGHT_UM_S / lam_um


def freq_to_wavelength(omega: float) -> float:
    if omega <= 0.0:
        raise ValueError("freq_to_wavelength: omega must be > 0")
    return 2.0 * math.pi * SPEED_OF_LIGHT_UM_S / omega
