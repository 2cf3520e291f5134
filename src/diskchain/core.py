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

    zpl_wavelength: float = 0.637                # um, NV zero-phonon line
    zpl_energy: float = 1.945                    # eV, same transition
    diamond_index: float = 2.4                   # refractive index n_c
    zero_field_splitting: float = 2.87e9         # Hz (cyclic), ground-state D_g

    @property
    def zero_field_splitting_rad_s(self) -> float:
        return 2.0 * math.pi * self.zero_field_splitting


CONSTANTS = PhysicalConstants()


def wavelength_to_freq(lam_um: float) -> float:
    """Angular frequency 2*pi*c/lambda for a vacuum wavelength in um."""
    if lam_um <= 0.0:
        raise ValueError("wavelength_to_freq: wavelength must be > 0")
    return 2.0 * math.pi * SPEED_OF_LIGHT_UM_S / lam_um

