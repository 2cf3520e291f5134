import math
import os
from pathlib import Path
import subprocess
import sys

import pytest

import diskchain
from diskchain import CONSTANTS, wavelength_to_freq
from diskchain.core import HBAR_EV_S


def test_zpl_energy_consistent_with_wavelength():
    # hbar * 2 pi c / lambda0 should land on the quoted 1.945 eV
    ev = HBAR_EV_S * wavelength_to_freq(CONSTANTS.zpl_wavelength)
    assert abs(ev - CONSTANTS.zpl_energy) / CONSTANTS.zpl_energy < 1e-3
    assert math.isclose(ev, 1.9465, rel_tol=1e-4)


def test_zero_field_splitting_units():
    assert CONSTANTS.zero_field_splitting == 2.87e9
    assert math.isclose(CONSTANTS.zero_field_splitting_rad_s,
                        2.0 * math.pi * 2.87e9, rel_tol=1e-12)


@pytest.mark.parametrize("fn,bad", [
    (wavelength_to_freq, 0.0),
    (wavelength_to_freq, -2.0),
])
def test_conversion_domains(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


def test_package_import_leaves_the_acceptance_battery_out():
    # library callers get the physics; only reproduce-tables needs verify
    src = str(Path(diskchain.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, diskchain; print('diskchain.verify' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout == "False\n"
