import pytest

from diskchain import (RegisterState, SimConfig, overlap_integrals, run_cz,
                       solve_mode, verify)


@pytest.fixture(scope="session")
def config():
    return SimConfig()


@pytest.fixture(scope="session")
def hopping(config):
    """The full reference hopping grid (both azimuthal orders, every
    radius, six spacings).  This is the expensive part of the suite,
    computed once and shared by the table criteria."""
    data, elapsed = verify.hopping_data(config)
    return data, elapsed


@pytest.fixture(scope="session")
def mode_m40_r2():
    # small disk solves fast and its mode is well confined
    return solve_mode(2.0, 40)


@pytest.fixture(scope="session")
def ints_m40_r2(mode_m40_r2):
    return overlap_integrals(mode_m40_r2, 2.21 * 2.0)


@pytest.fixture(scope="session")
def cz_sup():
    """Default controlled-Z run from the four-way logical superposition."""
    return run_cz(RegisterState.logical_superposition())


@pytest.fixture(scope="session")
def gate_checks(config):
    """check_gate rows; they cover three acceptance criteria, so the gate
    run inside is shared rather than repeated per criterion."""
    return verify.check_gate(config.gate)
