"""Disk mode solver: the closed-form slab inverse against the independent
bisection oracle, and the radial resonance condition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

import oracles
from diskchain import (CONSTANTS, DiskGeometry, NoSolutionError, WgmMode,
                       radial_residual, solve_disk, solve_mode,
                       thickness_for_index)
from diskchain.wgm import MAX_REFRACTIVE_INDEX, _first_zero

K0 = 2.0 * math.pi / CONSTANTS.zpl_wavelength
NC = 2.4


@pytest.mark.parametrize("h", [0.143, 0.469, 0.085, 0.397])
def test_slab_against_bisection_oracle(h):
    # the design-table thicknesses: the oracle's index there, carried back
    # through the closed form, lands on the same thickness and index
    n = oracles.slab_index_ref(K0, h, NC)
    got = thickness_for_index(K0, n, NC)
    assert abs(oracles.slab_index_ref(K0, got, NC) - n) < 1e-9
    assert got == pytest.approx(h, rel=1e-7)


@given(n=st.floats(1.01, 2.39))
@settings(max_examples=30, deadline=None)
def test_slab_oracle_property(n):
    h = thickness_for_index(K0, n, NC)
    assert abs(oracles.slab_index_ref(K0, h, NC) - n) < 1e-9


def test_slab_monotone_in_thickness():
    # a thicker slab confines more: n_eff rises with h
    ns = np.linspace(1.05, 2.35, 12)
    hs = [thickness_for_index(K0, n, NC) for n in ns]
    assert all(a < b for a, b in zip(hs, hs[1:]))
    assert all(h > 0.0 for h in hs)


def test_thickness_inverse_round_trip():
    for n_eff in (1.2, 1.6, 2.1):
        h = thickness_for_index(K0, n_eff, NC)
        assert abs(oracles.slab_index_ref(K0, h, NC) - n_eff) < 1e-10


def test_slab_domain_errors():
    with pytest.raises(ValueError):
        thickness_for_index(K0, 2.4, NC)
    with pytest.raises(ValueError):
        thickness_for_index(K0, 0.99, NC)
    with pytest.raises(ValueError):
        thickness_for_index(K0, 1.0, NC)
    with pytest.raises(ValueError):
        thickness_for_index(K0, 1.5, 0.9)


# a few spot rows of the design table; the full table is an acceptance
# criterion, these pin the solver itself during development
@pytest.mark.parametrize("radius,m,h_ref", [
    (2.0, 40, 0.469),
    (3.0, 40, 0.143),
    (2.5, 50, 0.397),
    (5.0, 50, 0.085),
])
def test_solve_disk_reference_rows(radius, m, h_ref):
    n_eff, h = solve_disk(radius, m)
    assert 1.0 < n_eff < NC
    assert abs(h - h_ref) <= max(0.05 * h_ref, 0.005)


def test_thickness_decreases_with_radius():
    hs = [solve_disk(r, 40)[1] for r in (2.0, 2.5, 3.0, 3.5)]
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_residual_small_at_root():
    for radius, m in ((2.0, 40), (2.5, 50)):
        n_eff, _ = solve_disk(radius, m)
        assert abs(radial_residual(m, K0, n_eff, radius)) < 1e-8


def test_residual_large_off_root():
    n_eff, _ = solve_disk(2.0, 40)
    assert abs(radial_residual(40, K0, n_eff, 2.2)) > 1e-2


def test_residual_continuous_in_radius():
    n_eff, _ = solve_disk(2.0, 40)
    a = radial_residual(40, K0, n_eff, 2.0)
    b = radial_residual(40, K0, n_eff, 2.0 + 1e-6)
    assert abs(b - a) < 1e-3


def test_solve_disk_below_oscillation():
    with pytest.raises(NoSolutionError, match="k R n_c"):
        solve_disk(0.5, 40)
    with pytest.raises(ValueError):
        solve_disk(-1.0, 40)
    with pytest.raises(ValueError, match="m must be >= 1"):
        solve_disk(2.0, 0)


def test_refractive_index_cap():
    # held where a library caller passes n_c: the geometry and the solver
    n_eff, h = solve_disk(2.0, 40, n_c=MAX_REFRACTIVE_INDEX)
    assert math.isfinite(n_eff) and math.isfinite(h)
    DiskGeometry(radius=2.0, azimuthal_number=40,
                 refractive_index=MAX_REFRACTIVE_INDEX)
    above = math.nextafter(MAX_REFRACTIVE_INDEX, math.inf)
    for n_c in (above, 1e155):
        with pytest.raises(ValueError, match="refractive_index: n_c <= 100"):
            DiskGeometry(radius=2.0, azimuthal_number=40, refractive_index=n_c)
        with pytest.raises(ValueError, match="n_c in"):
            solve_disk(2.0, 40, n_c=n_c)


def test_first_zero_against_scipy():
    for m in range(1, 81):
        ref = jn_zeros(m, 1)[0]
        assert abs(_first_zero(m) - ref) <= 1e-13 * ref, m


def test_geometry_validation():
    with pytest.raises(ValueError, match="radius"):
        DiskGeometry(radius=0.0, azimuthal_number=40)
    with pytest.raises(ValueError, match="n_c > 1"):
        DiskGeometry(radius=2.0, azimuthal_number=40, refractive_index=1.0)
    with pytest.raises(ValueError, match="azimuthal_number"):
        DiskGeometry(radius=2.0, azimuthal_number=0)
    with pytest.raises(ValueError, match="thickness"):
        DiskGeometry(radius=2.0, azimuthal_number=40, thickness=-0.1)


def test_mode_validation():
    h = thickness_for_index(K0, 1.5, NC)
    geo = DiskGeometry(radius=2.0, azimuthal_number=40, thickness=h)
    with pytest.raises(ValueError, match="n_eff"):
        WgmMode(k=K0, n_eff=2.5, geometry=geo)
    with pytest.raises(ValueError, match="thickness"):
        WgmMode(k=K0, n_eff=1.5,
                geometry=DiskGeometry(radius=2.0, azimuthal_number=40))
    WgmMode(k=K0, n_eff=1.5, geometry=geo)


def test_solve_mode_packaging():
    mode = solve_mode(2.0, 40)
    geo = mode.geometry
    assert geo.radius == 2.0 and geo.azimuthal_number == 40
    assert geo.thickness is not None and geo.thickness > 0.0
    assert geo.thickness == thickness_for_index(mode.k, mode.n_eff, NC)
