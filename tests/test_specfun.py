"""Cylinder-function checks against the independent mpmath-series oracle.

The production code is Miller backward recurrence (J) and ascending /
asymptotic series plus upward recurrence (Y), so agreement with the
oracle here is two genuinely different algorithms landing on the same
digits.  The x grid deliberately straddles the series-to-asymptotic
seam of Y_0/Y_1 and includes points well below and well above the
turning point x = m.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.special

import oracles
from diskchain import bessel_j, bessel_y, hankel1

ORDERS = (0, 1, 10, 40, 50)
ARGUMENTS = (0.05, 0.5, 1.0, 5.0, 12.9, 13.1, 30.0, 77.0, 100.0)


def agrees_to_ten_digits(got, ref):
    # ten significant digits where the value is of order one, relative
    # accuracy where it is exponentially small or large; near a root of
    # the function the absolute branch applies
    return (abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
            or abs(got - ref) <= 1e-9 * abs(ref))


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("x", ARGUMENTS)
def test_j_against_series_oracle(m, x):
    assert agrees_to_ten_digits(bessel_j(m, x), oracles.bessel_j_ref(m, x))


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("x", ARGUMENTS)
def test_y_against_series_oracle(m, x):
    assert agrees_to_ten_digits(bessel_y(m, x), oracles.bessel_y_ref(m, x))


@pytest.mark.parametrize("m", (0, 1, 40))
def test_y_matches_scipy_across_seam(m):
    # a dense array across the x = 13 seam of the Y_0 / Y_1 seeds, so the
    # array-wide ascending series meets the asymptotic side
    x = np.append(np.linspace(0.05, 30.0, 4001), [12.999999, 13.0, 13.000001])
    got = bessel_y(m, x)
    ref = scipy.special.yn(m, x)
    assert all(agrees_to_ten_digits(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("m", (0, 1, 40, 45, 50))
def test_y_matches_scipy_over_mesh_arguments(m):
    # the overlap mesh evaluates H_m at about 20 to 120; above the seam the
    # seeds come from the truncated Hankel expansion
    x = np.concatenate([np.linspace(13.0, 150.0, 20001),
                        np.geomspace(13.0, 1e4, 4001)])
    got = bessel_y(m, x)
    ref = scipy.special.yn(m, x)
    assert all(agrees_to_ten_digits(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("n", (0, 1))
def test_y_seeds_match_full_hankel_expansion(n):
    # stopping the expansion once no term can change P or Q leaves the
    # seeds where the full 40-term loop puts them
    x = np.concatenate([np.nextafter(13.0, 14.0) + np.linspace(0.0, 137.0, 20001),
                        np.geomspace(13.5, 1e4, 4001)])
    got = bessel_y(n, x)
    ref = oracles.y01_hankel_ref(n, x)
    assert np.all(np.abs(got - ref) <= 5e-16 * np.sqrt(2.0 / (math.pi * x)))


def agrees_below_turning_point(m, x, got, ref):
    # the ten-digit rule is absolute for tiny values; below the turning
    # point x = m, J_m has no zeros, so there every normal double must also
    # hold ten digits of its own size
    x, got, ref = np.broadcast_arrays(x, got, ref)
    sel = (x < m) & (np.abs(ref) >= np.finfo(float).tiny)
    return np.all(np.abs(got - ref)[sel] <= 1e-10 * np.abs(ref)[sel])


TINY_ARGUMENTS = (1e-300, 1e-100, 1e-62, 1e-20)


@pytest.mark.parametrize("m", (0, 1, 5, 40))
@pytest.mark.parametrize("x", TINY_ARGUMENTS)
def test_j_at_tiny_arguments(m, x):
    # one recurrence step of 2k/x would overflow here; the ascending
    # series' leading term (x/2)^m/m! is exact to double precision instead
    got, ref = bessel_j(m, x), scipy.special.jv(m, x)
    assert agrees_to_ten_digits(got, ref)
    assert agrees_below_turning_point(m, x, got, ref)


@pytest.mark.parametrize("m", (0, 1, 5, 40))
def test_j_tiny_arguments_in_a_mixed_array(m):
    x = np.array(TINY_ARGUMENTS + (0.0, 1e-8, 1.0, 50.0, 1e4))
    got, ref = bessel_j(m, x), scipy.special.jv(m, x)
    assert all(agrees_to_ten_digits(g, r) for g, r in zip(got, ref))
    assert agrees_below_turning_point(m, x, got, ref)


@pytest.mark.parametrize("m", (0, 7, 50, 200))
def test_j_across_rescaled_lanes(m):
    # from the top of the recurrence (about 1e4 here) the small-x lanes
    # outgrow 2^830 several times; they are rescaled between strides while
    # the large-x lanes are left alone
    x = np.geomspace(1e-3, 1e4, 2001)
    got = bessel_j(m, x)
    ref = scipy.special.jv(m, x)
    assert all(agrees_to_ten_digits(g, r) for g, r in zip(got, ref))
    assert agrees_below_turning_point(m, x, got, ref)


def test_known_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert abs(bessel_j(1, 1.0) - 0.4400505857449335) < 1e-12
    assert abs(bessel_y(0, 1.0) - 0.08825696421567696) < 1e-12
    h = hankel1(0, 1.0)
    assert abs(h - (0.7651976865579666 + 0.08825696421567696j)) < 1e-12


def test_hankel_is_j_plus_iy():
    for m in (0, 7, 40):
        for x in (0.8, 19.7, 47.0):
            h = hankel1(m, x)
            assert h.real == bessel_j(m, x)
            assert h.imag == bessel_y(m, x)


def test_hankel_modulus_asymptotic():
    # |H_0(x)| -> sqrt(2 / (pi x)) for large x
    want = math.sqrt(2.0 / (math.pi * 200.0))
    assert abs(abs(hankel1(0, 200.0)) - want) < 1e-3 * want


def test_finite_near_turning_point():
    v = hankel1(50, 40.0)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


@pytest.mark.parametrize("m", (0, 10, 40, 50))
def test_wronskian_identity(m):
    x = np.geomspace(0.5, 200.0, 21)
    w = bessel_j(m + 1, x) * bessel_y(m, x) - bessel_j(m, x) * bessel_y(m + 1, x)
    target = 2.0 / (math.pi * x)
    assert np.max(np.abs(w - target) / target) < 1e-9


@pytest.mark.parametrize("m", (1, 10, 40, 50))
def test_three_term_recurrence(m):
    x = np.geomspace(1.0, 100.0, 25)
    for fn in (bessel_j, bessel_y):
        lhs = fn(m - 1, x) + fn(m + 1, x)
        rhs = (2.0 * m / x) * fn(m, x)
        scale = np.maximum.reduce([np.abs(fn(m - 1, x)), np.abs(fn(m + 1, x)),
                                   np.abs(rhs), np.full_like(x, 1e-300)])
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-9


def test_y0_diverges_at_origin():
    assert bessel_y(0, 1e-3) < bessel_y(0, 1e-2) < bessel_y(0, 1e-1) < 0.0


def test_j_decreases_with_order_past_turning_point():
    vals = [bessel_j(m, 5.0) for m in range(20, 27)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_vectorised_shapes():
    x = np.linspace(1.0, 9.0, 6).reshape(2, 3)
    assert bessel_j(3, x).shape == (2, 3)
    assert bessel_y(3, x).shape == (2, 3)
    assert hankel1(3, x).dtype == complex
    assert isinstance(bessel_j(3, 2.0), float)
    assert isinstance(hankel1(3, 2.0), complex)


@pytest.mark.parametrize("call", [
    lambda: bessel_j(-1, 1.0),
    lambda: bessel_j(2.5, 1.0),
    lambda: bessel_j(0, -0.1),
    lambda: bessel_j(0, 1.5e4),
    lambda: bessel_j(0, float("nan")),
    lambda: bessel_y(0, 0.0),
    lambda: bessel_y(0, -1.0),
    lambda: hankel1(3, 0.0),
])
def test_domain_errors(call):
    with pytest.raises(ValueError):
        call()


@given(m=st.integers(0, 60), x=st.floats(0.05, 150.0))
@settings(max_examples=40, deadline=None)
def test_wronskian_property(m, x):
    w = bessel_j(m + 1, x) * bessel_y(m, x) - bessel_j(m, x) * bessel_y(m + 1, x)
    target = 2.0 / (math.pi * x)
    assert abs(w - target) < 1e-9 * target
