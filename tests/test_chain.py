"""Inter-disk coupling: overlap integrals, the hopping rate, the sweep
over spacings and the band."""

import math

import numpy as np
import pytest

import oracles
from diskchain import (CONSTANTS, DiskGeometry, GateParams,
                       OverlapIntegrals, QuadratureError, coupling_kappa,
                       dispersion, fit_loglinear, make_cz_schedule,
                       overlap_integrals, solve_mode, wavelength_to_freq)
import diskchain.chain as chain_module
from diskchain.chain import _transverse

OMEGA = wavelength_to_freq(CONSTANTS.zpl_wavelength)


def test_overlaps_symmetric_in_spacing_sign(mode_m40_r2):
    plus = overlap_integrals(mode_m40_r2, 4.42)
    minus = overlap_integrals(mode_m40_r2, -4.42)
    for name in ("beta0", "beta1", "alpha1", "delta_alpha", "zeta"):
        assert getattr(plus, name) == pytest.approx(getattr(minus, name),
                                                    rel=1e-10)


def test_overlap_magnitudes(ints_m40_r2):
    # beta0 is the norm-like self term; everything else is a small
    # correction in the tight-binding regime
    assert ints_m40_r2.beta0 > 0.0
    ratios = ints_m40_r2.ratios()
    assert 0.0 < max(ratios.values()) < 0.1
    assert abs(ints_m40_r2.zeta) < abs(ints_m40_r2.alpha1)
    # zeta = (1 - 1/n_c^2) alpha1 by construction from the same integral
    nc2 = 2.4 ** 2
    assert ints_m40_r2.zeta == pytest.approx(
        ints_m40_r2.alpha1 * (nc2 - 1.0) / nc2, rel=1e-12)


def test_quadrature_metadata_records_convergence(mode_m40_r2, ints_m40_r2):
    n_r, n_phi = ints_m40_r2.n_radial, ints_m40_r2.n_azimuthal
    assert n_r >= 192
    assert n_phi >= 2 * 8 * 40
    # the recorded level moved no integral by 5e-3 or more from the one
    # below it
    below = _transverse(mode_m40_r2, 2.21 * 2.0, n_r // 2, n_phi // 2)
    nc2 = 2.4 ** 2
    for got, prev in zip((ints_m40_r2.beta0 / nc2, ints_m40_r2.beta1,
                          ints_m40_r2.delta_alpha / (2.0 * (nc2 - 1.0))),
                         below):
        assert abs(got - prev) < 5e-3 * abs(got)


def test_quadrature_error_when_levels_exhausted(mode_m40_r2, monkeypatch):
    # n levels are n - 1 doublings; a gate of 0 lets no level converge
    monkeypatch.setattr(chain_module, "_MAX_LEVELS", 1)
    with pytest.raises(QuadratureError,
                       match=r"not converged to 5\.0e-03 after 0 doublings "
                             r"\(last change inf\)"):
        overlap_integrals(mode_m40_r2, 4.42)
    monkeypatch.setattr(chain_module, "_MAX_LEVELS", 2)
    monkeypatch.setattr(chain_module, "_RTOL", 0.0)
    with pytest.raises(QuadratureError,
                       match=r"not converged to 0\.0e\+00 after 1 doublings "
                             r"\(last change \d"):
        overlap_integrals(mode_m40_r2, 4.42)


def test_spacing_guard(mode_m40_r2):
    with pytest.raises(ValueError, match="2R"):
        overlap_integrals(mode_m40_r2, 3.9)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, field", [
    (lambda mode: DiskGeometry(radius=NAN, azimuthal_number=40), "radius"),
    (lambda mode: DiskGeometry(radius=INF, azimuthal_number=40), "radius"),
    (lambda mode: DiskGeometry(2.0, 40, refractive_index=INF),
     "refractive_index"),
    (lambda mode: DiskGeometry(2.0, 40, refractive_index=NAN),
     "refractive_index"),
    (lambda mode: DiskGeometry(2.0, 40, thickness=NAN), "thickness"),
    (lambda mode: overlap_integrals(mode, NAN), "2R"),
    (lambda mode: overlap_integrals(mode, INF), "2R"),
    (lambda mode: overlap_integrals(mode, -INF), "2R"),
    (lambda mode: GateParams(omega_a0=NAN), "omega_a0"),
    (lambda mode: GateParams(omega_a0=INF), "omega_a0"),
    (lambda mode: GateParams(g2=NAN), "g2:"),
    (lambda mode: GateParams(D_g=NAN), "D_g"),
    (lambda mode: GateParams(delta_max=INF), "delta_max"),
    (lambda mode: GateParams(g1=NAN), "g1:"),
    (lambda mode: GateParams(delta_max=NAN), "delta_max"),
    (lambda mode: GateParams(epsilon=NAN), "epsilon"),
    (lambda mode: GateParams(epsilon=INF), "epsilon"),
    (lambda mode: GateParams(samples=NAN), "samples"),
    (lambda mode: make_cz_schedule(GateParams(guard="fixed", fixed_gap=NAN)),
     "fixed_gap"),
])
def test_non_finite_values_raise_naming_the_field(mode_m40_r2, call, field):
    # nan passes every `x <= 0` test and inf every `x > 1` test, so each
    # of these used to be accepted or to fail deep inside specfun
    with pytest.raises(ValueError, match=field):
        call(mode_m40_r2)


@pytest.mark.parametrize("m, R", [(40, 2.0), (40, 3.0), (45, 2.6), (50, 2.9)])
def test_transverse_matches_full_mesh_oracle(m, R):
    # the oracle evaluates every field on the full period and Ida on the
    # displaced grid, with scipy, in one mesh; the package uses the radial
    # line, the mirror identity and the half period on the same nodes, in
    # row blocks.  The first two levels of overlap_integrals: the second
    # spans several blocks.  At L/R = 2.49 the I01 sum cancels by about 1e3.
    mode = solve_mode(R, m)
    for n_r, n_phi in ((96, 8 * m), (192, 16 * m)):
        for lr in (2.01, 2.21, 2.49):
            for L in (lr * R, -lr * R):
                got = _transverse(mode, L, n_r, n_phi)
                ref = oracles.transverse_ref(mode, L, n_r, n_phi)
                for name, g, r in zip(("I00", "I01", "Ida"), got, ref):
                    assert abs(g - r) <= 1e-12 * abs(r), (name, n_r, L, g, r)


@pytest.mark.parametrize("m, R", [(40, 2.0), (40, 3.0), (50, 3.5)])
def test_transverse_matches_closed_form(m, R):
    # the first check of the integrals that is not a quadrature: Lommel's
    # integrals and Graf's addition theorem, at a resolution (192 radii,
    # 16 m azimuthal nodes) where the quadrature sits at rounding.  Ida
    # is held to the oracle's full-mesh quadrature as well, on its first
    # level (96 radii, 8 m azimuthal nodes)
    mode = solve_mode(R, m)
    for lr in (2.01, 2.21, 2.49):
        got = _transverse(mode, lr * R, 192, 16 * m)
        ref = oracles.overlap_closed_form(mode, lr * R)
        for name, g, r in zip(("I00", "I01", "Ida"), got, ref):
            assert abs(g - r) <= 1e-11 * abs(r), (name, lr, g, r)
        mesh = oracles.transverse_ref(mode, lr * R, 96, 8 * m, mirror=True)[2]
        assert abs(mesh - ref[2]) <= 1e-11 * ref[2], (lr, mesh, ref[2])


def test_transverse_evaluates_one_field_mesh(monkeypatch):
    # per level: J_m on the radii and the two scalar normalisations, then
    # H_m on blocks of whole radial rows of the half-period mesh that
    # cover it node by node, in order, and end in a ragged block.  At
    # m = 50 and 192 x 800 nodes a row has 401 nodes, so a block is 40
    # rows and the last one 32.
    mode = solve_mode(3.5, 50)
    L, n_r, n_phi = 2.01 * 3.5, 192, 800
    calls = []

    def recording(name):
        fn = getattr(chain_module, name)

        def record(m, x):
            calls.append((name, np.array(x, dtype=float)))
            return fn(m, x)
        return record

    for name in ("bessel_j", "hankel1"):
        monkeypatch.setattr(chain_module, name, recording(name))
    _transverse(mode, L, n_r, n_phi)
    shapes = [(name, x.shape) for name, x in calls]
    assert sorted(shapes[:3]) == [("bessel_j", ()), ("bessel_j", (n_r,)),
                                  ("hankel1", ())]
    blocks = [x for name, x in calls[3:] if name == "hankel1"]
    assert len(blocks) == len(calls) - 3 >= 3
    rows = [b.shape[0] for b in blocks]
    assert all(b.shape[1] == n_phi // 2 + 1 for b in blocks)
    assert rows[:-1] == [rows[0]] * (len(rows) - 1)
    assert 0 < rows[-1] < rows[0]
    assert rows[0] * (n_phi // 2 + 1) <= chain_module._BLOCK_NODES
    # every node's argument once, in row order
    xg = np.polynomial.legendre.leggauss(n_r)[0]
    rho = 0.5 * 3.5 * (xg + 1.0)
    phi = (2.0 * math.pi / n_phi) * np.arange(n_phi // 2 + 1)
    dx = rho[:, None] * np.cos(phi) - L
    dy = rho[:, None] * np.sin(phi)
    assert np.array_equal(np.concatenate(blocks),
                          mode.k * np.hypot(dx, dy))


def test_mirror_identity_for_ida(mode_m40_r2):
    # int over disk 1 of |E0|^2 equals int over disk 0 of |E1|^2
    displaced = oracles.transverse_ref(mode_m40_r2, 4.42, 96, 320)[2]
    mirrored = oracles.transverse_ref(mode_m40_r2, 4.42, 96, 320,
                                      mirror=True)[2]
    assert mirrored == pytest.approx(displaced, rel=1e-12)


def test_validity_warning_on_large_ratio():
    # the worst ratio is what the `# validity_warning:` metadata line
    # compares against VALIDITY_LIMIT
    ints = OverlapIntegrals(beta0=1.0, beta1=-0.12, alpha1=0.12,
                            delta_alpha=0.05, zeta=0.07)
    assert ints.ratios() == {"alpha1/beta0": 0.12, "beta1/beta0": 0.12,
                             "delta_alpha/beta0": 0.05}
    assert max(ints.ratios().values()) > chain_module.VALIDITY_LIMIT == 0.1
    with pytest.raises(ValueError, match="beta0"):
        coupling_kappa(OverlapIntegrals(beta0=0.0, beta1=0.0, alpha1=0.0,
                                        delta_alpha=0.0, zeta=0.0), OMEGA)


def test_kappa_formula():
    ints = OverlapIntegrals(beta0=2.0, beta1=1e-5, alpha1=2.4e-5,
                            delta_alpha=1e-6, zeta=2e-5)
    assert coupling_kappa(ints, 2.95e15) == pytest.approx(
        2e-5 * 2.95e15 / 2.0, rel=1e-14)


def test_dispersion_band(ints_m40_r2):
    kappa = coupling_kappa(ints_m40_r2, OMEGA)
    plus, minus, quarter, edge, centre = dispersion(
        OMEGA, ints_m40_r2, np.array([0.7, -0.7, math.pi / 2.0, math.pi, 0.0]))
    assert minus == pytest.approx(plus, rel=1e-14)
    assert quarter == pytest.approx(
        OMEGA * (1.0 - ints_m40_r2.delta_alpha / (2.0 * ints_m40_r2.beta0)),
        rel=1e-14)
    assert edge - centre == pytest.approx(2.0 * kappa, rel=1e-10)

    kl = np.linspace(-math.pi, math.pi, 21)
    band = dispersion(OMEGA, ints_m40_r2, kl)
    assert band.shape == kl.shape
    assert np.ptp(band) == pytest.approx(2.0 * abs(kappa), rel=1e-10)
    with pytest.raises(ValueError, match="Brillouin"):
        dispersion(OMEGA, ints_m40_r2, np.array([0.0, 3.3]))


def test_kappa_falls_with_spacing(mode_m40_r2):
    kappas = []
    for lr in (2.01, 2.21, 2.49):
        ints = overlap_integrals(mode_m40_r2, lr * 2.0)
        kappas.append(abs(coupling_kappa(ints, OMEGA)))
    assert kappas[0] > kappas[1] > kappas[2]


def test_kappa_negligible_far_out(mode_m40_r2):
    near = abs(coupling_kappa(overlap_integrals(mode_m40_r2, 5.0), OMEGA))
    far = abs(coupling_kappa(overlap_integrals(mode_m40_r2, 10.0), OMEGA))
    assert far < 1e-2 * near


def test_fit_loglinear_recovers_exact_line():
    L = np.linspace(4.0, 5.0, 6)
    kappa = 10.0 ** (-0.8 * L + 2.0)
    slope, intercept, r2 = fit_loglinear(L, kappa)
    assert slope == pytest.approx(-0.8, rel=1e-9)
    assert intercept == pytest.approx(2.0, rel=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)
