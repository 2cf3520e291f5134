"""Independent checks for the benchmark, built on scipy alone.

Nothing here imports diskchain.  Every check is written from the
physics stated in the package's docstrings and README, with scipy's
cylinder functions (AMOS), `scipy.optimize.brentq` for roots,
Gauss-Legendre quadrature in both polar coordinates for the overlap
integral, and `scipy.linalg.expm` for the gate.  Each check returns a
list of failure messages; an empty list means the result passed.

Tolerances come from the accuracy each method states, never from the
digits the program prints today:

* cylinder functions: the solver's stated budget is 10 significant
  digits (specfun module docstring), i.e. relative error 1e-10 on each
  J and H value, which is carried through the conditioning of the
  radial misfit to a tolerance on n_eff;
* printed values: `.12g` rounds to a relative 5e-12;
* overlap quadrature: each integral is converged until a resolution
  doubling moves it by less than rtol = 5e-3 (chain.overlap_integrals),
  and kappa is the ratio of two of them;
* gate propagation: the integrator rejects a run whose final state moves
  by more than 1e-8 when the step is halved (dynamics.evolve), so the
  state is good to 1e-8 in norm;
* schedule windows: run_cz validates them to a relative 1e-9.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, optimize, special

SPEED_OF_LIGHT_UM_S = 2.99792458e14

PRINT_RTOL = 5e-12          # relative rounding of a `.12g` cell
BESSEL_RTOL = 1e-10         # stated accuracy of the package's J and H
QUADRATURE_RTOL = 5e-3      # per-integral convergence gate
KAPPA_RTOL = 2.0 * QUADRATURE_RTOL
STATE_ATOL = 1e-8           # final-state accuracy of the integrator
WINDOW_RTOL = 1e-9          # pulse-window width check in run_cz
NORM_ATOL = 1e-9            # norm drift allowed along a trajectory
POP_ATOL = 2.0 * STATE_ATOL  # |c|^2 moves by at most 2|c||dc| <= 2 dc
PHASE_ATOL = 4.0 * STATE_ATOL  # arg c moves by dc/|c|, |c| >= 1/4 here


def wavenumber(wavelength_um: float) -> float:
    return 2.0 * math.pi / wavelength_um


def angular_frequency(wavelength_um: float) -> float:
    return 2.0 * math.pi * SPEED_OF_LIGHT_UM_S / wavelength_um


# ---------------------------------------------------------------------------
# disk: radial and slab equations


def _radial_sides(m: int, k: float, R: float, n):
    x = k * np.asarray(n, dtype=float) * R
    lhs = n * special.jv(m + 1, x) / special.jv(m, x)
    rhs = (special.hankel1(m + 1, k * R) / special.hankel1(m, k * R)).real
    return lhs, rhs


def radial_misfit(m: int, k: float, R: float, n):
    """n J_{m+1}(knR)/J_m(knR) - Re(H_{m+1}(kR)/H_m(kR))."""
    lhs, rhs = _radial_sides(m, k, R, n)
    return lhs - rhs


def first_zero(m: int) -> float:
    """j_{m,1}: the interior argument k n_eff R of the fundamental radial
    order lies below it (J_m has no node inside the disk)."""
    return float(special.jn_zeros(m, 1)[0])


def fundamental_roots(m: int, k: float, R: float, n_c: float,
                      samples: int = 4001) -> list:
    """Every root of the radial misfit with 1 < n < n_c and k n R < j_{m,1}.

    J_m has no zero below j_{m,1}, so the misfit is continuous on the
    whole interval; a dense sign-change scan and brentq find each root.
    """
    hi = min(n_c, first_zero(m) / (k * R))
    if not hi > 1.0:
        return []
    grid = np.linspace(1.0, hi, samples)[1:-1]
    vals = radial_misfit(m, k, R, grid)
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]:
        a, b = float(grid[i]), float(grid[i + 1])
        roots.append(optimize.brentq(
            lambda n: float(radial_misfit(m, k, R, n)), a, b,
            xtol=1e-15, rtol=4.0 * np.finfo(float).eps))
    return roots


def n_eff_tolerance(m: int, k: float, R: float, n: float) -> float:
    """Absolute tolerance on a root n of the radial misfit.

    Each side of the misfit is a ratio of two cylinder functions good to
    BESSEL_RTOL, so the misfit is uncertain by 2 BESSEL_RTOL (|lhs| +
    |rhs|); divided by the slope that is the uncertainty of the root.
    The printed n_eff adds its own rounding.
    """
    lhs, rhs = _radial_sides(m, k, R, n)
    dn = 1e-7 * n
    slope = (radial_misfit(m, k, R, n + dn)
             - radial_misfit(m, k, R, n - dn)) / (2.0 * dn)
    return (2.0 * BESSEL_RTOL * (abs(float(lhs)) + abs(rhs))
            / abs(float(slope)) + PRINT_RTOL * n)


def _slab_misfit(k: float, n_c: float, n: float, h: float) -> float:
    q = math.sqrt(n_c * n_c - n * n)
    return q * math.tan(0.5 * k * q * h) - n_c * n_c * math.sqrt(n * n - 1.0)


def slab_thickness(k: float, n_c: float, n: float) -> float:
    """h on the fundamental branch (k q h/2 in (0, pi/2)) of the TM slab
    equation q tan(k q h/2) = n_c^2 sqrt(n^2 - 1), q = sqrt(n_c^2 - n^2),
    by brentq on the equation itself."""
    q = math.sqrt(n_c * n_c - n * n)
    top = math.pi / (k * q) * (1.0 - 1e-15)
    return optimize.brentq(lambda h: _slab_misfit(k, n_c, n, h), 0.0, top,
                           xtol=1e-18, rtol=4.0 * np.finfo(float).eps)


def h_tolerance(k: float, n_c: float, n: float) -> float:
    """Absolute tolerance on the printed h of a row with printed n.

    h is exact given n, so only rounding enters: its own PRINT_RTOL, and
    that of n carried through the slope d ln h / d ln n of the slab
    solution (large near n = 1, where h falls to zero).
    """
    dn = 1e-7 * n
    dlog = abs(math.log(slab_thickness(k, n_c, n + dn)
                        / slab_thickness(k, n_c, n - dn)) / (2.0 * dn / n))
    return PRINT_RTOL * (1.0 + dlog) * slab_thickness(k, n_c, n)


def check_disk_row(m: int, R: float, wavelength: float, n_c: float,
                   status: str, n_eff, h) -> list:
    """Failures of one disk-solve row (empty list: the row is right)."""
    k = wavenumber(wavelength)
    if status == "no solution":
        roots = fundamental_roots(m, k, R, n_c)
        return [f"m={m} R={R}: labelled 'no solution' but the fundamental "
                f"root n_eff={roots[0]:.12g} exists"] if roots else []
    if status != "ok":
        return [f"m={m} R={R}: unknown status {status!r}"]
    if not 1.0 < n_eff < n_c:
        return [f"m={m} R={R}: n_eff={n_eff} outside (1, n_c)"]
    out = []
    j1 = first_zero(m)
    if not k * n_eff * R < j1:
        out.append(f"m={m} R={R}: k n_eff R = {k * n_eff * R:.4f} >= "
                   f"j_(m,1) = {j1:.4f}, not the fundamental radial order")
    tol = n_eff_tolerance(m, k, R, n_eff)
    f_lo = float(radial_misfit(m, k, R, n_eff - tol))
    f_hi = float(radial_misfit(m, k, R, n_eff + tol))
    if f_lo * f_hi > 0.0:
        out.append(f"m={m} R={R}: radial misfit has no root within "
                   f"{tol:.2e} of n_eff={n_eff!r}")
    h_ref = slab_thickness(k, n_c, n_eff)
    h_tol = h_tolerance(k, n_c, n_eff)
    if not abs(h - h_ref) <= h_tol:
        out.append(f"m={m} R={R}: h={h!r} misses the slab solution "
                   f"{h_ref:.12g} by more than {h_tol:.2e}")
    return out


# ---------------------------------------------------------------------------
# chain: hopping rate by a 2-D Gauss-Legendre overlap quadrature


def kappa(m: int, R: float, wavelength: float, n_c: float, L: float) -> float:
    """Hopping rate kappa (rad/s) of two disks of radius R at spacing L.

    kappa = (n_c^2 - 1)/n_c^2 * I01 / I00 * omega, with the integrals over
    the disk-0 interior in the standing-wave basis cos(m phi):

      I00 = int (J_m(k n rho)/J_m(k n R))^2 cos^2(m phi)
      I01 = int (J_m(k n rho)/J_m(k n R)) cos(m phi)
                * Re(H_m(k rho_1)/H_m(k R)) cos(m phi_1)

    where (rho_1, phi_1) are polar coordinates about the neighbour at
    (L, 0), and n is the fundamental root found here, not the program's.
    The integrand is even in phi, so phi runs over [0, pi].  64 radial
    and 3m azimuthal nodes agree with 200 x 8m to 1e-10 over the
    workload's designs and spacings.
    """
    k = wavenumber(wavelength)
    roots = fundamental_roots(m, k, R, n_c)
    if not roots:
        raise ValueError(f"no fundamental mode for m={m}, R={R}")
    n = roots[0]
    xr, wr = special.roots_legendre(64)
    rho = 0.5 * R * (xr + 1.0)
    wr = 0.5 * R * wr
    xp, wp = special.roots_legendre(3 * m)
    phi = 0.5 * math.pi * (xp + 1.0)
    wp = math.pi * wp          # 0.5 pi for the map, 2 for the even half
    RR, PP = np.meshgrid(rho, phi, indexing="ij")
    W = (wr * rho)[:, None] * wp[None, :]
    e0 = (special.jv(m, k * n * RR) / special.jv(m, k * n * R)) * np.cos(m * PP)
    dx = RR * np.cos(PP) - L
    dy = RR * np.sin(PP)
    e1 = ((special.hankel1(m, k * np.hypot(dx, dy)) / special.hankel1(m, k * R)).real
          * np.cos(m * np.arctan2(dy, dx)))
    i00 = float(np.sum(W * e0 * e0))
    i01 = float(np.sum(W * e0 * e1))
    nc2 = n_c * n_c
    return (nc2 - 1.0) / nc2 * i01 / i00 * angular_frequency(wavelength)


def check_kappa(got: float, ref: float, label: str) -> list:
    if abs(got - ref) <= KAPPA_RTOL * abs(ref):
        return []
    return [f"{label}: kappa {got:.12g} differs from the oracle "
            f"{ref:.12g} by more than {KAPPA_RTOL:.0e} relative"]


def check_band(kl, omega_k, omega: float, kappa_meta: float,
               band_width_meta: float, label: str) -> list:
    """Omega(K) = Omega(-K), and the band is 2|kappa| wide."""
    kl = np.asarray(kl, dtype=float)
    w = np.asarray(omega_k, dtype=float)
    out = []
    cell = PRINT_RTOL * abs(omega)        # rounding of one printed Omega
    if not np.allclose(kl, -kl[::-1], rtol=0.0, atol=PRINT_RTOL * math.pi):
        out.append(f"{label}: KL grid is not symmetric about 0")
    asym = float(np.max(np.abs(w - w[::-1])))
    if asym > 2.0 * cell:
        out.append(f"{label}: Omega(K) - Omega(-K) reaches {asym:.3g} rad/s "
                   f"(> {2.0 * cell:.3g})")
    width = float(np.max(w) - np.min(w))
    want = 2.0 * abs(kappa_meta)
    if abs(width - want) > 2.0 * cell + PRINT_RTOL * want:
        out.append(f"{label}: band width {width:.12g} != 2|kappa| = "
                   f"{want:.12g}")
    if abs(band_width_meta - want) > 2.0 * PRINT_RTOL * want:
        out.append(f"{label}: metadata band width {band_width_meta:.12g} "
                   f"!= 2|kappa| = {want:.12g}")
    return out


# ---------------------------------------------------------------------------
# gate: expm of the documented 8-state Hamiltonian


# (qubit-1 level, qubit-2 level, photon number) of the eight basis states,
# in the order documented in diskchain.dynamics
BASIS = (("g", "g", 1), ("g", "+", 1), ("+", "g", 1), ("+", "+", 1),
         ("e", "g", 0), ("g", "e", 0), ("e", "+", 0), ("+", "e", 0))


def hamiltonian(g1: float, g2: float, D: float, delta1: float,
                delta2: float) -> np.ndarray:
    """Single-excitation Hamiltonian in the frame rotating at omega_w.

    Level energies: |+> = 0, |g> = -D, |e> = -D - delta (the photon of
    energy omega_w is absorbed by a transition at omega_w - delta).  The
    photon g_k couples |g_k; 1> to |e_k; 0> with the other qubit fixed.
    """
    energy = ({"+": 0.0, "g": -D, "e": -D - delta1},
              {"+": 0.0, "g": -D, "e": -D - delta2})
    h = np.diag([energy[0][a] + energy[1][b] for a, b, _ in BASIS]).astype(complex)
    for i, (a, b, p) in enumerate(BASIS):
        for j, (c, d, q) in enumerate(BASIS):
            if p == 1 and q == 0 and b == d and (a, c) == ("g", "e"):
                h[i, j] = h[j, i] = g1
            if p == 1 and q == 0 and a == c and (b, d) == ("g", "e"):
                h[i, j] = h[j, i] = g2
    return h


def gate_propagator(g1: float, g2: float, D_g: float, delta_max: float,
                    windows, duration: float) -> tuple:
    """(U, theta) over [0, duration]: U the propagator, theta the
    integral of each diagonal entry, which turns arg(c_i) into the
    co-moving phase.  windows is [(qubit, t_on, t_off), ...]; a qubit sits
    on resonance (delta = 0) inside its windows and at delta_max outside."""
    cuts = sorted({0.0, duration, *(t for _, a, b in windows for t in (a, b))})
    u = np.eye(8, dtype=complex)
    theta = np.zeros(8)
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        on = [any(q == qb and t0 <= mid < t1 for q, t0, t1 in windows)
              for qb in (1, 2)]
        h = hamiltonian(g1, g2, D_g, 0.0 if on[0] else delta_max,
                        0.0 if on[1] else delta_max)
        u = linalg.expm(-1j * h * (b - a)) @ u
        theta += np.real(np.diag(h)) * (b - a)
    return u, theta


def phase_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def check_windows(windows, g1: float, g2: float) -> list:
    """The pi/2 - pi - pi/2 sequence: qubit 1, 2, 1 with widths
    pi/(2 g1), pi/g2, pi/(2 g1), in time order and not overlapping."""
    out = []
    order = sorted(windows, key=lambda w: w[1])
    if [q for q, _, _ in order] != [1, 2, 1]:
        out.append(f"window order {[q for q, _, _ in order]} != [1, 2, 1]")
    want = {1: math.pi / (2.0 * g1), 2: math.pi / g2}
    for q, a, b in order:
        if abs((b - a) - want[q]) > WINDOW_RTOL * want[q]:
            out.append(f"qubit-{q} window {b - a:.12g} s != {want[q]:.12g} s")
    for (_, _, b), (_, a, _) in zip(order[:-1], order[1:]):
        if a < b:
            out.append("pulse windows overlap")
    return out
