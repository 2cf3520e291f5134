"""Tight-binding model of the one-dimensional microdisk chain.

A chain eigenmode is a Bloch superposition of displaced single-disk
modes.  Keeping nearest neighbours only, the band is

    Omega(K) = omega * (1 - delta_alpha / (2 beta0) - (zeta / beta0) cos KL)

with the hopping kappa = zeta * omega / beta0 and zeta = alpha1 - beta1.
The integrals are taken over disk interiors only (that is where the
dielectric contrast sits) and separate into (axial) x (transverse)
factors; the axial factor is common to all five and cancels from every
ratio, so only the transverse integrals are computed.

Azimuthal basis choice, the one genuinely subtle point here: the overlap
of a co-rotating pair exp(i m phi0) * exp(-i m phi1) integrates to zero
at large m.  Its phase m*(phi1 - phi0) has no stationary point anywhere
in the disk, so the integrand only oscillates faster as m grows (checked
numerically: the integral collapses to quadrature noise).  The
combination m*(phi1 + phi0) is stationary exactly on the chain axis
between the disks, which is the region that carries all the evanescent
overlap.  Photon hopping therefore pairs modes of opposite chirality,
and the transverse integrals are evaluated in the equivalent real
standing-wave basis cos(m phi) for both disks.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math
from typing import Sequence

import numpy as np

from .specfun import X_MAX, bessel_j, hankel1
from .wgm import WgmMode

# tight binding holds while every overlap ratio to beta0 stays below this
VALIDITY_LIMIT = 0.1

_RTOL = 5e-3         # the quadrature's 0.5 % gate between resolution levels
_MAX_LEVELS = 5      # levels tried before QuadratureError


class QuadratureError(RuntimeError):
    """Overlap quadrature failed to converge within the resolution cap."""


@dataclass(frozen=True)
class OverlapIntegrals:
    """The five interior overlap integrals of one disk pair.

    Units are an arbitrary but consistent field-norm; only ratios enter
    any physical output.  n_radial/n_azimuthal record the converged
    quadrature for table metadata.
    """

    beta0: float
    beta1: float
    alpha1: float
    delta_alpha: float
    zeta: float
    n_radial: int = 0
    n_azimuthal: int = 0

    def ratios(self) -> dict:
        return {
            "alpha1/beta0": abs(self.alpha1) / self.beta0,
            "beta1/beta0": abs(self.beta1) / self.beta0,
            "delta_alpha/beta0": abs(self.delta_alpha) / self.beta0,
        }


# ---------------------------------------------------------------------------
# transverse quadrature


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per size
    and returned read-only, since every caller shares them."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _transverse(mode: WgmMode, L: float, n_r: int, n_phi: int) -> tuple:
    """Transverse-plane integrals over the disk-0 interior.

    Returns (I00, I01, Ida):
      I00 = int E0^2,  I01 = int E0 * Re(E1),  Ida = int |E0(at neighbour)|^2,
    where E0 is the interior field of disk 0 and E1 the exterior branch of
    the neighbour at x = L.  Gauss-Legendre radially, uniform grid in phi
    (both integrands are smooth and 2pi-periodic, so the trapezoid rule in
    phi converges spectrally).  Three exact identities keep every field
    value to one evaluation:

    * the radial factor of E0 depends on rho only, so J_m is evaluated on
      the n_r radii and broadcast against cos(m phi);
    * Ida needs no displaced grid: phi -> phi + pi maps the neighbour's
      interior grid point for point onto the disk-0 grid with the roles
      of the two disks swapped, so int_disk1 |E0|^2 = int_disk0 |E1|^2;
    * E0, Re E1 and |E1|^2 are even in phi, so the sum runs over [0, pi]
      with weight 2 dphi inside and dphi at phi = 0 and phi = pi.

    The last two need n_phi even, so that phi = pi and phi + pi are nodes.
    """
    geo = mode.geometry
    R, m = geo.radius, geo.azimuthal_number
    k, n_eff = mode.k, mode.n_eff

    xg, wg = _gauss_legendre(n_r)
    rho = 0.5 * R * (xg + 1.0)
    dphi = 2.0 * math.pi / n_phi
    phi = dphi * np.arange(n_phi // 2 + 1)
    wphi = np.full(phi.size, 2.0 * dphi)
    wphi[[0, -1]] = dphi
    W = (0.5 * R * wg * rho)[:, None] * wphi

    # disk-0 interior field, standing-wave azimuthal factor
    E0 = ((bessel_j(m, (k * n_eff) * rho) / bessel_j(m, k * n_eff * R))[:, None]
          * np.cos(m * phi))

    # neighbour exterior field evaluated on the disk-0 interior
    dx = rho[:, None] * np.cos(phi) - L
    dy = rho[:, None] * np.sin(phi)
    E1 = ((hankel1(m, k * np.hypot(dx, dy)) / hankel1(m, k * R))
          * np.cos(m * np.arctan2(dy, dx)))

    I00 = float(np.sum(W * E0 * E0))
    I01 = float(np.sum(W * E0 * E1.real))
    Ida = float(np.sum(W * (E1.real ** 2 + E1.imag ** 2)))
    return I00, I01, Ida


def overlap_integrals(mode: WgmMode, L: float,
                      n_radial: int = 96) -> OverlapIntegrals:
    """Interior overlap integrals of a disk at 0 and a neighbour at +-L.

    Resolution is doubled from n_radial x 8m nodes until no integral
    moves by more than _RTOL; L may be signed, the mirror symmetry
    alpha_1 = alpha_{-1}, beta_1 = beta_{-1} is a test target, not an
    assumption.  benchmarks/spans.py reads n_radial's default at import.
    """
    geo = mode.geometry
    if not 2.0 * geo.radius <= abs(L) < math.inf:
        raise ValueError(f"overlap_integrals: need finite |L| >= 2R, got "
                         f"L={L}, R={geo.radius}")
    reach = mode.k * (abs(L) + geo.radius)
    if reach > X_MAX:
        raise FloatingPointError(
            f"overlap_integrals: k (|L| + R) = {reach:.6g} at L={L} lies "
            "past the cylinder functions' range (0, 1e4]")
    m = geo.azimuthal_number
    n_r = int(n_radial)
    n_phi = 8 * m
    prev = None
    rel = math.inf
    for _ in range(_MAX_LEVELS):
        cur = _transverse(mode, L, n_r, n_phi)
        if prev is not None:
            floor = 1e-14 * abs(cur[0])
            rel = max(abs(c - p) / max(abs(c), floor)
                      for c, p in zip(cur, prev))
            if rel < _RTOL:
                break
        prev = cur
        n_r *= 2
        n_phi *= 2
    else:
        raise QuadratureError(
            f"overlap integrals not converged to {_RTOL:.1e} after "
            f"{_MAX_LEVELS - 1} doublings (last change {rel:.2e})")

    I00, I01, Ida = cur
    nc2 = geo.refractive_index ** 2
    return OverlapIntegrals(
        beta0=nc2 * I00,
        beta1=I01,
        alpha1=nc2 * I01,
        delta_alpha=2.0 * (nc2 - 1.0) * Ida,
        zeta=(nc2 - 1.0) * I01,
        n_radial=n_r,
        n_azimuthal=n_phi,
    )


def coupling_kappa(integrals: OverlapIntegrals, omega: float) -> float:
    """Hopping rate kappa = zeta * omega / beta0, in rad/s."""
    if not integrals.beta0 > 0.0:
        raise ValueError("coupling_kappa: beta0 must be > 0")
    return integrals.zeta * omega / integrals.beta0


def dispersion(omega: float, integrals: OverlapIntegrals, KL) -> np.ndarray:
    """Chain band Omega(KL) over an array of KL in [-pi, pi]."""
    kl = np.asarray(KL, dtype=float)
    if np.any(np.abs(kl) > math.pi + 1e-12):
        raise ValueError("dispersion: KL outside the first Brillouin zone")
    return omega * (1.0
                    - integrals.delta_alpha / (2.0 * integrals.beta0)
                    - (integrals.zeta / integrals.beta0) * np.cos(kl))


# ---------------------------------------------------------------------------
# decay fit


def fit_loglinear(spacings: Sequence[float], kappas: Sequence[float]) -> tuple:
    """Least-squares fit of log10|kappa| vs L; returns (slope, intercept, r2)."""
    L = np.asarray(spacings, dtype=float)
    y = np.log10(np.abs(np.asarray(kappas, dtype=float)))
    slope, intercept = np.polyfit(L, y, 1)
    resid = y - (slope * L + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), r2
