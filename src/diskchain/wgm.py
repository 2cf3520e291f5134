"""Single-microdisk TM whispering-gallery-mode solver.

The disk is reduced to two scalar transcendental equations:

* radial:   n_eff * J_{m+1}(k n_eff R) / J_m(k n_eff R)
                = H_{m+1}^(1)(k R) / H_m^(1)(k R)
* axial:    sqrt(n_c^2 - n_eff^2) * tan(beta h / 2) = n_c^2 * sqrt(n_eff^2 - 1),
            beta = k * sqrt(n_c^2 - n_eff^2)

The system is triangular: the radial equation fixes n_eff without knowing
h, then the axial equation gives h in closed form on the fundamental
branch (beta h / 2 inside (0, pi/2)):

    h = (2 / beta) * atan(n_c^2 sqrt(n_eff^2 - 1) / sqrt(n_c^2 - n_eff^2))

The radial equation mixes a real left side with a complex right side (the
Hankel ratio).  Its imaginary part is the radiative leakage of the mode
and has no real root; the solver finds the root of the real part, which
is the standard high-Q approximation.  The full complex residual is kept
available as a diagnostic: it is ~1e-13 for well-confined geometries and
grows toward ~0.2 as k R approaches the turning point m (large R rows of
the design table), which simply measures how leaky those modes are.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional

import numpy as np

from .core import CONSTANTS
from .specfun import bessel_j, hankel1


class NoSolutionError(RuntimeError):
    """No whispering-gallery solution for the requested geometry."""


class BelowCutoffError(RuntimeError):
    """Slab too thin: no fundamental-branch guided solution."""


@dataclass(frozen=True)
class DiskGeometry:
    """One microdisk: radius and thickness in um.

    thickness may be None while the disk is still being designed (it is
    the solver output); every other invariant is enforced on creation.
    """

    radius: float
    azimuthal_number: int
    refractive_index: float = CONSTANTS.diamond_index
    thickness: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius: must be > 0 and finite, got {self.radius}")
        if self.thickness is not None and not 0.0 < self.thickness < math.inf:
            raise ValueError("thickness: must be > 0 and finite, got "
                             f"{self.thickness}")
        if not 1.0 < self.refractive_index < math.inf:
            raise ValueError("refractive_index: finite n_c > 1 required, got "
                             f"{self.refractive_index}")
        if int(self.azimuthal_number) != self.azimuthal_number or self.azimuthal_number < 1:
            raise ValueError("azimuthal_number: integer >= 1 required, got "
                             f"{self.azimuthal_number}")


@dataclass(frozen=True)
class WgmMode:
    """A solved TM_{m,1} mode."""

    k: float        # vacuum wavevector, 1/um
    n_eff: float
    beta: float     # axial wavevector inside the slab, 1/um
    geometry: DiskGeometry

    def __post_init__(self):
        nc = self.geometry.refractive_index
        if not (1.0 < self.n_eff < nc):
            raise ValueError(f"n_eff: must lie in (1, n_c), got {self.n_eff}")
        beta_def = self.k * math.sqrt(nc * nc - self.n_eff * self.n_eff)
        if abs(self.beta - beta_def) > 1e-9 * max(1.0, beta_def):
            raise ValueError("beta: inconsistent with k*sqrt(n_c^2 - n_eff^2)")

    @property
    def gamma(self) -> float:
        """Exterior axial decay constant k*sqrt(n_eff^2 - 1), 1/um."""
        return self.k * math.sqrt(self.n_eff**2 - 1.0)


# ---------------------------------------------------------------------------
# axial (slab) equation


def thickness_for_index(k: float, n_eff: float, n_c: float) -> float:
    """Closed-form fundamental-branch inverse of the slab equation."""
    if not (1.0 < n_eff < n_c):
        raise ValueError("thickness_for_index: need 1 < n_eff < n_c")
    beta = k * math.sqrt(n_c * n_c - n_eff * n_eff)
    gamma = math.sqrt(n_eff * n_eff - 1.0)
    return (2.0 / beta) * math.atan(n_c * n_c * gamma
                                    / math.sqrt(n_c * n_c - n_eff * n_eff))


# ---------------------------------------------------------------------------
# radial equation


def radial_residual(m: int, k: float, n_eff: float, R: float) -> complex:
    """LHS - RHS of the radial resonance condition, complex.

    Near a zero of J_m(k n_eff R) the left side has a pole; there the
    reciprocal form (inverted ratios, same root set) is returned instead
    so scans across the pole stay finite.
    """
    x_in = k * n_eff * R
    j0 = bessel_j(m, x_in)
    j1 = bessel_j(m + 1, x_in)
    h0 = hankel1(m, k * R)
    h1 = hankel1(m + 1, k * R)
    if abs(j0) < 1e-10 * abs(j1):
        return j0 / (n_eff * j1) - h0 / h1
    return n_eff * j1 / j0 - h1 / h0


def _first_zero(m: int) -> float:
    """j_{m,1}, the first positive zero of J_m, for m >= 1.

    The large-order expansion (DLMF 10.21.40) is within 1 % even at
    m = 1; Newton steps with J'_m = J_{m-1} - (m/x) J_m polish it to
    rounding.
    """
    t = m ** (1.0 / 3.0)
    x = (m + 1.8557571 * t + 1.033150 / t - 0.00397 / m
         - 0.0908 / (m * t * t) + 0.043 / (m * m * t))
    for _ in range(8):
        j = bessel_j(m, x)
        step = j / (bessel_j(m - 1, x) - m / x * j)
        x -= step
        if abs(step) < 1e-9 * x:
            break
    return x


def solve_disk(R: float, m: int, lam0: float = CONSTANTS.zpl_wavelength,
               n_c: float = CONSTANTS.diamond_index) -> tuple:
    """Design the disk: (n_eff, h) of the TM_{m,1} mode at wavelength lam0.

    The fundamental radial order has x = k n_eff R in (max(kR, m), j_{m,1})
    with n_eff < n_c.  There every term of x J_{m+1}(x)/J_m(x) =
    sum_s 2x^2/(j_{m,s}^2 - x^2) rises, so the real radial misfit
    n J_{m+1}/J_m - Re(H_{m+1}/H_m) rises strictly to +inf at j_{m,1}: the
    bracket holds one root and no pole, and a root outside it is a higher
    radial order.  The signs at the two ends decide whether the root
    exists (past the cutoff it does not: NoSolutionError).  Newton steps,
    with bisection wherever a step would leave the bracket, close it to
    two adjacent doubles.  The derivative needs no further Bessel value:
    with r = J_{m+1}/J_m, dr/dx = 1 - (2m + 1) r/x + r^2.
    """
    if not (R > 0.0 and lam0 > 0.0):
        raise ValueError("solve_disk: R and lam0 must be > 0")
    m = int(m)
    if m < 1:
        raise ValueError(f"solve_disk: m must be >= 1, got {m}")
    k = 2.0 * math.pi / lam0
    if k * R * n_c <= m:
        raise NoSolutionError(
            f"solve_disk: k R n_c = {k * R * n_c:.2f} <= m = {m}; "
            "no interior oscillatory solution at this radius")
    rhs = (hankel1(m + 1, k * R) / hankel1(m, k * R)).real

    def misfit(n):
        """(misfit, d misfit / dn) at n."""
        x = k * R * n
        r = bessel_j(m + 1, x) / bessel_j(m, x)
        return n * r - rhs, r + n * k * R * (1.0 - (2 * m + 1) * r / x + r * r)

    lo = max(1.0, m / (k * R))
    hi = min(n_c, _first_zero(m) / (k * R))
    if lo < hi and misfit(lo)[0] < 0.0 and (hi < n_c or misfit(hi)[0] > 0.0):
        n = 0.5 * (lo + hi)
        for _ in range(100):
            f, df = misfit(n)
            if f > 0.0:
                hi = n
            else:
                lo = n
            if math.nextafter(lo, hi) == hi:
                break
            nxt = n - f / df
            if nxt == n:
                # the step is below one ulp: close the bracket from this side
                nxt = math.nextafter(n, lo if f > 0.0 else hi)
            n = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        n = 0.5 * (lo + hi)
        # a root within an ulp of 1 or n_c rounds onto the bracket end
        if 1.0 < n < n_c:
            return n, thickness_for_index(k, n, n_c)
    raise NoSolutionError(
        f"solve_disk: no fundamental-order radial root for m={m}, R={R}")


def solve_mode(R: float, m: int, lam0: float = CONSTANTS.zpl_wavelength,
               n_c: float = CONSTANTS.diamond_index) -> WgmMode:
    """solve_disk plus packaging into a WgmMode with the solved geometry."""
    n_eff, h = solve_disk(R, m, lam0, n_c)
    k = 2.0 * math.pi / lam0
    geo = DiskGeometry(radius=R, azimuthal_number=int(m),
                       refractive_index=n_c, thickness=h)
    beta = k * math.sqrt(n_c * n_c - n_eff * n_eff)
    return WgmMode(k=k, n_eff=n_eff, beta=beta, geometry=geo)


# ---------------------------------------------------------------------------
# field profile


def _radial_factor(mode: WgmMode, rho: np.ndarray) -> np.ndarray:
    """F(rho) on a 1-d array: J branch inside the rim, Hankel outside, F(R) = 1."""
    geo = mode.geometry
    m = geo.azimuthal_number
    out = np.empty(rho.shape, dtype=complex)
    inside = rho <= geo.radius
    if inside.any():
        jR = bessel_j(m, mode.k * mode.n_eff * geo.radius)
        out[inside] = bessel_j(m, mode.k * mode.n_eff * rho[inside]) / jR
    outside = ~inside
    if outside.any():
        hR = hankel1(m, mode.k * geo.radius)
        out[outside] = hankel1(m, mode.k * rho[outside]) / hR
    return out


def _axial_factor(mode: WgmMode, z: np.ndarray) -> np.ndarray:
    """Even fundamental slab profile on a 1-d array: cos(beta z) inside,
    exponential decay outside.

    The slab eigenvalue equation carries tan(beta h/2), i.e. an even
    standing wave across the slab, so that is the profile used (a running
    exp(i beta z) would not satisfy the matching that produced n_eff).
    """
    h2 = 0.5 * (mode.geometry.thickness if mode.geometry.thickness is not None
                else thickness_for_index(mode.k, mode.n_eff,
                                         mode.geometry.refractive_index))
    az = np.abs(z)
    inside = az <= h2
    out = np.empty(z.shape, dtype=float)
    out[inside] = np.cos(mode.beta * z[inside])
    outside = ~inside
    if outside.any():
        edge = math.cos(mode.beta * h2)
        out[outside] = edge * np.exp(-mode.gamma * (az[outside] - h2))
    return out


def field_profile(mode: WgmMode, rho, z, phi):
    """E_z of the TM mode at (rho, z, phi): F(rho) * axial(z) * exp(i m phi).

    Scalar or broadcastable array coordinates are accepted alike.
    """
    m = mode.geometry.azimuthal_number
    rho_a, z_a, phi_a = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                            np.asarray(z, dtype=float),
                                            np.asarray(phi, dtype=float))
    if np.any(rho_a < 0.0):
        raise ValueError("field_profile: rho must be >= 0")
    shape = rho_a.shape
    val = _radial_factor(mode, rho_a.ravel()) \
        * _axial_factor(mode, z_a.ravel()) \
        * np.exp(1j * m * phi_a.ravel())
    if shape == ():
        return complex(val[0])
    return val.reshape(shape)


@dataclass(frozen=True)
class FieldProfile:
    """Callable field of one solved mode, with an overall amplitude.

    The bare profile is normalised to F(R) = 1 at the rim; amplitude is a
    free overall constant (the hopping rate must not depend on it, which
    the test suite asserts).
    """

    mode: WgmMode
    amplitude: float = 1.0

    def __call__(self, rho, z, phi):
        return self.amplitude * field_profile(self.mode, rho, z, phi)


def axial_norm_integral(mode: WgmMode) -> float:
    """Integral of the axial profile squared across the slab interior.

    The overlap integrals are restricted to the disk interiors, so the
    axial direction contributes int_{-h/2}^{h/2} cos^2(beta z) dz, which
    is analytic.  It multiplies every transverse integral identically and
    cancels from all report ratios.
    """
    h = mode.geometry.thickness
    if h is None:
        h = thickness_for_index(mode.k, mode.n_eff,
                                mode.geometry.refractive_index)
    return 0.5 * h + math.sin(mode.beta * h) / (2.0 * mode.beta)
