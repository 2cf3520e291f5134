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
A solved mode keeps k, n_eff and the geometry, not beta: the axial
factor is common to every chain overlap integral and cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional

from .core import CONSTANTS
from .specfun import X_MAX, bessel_j, hankel1


class NoSolutionError(RuntimeError):
    """No whispering-gallery solution for the requested geometry."""


# Largest core index n_c, about that of high-permittivity ceramics; far
# past it kappa overflows (from n_c ~ 1e150), then n_c**2 (past 1.3e154).
MAX_REFRACTIVE_INDEX = 100.0


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
        if self.refractive_index > MAX_REFRACTIVE_INDEX:
            raise ValueError(f"refractive_index: n_c <= {MAX_REFRACTIVE_INDEX:g} "
                             f"required, got {self.refractive_index}")
        if int(self.azimuthal_number) != self.azimuthal_number or self.azimuthal_number < 1:
            raise ValueError("azimuthal_number: integer >= 1 required, got "
                             f"{self.azimuthal_number}")


@dataclass(frozen=True)
class WgmMode:
    """A solved TM_{m,1} mode."""

    k: float        # vacuum wavevector, 1/um
    n_eff: float
    geometry: DiskGeometry

    def __post_init__(self):
        if self.geometry.thickness is None:
            raise ValueError("geometry: a solved mode needs the disk thickness")
        nc = self.geometry.refractive_index
        if not (1.0 < self.n_eff < nc):
            raise ValueError(f"n_eff: must lie in (1, n_c), got {self.n_eff}")


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

    The left side has a pole at each zero of J_m(k n_eff R); a
    fundamental-order root lies below the first one, where J_m > 0.
    """
    x_in = k * n_eff * R
    return (n_eff * bessel_j(m + 1, x_in) / bessel_j(m, x_in)
            - hankel1(m + 1, k * R) / hankel1(m, k * R))


def _first_zero(m: int) -> float:
    """j_{m,1}, the first positive zero of J_m, for m >= 1.

    The large-order expansion (DLMF 10.21.40) is within 1 % even at
    m = 1; Newton steps with J'_m = J_{m-1} - (m/x) J_m polish it to
    rounding.  Past the cylinder functions' range it is returned as it
    stands, already within 1e-6 there.
    """
    t = m ** (1.0 / 3.0)
    x = (m + 1.8557571 * t + 1.033150 / t - 0.00397 / m
         - 0.0908 / (m * t * t) + 0.043 / (m * m * t))
    for _ in range(8):
        if x > X_MAX:
            break
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
    exists (past the cutoff it does not: NoSolutionError); an empty
    bracket, as for a radius far past the cutoff, is decided before any
    cylinder function is evaluated.  Newton steps, with bisection
    wherever a step would leave the bracket, close it to two adjacent
    doubles.  The derivative needs no further Bessel value:
    with r = J_{m+1}/J_m, dr/dx = 1 - (2m + 1) r/x + r^2.

    Where Y_m(kR) overflows double precision (m beyond ~2300 at guided
    radii) the Hankel ratio is not finite, and a bracket reaching past
    the cylinder functions' range (0, 1e4] cannot be searched.  Either
    way FloatingPointError is raised: the root cannot be decided, which
    is not "no solution".
    """
    if not (R > 0.0 and lam0 > 0.0 and 1.0 < n_c <= MAX_REFRACTIVE_INDEX):
        raise ValueError("solve_disk: R and lam0 must be > 0 and n_c in "
                         f"(1, {MAX_REFRACTIVE_INDEX:g}]")
    m = int(m)
    if m < 1:
        raise ValueError(f"solve_disk: m must be >= 1, got {m}")
    k = 2.0 * math.pi / lam0
    if k * R * n_c <= m:
        raise NoSolutionError(
            f"solve_disk: k R n_c = {k * R * n_c:.2f} <= m = {m}; "
            "no interior oscillatory solution at this radius")
    lo = max(1.0, m / (k * R))
    hi = min(n_c, _first_zero(m) / (k * R))
    if not lo < hi:
        raise NoSolutionError(
            f"solve_disk: no fundamental-order radial root for m={m}, R={R}")
    if hi * k * R > X_MAX:
        raise FloatingPointError(
            f"solve_disk: the bracket for m={m}, R={R} reaches k n R = "
            f"{hi * k * R:.6g}, past the cylinder functions' range (0, 1e4]")
    rhs = (hankel1(m + 1, k * R) / hankel1(m, k * R)).real
    if not math.isfinite(rhs):
        raise FloatingPointError(
            f"solve_disk: Hankel ratio H_{m + 1}/H_{m} at kR = {k * R:.6g} "
            f"is not finite (Y_m overflows) for m={m}, R={R}")

    def misfit(n):
        """(misfit, d misfit / dn) at n."""
        x = k * R * n
        r = bessel_j(m + 1, x) / bessel_j(m, x)
        return n * r - rhs, r + n * k * R * (1.0 - (2 * m + 1) * r / x + r * r)

    if misfit(lo)[0] < 0.0 and (hi < n_c or misfit(hi)[0] > 0.0):
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
    geo = DiskGeometry(radius=R, azimuthal_number=int(m),
                       refractive_index=n_c, thickness=h)
    return WgmMode(k=2.0 * math.pi / lam0, n_eff=n_eff, geometry=geo)

