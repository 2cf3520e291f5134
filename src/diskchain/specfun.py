"""Cylinder functions J_m, Y_m, H_m^(1) for integer order, real argument.

The disk solver lives in the regime m ~ 40..50 with arguments kR ~ 20..120,
which is exactly where naive forward recurrence for J_m explodes.  All three
functions come from one sweep of Miller's backward recurrence:

* J_m: the recurrence is seeded high above the order and normalised by
  J_0 + 2*sum_k J_2k = 1.  Stable for m > x and correct for m < x, so a
  single code path serves both sides of the whispering-gallery turning
  point.  Lanes that outgrow 2^830 are multiplied by 2^-830, a power of
  two, so a rescale is exact.  One step grows the recurrence by at most
  2M/x_min + 1 (M the starting order), so the lanes are tested only as
  often as that bound lets them approach the largest double from 2^830.
* Y_0, Y_1: while the sweep runs down it also collects Neumann's sums
  (A&S 9.1.88 and its companion for Y_1),

    (pi/2) Y_0 = (ln(x/2) + gamma) J_0 - 2 sum_k (-1)^k J_2k / k,
    (pi/2) Y_1 = (ln(x/2) + gamma - 1) J_1 - J_0/x
                 - sum_k (-1)^k (2k+1) J_(2k+1) / (k(k+1)),

  normalised by the same even sum as J_m.  Each sum is at most M times the
  largest |J| in its lane, like the even sum, so the rescale test keeps its
  stride.  A call that needs only J skips the sums.
* Y_m: upward recurrence from Y_0, Y_1, stable because Y_m grows with m;
  where it outgrows double precision the value comes back inf or nan
  without a warning, and the caller checks.
* H_m^(1) = J_m + i Y_m from the same sweep.

Below x = 2^-30 one step of 2k/x could overflow, so those lanes take the
leading terms (x/2)^m/m!, (2/pi)(ln(x/2) + gamma) and -2/(pi x); the next
terms are below 2^-56 relative there, so these are exact to double
precision.  x = 0 is allowed for J only.

Everything accepts scalars or numpy arrays of the argument, 0 < x <= 1e4
(the sweep costs O(x)); arrays are the fast path the field integrals rely
on.  Orders stay scalar, matching how the physics uses them.  Against a
mpmath series oracle the worst error of Y_0 and Y_1, relative to
max(sqrt(2/(pi x)), |Y|), is ~2e-15 for x <= 20, ~1e-14 up to 150 and
~3e-12 up to 1e4, where Y's own condition number is about x*eps; J holds
~3e-13 relative.  Both are well inside the 10-significant-digit budget the
solvers assume.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606

X_MAX = 1.0e4

# below this argument the leading ascending terms are exact
_X_TINY = 2.0 ** -30

# Miller rescaling: lanes above _J_BIG are multiplied by _J_RESCALE; the
# largest double is exp(_J_HEADROOM_LOG) times _J_BIG, about 2.5e58
_J_BIG = 2.0 ** 830
_J_RESCALE = 2.0 ** -830
_J_HEADROOM_LOG = math.log(np.finfo(float).max / _J_BIG)


def _args(name: str, m, x, zero_ok: bool):
    """Validate the order and the argument; return the order and x as an
    array."""
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: argument must be finite")
    low = arr < 0.0 if zero_ok else arr <= 0.0
    if np.any(low) or np.any(arr > X_MAX):
        raise ValueError(f"{name}: argument must lie in "
                         f"{'[' if zero_ok else '('}0, {X_MAX:g}]")
    return int(m), arr


def _sweep(m: int, x: np.ndarray, with_y: bool) -> np.ndarray:
    """J_m(x), or J_m(x) + i Y_m(x) if with_y, for a 1-d float array x in
    the checked domain, from one Miller sweep."""
    # zeros: a rescale multiplies jv before J_m is stored in it
    out = np.zeros(x.shape, complex if with_y else float)
    jv = out.real                     # J_m, held unnormalised during the sweep
    tiny = x < _X_TINY
    has_tiny = bool(tiny.any())
    # tiny lanes run the sweep at x = 1 and are overwritten at the end
    xs = np.where(tiny, 1.0, x) if has_tiny else x
    top = max(m, float(xs.max()))
    M = int(top + 1.5 * math.sqrt(top) + 36.0)
    if M % 2:
        M += 1
    inv_x = 1.0 / xs
    # Each step grows max(|J_k|, |J_{k+1}|) by at most g = 2M/x_min + 1, and
    # the normalisation 2*even + J_0 and both Neumann sums stay below M + 3
    # times the largest |J| seen.  From below _J_BIG that leaves room for
    # `stride` steps.
    g = 2.0 * M * float(inv_x.max()) + 1.0
    stride = max(1, int((_J_HEADROOM_LOG - math.log(M + 3)) / math.log(g)))
    jp = np.zeros_like(xs)            # J_{k+1}
    jc = np.full_like(xs, 1e-30)      # J_k, arbitrary seed
    jm = np.empty_like(xs)
    even = np.zeros_like(xs)          # J_2 + J_4 + ...
    sums = (np.zeros_like(xs), np.zeros_like(xs)) if with_y else ()
    for k in range(M, 0, -1):
        np.multiply(inv_x, 2.0 * k, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, jm = jc, jm, jp       # jc is J_{k-1}, jm is free
        if k - 1 == m:
            jv[...] = jc
        if k % 2 and k > 1:
            even += jc
        if with_y and k > 2:
            # Neumann terms -2 (-1)^j J_2j / j into the first sum and
            # -(-1)^j (2j+1) J_2j+1 / (j(j+1)) into the second
            j = (k - 1) // 2
            c = 2.0 / j if k % 2 else (2 * j + 1) / (j * (j + 1))
            s = sums[0] if k % 2 else sums[1]
            s += np.multiply(jc, c if j % 2 else -c, out=jm)
        if k % stride == 0 and max(np.abs(jc, out=jm).max(),
                                   np.abs(jp, out=jm).max()) > _J_BIG:
            # rescale the runaway lanes by a power of two, exactly; Miller
            # only needs ratios
            big = (np.abs(jc) > _J_BIG) | (np.abs(jp) > _J_BIG)
            for a in (jc, jp, even, jv) + sums:
                a[big] *= _J_RESCALE
    even *= 2.0
    even += jc                        # J_0 + 2 (J_2 + J_4 + ...)
    jv /= even
    if has_tiny:
        h = 0.5 * x[tiny]
        t = np.ones_like(h)
        for j in range(1, m + 1):
            t *= h / j
        jv[tiny] = t
    if not with_y:
        return out
    s0, s1 = sums
    # Y_0, Y_1 in place: jm = ln(x/2) + gamma, jc = (pi/2) Y_0 and
    # jp = (pi/2) Y_1, still unnormalised
    np.multiply(xs, 0.5, out=jm)
    np.log(jm, out=jm)
    jm += EULER_GAMMA
    s1 -= jp
    jp *= jm
    jp += s1
    np.multiply(jc, inv_x, out=s1)
    jp -= s1
    jc *= jm
    jc += s0
    np.divide(2.0 / math.pi, even, out=even)
    jc *= even
    jp *= even
    with np.errstate(over="ignore", invalid="ignore"):
        if has_tiny:
            xt = x[tiny]
            jc[tiny] = (2.0 / math.pi) * (np.log(xt) - math.log(2.0)
                                          + EULER_GAMMA)
            inv_x[tiny] = 1.0 / xt
            jp[tiny] = (-2.0 / math.pi) * inv_x[tiny]
        ym1, yc, t = jc, (jc if m == 0 else jp), jm
        for k in range(1, m):
            np.multiply(inv_x, 2.0 * k, out=t)
            t *= yc
            t -= ym1
            ym1, yc, t = yc, t, ym1
    out.imag = yc
    return out


def _call(name: str, m, x, zero_ok: bool, with_y: bool):
    m, arr = _args(name, m, x, zero_ok)
    return _sweep(m, arr.ravel(), with_y).reshape(arr.shape), arr.ndim == 0


def bessel_j(m: int, x):
    """Bessel function of the first kind, integer order, 0 <= x <= 1e4."""
    res, scalar = _call("bessel_j", m, x, True, False)
    return float(res) if scalar else res


def bessel_y(m: int, x):
    """Bessel function of the second kind, integer order, 0 < x <= 1e4."""
    res, scalar = _call("bessel_y", m, x, False, True)
    return float(res.imag) if scalar else res.imag


def hankel1(m: int, x):
    """Hankel function of the first kind, H_m^(1) = J_m + i Y_m,
    0 < x <= 1e4."""
    res, scalar = _call("hankel1", m, x, False, True)
    return complex(res) if scalar else res
