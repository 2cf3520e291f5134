"""Independent reference implementations for the unit tests.

Everything here is written from scratch against textbook formulas and
shares no code with the package: the cylinder functions are ascending
power series summed in mpmath arbitrary precision, the slab root is a
plain bisection in the axial wavevector (a different variable and a
different misfit function than the production solver uses), the
time evolution oracle is scipy's expm, and the overlap quadrature is
the plain full-mesh rule on scipy's cylinder functions, and the
overlap closed form is Lommel's integrals with Graf's addition theorem
on scipy's cylinder functions.  Slow is fine,
these run on a handful of points.  The table writer is the plain
cell-by-cell loop with one write per line.
"""

import json
import math

import mpmath as mp
import numpy as np
import scipy.linalg
import scipy.special


def _dps_for(x: float) -> int:
    # the ascending J series cancels roughly x/ln(10) digits once the
    # argument is large (terms peak near (x/2)^(2k) before the factorials
    # win), so working precision has to grow with x
    return 30 + int(1.5 * float(x))


def _j_mp(m: int, x):
    """J_m(x) by the ascending series, evaluated at the caller's dps."""
    if x == 0:
        return mp.mpf(1) if m == 0 else mp.mpf(0)
    xh = mp.mpf(x) / 2
    term = xh ** m / mp.factorial(m)
    acc = term
    tiny = mp.mpf(10) ** (-mp.mp.dps + 5)
    k = 0
    while True:
        k += 1
        term *= -xh * xh / (k * (k + m))
        acc += term
        # terms grow until k ~ x/2; only trust smallness past that point
        if k > float(x) and abs(term) < tiny * abs(acc):
            return acc


def bessel_j_ref(m: int, x: float) -> float:
    with mp.workdps(_dps_for(x)):
        return float(_j_mp(m, x))


def bessel_y_ref(n: int, x: float) -> float:
    """Y_n(x) from the ascending (log + digamma) series,

      Y_n = (2/pi) J_n ln(x/2)
            - (1/pi) sum_{k<n} (n-k-1)!/k! (x/2)^{2k-n}
            - (1/pi) sum_{k>=0} (-1)^k [psi(k+1)+psi(n+k+1)]
                                (x/2)^{2k+n} / (k! (n+k)!).
    """
    if x <= 0:
        raise ValueError("x must be > 0")
    with mp.workdps(_dps_for(x)):
        xh = mp.mpf(x) / 2
        acc = (2 / mp.pi) * _j_mp(n, x) * mp.log(xh)
        for k in range(n):
            acc -= (mp.factorial(n - k - 1) / mp.factorial(k)
                    * xh ** (2 * k - n)) / mp.pi
        term = xh ** n / mp.factorial(n)
        tiny = mp.mpf(10) ** (-mp.mp.dps + 5)
        k = 0
        # psi(1) = -gamma, then psi(j+1) = psi(j) + 1/j
        psi_a = -mp.euler
        psi_b = -mp.euler + mp.fsum(mp.mpf(1) / j for j in range(1, n + 1))
        acc -= term * (psi_a + psi_b) / mp.pi
        while True:
            k += 1
            term *= -xh * xh / (k * (k + n))
            psi_a += mp.mpf(1) / k
            psi_b += mp.mpf(1) / (n + k)
            piece = term * (psi_a + psi_b) / mp.pi
            acc -= piece
            if k > float(x) and abs(piece) < tiny * abs(acc):
                return float(acc)


def hankel1_ref(m: int, x: float) -> complex:
    return complex(bessel_j_ref(m, x), bessel_y_ref(m, x))


def slab_index_ref(k: float, h: float, n_c: float) -> float:
    """Fundamental symmetric-TM slab root, bisected in the axial
    wavevector b on (0, min(pi/h, k sqrt(n_c^2-1))) where the misfit

      g(b) = b tan(b h / 2) - n_c^2 sqrt(k^2 (n_c^2 - 1) - b^2)

    runs from negative to positive exactly once."""
    b_cut = k * math.sqrt(n_c * n_c - 1.0)
    hi = min(b_cut, math.pi / h) * (1.0 - 1e-12)
    lo = 1e-9 * hi

    def g(b):
        gam2 = k * k * (n_c * n_c - 1.0) - b * b
        gam = math.sqrt(gam2) if gam2 > 0.0 else 0.0
        return b * math.tan(0.5 * b * h) - n_c * n_c * gam

    assert g(lo) < 0.0 < g(hi), "oracle bracket failed"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    return math.sqrt(n_c * n_c - (b / k) ** 2)


def propagate_ref(h: np.ndarray, t: float, c0: np.ndarray) -> np.ndarray:
    """exp(-i H t) c0 via scipy for a constant Hamiltonian."""
    return scipy.linalg.expm(-1j * np.asarray(h, dtype=complex) * t) @ c0


def extract_phases_ref(amplitudes, floor: float):
    """(phases, valid, final) of the phase tracks of co-moving amplitudes,
    walked element by element: each contiguous run where |amplitude| >=
    floor is unwrapped on its own, a gap repeats the last valid phase (0
    before the first run), and final folds each column's last valid phase
    into (-pi, pi] (0 for a column that is never valid)."""
    w = np.asarray(amplitudes)
    valid = np.abs(w) >= floor
    n = amplitudes.shape[0]
    phases = np.zeros((n, 8))
    final = np.zeros(8)
    for i in range(8):
        col = valid[:, i]
        last = 0.0
        j = 0
        while j < n:
            if not col[j]:
                phases[j, i] = last
                j += 1
                continue
            k = j
            while k < n and col[k]:
                k += 1
            run = np.unwrap(np.angle(w[j:k, i]))
            phases[j:k, i] = run
            last = float(run[-1])
            j = k
        idx = np.nonzero(col)[0]
        if idx.size:
            out = math.remainder(float(phases[idx[-1], i]), 2.0 * math.pi)
            final[i] = out + 2.0 * math.pi if out <= -math.pi else out
    return phases, valid, final


def _cos_m_angle(m: int, dx, dy):
    """cos(m * atan2(dy, dx)), with the angle taken from the nearer of the
    +x and -x axes so that m times it stays small and keeps its digits."""
    sign = np.where(dx < 0.0, (-1.0) ** m, 1.0)
    return sign * np.cos(m * np.arctan2(dy, np.abs(dx)))


def transverse_ref(mode, L: float, n_r: int, n_phi: int,
                   mirror: bool = False) -> tuple:
    """(I00, I01, Ida) of a disk at 0 and a neighbour at x = L by the
    plain rule: Gauss-Legendre in rho times the uniform grid over the
    full period in phi, every exterior field value evaluated by scipy on
    the full mesh and every sum taken exactly (math.fsum).  Ida integrates the
    disk-0 exterior field over a copy of the mesh displaced to the
    neighbour centre; with mirror=True it integrates |E1|^2 over the
    disk-0 mesh instead, which is the same integral with the two disks
    swapped.

    At the larger spacings I01 is a sum that cancels by about 1e3, so
    an angle rounded in its last bit moves it by about 1e-12: the
    azimuthal nodes are reduced mod 2pi in integers before the cosine.
    """
    R = mode.geometry.radius
    m = mode.geometry.azimuthal_number
    k, n_eff = mode.k, mode.n_eff
    xg, wg = np.polynomial.legendre.leggauss(n_r)
    rho = 0.5 * R * (xg + 1.0)
    j = np.arange(n_phi)
    phi = 2.0 * math.pi * j / n_phi
    RR, PP = np.meshgrid(rho, phi, indexing="ij")
    W = (0.5 * R * wg)[:, None] * RR * (2.0 * math.pi / n_phi)
    hR = scipy.special.hankel1(m, k * R)

    def exterior(dx, dy):
        return (scipy.special.hankel1(m, k * np.hypot(dx, dy)) / hR
                * _cos_m_angle(m, dx, dy))

    X, Y = RR * np.cos(PP), RR * np.sin(PP)
    E0 = (scipy.special.jv(m, k * n_eff * rho)[:, None]
          / scipy.special.jv(m, k * n_eff * R)
          * np.cos(2.0 * math.pi * (m * j % n_phi) / n_phi))
    E1 = exterior(X - L, Y)
    E0n = E1 if mirror else exterior(L + X, Y)
    return (math.fsum((W * E0 * E0).ravel()),
            math.fsum((W * E0 * E1.real).ravel()),
            math.fsum((W * np.abs(E0n) ** 2).ravel()))


def overlap_closed_form(mode, L: float) -> tuple:
    """(I00, I01) of a disk at 0 and a neighbour at x = L > 2R in closed
    form, on scipy's cylinder functions; no quadrature.

    I00 = pi * int_0^R J_m(a rho)^2 rho drho / J_m(a R)^2, a = k n_eff,
    by Lommel's integral (R^2/2)(J_m(aR)^2 - J_{m-1}(aR) J_{m+1}(aR)).

    For I01, Graf's addition theorem (DLMF 10.23.7, valid for rho < L)
    expands the neighbour's H_m(k rho1) cos(m phi1) inside disk 0; the
    phi integral against cos(m phi) keeps the orders n = +-m only, and
    leaves (-1)^m pi (H_2m(kL) + (-1)^m H_0(kL)) J_m(k rho).  The rho
    integral of J_m(a rho) J_m(k rho) rho is Lommel's cross integral
    (DLMF 10.22.5), R (a J_{m+1}(aR) J_m(kR) - k J_m(aR) J_{m+1}(kR)) /
    (a^2 - k^2).
    """
    R = mode.geometry.radius
    m = mode.geometry.azimuthal_number
    k, a = mode.k, mode.k * mode.n_eff
    jv, h1 = scipy.special.jv, scipy.special.hankel1
    ja = jv(m, a * R)
    i00 = (math.pi * 0.5 * R * R
           * (ja * ja - jv(m - 1, a * R) * jv(m + 1, a * R)) / (ja * ja))
    cross = R * (a * jv(m + 1, a * R) * jv(m, k * R)
                 - k * ja * jv(m + 1, k * R)) / (a * a - k * k)
    sign = (-1.0) ** m
    graf = sign * math.pi * (h1(2 * m, k * L) + sign * h1(0, k * L)) / h1(m, k * R)
    return float(i00), float(graf.real * cross / ja)


def _fmt_ref(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_table_ref(table, stream, fmt: str) -> None:
    """A result table (columns, rows, metadata) as CSV or JSON, one cell
    and one line at a time: a float to 12 significant digits, None as a
    blank (JSON null), anything else by str (JSON keeps it as is)."""
    if fmt == "csv":
        for key, value in table.metadata.items():
            stream.write(f"# {key}: {value}\n")
        stream.write(",".join(table.columns) + "\n")
        for row in table.rows:
            stream.write(",".join(_fmt_ref(v) for v in row) + "\n")
    else:
        doc = {
            "metadata": {k: (_fmt_ref(v) if isinstance(v, float) else v)
                         for k, v in table.metadata.items()},
            "columns": table.columns,
            "rows": [[(_fmt_ref(v) if isinstance(v, float) else v)
                      for v in row]
                     for row in table.rows],
        }
        json.dump(doc, stream, sort_keys=True, indent=1)
        stream.write("\n")
