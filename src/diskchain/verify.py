"""Self-checks against the bundled reference values.

Each check returns CheckResult rows; reproduce-tables prints them and the
acceptance tests assert on them.  The expensive intermediate data (the
thickness table, the hopping sweeps, the gate runs) is computed once and
shared between the criteria that consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
import time

import numpy as np

from . import refdata
from .chain import coupling_kappa, dispersion, fit_loglinear, overlap_integrals
from .config import SimConfig
from .core import HBAR_EV_S, wavelength_to_freq
from .dynamics import (CZ_SIGNS, DetuningPulse, GateParams, PulseSchedule,
                       RegisterState, build_hamiltonian, cz_phase_error,
                       evolve, run_cz)
from .specfun import bessel_j, bessel_y
from .wgm import solve_disk, solve_mode


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    measured: object
    expected: object
    detail: str = ""


def _res(criterion, name, passed, measured, expected, detail=""):
    return CheckResult(criterion, name, bool(passed), measured, expected,
                       detail)


# ---------------------------------------------------------------------------
# criterion 1: thickness table


def check_table1(cfg: SimConfig) -> list:
    out = []
    t0 = time.perf_counter()
    for m, table in ((40, refdata.TABLE1_M40), (50, refdata.TABLE1_M50)):
        for radius, h_ref in table.items():
            name = f"table1 m={m} R={radius:.2f}"
            try:
                _, h = solve_disk(radius, m, cfg.wavelength,
                                  cfg.disk.refractive_index)
            except Exception as exc:
                out.append(_res(1, name, False, "error", f"{h_ref} um",
                                detail=str(exc)))
                continue
            tol = max(0.05 * h_ref, 0.005)
            out.append(_res(1, name, abs(h - h_ref) <= tol,
                            f"{h:.4f} um", f"{h_ref} um",
                            detail=f"|diff| <= {tol:.4f} um"))
    elapsed = time.perf_counter() - t0
    out.append(_res(1, "table1 runtime", elapsed < 10.0,
                    f"{elapsed:.2f} s", "< 10 s"))
    return out


# ---------------------------------------------------------------------------
# criteria 2-4: hopping sweeps (shared data)


_SWEEP_TABLES = ((40, refdata.TABLE2_M40), (50, refdata.TABLE3_M50))


def hopping_data(cfg: SimConfig) -> tuple:
    """kappa in eV for every reference (m, R) row over the L/R grid;
    returns ({(m, R): [kappa_ev, ...]}, elapsed_seconds)."""
    omega = wavelength_to_freq(cfg.wavelength)
    data = {}
    t0 = time.perf_counter()
    for m, table in _SWEEP_TABLES:
        for radius in table:
            mode = solve_mode(radius, m, cfg.wavelength,
                              cfg.disk.refractive_index)
            data[(m, radius)] = [
                abs(HBAR_EV_S * coupling_kappa(
                    overlap_integrals(mode, lr * radius), omega))
                for lr in refdata.L_OVER_R]
    return data, time.perf_counter() - t0


def check_hopping(data: dict, elapsed: float) -> list:
    rel = 0.30
    grid = refdata.L_OVER_R
    i_201, i_211, i_221, i_249 = (grid.index(2.01), grid.index(2.11),
                                  grid.index(2.21), grid.index(2.49))
    out = []
    for m, table in _SWEEP_TABLES:
        for radius, ref in table.items():
            got = data[(m, radius)]
            tag = f"m={m} R={radius:.1f}"

            ratio = got[i_211] / got[i_221]
            ratio_ref = ref[i_211] / ref[i_221]
            out.append(_res(2, f"hopping mid-ratio {tag}",
                            abs(ratio / ratio_ref - 1.0) <= rel,
                            f"{ratio:.3g}", f"{ratio_ref:.3g} +- {rel:.0%}"))

            span = got[i_201] / got[i_249]
            span_ref = ref[i_201] / ref[i_249]
            frac = span / span_ref
            out.append(_res(2, f"hopping span {tag}",
                            0.1 <= frac <= 10.0,
                            f"{span:.3g}", f"{span_ref:.3g} within 10x"))
    out.append(_res(2, "hopping runtime", elapsed < 300.0,
                    f"{elapsed:.1f} s", "< 300 s"))
    return out


# The straight-line decay check is quoted over L/R <= 2.31.  Further out
# the weakly confined large-R modes cross from evanescent overlap into the
# radiative 1/sqrt(k rho) tail and log kappa visibly flattens; the bundled
# reference values curve the same way there (their own full-grid fit for
# m=40, R=3 gives R2 = 0.987), so the log-linear claim belongs to the
# near-spacing window.
_FIT_POINTS = 4


def check_decay_fits(data: dict) -> list:
    out = []
    slopes = {}
    window = refdata.L_OVER_R[:_FIT_POINTS]
    for (m, radius), kappas in sorted(data.items()):
        spacings = [lr * radius for lr in window]
        slope, _, r2 = fit_loglinear(spacings, kappas[:_FIT_POINTS])
        slopes[(m, radius)] = slope
        tag = f"m={m} R={radius:.1f}"
        out.append(_res(3, f"decay fit {tag}", r2 > 0.99 and slope < 0.0,
                        f"R2={r2:.4f}, slope={slope:.3f}/um",
                        "R2 > 0.99, slope < 0",
                        detail=f"fit over L/R in [{window[0]}, {window[-1]}]"))
    for m, table in _SWEEP_TABLES:
        radii = sorted(table)
        mags = [abs(slopes[(m, r)]) for r in radii]
        ok = all(a > b for a, b in zip(mags[:-1], mags[1:]))
        out.append(_res(3, f"decay slope ordering m={m}", ok,
                        "[" + ", ".join(f"{v:.2f}" for v in mags) + "]",
                        "|slope| decreasing with R"))
    return out


def check_mode_ordering(data: dict) -> list:
    out = []
    shared = sorted({r for (m, r) in data if m == 40}
                    & {r for (m, r) in data if m == 50})
    for radius in shared:
        k40, k50 = data[(40, radius)], data[(50, radius)]
        ok = all(b < a for a, b in zip(k40, k50))
        out.append(_res(4, f"hopping m=50 < m=40 at R={radius:.1f}", ok,
                        f"max(k50/k40)={max(b / a for a, b in zip(k40, k50)):.3f}",
                        "< 1 at every L/R"))
    for m, table in _SWEEP_TABLES:
        radii = sorted(table)
        ok = True
        worst = math.inf
        for i in range(len(refdata.L_OVER_R)):
            col = [data[(m, r)][i] for r in radii]
            worst = min(worst, min(b / a for a, b in zip(col[:-1], col[1:])))
            ok = ok and all(a < b for a, b in zip(col[:-1], col[1:]))
        out.append(_res(4, f"hopping increasing in R, m={m}", ok,
                        f"min step ratio {worst:.3f}", "> 1 at every L/R"))
    return out


# ---------------------------------------------------------------------------
# criteria 5-7: the gate


def _expm(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def check_gate(params: GateParams) -> list:
    out = []
    t0 = time.perf_counter()

    run = run_cz(RegisterState.logical_superposition(), params)
    elapsed = time.perf_counter() - t0

    devs = cz_phase_error(run.phases)
    out.append(_res(5, "cz phases (pi, pi, pi, 0)", max(devs) <= 0.05,
                    "[" + ", ".join(f"{v:.4f}" for v in run.phases) + "] rad",
                    "within 0.05 rad",
                    detail=f"worst deviation {max(devs):.4f} rad"))

    out.append(_res(5, "cz population return", min(run.returns) >= 1.0 - 1e-2,
                    f"min {min(run.returns):.5f}", ">= 0.99"))

    leak = max(*run.leakages, run.leakage)
    out.append(_res(5, "cz leakage", leak < 1e-2, f"max {leak:.2e}", "< 1e-2"))

    fid = float(np.abs(np.vdot(0.5 * CZ_SIGNS, run.final[:4])) ** 2)
    out.append(_res(5, "cz superposition fidelity",
                    fid >= 1.0 - 4.0 * params.epsilon,
                    f"{fid:.5f}", f">= {1.0 - 4.0 * params.epsilon:.2f}"))

    out.append(_res(5, "cz runtime", elapsed < 10.0,
                    f"{elapsed:.2f} s", "< 10 s"))

    # criterion 6: evolve against an eigh-built exp(-iHt), a construction
    # independent of the propagator's Taylor series, rotated into the
    # co-moving frame by exp(i H_ii t); samples=2 cuts each window into
    # two steps, so the test needs no long trajectory
    two_records = replace(params, samples=2)
    rng = np.random.default_rng(7)
    c0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    c0 /= np.linalg.norm(c0)
    worst = 0.0
    for pulses, dur in (((), 2.0 * params.T1),
                        ((DetuningPulse(1, 0.0, params.T1),), params.T1),
                        ((DetuningPulse(2, 0.0, params.T2),), params.T2)):
        sched = PulseSchedule(pulses, dur)
        final = evolve(c0, sched, two_records).final
        h = build_hamiltonian(0.0, params, sched)
        want = np.exp(1j * np.real(np.diag(h)) * dur) * (_expm(h, dur) @ c0)
        worst = max(worst, np.linalg.norm(final - want))
    out.append(_res(6, "evolve vs eigh propagator", worst < 1e-6,
                    f"max |diff| {worst:.2e}", "< 1e-6 per segment"))

    # resonant window on the exactly two-level pair (|g1,+2;1>, |e1,+2;0>)
    worst = 0.0
    for theta in (0.5 * math.pi, math.pi):
        dur = theta / params.g1
        sched = PulseSchedule((DetuningPulse(1, 0.0, dur),), dur)
        got = evolve(RegisterState.basis(1).amplitudes, sched,
                     two_records).final[[1, 6]]
        want = np.array([math.cos(theta), -1j * math.sin(theta)])
        worst = max(worst, float(np.linalg.norm(got - want)))
    out.append(_res(6, "resonant window propagator", worst < 1e-4,
                    f"max |diff| {worst:.2e}", "< 1e-4"))

    # parked pair over a whole number of dressed periods
    delta = params.delta_max
    omega_d = math.hypot(delta, 2.0 * params.g1)
    dur = 2.0 * math.pi * 25.0 / omega_d
    sched = PulseSchedule((), dur)
    c0 = np.zeros(8, dtype=complex)
    c0[1] = c0[6] = 1.0 / math.sqrt(2.0)
    got = evolve(c0, sched, two_records).final[[1, 6]]
    theta = -params.g1 ** 2 * dur / delta
    want = np.exp([1j * theta, -1j * theta]) / math.sqrt(2.0)
    err = float(np.linalg.norm(got - want))
    out.append(_res(6, "far-detuned window propagator", err < 1e-4,
                    f"|diff| {err:.2e}", "< 1e-4 (order (g/delta)^2)"))

    # criterion 7: conservation along the superposition run
    amps = run.trajectory.amplitudes
    norm_drift = float(np.max(np.abs(np.linalg.norm(amps, axis=1) - 1.0)))
    out.append(_res(7, "norm drift", norm_drift < 1e-9,
                    f"{norm_drift:.2e}", "< 1e-9"))
    # every basis state carries one excitation (photon or excited level),
    # so <N> is the summed |c|^2 of each record
    exc_drift = float(np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)))
    out.append(_res(7, "excitation drift", exc_drift < 1e-9,
                    f"{exc_drift:.2e}", "< 1e-9"))
    dark = np.abs(amps[:, 3]) ** 2
    dark_drift = float(np.max(np.abs(dark - dark[0])))
    out.append(_res(7, "dark-state population flat", dark_drift < 1e-12,
                    f"{dark_drift:.2e}", "< 1e-12"))
    return out


# ---------------------------------------------------------------------------
# criterion 8: cylinder functions


def _j_series(m: int, x: float) -> float:
    """Ascending-series J_m, accurate for x <~ m where the series has no
    catastrophic cancellation; independent of the production evaluator."""
    term = (0.5 * x) ** m / math.factorial(m)
    total = [term]
    for k in range(1, 200):
        term *= -(0.25 * x * x) / (k * (m + k))
        total.append(term)
        if abs(term) < 1e-30 * (1.0 + abs(math.fsum(total))):
            break
    return math.fsum(total)


def check_specfun() -> list:
    out = []
    spots = ((0, 1.0), (1, 1.0), (10, 5.0), (40, 20.0), (50, 30.0))
    worst = 0.0
    for m, x in spots:
        ref = _j_series(m, x)
        got = bessel_j(m, x)
        worst = max(worst, abs(got - ref) / abs(ref))
    out.append(_res(8, "bessel_j spot values vs series", worst < 1e-10,
                    f"max rel err {worst:.2e}", "< 1e-10 (10 digits)"))

    xs = np.geomspace(1.0, 100.0, 25)
    worst = 0.0
    for m in (0, 10, 40, 50):
        w = (bessel_j(m + 1, xs) * bessel_y(m, xs)
             - bessel_j(m, xs) * bessel_y(m + 1, xs))
        worst = max(worst, float(np.max(np.abs(w * (math.pi * xs) / 2.0 - 1.0))))
    out.append(_res(8, "wronskian identity", worst < 1e-9,
                    f"max rel err {worst:.2e}", "< 1e-9"))

    worst = 0.0
    for m in (1, 10, 40, 50):
        jm1, jm, jp1 = (bessel_j(m - 1, xs), bessel_j(m, xs),
                        bessel_j(m + 1, xs))
        resid = jm1 + jp1 - (2.0 * m / xs) * jm
        scale = np.maximum.reduce([np.abs(jm1), np.abs(jp1),
                                   np.abs((2.0 * m / xs) * jm)])
        worst = max(worst, float(np.max(np.abs(resid) / scale)))
        ym1, ym, yp1 = (bessel_y(m - 1, xs), bessel_y(m, xs),
                        bessel_y(m + 1, xs))
        resid = ym1 + yp1 - (2.0 * m / xs) * ym
        scale = np.maximum.reduce([np.abs(ym1), np.abs(yp1),
                                   np.abs((2.0 * m / xs) * ym)])
        worst = max(worst, float(np.max(np.abs(resid) / scale)))
    out.append(_res(8, "three-term recurrence", worst < 1e-9,
                    f"max rel err {worst:.2e}", "< 1e-9"))
    return out


# ---------------------------------------------------------------------------
# criterion 9: normalisation invariance


def check_scaling(cfg: SimConfig) -> list:
    out = []
    mode = solve_mode(3.0, 40, cfg.wavelength, cfg.disk.refractive_index)
    omega = wavelength_to_freq(cfg.wavelength)
    L = 2.21 * 3.0

    # a field amplitude a enters every overlap integral as one factor a^2
    base = overlap_integrals(mode, L)
    scaled = replace(base, **{name: 3.7 ** 2 * getattr(base, name) for name in
                              ("beta0", "beta1", "alpha1", "delta_alpha",
                               "zeta")})
    k_base = coupling_kappa(base, omega)
    k_scaled = coupling_kappa(scaled, omega)
    dk = abs(k_scaled / k_base - 1.0)
    out.append(_res(9, "field scaling leaves kappa fixed", dk < 1e-10,
                    f"rel change {dk:.2e}", "< 1e-10"))

    kl = np.linspace(-math.pi, math.pi, 9)
    d_base = dispersion(omega, base, kl)
    d_scaled = dispersion(omega, scaled, kl)
    dd = float(np.max(np.abs(d_scaled / d_base - 1.0)))
    out.append(_res(9, "field scaling leaves dispersion fixed", dd < 1e-10,
                    f"max rel change {dd:.2e}", "< 1e-10"))

    sup = RegisterState.logical_superposition()
    a = run_cz(sup)
    b = run_cz(RegisterState(np.exp(0.3j) * sup.amplitudes))
    dp = float(np.max(np.abs(np.abs(b.final) ** 2 - np.abs(a.final) ** 2)))
    fa, fb = (np.angle(r.final[:4]) for r in (a, b))
    dphi = max(abs(math.remainder((x - fa[3]) - (y - fb[3]), 2.0 * math.pi))
               for x, y in zip(fa, fb))
    ok = dp < 1e-10 and dphi < 1e-10
    out.append(_res(9, "global phase leaves gate fixed", ok,
                    f"pop diff {dp:.2e}, phase diff {dphi:.2e}", "< 1e-10"))
    return out


# ---------------------------------------------------------------------------


def run_all(config: SimConfig = SimConfig()) -> list:
    out = []
    out += check_table1(config)
    data, elapsed = hopping_data(config)
    out += check_hopping(data, elapsed)
    out += check_decay_fits(data)
    out += check_mode_ordering(data)
    out += check_gate(config.gate)
    out += check_specfun()
    out += check_scaling(config)
    return out
