"""The three benchmark workloads: seeded inputs and result checks.

A workload is a sequence of rounds.  A round is a fixed list of CLI
calls (`Call`), each with the INI file it runs on and the inputs its
check needs; every round of a workload attempts the same number of
operations, and a run attempts whole rounds only, so the share of
failed operations does not depend on the seed or the run length.  One
operation is one result row:

* disk-table: one `m R` row of disk-solve;
* hopping-grid: one kappa row of coupling-sweep, or one whole band of
  dispersion;
* gate-sweep: one truth-table row (four per gate point) or the
  superposition trajectory of that point.

The checks compare each result with `oracle` (scipy only) or with a
property the method must have.  They import it when they run, after the
timed rounds, so scipy never counts in the workload's peak memory.  Only
the gate check calls back into the package, for the two things the
trajectory file cannot show: the pulse windows of the schedule and the
norm of the state along the run.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from pathlib import Path
import random
from typing import Optional

WAVELENGTH_UM = 0.637
N_C = 2.4
D_G_RAD_S = 2.0 * math.pi * 2.87e9
EPSILON = 0.01

# Radii (um) between which the TM_{m,1} mode at 637 nm is guided,
# 1 < n_eff < n_c: below R_LOW there is no fundamental root, above R_CUT
# its n_eff would fall below 1.  Derived with oracle.fundamental_roots;
# the self-test re-derives them.
R_LOW = {40: 1.9214, 41: 1.9658, 42: 2.0102, 43: 2.0545, 44: 2.0988,
         45: 2.1431, 46: 2.1874, 47: 2.2316, 48: 2.2758, 49: 2.3199,
         50: 2.3641}
R_CUT = {40: 4.3859, 41: 4.4899, 42: 4.5939, 43: 4.6978, 44: 4.8016,
         45: 4.9055, 46: 5.0093, 47: 5.1130, 48: 5.2168, 49: 5.3205,
         50: 5.4241}

# Seeded rows stay this far below R_CUT: right at the cutoff n_eff - 1
# shrinks below the solver's 1e-6 scan offset.
CUTOFF_MARGIN_UM = 0.05

# Fixed rows, the same in every round and not drawn from the seed.  Past
# the fundamental cutoff disk-solve returns the second-radial-order root
# and labels it ok, so those rows fail the k n_eff R < j_(m,1) check on
# every run.  Below R_LOW there is no guided mode: (50, 2.0) is refused
# before the scan (k R n_c < m), (46, 2.0) after it.
PAST_CUTOFF_ROWS = ((40, 4.4), (40, 5.0), (43, 4.8), (45, 5.0))
NO_SOLUTION_ROWS = ((46, 2.0), (50, 2.0))
# prefix of the failures of the past-cutoff rows; any other failure is new
KEPT_FAULT = "kept fault: "

DISK_ROWS_PER_M = 3
SPACINGS_PER_SWEEP = 4
L_OVER_R_RANGE = (2.01, 2.49)


@dataclass
class Call:
    """One cli.main invocation: `command --config <ini>` (plus `--out
    <file>` when out_file), yielding `ops` operations."""

    command: str
    ini: str
    ops: int
    inputs: dict
    out_file: bool = False


@dataclass
class Output:
    """What one call left: exit code, captured streams, the --out file
    (read when checked, so a long run does not hold every trajectory in
    memory) and the wall time of cli.main."""

    code: int
    stdout: str
    stderr: str
    out_path: Optional[Path] = None
    seconds: float = 0.0

    @property
    def file_text(self) -> str:
        return self.out_path.read_text(encoding="utf-8") if self.out_path else ""


def parse_table(text: str) -> tuple:
    """(metadata, rows) of a CSV table with '# key: value' metadata."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def _stratified(rng: random.Random, lo: float, hi: float, n: int,
                digits: int = 4) -> list:
    """n sorted values, one uniform draw in each of n equal strata."""
    w = (hi - lo) / n
    return [round(lo + w * (i + rng.random()), digits) for i in range(n)]


def _failed_call(call: Call, out: Output) -> list:
    msg = f"{call.command} exited {out.code}: {out.stderr.strip()[-200:]}"
    return [[msg] for _ in range(call.ops)]


# ---------------------------------------------------------------------------
# disk-table


def _disk_ini(rows) -> str:
    pairs = "; ".join(f"{m} {R:.4f}" for m, R in rows)
    return (f"[disk]\nwavelength = {WAVELENGTH_UM} um\n"
            f"refractive_index = {N_C}\nsolve_rows = {pairs}\n")


def disk_round(rng: random.Random) -> list:
    """One disk-solve per m = 40..50 over seeded guided rows, then one over
    the fixed rows.  Every seeded call has the same shape, so the median
    call does not depend on how many cheap no-solution rows a seed draws."""
    calls = []
    for m in range(40, 51):
        lo = max(2.0, R_LOW[m] + CUTOFF_MARGIN_UM)
        hi = min(5.0, R_CUT[m] - CUTOFF_MARGIN_UM)
        rows = [(m, R) for R in _stratified(rng, lo, hi, DISK_ROWS_PER_M)]
        calls.append(Call("disk-solve", _disk_ini(rows), len(rows),
                          {"rows": rows}))
    rows = list(PAST_CUTOFF_ROWS + NO_SOLUTION_ROWS)
    calls.append(Call("disk-solve", _disk_ini(rows), len(rows), {"rows": rows}))
    return calls


def check_disk(call: Call, out: Output) -> list:
    from oracle import check_disk_row
    if out.code != 0:
        return _failed_call(call, out)
    _, rows = parse_table(out.stdout)
    result = []
    for i, (m, R) in enumerate(call.inputs["rows"]):
        if i >= len(rows):
            result.append([f"m={m} R={R}: row missing"])
            continue
        row = rows[i]
        if int(row["m"]) != m or float(row["R_um"]) != R:
            result.append([f"row {i} is m={row['m']} R={row['R_um']}, "
                           f"expected m={m} R={R}"])
            continue
        ok = row["status"] == "ok"
        fails = check_disk_row(m, R, WAVELENGTH_UM, N_C, row["status"],
                               float(row["n_eff"]) if ok else None,
                               float(row["h_um"]) if ok else None)
        if (m, R) in PAST_CUTOFF_ROWS:
            fails = [KEPT_FAULT + msg for msg in fails]
        result.append(fails)
    return result


# ---------------------------------------------------------------------------
# hopping-grid


def _design(rng: random.Random, m: int) -> tuple:
    """A disk with a well-guided fundamental mode and evanescent coupling
    over the whole spacing range: R within 1 um above R_LOW(m)."""
    lo = max(2.0, R_LOW[m] + CUTOFF_MARGIN_UM)
    return m, round(lo + (R_LOW[m] + 1.0 - lo) * rng.random(), 4)


def _chain_ini(m: int, R: float, l_over_r) -> str:
    grid = ", ".join(f"{x:.4f}" for x in l_over_r)
    return (f"[disk]\nradius = {R:.4f} um\nazimuthal_number = {m}\n"
            f"wavelength = {WAVELENGTH_UM} um\nrefractive_index = {N_C}\n"
            f"[chain]\nl_over_r = {grid}\n")


def hopping_round(rng: random.Random) -> list:
    """coupling-sweeps of an m = 40 and an m = 45 design, then one
    dispersion of an m = 50 design, each at a seeded R and spacings.

    m sets the quadrature size (8m azimuthal points per level) and with it
    the time and memory of a call, so each slot keeps its m: every round
    does the same work, and the m = 50 dispersion holds the widest grid,
    which fixes peak memory.  The sweeps, the slower command, set the
    median call."""
    calls = []
    for m in (40, 45):
        m, R = _design(rng, m)
        lrs = _stratified(rng, *L_OVER_R_RANGE, SPACINGS_PER_SWEEP)
        calls.append(Call("coupling-sweep", _chain_ini(m, R, lrs), len(lrs),
                          {"m": m, "R": R, "l_over_r": lrs}))
    m, R = _design(rng, 50)
    lr = _stratified(rng, *L_OVER_R_RANGE, 1)[0]
    calls.append(Call("dispersion", _chain_ini(m, R, [lr]), 1,
                      {"m": m, "R": R, "l_over_r": [lr]}))
    return calls


def check_hopping(call: Call, out: Output, kappa_ref=None) -> list:
    """kappa_ref(m, R, L) defaults to oracle.kappa; the self-test passes
    a cache so it can re-check perturbed copies cheaply."""
    import oracle
    if out.code != 0:
        return _failed_call(call, out)
    kappa_ref = kappa_ref or (lambda m, R, L: oracle.kappa(
        m, R, WAVELENGTH_UM, N_C, L))
    m, R = call.inputs["m"], call.inputs["R"]
    meta, rows = parse_table(out.stdout)
    if call.command == "dispersion":
        L = call.inputs["l_over_r"][0] * R
        label = f"band m={m} R={R} L={L:.4f}"
        got = float(meta["kappa_rad_s"])
        fails = oracle.check_kappa(got, kappa_ref(m, R, L), label)
        fails += oracle.check_band(
            [float(r["KL_rad"]) for r in rows],
            [float(r["omega_rad_s"]) for r in rows],
            float(meta["omega_rad_s"]), got,
            float(meta["band_width_rad_s"]), label)
        return [fails]
    result = []
    prev = None
    for i, lr in enumerate(call.inputs["l_over_r"]):
        label = f"m={m} R={R} L/R={lr}"
        if i >= len(rows) or float(rows[i]["l_over_r"]) != lr:
            result.append([f"{label}: row missing or out of order"])
            continue
        got = float(rows[i]["kappa_rad_s"])
        fails = oracle.check_kappa(got, kappa_ref(m, R, lr * R), label)
        if prev is not None and not abs(got) < abs(prev):
            fails.append(f"{label}: |kappa| {abs(got):.6g} does not fall "
                         f"below the previous spacing's {abs(prev):.6g}")
        prev = got
        result.append(fails)
    return result


# ---------------------------------------------------------------------------
# gate-sweep


def _gate_ini(g1: float, g2: float, delta_max: float) -> str:
    return ("[gate]\n"
            f"g1 = {g1!r} rad_s\ng2 = {g2!r} rad_s\n"
            f"delta_max = {delta_max!r} rad_s\nomega_a0 = 2.95e15 rad_s\n"
            f"d_g = {D_G_RAD_S!r} rad_s\nepsilon = {EPSILON!r}\n"
            "[pulses]\nguard = calibrated\nsamples = 1200\n")


def gate_round(rng: random.Random) -> list:
    """One gate point.  delta_max/g1 starts at 100: below about 80 the
    calibrated schedule leaks more than epsilon at some (g1, g2) and
    run_cz rightly refuses the gate."""
    g1 = 5e9 + 1.5e10 * rng.random()
    g2 = g1 * (0.8 + 0.15 * rng.random())
    delta_max = g1 * (100.0 + 300.0 * rng.random())
    return [Call("gate-sim", _gate_ini(g1, g2, delta_max), 5,
                 {"g1": g1, "g2": g2, "delta_max": delta_max},
                 out_file=True)]


def _truth_row(text: str) -> dict:
    return {k: float(v.split()[0]) for k, v in
            (part.strip().split("=") for part in text.split(","))}


def program_gate_facts(inputs: dict) -> tuple:
    """(windows, duration, trajectory amplitudes) from the package itself:
    the schedule run_cz uses and the state along the superposition run."""
    from diskchain.dynamics import (GateParams, RegisterState,
                                    make_cz_schedule, run_cz)
    params = GateParams(g1=inputs["g1"], g2=inputs["g2"],
                        delta_max=inputs["delta_max"], D_g=D_G_RAD_S,
                        epsilon=EPSILON)
    schedule = make_cz_schedule(params)
    windows = [(p.qubit, p.t_on, p.t_off) for p in schedule.pulses]
    amps = run_cz(RegisterState.logical_superposition(),
                  params).trajectory.amplitudes
    return windows, schedule.duration, amps


def check_gate(call: Call, out: Output, facts=None) -> list:
    """Four truth-table rows, then the superposition trajectory."""
    import numpy as np
    import oracle
    if out.code != 0:
        return _failed_call(call, out)
    g1, g2, dmax = (call.inputs[k] for k in ("g1", "g2", "delta_max"))
    windows, duration, amps = facts or program_gate_facts(call.inputs)
    u, theta = oracle.gate_propagator(g1, g2, D_G_RAD_S, dmax, windows,
                                      duration)
    meta, rows = parse_table(out.file_text)
    result = []
    for i in range(4):
        got = _truth_row(meta[f"truth_state_{i}"])
        col = u[:, i]
        ret = abs(col[i]) ** 2
        leak = 1.0 - float(np.sum(np.abs(col[:4]) ** 2))
        phase = float(np.angle(col[i]) + theta[i])
        fails = []
        if not got["leakage"] < EPSILON:
            fails.append(f"state {i} leakage {got['leakage']} reaches epsilon")
        if abs(got["return"] - ret) > 5e-7 + oracle.POP_ATOL:
            fails.append(f"state {i} return {got['return']} differs from "
                         f"expm {ret:.8f}")
        if abs(got["leakage"] - leak) > 5e-4 * leak + oracle.POP_ATOL:
            fails.append(f"state {i} leakage {got['leakage']} differs from "
                         f"expm {leak:.6e}")
        if oracle.phase_distance(got["phase"], phase) > 5e-7 + oracle.PHASE_ATOL:
            fails.append(f"state {i} phase {got['phase']} differs from "
                         f"expm {phase:.8f}")
        result.append(fails)

    fails = oracle.check_windows(windows, g1, g2)
    if abs(duration - float(meta["duration_s"])) > oracle.PRINT_RTOL * duration:
        fails.append(f"schedule duration {duration!r} != file "
                     f"{meta['duration_s']}")
    c = u @ (0.5 * (np.arange(8) < 4))
    last = rows[-1]
    for i, name in enumerate(("00", "01", "10", "11")):
        p = abs(c[i]) ** 2
        if abs(float(last["p" + name]) - p) > oracle.POP_ATOL:
            fails.append(f"final p{name} {last['p' + name]} differs from "
                         f"expm {p:.12f}")
        ph = float(np.angle(c[i]) + theta[i])
        if oracle.phase_distance(float(last["phase" + name]), ph) > oracle.PHASE_ATOL:
            fails.append(f"final phase{name} {last['phase' + name]} differs "
                         f"from expm {ph:.12f}")
    dark = max(abs(float(r["p11"]) - 0.25) for r in rows)
    if dark > oracle.POP_ATOL:
        fails.append(f"dark-state population moves by {dark:.3g}")
    drift = float(np.max(np.abs(np.linalg.norm(amps, axis=1) - 1.0)))
    if drift > oracle.NORM_ATOL:
        fails.append(f"norm drifts by {drift:.3g}")
    sup_leak = float(out.stdout.split("superposition leakage ")[1].split(",")[0])
    if not sup_leak < EPSILON:
        fails.append(f"superposition leakage {sup_leak} reaches epsilon")
    result.append(fails)
    return result


WORKLOADS = {
    "disk-table": (disk_round, check_disk),
    "hopping-grid": (hopping_round, check_hopping),
    "gate-sweep": (gate_round, check_gate),
}
