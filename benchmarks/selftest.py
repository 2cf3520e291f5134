"""Self-test of the benchmark's checks.

    python3 benchmarks/selftest.py

Runs one round of every workload on the checkout's package and shows:

* the unperturbed results pass, except the kept disk-table fault;
* each result perturbed by ten times a check's tolerance counts as a
  failed operation (strict inequalities, which have no tolerance, are
  shown failing by the kept fault and by `EPSILON` exceeded);
* results that move by the accuracy of the planned replacements still
  pass: a closed-form kappa within 3e-12 of the quadrature, and an exact
  propagator whose state is within 1.5e-9 of RK4;
* the guided-radius tables in `workloads` match the oracle.

Exits 0 when all of that holds and 1 otherwise, naming each miss.
"""

from dataclasses import replace
import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets single-threaded BLAS before numpy loads)

MISSES = []
EDITS = itertools.count()


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'MISS'}  {label}")
    if not ok:
        MISSES.append(label)


def edit_meta(text: str, key: str, fn) -> str:
    prefix = f"# {key}: "
    return "\n".join(prefix + fn(line[len(prefix):]) if line.startswith(prefix)
                     else line for line in text.split("\n"))


def edit_cell(text: str, row: int, column: str, fn) -> str:
    """Apply fn to one cell of data row `row` (negative counts from the end)."""
    lines = text.split("\n")
    body = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    header, data = body[0], body[1:]
    col = lines[header].split(",").index(column)
    i = data[row]
    cells = lines[i].split(",")
    cells[col] = fn(cells[col])
    lines[i] = ",".join(cells)
    return "\n".join(lines)


def with_file(out, text: str):
    """A copy of out whose --out file holds text."""
    path = out.out_path.with_name(f"edit{next(EDITS)}.csv")
    path.write_text(text, encoding="utf-8")
    return replace(out, out_path=path)


def scaled(factor: float, shift: float = 0.0):
    return lambda cell: repr(float(float(cell) * factor + shift))


def failed_ops(per_op) -> set:
    return {i for i, fails in enumerate(per_op) if fails}


def case(label: str, check, call, out, op: int, why, **kw) -> None:
    """Expect operation `op` to fail with a message containing `why`, or
    to pass when `why` is None."""
    fails = check(call, out, **kw)[op]
    ok = (not fails) if why is None else any(why in msg for msg in fails)
    expect(f"{label} -> {'passes' if why is None else 'fails: ' + why}", ok)


def guided_radii(oracle, workloads) -> None:
    k = oracle.wavenumber(workloads.WAVELENGTH_UM)
    for m in workloads.R_LOW:
        has = [bool(oracle.fundamental_roots(m, k, R, workloads.N_C))
               for R in (workloads.R_LOW[m] - 1e-3, workloads.R_LOW[m] + 1e-3,
                         workloads.R_CUT[m] - 1e-3, workloads.R_CUT[m] + 1e-3)]
        expect(f"guided radii of m={m} match the oracle",
               has == [False, True, True, False])


def disk(runner, workloads, oracle) -> None:
    calls = workloads.disk_round(random.Random(0))
    outs = [runner.run(c, f"disk{i}") for i, c in enumerate(calls)]
    per_call = [workloads.check_disk(c, o) for c, o in zip(calls, outs)]
    kept = [msg for per_op in per_call for fails in per_op for msg in fails]
    expect("disk-table: only the kept past-cutoff rows fail",
           all(m.startswith(workloads.KEPT_FAULT) for m in kept)
           and len(kept) == len(workloads.PAST_CUTOFF_ROWS))
    call, out = calls[0], outs[0]
    m, R = call.inputs["rows"][0]
    _, rows = workloads.parse_table(out.stdout)
    n = float(rows[0]["n_eff"])
    k = oracle.wavenumber(workloads.WAVELENGTH_UM)
    tol_n = oracle.n_eff_tolerance(m, k, R, n)
    tol_h = oracle.h_tolerance(k, workloads.N_C, n)
    check = workloads.check_disk
    for sign in (1.0, -1.0):
        case(f"disk-table: n_eff {sign:+.0f} x 10 x tolerance", check, call,
             replace(out, stdout=edit_cell(out.stdout, 0, "n_eff",
                                           scaled(1.0, sign * 10 * tol_n))),
             0, "radial misfit")
        case(f"disk-table: h {sign:+.0f} x 10 x tolerance", check, call,
             replace(out, stdout=edit_cell(out.stdout, 0, "h_um",
                                           scaled(1.0, sign * 10 * tol_h))),
             0, "slab solution")
    case("disk-table: an ok row relabelled 'no solution'", check, call,
         replace(out, stdout=edit_cell(out.stdout, 0, "status",
                                       lambda _: "no solution")), 0,
         "fundamental root")


def hopping(runner, workloads, oracle) -> None:
    calls = workloads.hopping_round(random.Random(0))
    outs = [runner.run(c, f"hop{i}") for i, c in enumerate(calls)]
    cache = {}

    def kappa_ref(m, R, L):
        if (m, R, L) not in cache:
            cache[(m, R, L)] = oracle.kappa(m, R, workloads.WAVELENGTH_UM,
                                            workloads.N_C, L)
        return cache[(m, R, L)]

    def check(call, out):
        return workloads.check_hopping(call, out, kappa_ref)

    expect("hopping-grid: every result passes",
           not any(failed_ops(check(c, o)) for c, o in zip(calls, outs)))
    sweep, s_out = calls[0], outs[0]
    band, b_out = calls[-1], outs[-1]
    rel = oracle.KAPPA_RTOL
    for row in (0, -1):
        case(f"hopping-grid: kappa row {row} x (1 + 10 x {rel:g})", check,
             sweep, replace(s_out, stdout=edit_cell(
                 s_out.stdout, row, "kappa_rad_s", scaled(1 + 10 * rel))),
             row % sweep.ops, "differs from the oracle")
        case(f"hopping-grid: kappa row {row} x (1 + 3e-12), closed form",
             check, sweep, replace(s_out, stdout=edit_cell(
                 s_out.stdout, row, "kappa_rad_s", scaled(1 + 3e-12))),
             row % sweep.ops, None)
    meta, _ = workloads.parse_table(b_out.stdout)
    cell = oracle.PRINT_RTOL * float(meta["omega_rad_s"])
    case("hopping-grid: band kappa x (1 + 10 x tolerance)", check, band,
         replace(b_out, stdout=edit_meta(b_out.stdout, "kappa_rad_s",
                                         scaled(1 + 10 * rel))), 0,
         "differs from the oracle")
    case("hopping-grid: Omega(K) at one K + 10 x 2 rounding cells", check,
         band, replace(b_out, stdout=edit_cell(b_out.stdout, 3, "omega_rad_s",
                                               scaled(1.0, 20 * cell))), 0,
         "Omega(K) - Omega(-K)")
    case("hopping-grid: band width x (1 + 10 x 2 rounding)", check, band,
         replace(b_out, stdout=edit_meta(
             b_out.stdout, "band_width_rad_s",
             scaled(1 + 20 * oracle.PRINT_RTOL))), 0, "metadata band width")


def gate(runner, workloads, oracle) -> None:
    import numpy as np
    call = workloads.gate_round(random.Random(0))[0]
    out = runner.run(call, "gate")
    facts = workloads.program_gate_facts(call.inputs)
    check = workloads.check_gate
    expect("gate-sweep: every result passes",
           not failed_ops(check(call, out, facts=facts)))
    pop, phase = oracle.POP_ATOL, oracle.PHASE_ATOL

    def truth(key, fn):
        def edit(value):
            parts = dict(p.strip().split("=") for p in value.split(","))
            parts[key] = fn(parts[key])
            return ", ".join(f"{k}={v}" for k, v in parts.items())
        return with_file(out, edit_meta(out.file_text, "truth_state_0", edit))

    number = lambda fn: lambda v: f"{fn(float(v.split()[0])):.9e}"  # noqa: E731
    case("gate-sweep: truth return + 10 x tolerance", check, call,
         truth("return", number(lambda v: v + 10 * (5e-7 + pop))), 0,
         "state 0 return",
         facts=facts)
    case("gate-sweep: truth phase + 10 x tolerance", check, call,
         truth("phase", number(lambda v: v + 10 * (5e-7 + phase))), 0,
         "state 0 phase",
         facts=facts)
    case("gate-sweep: truth leakage x (1 + 10 x 5e-4)", check, call,
         truth("leakage", number(lambda v: v * (1 + 5e-3) + 10 * pop)), 0,
         "state 0 leakage", facts=facts)
    case("gate-sweep: truth leakage at 10 x epsilon", check, call,
         truth("leakage", number(lambda v: 10 * workloads.EPSILON)), 0,
         "reaches epsilon",
         facts=facts)
    sup = 4
    for column, tol, admit in (("p00", pop, 3e-9), ("phase00", phase, 6e-9)):
        case(f"gate-sweep: final {column} + 10 x tolerance", check, call,
             with_file(out, edit_cell(out.file_text, -1, column,
                                      scaled(1.0, 10 * tol))),
             sup, f"final {column} ", facts=facts)
        case(f"gate-sweep: final {column} + {admit:g}, exact propagator",
             check, call, with_file(out, edit_cell(
                 out.file_text, -1, column, scaled(1.0, admit))),
             sup, None, facts=facts)
    case("gate-sweep: dark population + 10 x tolerance mid-run", check, call,
         with_file(out, edit_cell(out.file_text, 600, "p11",
                                  scaled(1.0, 10 * pop))),
         sup, "dark-state population", facts=facts)
    windows, duration, amps = facts
    case("gate-sweep: norm x (1 + 10 x tolerance)", check, call, out, sup,
         "norm drifts", facts=(windows, duration,
                      amps * (1 + 10 * oracle.NORM_ATOL * np.ones((len(amps), 1)))))
    q, a, b = windows[1]
    case("gate-sweep: pi window widened by 10 x tolerance", check, call, out,
         sup, "qubit-2 window", facts=([windows[0], (q, a, b + 10 * oracle.WINDOW_RTOL
                                          * (b - a)), windows[2]],
                           duration, amps))
    case("gate-sweep: duration x (1 + 10 x rounding)", check, call, out, sup,
         "schedule duration", facts=(windows, duration * (1 + 10 * oracle.PRINT_RTOL), amps))


def main() -> int:
    if not run.use_checkout_source():
        return 2
    from diskchain import cli
    import oracle
    import workloads
    work = run.ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(cli, work, threads=1)
    try:
        guided_radii(oracle, workloads)
        disk(runner, workloads, oracle)
        hopping(runner, workloads, oracle)
        gate(runner, workloads, oracle)
    finally:
        run.shutil.rmtree(work, ignore_errors=True)
    print(f"{len(MISSES)} misses" if MISSES else "all checks behave")
    return 1 if MISSES else 0


if __name__ == "__main__":
    sys.exit(main())
