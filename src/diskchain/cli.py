"""Command-line front end.

Five subcommands: disk-solve, coupling-sweep, dispersion, gate-sim,
reproduce-tables.  Output is CSV with #-prefixed metadata lines (or a
JSON mirror via --format json), written to stdout or --out.  Runs are
deterministic: same inputs, byte-identical output, and the metadata is
sufficient to re-run the command.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure (a run too large for memory or past the cylinder functions'
range (0, 1e4] included), 3 reference-table check failure.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .chain import (VALIDITY_LIMIT, QuadratureError, coupling_kappa,
                    dispersion, fit_loglinear, overlap_integrals)
from .config import ConfigError, SimConfig, load_config
from .core import CONSTANTS, HBAR_EV_S, wavelength_to_freq
from .dynamics import (GateFailure, RegisterState, aux_leakage,
                       cz_phase_error, extract_phases, logical_populations,
                       run_cz)
from .wgm import NoSolutionError, radial_residual, solve_disk, solve_mode

# a run too large for memory is refused as a numerical failure too
_NUMERICAL_ERRORS = (NoSolutionError, QuadratureError, GateFailure,
                     FloatingPointError, MemoryError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class ResultTable:
    # rows: cell lists, or an (n, width) float array; blank: its empty cells
    columns: list
    rows: list | np.ndarray
    metadata: dict
    blank: np.ndarray | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _cell_rows(rows, blank) -> list:
    """Float array rows as cell lists, None at each blank cell."""
    cells = rows.tolist()
    for n, i in zip(*np.nonzero(blank)) if blank is not None else ():
        cells[n][i] = None
    return cells


def _csv_lines(rows) -> str:
    """Cell lists as CSV lines, one '%' through a template per row type
    signature: a float is '%.12g', _fmt's digits; None a blank taking no
    argument; else '%s' (ints too: '%.12g' prints 10**13 as '1e+13')."""
    pieces, cells = [], []
    templates = {}   # row type signature -> (template, has a blank)
    for row in rows:
        kinds = tuple(map(type, row))
        entry = templates.get(kinds)
        if entry is None:
            entry = templates[kinds] = (",".join(
                "%.12g" if issubclass(k, float)
                else "" if k is type(None) else "%s" for k in kinds),
                type(None) in kinds)
        template, blank = entry
        pieces.append(template)
        cells.extend([v for v in row if v is not None] if blank else row)
    pieces.append("")
    return "\n".join(pieces) % tuple(cells)


def _write_table(table: ResultTable, stream, fmt: str) -> None:
    """CSV (# metadata, header, a line per row) or its JSON mirror.  Array
    rows go 128 to a write, a block with no blank as one '%.12g' line."""
    rows, blank = table.rows, table.blank
    if fmt == "csv":
        stream.write("".join(f"# {key}: {value}\n"
                             for key, value in table.metadata.items())
                     + ",".join(table.columns) + "\n")
        if not isinstance(rows, np.ndarray):
            stream.write(_csv_lines(rows))
            return
        line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
        for lo in range(0, len(rows), 128):
            block = rows[lo:lo + 128]
            if blank is None or not blank[lo:lo + 128].any():
                stream.write(line * len(block) % tuple(block.ravel().tolist()))
            else:
                stream.write(_csv_lines(_cell_rows(block, blank[lo:lo + 128])))
    else:
        if isinstance(rows, np.ndarray):
            rows = _cell_rows(rows, blank)
        doc = {
            "metadata": {k: (_fmt(v) if isinstance(v, float) else v)
                         for k, v in table.metadata.items()},
            "columns": table.columns,
            "rows": [[(_fmt(v) if isinstance(v, float) else v) for v in row]
                     for row in rows],
        }
        json.dump(doc, stream, sort_keys=True, indent=1)
        stream.write("\n")


def _emit(table: ResultTable, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_table(table, fh, args.format)
    else:
        _write_table(table, sys.stdout, args.format)


def _base_metadata(command: str, cfg: SimConfig, args) -> dict:
    return {
        "generator": f"diskchain {__version__}",
        "command": command,
        "config": args.config if args.config else "<embedded defaults>",
        # nothing here draws random numbers; the field is kept so outputs
        # stay comparable if a stochastic stage is ever added
        "seed": "none",
        "wavelength_um": _fmt(cfg.wavelength),
        "refractive_index": _fmt(cfg.disk.refractive_index),
    }


def _note_strained(meta: dict, l_over_r, integrals) -> None:
    """Name each spacing whose worst overlap ratio passes the limit."""
    strained = [f"{_fmt(lr)} ({worst:.3f})"
                for lr, ints in zip(l_over_r, integrals)
                if (worst := max(ints.ratios().values())) > VALIDITY_LIMIT]
    if strained:
        meta["validity_warning"] = (
            f"overlap ratio exceeds {VALIDITY_LIMIT} at l_over_r "
            + ", ".join(strained))


# ---------------------------------------------------------------------------
# subcommands


def cmd_disk_solve(cfg: SimConfig, args) -> int:
    k0 = 2.0 * math.pi / cfg.wavelength
    n_c = cfg.disk.refractive_index

    def one(row):
        m, radius = row
        try:
            n_eff, h = solve_disk(radius, m, cfg.wavelength, n_c)
        except NoSolutionError:
            return [m, radius, None, None, None, "no solution"]
        resid = abs(radial_residual(m, k0, n_eff, radius))
        return [m, radius, n_eff, h, resid, "ok"]

    rows = [one(row) for row in cfg.solve_rows]
    meta = _base_metadata("disk-solve", cfg, args)
    meta["rows"] = len(rows)
    table = ResultTable(
        columns=["m", "R_um", "n_eff", "h_um", "residual", "status"],
        rows=rows, metadata=meta)
    _emit(table, args)
    return 0


def cmd_coupling_sweep(cfg: SimConfig, args) -> int:
    mode = solve_mode(cfg.disk.radius, cfg.disk.azimuthal_number,
                      cfg.wavelength, cfg.disk.refractive_index)
    spacings = cfg.spacings()
    omega = wavelength_to_freq(cfg.wavelength)
    integrals, rows = [], []
    for lr, L in zip(cfg.l_over_r, spacings):
        integrals.append(overlap_integrals(mode, L))
        kappa = coupling_kappa(integrals[-1], omega)
        kappa_ev = HBAR_EV_S * kappa
        ratio = abs(kappa_ev) / CONSTANTS.zpl_energy
        rows.append([lr, L, kappa, kappa_ev,
                     math.log10(ratio) if ratio > 0.0 else None])

    # a line through fewer than two distinct spacings is no fit
    slope = intercept = r2 = None
    if len({r[1] for r in rows}) > 1:
        slope, intercept, r2 = fit_loglinear(
            [r[1] for r in rows], [r[2] for r in rows])
    meta = _base_metadata("coupling-sweep", cfg, args)
    meta.update({
        "m": cfg.disk.azimuthal_number,
        "R_um": _fmt(cfg.disk.radius),
        "n_eff": _fmt(mode.n_eff),
        "h_um": _fmt(mode.geometry.thickness),
        "fit_slope_per_um": _fmt(slope),
        "fit_intercept": _fmt(intercept),
        "fit_r2": _fmt(r2),
        "quadrature": f"{integrals[-1].n_radial} x "
                      f"{integrals[-1].n_azimuthal}",
    })
    _note_strained(meta, cfg.l_over_r, integrals)
    table = ResultTable(
        columns=["l_over_r", "L_um", "kappa_rad_s", "kappa_ev",
                 "log10_kappa_over_e0"],
        rows=rows, metadata=meta)
    _emit(table, args)
    return 0


def cmd_dispersion(cfg: SimConfig, args) -> int:
    mode = solve_mode(cfg.disk.radius, cfg.disk.azimuthal_number,
                      cfg.wavelength, cfg.disk.refractive_index)
    omega = wavelength_to_freq(cfg.wavelength)
    spacing = cfg.spacings()[0]
    ints = overlap_integrals(mode, spacing)
    kappa = coupling_kappa(ints, omega)

    kl = np.linspace(-math.pi, math.pi, 41)
    rows = np.column_stack((kl, dispersion(omega, ints, kl)))

    meta = _base_metadata("dispersion", cfg, args)
    meta.update({
        "m": cfg.disk.azimuthal_number,
        "R_um": _fmt(cfg.disk.radius),
        "L_um": _fmt(spacing),
        "omega_rad_s": _fmt(omega),
        "kappa_rad_s": _fmt(kappa),
        "kappa_ev": _fmt(HBAR_EV_S * kappa),
        "band_width_rad_s": _fmt(2.0 * abs(kappa)),
    })
    _note_strained(meta, cfg.l_over_r[:1], [ints])
    table = ResultTable(columns=["KL_rad", "omega_rad_s"], rows=rows,
                        metadata=meta)
    _emit(table, args)
    return 0


def cmd_gate_sim(cfg: SimConfig, args) -> int:
    params = cfg.gate
    # one run: each basis state's run is a block of the superposition's
    run = run_cz(RegisterState.logical_superposition(), params)

    traj = run.trajectory
    tracks, valid = extract_phases(traj.amplitudes[:, :4])
    rows = np.column_stack((traj.times * params.omega_a0,
                            logical_populations(traj.amplitudes),
                            aux_leakage(traj.amplitudes), tracks))

    meta = _base_metadata("gate-sim", cfg, args)
    meta.update({
        "g1_rad_s": _fmt(params.g1),
        "g2_rad_s": _fmt(params.g2),
        "delta_max_rad_s": _fmt(params.delta_max),
        "guard": params.guard,
        "duration_s": _fmt(run.schedule.duration),
        "time_unit_s": _fmt(1.0 / params.omega_a0),
    })
    truth = list(zip(run.phases, cz_phase_error(run.phases), run.returns,
                     run.leakages))
    for i, (phase, dev, ret, leak) in enumerate(truth):
        meta[f"truth_state_{i}"] = (
            f"phase={phase:.6f} rad, dev={dev:.2e} rad, "
            f"return={ret:.6f}, leakage={leak:.3e}")

    table = ResultTable(
        columns=["t", "p00", "p01", "p10", "p11", "p_aux",
                 "phase00", "phase01", "phase10", "phase11"],
        rows=rows, metadata=meta, blank=np.pad(~valid, ((0, 0), (6, 0))))
    _emit(table, args)

    if args.out:
        print("CZ truth table (target diag(-1,-1,-1,+1)):")
        print("state  phase/rad   deviation   return      leakage")
        labels = ("|g1,g2>", "|g1,+2>", "|+1,g2>", "|+1,+2>")
        for label, (phase, dev, ret, leak) in zip(labels, truth):
            print(f"{label}  {phase:+.5f}  {dev:.3e}  {ret:.6f}  {leak:.3e}")
        print(f"superposition leakage {run.leakage:.3e}, "
              f"trajectory written to {args.out}")
    return 0


def cmd_reproduce_tables(cfg: SimConfig, args) -> int:
    # imported here: no other command needs the acceptance battery
    from .verify import run_all
    results = run_all(cfg)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{status}  [{r.criterion}] {r.name}: measured {r.measured}, "
              f"expected {r.expected}"
              + (f"  ({r.detail})" if r.detail else ""))
    print(f"{len(results) - failures}/{len(results)} checks passed")

    if args.out:
        rows = [[r.criterion, r.name, "pass" if r.passed else "fail",
                 str(r.measured), str(r.expected), r.detail]
                for r in results]
        table = ResultTable(
            columns=["criterion", "name", "status", "measured", "expected",
                     "detail"],
            rows=rows,
            metadata=_base_metadata("reproduce-tables", cfg, args))
        _emit(table, args)
    return 3 if failures else 0


# ---------------------------------------------------------------------------


_COMMANDS = {
    "disk-solve": (cmd_disk_solve, "solve the resonant disk thickness table"),
    "coupling-sweep": (cmd_coupling_sweep,
                       "inter-disk hopping vs spacing for one disk design"),
    "dispersion": (cmd_dispersion, "chain band Omega(KL) at the configured "
                                   "spacing"),
    "gate-sim": (cmd_gate_sim, "run the controlled-Z sequence and export the "
                               "trajectory"),
    "reproduce-tables": (cmd_reproduce_tables,
                         "check solver output against the bundled reference "
                         "values"),
}


# built once per process: about 1 ms, against 0.04 ms to parse a call
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="diskchain",
                     description="diamond microdisk chain simulator")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="INI configuration (omitted: the defaults of "
                             "SimConfig)")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write the result table here instead of stdout")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table format (default csv)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            print("diskchain: a command is required", file=sys.stderr)
            return 1
        cfg = load_config(args.config)
        handler = _COMMANDS[args.command][0]
        return handler(cfg, args)
    except _UsageError as exc:
        print(f"diskchain: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"diskchain: configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"diskchain: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"diskchain: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
