"""Command-line interface, driven in process through main(argv)."""

import io
import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys
import tracemalloc
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest
from scipy.special import jn_zeros

import oracles
from diskchain import (GateFailure, RegisterState, cli, coupling_kappa,
                       load_config, overlap_integrals, refdata, run_cz,
                       solve_mode, wavelength_to_freq)
from diskchain.cli import ResultTable, main
from diskchain.core import HBAR_EV_S

SMALL_DISK = """
[disk]
radius = 2.0 um
solve_rows = 40 2.0; 50 2.5; 40 3.0
[chain]
l_over_r = 2.01, 2.21
"""


@pytest.fixture()
def small_cfg(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL_DISK)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def csv_body(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:] if l]
    return header, rows


def test_disk_solve_deterministic(capsys, small_cfg):
    a = run(capsys, ["disk-solve", "--config", small_cfg])
    b = run(capsys, ["disk-solve", "--config", small_cfg])
    assert a[0] == b[0] == 0
    assert a[1] == b[1]
    header, rows = csv_body(a[1])
    assert header == ["m", "R_um", "n_eff", "h_um", "residual", "status"]
    assert len(rows) == 3
    assert all(r[5] == "ok" for r in rows)
    # metadata travels as comment lines
    assert "# seed: none" in a[1]
    assert "# wavelength_um: 0.637" in a[1]


def test_disk_solve_reports_unsolvable_rows(capsys, tmp_path):
    p = tmp_path / "bad_row.ini"
    # 40 0.5 is below the oscillatory region; the other rows are past the
    # fundamental cutoff, where only higher radial orders have roots.  At
    # 40 2000.0, k R = 19,729 lies beyond the cylinder functions' range,
    # but the bracket (max(kR, m), j_{m,1}) is empty and none is evaluated
    p.write_text("[disk]\nsolve_rows = 40 2.0; 40 0.5; 40 4.4; 40 5.0; "
                 "43 4.8; 45 5.0; 40 40.0; 40 2000.0\n")
    code, out, err = run(capsys, ["disk-solve", "--config", str(p)])
    assert (code, err) == (0, "")
    _, rows = csv_body(out)
    assert len(rows) == 8
    assert rows[0][5] == "ok"
    for row in rows[1:]:
        assert row[5] == "no solution"
        assert row[2] == "" and row[3] == ""


@pytest.mark.parametrize("command", ["coupling-sweep", "dispersion"])
def test_chain_commands_far_past_cutoff_fail_in_one_line(capsys, tmp_path,
                                                         command):
    p = tmp_path / "huge.ini"
    p.write_text("[disk]\nradius = 2000 um\n")
    code, out, err = run(capsys, [command, "--config", str(p)])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "diskchain: numerical failure: solve_disk: no fundamental-order "
        "radial root for m=40, R=2000.0"]


def test_disk_solve_overflowing_hankel_ratio_is_a_numerical_failure(
        capsys, tmp_path):
    # at m = 3000, R = 180 um the row has a fundamental root (n_eff near
    # 1.7041 with an arbitrary-precision Hankel ratio), but Y_m(kR)
    # overflows double precision: the run must stop with one line, never
    # print "no solution" or a bare numpy warning
    p = tmp_path / "high_order.ini"
    p.write_text("[disk]\nsolve_rows = 40 2.0; 3000 180.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["disk-solve", "--config", str(p)])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("diskchain: numerical failure: ")
    assert "m=3000, R=180.0" in lines[0]


@given(rows=st.lists(st.tuples(st.integers(-3, 80), st.floats(-1.0, 50.0)),
                    min_size=1, max_size=4))
@example(rows=[(40, 0.0)])
@example(rows=[(40, 2.0), (40, 4.4), (1, 0.1), (80, 50.0)])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_disk_solve_rows_property(capsys, tmp_path, rows):
    p = tmp_path / "rows.ini"
    p.write_text("[disk]\nsolve_rows = "
                 + "; ".join(f"{m} {R!r}" for m, R in rows) + "\n")
    code, out, err = run(capsys, ["disk-solve", "--config", str(p)])
    assert "Traceback" not in err
    if any(m < 1 or not R > 0.0 for m, R in rows):
        assert code == 1 and err.startswith("diskchain: configuration error:")
        return
    assert code == 0
    _, table = csv_body(out)
    assert len(table) == len(rows)
    k = 2.0 * math.pi / 0.637
    for m, R, n_eff, _, _, status in table:
        if status == "ok":
            m, R, n_eff = int(m), float(R), float(n_eff)
            assert 1.0 < n_eff < 2.4
            assert k * n_eff * R < jn_zeros(m, 1)[0]
        else:
            assert status == "no solution"


def test_coupling_sweep_csv_and_json_agree(capsys, small_cfg, tmp_path):
    code, out, _ = run(capsys, ["coupling-sweep", "--config", small_cfg])
    assert code == 0
    header, rows = csv_body(out)
    assert header == ["l_over_r", "L_um", "kappa_rad_s", "kappa_ev",
                      "log10_kappa_over_e0"]
    assert len(rows) == 2
    assert "# fit_slope_per_um:" in out
    # hopping falls with spacing
    assert abs(float(rows[0][2])) > abs(float(rows[1][2]))

    code2, out2, _ = run(capsys, ["coupling-sweep", "--config", small_cfg,
                                  "--format", "json"])
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["columns"] == header
    assert len(doc["rows"]) == 2
    assert doc["metadata"]["m"] == 40
    # the same numbers in both encodings
    assert [float(v) for v in doc["rows"][0]] == pytest.approx(
        [float(v) for v in rows[0]], rel=1e-12)

    # and a second run must not change a byte
    code3, out3, _ = run(capsys, ["coupling-sweep", "--config", small_cfg])
    assert code3 == 0 and out3 == out


@pytest.mark.parametrize("spacings", ["2.21", "2.21, 2.21"])
def test_coupling_sweep_fits_no_line_through_one_spacing(capsys, tmp_path,
                                                         spacings):
    p = tmp_path / "one.ini"
    p.write_text(f"[disk]\nradius = 2.0 um\n[chain]\nl_over_r = {spacings}\n")
    code, out, err = run(capsys, ["coupling-sweep", "--config", str(p)])
    assert code == 0 and err == ""
    for key in ("fit_slope_per_um", "fit_intercept", "fit_r2"):
        assert f"# {key}: \n" in out


def test_coupling_sweep_rows_follow_the_input_order(capsys, tmp_path):
    # out of order on purpose: row i is the kappa of the i-th spacing
    p = tmp_path / "order.ini"
    p.write_text("[disk]\nradius = 2.0 um\n"
                 "[chain]\nl_over_r = 2.21, 2.01, 2.49\n")
    code, out, _ = run(capsys, ["coupling-sweep", "--config", str(p)])
    assert code == 0
    _, rows = csv_body(out)
    cfg = load_config(str(p))
    mode = solve_mode(cfg.disk.radius, cfg.disk.azimuthal_number,
                      cfg.wavelength, cfg.disk.refractive_index)
    omega = wavelength_to_freq(cfg.wavelength)
    want = []
    for lr, L in zip(cfg.l_over_r, cfg.spacings()):
        kappa = coupling_kappa(overlap_integrals(mode, L), omega)
        want.append([cli._fmt(v) for v in (lr, L, kappa, HBAR_EV_S * kappa)])
    assert [row[:4] for row in rows] == want
    assert [row[0] for row in rows] == ["2.21", "2.01", "2.49"]


def test_dispersion_band_consistency(capsys, small_cfg):
    code, out, _ = run(capsys, ["dispersion", "--config", small_cfg])
    assert code == 0
    header, rows = csv_body(out)
    assert header == ["KL_rad", "omega_rad_s"]
    assert len(rows) == 41
    omegas = [float(r[1]) for r in rows]
    meta = dict(l[2:].split(": ", 1) for l in out.splitlines()
                if l.startswith("# "))
    band = float(meta["band_width_rad_s"])
    assert max(omegas) - min(omegas) == pytest.approx(band, rel=1e-6)
    # KL grid spans the zone symmetrically
    assert float(rows[0][0]) == pytest.approx(-3.14159265359)
    assert float(rows[-1][0]) == pytest.approx(3.14159265359)


def test_gate_sim_trajectory_file(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(capsys, ["gate-sim", "--out", str(out_path)])
    assert code == 0
    # truth table goes to stdout when the table goes to a file
    assert "CZ truth table" in out
    assert "|+1,+2>" in out

    text = out_path.read_text()
    header, rows = csv_body(text)
    assert header == ["t", "p00", "p01", "p10", "p11", "p_aux",
                      "phase00", "phase01", "phase10", "phase11"]
    assert len(rows) > 1000
    for i in range(4):
        assert f"# truth_state_{i}:" in text
    # time axis is in units of 1/omega_a0
    t_end = float(rows[-1][0])
    meta = dict(l[2:].split(": ", 1) for l in text.splitlines()
                if l.startswith("# "))
    duration = float(meta["duration_s"])
    assert t_end == pytest.approx(duration * 2.95e15, rel=1e-9)
    # populations stay in [0, 1]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)


def test_gate_sim_p_aux_is_the_direct_aux_sum(capsys, tmp_path):
    # p_aux sums |c_4|^2 + ... + |c_7|^2 directly: 1 - (p00 + ... + p11)
    # cancels, and where p_aux is small its last printed digits were noise
    out_path = tmp_path / "traj.csv"
    assert run(capsys, ["gate-sim", "--out", str(out_path)])[0] == 0
    header, rows = csv_body(out_path.read_text())
    col = header.index("p_aux")
    sup = run_cz(RegisterState.logical_superposition(), load_config(None).gate)
    amps = sup.trajectory.amplitudes
    direct = np.sum(np.abs(amps[:, 4:]) ** 2, axis=1)
    assert len(rows) == len(direct)
    for row, want in zip(rows, direct):
        # at the 12 printed digits
        assert float(row[col]) == pytest.approx(float(f"{want:.12g}"),
                                                rel=1e-12, abs=0.0)


def test_gate_sim_out_memory_peak(capsys, tmp_path):
    # the trajectory goes from propagator to file in array passes, written
    # in 128-row blocks: one default gate-sim --out call peaks at about
    # 430 KiB of Python allocations, against about 1,200 KiB when the
    # whole table was formatted as one string of row lists
    argv = ["gate-sim", "--out", str(tmp_path / "traj.csv")]
    assert run(capsys, argv)[0] == 0   # imports and caches, not measured
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 800 * 1024


def test_overlap_integrals_memory_peak():
    # the quadrature mesh is evaluated in blocks of whole radial rows: one
    # call at the converged 192 x 800 level of m = 50 peaks at about
    # 2,000 KiB of Python allocations, against about 8,300 KiB when every
    # field was one array over the whole mesh
    mode = solve_mode(3.5, 50)
    overlap_integrals(mode, 2.01 * 3.5)   # rule caches, not measured
    tracemalloc.start()
    try:
        overlap_integrals(mode, 2.01 * 3.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024 * 1024


def test_gate_sim_step_past_float_range_is_a_numerical_failure(capsys,
                                                               tmp_path):
    # at g1 = 1e-290 rad/s a record step lasts about 1e287 s, and with
    # D_g = 3e19 rad/s its propagator's 1-norm passes 2**1023, where the
    # scaling 2**s overflows: one line and exit 2, not a traceback
    p = tmp_path / "huge-step.ini"
    p.write_text("[gate]\ng1 = 1e-290 rad_s\ng2 = 0.9e-290 rad_s\n"
                 "delta_max = 1e-289 rad_s\nomega_a0 = 1 rad_s\n"
                 "d_g = 3e19 rad_s\n[pulses]\nguard = fixed\n")
    code, out, err = run(capsys, ["gate-sim", "--config", str(p)])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "diskchain: numerical failure: overflow encountered in power"]


def test_gate_sim_underflowing_coupling_squares_is_a_numerical_failure(
        capsys, tmp_path):
    # g1^2 and g2^2 underflow to 0 at g1 = 1e-290 rad/s; the calibrated
    # lead span is taken in the ratio g2/g1, so the run reaches the
    # propagator and ends there in one line, not in a ZeroDivisionError
    p = tmp_path / "underflow.ini"
    p.write_text("[gate]\ng1 = 1e-290 rad_s\ng2 = 0.9e-290 rad_s\n"
                 "delta_max = 1e-289 rad_s\nomega_a0 = 1 rad_s\n")
    code, out, err = run(capsys, ["gate-sim", "--config", str(p)])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "diskchain: numerical failure: propagation lost the state norm or "
        "overflowed; no finite gate to report"]


def test_gate_sim_csv_and_json_agree(capsys, tmp_path):
    # the fixed-gap schedule has no lead, so |g1,+2> is fully transferred
    # at the end of the first window and its phase cell there is empty;
    # it leaks 1.5 % from |g1,g2>, hence the wider epsilon
    ini = tmp_path / "fixed.ini"
    ini.write_text("[gate]\nepsilon = 0.05\n[pulses]\nguard = fixed\n")
    tables = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"traj.{fmt}"
        code, _, _ = run(capsys, ["gate-sim", "--config", str(ini),
                                  "--format", fmt, "--out", str(out)])
        assert code == 0
        tables[fmt] = out.read_text()
    text = tables["csv"]
    header, rows = csv_body(text)
    doc = json.loads(tables["json"])
    assert doc["columns"] == header
    assert doc["metadata"] == dict(l[2:].split(": ", 1)
                                   for l in text.splitlines()
                                   if l.startswith("# "))
    assert len(doc["rows"]) == len(rows)
    for mine, theirs in zip(rows, doc["rows"]):
        assert mine == ["" if v is None else v for v in theirs]
    assert any(v is None for row in doc["rows"] for v in row)
    assert not any(v is None for row in doc["rows"] for v in row[:6])


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, ["frobnicate"])[0] == 1
    code, _, err = run(capsys, [])
    assert code == 1 and "command is required" in err
    assert run(capsys, ["disk-solve", "--no-such-flag"])[0] == 1

    bad = tmp_path / "bad.ini"
    bad.write_text("[disk]\nrefractive_index = 0.5\n")
    code, _, err = run(capsys, ["disk-solve", "--config", str(bad)])
    assert code == 1 and "configuration error" in err

    code, _, err = run(capsys, ["disk-solve", "--config",
                                str(tmp_path / "missing.ini")])
    assert code == 1


@pytest.mark.parametrize("command, text", [
    pytest.param("gate-sim", "[gate]\ng1 = nan rad_s\n", id="g1-nan"),
    pytest.param("gate-sim", "[gate]\ndelta_max = inf rad_s\n",
                 id="delta_max-inf"),
    pytest.param("gate-sim", "[pulses]\nsamples = inf\n", id="samples-inf"),
    pytest.param("gate-sim", "[pulses]\nguard = fixed\nfixed_gap = nan s\n",
                 id="fixed_gap-nan"),
    pytest.param("disk-solve", "[disk]\nwavelength = nan um\n",
                 id="wavelength-nan"),
    pytest.param("disk-solve", "[disk]\nsolve_rows = 40 2.0; 40 nan\n",
                 id="solve_rows-nan"),
    pytest.param("disk-solve", "[disk]\nsolve_rows = -3 2.0\n",
                 id="solve_rows-m-negative"),
    pytest.param("disk-solve", "[disk]\nsolve_rows = 40 0\n",
                 id="solve_rows-radius-zero"),
    pytest.param("disk-solve", "[disk]\nsolve_rows = 40 -1.0\n",
                 id="solve_rows-radius-negative"),
    pytest.param("coupling-sweep", "[chain]\nl_over_r = 2.0, 1.5\n",
                 id="l_over_r-below-2"),
    pytest.param("coupling-sweep", "[chain]\nl_over_r = 2.01, nan\n",
                 id="l_over_r-nan"),
    # rejected by DiskGeometry / GateParams themselves
    pytest.param("disk-solve", "[disk]\nradius = -1 um\n",
                 id="radius-negative"),
    pytest.param("disk-solve", "[disk]\nazimuthal_number = 0\n",
                 id="azimuthal_number-zero"),
    pytest.param("disk-solve", "[disk]\nrefractive_index = 0.5\n",
                 id="refractive_index-below-1"),
    # past the index cap: inf kappa cells, then nan (n_c**2 overflows)
    pytest.param("coupling-sweep", "[disk]\nrefractive_index = 1e150\n",
                 id="refractive_index-1e150"),
    pytest.param("disk-solve", "[disk]\nrefractive_index = 1e155\n",
                 id="refractive_index-1e155"),
    pytest.param("reproduce-tables", "[disk]\nrefractive_index = 1e155\n",
                 id="refractive_index-1e155-tables"),
    pytest.param("gate-sim", "[gate]\nepsilon = -1\n", id="epsilon-negative"),
    pytest.param("gate-sim", "[gate]\ng2 = 0 rad_s\n", id="g2-zero"),
    pytest.param("gate-sim", "[gate]\nomega_a0 = -1 rad_s\n",
                 id="omega_a0-negative"),
    pytest.param("gate-sim", "[gate]\ndelta_max = 1e10 rad_s\n",
                 id="delta_max-not-parked"),
    pytest.param("gate-sim", "[pulses]\nguard = sloppy\n",
                 id="guard-unknown"),
    pytest.param("gate-sim", "[pulses]\nsamples = 1\n", id="samples-one"),
])
def test_bad_values_end_in_one_line_config_error(capsys, tmp_path, command,
                                                 text):
    p = tmp_path / "bad.ini"
    p.write_text(text)
    code, _, err = run(capsys, [command, "--config", str(p)])
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    # the message names the section the offending key sits in
    section = text.splitlines()[0]
    assert lines[0].startswith(f"diskchain: configuration error: {section} ")


@pytest.mark.parametrize("command, guard", [
    ("gate-sim", "fixed"), ("reproduce-tables", "fixed"),
    ("gate-sim", "calibrated"), ("disk-solve", "calibrated")])
def test_negative_fixed_gap_is_a_config_error(capsys, tmp_path, command,
                                              guard):
    # rejected whichever guard is chosen, before any command runs
    p = tmp_path / "gap.ini"
    p.write_text(f"[pulses]\nguard = {guard}\nfixed_gap = -1 s\n")
    code, _, err = run(capsys, [command, "--config", str(p)])
    assert code == 1
    assert err.splitlines() == [
        "diskchain: configuration error: [pulses] fixed_gap: must be >= 0 "
        "and finite, got -1.0"]


def _one_line_failure(code, out, err):
    """A run ends in a row or in one clean error line, never a traceback."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert "nan" not in out.lower()
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diskchain: ")


@pytest.mark.parametrize("command, text, cause", [
    # the qubit-2 window rounds off its nominal width at t ~ 1e-9 * T1
    pytest.param("gate-sim", "[gate]\ng1 = 1 rad_s\n",
                 "no valid pulse schedule: qubit-2 window", id="g1-1"),
    # a record step of 2.7e4 parked radians: exp(-i H tau), squared back
    # from that norm, moves a final state norm past 1e-9
    pytest.param("gate-sim", "[gate]\ng1 = 1e5 rad_s\n",
                 "propagation lost the state norm or overflowed",
                 id="g1-1e5"),
    # far more records than any memory holds
    pytest.param("gate-sim", "[pulses]\nsamples = 1e15\n", "",
                 id="samples-1e15"),
    # past what numpy can address: refused before any allocation
    pytest.param("gate-sim", "[pulses]\nsamples = 1e17\n",
                 "1e+17 records are more than numpy can "
                 "address", id="samples-1e17"),
    pytest.param("gate-sim", "[pulses]\nsamples = 1e18\n",
                 "1e+18 records are more than numpy can "
                 "address", id="samples-1e18"),
    pytest.param("gate-sim", "[pulses]\nsamples = 1e19\n",
                 "1e+19 records are more than numpy can "
                 "address", id="samples-1e19"),
    # cylinder functions past their range (0, 1e4]: j_{20000,1} for the
    # root bracket, k (L + R) = 11866 for the overlap mesh
    pytest.param("disk-solve", "[disk]\nsolve_rows = 20000 1000\n", "",
                 id="solve_rows-m-20000"),
    pytest.param("coupling-sweep", "[chain]\nl_over_r = 400\n", "",
                 id="l_over_r-400-sweep"),
    pytest.param("dispersion", "[chain]\nl_over_r = 400\n", "",
                 id="l_over_r-400-dispersion"),
])
def test_gate_inputs_config_accepts_fail_in_one_line(capsys, tmp_path,
                                                     command, text, cause):
    p = tmp_path / "gate.ini"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [command, "--config", str(p)])
    _one_line_failure(code, out, err)
    assert code == 2
    assert err.startswith(f"diskchain: numerical failure: {cause}")
    if not text.startswith(("[gate]", "[pulses]")):
        assert "range (0, 1e4]" in err


@pytest.mark.parametrize("command, text, key, ratio", [
    # the pi window would vanish into t_on at t ~ 1e30 s
    pytest.param("gate-sim", "g1 = 1e-30", "g1", "1.00e+42", id="g1-1e-30"),
    # the calibrated pad would be a ceil of infinity
    pytest.param("gate-sim", "g2 = 1e-300", "g2", "inf", id="g2-1e-300"),
    # exp(-i H tau) would overflow in its squarings
    pytest.param("gate-sim", "delta_max = 1e300", "g1", "1.00e+290",
                 id="delta_max-1e300"),
    pytest.param("reproduce-tables", "delta_max = 1e300", "g1", "1.00e+290",
                 id="delta_max-1e300-tables"),
])
def test_parking_past_float_time_resolution_is_a_config_error(
        capsys, tmp_path, command, text, key, ratio):
    p = tmp_path / "gate.ini"
    p.write_text(f"[gate]\n{text} rad_s\n")
    code, _, err = run(capsys, [command, "--config", str(p)])
    assert code == 1
    assert err.splitlines() == [
        f"diskchain: configuration error: [gate] {key}: float time "
        f"resolution needs delta_max/{key} < 2**52, got {ratio}"]


@st.composite
def _disks(draw):
    """(m, radius): k R from 0.3 m, below the oscillatory region, to
    1.5 m, past the fundamental cutoff, so that every outcome is drawn."""
    m = draw(st.integers(1, 60))
    k = 2.0 * math.pi / 0.637
    return m, draw(st.floats(0.3 * m / k, 1.5 * m / k))


# one to four spacings, unsorted, repeats drawn from a short list
_SPACINGS = st.lists(st.one_of(st.floats(2.0, 12.0),
                               st.sampled_from([2.01, 2.21, 2.49])),
                     min_size=1, max_size=4)


@given(disk=_disks(), l_over_r=_SPACINGS)
@example(disk=(20000, 1000.0), l_over_r=[2.01])
@example(disk=(40, 3.0), l_over_r=[400.0])
@example(disk=(40, 2.0), l_over_r=[2.21, 2.01, 2.21])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chain_commands_property(capsys, tmp_path, disk, l_over_r):
    m, radius = disk
    p = tmp_path / "chain.ini"
    p.write_text(f"[disk]\nradius = {radius!r} um\nazimuthal_number = {m}\n"
                 "[chain]\nl_over_r = "
                 + ", ".join(repr(lr) for lr in l_over_r) + "\n")
    for command in ("coupling-sweep", "dispersion"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [command, "--config", str(p)])
        _one_line_failure(code, out, err)
        # a strained spacing is a metadata line, not a warning
        assert code or err == ""


def test_strained_spacings_go_into_metadata(capsys, tmp_path):
    p = tmp_path / "wide.ini"
    p.write_text("[disk]\nradius = 4.0 um\n")
    for command in ("coupling-sweep", "dispersion"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [command, "--config", str(p)])
        assert code == 0 and err == ""
        notes = [l for l in out.splitlines()
                 if l.startswith("# validity_warning: ")]
        assert len(notes) == 1
        assert notes[0].startswith("# validity_warning: overlap ratio exceeds "
                                   "0.1 at l_over_r 2.01 (")


_GATE_VALUE = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e-30, 1.0, 1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(1e8, 1e13))


@given(values=st.dictionaries(
           st.sampled_from(["g1", "g2", "delta_max", "omega_a0", "d_g",
                            "epsilon"]), _GATE_VALUE),
       samples=st.integers(2, 50),
       guard=st.sampled_from([None, "calibrated", "fixed", "sloppy"]),
       fixed_gap=st.one_of(st.none(),
                           st.sampled_from([0.0, -1e-11, math.nan, 1e300]),
                           st.floats(0.0, 1e-9)))
@example(values={"delta_max": 1e300}, samples=50, guard=None, fixed_gap=None)
@example(values={"g1": 1.0}, samples=2, guard=None, fixed_gap=None)
@example(values={"g2": 1e-300}, samples=2, guard=None, fixed_gap=None)
@example(values={"omega_a0": 1e300, "delta_max": -1e300}, samples=2,
         guard=None, fixed_gap=None)
@example(values={}, samples=2, guard="fixed", fixed_gap=1e300)
@example(values={"epsilon": 0.05}, samples=20, guard="fixed", fixed_gap=0.0)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_gate_sim_property(capsys, tmp_path, values, samples, guard,
                           fixed_gap):
    p = tmp_path / "gate.ini"
    p.write_text("[gate]\n"
                 + "".join(f"{k} = {v!r}{'' if k == 'epsilon' else ' rad_s'}\n"
                           for k, v in values.items())
                 + f"[pulses]\nsamples = {samples}\n"
                 + (f"guard = {guard}\n" if guard else "")
                 + (f"fixed_gap = {fixed_gap!r} s\n"
                    if fixed_gap is not None else ""))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["gate-sim", "--config", str(p)])
    _one_line_failure(code, out, err)


@st.composite
def _whole_ini(draw):
    """All four sections in one file.  The disk is a reference-like row or
    one from _disks, with the index log-uniform over 1..1e3 (across the
    cap of 100) and the wavelength over 0.01..100 um, or either left out;
    one or two thickness rows and spacings; up to two [gate] values as in
    test_gate_sim_property; samples <= 400.  Many draws reach every
    command's numerics, the rest fail in one line."""
    m, radius = draw(st.one_of(
        _disks(), st.tuples(st.sampled_from([40, 50]), st.floats(2.0, 4.5))))
    rows = draw(st.lists(st.tuples(st.integers(1, 60), st.floats(0.1, 10.0)),
                         min_size=1, max_size=2))
    disk = {"radius": f"{radius!r} um", "azimuthal_number": str(m),
            "solve_rows": "; ".join(f"{mr} {r!r}" for mr, r in rows)}
    index = draw(st.one_of(st.none(), st.floats(0.0, 3.0).map(
        lambda e: 10.0 ** e)))
    if index is not None:
        disk["refractive_index"] = repr(index)
    wavelength = draw(st.one_of(st.none(), st.floats(-2.0, 2.0).map(
        lambda e: 10.0 ** e)))
    if wavelength is not None:
        disk["wavelength"] = f"{wavelength!r} um"
    spacings = draw(st.lists(st.one_of(st.floats(2.0, 12.0),
                                       st.sampled_from([2.01, 2.21, 2.49])),
                             min_size=1, max_size=2))
    gate = {k: f"{v!r}{'' if k == 'epsilon' else ' rad_s'}"
            for k, v in draw(st.dictionaries(
                st.sampled_from(["g1", "g2", "delta_max", "omega_a0", "d_g",
                                 "epsilon"]), _GATE_VALUE,
                max_size=2)).items()}
    pulses = {"samples": str(draw(st.integers(2, 400)))}
    guard = draw(st.sampled_from([None, "calibrated", "fixed"]))
    if guard:
        pulses["guard"] = guard
    fixed_gap = draw(st.one_of(st.none(), st.floats(0.0, 1e-9)))
    if fixed_gap is not None:
        pulses["fixed_gap"] = f"{fixed_gap!r} s"
    sections = {"disk": disk,
                "chain": {"l_over_r": ", ".join(map(repr, spacings))},
                "gate": gate, "pulses": pulses}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                          for k, v in keys.items())
                   for name, keys in sections.items())


@given(text=_whole_ini())
@example(text="[disk]\nradius = 3.0 um\nazimuthal_number = 40\n"
              "solve_rows = 40 3.0; 50 3.5\n[chain]\nl_over_r = 2.49, 2.01\n"
              "[gate]\ng2 = 1e10 rad_s\n[pulses]\nsamples = 400\n")
@example(text="[disk]\nradius = 3.0 um\nrefractive_index = 1e155\n"
              "solve_rows = 40 3.0\n[chain]\nl_over_r = 2.01\n[gate]\n"
              "[pulses]\nsamples = 400\n")
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_whole_ini_property(capsys, tmp_path, text):
    # every command reads the whole file, so each meets every section
    p = tmp_path / "whole.ini"
    p.write_text(text)
    for command in ("disk-solve", "coupling-sweep", "dispersion", "gate-sim"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [command, "--config", str(p)])
        _one_line_failure(code, out, err)
        assert "nan" not in out.lower()
        assert not re.search(r"\binf\b", out.lower())
        assert code or err == ""


def test_numerical_failure_exit_code(capsys, tmp_path):
    p = tmp_path / "shallow.ini"
    p.write_text("[gate]\ndelta_max = 1e11 rad_s\n")
    code, _, err = run(capsys, ["gate-sim", "--config", str(p)])
    assert code == 2

    # the one line is the message of the first leaking basis state run
    # alone, |g1,g2> here, read off its block of the superposition
    params = load_config(str(p)).gate
    with pytest.raises(GateFailure) as single:
        run_cz(RegisterState.basis(0), params)
    assert err.splitlines() == [f"diskchain: numerical failure: {single.value}"]
    with pytest.raises(GateFailure) as sup:
        run_cz(RegisterState.logical_superposition(), params)
    assert str(sup.value) == str(single.value)


@pytest.mark.parametrize("argv", [
    ["coupling-sweep", "--threads", "2"],
    ["gate-sim", "--tolerance", "0.1"],
    ["reproduce-tables", "--tolerance", "0.1"],
])
def test_each_command_takes_only_its_options(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"diskchain: unrecognized arguments: {' '.join(argv[1:])}"]


def test_reproduce_tables_reports_failures(capsys, monkeypatch):
    # one wrong reference thickness fails its own row and no other; the
    # command must name it and exit 3
    monkeypatch.setitem(refdata.TABLE1_M40, 2.0, 0.1)
    code, out, _ = run(capsys, ["reproduce-tables"])
    assert code == 3
    *checks, summary = out.splitlines()
    assert [l for l in checks if not l.startswith("PASS  [")] == [
        "FAIL  [1] table1 m=40 R=2.00: measured 0.4588 um, expected 0.1 um"
        "  (|diff| <= 0.0050 um)"]
    assert summary == f"{len(checks) - 1}/{len(checks)} checks passed"


def test_cli_import_leaves_the_acceptance_battery_out():
    # only reproduce-tables needs verify; every other command skips its
    # import
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, diskchain.cli; "
         "print('diskchain.verify' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# the table writer against the cell-by-cell reference


_CELL = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf,
                     math.nan, 10 ** 13, -(10 ** 13), 0, True, None, "",
                     "no solution", "a,b"]),
    st.floats(), st.floats().map(np.float64), st.integers(), st.none(),
    st.text(max_size=6))


@st.composite
def _tables(draw):
    """Tables whose rows are all floats or mix every kind of cell, one
    cell per column or ragged."""
    width = draw(st.integers(0, 5))
    float_row = st.lists(st.floats(), min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(
        float_row, st.lists(_CELL, min_size=width, max_size=width),
        st.lists(st.floats(), max_size=6), st.lists(_CELL, max_size=6)),
        max_size=8))
    meta = draw(st.dictionaries(st.text("abc_", min_size=1, max_size=4),
                                _CELL, max_size=3))
    return ResultTable(columns=[f"c{i}" for i in range(width)], rows=rows,
                       metadata=meta)


@st.composite
def _array_tables(draw):
    """All-float tables: one float array, around the writer's 128-row
    blocks, with no blank mask or a drawn one."""
    shape = (draw(st.sampled_from([0, 1, 2, 127, 128, 129, 257])),
             draw(st.integers(0, 5)))
    rows = draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.floats(), st.sampled_from([-0.0, 5e-324, math.inf, -math.inf]))))
    blank = draw(st.none() | hnp.arrays(np.bool_, shape))
    return ResultTable(columns=[f"c{i}" for i in range(shape[1])],
                       rows=rows, metadata={"n": shape[0]}, blank=blank)


def _array_table(n, blanks=()):
    """An n-row all-float table whose cells run through the special
    values, blank at each (row, column) of blanks."""
    special = [-0.0, 5e-324, math.inf, -math.inf, math.nan, 0.1, 1e308, 3.0]
    rows = np.resize(np.array(special), (n, 4))
    blank = np.zeros(rows.shape, dtype=bool)
    for cell in blanks:
        blank[cell] = True
    return ResultTable(columns=["a", "b", "c", "d"], rows=rows,
                       metadata={"x": 0.1}, blank=blank)


def _cells(table):
    """The table with list rows, None at each blank: what the cell-by-cell
    reference reads."""
    rows = table.rows
    if isinstance(rows, np.ndarray):
        blank = (np.zeros(rows.shape, dtype=bool) if table.blank is None
                 else table.blank)
        rows = [[None if gap else v for v, gap in zip(row, gaps)]
                for row, gaps in zip(rows.tolist(), blank.tolist())]
    return ResultTable(columns=table.columns, rows=rows,
                       metadata=table.metadata)


def _both_writers(table, fmt):
    mine, ref = io.StringIO(), io.StringIO()
    cli._write_table(table, mine, fmt)
    oracles.write_table_ref(_cells(table), ref, fmt)
    return mine.getvalue(), ref.getvalue()


@given(table=_tables() | _array_tables())
@example(table=ResultTable(
    columns=["a", "b", "c", "d"],
    rows=[[-0.0, 5e-324, 1e308, math.inf], [math.nan, 10 ** 13, None, "x"],
          [1.0, 2, "3", None], [], [0.1, 0.2, 0.3, -math.inf]],
    metadata={"n": 3, "x": 0.1, "none": None}))
# 0 to 257 rows; a NaN (printed nan, never blank) beside blanks; blanks in
# the first and the last row of a block, and a one-row block all blank
@example(table=_array_table(0))
@example(table=_array_table(127, [(0, 1), (126, 3)]))
@example(table=_array_table(128, [(127, 0)]))
@example(table=_array_table(129, [(128, 2)]))
@example(table=_array_table(257, [(0, 0), (127, 1), (128, 2), (255, 3),
                                  (256, 0), (256, 1), (256, 2), (256, 3)]))
@settings(max_examples=200, deadline=None)
def test_table_writer_matches_cell_by_cell_ref(table):
    for fmt in ("csv", "json"):
        mine, ref = _both_writers(table, fmt)
        assert mine == ref


@pytest.mark.parametrize("text", [
    pytest.param(None, id="defaults"),
    # the fixed-gap schedule leaves a blank phase cell (see above)
    pytest.param("[gate]\nepsilon = 0.05\n[pulses]\nguard = fixed\n",
                 id="fixed-blank-cell"),
])
def test_gate_sim_table_matches_cell_by_cell_ref(capsys, monkeypatch,
                                                 tmp_path, text):
    tables = []
    write = cli._write_table

    def keep(table, stream, fmt):
        tables.append(table)
        write(table, stream, fmt)

    monkeypatch.setattr(cli, "_write_table", keep)
    argv = ["gate-sim"]
    if text:
        p = tmp_path / "gate.ini"
        p.write_text(text)
        argv += ["--config", str(p)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    (table,) = tables
    assert table.rows.shape == (1201, 10)
    assert table.blank.any() == bool(text)
    assert out == _both_writers(table, "csv")[1]
    mine, ref = _both_writers(table, "json")
    assert mine == ref
