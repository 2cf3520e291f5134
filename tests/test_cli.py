"""Command-line interface, driven in process through main(argv)."""

import json
import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.special import jn_zeros

from diskchain import GateFailure, RegisterState, load_config, run_cz
from diskchain.cli import main

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


def test_disk_solve_deterministic_and_ignores_threads(capsys, small_cfg):
    # disk-solve is serial; --threads is accepted by every command (the
    # benchmark passes it to all of them) and changes nothing here
    a = run(capsys, ["disk-solve", "--config", small_cfg])
    b = run(capsys, ["disk-solve", "--config", small_cfg])
    c = run(capsys, ["disk-solve", "--config", small_cfg, "--threads", "2"])
    assert a[0] == b[0] == c[0] == 0
    assert a[1] == b[1] == c[1]
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

    # and thread-count must not change a byte
    code3, out3, _ = run(capsys, ["coupling-sweep", "--config", small_cfg,
                                  "--threads", "2"])
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
    *_, sup = run_cz([RegisterState.basis(i) for i in range(4)]
                     + [RegisterState.logical_superposition()],
                     load_config(None).gate)
    amps = sup.trajectory.amplitudes
    direct = np.sum(np.abs(amps[:, 4:]) ** 2, axis=1)
    assert len(rows) == len(direct)
    for row, want in zip(rows, direct):
        # at the 12 printed digits
        assert float(row[col]) == pytest.approx(float(f"{want:.12g}"),
                                                rel=1e-12, abs=0.0)


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
    assert run(capsys, ["disk-solve", "--threads", "0"])[0] == 1
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
    assert lines[0].startswith("diskchain: configuration error: [")


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
        "diskchain: configuration error: fixed_gap: must be >= 0 and "
        "finite, got -1.0"]


def test_numerical_failure_exit_code(capsys, tmp_path):
    p = tmp_path / "shallow.ini"
    p.write_text("[gate]\ndelta_max = 1e11 rad_s\n")
    code, _, err = run(capsys, ["gate-sim", "--config", str(p)])
    assert code == 2

    # the one line names the first leaking state in basis order, then the
    # superposition, as one run per state would
    params = load_config(str(p)).gate
    states = ([RegisterState.basis(i) for i in range(4)]
              + [RegisterState.logical_superposition()])
    with pytest.raises(GateFailure) as single:
        for state in states:
            run_cz(state, params)
    assert err.splitlines() == [f"diskchain: numerical failure: {single.value}"]
    with pytest.raises(GateFailure) as block:
        run_cz(states, params)
    assert str(block.value) == str(single.value)
    assert block.value.diagnostics.keys() == single.value.diagnostics.keys()


def test_reproduce_tables_reports_failures(capsys):
    # an absurd tolerance forces reference-table misses; the command must
    # say which rows failed and exit 3
    code, out, _ = run(capsys, ["reproduce-tables", "--tolerance", "1e-9"])
    assert code == 3
    lines = out.splitlines()
    assert any(l.startswith("FAIL  [1]") for l in lines)
    assert any(l.startswith("PASS ") for l in lines)
    summary = lines[-1]
    assert summary.endswith("checks passed")
