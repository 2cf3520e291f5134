"""Register dynamics: pulse bookkeeping, the piecewise-constant
propagator against an expm oracle, phase extraction, and the gate."""

from dataclasses import replace
import math
import random

import numpy as np
import pytest

import oracles
from diskchain import cli, dynamics
from diskchain import (DetuningPulse, GateFailure, GateParams,
                       PulseSchedule, RegisterState, aux_leakage,
                       build_hamiltonian, evolve, extract_phases,
                       logical_populations, make_cz_schedule, run_cz)
# |+1,+2;1>, the state with no dipole-allowed partner
DARK_INDEX = 3
PARAMS = GateParams()
# the default, fixed-gap and off-default schedules the propagator is
# checked on
ORACLE_PARAMS = (PARAMS, GateParams(guard="fixed"),
                 GateParams(g1=1.2e10, g2=0.8e10, delta_max=2e12))
GATE_STATES = ([RegisterState.basis(i) for i in range(4)]
               + [RegisterState.logical_superposition()])


def fold_dev(phase, target):
    return abs(math.remainder(phase - target, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# parameter and schedule validation


def test_nv_params_validation():
    # both emitters share omega_a0, D_g and delta_max; each coupling is
    # checked on its own and named in the message
    GateParams(g1=1e10, g2=1e10)
    with pytest.raises(ValueError, match="g1: must be > 0"):
        GateParams(g1=0.0)
    with pytest.raises(ValueError, match="g2: must be > 0"):
        GateParams(g2=0.0)
    with pytest.raises(ValueError, match="g1: rotating-wave"):
        GateParams(g1=1e13)
    with pytest.raises(ValueError, match="g2: rotating-wave"):
        GateParams(g2=1e13)
    with pytest.raises(ValueError, match="dispersive parking needs "
                                         "delta_max/g1"):
        GateParams(delta_max=5e10)
    with pytest.raises(ValueError, match="dispersive parking needs "
                                         "delta_max/g2"):
        GateParams(g1=1e9, delta_max=5e10)
    with pytest.raises(ValueError, match="omega_a0"):
        GateParams(omega_a0=-1.0)
    # omega_w = omega_a0 + delta_max would be 0 and divide the checks below
    with pytest.raises(ValueError, match="delta_max: must be > 0 and finite"):
        GateParams(omega_a0=1e300, delta_max=-1e300)
    with pytest.raises(ValueError, match=r"g1: float time resolution needs "
                                         r"delta_max/g1 < 2\*\*52"):
        GateParams(g1=1e-30)
    with pytest.raises(ValueError, match=r"g2: float time resolution needs "
                                         r"delta_max/g2 < 2\*\*52, got inf"):
        GateParams(g2=1e-300)


def test_parking_bound_admits_the_working_points():
    # the default gate, the benchmark's gate points (delta_max/g1 from 100
    # to 400, g2 from 0.8 to 0.95 g1) and a ratio just inside 2**52
    GateParams()
    for g1 in (5e9, 2e10):
        for ratio in (100.0, 400.0):
            for share in (0.8, 0.95):
                GateParams(g1=g1, g2=share * g1, delta_max=ratio * g1)
    GateParams(g1=1e12 / (0.99 * 2.0 ** 52))
    with pytest.raises(ValueError, match="g1: float time resolution"):
        GateParams(g1=1e12 / 2.0 ** 52)


def test_gate_params():
    assert PARAMS.T1 == pytest.approx(math.pi / 2e10)
    assert PARAMS.T2 == pytest.approx(math.pi / 0.9e10)
    assert PARAMS.omega_w == pytest.approx(2.951e15)
    with pytest.raises(ValueError, match="guard"):
        GateParams(guard="sloppy")
    with pytest.raises(ValueError, match="epsilon"):
        GateParams(epsilon=0.0)
    with pytest.raises(ValueError, match="samples"):
        GateParams(samples=1)


def test_pulse_validation():
    with pytest.raises(ValueError, match="qubit"):
        DetuningPulse(3, 0.0, 1e-10)
    with pytest.raises(ValueError, match="t_on"):
        DetuningPulse(1, 2e-10, 1e-10)
    assert DetuningPulse(1, 1e-10, 3e-10).width == pytest.approx(2e-10)


def test_schedule_validation():
    with pytest.raises(ValueError, match="overlap"):
        PulseSchedule((DetuningPulse(1, 0.0, 2e-10),
                       DetuningPulse(2, 1e-10, 3e-10)), 4e-10)
    with pytest.raises(ValueError, match="beyond"):
        PulseSchedule((DetuningPulse(1, 0.0, 2e-10),), 1e-10)
    sched = PulseSchedule((DetuningPulse(1, 0.0, 1e-10),
                           DetuningPulse(2, 2e-10, 3e-10)), 4e-10)
    assert sched.active(0.5e-10) == (True, False)
    assert sched.active(2.5e-10) == (False, True)
    assert sched.active(3.5e-10) == (False, False)


def test_validate_against_catches_wrong_area():
    bad = PulseSchedule((DetuningPulse(1, 0.0, 1.01 * PARAMS.T1),),
                        1.01 * PARAMS.T1)
    with pytest.raises(ValueError, match="not the nominal"):
        bad.validate_against(PARAMS)


def test_calibrated_schedule_geometry():
    sched = make_cz_schedule(PARAMS)
    p1, p2, p3 = sched.pulses
    assert (p1.qubit, p2.qubit, p3.qubit) == (1, 2, 1)
    assert p1.width == pytest.approx(PARAMS.T1, rel=1e-12)
    assert p2.width == pytest.approx(PARAMS.T2, rel=1e-12)
    assert p3.width == pytest.approx(PARAMS.T1, rel=1e-12)
    sched.validate_against(PARAMS)

    # the parked phase over the whole between-pi/2 stretch is padded to a
    # 2 pi multiple so the target qubit returns with no stray phase
    mid = p3.t_on - p1.t_off
    assert fold_dev(PARAMS.delta_max * mid, 0.0) < 1e-6

    # and the lead/tail span balances the two ac-Stark rates
    span = p1.t_on + (sched.duration - p3.t_off)
    g1s, g2s = PARAMS.g1 ** 2, PARAMS.g2 ** 2
    lhs = g1s * (mid - span)
    rhs = g2s * (span + 2.0 * PARAMS.T1 + mid - PARAMS.T2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_fixed_schedule_geometry():
    params = GateParams(guard="fixed")
    sched = make_cz_schedule(params)
    p1, p2, p3 = sched.pulses
    assert p1.t_on == 0.0
    assert p2.t_on - p1.t_off == pytest.approx(5.0 * params.T1, rel=1e-12)
    assert p3.t_on - p2.t_off == pytest.approx(5.0 * params.T1, rel=1e-12)
    assert sched.duration == pytest.approx(p3.t_off)
    custom = make_cz_schedule(GateParams(guard="fixed", fixed_gap=1e-11))
    assert custom.pulses[1].t_on - custom.pulses[0].t_off == pytest.approx(1e-11)


# ---------------------------------------------------------------------------
# Hamiltonian structure


def test_hamiltonian_structure():
    sched = make_cz_schedule(PARAMS)
    t_in_w1 = sched.pulses[0].t_on + 0.5 * PARAMS.T1
    h = build_hamiltonian(t_in_w1, PARAMS, sched)
    assert np.allclose(h, h.conj().T)
    assert h[0, 4] == PARAMS.g1 and h[1, 6] == PARAMS.g1
    assert h[0, 5] == PARAMS.g2 and h[2, 7] == PARAMS.g2
    assert np.all(h[DARK_INDEX, :] == 0.0)
    assert np.all(h[:, DARK_INDEX] == 0.0)
    # on resonance the coupled pair is degenerate
    assert h[4, 4] == pytest.approx(h[0, 0])
    # parked, it is split by the full detuning
    h_idle = build_hamiltonian(0.0, PARAMS, sched)
    assert h_idle[4, 4] - h_idle[0, 0] == pytest.approx(-PARAMS.delta_max)
    assert h_idle[5, 5] - h_idle[0, 0] == pytest.approx(-PARAMS.delta_max)


def test_hamiltonian_parks_at_delta_max():
    # omega_w - omega_a0 rounds to the spacing of omega_w (0.5 rad/s
    # here); a parked qubit sits at delta_max itself, the detuning
    # make_cz_schedule pads its gaps against
    params = GateParams(delta_max=1e12 + 0.3, D_g=0.0)
    assert params.omega_w - params.omega_a0 != params.delta_max
    window = PulseSchedule((DetuningPulse(1, 0.0, params.T1),),
                           2.0 * params.T1)
    idle = np.real(np.diag(build_hamiltonian(1.5 * params.T1, params, window)))
    assert idle[4:].tolist() == [-params.delta_max] * 4
    tuned = np.real(np.diag(build_hamiltonian(0.5 * params.T1, params, window)))
    assert tuned[4:].tolist() == [0.0, -params.delta_max, 0.0,
                                  -params.delta_max]


# ---------------------------------------------------------------------------
# propagator


def segment_oracle(schedule, params, c0):
    """Final co-moving state via scipy expm on each piecewise-constant
    stretch, rotated by exp(i * integral of the diagonal of H)."""
    cuts = sorted({0.0, schedule.duration}
                  | {p.t_on for p in schedule.pulses}
                  | {p.t_off for p in schedule.pulses})
    c = np.asarray(c0, dtype=complex)
    theta = np.zeros(8)
    for a, b in zip(cuts[:-1], cuts[1:]):
        h = build_hamiltonian(0.5 * (a + b), params, schedule)
        c = oracles.propagate_ref(h, b - a, c)
        theta = theta + np.real(np.diag(h)) * (b - a)
    return np.exp(1j * theta) * c


def test_evolve_matches_expm_oracle():
    rng = np.random.default_rng(11)
    c0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    rng = np.random.default_rng(12)
    starts = np.vstack([c0, rng.normal(size=(5, 8))
                        + 1j * rng.normal(size=(5, 8))])
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    for params in ORACLE_PARAMS:
        sched = make_cz_schedule(params)
        trajs = [evolve(c, sched, params) for c in starts]
        want = segment_oracle(sched, params, starts[0])
        assert np.max(np.abs(trajs[0].final - want)) < 1e-6

        # every record of every start, stepping the oracle from one
        # record time to the next; a record interval that straddled a
        # pulse edge would take the wrong Hamiltonian here and miss by
        # far more than the bound
        c = starts.T
        theta = np.zeros(8)
        times = trajs[0].times
        for k in range(1, len(times)):
            a, b = times[k - 1], times[k]
            h = build_hamiltonian(0.5 * (a + b), params, sched)
            c = oracles.propagate_ref(h, b - a, c)
            theta = theta + np.real(np.diag(h)) * (b - a)
            for i, traj in enumerate(trajs):
                assert np.max(np.abs(traj.amplitudes[k]
                                     - np.exp(1j * theta) * c[:, i])) < 1e-10


# segment lengths around the doubling's steps: one record, and every
# 2^k - 1, 2^k and 2^k + 1 up to 1025
DOUBLING_LENGTHS = sorted({1} | {2 ** k + d for k in range(1, 11)
                                 for d in (-1, 0, 1)})


@pytest.mark.parametrize("n", DOUBLING_LENGTHS)
def test_doubled_records_match_sequential_steps(n):
    # a resonant qubit-1 window [0, T1] and as long parked after it:
    # samples = 2n cuts both segments into n records
    t1 = PARAMS.T1
    params = replace(PARAMS, samples=2 * n)
    sched = PulseSchedule((DetuningPulse(1, 0.0, t1),), 2.0 * t1)
    rng = np.random.default_rng(n)
    starts = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    starts = np.vstack([starts, RegisterState.logical_superposition().amplitudes])
    trajs = [evolve(c0, sched, params) for c0 in starts]
    for traj in trajs:
        assert traj.amplitudes.shape == (2 * n + 1, 8)
    # the dark state's identity row and column survive every product
    assert np.all(trajs[3].amplitudes[:, DARK_INDEX] == 0.5)

    # sequential steps by the same U per segment, in the co-moving frame
    hs = [build_hamiltonian(0.5 * t1, params, sched),
          build_hamiltonian(1.5 * t1, params, sched)]
    d1, d2 = (np.real(np.diag(h)) for h in hs)
    t = trajs[0].times[:, None]
    theta = np.where(t <= t1, d1 * t, d1 * t1 + d2 * (t - t1))
    steps = [starts.T]
    for h in hs:
        u = dynamics._expm(-1j * (t1 / n) * h)
        for _ in range(n):
            steps.append(u @ steps[-1])
    seq = np.exp(1j * theta)[:, None, :] * np.transpose(steps, (0, 2, 1))
    for i, traj in enumerate(trajs):
        assert np.max(np.abs(traj.amplitudes - seq[:, i])) <= 1e-13

    # and scipy, stepping from one record time to the next
    c = starts.T
    for k in range(1, 2 * n + 1):
        a, b = trajs[0].times[k - 1], trajs[0].times[k]
        h = build_hamiltonian(0.5 * (a + b), params, sched)
        c = oracles.propagate_ref(h, b - a, c)
        for i, traj in enumerate(trajs):
            assert np.max(np.abs(traj.amplitudes[k]
                                 - np.exp(1j * theta[k]) * c[:, i])) <= 1e-10


def test_long_run_keeps_its_norm():
    # 20,000 records: a segment's last records come from the highest
    # powers of U, so this is where rounding has grown most (about 4e-13)
    params = replace(PARAMS, samples=20000)
    sched = make_cz_schedule(params)
    for state in GATE_STATES:
        traj = evolve(state.amplitudes, sched, params)
        assert len(traj.times) > 20000
        drift = np.abs(np.linalg.norm(traj.amplitudes, axis=-1) - 1.0)
        assert np.max(drift) <= 1e-12
    assert np.all(traj.amplitudes[:, DARK_INDEX] == 0.5)


def test_evolve_rejects_bad_state_shape():
    sched = make_cz_schedule(PARAMS)
    for shape in ((7,), (1, 8), (3, 9), (2, 3, 8)):
        with pytest.raises(ValueError, match=r"need 8 amplitudes"):
            evolve(np.zeros(shape), sched, PARAMS)


def test_evolve_rejects_empty_span():
    # evolve always runs from 0 to the schedule's duration, so an empty
    # span is refused where the schedule is built
    with pytest.raises(ValueError, match="duration"):
        PulseSchedule((), 0.0)
    with pytest.raises(ValueError, match="duration"):
        PulseSchedule((), -1e-10)


def test_target_pi_window_returns_population():
    sched = PulseSchedule((DetuningPulse(2, 0.0, PARAMS.T2),), PARAMS.T2)
    traj = evolve(RegisterState.basis(0).amplitudes, sched,
                  replace(PARAMS, samples=100))
    assert abs(traj.final[0]) ** 2 > 0.999
    # the minus sign of a full pi, up to the spectator ac-Stark phase
    # g1^2/delta * T2 ~ 0.03 rad that only the full calibrated sequence
    # cancels
    phases, valid = extract_phases(traj.amplitudes)
    assert valid[-1, 0]
    assert fold_dev(phases[-1, 0], math.pi) < 0.05


def test_control_half_window_transfers_population():
    sched = PulseSchedule((DetuningPulse(1, 0.0, PARAMS.T1),), PARAMS.T1)
    traj = evolve(RegisterState.basis(0).amplitudes, sched,
                  replace(PARAMS, samples=100))
    assert abs(traj.final[4]) ** 2 > 0.999
    phases, valid = extract_phases(traj.amplitudes)
    assert valid[-1, 4]
    assert fold_dev(phases[-1, 4], -math.pi / 2.0) < 0.03


def test_parked_leakage_scales_with_detuning():
    # virtual occupation of the waveguide goes as (g/delta)^2, so halving
    # delta_max should roughly quadruple the worst instantaneous leakage
    idle = PulseSchedule((), 2e-11)

    def peak(delta):
        params = GateParams(delta_max=delta)
        traj = evolve(RegisterState.basis(0).amplitudes, idle,
                      replace(params, samples=600))
        return float(np.max(aux_leakage(traj.amplitudes)))

    ratio = peak(5e11) / peak(1e12)
    assert 2.67 < ratio < 6.0


def test_run_cz_fails_loudly_when_parking_is_too_shallow():
    params = GateParams(delta_max=1e11)
    with pytest.raises(GateFailure, match="epsilon = 1.0e-02") as err:
        run_cz(RegisterState.basis(0), params)
    # the message names the leakage, above epsilon
    leakage = float(str(err.value).split("space: ")[1].split(" >")[0])
    assert leakage > 0.01


def test_run_cz_propagates_once(monkeypatch, cz_sup):
    calls = {"evolve": 0, "_expm": 0}

    def counting(name):
        fn = getattr(dynamics, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(dynamics, name, counting(name))
    run = run_cz(RegisterState.logical_superposition(), PARAMS)
    sched = make_cz_schedule(PARAMS)
    edges = {0.0, sched.duration} | {e for p in sched.pulses
                                      for e in (p.t_on, p.t_off)}
    assert calls == {"evolve": 1, "_expm": len(edges) - 1}

    # one (n, 8) trajectory, and the truth table of all four states
    n = len(cz_sup.trajectory.times)
    assert run.trajectory.amplitudes.shape == (n, 8)
    assert run.final.shape == (8,)
    for figures in (run.phases, run.returns, run.leakages):
        assert figures.shape == (4,) and np.all(np.isfinite(figures))
    assert np.array_equal(run.trajectory.amplitudes,
                          cz_sup.trajectory.amplitudes)


def test_gate_run_extracts_phases_once(monkeypatch, tmp_path, capsys):
    # run_cz reads its final phases from the final states; only the
    # printed superposition trajectory goes through extract_phases
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return extract_phases(*args, **kwargs)

    for module in (dynamics, cli):
        monkeypatch.setattr(module, "extract_phases", counting)
    run_cz(RegisterState.logical_superposition(), PARAMS)
    assert len(calls) == 0
    assert cli.main(["gate-sim", "--out", str(tmp_path / "traj.csv")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("params", ORACLE_PARAMS)
def test_final_phases_match_folded_ref(params):
    # np.angle of the co-moving final state against the oracle's last
    # unwrapped phase folded into (-pi, pi], wherever the final amplitude
    # carries a phase; epsilon is opened so no schedule is refused
    for state in GATE_STATES:
        run = run_cz(state, replace(params, epsilon=1.0))
        traj = run.trajectory
        _, valid, final = oracles.extract_phases_ref(traj.amplitudes, 1e-6)
        got = np.angle(run.final)
        assert valid[-1].any()
        for i in np.nonzero(valid[-1])[0]:
            assert fold_dev(got[i], final[i]) <= 1e-12


def gate_sweep_point(seed):
    """A gate point drawn as the gate-sweep benchmark draws them."""
    rng = random.Random(seed)
    g1 = 5e9 + 1.5e10 * rng.random()
    g2 = g1 * (0.8 + 0.15 * rng.random())
    delta_max = g1 * (100.0 + 300.0 * rng.random())
    return GateParams(g1=g1, g2=g2, delta_max=delta_max,
                      D_g=2.0 * math.pi * 2.87e9)


def truth_lines(phases, returns, leakages):
    """gate-sim's two renderings of each truth-table row."""
    rows = zip(phases, dynamics.cz_phase_error(phases), returns, leakages)
    return [(f"phase={p:.6f} rad, dev={d:.2e} rad, return={r:.6f}, "
             f"leakage={l:.3e}", f"{p:+.5f}  {d:.3e}  {r:.6f}  {l:.3e}")
            for p, d, r, l in rows]


@pytest.mark.parametrize("params", [
    PARAMS, GateParams(guard="fixed", epsilon=0.05),
    *(gate_sweep_point(seed) for seed in range(1, 9))],
    ids=["default", "fixed", *(f"seed{seed}" for seed in range(1, 9))])
def test_superposition_truth_table_equals_basis_runs(params):
    # H keeps each logical state in its own block, so the superposition
    # carries every basis state's run at half amplitude and one run
    # gives the truth table of four
    sup = run_cz(RegisterState.logical_superposition(), params)
    runs = [run_cz(RegisterState.basis(i), params) for i in range(4)]
    alone = [[getattr(run, name)[i] for i, run in enumerate(runs)]
             for name in ("phases", "returns", "leakages")]
    assert truth_lines(sup.phases, sup.returns, sup.leakages) == (
        truth_lines(*alone))
    for i, run in enumerate(runs):
        block = [i] + [j for b, j, _ in dynamics._COUPLING_PAIRS if b == i]
        half = 0.5 * run.trajectory.amplitudes[:, block]
        assert np.max(np.abs(sup.trajectory.amplitudes[:, block] - half)) <= 1e-15
        # a basis run reads only its own state
        assert np.isnan(np.delete(run.leakages, i)).all()


def test_superposition_run_cz_raises_for_first_leaking_state():
    # shallow parking: the dark state never leaks, |+1,g2> and |g1,g2>
    # both do; the superposition reports the first of them in basis
    # order, with the leakage of that state's own run
    params = GateParams(delta_max=1e11)
    run_cz(RegisterState.basis(3), params)
    with pytest.raises(GateFailure):
        run_cz(RegisterState.basis(2), params)
    with pytest.raises(GateFailure) as single:
        run_cz(RegisterState.basis(0), params)
    with pytest.raises(GateFailure) as sup:
        run_cz(RegisterState.logical_superposition(), params)
    assert str(sup.value) == str(single.value)
    assert str(sup.value).startswith(
        "population left outside the qubit space: 3.324e-01 >")


def test_superposition_run_cz_holds_each_block_to_its_norm():
    # at g1 = 1e5 a record step is 2.7e4 parked radians, and the final
    # norms of basis runs 0, 1 and 2 drift by +9.0e-10, -3.8e-9 and
    # +4.6e-9; in the superposition they cancel to +4.2e-10, so only a
    # per-block test refuses the gate as the basis runs alone do
    params = GateParams(g1=1e5)
    for i in (1, 2):
        with pytest.raises(GateFailure, match="lost the state norm"):
            run_cz(RegisterState.basis(i), params)
    with pytest.raises(GateFailure, match="lost the state norm"):
        run_cz(RegisterState.logical_superposition(), params)


# ---------------------------------------------------------------------------
# phase extraction against the element-by-element walk


def assert_phases_match_ref(amps, floor=dynamics._PHASE_FLOOR):
    # all eight columns and the four logical ones gate-sim passes
    for cols in (amps, amps[:, :4]):
        want = oracles.extract_phases_ref(cols, floor)[:2]
        for mine, ref in zip(extract_phases(cols), want):
            assert mine.dtype == ref.dtype and mine.shape == ref.shape
            assert mine.tobytes() == ref.tobytes()


def test_extract_phases_reads_an_evolve_trajectory():
    # evolve's own trajectory goes straight into extract_phases
    sched = make_cz_schedule(PARAMS)
    for state in GATE_STATES:
        traj = evolve(state.amplitudes, sched, PARAMS)
        assert_phases_match_ref(traj.amplitudes)


@pytest.fixture(scope="module")
def gate_runs():
    return [run_cz(state, PARAMS) for state in GATE_STATES]


@pytest.mark.parametrize("index", range(5))
def test_phases_match_ref_on_gate_runs(gate_runs, index):
    assert_phases_match_ref(gate_runs[index].trajectory.amplitudes)


def test_phases_match_ref_above_raised_floor(gate_runs, monkeypatch):
    monkeypatch.setattr(dynamics, "_PHASE_FLOOR", 0.05)
    for run in gate_runs:
        assert_phases_match_ref(run.trajectory.amplitudes, floor=0.05)


def test_phases_match_ref_on_the_fixed_gap_blank_cells():
    # the fixed-gap schedule leaves logical amplitudes below the floor,
    # the blank phase cells of its gate-sim table
    run = run_cz(RegisterState.logical_superposition(),
                 GateParams(guard="fixed", epsilon=0.05))
    amps = run.trajectory.amplitudes
    assert not extract_phases(amps[:, :4])[1].all()
    assert_phases_match_ref(amps)


def winding_amplitudes(valid, seed=5):
    """Unit amplitudes where valid, 1e-9 elsewhere, with phases that wind
    fast enough to need unwrapping."""
    rng = np.random.default_rng(seed)
    winding = np.cumsum(rng.uniform(1.0, 3.0, size=valid.shape), axis=0)
    return np.where(valid, 1.0, 1e-9) * np.exp(1j * winding)


def test_phases_match_ref_across_gaps():
    # per column: gap at row 0, in the middle, on the last row only, never
    # valid, always valid, alternating single records, valid at the last
    # record only, several gaps and one to the end
    n = 40
    valid = np.ones((n, 8), dtype=bool)
    valid[:6, 0] = False
    valid[15:22, 1] = False
    valid[-1, 2] = False
    valid[:, 3] = False
    valid[::2, 5] = False
    valid[:-1, 6] = False
    valid[[3, 4, 10, 20, 21, 22, 33, 34, 35, 36, 37, 38, 39], 7] = False
    amps = winding_amplitudes(valid)
    assert_phases_match_ref(amps)
    assert np.array_equal(extract_phases(amps)[1], valid)


@pytest.mark.parametrize("n", [1, 2, 40])
def test_phases_match_ref_with_nothing_masked(n):
    # no gap anywhere: the one unwrap is the whole answer
    assert_phases_match_ref(winding_amplitudes(np.ones((n, 8), dtype=bool)))


# ---------------------------------------------------------------------------
# states and observables


def test_register_state_validation():
    with pytest.raises(ValueError, match="norm"):
        RegisterState(np.full(8, 0.5 + 0.0j))
    with pytest.raises(ValueError, match="8 amplitudes"):
        RegisterState(np.zeros(4))
    s = RegisterState.basis(3)
    assert np.abs(s.amplitudes[3]) ** 2 == 1.0
    sup = RegisterState.logical_superposition()
    assert np.allclose(logical_populations(sup.amplitudes), 0.25)
    assert aux_leakage(sup.amplitudes) == 0.0
    with pytest.raises(ValueError, match="norm"):
        RegisterState(np.full(8, np.nan))


# ---------------------------------------------------------------------------
# full gate runs (shared session fixture)


def test_gate_truth_table(cz_sup):
    final = np.angle(cz_sup.final[:4])
    for phase, target in zip(final, (math.pi, math.pi, math.pi, 0.0)):
        assert fold_dev(phase, target) < 0.05
    assert cz_sup.leakage < 0.01
    # |final - CZ * initial| on the logical block, from the last co-moving
    # record as recorded
    initial = RegisterState.logical_superposition().amplitudes
    ideal = dynamics.CZ_SIGNS * initial[:4]
    assert np.max(np.abs(cz_sup.trajectory.final[:4] - ideal)) < 0.05
    pops = np.abs(cz_sup.final[:4]) ** 2
    assert np.max(np.abs(pops - 0.25)) < 0.04


def test_cz_phase_error_folds_onto_zero_to_pi():
    # targets (pi, pi, pi, 0): a whole turn or a sign at pi is no error
    errs = dynamics.cz_phase_error(
        [-math.pi, 3.0 * math.pi, math.pi + 0.1, 2.0 * math.pi - 0.2])
    assert errs == pytest.approx([0.0, 0.0, 0.1, 0.2], abs=1e-12)
    assert dynamics.cz_phase_error([0.0, 0.0, 0.0, -math.pi]) == (
        pytest.approx([math.pi] * 4))


def test_gate_conserves_excitation(cz_sup):
    traj = cz_sup.trajectory
    # every basis state carries one excitation, so <N> = sum |c|^2
    n = np.sum(np.abs(traj.amplitudes) ** 2, axis=1)
    assert np.max(np.abs(n - 1.0)) < 1e-9


def test_dark_state_untouched(cz_sup):
    traj = cz_sup.trajectory
    pop = np.abs(traj.amplitudes[:, DARK_INDEX]) ** 2
    assert np.max(np.abs(pop - 0.25)) < 1e-12
    # its diagonal entry is exactly zero by the frame choice, so its
    # co-moving amplitude holds still bit for bit
    assert np.all(traj.amplitudes[:, DARK_INDEX] == 0.5)
    phases, _ = extract_phases(traj.amplitudes)
    assert np.max(np.abs(phases[:, DARK_INDEX])) < 1e-6


def test_population_choreography(cz_sup):
    traj = cz_sup.trajectory
    p1, p2, p3 = cz_sup.schedule.pulses
    pops = logical_populations(traj.amplitudes)
    aux = 1.0 - pops.sum(axis=1)
    t = traj.times

    # first pi/2 window empties |g1 g2> into the waveguide branch
    end_w1 = (t >= p1.t_off - 2e-12) & (t <= p1.t_off + 2e-12)
    assert pops[end_w1, 0].min() < 0.01

    # between the windows half the register sits in the aux space
    gap1 = (t > p1.t_off) & (t < p2.t_on)
    assert abs(aux[gap1].mean() - 0.5) < 0.02

    # the target pi window takes |+1 g2> out and brings it back
    w2 = (t >= p2.t_on) & (t <= p2.t_off)
    assert pops[w2, 2].min() < 0.01
    near_end_w2 = (t >= p2.t_off - 2e-12) & (t <= p2.t_off + 2e-12)
    assert pops[near_end_w2, 2].max() > 0.2

    # and the second pi/2 restores the logical populations
    assert np.max(np.abs(pops[-1] - 0.25)) < 0.04


def test_phase_gaps_are_flagged_not_nan(cz_sup, monkeypatch):
    # between the pi/2 windows |g1 +2> sits in the aux space and only a
    # percent-level dispersive residue remains on its track; raising the
    # floor above that residue has to open a flagged gap, keep every
    # phase finite, and still end the track near pi
    monkeypatch.setattr(dynamics, "_PHASE_FLOOR", 0.05)
    phases, valid = extract_phases(cz_sup.trajectory.amplitudes)
    assert np.all(np.isfinite(phases))
    assert not valid[:, 1].all()
    assert valid[-1, 1]
    assert fold_dev(phases[-1, 1], math.pi) < 0.05


def test_never_populated_track_reports_zero():
    sched = PulseSchedule((DetuningPulse(1, 0.0, PARAMS.T1),), PARAMS.T1)
    traj = evolve(RegisterState.basis(0).amplitudes, sched,
                  replace(PARAMS, samples=50))
    phases, valid = extract_phases(traj.amplitudes)
    # |g1 +2> never acquires amplitude from |g1 g2>
    assert not valid[:, 1].any()
    assert np.all(phases[:, 1] == 0.0)


def test_trajectory_record_budget(cz_sup):
    n = len(cz_sup.trajectory.times)
    assert 1100 <= n <= 1450
    assert cz_sup.trajectory.times[0] == 0.0
    assert cz_sup.trajectory.times[-1] == pytest.approx(
        cz_sup.schedule.duration)
