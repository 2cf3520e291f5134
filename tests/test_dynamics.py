"""Register dynamics: pulse bookkeeping, the piecewise-constant
propagator against an expm oracle, phase extraction, and the gate."""

from dataclasses import replace
import math

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


def evolve_one(c0, sched, params):
    """One state through evolve: the (n, 8) trajectory of a one-row block."""
    traj = evolve([c0], sched, params)
    return dynamics.Trajectory(times=traj.times,
                               amplitudes=traj.amplitudes[:, 0])


def test_evolve_matches_expm_oracle():
    rng = np.random.default_rng(11)
    c0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    c0 /= np.linalg.norm(c0)
    for params in ORACLE_PARAMS:
        sched = make_cz_schedule(params)
        traj = evolve_one(c0, sched, params)
        want = segment_oracle(sched, params, c0)
        assert np.max(np.abs(traj.final - want)) < 1e-6

        # every record, stepping the oracle from one record time to the
        # next; a record interval that straddled a pulse edge would take
        # the wrong Hamiltonian here and miss by far more than the bound
        c = c0
        theta = np.zeros(8)
        for k in range(1, len(traj.times)):
            a, b = traj.times[k - 1], traj.times[k]
            h = build_hamiltonian(0.5 * (a + b), params, sched)
            c = oracles.propagate_ref(h, b - a, c)
            theta = theta + np.real(np.diag(h)) * (b - a)
            assert np.max(np.abs(traj.amplitudes[k]
                                 - np.exp(1j * theta) * c)) < 1e-10


def test_block_evolve_matches_single_runs_and_oracle():
    rng = np.random.default_rng(12)
    block = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    for params in ORACLE_PARAMS:
        sched = make_cz_schedule(params)
        traj = evolve(block, sched, params)
        n = len(traj.times)
        assert traj.amplitudes.shape == (n, 5, 8)
        for i, c0 in enumerate(block):
            single = evolve([c0], sched, params)
            assert single.amplitudes.shape == (n, 1, 8)
            assert np.array_equal(single.times, traj.times)
            assert np.max(np.abs(traj.amplitudes[:, i]
                                 - single.amplitudes[:, 0])) < 1e-13

        # every record of every column, the oracle stepping the whole
        # block from one record time to the next
        c = block.T
        theta = np.zeros(8)
        for k in range(1, n):
            a, b = traj.times[k - 1], traj.times[k]
            h = build_hamiltonian(0.5 * (a + b), params, sched)
            c = oracles.propagate_ref(h, b - a, c)
            theta = theta + np.real(np.diag(h)) * (b - a)
            assert np.max(np.abs(traj.amplitudes[k]
                                 - np.exp(1j * theta) * c.T)) < 1e-10


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
    block = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    block = np.vstack([block, RegisterState.logical_superposition().amplitudes])
    traj = evolve(block, sched, params)
    assert traj.amplitudes.shape == (2 * n + 1, 4, 8)
    # the dark state's identity row and column survive every product
    assert np.all(traj.amplitudes[:, 3, DARK_INDEX] == 0.5)

    # sequential steps by the same U per segment, in the co-moving frame
    hs = [build_hamiltonian(0.5 * t1, params, sched),
          build_hamiltonian(1.5 * t1, params, sched)]
    d1, d2 = (np.real(np.diag(h)) for h in hs)
    t = traj.times[:, None]
    theta = np.where(t <= t1, d1 * t, d1 * t1 + d2 * (t - t1))
    steps = [block.T]
    for h in hs:
        u = dynamics._expm(-1j * (t1 / n) * h)
        for _ in range(n):
            steps.append(u @ steps[-1])
    seq = np.exp(1j * theta)[:, None, :] * np.transpose(steps, (0, 2, 1))
    assert np.max(np.abs(traj.amplitudes - seq)) <= 1e-13

    # and scipy, stepping from one record time to the next
    c = block.T
    for k in range(1, 2 * n + 1):
        a, b = traj.times[k - 1], traj.times[k]
        h = build_hamiltonian(0.5 * (a + b), params, sched)
        c = oracles.propagate_ref(h, b - a, c)
        assert np.max(np.abs(traj.amplitudes[k]
                             - np.exp(1j * theta[k]) * c.T)) <= 1e-10


def test_long_run_keeps_its_norm():
    # 20,000 records: a segment's last records come from the highest
    # powers of U, so this is where rounding has grown most (about 4e-13)
    params = replace(PARAMS, samples=20000)
    traj = evolve(np.array([s.amplitudes for s in GATE_STATES]),
                  make_cz_schedule(params), params)
    assert len(traj.times) > 20000
    drift = np.abs(np.linalg.norm(traj.amplitudes, axis=-1) - 1.0)
    assert np.max(drift) <= 1e-12
    assert np.all(traj.amplitudes[:, -1, DARK_INDEX] == 0.5)


def test_evolve_rejects_bad_state_shape():
    sched = make_cz_schedule(PARAMS)
    for shape in ((8,), (7,), (3, 9), (2, 3, 8)):
        with pytest.raises(ValueError, match=r"\(k, 8\) block"):
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
    traj = evolve_one(RegisterState.basis(0).amplitudes, sched,
                      replace(PARAMS, samples=100))
    assert abs(traj.final[0]) ** 2 > 0.999
    # the minus sign of a full pi, up to the spectator ac-Stark phase
    # g1^2/delta * T2 ~ 0.03 rad that only the full calibrated sequence
    # cancels
    phases, valid = extract_phases(traj)
    assert valid[-1, 0]
    assert fold_dev(phases[-1, 0], math.pi) < 0.05


def test_control_half_window_transfers_population():
    sched = PulseSchedule((DetuningPulse(1, 0.0, PARAMS.T1),), PARAMS.T1)
    traj = evolve_one(RegisterState.basis(0).amplitudes, sched,
                      replace(PARAMS, samples=100))
    assert abs(traj.final[4]) ** 2 > 0.999
    phases, valid = extract_phases(traj)
    assert valid[-1, 4]
    assert fold_dev(phases[-1, 4], -math.pi / 2.0) < 0.03


def test_parked_leakage_scales_with_detuning():
    # virtual occupation of the waveguide goes as (g/delta)^2, so halving
    # delta_max should roughly quadruple the worst instantaneous leakage
    idle = PulseSchedule((), 2e-11)

    def peak(delta):
        params = GateParams(delta_max=delta)
        traj = evolve_one(RegisterState.basis(0).amplitudes, idle,
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


def test_five_state_run_cz_propagates_once(monkeypatch, cz_sup):
    calls = {"evolve": 0, "_expm": 0}

    def counting(name):
        fn = getattr(dynamics, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(dynamics, name, counting(name))
    results = run_cz(GATE_STATES, PARAMS)
    sched = make_cz_schedule(PARAMS)
    edges = {0.0, sched.duration} | {e for p in sched.pulses
                                      for e in (p.t_on, p.t_off)}
    assert calls == {"evolve": 1, "_expm": len(edges) - 1}

    # one result per state, in order, each an (n, 8) view of the block
    # sharing its times; the superposition's matches its own run
    assert isinstance(results, tuple) and len(results) == 5
    n = len(cz_sup.trajectory.times)
    for state, res in zip(GATE_STATES, results):
        assert res.trajectory.amplitudes.shape == (n, 8)
        assert np.array_equal(res.trajectory.amplitudes[0], state.amplitudes)
        assert res.trajectory.times is results[0].trajectory.times
        assert res.final.shape == (8,)
    sup = results[-1]
    assert np.max(np.abs(sup.trajectory.amplitudes
                         - cz_sup.trajectory.amplitudes)) < 1e-13
    assert np.max(np.abs(sup.final - cz_sup.final)) < 1e-13
    assert sup.leakage == pytest.approx(cz_sup.leakage, abs=1e-13)


def test_gate_run_extracts_phases_once(monkeypatch, tmp_path, capsys):
    # run_cz reads its final phases from the final states; only the
    # printed superposition trajectory goes through extract_phases
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return extract_phases(*args, **kwargs)

    for module in (dynamics, cli):
        monkeypatch.setattr(module, "extract_phases", counting)
    run_cz(GATE_STATES, PARAMS)
    assert len(calls) == 0
    assert cli.main(["gate-sim", "--out", str(tmp_path / "traj.csv")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("params", ORACLE_PARAMS)
def test_final_phases_match_folded_ref(params):
    # np.angle of the co-moving final state against the oracle's last
    # unwrapped phase folded into (-pi, pi], wherever the final amplitude
    # carries a phase; epsilon is opened so no schedule is refused
    runs = run_cz(GATE_STATES, replace(params, epsilon=1.0))
    for run in runs:
        traj = run.trajectory
        _, valid, final = oracles.extract_phases_ref(traj.amplitudes, 1e-6)
        got = np.angle(run.final)
        assert valid[-1].any()
        for i in np.nonzero(valid[-1])[0]:
            assert fold_dev(got[i], final[i]) <= 1e-12


def test_block_run_cz_raises_for_first_leaking_state():
    # shallow parking: the dark state never leaks, |+1,g2> and |g1,g2>
    # both do; the block reports the first of them in its own order
    params = GateParams(delta_max=1e11)
    run_cz(RegisterState.basis(3), params)
    with pytest.raises(GateFailure) as single:
        run_cz(RegisterState.basis(2), params)
    with pytest.raises(GateFailure) as block:
        run_cz([RegisterState.basis(i) for i in (3, 2, 0)], params)
    assert str(block.value) == str(single.value)


# ---------------------------------------------------------------------------
# phase extraction against the element-by-element walk


def assert_phases_match_ref(traj, floor=dynamics._PHASE_FLOOR):
    got = extract_phases(traj)
    want = oracles.extract_phases_ref(traj.amplitudes, floor)[:2]
    for mine, ref in zip(got, want):
        assert mine.dtype == ref.dtype and mine.shape == ref.shape
        assert mine.tobytes() == ref.tobytes()


@pytest.fixture(scope="module")
def gate_runs():
    return run_cz(GATE_STATES, PARAMS)


@pytest.mark.parametrize("index", range(5))
def test_phases_match_ref_on_gate_runs(gate_runs, index):
    assert_phases_match_ref(gate_runs[index].trajectory)


def test_phases_match_ref_above_raised_floor(gate_runs, monkeypatch):
    monkeypatch.setattr(dynamics, "_PHASE_FLOOR", 0.05)
    for run in gate_runs:
        assert_phases_match_ref(run.trajectory, floor=0.05)


def test_phases_match_ref_across_gaps():
    # per column: gap at the start, in the middle, at the end, never
    # valid, always valid, alternating single records, valid at the last
    # record only, several gaps; phases wind fast enough to need unwrapping
    n = 40
    rng = np.random.default_rng(5)
    valid = np.ones((n, 8), dtype=bool)
    valid[:6, 0] = False
    valid[15:22, 1] = False
    valid[33:, 2] = False
    valid[:, 3] = False
    valid[::2, 5] = False
    valid[:-1, 6] = False
    valid[[3, 4, 10, 20, 21, 22, 39], 7] = False
    winding = np.cumsum(rng.uniform(1.0, 3.0, size=(n, 8)), axis=0)
    amps = np.where(valid, 1.0, 1e-9) * np.exp(1j * winding)
    traj = dynamics.Trajectory(times=np.arange(n, dtype=float),
                               amplitudes=amps)
    assert_phases_match_ref(traj)
    assert not extract_phases(traj)[1][:, 3].any()


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
    phases, _ = extract_phases(traj)
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
    phases, valid = extract_phases(cz_sup.trajectory)
    assert np.all(np.isfinite(phases))
    assert not valid[:, 1].all()
    assert valid[-1, 1]
    assert fold_dev(phases[-1, 1], math.pi) < 0.05


def test_never_populated_track_reports_zero():
    sched = PulseSchedule((DetuningPulse(1, 0.0, PARAMS.T1),), PARAMS.T1)
    traj = evolve_one(RegisterState.basis(0).amplitudes, sched,
                      replace(PARAMS, samples=50))
    phases, valid = extract_phases(traj)
    # |g1 +2> never acquires amplitude from |g1 g2>
    assert not valid[:, 1].any()
    assert np.all(phases[:, 1] == 0.0)


def test_trajectory_record_budget(cz_sup):
    n = len(cz_sup.trajectory.times)
    assert 1100 <= n <= 1450
    assert cz_sup.trajectory.times[0] == 0.0
    assert cz_sup.trajectory.times[-1] == pytest.approx(
        cz_sup.schedule.duration)
