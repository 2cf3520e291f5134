"""Two NV spins sharing one waveguide photon: the controlled-Z sequence.

Basis and frame
---------------
The simulation lives in the single-excitation subspace spanned by the
eight product states (qubit 1, qubit 2, photon number):

    0  |g1, g2; 1>      4  |e1, g2; 0>
    1  |g1, +2; 1>      5  |g1, e2; 0>
    2  |+1, g2; 1>      6  |e1, +2; 0>
    3  |+1, +2; 1>      7  |+1, e2; 0>

|g> and |+> are the two ground-state qubit levels, |e> the optically
excited level reached from |g> by the waveguide photon.  |+1,+2;1> has
no dipole-allowed partner in this subspace and is exactly dark.

The Hamiltonian is built in the frame rotating at the waveguide
frequency omega_w.  Every basis state above carries exactly one
excitation, so subtracting omega_w * N only shifts the whole diagonal by
a constant: a global phase, invisible in any population or relative
phase.  What remains on the diagonal are the qubit splittings D_k and
the (time-dependent) optical detunings delta_k(t) = omega_w -
omega_{a,k}(t); a Stark pulse on qubit k sets delta_k = 0 inside its
window and leaves it parked at delta_max outside (omega_w = omega_a0 +
delta_max).

evolve records every amplitude times exp(i Theta_i(t)), Theta_i(t) =
integral of H_ii, i.e. in the co-moving frame where an uncoupled state
holds still, so every phase downstream is a plain np.angle.  That
convention makes the dark state's phase exactly flat and cancels D_k
from every reported phase (the pair (1,6) shares D_2, the pair (2,7)
shares D_1, so only the optical detuning survives in any splitting that
matters).

Gate sequence
-------------
pi/2 on qubit 1, pi on qubit 2, pi/2 on qubit 1.  The two pi/2 windows
send |g1,g2;1> and |g1,+2;1> through the excited level and back,
picking up (-i)^2 = -1; the pi window flips |+1,g2;1> through |+1,e2;0>
for its own -1; the dark state is untouched.  Net truth table
diag(-1,-1,-1,+1), a controlled-Z up to single-qubit frame choices.

Between and around the windows the parked qubits still talk to the
photon dispersively and accumulate ac-Stark phase at rate ~ g^2/delta;
make_cz_schedule sets the idle intervals so those strays cancel.

Truth table from one run
------------------------
H couples each logical state only to its own excited partners
(_COUPLING_PAIRS): the blocks {0,4,5}, {1,6}, {2,7}, {3} never exchange
amplitude.  So the superposition's run holds in each block the run of
that basis state alone, times 1/2, and run_cz reads the truth table off it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional

import numpy as np

from .core import CONSTANTS

# (bright state, excited partner, coupling qubit) for the four transitions
_COUPLING_PAIRS = ((0, 4, 1), (1, 6, 1), (0, 5, 2), (2, 7, 2))

_PHASE_FLOOR = 1e-6

# A pulse edge near t = pi/g is held to float resolution, about t * 2**-52,
# which moves the parked phase delta_max * t by (delta_max/g) * pi * 2**-52
# rad.  The schedule aligns that phase to whole turns, so past
# delta_max/g = 2**52 it is not known to half a turn.
_MAX_PARKING = 2.0 ** 52


class GateFailure(RuntimeError):
    """Gate run with no valid result: no pulse schedule, a non-finite or
    non-unitary propagation, or leakage above epsilon."""


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class GateParams:
    """Everything run_cz needs.  Defaults are the working point used
    throughout the bundled tables."""

    g1: float = 1.0e10
    g2: float = 0.9e10
    delta_max: float = 1.0e12
    omega_a0: float = 2.95e15
    D_g: float = CONSTANTS.zero_field_splitting_rad_s
    epsilon: float = 1e-2
    guard: str = "calibrated"          # "calibrated" | "fixed"
    fixed_gap: Optional[float] = None  # seconds; None -> 5 * T1 when fixed
    samples: int = 1200

    def __post_init__(self):
        if self.guard not in ("calibrated", "fixed"):
            raise ValueError(f"guard: 'calibrated' or 'fixed', got {self.guard!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(
                f"epsilon: must be > 0 and finite, got {self.epsilon}")
        if self.fixed_gap is not None and not 0.0 <= self.fixed_gap < math.inf:
            raise ValueError(
                f"fixed_gap: must be >= 0 and finite, got {self.fixed_gap}")
        if not 2 <= self.samples < math.inf:
            raise ValueError(f"samples: need a finite count >= 2, got {self.samples}")
        if not 0.0 < self.omega_a0 < math.inf:
            raise ValueError(
                f"omega_a0: must be > 0 and finite, got {self.omega_a0}")
        if not math.isfinite(self.D_g):
            raise ValueError(f"D_g: must be finite, got {self.D_g}")
        # > 0 keeps omega_w = omega_a0 + delta_max > 0 for the checks below
        if not 0.0 < self.delta_max < math.inf:
            raise ValueError(
                f"delta_max: must be > 0 and finite, got {self.delta_max}")
        for name in ("g1", "g2"):
            g = getattr(self, name)
            if not 0.0 < g < math.inf:
                raise ValueError(f"{name}: must be > 0 and finite, got {g}")
            if g / self.omega_w >= 1e-3:
                raise ValueError(
                    f"{name}: rotating-wave regime needs {name}/omega_w < "
                    f"1e-3, got {g / self.omega_w:.2e}")
            if self.delta_max / g < 10.0:
                raise ValueError(
                    f"delta_max: dispersive parking needs delta_max/{name} "
                    f">= 10, got {self.delta_max / g:.2f}")
            if not self.delta_max / g < _MAX_PARKING:
                raise ValueError(
                    f"{name}: float time resolution needs delta_max/{name} "
                    f"< 2**52, got {self.delta_max / g:.2e}")

    @property
    def T1(self) -> float:
        """Control pi/2 window, pi / (2 g1)."""
        return math.pi / (2.0 * self.g1)

    @property
    def T2(self) -> float:
        """Target pi window, pi / g2."""
        return math.pi / self.g2

    @property
    def omega_w(self) -> float:
        return self.omega_a0 + self.delta_max


@dataclass(frozen=True)
class DetuningPulse:
    """One Stark window: qubit k is tuned onto waveguide resonance
    (delta_k = 0) for t_on <= t < t_off and parked at delta_k(0) outside."""

    qubit: int
    t_on: float
    t_off: float

    def __post_init__(self):
        if self.qubit not in (1, 2):
            raise ValueError(f"qubit: must be 1 or 2, got {self.qubit}")
        if not (0.0 <= self.t_on < self.t_off):
            raise ValueError(
                f"pulse window: need 0 <= t_on < t_off, got "
                f"[{self.t_on}, {self.t_off}]")

    @property
    def width(self) -> float:
        return self.t_off - self.t_on


@dataclass(frozen=True)
class PulseSchedule:
    pulses: tuple
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if not 0.0 < self.duration < math.inf:
            raise ValueError(
                f"duration: must be > 0 and finite, got {self.duration}")
        ordered = sorted(self.pulses, key=lambda p: p.t_on)
        for a, b in zip(ordered[:-1], ordered[1:]):
            if b.t_on < a.t_off - 1e-18:
                raise ValueError(
                    f"pulses overlap: [{a.t_on}, {a.t_off}] and "
                    f"[{b.t_on}, {b.t_off}]")
        for p in self.pulses:
            if p.t_off > self.duration * (1.0 + 1e-12):
                raise ValueError(
                    f"pulse ends at {p.t_off} beyond schedule duration "
                    f"{self.duration}")

    def active(self, t: float) -> tuple:
        """(qubit-1 resonant?, qubit-2 resonant?) at time t."""
        on = [False, False]
        for p in self.pulses:
            if p.t_on <= t < p.t_off:
                on[p.qubit - 1] = True
        return tuple(on)

    def validate_against(self, params: GateParams) -> None:
        """Check every window has the nominal pi/2 (qubit 1) or pi
        (qubit 2) duration for these couplings, to 1e-9 relative."""
        want = {1: params.T1, 2: params.T2}
        for p in self.pulses:
            rel = abs(p.width / want[p.qubit] - 1.0)
            if not rel <= 1e-9:
                raise ValueError(
                    f"qubit-{p.qubit} window is not the nominal "
                    f"{want[p.qubit]:.6e} s: relative error {rel:.1e}")


def make_cz_schedule(params: GateParams) -> PulseSchedule:
    """Pulse timing for the pi/2 - pi - pi/2 sequence.

    guard="calibrated" (default): short idle gaps, with gap2 padded so
    the parked phase delta_max * (gap1 + T2 + gap2) is a 2pi multiple,
    and the lead/tail span D solving

        g1^2 * (M - D) = g2^2 * (D + 2 T1 + M - T2),   M = gap1 + T2 + gap2

    so the residual ac-Stark phases on |g1,+2;1> and |+1,g2;1> cancel
    each other.  guard="fixed": every gap is fixed_gap (default 5 T1),
    no lead or tail; simple, but leaves ~0.1 rad of stray phase.
    """
    T1, T2, dmax = params.T1, params.T2, params.delta_max
    if params.guard == "fixed":
        gap = params.fixed_gap if params.fixed_gap is not None else 5.0 * T1
        lead = tail = 0.0
        gap1 = gap2 = gap
    else:
        base = 0.05 * T1
        m0 = 2.0 * base + T2
        alpha = dmax * m0
        pad = (2.0 * math.pi * math.ceil(alpha / (2.0 * math.pi)) - alpha) / dmax
        gap1 = base
        gap2 = base + pad
        mid = gap1 + T2 + gap2
        g1sq, g2sq = params.g1 ** 2, params.g2 ** 2
        span = (g1sq * mid - g2sq * (2.0 * T1 + mid - T2)) / (g1sq + g2sq)
        span = max(span, 0.0)
        lead = tail = 0.5 * span

    t = lead
    p1a = DetuningPulse(1, t, t + T1)
    t += T1 + gap1
    p2 = DetuningPulse(2, t, t + T2)
    t += T2 + gap2
    p1b = DetuningPulse(1, t, t + T1)
    t += T1 + tail
    return PulseSchedule(pulses=(p1a, p2, p1b), duration=t)


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class RegisterState:
    """Normalised amplitudes over the eight basis states, in basis order."""

    amplitudes: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.amplitudes, dtype=complex)
        if c.shape != (8,):
            raise ValueError(f"need 8 amplitudes, got shape {c.shape}")
        object.__setattr__(self, "amplitudes", c)
        norm = float(np.linalg.norm(c))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"state norm {norm} deviates from 1 by more "
                             f"than 1e-9")

    @classmethod
    def basis(cls, index: int) -> "RegisterState":
        c = np.zeros(8, dtype=complex)
        c[index] = 1.0
        return cls(c)

    @classmethod
    def logical_superposition(cls) -> "RegisterState":
        """(|g>+|+>)(|g>+|+>)/2 on the qubits, one photon."""
        c = np.zeros(8, dtype=complex)
        c[:4] = 0.5
        return cls(c)


def logical_populations(amplitudes) -> np.ndarray:
    """(p00, p01, p10, p11) in |g>=0, |+>=1 labelling."""
    c = np.asarray(amplitudes)
    return np.abs(c[..., :4]) ** 2


def aux_leakage(amplitudes):
    """Population outside the qubit space, |c_4|^2 + ... + |c_7|^2 over
    the last axis: a number for one state, an (n,) array for (n, 8).
    Summed directly, it keeps its digits where 1 - sum(logical) cancels."""
    c = np.asarray(amplitudes)
    return np.sum(np.abs(c[..., 4:]) ** 2, axis=-1)


# ---------------------------------------------------------------------------
# Hamiltonian


def build_hamiltonian(t: float, params: GateParams,
                      schedule: PulseSchedule) -> np.ndarray:
    """8x8 Hamiltonian at time t in the omega_w rotating frame (rad/s).

    Subtracting omega_w * N leaves this single-excitation block shifted by
    a constant only; diagonal entries are qubit splittings and detunings,
    off-diagonal entries the photon couplings g_k.  The diagonal is
    referenced to the dark state's energy, so its row and column are
    exactly zero; every relative phase and population is unaffected by
    that choice of zero.  Both NVs share omega_a0 and D_g.
    """
    on1, on2 = schedule.active(t)
    # delta_max itself, the detuning make_cz_schedule pads against, not
    # omega_w - omega_a0, which rounds to the spacing of omega_w
    delta1 = 0.0 if on1 else params.delta_max
    delta2 = 0.0 if on2 else params.delta_max
    d = params.D_g
    h = np.zeros((8, 8), dtype=complex)
    # energy zero at the dark state: a diagonal shift is one more global
    # phase (the co-moving frame cancels it exactly), and it makes the
    # dark row and column vanish identically, so every segment propagator
    # holds that amplitude bit for bit instead of letting per-record
    # modulus rounding pile up
    diag = (-d - d, -d, -d, 0.0,
            -delta1 - d - d, -delta2 - d - d,
            -delta1 - d, -delta2 - d)
    h[np.diag_indices(8)] = diag
    gs = {1: params.g1, 2: params.g2}
    for i, j, q in _COUPLING_PAIRS:
        h[i, j] = h[j, i] = gs[q]
    return h


# ---------------------------------------------------------------------------
# propagator


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) from matrix products only (Moler & Van Loan, SIAM Rev. 45, 3
    (2003)): a degree-16 Taylor polynomial of a / 2^s, ||a / 2^s||_1 < 1/2
    (truncation below 1e-19), squared back s times.  A zero row and column
    of a stay an exact identity row and column of the result."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    s = max(0, math.frexp(norm)[1] + 1)
    b = a / 2.0 ** s
    eye = np.eye(a.shape[0], dtype=complex)
    u = eye
    for k in range(16, 0, -1):
        u = eye + (b / k) @ u
    for _ in range(s):
        u = u @ u
    return u


@dataclass(frozen=True)
class Trajectory:
    """Recorded evolution: times (s) and co-moving amplitudes."""

    times: np.ndarray          # (n,)
    amplitudes: np.ndarray     # (n, 8) complex

    @property
    def final(self) -> np.ndarray:
        return self.amplitudes[-1]


def evolve(state, schedule: PulseSchedule, params: GateParams) -> Trajectory:
    """Propagate 8 amplitudes exactly through a pulse schedule, giving
    (n, 8) recorded amplitudes.

    The Hamiltonian is constant between pulse edges.  Each such segment
    is cut into n = max(1, round(params.samples * duration / total))
    equal record intervals tau and filled by doubling: records 1..f times
    U^f, U = exp(-i H tau) squared log2(f) times, are records f+1..2f, so
    a segment takes about 2 log2(n) products.  The trajectory holds the
    start state and every record; the last record of a segment falls
    exactly on its end, so params.samples gives about samples + 1 rows.
    Each record is stored times exp(i theta), theta the integral of the
    diagonal of H up to its time: the co-moving amplitude, whose np.angle
    is the reported phase.  More records than numpy can address raise
    MemoryError.
    """
    c0 = np.asarray(state, dtype=complex)
    if c0.shape != (8,):
        raise ValueError(f"need 8 amplitudes, got shape {c0.shape}")
    total = schedule.duration

    cuts = {0.0, total} | {e for p in schedule.pulses
                           for e in (p.t_on, p.t_off) if 0.0 < e < total}
    edges = sorted(cuts)
    spans = [(a, b, max(1, round(params.samples * (b - a) / total)))
             for a, b in zip(edges[:-1], edges[1:])]
    rows = 1 + sum(n for _, _, n in spans)

    # the records are rows advanced by U^T: a run of records is one
    # (records, 8) @ (8, 8) product
    try:
        amps = np.empty((rows, 8), dtype=complex)
    except ValueError as exc:
        raise MemoryError(f"{rows:.3g} records are more than numpy can "
                          "address") from exc
    amps[0] = c0
    times, thetas = np.zeros(rows), np.zeros((rows, 8))
    i = 1
    for a, b, n in spans:
        h = build_hamiltonian(0.5 * (a + b), params, schedule)
        diag = np.real(np.diag(h))
        p = _expm(-1j * ((b - a) / n) * h).T
        seg = amps[i - 1:i + n]  # start state, then n records
        f = 1
        while f <= n:
            m = min(f, n + 1 - f)
            np.matmul(seg[:m], p, out=seg[f:f + m])
            f += m
            p = p @ p
        times[i:i + n] = np.append(a + ((b - a) / n) * np.arange(1, n), b)
        thetas[i:i + n] = thetas[i - 1] + np.outer(times[i:i + n] - a, diag)
        i += n

    amps *= np.exp(1j * thetas)   # into the co-moving frame, in place
    return Trajectory(times=times, amplitudes=amps)


# ---------------------------------------------------------------------------
# phase bookkeeping


def extract_phases(trajectory: Trajectory) -> tuple:
    """(phases, valid), both (n, 8), along a single-state trajectory.

    phases[n, i] is the unwrapped phase of state i where valid[n, i] is
    True; where the amplitude sits below _PHASE_FLOOR the last valid value
    is carried forward (never NaN) and the mask flags the gap.  Phase
    continuity is never assumed across a gap: each contiguous valid run
    is unwrapped on its own.  A run's final phases need none of this:
    they are np.angle(CzResult.final).
    """
    amps = trajectory.amplitudes
    angle = np.angle(amps)
    valid = np.abs(amps) >= _PHASE_FLOOR
    n = amps.shape[0]
    # each contiguous valid run [start, stop) of a column is unwrapped on
    # its own; nonzero lists starts and stops in the same (column, row) order
    step = np.diff(valid.T.astype(np.int8), axis=1, prepend=0, append=0)
    cols, starts = np.nonzero(step == 1)
    stops = np.nonzero(step == -1)[1]
    phases = np.zeros((n, 8))
    for i, j, k in zip(cols.tolist(), starts.tolist(), stops.tolist()):
        phases[j:k, i] = np.unwrap(angle[j:k, i])
    # a gap carries the last valid phase forward (0 before the first run)
    last = np.maximum.accumulate(
        np.where(valid, np.arange(n)[:, None], -1), axis=0)
    phases = np.where(last >= 0, phases[np.maximum(last, 0), np.arange(8)], 0.0)
    return phases, valid


# ---------------------------------------------------------------------------
# the gate


# the target diag(-1, -1, -1, +1) as logical phases; cos gives the signs
# exactly
_CZ_PHASES = (math.pi, math.pi, math.pi, 0.0)
CZ_SIGNS = np.cos(_CZ_PHASES)


def cz_phase_error(phases) -> list:
    """Distance of each of the four logical phases from its CZ target,
    folded onto [0, pi]."""
    return [abs(math.remainder(phi - target, 2.0 * math.pi))
            for phi, target in zip(phases, _CZ_PHASES)]


@dataclass(frozen=True)
class CzResult:
    final: np.ndarray          # (8,) co-moving, normalised
    trajectory: Trajectory
    leakage: float             # population outside the qubit space at the end
    schedule: PulseSchedule
    # the truth table (see run_cz); NaN where the run has no c_i(0)
    phases: np.ndarray         # (4,) rad
    returns: np.ndarray        # (4,)
    leakages: np.ndarray       # (4,)


def run_cz(initial: RegisterState,
           params: GateParams = GateParams()) -> CzResult:
    """Run the full controlled-Z sequence from one initial state.

    For each logical state i with c_i(0) != 0 the run gives, off i's
    block, what a run from i alone would: phase np.angle(final[i]),
    return |c_i|^2 over the block's population, leakage the block's
    excited population over |c_i(0)|^2.  Raises GateFailure when params
    admit no valid pulse schedule, when a block's norm leaves 1 by more
    than 1e-9 (or turns non-finite), and for the first i whose leakage
    exceeds params.epsilon.
    """
    try:
        schedule = make_cz_schedule(params)
        schedule.validate_against(params)
    except (ValueError, OverflowError) as exc:
        raise GateFailure(f"no valid pulse schedule: {exc}") from exc
    # a step propagator squared back from a huge norm over- or underflows
    # and a non-finite theta turns the amplitudes to NaN.  Each block is
    # held to its own norm: drifts of opposite sign cancel in the state's
    with np.errstate(all="ignore"):
        traj = evolve(initial.amplitudes, schedule, params)
        # the block of each logical state i: |c_i|^2 and the summed |c_j|^2
        # of its excited partners j, at the start (row 0) and the end (row 1)
        pop = np.abs([initial.amplitudes, traj.final]) ** 2
        excited = np.zeros((2, 4))
        for i, j, _ in _COUPLING_PAIRS:
            excited[:, i] += pop[:, j]
        before, after = pop[:, :4] + excited
        drift = np.where(before > 0.0, np.abs(np.sqrt(after / before) - 1.0),
                         after)
    if not np.all(drift <= 1e-9):
        raise GateFailure("propagation lost the state norm or overflowed; "
                          "no finite gate to report")

    start, end = pop[:, :4]
    final = traj.final / np.linalg.norm(traj.final)
    present = start > 0.0
    with np.errstate(all="ignore"):
        leakages = np.where(present, excited[1] / start, np.nan)
        returns = np.where(present, end / after, np.nan)
    over = np.flatnonzero(leakages > params.epsilon)
    if over.size:
        raise GateFailure(
            f"population left outside the qubit space: "
            f"{leakages[over[0]]:.3e} > epsilon = {params.epsilon:.1e}")
    return CzResult(final=final, trajectory=traj,
                    leakage=float(aux_leakage(traj.final)), schedule=schedule,
                    phases=np.where(present, np.angle(final[:4]), np.nan),
                    returns=returns, leakages=leakages)
