"""Microscopic ACC platoon simulation on open road and ring.

The lead vehicle follows exact closed-form kinematics (cruise segments,
constant-acceleration segments, sinusoidal oscillation, or a recorded
trajectory); followers integrate the linear ACC law with semi-implicit
Euler (speed first, then position).  Keeping the leader formula-driven
means engagement-time tests are not polluted by integrator error, and
cruising followers (zero acceleration) are integrated exactly as well.

One stepping loop serves every scenario.  Its state is a (run, column)
array of x and of v, recorded each step into (run, column, step)
histories of x, v and a, so every trajectory is a contiguous row.  The
controller parameters are per-run column vectors (`ControlParams.
columns`), so a batch of runs that differ only in their parameters
advances in one array call per operation, and every run is
bit-identical to simulating it alone.  Column 0 leads column 1: the
open road's leader, or on a ring the last vehicle one ring length
ahead.  A cut-in is a column allocated up front, NaN until it merges.
The histories take 3 * 8 bytes per column and step of each run
(`Scenario.history_bytes`); `scenarios.run_empirical` sizes its
batches to keep a batch under about 2 MiB.

The module also carries the exact solution of the vehicle-pair error
dynamics

    z' = A_d z + D_d a_lead,   A_d = [[-tau*k_s, 1 - tau*k_v],
                                      [-k_s,     -k_v       ]],

used as an independent oracle against the time-stepped simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .model import ControlParams, acc_acceleration

__all__ = [
    "OscillationSpec",
    "Trajectory",
    "CutIn",
    "Cruise",
    "ConstAccel",
    "Oscillate",
    "LeaderProfile",
    "Scenario",
    "PlatoonResult",
    "EngagementEvent",
    "CollisionError",
    "DT_JITTER",
    "PiecewiseConstantAccel",
    "PairErrorState",
    "leader_motion",
    "simulate_platoon",
    "pair_state_analytic",
    "spacing_analytic",
    "first_down_crossing",
    "sampled_gap",
    "detect_engagement",
    "ring_setup",
]


@dataclass(frozen=True)
class OscillationSpec:
    """Equilibrium speed plus sinusoidal modes (A_m, omega_m, phi_m).

    The implied leader motion is
        x(t) = v_e t + sum A_m sin(w_m t + phi_m),
        v(t) = v_e + sum A_m w_m cos(w_m t + phi_m).
    """

    v_e: float
    modes: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.v_e):
            raise ValueError(f"v_e must be finite, got {self.v_e}")
        for A, om, phi in self.modes:
            if not all(math.isfinite(f) for f in (A, om, phi)):
                raise ValueError(f"mode fields must be finite, got {(A, om, phi)}")
            if A < 0:
                raise ValueError("mode amplitude must be non-negative")
            if om <= 0:
                raise ValueError("mode frequency must be positive")


# Largest difference between a trajectory's sample steps and its dt [s].
DT_JITTER = 1e-6


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled motion of one vehicle: every step of t is dt within DT_JITTER."""

    vehicle_id: int
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        if len(self.t) < 2:
            raise ValueError("trajectory needs at least two samples")
        steps = np.diff(self.t)
        if np.any(steps <= 0):
            raise ValueError("sample times must be strictly increasing")
        off = np.abs(steps - self.dt)
        if np.any(off > DT_JITTER):
            k = int(np.argmax(off))
            raise ValueError(f"dt {self.dt} does not match sample step {k} ({steps[k]!r})")

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def covers(self, t: float) -> bool:
        return self.t[0] <= t <= self.t[-1]

    def position_at(self, t) -> np.ndarray:
        return np.interp(t, self.t, self.x)

    def speed_at(self, t) -> np.ndarray:
        return np.interp(t, self.t, self.v)


@dataclass(frozen=True)
class CutIn:
    """A vehicle merging into the platoon at a given time.

    The merging vehicle is placed `gap` metres behind the vehicle it now
    follows (i.e. it leaves `gap` to its new leader), cuts in directly
    ahead of follower `ahead_of`, adopts that follower's current speed,
    and runs the ACC law immediately.
    """

    time: float
    gap: float
    ahead_of: int


@dataclass(frozen=True)
class Cruise:
    duration: Optional[float]


@dataclass(frozen=True)
class ConstAccel:
    duration: Optional[float]
    accel: float


@dataclass(frozen=True)
class Oscillate:
    """Oscillation about the phase-entry speed: v = v0 + sum A w cos(w t' + phi)."""

    duration: Optional[float]
    modes: Tuple[Tuple[float, float, float], ...]


LeaderPhase = Union[Cruise, ConstAccel, Oscillate]


@dataclass(frozen=True)
class LeaderProfile:
    """Piecewise leader kinematics: initial speed plus a chain of phases.

    Only the final phase may have duration None (open-ended).  Position
    and speed are continuous across phase boundaries by construction;
    acceleration may jump.
    """

    v0: float
    phases: Tuple[LeaderPhase, ...]

    def __post_init__(self) -> None:
        for ph in self.phases[:-1]:
            if ph.duration is None:
                raise ValueError("only the last phase may be open-ended")


LeaderSpec = Union[OscillationSpec, LeaderProfile, Trajectory]


@dataclass(frozen=True)
class Scenario:
    """One platoon experiment.

    For open topology, `leader` drives the front of the platoon and
    `n_followers` ACC vehicles trail it.  Followers start on the
    equilibrium manifold for `initial_speeds` unless `initial_gaps`
    overrides (free-flow approach scenarios use gaps above s_c).  For
    ring topology there is no external leader: `initial_speeds` lists
    every vehicle and `leader` is ignored.

    `params` may be a tuple of parameter sets: the open-road platoon is
    then simulated once per set, as one batch.
    """

    params: Union[ControlParams, Tuple[ControlParams, ...]]
    n_followers: int
    leader: Optional[LeaderSpec]
    duration: float
    dt: float = 0.01
    topology: str = "open"
    cut_ins: Tuple[CutIn, ...] = ()
    initial_speeds: Union[float, Sequence[float], None] = None
    initial_gaps: Union[float, Sequence[float], None] = None
    eps_v: float = 1e-9

    def __post_init__(self) -> None:
        if self.topology not in ("open", "ring"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.duration <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be positive")
        n_steps = round(self.duration / self.dt)
        if n_steps < 1 or abs(self.duration / self.dt - n_steps) > 1e-9 * n_steps:
            raise ValueError(
                f"duration {self.duration} is not an integer multiple of dt {self.dt}"
            )
        n_total = self.n_followers + (1 if self.topology == "open" else 0)
        if n_total < 2:
            raise ValueError("a platoon needs at least two vehicles")
        if self.topology == "open" and self.leader is None:
            raise ValueError("open-road scenarios need a leader spec")
        if self.topology == "ring" and self.initial_speeds is None:
            raise ValueError("ring scenarios need explicit initial speeds")
        if not self.run_params:
            raise ValueError("a batch needs at least one parameter set")
        if self.topology == "ring" and (self.cut_ins or len(self.run_params) > 1):
            raise ValueError("a ring takes one parameter set and no cut-ins")

    @property
    def run_params(self) -> Tuple[ControlParams, ...]:
        """The parameter set of each run, in batch order."""
        return self.params if isinstance(self.params, tuple) else (self.params,)

    @property
    def history_bytes(self) -> int:
        """Bytes of the x, v and a histories `simulate_platoon` keeps per run."""
        if self.topology == "ring":
            n_cols = len(self.initial_speeds) + 1
        else:
            n_cols = self.n_followers + len(self.cut_ins) + 1
        return 3 * 8 * n_cols * (round(self.duration / self.dt) + 1)


@dataclass(frozen=True)
class PlatoonResult:
    """Trajectories in platoon order (front to rear), run after run, plus ring metadata."""

    trajectories: List[Trajectory]
    ring_length: Optional[float] = None
    runs: int = 1

    def run(self, r: int) -> List[Trajectory]:
        """Trajectories of run r of the batch, in platoon order."""
        n = len(self.trajectories) // self.runs
        return self.trajectories[r * n:(r + 1) * n]


class EngagementEvent(NamedTuple):
    vehicle_id: int
    t_star: float
    x_star: float


class CollisionError(RuntimeError):
    """A spacing reached zero: time, follower index in platoon order, and run of the batch."""

    def __init__(self, t: float, follower_index: int, run: int = 0):
        where = f", run {run}" if run else ""
        super().__init__(
            f"vehicle collision (spacing <= 0) at t={t:.3f} s, follower {follower_index}{where}")
        self.t = t
        self.follower_index = follower_index
        self.run = run


# ---------------------------------------------------------------------------
# Leader kinematics
# ---------------------------------------------------------------------------

def leader_motion(spec: OscillationSpec, t) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact leader position/speed/acceleration under an oscillation spec."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be non-negative")
    x = spec.v_e * t_arr
    v = np.full_like(t_arr, spec.v_e)
    a = np.zeros_like(t_arr)
    for A, om, phi in spec.modes:
        arg = om * t_arr + phi
        x = x + A * np.sin(arg)
        v = v + A * om * np.cos(arg)
        a = a - A * om**2 * np.sin(arg)
    return x, v, a


def _profile_motion(profile: LeaderProfile, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.empty_like(t)
    v = np.empty_like(t)
    a = np.empty_like(t)
    t0, x0, v0 = 0.0, 0.0, profile.v0
    remaining = np.ones(t.shape, dtype=bool)
    for k, ph in enumerate(profile.phases):
        last = k == len(profile.phases) - 1
        if ph.duration is None:
            mask = remaining
        else:
            mask = remaining & (t < t0 + ph.duration) if not last else remaining & (t <= t0 + ph.duration)
        dt_ph = t[mask] - t0
        if isinstance(ph, Cruise):
            x[mask] = x0 + v0 * dt_ph
            v[mask] = v0
            a[mask] = 0.0
            end_v = v0
            end_x = x0 + v0 * (ph.duration or 0.0)
        elif isinstance(ph, ConstAccel):
            x[mask] = x0 + v0 * dt_ph + 0.5 * ph.accel * dt_ph**2
            v[mask] = v0 + ph.accel * dt_ph
            a[mask] = ph.accel
            d = ph.duration or 0.0
            end_v = v0 + ph.accel * d
            end_x = x0 + v0 * d + 0.5 * ph.accel * d**2
        elif isinstance(ph, Oscillate):
            xs = x0 + v0 * dt_ph
            vs = np.full_like(dt_ph, v0)
            acc = np.zeros_like(dt_ph)
            d = ph.duration or 0.0
            end_x = x0 + v0 * d
            end_v = v0
            for A, om, phi in ph.modes:
                arg = om * dt_ph + phi
                xs = xs + A * (np.sin(arg) - math.sin(phi))
                vs = vs + A * om * np.cos(arg)
                acc = acc - A * om**2 * np.sin(arg)
                end_x += A * (math.sin(om * d + phi) - math.sin(phi))
                end_v += A * om * math.cos(om * d + phi)
            x[mask], v[mask], a[mask] = xs, vs, acc
        else:  # pragma: no cover
            raise TypeError(f"unknown phase {ph!r}")
        remaining = remaining & ~mask
        if ph.duration is None:
            break
        t0, x0, v0 = t0 + ph.duration, end_x, end_v
    if np.any(remaining):
        raise ValueError("leader profile ends before the scenario does; make the last phase open-ended")
    return x, v, a


def _leader_arrays(leader: LeaderSpec, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(leader, OscillationSpec):
        return leader_motion(leader, times)
    if isinstance(leader, LeaderProfile):
        return _profile_motion(leader, times)
    if isinstance(leader, Trajectory):
        if times[0] < leader.t[0] - 1e-12 or times[-1] > leader.t[-1] + 1e-12:
            raise ValueError("recorded leader trajectory does not cover the scenario window")
        return (
            np.interp(times, leader.t, leader.x),
            np.interp(times, leader.t, leader.v),
            np.interp(times, leader.t, leader.a),
        )
    raise TypeError(f"unsupported leader spec {leader!r}")


def _leader_initial_speed(leader: LeaderSpec) -> float:
    if isinstance(leader, OscillationSpec):
        return leader.v_e
    if isinstance(leader, LeaderProfile):
        return leader.v0
    return float(leader.v[0])


# ---------------------------------------------------------------------------
# Platoon integration
# ---------------------------------------------------------------------------

def simulate_platoon(scenario: Scenario) -> PlatoonResult:
    """Integrate a platoon scenario and return per-vehicle trajectories.

    Open topology: vehicle 0 is the formula-driven leader; followers run
    the ACC law whenever their local state is congested (spacing at or
    below s_c, or speed off v_f) and cruise otherwise.  Ring topology:
    every vehicle follows its predecessor with wrap-around gaps on a
    ring of length sum(tau*v_i(0) + L).

    A scenario with a tuple of parameter sets runs them as one batch;
    the result lists each run's trajectories in turn (`PlatoonResult.run`).

    Raises CollisionError if any spacing reaches zero.
    """
    sc = scenario
    runs = sc.run_params
    # one run keeps scalar parameters, which the ACC law evaluates faster
    P = runs[0] if len(runs) == 1 else ControlParams.columns(runs)
    n_steps = int(round(sc.duration / sc.dt))
    times = np.arange(n_steps + 1) * sc.dt
    if sc.topology == "ring":
        init_v = np.asarray(sc.initial_speeds, dtype=float)
        n = len(init_v)
        L_x, x0 = ring_setup(n, runs[0], init_v)
        X, V, A = (np.empty((1, n + 1, n_steps + 1)) for _ in range(3))
        X[0, 1:, 0], V[0, 1:, 0] = x0, init_v
        _integrate(sc, P, times, X, V, A, ring_length=L_x)
        trajs = [
            Trajectory(vehicle_id=i, t=times, x=X[0, i + 1], v=V[0, i + 1], a=A[0, i + 1], dt=sc.dt)
            for i in range(n)
        ]
        return PlatoonResult(trajectories=trajs, ring_length=L_x)

    lx, lv, la = _leader_arrays(sc.leader, times)
    n_f = sc.n_followers
    if sc.initial_speeds is None:
        init_v = np.full(n_f, _leader_initial_speed(sc.leader))
    else:
        init_v = np.broadcast_to(np.asarray(sc.initial_speeds, dtype=float), (n_f,))
    gaps = P.tau * init_v + P.L if sc.initial_gaps is None else np.asarray(sc.initial_gaps, dtype=float)
    init_gaps = np.broadcast_to(gaps, (len(runs), n_f))

    # Vehicle i < n_f is follower i; vehicle n_f + j is cut-in j in time
    # order.  Columns hold the leader, then every vehicle in its final
    # platoon order; a cut-in's column is NaN until it merges.
    cut_ins = sorted(sc.cut_ins, key=lambda c: c.time)
    cut_steps = [int(round(c.time / sc.dt)) for c in cut_ins]
    order = list(range(n_f))
    for j, (c, k) in enumerate(zip(cut_ins, cut_steps)):
        if not (0 < k < n_steps):
            raise ValueError(f"cut-in time {c.time} outside the scenario window")
        if not (1 <= c.ahead_of <= n_f):
            raise ValueError(f"cut-in ahead_of must name a follower 1..{n_f}")
        order.insert(c.ahead_of - 1, n_f + j)
    column = np.argsort(order) + 1
    born = [0] * n_f + cut_steps

    X, V, A = (np.empty((len(runs), len(order) + 1, n_steps + 1)) for _ in range(3))
    X[:, 1:, 0] = V[:, 1:, 0] = np.nan
    x = lx[0] - init_gaps[:, 0]
    for i in range(n_f):
        if i:
            x = x - init_gaps[:, i]
        X[:, column[i], 0], V[:, column[i], 0] = x, init_v[i]
    merges = [(k, column[n_f + j], c.gap) for j, (c, k) in enumerate(zip(cut_ins, cut_steps))]
    _integrate(sc, P, times, X, V, A, leader=(lx, lv), cut_ins=merges)

    trajs: List[Trajectory] = []
    for r in range(len(runs)):
        trajs.append(Trajectory(vehicle_id=0, t=times, x=lx, v=lv, a=la, dt=sc.dt))
        for vid in order:
            b, c = born[vid], column[vid]
            trajs.append(Trajectory(
                vehicle_id=vid + 1, t=times[b:],
                x=X[r, c, b:], v=V[r, c, b:], a=A[r, c, b:], dt=sc.dt,
            ))
    return PlatoonResult(trajectories=trajs, runs=len(runs))


def _integrate(
    sc: Scenario,
    P: ControlParams,
    times: np.ndarray,
    X: np.ndarray,
    V: np.ndarray,
    A: np.ndarray,
    leader: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ring_length: Optional[float] = None,
    cut_ins: Sequence[Tuple[int, int, float]] = (),
) -> None:
    """The one stepping loop: fill the (run, column, step) histories.

    The state is a (run, column) array of x and of v, started from the
    histories' step 0.  Columns 1.. are driven by the ACC law, in platoon
    order; each follows the nearest merged column ahead of it.  Column 0
    leads column 1: the open road's `leader` (x, v at each step), or on a
    ring the last column one ring length ahead (the lead wraps around
    with an offset of +L_x).  `cut_ins` lists (step, column, gap) in
    merge order: the column holds NaN until that step, which makes its
    spacing NaN, so it cruises (zero command), stays NaN and trips no
    collision.  At its step it is placed `gap` behind the column ahead,
    at the speed of the column behind.
    """
    dt, eps_v = sc.dt, sc.eps_v
    merged = np.ones(X.shape[1], dtype=bool)
    merged[[c for _, c, _ in cut_ins]] = False
    lead = _lead_columns(merged)
    pending = list(cut_ins)
    x, v = X[:, :, 0].copy(), V[:, :, 0].copy()
    x_drv, v_drv = x[:, 1:], v[:, 1:]

    def set_lead_column(k: int) -> None:
        if leader is not None:
            x[:, 0], v[:, 0] = leader[0][k], leader[1][k]
        else:
            x[:, 0], v[:, 0] = x[:, -1] + ring_length, v[:, -1]

    set_lead_column(0)
    n_steps = len(times) - 1
    for k in range(n_steps + 1):
        X[:, :, k], V[:, :, k] = x, v
        gaps = x[:, lead] - x_drv
        try:
            acc = acc_acceleration(gaps, v_drv, v[:, lead], P, eps_v)
        except ValueError:  # raised for a non-positive spacing
            r, j = divmod(int(np.argmax(gaps <= 0)), gaps.shape[1])
            raise CollisionError(times[k], int(np.count_nonzero(merged[1:j + 1])), r) from None
        A[:, 1:, k] = acc
        if k == n_steps:
            break
        v_drv += dt * acc
        x_drv += dt * v_drv
        set_lead_column(k + 1)
        while pending and pending[0][0] == k + 1:
            _, c, gap = pending.pop(0)
            behind = c + 1 + int(np.argmax(merged[c + 1:]))
            x[:, c], v[:, c] = x[:, lead[c - 1]] - gap, v[:, behind]
            merged[c] = True
            lead = _lead_columns(merged)


def _lead_columns(merged: np.ndarray):
    """Column ahead of each driven column: the nearest merged one.

    A slice once every column has merged (a view, cheaper than a gather).
    """
    if merged.all():
        return slice(0, merged.size - 1)
    return np.maximum.accumulate(np.where(merged, np.arange(merged.size), 0))[:-1]


def ring_setup(
    n: int,
    params: ControlParams,
    initial_speeds: Sequence[float],
) -> Tuple[float, np.ndarray]:
    """Ring length and initial positions from the time-headway manifold.

    Each vehicle's initial gap to its predecessor is tau*v_i(0) + L; the
    ring length is the sum of all gaps.  Vehicle 0 sits at x = 0 and the
    rest stack behind it; vehicle 0 wraps around to follow the last one.
    """
    if n < 2:
        raise ValueError("ring needs at least two vehicles")
    v = np.asarray(initial_speeds, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"expected {n} initial speeds, got shape {v.shape}")
    gaps = params.tau * v + params.L
    L_x = float(np.sum(gaps))
    x = np.empty(n)
    x[0] = 0.0
    for i in range(1, n):
        x[i] = x[i - 1] - gaps[i]
    return L_x, x


# ---------------------------------------------------------------------------
# Exact vehicle-pair solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairErrorState:
    """Spacing error s - s* and speed difference v_lead - v of one pair."""

    e_s: float
    e_v: float

    def as_array(self) -> np.ndarray:
        return np.array([self.e_s, self.e_v], dtype=float)


@dataclass(frozen=True)
class PiecewiseConstantAccel:
    """Leader acceleration held constant between breakpoints.

    a(t) = values[j] on [times[j], times[j+1]), zero before times[0],
    and values[-1] from times[-1] on.
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be equal-length and non-empty")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    def integral(self, t0: float, t1: float) -> float:
        """Integral of a(t) over [t0, t1]."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        total = 0.0
        for (a, b), val in self._segments():
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                total += val * (hi - lo)
        return total

    def _segments(self):
        for j, val in enumerate(self.values):
            a = self.times[j]
            b = self.times[j + 1] if j + 1 < len(self.times) else math.inf
            yield (a, b), val


AccelProfile = Union[None, PiecewiseConstantAccel, Tuple[np.ndarray, np.ndarray]]


def pair_dynamics_matrix(params: ControlParams) -> np.ndarray:
    """Closed-loop error dynamics matrix A_d (det A_d = k_s)."""
    return np.array(
        [[-params.tau * params.k_s, 1.0 - params.tau * params.k_v],
         [-params.k_s, -params.k_v]]
    )


def _expm2(A: np.ndarray, t: float) -> np.ndarray:
    """exp(A t) for a real 2x2 matrix, in closed form.

    Split A = mu*I + B with B traceless; then B^2 = Delta^2 * I with
    Delta^2 = mu^2 - det(A), and exp(At) = e^{mu t}(cosh(Delta t) I +
    sinh(Delta t)/Delta * B), with the sinh/Delta factor continued as
    (sin/|Delta|) for complex Delta and as t at the defective point.
    """
    mu = 0.5 * (A[0, 0] + A[1, 1])
    B = A - mu * np.eye(2)
    disc = mu * mu - (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    if abs(disc) < 1e-20:
        ch, sh_over = 1.0, t
    elif disc > 0:
        d = math.sqrt(disc)
        ch, sh_over = math.cosh(d * t), math.sinh(d * t) / d
    else:
        d = math.sqrt(-disc)
        ch, sh_over = math.cos(d * t), (math.sin(d * t) / d if d > 0 else t)
    return math.exp(mu * t) * (ch * np.eye(2) + sh_over * B)


_D_VEC = np.array([0.0, 1.0])


def pair_state_analytic(
    z0: PairErrorState,
    a_lead: AccelProfile,
    t0: float,
    t: float,
    params: ControlParams,
) -> PairErrorState:
    """Exact pair error state z(t) = e^{A(t-t0)} z0 + convolution term.

    The forcing convolution is evaluated segment-analytically for
    piecewise-constant leader acceleration (using A^{-1}(e^{A dt_a} -
    e^{A dt_b}) D per segment) and by trapezoidal quadrature for sampled
    (t_array, a_array) profiles.  a_lead=None means zero forcing.
    """
    if t < t0:
        raise ValueError("t must be >= t0")
    A = pair_dynamics_matrix(params)
    z = _expm2(A, t - t0) @ z0.as_array()
    if a_lead is None or t == t0:
        return PairErrorState(*(z.tolist()))
    if isinstance(a_lead, PiecewiseConstantAccel):
        det = params.k_s
        if det < 1e-12:
            z = z + _convolve_sampled(A, a_lead, t0, t)
        else:
            Ainv = np.linalg.inv(A)
            for (a, b), val in a_lead._segments():
                lo, hi = max(a, t0), min(b, t)
                if hi > lo and val != 0.0:
                    inc = Ainv @ (_expm2(A, t - lo) - _expm2(A, t - hi)) @ _D_VEC
                    z = z + val * inc
    else:
        ts, vals = a_lead
        z = z + _trapezoid_convolution(A, np.asarray(ts, float), np.asarray(vals, float), t0, t)
    return PairErrorState(*(z.tolist()))


def _trapezoid_convolution(A: np.ndarray, ts: np.ndarray, vals: np.ndarray, t0: float, t: float) -> np.ndarray:
    mask = (ts >= t0) & (ts <= t)
    tt = ts[mask]
    aa = vals[mask]
    if tt.size == 0 or tt[0] > t0:
        tt = np.concatenate(([t0], tt))
        aa = np.concatenate(([np.interp(t0, ts, vals)], aa))
    if tt[-1] < t:
        tt = np.append(tt, t)
        aa = np.append(aa, np.interp(t, ts, vals))
    integrand = np.empty((tt.size, 2))
    for i, phi in enumerate(tt):
        integrand[i] = _expm2(A, t - phi) @ _D_VEC * aa[i]
    return np.array(
        [np.trapezoid(integrand[:, 0], tt), np.trapezoid(integrand[:, 1], tt)]
    )


def _convolve_sampled(A: np.ndarray, prof: PiecewiseConstantAccel, t0: float, t: float, n: int = 2000) -> np.ndarray:
    tt = np.linspace(t0, t, n + 1)
    vals = np.empty_like(tt)
    for i, phi in enumerate(tt):
        j = np.searchsorted(prof.times, phi, side="right") - 1
        vals[i] = prof.values[max(j, 0)] if phi >= prof.times[0] else 0.0
    return _trapezoid_convolution(A, tt, vals, t0, t)


def spacing_analytic(
    z0: PairErrorState,
    a_lead: AccelProfile,
    v_lead0: float,
    t0: float,
    t: float,
    params: ControlParams,
) -> float:
    """Absolute spacing of the pair at time t from the exact error state.

    s(t) = (e_s - tau*e_v)(t) + tau*(v_lead0 + int a_lead) + L, which
    reconstructs s from the error coordinates and the leader's speed
    history.
    """
    z = pair_state_analytic(z0, a_lead, t0, t, params)
    if a_lead is None:
        inc = 0.0
    elif isinstance(a_lead, PiecewiseConstantAccel):
        inc = a_lead.integral(t0, t)
    else:
        ts, vals = a_lead
        tt = np.asarray(ts, float)
        mask = (tt >= t0) & (tt <= t)
        inc = float(np.trapezoid(np.asarray(vals, float)[mask], tt[mask])) if mask.sum() >= 2 else 0.0
    v_lead = v_lead0 + inc
    return z.e_s - params.tau * z.e_v + params.tau * v_lead + params.L


# ---------------------------------------------------------------------------
# Engagement detection
# ---------------------------------------------------------------------------

def first_down_crossing(t, y, level: float) -> Optional[float]:
    """First time a sampled series, linear between samples, comes down to `level`.

    Finds the first sample k with y[k] <= level and returns the exact
    root of the linear piece on [t[k-1], t[k]] (where y[k-1] > level).
    None when the series starts at or below `level` or never reaches it.
    """
    hit = np.nonzero(np.asarray(y) <= level)[0]
    if hit.size == 0 or hit[0] == 0:
        return None
    k = int(hit[0])
    y0, y1 = float(y[k - 1]), float(y[k])
    return float(t[k - 1] + (y0 - level) / (y0 - y1) * (t[k] - t[k - 1]))


def sampled_gap(lead: Trajectory, fol: Trajectory) -> Tuple[np.ndarray, np.ndarray]:
    """Gap series of one pair, sampled at the follower's step over their common window."""
    t_lo = max(lead.t0, fol.t0)
    n = int(math.floor((min(lead.t_end, fol.t_end) - t_lo) / fol.dt)) + 1
    tt = t_lo + np.arange(n) * fol.dt
    return tt, lead.position_at(tt) - fol.position_at(tt)


def detect_engagement(
    trajectories: Sequence[Trajectory],
    params: ControlParams,
) -> List[EngagementEvent]:
    """First time each follower's gap reaches the critical spacing s_c.

    Takes the exact first down-crossing of s_c by the sampled gap series
    of each consecutive pair, linear between samples.  Vehicles whose gap
    never crosses (or that start already at or below s_c) produce no
    event.
    """
    events: List[EngagementEvent] = []
    for lead, fol in zip(trajectories, trajectories[1:]):
        t_star = first_down_crossing(*sampled_gap(lead, fol), params.s_c)
        if t_star is not None:
            events.append(EngagementEvent(fol.vehicle_id, t_star, float(fol.position_at(t_star))))
    return events
