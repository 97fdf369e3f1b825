"""Microscopic ACC platoon simulation on open road and ring, without time-stepping.

The lead vehicle follows exact closed-form kinematics (cruise segments,
constant-acceleration segments, sinusoidal oscillation, or a recorded
trajectory).  One rule evaluates a sum of sinusoidal modes,
`leader_motion`: a profile's cruise phase is its case without modes, an
oscillation phase its modes shifted to start where the phase does, and
`waves` and `fourier` call it for the filtered follower modes, the wave
speed and the FFT reconstruction.  An engaged follower is a 2-state LTI
system driven by the vehicle ahead of it,

    z' = A z + e2 f(t),   A = [[0, 1], [-k_s, -(k_s*tau + k_v)]],
    f = k_s*x_lead + k_v*v_lead - k_s*L,

and is propagated exactly rather than time-stepped:

- **Open road: a cascade, front to rear.**  On each step x_lead is the
  cubic Hermite of the lead's (x, v) samples, so f is a cubic and the
  step map z_{k+1} = Phi z_k + sum_m Psi_m c_{m,k} is exact for that
  input (`_step_maps`: one Van Loan block exponential, numpy only).  The
  recurrence is solved for a block of steps at once by a Hillis-Steele
  doubling scan (`_doubling_scan`), so Python loops over columns and
  stretches, never over steps.  The error is that of the Hermite
  input, fourth order in dt.
- **Regimes, decided by `model.engaged` on the samples.**  A cruise is
  closed form (x0 + v0 t, a = 0); it switches to engaged at the sub-step
  root of gap = s_c and takes a partial step map to the next sample.
  An engaged stretch whose samples stop being engaged cruises from there.
- **Cut-ins** split the run into segments between merge steps; within a
  segment each column follows a fixed lead.
- **Ring: no time loop.**  About the uniform equilibrium the engaged
  ring is circulant; a DFT over vehicles splits it into independent
  complex 2x2 modes whose one-step maps are raised to every power by
  doubling, block by block in time, in checked steps of at most `DT`;
  a ring's dt is its sample step, and only its samples are recorded.

The state is kept as (column, step) histories of x, v and a, so every
trajectory is a contiguous row; the recorded a is the ACC command
(`model.acc_acceleration`) on the sampled states, recorded where they are
checked: the open road's segment by segment, the ring's at its kept steps.
On the open road column 0 is the leader, and a cut-in is a column
allocated up front, NaN until it merges; a ring's row i is vehicle i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .model import ControlParams, _require, acc_acceleration, engaged

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
    "leader_motion",
    "simulate_platoon",
    "gap_reach",
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
        _require(self.v_e, "v_e")
        _require(self.modes, "modes")   # as given: numpy would read a bool among them as 0 or 1
        A, omega, _ = np.reshape(self.modes, (-1, 3)).T
        _require(A, "mode amplitude", nonnegative=True)
        _require(omega, "mode frequency", positive=True)


# Largest difference between a trajectory's sample steps and its dt [s].
DT_JITTER = 1e-6
DT = 0.01  # time step of a simulation that names none [s]


def _whole_steps(duration: float, dt: float) -> int:
    """duration/dt when it is a whole number (to 1e-9 relative) of at least one, else 0."""
    n = round(duration / dt)
    return n if n >= 1 and abs(duration / dt - n) <= 1e-9 * n else 0


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled motion of one vehicle: every step of t is dt within
    DT_JITTER, and x, v and a are finite samples on t."""

    vehicle_id: int
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        vid = self.vehicle_id
        if isinstance(vid, bool) or not (isinstance(vid, (int, np.integer)) and -2**63 <= vid < 2**63):
            raise ValueError(f"vehicle_id must be an integer in the int64 range, got {vid!r}")
        if len(self.t) < 2:
            raise ValueError("trajectory needs at least two samples")
        for name in ("t", "x", "v", "a"):
            samples = getattr(self, name)
            if np.shape(samples) != np.shape(self.t):
                raise ValueError(f"{name} must have the shape {np.shape(self.t)} of t, got {np.shape(samples)}")
            _require(samples, name)
        _require(self.dt, "dt", positive=True)
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

    def position_at(self, t) -> np.ndarray:
        return np.interp(t, self.t, self.x)

    def speed_at(self, t) -> np.ndarray:
        return np.interp(t, self.t, self.v)


@dataclass(frozen=True)
class CutIn:
    """A vehicle merging into the platoon at a given time.

    The merging vehicle is placed `gap` metres behind the vehicle it now
    follows (i.e. it leaves `gap` to its new leader), cuts in directly
    ahead of the vehicle at position `ahead_of` behind the leader at the
    merge (1..n_followers, counting earlier cut-ins), adopts that
    vehicle's current speed, and runs the ACC law immediately.
    """

    time: float
    gap: float
    ahead_of: int

    def __post_init__(self) -> None:
        _require(self.time, "time")
        _require(self.gap, "gap", positive=True)
        _require(self.ahead_of, "ahead_of", integer=True)


@dataclass(frozen=True)
class _Phase:
    """A leader phase of `duration` seconds, or open-ended (None)."""

    duration: Optional[float]

    def __post_init__(self) -> None:
        _require(self.duration, "duration", positive=True, optional=True)


@dataclass(frozen=True)
class Cruise(_Phase):
    pass


@dataclass(frozen=True)
class ConstAccel(_Phase):
    accel: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.accel, "accel")


@dataclass(frozen=True)
class Oscillate(_Phase):
    """Oscillation about the phase-entry speed: v = v0 + sum A w cos(w t' + phi)."""

    modes: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        OscillationSpec(0.0, self.modes)  # the same checks on each mode


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
        _require(self.v0, "v0")
        for ph in self.phases[:-1]:
            if ph.duration is None:
                raise ValueError("only the last phase may be open-ended")


LeaderSpec = Union[OscillationSpec, LeaderProfile, Trajectory]


@dataclass(frozen=True)
class Scenario:
    """One platoon experiment.

    On the open road, `leader` drives the front of the platoon and
    `n_followers` ACC vehicles trail it.  Followers start on the
    equilibrium manifold for `initial_speeds` unless `initial_gaps`
    overrides (free-flow approach scenarios use gaps above s_c); each is
    one value or one per follower, and each cut-in merges strictly inside
    the window.  A scenario without a leader is a ring: `initial_speeds`
    lists all `n_followers` vehicles and sets their gaps (`ring_setup`),
    and it takes no `initial_gaps` and no cut-ins; dt is the ring's sample
    step, and the ring is checked at least every `DT`.
    """

    params: ControlParams
    n_followers: int
    leader: Optional[LeaderSpec]
    duration: float
    dt: float = DT
    cut_ins: Tuple[CutIn, ...] = ()
    initial_speeds: Union[float, Sequence[float], None] = None
    initial_gaps: Union[float, Sequence[float], None] = None

    def __post_init__(self) -> None:
        for name in ("duration", "dt"):
            _require(getattr(self, name), name, positive=True)
        _require(self.n_followers, "n_followers", integer=True)
        _require(self.initial_speeds, "initial_speeds", optional=True)
        _require(self.initial_gaps, "initial_gaps", positive=True, optional=True)
        n_steps, n, ring = _whole_steps(self.duration, self.dt), self.n_followers, self.leader is None
        if not n_steps:
            raise ValueError(f"duration {self.duration} is not an integer multiple of dt {self.dt}")
        if n + (not ring) < 2:
            raise ValueError("a platoon needs at least two vehicles")
        if not isinstance(self.params, ControlParams):
            raise TypeError(f"params must be one ControlParams, got {type(self.params).__name__}")
        if ring and np.shape(self.initial_speeds) != (n,):
            raise ValueError(f"a scenario without a leader is a ring; its initial_speeds must "
                             f"list its {n} vehicles, got shape {np.shape(self.initial_speeds)}")
        if ring and self.initial_gaps is not None:
            raise ValueError("a ring takes no initial_gaps: its initial_speeds set its gaps")
        if ring and self.cut_ins:
            raise ValueError("a ring takes no cut-ins")
        for name in ("initial_speeds", "initial_gaps"):  # on the open road
            if np.shape(getattr(self, name)) not in ((), (n,)):
                raise ValueError(f"{name} must be one value or one per follower ({n}), "
                                 f"got shape {np.shape(getattr(self, name))}")
        for c in self.cut_ins:  # clamped first: a far time would overflow the rounding
            if not (0 < round(min(max(c.time / self.dt, 0.0), n_steps)) < n_steps):
                raise ValueError(f"cut-in time {c.time} outside the scenario window")
            if not (1 <= c.ahead_of <= n):
                raise ValueError(f"cut-in ahead_of must name a follower 1..{n}")


@dataclass(frozen=True)
class PlatoonResult:
    """Trajectories in platoon order (front to rear); `ring_setup` sizes a ring."""

    trajectories: List[Trajectory]


class EngagementEvent(NamedTuple):
    vehicle_id: int
    t_star: float
    x_star: float


class CollisionError(RuntimeError):
    """A spacing reached zero: time and follower index in platoon order."""

    def __init__(self, t: float, follower_index: int):
        super().__init__(f"vehicle collision (spacing <= 0) at t={t:.3f} s, follower {follower_index}")
        self.t = t
        self.follower_index = follower_index


# ---------------------------------------------------------------------------
# Leader kinematics
# ---------------------------------------------------------------------------

def leader_motion(spec: OscillationSpec, t) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact leader position/speed/acceleration under an oscillation spec."""
    t_arr = np.asarray(t, dtype=float)
    _require(t_arr, "time", nonnegative=True)
    x = spec.v_e * t_arr
    v = np.full_like(t_arr, spec.v_e)
    a = np.zeros_like(t_arr)
    for A, om, phi in spec.modes:
        arg = om * t_arr + phi
        s = np.sin(arg)
        x = x + A * s
        v = v + A * om * np.cos(arg)
        a = a - A * om**2 * s
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
        if isinstance(ph, ConstAccel):
            x[mask] = x0 + v0 * dt_ph + 0.5 * ph.accel * dt_ph**2
            v[mask] = v0 + ph.accel * dt_ph
            a[mask] = ph.accel
            d = ph.duration or 0.0
            end_v = v0 + ph.accel * d
            end_x = x0 + v0 * d + 0.5 * ph.accel * d**2
        elif isinstance(ph, (Cruise, Oscillate)):
            # a cruise is an oscillation without modes; x is shifted to start at x0
            spec = OscillationSpec(v0, ph.modes if isinstance(ph, Oscillate) else ())
            shift = x0 - float(leader_motion(spec, 0.0)[0])
            xs, v[mask], a[mask] = leader_motion(spec, dt_ph)
            x[mask] = shift + xs
            end_x, end_v, _ = leader_motion(spec, ph.duration or 0.0)
            end_x, end_v = shift + float(end_x), float(end_v)
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
        # x on the cubic Hermite of the recorded (x, v) on each sample
        # step, as the followers see the lead; v and a linear
        k = np.clip(np.searchsorted(leader.t, times, side="right") - 1, 0, len(leader.t) - 2)
        x0, v0, c2, c3 = (c[k] for c in _hermite(leader.x, leader.v, np.diff(leader.t)))
        s = times - leader.t[k]
        return (
            x0 + s * (v0 + s * (c2 + s * c3)),
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
# Exact step maps
# ---------------------------------------------------------------------------

# Taylor degree of the block exponential, and the norm its argument is
# scaled below before squaring: 0.5^15 / 15! < 3e-17, under round-off.
_TAYLOR_DEGREE = 14
_TAYLOR_NORM = 0.5

# Time blocks that keep every temporary small: one doubling scan of an
# open-road follower covers at most _STEPS steps, the ring's modes go
# _BLOCK steps at a time, and an open-road segment's acceleration record
# (all columns at once) takes blocks of about _CELLS columns x samples.
_STEPS = 1024
_BLOCK = 256
_CELLS = 1 << 14


def _step_maps(A, h, n_inputs: int = 4) -> Tuple[np.ndarray, np.ndarray]:
    """Exact step maps of z' = A z + e2 u(t) for a polynomial input u.

    Returns Phi = e^{A h}, shaped (..., 2, 2), and Psi, shaped
    (..., n_inputs, 2), with Psi[..., m, :] = int_0^h e^{A (h - s)} e2 s^m ds.
    For an input u(t0 + s) = sum_m c_m s^m of degree below n_inputs,

        z(t0 + h) = Phi z(t0) + sum_m c_m Psi[..., m, :]

    exactly.  Both come from one Van Loan block exponential (IEEE TAC
    1978) of [[A, e2 0], [0, N]] h, N the nilpotent shift on the input's
    derivatives, evaluated by a Taylor series with scaling and squaring.
    A may be real or complex and is batched over its leading axes, h
    broadcasting against them.  Every h >= 0 and every A are valid: a
    singular A (k_s = 0), a defective one and complex ring modes need no
    special case.  Each batch element is scaled and squared on its own.
    """
    A = np.asarray(A)
    h = np.asarray(h, dtype=float)
    n = 2 + n_inputs
    M = np.zeros(np.broadcast_shapes(A.shape[:-2], h.shape) + (n, n), dtype=np.result_type(A, h))
    M[..., :2, :2] = A * h[..., None, None]
    M[..., np.arange(1, n - 1), np.arange(2, n)] = h[..., None]
    norm = np.abs(M).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm / _TAYLOR_NORM, 1.0))).astype(int)
    M = M / (2.0 ** squarings)[..., None, None]
    eye = np.eye(n)
    E = eye + M / _TAYLOR_DEGREE
    for j in range(_TAYLOR_DEGREE - 1, 0, -1):
        E = eye + _matmul(M, E) / j
    for i in range(int(squarings.max(initial=0))):
        E = np.where((squarings > i)[..., None, None], _matmul(E, E), E)
    # column 2 + m of the exponential holds Psi_m / m!
    factorials = np.cumprod(np.r_[1.0, np.arange(1.0, n_inputs)])[:n_inputs]
    return E[..., :2, :2], np.swapaxes(E[..., :2, 2:], -1, -2) * factorials[:, None]


def _mul2(a, b) -> np.ndarray:
    """2x2 matrix a times a 2x2 matrix or a 2-vector b, elementwise over
    the axes their entries carry (a stack of modes, a block of steps)."""
    return np.array([a[0][0] * b[0] + a[0][1] * b[1], a[1][0] * b[0] + a[1][1] * b[1]])


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked matrix product in numpy's own loops: these matrices are tiny,
    and the first BLAS call would cost more memory than all of them."""
    return np.einsum("...ij,...jk->...ik", a, b)


def _follower_matrix(p: ControlParams) -> np.ndarray:
    """Engaged follower dynamics: x' = v, v' = -k_s x - (k_s tau + k_v) v + input."""
    return np.array([[0.0, 1.0], [-p.k_s, -(p.k_s * p.tau + p.k_v)]])


def _doubling_scan(Phi, x: np.ndarray, v: np.ndarray) -> None:
    """Solve z_k = Phi z_{k-1} + u_k for every k at once, in place.

    On entry (x, v)[0] is z_0 and (x, v)[k] is u_k; on exit (x, v)[k] is
    z_k = sum_{j <= k} Phi^(k-j) u_j.  Hillis-Steele doubling: pass d adds
    Phi^d times the entries d back, then squares Phi^d, so ceil(log2 n)
    passes cover n samples.
    """
    (p00, p01), (p10, p11) = Phi  # Python floats: far cheaper per pass than numpy scalars
    d = 1
    while d < len(x):
        dx = p00 * x[:-d] + p01 * v[:-d]
        dv = p10 * x[:-d] + p11 * v[:-d]
        x[d:] += dx
        v[d:] += dv
        p00, p01, p10, p11 = (p00 * p00 + p01 * p10, p00 * p01 + p01 * p11,
                              p10 * p00 + p11 * p10, p10 * p01 + p11 * p11)
        d *= 2


def _hermite(xl: np.ndarray, vl: np.ndarray, h: Union[float, np.ndarray]):
    """Cubic Hermite of the lead's (x, v) samples on each step.

    x_lead(t_k + s) = x_k + v_k s + c2_k s^2 + c3_k s^3 for s in [0, h];
    returns (x_k, v_k, c2_k, c3_k) for the len(xl) - 1 steps.  h is the
    step, or an array of each step's own length.
    """
    x0, v0, v1 = xl[:-1], vl[:-1], vl[1:]
    slope = (xl[1:] - x0) / h
    return x0, v0, (3.0 * slope - 2.0 * v0 - v1) / h, (v0 + v1 - 2.0 * slope) / (h * h)


def _input(herm, p: ControlParams):
    """Cubic coefficients of the engaged input k_s (x_lead - L) + k_v v_lead on each step."""
    x0, v0, c2, c3 = herm
    return (p.k_s * (x0 - p.L) + p.k_v * v0, p.k_s * v0 + 2.0 * p.k_v * c2,
            p.k_s * c2 + 3.0 * p.k_v * c3, p.k_s * c3)


def _first_root(q: Sequence[float], h: float) -> float:
    """First s in (0, h] where q0 + q1 s + q2 s^2 + q3 s^3 comes down to 0 (q0 > 0).

    The cubic's critical points split [0, h] into monotone pieces; the
    first piece ending at or below 0 holds the root, found by bisection.
    """
    def val(s):
        return q[0] + s * (q[1] + s * (q[2] + s * q[3]))

    # critical points: the roots r/a and c/r of a s^2 + b s + c, in the
    # form that keeps both accurate (and a linear or constant derivative)
    a, b, c = 3.0 * q[3], 2.0 * q[2], q[1]
    disc = b * b - 4.0 * a * c
    crit = []
    if disc >= 0.0:
        r = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        crit = [x / y for x, y in ((r, a), (c, r)) if y]
    lo = 0.0
    for hi in sorted(s for s in crit if 0.0 < s < h) + [h]:
        if val(hi) <= 0.0:
            break
        lo = hi
    else:  # round-off left the end sample's gap just above the root level
        return h
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if val(mid) > 0.0:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# Platoon propagation
# ---------------------------------------------------------------------------

def simulate_platoon(scenario: Scenario) -> PlatoonResult:
    """Propagate a platoon scenario exactly and return per-vehicle trajectories.

    Open road: vehicle 0 is the formula-driven leader; followers run
    the ACC law whenever their local state is congested (spacing at or
    below s_c, or speed off v_f) and cruise otherwise.  A scenario
    without a leader is a ring: every vehicle follows its predecessor
    with wrap-around gaps on a ring of length sum(tau*v_i(0) + L),
    sampled every dt and checked at least every `DT`; the ring must stay
    engaged (ValueError otherwise).  `Scenario` has already refused
    inputs the run cannot use (wrong lengths, cut-ins outside the window).

    Raises CollisionError if any spacing reaches zero.
    """
    sc = scenario
    p = sc.params
    n_steps = int(round(sc.duration / sc.dt))
    times = np.arange(n_steps + 1) * sc.dt
    if sc.leader is None:
        init_v = np.asarray(sc.initial_speeds, dtype=float)
        n = len(init_v)
        L_x, x0 = ring_setup(p, init_v)
        X, V, A = (np.empty((n, n_steps + 1)) for _ in range(3))
        X[:, 0], V[:, 0] = x0, init_v
        _propagate_ring(p, sc.dt, X, V, A, L_x)
        trajs = [Trajectory(vehicle_id=i, t=times, x=X[i], v=V[i], a=A[i], dt=sc.dt) for i in range(n)]
        return PlatoonResult(trajectories=trajs)

    lx, lv, la = _leader_arrays(sc.leader, times)
    n_f = sc.n_followers
    v0 = _leader_initial_speed(sc.leader) if sc.initial_speeds is None else sc.initial_speeds
    init_v = np.broadcast_to(np.asarray(v0, dtype=float), (n_f,))
    gaps = p.desired_spacing(init_v) if sc.initial_gaps is None else sc.initial_gaps
    init_gaps = np.broadcast_to(np.asarray(gaps, dtype=float), (n_f,))

    # Vehicle i < n_f is follower i; vehicle n_f + j is cut-in j in time
    # order.  Columns hold the leader, then every vehicle in its final
    # platoon order; a cut-in's column is NaN until it merges.
    cut_ins = sorted(sc.cut_ins, key=lambda c: c.time)
    cut_steps = [int(round(c.time / sc.dt)) for c in cut_ins]
    order = list(range(n_f))
    for j, c in enumerate(cut_ins):
        order.insert(c.ahead_of - 1, n_f + j)
    column = np.argsort(order) + 1
    born = [0] * n_f + cut_steps

    X, V, A = (np.empty((len(order) + 1, n_steps + 1)) for _ in range(3))
    X[0], V[0] = lx, lv
    for c, b in zip(column[n_f:], cut_steps):
        X[c, :b] = V[c, :b] = np.nan
    x = lx[0] - init_gaps[0]
    for i in range(n_f):
        if i:
            x = x - init_gaps[i]
        X[column[i], 0], V[column[i], 0] = x, init_v[i]
    merges = [(k, column[n_f + j], c.gap) for j, (c, k) in enumerate(zip(cut_ins, cut_steps))]
    _propagate_open(sc, times, X, V, A, merges)

    trajs = [Trajectory(vehicle_id=0, t=times, x=lx, v=lv, a=la, dt=sc.dt)]
    for vid in order:
        b, c = born[vid], column[vid]
        trajs.append(Trajectory(
            vehicle_id=vid + 1, t=times[b:], x=X[c, b:], v=V[c, b:], a=A[c, b:], dt=sc.dt,
        ))
    return PlatoonResult(trajectories=trajs)


def _propagate_open(
    sc: Scenario,
    times: np.ndarray,
    X: np.ndarray,
    V: np.ndarray,
    A: np.ndarray,
    merges: Sequence[Tuple[int, int, float]],
) -> None:
    """Fill the open road's (column, step) x, v and a histories from step 0.

    Column 0 holds the leader.  Between merge steps every merged column
    follows a fixed lead, the nearest merged column ahead of it, so the
    columns are propagated front to rear, each against its lead's
    finished samples, and then the segment's samples are recorded.
    `merges` lists (step, column, gap) in merge order: at its step the
    column is placed `gap` behind the column ahead, at the speed of the
    column behind, and joins the next segment.
    """
    n_steps = len(times) - 1
    law = _Law.of(sc.params, sc.dt)
    merged = np.ones(X.shape[0], dtype=bool)
    merged[[c for _, c, _ in merges]] = False
    pending = list(merges)
    k_a = 0
    while k_a < n_steps:
        while pending and pending[0][0] == k_a:
            _, c, gap = pending.pop(0)
            behind = c + 1 + int(np.argmax(merged[c + 1:]))
            X[c, k_a] = X[_lead_columns(merged)[c - 1], k_a] - gap
            V[c, k_a] = V[behind, k_a]
            merged[c] = True
        k_b = pending[0][0] if pending else n_steps
        lead = _lead_columns(merged)
        for c in np.flatnonzero(merged[1:]) + 1:
            _follow(X[c], V[c], X[lead[c - 1]], V[lead[c - 1]], k_a, k_b, law)
        _record_accelerations(sc.params, times, X, V, A, merged, lead, k_a, k_b if pending else n_steps + 1)
        k_a = k_b


class _Law(NamedTuple):
    """The follower law: parameters, step and exact step maps."""

    p: ControlParams
    h: float
    Phi: list
    Psi: list

    @classmethod
    def of(cls, p: ControlParams, h: float) -> "_Law":
        Phi, Psi = _step_maps(_follower_matrix(p), h)
        return cls(p, h, Phi.tolist(), Psi.tolist())


def _follow(x, v, xl, vl, k: int, k_end: int, law: _Law) -> None:
    """Propagate one follower from sample k to k_end behind the lead samples (xl, vl).

    Stretches alternate as `model.engaged` decides on the samples.  An
    engaged stretch takes the exact step map under the lead's cubic
    Hermite, a block of steps per doubling scan, and ends at the first
    sample that is no longer engaged: the follower cruises from there.
    A cruise keeps its speed; it ends at the first sample the rule
    engages, and the follower switches at the root of gap = s_c inside
    the step before it (`_enter`).
    """
    while k < k_end:
        if not engaged(xl[k] - x[k], v[k], law.p):
            k = _cruise(x, v, xl, vl, k, k_end, law)
            continue
        stop = min(k + _STEPS, k_end)
        f = _input(_hermite(xl[k:stop + 1], vl[k:stop + 1], law.h), law.p)
        x[k + 1:stop + 1] = sum(psi[0] * fm for psi, fm in zip(law.Psi, f))
        v[k + 1:stop + 1] = sum(psi[1] * fm for psi, fm in zip(law.Psi, f))
        _doubling_scan(law.Phi, x[k:stop + 1], v[k:stop + 1])
        off = np.flatnonzero(~engaged(xl[k + 1:stop] - x[k + 1:stop], v[k + 1:stop], law.p))
        k = k + 1 + int(off[0]) if off.size else stop


def _cruise(x, v, xl, vl, k: int, k_end: int, law: _Law) -> int:
    """Cruise from sample k: x = x_k + v_k (t - t_k), a = 0.

    Stops at the first sample the rule engages, entering the engaged
    regime inside the step before it; returns that sample (k_end if the
    follower cruises to the end).
    """
    x0, v0 = float(x[k]), float(v[k])
    for j in range(k + 1, k_end + 1, _STEPS):
        stop = min(j + _STEPS, k_end + 1)
        xs = x0 + v0 * (np.arange(j - k, stop - k) * law.h)
        on = np.flatnonzero(engaged(xl[j:stop] - xs, v0, law.p))
        m = j + int(on[0]) if on.size else stop
        x[j:m], v[j:m] = xs[:m - j], v0
        if on.size:
            _enter(x, v, xl, vl, m, law.h, law.p)
            return m
    return k_end


def _enter(x, v, xl, vl, m: int, h: float, p: ControlParams) -> None:
    """Switch from cruise to engaged inside step m-1 -> m and set sample m.

    The switch is the first root s* of gap = s_c, with the lead's cubic
    Hermite against the follower's linear cruise; from there the exact
    partial step map over h - s* takes the follower to sample m.
    """
    x0, v0 = float(x[m - 1]), float(v[m - 1])
    herm = [float(c[0]) for c in _hermite(xl[m - 1:m + 1], vl[m - 1:m + 1], h)]
    s = _first_root((herm[0] - x0 - p.s_c, herm[1] - v0, herm[2], herm[3]), h)
    f0, f1, f2, f3 = _input(herm, p)
    # the input cubic re-expanded about s*
    shifted = (f0 + s * (f1 + s * (f2 + s * f3)), f1 + s * (2.0 * f2 + 3.0 * f3 * s), f2 + 3.0 * f3 * s, f3)
    Phi, Psi = _step_maps(_follower_matrix(p), h - s)
    x[m], v[m] = Phi[:, 0] * (x0 + v0 * s) + Phi[:, 1] * v0 + sum(c * psi for c, psi in zip(shifted, Psi))


def _propagate_ring(p: ControlParams, dt: float, X: np.ndarray, V: np.ndarray, A: np.ndarray,
                    L_x: float) -> None:
    """Fill a ring's histories, one sample every dt, from its sample 0, with no loop over steps.

    About the uniform equilibrium (spacing L_x/n, speed (L_x/n - L)/tau)
    the engaged ring is linear and circulant, so a DFT over vehicles
    splits it into independent complex 2x2 modes z_m' = M_m z_m.  Their
    maps over the step h = dt/m, m = ceil(dt/DT), are raised to every
    power in a block by doubling, and each time block is transformed
    back.  Every step, from t = 0 on, is checked: a spacing <= 0 raises
    CollisionError, and a vehicle outside the engaged set ValueError, as
    the modes hold only while the ring is engaged.  Every m-th step is
    kept as the next sample, with its ACC command; vehicle 0's lead is the
    last vehicle one ring length ahead.
    """
    n, m = X.shape[0], math.ceil(dt / DT)
    h, k_end = dt / m, (X.shape[1] - 1) * m
    s_bar = L_x / n
    v_bar = p.equilibrium_speed(s_bar)
    x_ref = -s_bar * np.arange(n)
    z = np.fft.rfft([X[:, 0] - x_ref, V[:, 0] - v_bar])  # (x, v) of modes 0..n/2
    shift = np.exp(-2j * np.pi * np.arange(z.shape[1]) / n) - 1.0  # the vehicle ahead, per mode
    M = np.zeros((z.shape[1], 2, 2), dtype=complex)
    M[:, 0, 1] = 1.0
    M[:, 1, 0] = p.k_s * shift
    M[:, 1, 1] = p.k_v * shift - p.k_s * p.tau
    powers = np.empty((2, 2, z.shape[1], _BLOCK), dtype=complex)  # [..., j] = Phi^(j+1)
    powers[..., 0] = np.moveaxis(_step_maps(M, h, 0)[0], 0, -1)
    d = 1
    while d < _BLOCK:
        e = min(2 * d, _BLOCK)
        powers[..., d:e] = _mul2(powers[..., d - 1:d], powers[..., :e - d])
        d *= 2
    ks, x, v = np.zeros(1, dtype=int), X[:, :1], V[:, :1]  # step 0
    while True:
        gaps = np.concatenate((x[-1:] + L_x, x[:-1])) - x
        bad = (gaps <= 0) | ~engaged(gaps, v, p)
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            j = int(np.argmax(bad[:, k]))
            if gaps[j, k] > 0:
                raise ValueError(
                    f"ring vehicle {j} leaves the engaged set at t={ks[k] * h:.3f} s; "
                    "the exact ring propagator needs every vehicle engaged")
            raise CollisionError(ks[k] * h, j)
        kept = ks % m == 0
        x_k, v_k, cols = x[:, kept], v[:, kept], ks[kept] // m
        X[:, cols], V[:, cols] = x_k, v_k
        A[:, cols] = acc_acceleration(gaps[:, kept], v_k, np.concatenate((v_k[-1:], v_k[:-1])), p)
        if ks[-1] == k_end:
            break
        ks = np.arange(ks[-1] + 1, min(ks[-1] + 1 + _BLOCK, k_end + 1))
        zb = _mul2(powers[..., :len(ks)], z[:, :, None])
        x = np.fft.irfft(zb[0], n, axis=0) + x_ref[:, None] + v_bar * (ks * h)
        v = np.fft.irfft(zb[1], n, axis=0) + v_bar
        z = zb[..., -1]


def _record_accelerations(p: ControlParams, times: np.ndarray, X: np.ndarray, V: np.ndarray,
                          A: np.ndarray, merged: np.ndarray, lead: np.ndarray, k_a: int, k_e: int) -> None:
    """Fill A at one open-road segment's samples k_a..k_e-1 with the ACC
    command on the sampled states, block by block in time.

    Column c follows column lead[c - 1]; an unmerged column is NaN.
    Raises CollisionError at the first sample with a spacing <= 0, naming
    its first follower in platoon order.
    """
    block = max(1, _CELLS // X.shape[0])
    for k0 in range(k_a, k_e, block):
        k1 = min(k0 + block, k_e)
        x, v = X[:, k0:k1], V[:, k0:k1]
        gaps = x[lead] - x[1:]
        bad = gaps <= 0
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            j = int(np.argmax(bad[:, k]))
            raise CollisionError(times[k0 + k], int(np.count_nonzero(merged[1:j + 1])))
        A[1:, k0:k1] = acc_acceleration(gaps, v[1:], v[lead], p)


def _lead_columns(merged: np.ndarray) -> np.ndarray:
    """Column ahead of each driven column: the nearest merged one."""
    return np.maximum.accumulate(np.where(merged, np.arange(merged.size), 0))[:-1]


def ring_setup(
    params: ControlParams,
    initial_speeds: Sequence[float],
) -> Tuple[float, np.ndarray]:
    """Ring length and initial positions of one vehicle per initial speed.

    Each vehicle's initial gap to its predecessor is tau*v_i(0) + L; the
    ring length is the sum of all gaps.  Vehicle 0 sits at x = 0 and the
    rest stack behind it; vehicle 0 wraps around to follow the last one.
    Each speed must be a finite number above -L/tau, so that its gap is
    positive; a negative speed is taken.
    """
    _require(initial_speeds, "initial_speeds")
    v = np.asarray(initial_speeds, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"ring initial_speeds must be a 1-D array of two or more, one per vehicle, "
                         f"got shape {v.shape}")
    gaps = params.desired_spacing(v)
    _require(gaps, "each initial gap tau*v + L of initial_speeds", positive=True)
    return float(np.sum(gaps)), np.concatenate(([0.0], -np.cumsum(gaps[1:])))


# ---------------------------------------------------------------------------
# Pair windows and engagement detection
# ---------------------------------------------------------------------------

def _pair_knots(lead: Trajectory, fol: Trajectory):
    """(t_lo, first, t, x_fol, v_fol): the pair read on the knots t, the
    follower's samples in its common window [t_lo, t_end) from sample
    `first` on, then t_end, with the follower's state there: views of its
    arrays when t_end is one of its samples, else copies with t_end appended."""
    t_lo, t_end = max(lead.t0, fol.t0), min(lead.t_end, fol.t_end)
    first = int(np.searchsorted(fol.t, t_lo))
    stop = int(np.searchsorted(fol.t, t_end))
    if first <= stop < len(fol.t) and fol.t.item(stop) == t_end:
        return t_lo, first, fol.t[first:stop + 1], fol.x[first:stop + 1], fol.v[first:stop + 1]
    return (t_lo, first, np.append(fol.t[first:stop], t_end),
            np.append(fol.x[first:stop], fol.position_at(t_end)),
            np.append(fol.v[first:stop], fol.speed_at(t_end)))


def gap_reach(lead: Trajectory, fol: Trajectory, level: float) -> Optional[float]:
    """First time the gap of the pair (lead, fol) comes down to `level`.

    The gap is read on the pair's knots (`_pair_knots`), with the window
    start t_lo in front when the follower's first sample in the window
    comes after it.  At or below `level` on the first knot, the time is
    t_lo; else it is the first root of gap = level of the gap's cubic
    Hermite (slopes v_lead - v_fol) on the first step whose end knot is at
    or below `level`, found as `_enter` finds the simulator's switch.  None
    when the gap never comes down to `level` or the pair has no common window.
    """
    _require(level, "level")
    t_lo, _, t, x_fol, v_fol = _pair_knots(lead, fol)
    if t.item(0) > t_lo:
        t = np.insert(t, 0, t_lo)
        x_fol, v_fol = fol.position_at(t), fol.speed_at(t)
    gap = lead.position_at(t) - x_fol
    k = int(np.argmax(gap <= level))
    if gap.item(k) > level or t_lo > t.item(-1):
        return None
    if k == 0:
        return t_lo
    ends = t[k - 1:k + 1]
    h = float(ends[1] - ends[0])
    g0, g1, c2, c3 = (float(c[0]) for c in _hermite(
        gap[k - 1:k + 1], lead.speed_at(ends) - v_fol[k - 1:k + 1], h))
    return float(ends[0]) + _first_root((g0 - level, g1, c2, c3), h)


def detect_engagement(
    trajectories: Sequence[Trajectory],
    params: ControlParams,
) -> List[EngagementEvent]:
    """First time each follower's gap reaches s_c (`gap_reach`), kept when
    it falls after the start of the pair's common window: a pair that
    never gets there, or starts at or below it, gives no event."""
    events: List[EngagementEvent] = []
    for lead, fol in zip(trajectories, trajectories[1:]):
        t_star = gap_reach(lead, fol, params.s_c)
        if t_star is not None and t_star > max(lead.t0, fol.t0):
            events.append(EngagementEvent(fol.vehicle_id, t_star, float(fol.position_at(t_star))))
    return events
