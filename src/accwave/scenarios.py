"""Prebuilt experiments: the four platoon cases, ring validation runs,
and the calibrated-parameter empirical sweep.

Case 1  steady single-mode oscillation of the leader;
Case 2  same oscillation plus a cut-in 10 m ahead of the second
        follower at t = 10 s;
Case 3  compound (two-mode) oscillation;
Case 4  free-flow approach with leader deceleration into a congested
        oscillation (engagement front + shock + characteristics).

Each run traces the proposed wave paths and a constant-speed baseline from
the same origins (`trace_methods`) and reduces both to deviation statistics
(`Comparison`), as `metrics` does on recorded trajectories.  Ring runs solve
the finite-volume balance law from the ring's initial state (`solve_ring`)
and compare it with the simulated ring (`run_ring_validation`, RMSEs).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import DeviationStats, deviation_set, field_rmse, summary_stats
from .microsim import (
    ConstAccel,
    Cruise,
    CutIn,
    DT,
    LeaderProfile,
    Oscillate,
    OscillationSpec,
    Scenario,
    Trajectory,
    _whole_steps,
    ring_setup,
    simulate_platoon,
)
from .model import ControlParams, _require
from .pde import Grid, EulerianField, micro_to_eulerian, ring_cells, solve
from .tracker import (
    ORIGIN_SPACING,
    PhaseTransition,
    Platoon,
    WavePath,
    constant_speed_path,
    lwr_baseline_speed,
    trace_characteristic_path,
    trace_phase_transition,
)

__all__ = [
    "SINGLE_MODES",
    "COMPOUND_MODES",
    "TABLE_PARAMS",
    "CASE4_PARAMS",
    "CASE4_V_E",
    "Comparison",
    "CaseRun",
    "RingValidation",
    "EmpiricalRun",
    "case_scenario",
    "origin_grid",
    "trace_methods",
    "run_case",
    "ring_initial_speeds",
    "ring_scenario",
    "solve_ring",
    "run_ring_validation",
    "run_empirical",
]

# Default experiment table: 4 followers, v_e = 10 m/s, tau = 1.2 s,
# L = 5 m, k_s = 0.8 s^-2, k_v = 1.4 s^-1, each run 60 s long.
TABLE_PARAMS = ControlParams()
N_FOLLOWERS = 4
V_E = 10.0
DURATION = 60.0

SINGLE_MODES = ((20.0, 0.16 * math.pi, 0.0),)
COMPOUND_MODES = ((20.0, 0.16 * math.pi, 0.0), (10.0, 0.32 * math.pi, 0.5 * math.pi))

# Case 4 free-flow approach: slower free-flow speed so the engagement
# spacing (s_c = 19.4 m) sits between the initial gaps and the final
# equilibrium spacing (17 m at v_e = 10).
CASE4_PARAMS = ControlParams(v_f=12.0)
CASE4_V_E = 10.0
CASE4_GAPS = (22.0, 23.0, 21.5, 22.5)
_CASE4_CRUISE = 5.0
_CASE4_BRAKE = 4.0          # 12 -> 10 m/s at -0.5 m/s^2
_CASE4_MODES = ((3.0, 0.16 * math.pi, 0.5 * math.pi),)

_PERIOD = 2.0 / 0.16                         # slowest mode, 2*pi/(0.16*pi): exactly 12.5 s
_WARMUP = 3.0 * _PERIOD                      # transient decay horizon
_CUT_IN_TIME = 10.0
_CUT_IN_SETTLE = 2.0


def oscillation_scenario(params: ControlParams = TABLE_PARAMS, n_followers: int = N_FOLLOWERS,
                         v_e: float = V_E, modes: Tuple[Tuple[float, float, float], ...] = (),
                         duration: float = DURATION, dt: float = DT,
                         cut_ins: Tuple[CutIn, ...] = ()) -> Scenario:
    """Platoon of `n_followers` behind a leader oscillating about `v_e` in `modes`:
    cases 1-3, and the scenario `simulate` and `wave` build from a config."""
    return Scenario(params=params, n_followers=n_followers, duration=duration, dt=dt,
                    leader=OscillationSpec(v_e=v_e, modes=modes), cut_ins=cut_ins)


def case_scenario(case: int, dt: float = DT, duration: float = DURATION) -> Scenario:
    """Scenario object for one of the four studied cases."""
    if case in (1, 2, 3):
        return oscillation_scenario(
            modes=COMPOUND_MODES if case == 3 else SINGLE_MODES, duration=duration, dt=dt,
            cut_ins=(CutIn(time=_CUT_IN_TIME, gap=10.0, ahead_of=2),) if case == 2 else ())
    if case == 4:
        profile = LeaderProfile(
            v0=CASE4_PARAMS.v_f,
            phases=(
                Cruise(_CASE4_CRUISE),
                ConstAccel(_CASE4_BRAKE, -0.5),
                Oscillate(None, _CASE4_MODES),
            ),
        )
        return Scenario(
            params=CASE4_PARAMS, n_followers=N_FOLLOWERS, duration=duration, dt=dt,
            leader=profile, initial_speeds=CASE4_PARAMS.v_f, initial_gaps=CASE4_GAPS,
        )
    raise ValueError(f"unknown case {case}")


# Warmup and end margin of the origin grid of cases 1-3: cases 1/3 wait out
# the transient (three periods), case 2 the cut-in; the margins leave room
# for a path to cross the whole platoon before the window ends.
_ORIGIN_WINDOW = {1: (_WARMUP, 5.0), 2: (_CUT_IN_TIME + _CUT_IN_SETTLE, 6.0), 3: (_WARMUP, 5.0)}

def origin_grid(lead: Trajectory, warmup: float, end_margin: float,
                spacing: float = ORIGIN_SPACING) -> np.ndarray:
    """Path origin times on the lead trajectory: every `spacing` seconds from
    `warmup` after its start up to `end_margin` before its end."""
    _require(spacing, "origin spacing", positive=True)
    # an infinite margin leaves no window, which the window check says
    _require(warmup, "warmup", nonnegative=True, finite=False)
    _require(end_margin, "end margin", nonnegative=True, finite=False)
    t0, t1 = lead.t0 + warmup, lead.t_end - end_margin
    if t1 <= t0:
        raise ValueError("empty origin window; lower the warmup or the end margin")
    return np.arange(t0, t1 + 1e-9, spacing)


def _baseline_paths(origins, trajectories, params: ControlParams):
    """Constant-speed paths from `origins` at the congested kinematic-wave
    slope -L/tau of `params`."""
    platoon = Platoon.of(trajectories)
    w = lwr_baseline_speed(params)
    return [constant_speed_path(float(t), platoon, w) for t in origins]


def trace_methods(origins, trajectories: Sequence[Trajectory],
                  params: ControlParams) -> Tuple[List[WavePath], List[WavePath]]:
    """Characteristic (proposed) and constant-speed (baseline) paths from the
    same origins on the lead trajectory, over one `Platoon`: each pair's
    table is built once per method and serves every origin.  The baseline
    moves at the congested kinematic-wave slope -L/tau of `params`."""
    platoon = Platoon.of(trajectories)
    proposed = [trace_characteristic_path(float(t), platoon, params) for t in origins]
    return proposed, _baseline_paths(origins, platoon, params)


@dataclass(frozen=True)
class Comparison:
    """Proposed and baseline path sets, the deviations each pools and their
    statistics."""

    proposed: List[WavePath]
    baseline: List[WavePath]
    proposed_devs: np.ndarray
    baseline_devs: np.ndarray
    proposed_stats: DeviationStats
    baseline_stats: DeviationStats

    @classmethod
    def pool(cls, proposed: List[WavePath], baseline: List[WavePath], **fields):
        """Pool each path set's deviations once; `fields` fill a subclass's own."""
        prop, base = deviation_set(proposed), deviation_set(baseline)
        return cls(proposed, baseline, prop, base, summary_stats(prop), summary_stats(base),
                   **fields)


@dataclass(frozen=True)
class CaseRun(Comparison):
    """One case's comparison, its trajectories and (case 4) its phase transition."""

    trajectories: List[Trajectory]
    transition: Optional[PhaseTransition] = None


def run_case(case: int, dt: float = DT, duration: float = DURATION,
             origin_spacing: float = ORIGIN_SPACING) -> CaseRun:
    """Simulate one case and trace proposed + constant-speed path sets.

    The baseline moves at the congested kinematic-wave slope -L/tau of the
    case's parameter set.  Case 4 proposes its phase
    transition composite, with the baseline from its characteristics' origins.
    """
    sc = case_scenario(case, dt=dt, duration=duration)
    trajs = simulate_platoon(sc).trajectories
    p = sc.params
    transition: Optional[PhaseTransition] = None
    if case == 4:
        transition = trace_phase_transition(trajs, p, CASE4_V_E, origin_spacing=origin_spacing)
        origins = [path.origin_t for path in transition.characteristics]
        proposed = transition.paths()
        baseline = _baseline_paths(origins, trajs, p)
    else:
        origins = origin_grid(trajs[0], *_ORIGIN_WINDOW[case], origin_spacing)
        proposed, baseline = trace_methods(origins, trajs, p)
    return CaseRun.pool(proposed, baseline, trajectories=trajs, transition=transition)


# ---------------------------------------------------------------------------
# Ring validation (micro vs PDE)
# ---------------------------------------------------------------------------

RING_N = 40
RING_CELLS = 200
RING_SAMPLE_EVERY = 0.5   # field recording interval [s]
_RING_DV = 3.0   # speed amplitude of the ring profiles [m/s]


def ring_initial_speeds(case: int, n_vehicles: int = RING_N) -> np.ndarray:
    """Initial ring speed profiles mirroring the case structure.

    Case 1: one sinusoidal wave around the loop; Case 2: a localized
    slowdown (the cut-in analogue); Case 3: two superposed harmonics.
    """
    _require(n_vehicles, "n_vehicles", integer=True)
    n = n_vehicles
    i = np.arange(n)
    dv = _RING_DV
    if case == 1:
        return V_E + dv * np.sin(2.0 * np.pi * i / n)
    if case == 2:
        return V_E - dv * np.exp(-((i - n / 2.0) / 3.0) ** 2)
    if case == 3:
        return (
            V_E
            + dv * np.sin(2.0 * np.pi * i / n)
            + 0.5 * dv * np.sin(4.0 * np.pi * i / n + 0.5 * math.pi)
        )
    raise ValueError(f"no ring profile for case {case}")


def ring_scenario(case: int, n_vehicles: int = RING_N, duration: float = DURATION,
                  dt: float = DT) -> Scenario:
    """Ring platoon for one validation case, started from its speed profile."""
    return Scenario(params=TABLE_PARAMS, n_followers=n_vehicles, leader=None, duration=duration,
                    dt=dt, initial_speeds=ring_initial_speeds(case, n_vehicles))


@dataclass(frozen=True)
class RingValidation:
    rmse_v: float
    rmse_rho: float
    micro: EulerianField
    pde: EulerianField


def solve_ring(case: int, n_vehicles: int = RING_N, duration: float = DURATION,
               sample_every: float = RING_SAMPLE_EVERY, dx: Optional[float] = None) -> EulerianField:
    """PDE field of one ring case over `duration`, recorded every
    `sample_every` seconds and at `duration`, and solved, without
    simulating, from the case's speed profile on the ring that the
    time-headway manifold sizes (`ring_setup`).  `dx` is the one grid
    setting: the ring has `RING_CELLS` (200) cells, or cells of about `dx`
    metres (at least 4 of them) when `dx` is given.  The CFL number is the
    solver's constant `pde.CFL`."""
    _require(duration, "duration", positive=True)
    _require(sample_every, "sample_every", positive=True)
    if dx is not None:
        _require(dx, "cell size dx", positive=True)
    speeds = ring_initial_speeds(case, n_vehicles)
    ring_length, positions = ring_setup(TABLE_PARAMS, speeds)
    n_cells = RING_CELLS if dx is None else max(4, int(round(ring_length / dx)))
    grid = Grid(ring_length, n_cells)
    (rho0,), (v0,) = ring_cells(positions[None], speeds[None], grid)
    wanted = np.arange(0.0, duration + 1e-9, sample_every)
    if duration - wanted[-1] > 1e-9:  # the end state, unless the last sample is it
        wanted = np.append(wanted, duration)
    return solve(rho0, v0, grid, TABLE_PARAMS, duration, output_times=wanted)


def run_ring_validation(case: int, n_vehicles: int = RING_N, duration: float = DURATION,
                        sample_every: float = RING_SAMPLE_EVERY) -> RingValidation:
    """Micro-vs-PDE comparison for one ring case: the PDE field of
    `solve_ring` on its default grid of `RING_CELLS` (200) cells, at the
    constant CFL number `pde.CFL`, and the ring simulated over the whole
    `duration` with its sample step as dt (`sample_every` when `duration`
    is a whole number of samples, `DT` otherwise), checked at least every
    `DT`; a duration that is a whole number of neither is refused first.

    The micro field is mapped onto the PDE's grid (`ring_setup` sizes both
    rings) at its output times before computing space-time RMSEs.  When
    `duration` is a whole number of samples, or `sample_every` a multiple
    of `DT`, each of those times is a sample of the ring, where the
    simulation is exact, so the micro field does not depend on the step;
    otherwise the times between the ring's samples are interpolated
    linearly (2.4e-6 m/s off in v for case 1 at duration 30.25 s and
    sample_every 0.333 s).
    """
    _require(duration, "duration", positive=True)
    _require(sample_every, "sample_every", positive=True)
    dt = sample_every if _whole_steps(duration, sample_every) else DT
    if not _whole_steps(duration, dt):
        raise ValueError(f"duration {duration} is a whole number of neither sample_every "
                         f"{sample_every} nor the {DT} s step")
    ring = ring_scenario(case, n_vehicles, duration, dt)   # built, so checked, before the solve
    pde_field = solve_ring(case, n_vehicles, duration, sample_every)
    grid = pde_field.grid
    rho_m, v_m = micro_to_eulerian(simulate_platoon(ring).trajectories, grid, pde_field.times)
    micro_field = EulerianField(grid=grid, times=pde_field.times.copy(), rho=rho_m, v=v_m)
    return RingValidation(*field_rmse(micro_field, pde_field), micro=micro_field, pde=pde_field)


# ---------------------------------------------------------------------------
# Empirical sweep over calibrated parameter draws
# ---------------------------------------------------------------------------

# Warmup and end margin of the empirical origin grid on the recorded leader [s].
_EMPIRICAL_WINDOW = (20.0, 10.0)


@dataclass(frozen=True)
class EmpiricalRun:
    proposed_stats: DeviationStats
    baseline_stats: DeviationStats
    n_draws: int
    n_deviations: int


def run_empirical(leader: Trajectory, draws: Sequence, n_followers: int = N_FOLLOWERS,
                  dt: float = 0.05, origin_spacing: float = 2.0) -> EmpiricalRun:
    """Pool deviation statistics over calibrated parameter draws.

    Each draw (tau, L, k_s, k_v) simulates a fresh platoon behind the
    recorded leader and traces characteristic and constant-speed paths from
    the same origins.  The free-flow speed is pushed above the recorded
    profile so the platoon stays congested, matching the
    characteristic-only treatment.  Each draw's deviations are pooled as
    soon as it is traced, and only they are kept: its platoon and paths are
    released before the next draw is simulated, so memory stays flat in the
    number of draws.  A draw equal to an earlier one (draws are resampled
    with replacement) is simulated and traced once, and its deviations are
    still pooled once per time it was drawn.  The statistics are taken once
    over the deviations of all draws, in draw order.
    """
    if leader.t0 != 0.0:
        raise ValueError("recorded leader must start at t = 0")
    v_free = float(np.max(leader.v)) + 5.0
    params = [ControlParams(tau=d.tau, L=d.L, k_s=d.k_s, k_v=d.k_v, v_f=v_free) for d in draws]
    if not params:
        raise ValueError("no parameter draws to simulate")
    origins = origin_grid(leader, *_EMPIRICAL_WINDOW, origin_spacing)
    # a draw's deviations are a pure function of its parameters, keyed here
    # on their exact bits (so 0.0 and -0.0 are different draws); the stored
    # arrays are the ones already pooled, so reuse adds no memory
    devs_of: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}
    pooled: List[Tuple[np.ndarray, np.ndarray]] = []
    for p in params:
        key = np.array(dataclasses.astuple(p)).tobytes()
        if key not in devs_of:
            sc = Scenario(params=p, n_followers=n_followers, leader=leader, duration=leader.t_end, dt=dt)
            prop, base = trace_methods(origins, simulate_platoon(sc).trajectories, p)
            devs_of[key] = deviation_set(prop), deviation_set(base)
            del prop, base  # release this draw's paths before the next draw is simulated
        pooled.append(devs_of[key])
    proposed, baseline = zip(*pooled)
    prop_devs, base_devs = np.concatenate(proposed), np.concatenate(baseline)
    return EmpiricalRun(
        proposed_stats=summary_stats(prop_devs),
        baseline_stats=summary_stats(base_devs),
        n_draws=len(params),
        n_deviations=len(prop_devs),
    )
