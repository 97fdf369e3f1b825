"""Prebuilt experiments: the four platoon cases, ring validation runs,
and the calibrated-parameter empirical sweep.

Case 1  steady single-mode oscillation of the leader;
Case 2  same oscillation plus a cut-in 10 m ahead of the second
        follower at t = 10 s;
Case 3  compound (two-mode) oscillation;
Case 4  free-flow approach with leader deceleration into a congested
        oscillation (engagement front + shock + characteristics).

Each run traces the proposed wave paths and a constant-speed baseline
over the same trajectories and reduces both to deviation statistics.
Ring runs feed the same platoon dynamics into the finite-volume solver
and report micro-vs-PDE RMSEs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .metrics import DeviationStats, deviation_set, summary_stats
from .microsim import (
    ConstAccel,
    Cruise,
    CutIn,
    LeaderProfile,
    Oscillate,
    OscillationSpec,
    Scenario,
    Trajectory,
    simulate_platoon,
)
from .model import ControlParams
from .pde import Grid, EulerianField, micro_to_eulerian, pde_initial_from_micro, solve
from .metrics import field_rmse
from .tracker import (
    PhaseTransition,
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
    "CaseRun",
    "RingValidation",
    "EmpiricalRun",
    "case_scenario",
    "run_case",
    "ring_initial_speeds",
    "ring_scenario",
    "run_ring_validation",
    "run_empirical",
]

# Default experiment table: 4 followers, v_e = 10 m/s, tau = 1.2 s,
# L = 5 m, k_s = 0.8 s^-2, k_v = 1.4 s^-1.
TABLE_PARAMS = ControlParams()
N_FOLLOWERS = 4
V_E = 10.0

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

_PERIOD = 2.0 * math.pi / (0.16 * math.pi)   # slowest mode: 12.5 s
_WARMUP = 3.0 * _PERIOD                      # transient decay horizon
_CUT_IN_TIME = 10.0
_CUT_IN_SETTLE = 2.0


def case_scenario(case: int, dt: float = 0.01, duration: float = 60.0) -> Scenario:
    """Scenario object for one of the four studied cases."""
    if case == 1:
        return Scenario(
            params=TABLE_PARAMS, n_followers=N_FOLLOWERS, duration=duration, dt=dt,
            leader=OscillationSpec(v_e=V_E, modes=SINGLE_MODES),
        )
    if case == 2:
        return Scenario(
            params=TABLE_PARAMS, n_followers=N_FOLLOWERS, duration=duration, dt=dt,
            leader=OscillationSpec(v_e=V_E, modes=SINGLE_MODES),
            cut_ins=(CutIn(time=_CUT_IN_TIME, gap=10.0, ahead_of=2),),
        )
    if case == 3:
        return Scenario(
            params=TABLE_PARAMS, n_followers=N_FOLLOWERS, duration=duration, dt=dt,
            leader=OscillationSpec(v_e=V_E, modes=COMPOUND_MODES),
        )
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


def _origin_window(case: int, duration: float) -> Tuple[float, float]:
    """Window of leader-trajectory times for launching paths.

    Cases 1/3 wait out the transient (three periods); Case 2 starts once
    the cut-in is complete; margins leave room for a path to cross the
    whole platoon before the window ends.
    """
    if case in (1, 3):
        return _WARMUP, duration - 5.0
    if case == 2:
        return _CUT_IN_TIME + _CUT_IN_SETTLE, duration - 6.0
    raise ValueError(f"no origin window for case {case}")


@dataclass(frozen=True)
class CaseRun:
    case: int
    trajectories: List[Trajectory]
    proposed: List[WavePath]
    baseline: List[WavePath]
    proposed_stats: DeviationStats
    baseline_stats: DeviationStats
    transition: Optional[PhaseTransition] = None


def run_case(
    case: int,
    dt: float = 0.01,
    duration: float = 60.0,
    origin_spacing: float = 1.0,
    baseline_speed: Optional[float] = None,
) -> CaseRun:
    """Simulate one case and trace proposed + constant-speed path sets.

    The baseline speed defaults to the congested kinematic-wave slope
    -L/tau of the active parameter set.
    """
    sc = case_scenario(case, dt=dt, duration=duration)
    res = simulate_platoon(sc)
    trajs = res.trajectories
    p = sc.params
    w_base = lwr_baseline_speed(p) if baseline_speed is None else baseline_speed

    transition: Optional[PhaseTransition] = None
    if case == 4:
        transition = trace_phase_transition(
            trajs, p, CASE4_V_E, origin_spacing=origin_spacing
        )
        proposed = transition.paths()
        base_origins = [path.origin_t for path in transition.characteristics]
    else:
        t0, t1 = _origin_window(case, duration)
        base_origins = list(np.arange(t0, t1 + 1e-9, origin_spacing))
        proposed = [trace_characteristic_path(t_o, trajs, p) for t_o in base_origins]

    baseline = [constant_speed_path(t_o, trajs, w_base) for t_o in base_origins]
    return CaseRun(
        case=case,
        trajectories=trajs,
        proposed=proposed,
        baseline=baseline,
        proposed_stats=summary_stats(deviation_set(proposed)),
        baseline_stats=summary_stats(deviation_set(baseline)),
        transition=transition,
    )


# ---------------------------------------------------------------------------
# Ring validation (micro vs PDE)
# ---------------------------------------------------------------------------

RING_N = 40
_RING_DV = {1: 3.0, 2: 3.0, 3: 3.0}


def ring_initial_speeds(case: int, n: int = RING_N) -> np.ndarray:
    """Initial ring speed profiles mirroring the case structure.

    Case 1: one sinusoidal wave around the loop; Case 2: a localized
    slowdown (the cut-in analogue); Case 3: two superposed harmonics.
    """
    i = np.arange(n)
    dv = _RING_DV[case]
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


def ring_scenario(
    case: int, n_vehicles: int = RING_N, duration: float = 60.0, dt: float = 0.01
) -> Scenario:
    """Ring platoon for one validation case, started from its speed profile."""
    return Scenario(
        params=TABLE_PARAMS, n_followers=n_vehicles, leader=None, duration=duration, dt=dt,
        topology="ring", initial_speeds=ring_initial_speeds(case, n_vehicles),
    )


@dataclass(frozen=True)
class RingValidation:
    case: int
    rmse_v: float
    rmse_rho: float
    micro: EulerianField
    pde: EulerianField
    ring_length: float


def run_ring_validation(
    case: int,
    n_vehicles: int = RING_N,
    duration: float = 60.0,
    dt: float = 0.01,
    n_cells: int = 200,
    cfl: float = 0.5,
    sample_every: float = 0.5,
) -> RingValidation:
    """Micro-vs-PDE comparison for one ring case.

    The platoon runs on a ring sized by the time-headway manifold; the
    solver starts from the micro-derived field at t = 0 and both are
    sampled on the same output times (the solver's nearest completed
    steps) before computing space-time RMSEs.
    """
    res = simulate_platoon(ring_scenario(case, n_vehicles, duration, dt))
    trajs = res.trajectories
    L_x = res.ring_length
    grid = Grid(L_x, n_cells)
    rho0, v0 = pde_initial_from_micro(trajs, L_x, grid)
    wanted = np.arange(0.0, duration + 1e-9, sample_every)
    pde_field = solve(rho0, v0, grid, TABLE_PARAMS, duration, cfl=cfl, output_times=wanted)

    rho_m, v_m = micro_to_eulerian(trajs, L_x, grid, pde_field.times)
    micro_field = EulerianField(grid=grid, times=pde_field.times.copy(), rho=rho_m, v=v_m)
    return RingValidation(
        case=case,
        rmse_v=field_rmse(micro_field, pde_field, "v"),
        rmse_rho=field_rmse(micro_field, pde_field, "rho"),
        micro=micro_field,
        pde=pde_field,
        ring_length=L_x,
    )


# ---------------------------------------------------------------------------
# Empirical sweep over calibrated parameter draws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalRun:
    proposed_stats: DeviationStats
    baseline_stats: DeviationStats
    n_draws: int
    n_deviations: int


# Histories (x, v, a of every vehicle at every step) of the draws simulated
# in one batch stay under this many bytes, so a sweep of any size holds one
# small batch at a time.
_BATCH_BYTES = 2 * 1024 * 1024


def run_empirical(
    leader: Trajectory,
    draws: Sequence,
    n_followers: int = 4,
    dt: float = 0.05,
    warmup: float = 20.0,
    origin_spacing: float = 2.0,
    end_margin: float = 10.0,
    baseline_speed: Optional[float] = None,
) -> EmpiricalRun:
    """Pool deviation statistics over calibrated parameter draws.

    Each draw (tau, L, k_s, k_v) simulates a fresh platoon behind the
    recorded leader, traces characteristic and constant-speed paths from
    the same origins, and pools the deviations across draws.  The
    free-flow speed is pushed above the recorded profile so the platoon
    stays congested, matching the characteristic-only treatment.  Draws
    are simulated in batches whose histories fit in `_BATCH_BYTES`; each
    batch is traced run by run and released before the next one.
    """
    duration = leader.t_end - leader.t0
    if leader.t0 != 0.0:
        raise ValueError("recorded leader must start at t = 0")
    v_free = float(np.max(leader.v)) + 5.0
    params = [ControlParams(tau=d.tau, L=d.L, k_s=d.k_s, k_v=d.k_v, v_f=v_free) for d in draws]
    if not params:
        raise ValueError("no parameter draws to simulate")
    origins = np.arange(warmup, duration - end_margin + 1e-9, origin_spacing)
    if origins.size == 0:
        raise ValueError("empirical window too short for any path origin")
    one = Scenario(params=params[0], n_followers=n_followers, leader=leader, duration=duration, dt=dt)
    batch = max(1, _BATCH_BYTES // one.history_bytes)
    prop_paths: List[WavePath] = []
    base_paths: List[WavePath] = []
    for i in range(0, len(params), batch):
        runs = params[i:i + batch]
        res = simulate_platoon(dataclasses.replace(one, params=tuple(runs)))
        for r, p in enumerate(runs):
            trajs = res.run(r)
            w_base = lwr_baseline_speed(p) if baseline_speed is None else baseline_speed
            for t_o in origins:
                prop_paths.append(trace_characteristic_path(float(t_o), trajs, p))
                base_paths.append(constant_speed_path(float(t_o), trajs, w_base))
        del res, trajs
    prop_devs = deviation_set(prop_paths)
    return EmpiricalRun(
        proposed_stats=summary_stats(prop_devs),
        baseline_stats=summary_stats(deviation_set(base_paths)),
        n_draws=len(params),
        n_deviations=len(prop_devs),
    )
