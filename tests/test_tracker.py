"""Tests for disturbance-path tracing: characteristic, baseline, shock,
and engagement-front paths over platoon trajectories."""

import dataclasses
import functools
import math
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accwave import tracker
from accwave.dataio import ingest_trajectories, write_trajectories
from accwave.microsim import (
    DT_JITTER,
    ConstAccel,
    Cruise,
    CutIn,
    EngagementEvent,
    LeaderProfile,
    Oscillate,
    OscillationSpec,
    Scenario,
    Trajectory,
    detect_engagement,
    simulate_platoon,
)
from accwave.model import ControlParams, TrafficState
from accwave.scenarios import case_scenario, origin_grid, run_case, trace_methods
from accwave.tracker import (
    Crossing,
    DegenerateJumpError,
    PathKind,
    Platoon,
    WavePath,
    _Characteristic,
    _Constant,
    _state_in,
    _trace,
    _trace_from_lead,
    constant_speed_path,
    engagement_front,
    engagement_path,
    lwr_baseline_speed,
    pair_wave_speed,
    shock_speed,
    trace_characteristic_path,
    trace_phase_transition,
)
from oracles import appended_pair_table, first_down_crossing, table_trace

P = ControlParams()  # tau=1.2, L=5, k_s=0.8, k_v=1.4, v_f=15


def _const_speed_traj(vid, x0, v, t_end=20.0, dt=0.01):
    t = np.arange(0.0, t_end + dt / 2, dt)
    return Trajectory(vid, t, x0 + v * t, np.full_like(t, v), np.zeros_like(t), dt)


def _cruise_platoon(v_e=10.0, n_followers=3, duration=30.0):
    sc = Scenario(
        params=P,
        n_followers=n_followers,
        leader=LeaderProfile(v0=v_e, phases=(Cruise(None),)),
        duration=duration,
        dt=0.01,
        initial_speeds=v_e,
    )
    return simulate_platoon(sc).trajectories


# ---------------------------------------------------------------------------
# speeds of the two path families
# ---------------------------------------------------------------------------


def test_lwr_baseline_speed_hand_value():
    # -L/tau = -5/1.2 = -25/6
    assert lwr_baseline_speed(P) == pytest.approx(-25.0 / 6.0, rel=1e-15)


def test_pair_wave_speed_congested_hand_value():
    # spacing 17 m below s_c = 23 m: W = v - k_v*s = 10 - 1.4*17 = -13.8
    lead = _const_speed_traj(0, 100.0, 10.0)
    fol = _const_speed_traj(1, 83.0, 10.0)
    assert pair_wave_speed(5.0, lead, fol, P) == pytest.approx(-13.8, abs=1e-12)


def test_pair_wave_speed_free_flow_degenerates_to_leader_speed():
    # spacing 30 m > s_c and follower at v_f: gain gated off, W = v_lead
    lead = _const_speed_traj(0, 100.0, 15.0)
    fol = _const_speed_traj(1, 70.0, 15.0)
    assert pair_wave_speed(5.0, lead, fol, P) == pytest.approx(15.0, abs=1e-12)


def test_pair_wave_speed_vectorized():
    lead = _const_speed_traj(0, 100.0, 10.0)
    fol = _const_speed_traj(1, 83.0, 10.0)
    t = np.array([1.0, 2.0, 3.0])
    w = pair_wave_speed(t, lead, fol, P)
    assert w.shape == (3,)
    assert np.allclose(w, -13.8, atol=1e-12)


# ---------------------------------------------------------------------------
# crossing-interval identities on an equilibrium platoon
# ---------------------------------------------------------------------------


def test_characteristic_crossing_interval_is_inverse_speed_gain():
    # on the equilibrium manifold the time between successive trajectory
    # crossings is s_e/(v_e - W) = s_e/(k_v*s_e) = 1/k_v, independent of v_e
    trajs = _cruise_platoon()
    path = trace_characteristic_path(2.0, trajs, P)
    assert path.kind is PathKind.CHARACTERISTIC
    assert len(path.crossings) == 3
    times = [2.0] + [c.t for c in path.crossings]
    assert np.allclose(np.diff(times), 1.0 / P.k_v, atol=1e-6)
    assert np.allclose(path.speeds, 10.0, atol=1e-8)
    assert [c.vehicle_id for c in path.crossings] == [1, 2, 3]


def test_constant_speed_crossing_interval_is_headway_time():
    # the first-order baseline -L/tau crosses an equilibrium platoon once
    # every tau seconds: s_e/(v_e + L/tau) = tau for any equilibrium
    trajs = _cruise_platoon()
    path = constant_speed_path(2.0, trajs, lwr_baseline_speed(P))
    assert path.kind is PathKind.CONSTANT_SPEED
    times = [2.0] + [c.t for c in path.crossings]
    assert np.allclose(np.diff(times), P.tau, atol=1e-6)


def test_crossing_inside_a_step_at_a_target_sample_is_found():
    # the path steps from t = 0.5 to 1.5; the follower passes it at its own
    # sample t = 1 and drops back behind it by t = 1.5, so the crossing shows
    # only at that sample: path - follower = 4.5, -1, 3.5 at t = 0.5, 1, 1.5
    t = np.arange(5.0)
    lead = Trajectory(0, t, 50.0 + 10.0 * t, np.full(5, 10.0), np.zeros(5), 1.0)
    x_fol = np.array([40.0, 61.0, 62.0, 63.0, 64.0])
    fol = Trajectory(1, t, x_fol, np.gradient(x_fol), np.zeros(5), 1.0)
    path = constant_speed_path(0.5, [lead, fol], 10.0)
    (crossing,) = path.crossings
    # 4.5 - 11 (t - 0.5) = 0 on the piece before the sample
    assert crossing.t == pytest.approx(0.5 + 4.5 / 11.0, abs=1e-12)
    assert not path.truncated


def test_origin_outside_lead_trajectory_raises():
    trajs = _cruise_platoon(duration=10.0)
    lead = trajs[0]
    with pytest.raises(ValueError, match="origin time outside the lead trajectory"):
        trace_characteristic_path(50.0, trajs, P)
    with pytest.raises(ValueError, match="origin time outside the lead trajectory"):
        constant_speed_path(-1.0, trajs, -4.0)
    # both ends are inside, and the origin there is the lead's sample
    for t, i in ((lead.t0, 0), (lead.t_end, -1)):
        path = constant_speed_path(t, trajs, -4.0)
        assert (path.origin_x, path.origin_v) == (lead.x[i], lead.v[i])


# ---------------------------------------------------------------------------
# shock speeds
# ---------------------------------------------------------------------------


def test_shock_speed_hand_value():
    # q = rho*v jump between the two table equilibria:
    # left (1/23, 15), right (1/17, 10) -> (10/17 - 15/23)/(1/17 - 1/23) = -25/6
    c = shock_speed(TrafficState(1.0 / 23.0, 15.0), TrafficState(1.0 / 17.0, 10.0))
    assert c == pytest.approx(-25.0 / 6.0, rel=1e-12)


def test_shock_speed_equal_density_raises():
    with pytest.raises(DegenerateJumpError):
        shock_speed(TrafficState(0.05, 10.0), TrafficState(0.05, 12.0))


@settings(max_examples=200, deadline=None)
@given(
    s_left=st.floats(min_value=6.0, max_value=80.0),
    s_right=st.floats(min_value=6.0, max_value=80.0),
)
@example(s_left=65.75, s_right=65.6875)
def test_shock_between_congested_equilibria_moves_at_baseline_speed(s_left, s_right):
    # both states on the congested branch v = (s - L)/tau: the chord slope
    # of q(rho) = (1 - rho*L)/tau is -L/tau regardless of the endpoints
    if abs(s_left - s_right) < 1e-6:
        return
    left = TrafficState(1.0 / s_left, P.equilibrium_speed(s_left))
    right = TrafficState(1.0 / s_right, P.equilibrium_speed(s_right))
    # Each q = rho*v carries at most 4 roundings (rho, s - L, /tau, the
    # product) and each rho one, so with |q| <= 1/tau, rho = 1/s and
    # |q_r - q_l| = (L/tau)|rho_r - rho_l| = L|s_l - s_r|/(tau s_l s_r) the
    # chord's relative error is at most
    #   eps * (8 s_l s_r / L + s_l + s_r) / |s_l - s_r| + 3 eps,
    # which is above 1e-12 for large, close spacings (near 80 m, closer
    # than about 2 m).
    eps = np.finfo(float).eps
    cond = (8.0 * s_left * s_right / P.L + s_left + s_right) / abs(s_left - s_right) + 3.0
    assert shock_speed(left, right) == pytest.approx(-P.L / P.tau, rel=max(1e-12, eps * cond))


# ---------------------------------------------------------------------------
# engagement fronts
# ---------------------------------------------------------------------------


def test_engagement_front_hand_oracle():
    ev = (EngagementEvent(1, 10.0, 100.0), EngagementEvent(2, 12.0, 80.0))
    front = engagement_front(ev)
    # chord through (10, 100) and (12, 80): slope -10 m/s
    assert front.segment_speeds == pytest.approx((-10.0,))


def test_engagement_front_coincident_times_flagged_infinite():
    ev = (EngagementEvent(1, 10.0, 100.0), EngagementEvent(2, 10.0, 90.0))
    front = engagement_front(ev)
    assert front.segment_speeds == (math.inf,)


def test_engagement_front_needs_two_events():
    with pytest.raises(ValueError):
        engagement_front((EngagementEvent(1, 10.0, 100.0),))


# ---------------------------------------------------------------------------
# free-flow -> congested composite
# ---------------------------------------------------------------------------

P4 = ControlParams(v_f=12.0)


def _transition_trajectories(duration=60.0):
    profile = LeaderProfile(
        v0=12.0,
        phases=(
            Cruise(5.0),
            ConstAccel(4.0, -0.5),
            Oscillate(None, ((3.0, 0.16 * math.pi, 0.5 * math.pi),)),
        ),
    )
    sc = Scenario(
        params=P4,
        n_followers=3,
        duration=duration,
        dt=0.01,
        leader=profile,
        initial_speeds=12.0,
        initial_gaps=(22.0, 21.5, 22.5),
    )
    return simulate_platoon(sc).trajectories


def test_engagement_path_matches_detected_events():
    trajs = _transition_trajectories()
    events = detect_engagement(trajs, P4)
    assert [e.vehicle_id for e in events] == [1, 2, 3]
    path = engagement_path(engagement_front(events), trajs)
    assert path.kind is PathKind.ENGAGEMENT
    assert path.origin_t == events[0].t_star
    assert len(path.crossings) == len(events) - 1
    for cr, ev in zip(path.crossings, events[1:]):
        assert (cr.vehicle_id, cr.t, cr.x) == (ev.vehicle_id, ev.t_star, ev.x_star)


def test_phase_transition_composite():
    trajs = _transition_trajectories()
    pt = trace_phase_transition(trajs, P4, v_e=10.0, origin_spacing=1.0)
    assert len(pt.events) == 3
    # jump between the engagement state (1/s_c, v_f) and the final
    # equilibrium (1/17, 10) rides the congested branch: -L/tau
    assert pt.shock_speed == pytest.approx(-25.0 / 6.0, rel=1e-12)
    assert pt.front is not None and len(pt.front.segment_speeds) == 2
    assert pt.engagement is not None
    assert pt.shock is not None and pt.shock.kind is PathKind.SHOCK
    assert pt.t_complete is not None and pt.t_complete > pt.events[-1].t_star
    assert pt.characteristics, "expected characteristic launches after completion"
    assert all(c.origin_t >= pt.t_complete for c in pt.characteristics)
    assert len(pt.paths()) == 2 + len(pt.characteristics)
    # most characteristics cross the whole platoon before the window ends
    full = [c for c in pt.characteristics if len(c.crossings) == 3]
    assert len(full) >= 10


def test_phase_transition_origins_are_whole_multiples_of_the_spacing():
    # k * spacing, as origin_grid builds its origins, not a running sum,
    # which drifts at 0.1 (25.800000000000004 for 25.8)
    trajs = _transition_trajectories()
    pt = trace_phase_transition(trajs, P4, v_e=10.0, origin_spacing=0.1)
    k0, n = math.ceil(pt.t_complete / 0.1), len(pt.characteristics)
    assert [c.origin_t for c in pt.characteristics] == [k * 0.1 for k in range(k0, k0 + n)]
    assert (k0 + n) * 0.1 >= trajs[0].t_end > (k0 + n - 1) * 0.1


def test_phase_transition_without_engagement_is_empty():
    trajs = _cruise_platoon()  # starts congested: nothing to engage
    pt = trace_phase_transition(trajs, P, v_e=10.0)
    assert pt.events == ()
    assert pt.front is None and pt.engagement is None and pt.shock is None
    assert pt.characteristics == () and pt.t_complete is None
    assert pt.paths() == []


@pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf])
def test_origins_refuse_a_spacing_that_is_not_positive_and_finite(spacing):
    # a zero spacing used to divide by zero, a negative one to trace nothing
    trajs = _cruise_platoon(duration=5.0)
    with pytest.raises(ValueError, match="origin spacing must be positive and finite"):
        trace_phase_transition(trajs, P, v_e=10.0, origin_spacing=spacing)
    with pytest.raises(ValueError, match="origin spacing must be positive and finite"):
        origin_grid(trajs[0], 0.0, 1.0, spacing)


def test_path_reaching_a_vehicle_before_its_first_sample_is_truncated():
    # the follower exists only from t = 5 (a cut-in), 90 m behind the lead:
    # a path that reaches the pair earlier is outside the pair's common window
    t = np.arange(0.0, 20.01, 0.5)
    lead = Trajectory(0, t, 100.0 + 10.0 * t, np.full(t.size, 10.0), np.zeros(t.size), 0.5)
    late = t[10:]
    fol = Trajectory(1, late, 60.0 + 10.0 * (late - 5.0), np.full(late.size, 10.0),
                     np.zeros(late.size), 0.5)
    early = constant_speed_path(1.0, [lead, fol], -5.0)
    assert early.truncated and early.crossings == ()
    (crossing,) = constant_speed_path(6.0, [lead, fol], -5.0).crossings
    # 90 m gap closed at 10 - (-5) = 15 m/s
    assert crossing.t == pytest.approx(12.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the per-step Euler tracer the production tracer replaced, kept as its oracle
# ---------------------------------------------------------------------------


def _euler_trace(origin_t, origin_x, origin_v, trajectories, first_target, speed_rule, kind,
                 terminator=None, substeps=1) -> WavePath:
    """March at trajectory dt / substeps with a scalar speed rule, root each crossing exactly.

    Within a step the path is linear and the target trajectory is linear
    between its samples, so the gap path - target is sampled at the step
    ends and at the one target sample inside the step; its first
    down-crossing of zero is the crossing.  Left-Riemann in the speed, so
    the path carries an O(dt) error wherever the speed varies.
    """
    crossings: List[Crossing] = []
    t, x = origin_t, origin_x
    idx = first_target
    truncated = False
    f0 = None   # path - target at (t, x); the previous step's f1 when it is known
    while idx < len(trajectories):
        fol = trajectories[idx]
        lead = trajectories[idx - 1]
        t_end = min(lead.t_end, fol.t_end)
        if t >= t_end:
            truncated = True
            break
        if terminator is not None and terminator(t, x):
            truncated = True
            break
        w = speed_rule(t, lead, fol)
        t1 = min(t + fol.dt / substeps, t_end)
        x1 = x + w * (t1 - t)
        if f0 is None:
            f0 = x - float(fol.position_at(t))
        f1 = x1 - float(fol.position_at(t1))
        ts, fs = [t], [f0]
        j = int(np.searchsorted(fol.t, t, side="right"))   # first target sample after t
        if j < len(fol.t) and fol.t[j] < t1:
            t_j = float(fol.t[j])
            ts.append(t_j)
            fs.append(x + w * (t_j - t) - float(fol.x[j]))
        ts.append(t1)
        fs.append(f1)
        t_c = first_down_crossing(ts, fs, 0.0) if min(fs) <= 0.0 else None
        if t_c is not None:
            x_c = float(fol.position_at(t_c))
            crossings.append(Crossing(fol.vehicle_id, t_c, x_c, float(fol.speed_at(t_c))))
            t, x, f0 = t_c, x_c, None
            idx += 1
            continue
        t, x, f0 = t1, x1, f1
    return WavePath(kind, origin_t, origin_x, origin_v, tuple(crossings), truncated)


def _oracle_paths(trajs, params, paths, w_base, transition=None, tracer=_euler_trace):
    """Re-trace each path with an oracle tracer (the Euler march unless
    given), using the same rule, start and terminator as the production
    call that made it."""
    def characteristic(t, le, fo):
        return pair_wave_speed(t, le, fo, params)

    overtaken = None
    if transition is not None:
        c_sh, first = transition.shock_speed, transition.events[0]

        def overtaken(t, x):
            return x <= first.x_star + c_sh * (t - first.t_star)

    out = []
    for path in paths:
        first_target, term = 1, None
        if path.kind is PathKind.CONSTANT_SPEED:
            rule = lambda t, le, fo: w_base
        elif path.kind is PathKind.SHOCK:
            rule = lambda t, le, fo: c_sh
            ids = [tr.vehicle_id for tr in trajs]
            first_target = ids.index(first.vehicle_id) + 1
        else:
            rule, term = characteristic, overtaken
        out.append(tracer(path.origin_t, path.origin_x, path.origin_v, trajs, first_target, rule,
                          path.kind, term))
    return out


def _crossing_differences(paths, oracle, conditioning=None):
    """Largest |dt|, |dx|, |dv| over matching crossings, each divided by its
    entry of `conditioning` (one list per path) when given; the paths must
    cross the same vehicles and agree on truncation."""
    worst = np.zeros(3)
    for k, (path, ref) in enumerate(zip(paths, oracle)):
        assert path.truncated == ref.truncated, path.origin_t
        assert [c.vehicle_id for c in path.crossings] == [c.vehicle_id for c in ref.crossings]
        scales = conditioning[k] if conditioning else [1.0] * len(path.crossings)
        for c, r, scale in zip(path.crossings, ref.crossings, scales):
            worst = np.maximum(worst, np.abs(np.subtract((c.t, c.x, c.v), (r.t, r.x, r.v))) / scale)
    return worst


def _cut_in_run(sc, origins):
    """Both methods from `origins` over the platoon of `sc`, whose cut-ins
    make some pairs' common windows shorter than the lead's."""
    trajs = simulate_platoon(sc).trajectories
    proposed, baseline = trace_methods(origins, trajs, sc.params)
    return trajs, sc.params, proposed, baseline, lwr_baseline_speed(sc.params), None


def _case_run(case):
    if case == "cut-in":
        # case 1 with a cut-in ahead of follower 3 at t = 20 s; paths
        # launched after it reach the merged vehicle inside its shorter window
        sc = dataclasses.replace(case_scenario(1), cut_ins=(CutIn(time=20.0, gap=8.0, ahead_of=3),))
        run = _cut_in_run(sc, np.arange(19.0, 50.0, 1.0))
        assert run[0][3].t0 == pytest.approx(20.0)
        return run
    if case == "four cut-ins":
        # two merges in one step, one landing between those two, one at the front
        cuts = (CutIn(time=12.0, gap=9.0, ahead_of=1), CutIn(time=5.0, gap=11.0, ahead_of=3),
                CutIn(time=5.0, gap=10.0, ahead_of=3), CutIn(time=8.0, gap=4.0, ahead_of=4))
        sc = Scenario(params=P, n_followers=4, duration=25.0, cut_ins=cuts,
                      leader=OscillationSpec(v_e=10.0, modes=((2.0, 0.16 * math.pi, 0.0),)))
        return _cut_in_run(sc, np.arange(1.0, 24.0, 0.25))
    run = run_case(case)
    params = case_scenario(case).params
    return (run.trajectories, params, run.proposed, run.baseline,
            lwr_baseline_speed(params), run.transition)


@pytest.mark.parametrize("case", [1, 2, 3, 4, "cut-in"])
def test_tracer_against_euler_oracle(case):
    trajs, params, proposed, baseline, w_base, transition = _case_run(case)
    dt = trajs[0].dt
    traced = [p for p in proposed + baseline if p.kind is not PathKind.ENGAGEMENT]
    oracle = _oracle_paths(trajs, params, traced, w_base, transition)
    straight = [(p, o) for p, o in zip(traced, oracle) if p.kind is not PathKind.CHARACTERISTIC]
    curved = [(p, o) for p, o in zip(traced, oracle) if p.kind is PathKind.CHARACTERISTIC]
    assert straight and curved
    # constant-speed and shock paths are straight lines, exact in both tracers
    assert np.all(_crossing_differences(*zip(*straight)) <= 1e-9)
    # characteristics differ by the oracle's left-Riemann O(dt) error; the
    # bounds are 1.5x the largest difference over these five runs at
    # dt = 0.01 (case 3: 2.6 dt s, 14 dt m and 9.8 dt m/s)
    d_t, d_x, d_v = _crossing_differences(*zip(*curved))
    assert d_t <= 4.0 * dt and d_x <= 21.0 * dt and d_v <= 15.0 * dt


def test_terminator_against_euler_oracle():
    # a shock-like line at -L/tau through follower 2 at t = 20 s stops
    # characteristics after 0, 1, 2 or 3 crossings depending on the origin.
    # Both tracers test the line on their own knots, so a path meeting it
    # within one step of a crossing can differ by that crossing; with this
    # line no origin does.
    trajs, params, *_ = _case_run(1)
    c, t_l = lwr_baseline_speed(params), 20.0
    x_l = float(trajs[2].position_at(t_l))

    def overtaken(t, x):
        return x <= x_l + c * (t - t_l)

    def rule(t, le, fo):
        return pair_wave_speed(t, le, fo, params)

    lead, platoon = trajs[0], Platoon(trajs)
    paths, oracle, windowed = [], [], []
    for t_o in np.arange(14.0, 24.0, 0.1):
        start = (t_o, float(lead.position_at(t_o)), float(lead.speed_at(t_o)))
        paths.append(_trace(*start, platoon, 1, _Characteristic(params),
                            PathKind.CHARACTERISTIC, overtaken))
        oracle.append(_euler_trace(*start, trajs, 1, rule, PathKind.CHARACTERISTIC, overtaken))
        windowed.append(_windowed_trace(*start, trajs, 1, rule, PathKind.CHARACTERISTIC, overtaken))
    assert {len(p.crossings) for p in paths if p.truncated} == {0, 1, 2, 3}
    d_t, d_x, d_v = _crossing_differences(paths, oracle)
    assert d_t <= 4.0 * trajs[0].dt
    assert np.all(_crossing_differences(paths, windowed) <= 1e-9)


def test_euler_oracle_converges_to_tracer_as_its_step_shrinks():
    # same trajectories, oracle marching at dt/4: the difference to the
    # production tracer shrinks about fourfold, so it is the oracle's error
    trajs, params, proposed, _, w_base, _ = _case_run(3)
    coarse = _crossing_differences(proposed, _oracle_paths(trajs, params, proposed, w_base))
    fine = _crossing_differences(
        proposed, _oracle_paths(trajs, params, proposed, w_base,
                                tracer=functools.partial(_euler_trace, substeps=4)))
    assert np.all(fine <= coarse / 3.0)


def _smooth_platoon(h, t_end=12.0, n_followers=3):
    """Closed-form motions sampled every h: a leader oscillating about
    10 m/s and followers whose spacing oscillates between 15 and 19 m, so
    every pair stays engaged (s < s_c = 23 m) and W is smooth."""
    t = np.linspace(0.0, t_end, int(round(t_end / h)) + 1)
    om = 0.16 * math.pi
    x = 10.0 * t + 8.0 * np.sin(om * t)
    v = 10.0 + 8.0 * om * np.cos(om * t)
    trajs = [Trajectory(0, t, x, v, np.zeros_like(t), h)]
    for i in range(1, n_followers + 1):
        x = x - (17.0 + 2.0 * np.sin(2.0 * om * t + i))
        v = v - 4.0 * om * np.cos(2.0 * om * t + i)
        trajs.append(Trajectory(i, t, x, v, np.zeros_like(t), h))
    return trajs


def test_characteristic_crossings_converge_at_second_order():
    # smooth motions sampled at h, h/2, h/4 against a reference at h/64:
    # the RMS crossing-time error falls by about 4 per halving (trapezoid
    # on the samples plus linear interpolation, both O(h^2)); the Euler
    # oracle's falls by about 2.  Origins are spread off the sample grid so
    # the interpolation error is averaged over the position within a step.
    origins = 1.0 + 0.0777 * np.arange(64)

    def crossing_times(h, tracer):
        trajs = _smooth_platoon(h)
        return np.array([[c.t for c in tracer(t_o, trajs).crossings] for t_o in origins])

    def production(t_o, trajs):
        return trace_characteristic_path(t_o, trajs, P)

    def oracle(t_o, trajs):
        lead = trajs[0]
        return _euler_trace(t_o, float(lead.position_at(t_o)), float(lead.speed_at(t_o)), trajs, 1,
                            lambda t, le, fo: pair_wave_speed(t, le, fo, P),
                            PathKind.CHARACTERISTIC)

    ref = crossing_times(0.1 / 64, production)
    assert ref.shape == (origins.size, 3)
    for tracer, order in ((production, 4.0), (oracle, 2.0)):
        err = [np.sqrt(np.mean((crossing_times(h, tracer) - ref) ** 2)) for h in (0.1, 0.05, 0.025)]
        ratios = np.array(err[:-1]) / np.array(err[1:])
        assert np.all(np.abs(ratios - order) < 0.1 * order), (tracer.__name__, ratios)


# ---------------------------------------------------------------------------
# the windowed per-path search the pair tables replaced, kept as their oracle
# ---------------------------------------------------------------------------

_FIRST_WINDOW = 32   # follower samples in a pair's first search window; doubles per window


def _windowed_pair_crossing(t_c, x_c, lead, fol, speed_rule, terminator):
    """Time at which a path entering the pair (lead, fol) at (t_c, x_c) meets
    the follower, or None when it reaches the end of the pair's common time
    window or the terminator first (or enters outside that window).

    The knots are t_c, the follower's own samples after t_c and the window
    end, taken in windows of `_FIRST_WINDOW` samples, doubling.  Each window
    evaluates `speed_rule(t, lead, fol)` on its knots, integrates it by
    cumulative trapezoid from the window's entry and roots path minus
    follower, linear between knots; the follower is interpolated on every
    knot.
    """
    t_end = min(lead.t_end, fol.t_end)
    if not max(lead.t0, fol.t0) <= t_c < t_end:
        return None
    j = int(np.searchsorted(fol.t, t_c, side="right"))      # first sample after t_c
    j_end = int(np.searchsorted(fol.t, t_end, side="left"))  # samples before t_end
    n = _FIRST_WINDOW
    while True:
        k = min(j + n, j_end)
        last = [t_end] if k == j_end else []
        tn = np.concatenate(([t_c], fol.t[j:k], last))
        w = np.broadcast_to(speed_rule(tn, lead, fol), tn.shape)
        xn = x_c + np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(tn))))
        gap = xn - fol.position_at(tn)
        # a path behind the follower (overlapping vehicles in recorded data)
        # has not crossed it yet: search from the first knot ahead of it
        above = np.flatnonzero(gap > 0.0)
        t_x = first_down_crossing(tn[above[0]:], gap[above[0]:], 0.0) if above.size else None
        if terminator is not None:
            stopped = terminator(tn, xn)
            if np.any(stopped if t_x is None else stopped[tn < t_x]):
                return None
        if t_x is not None or k == j_end:
            return t_x
        t_c, x_c, j, n = float(tn[-1]), float(xn[-1]), k, 2 * n


def _windowed_trace(origin_t, origin_x, origin_v, trajectories, first_target, speed_rule, kind,
                    terminator=None) -> WavePath:
    """Pair by pair, `_windowed_pair_crossing` and a re-anchor on the follower."""
    crossings: List[Crossing] = []
    t, x = origin_t, origin_x
    for idx in range(first_target, len(trajectories)):
        lead, fol = trajectories[idx - 1], trajectories[idx]
        t_x = _windowed_pair_crossing(t, x, lead, fol, speed_rule, terminator)
        if t_x is None:
            return WavePath(kind, origin_t, origin_x, origin_v, tuple(crossings), True)
        t, x = t_x, float(fol.position_at(t_x))
        crossings.append(Crossing(fol.vehicle_id, t, x, float(fol.speed_at(t))))
    return WavePath(kind, origin_t, origin_x, origin_v, tuple(crossings))


def _windowed_oracle_differences(trajs, params, paths, w_base, transition=None):
    return _crossing_differences(
        paths, _oracle_paths(trajs, params, paths, w_base, transition, tracer=_windowed_trace))


@pytest.mark.parametrize("case", [1, 2, 3, 4, "four cut-ins"])
def test_tracer_against_windowed_oracle(case):
    # the pair tables change only the order of the sums: every crossing
    # agrees with the windowed search to round-off
    trajs, params, proposed, baseline, w_base, transition = _case_run(case)
    traced = [p for p in proposed + baseline if p.kind is not PathKind.ENGAGEMENT]
    if case == 4:
        # the shock path, and characteristics the shock stops as well as
        # characteristics that cross the whole platoon
        assert transition.shock is not None and transition.shock in traced
        n_full = [len(c.crossings) == len(trajs) - 1 for c in transition.characteristics]
        assert any(n_full) and not all(n_full)
    if case == "four cut-ins":
        assert any(p.truncated for p in traced) and not all(p.truncated for p in traced)
    assert np.all(_windowed_oracle_differences(trajs, params, traced, w_base, transition) <= 1e-9)


def _overlap_platoon(h=0.1, t_end=40.0):
    """Recorded-style platoon sampled every h in which follower 2 runs up to
    3 m ahead of follower 1 around t = 13 s, as overlapping vehicles do in
    noisy recorded data; every pair is engaged otherwise."""
    t = np.linspace(0.0, t_end, int(round(t_end / h)) + 1)
    om = 0.16 * math.pi
    x = 10.0 * t + 8.0 * np.sin(om * t)
    v = 10.0 + 8.0 * om * np.cos(om * t)
    bump = np.exp(-((t - 13.0) / 2.0) ** 2)
    trajs = [Trajectory(0, t, x, v, np.zeros_like(t), h)]
    for i in range(1, 4):
        x = x - (17.0 + 2.0 * np.sin(2.0 * om * t + i)) + (20.0 * bump if i == 2 else 0.0)
        v = v - 4.0 * om * np.cos(2.0 * om * t + i) + (
            20.0 * bump * -2.0 * (t - 13.0) / 4.0 if i == 2 else 0.0)
        trajs.append(Trajectory(i, t, x, v, np.zeros_like(t), h))
    return trajs


def test_tracer_against_windowed_oracle_on_overlapping_recorded_vehicles(tmp_path):
    path = tmp_path / "overlap.csv"
    write_trajectories(str(path), _overlap_platoon(), full_precision=True)
    trajs = ingest_trajectories(str(path))
    assert np.any(trajs[2].x > trajs[1].x)
    w_base = lwr_baseline_speed(P)
    proposed, baseline = trace_methods(np.arange(2.0, 34.0, 0.25), trajs, P)
    # some paths cross vehicle 1 behind vehicle 2, so they enter the pair
    # (1, 2) behind its follower and search from the first knot ahead of it
    entries = [p.crossings[0] for p in proposed + baseline if p.crossings]
    assert any(c.x <= trajs[2].position_at(c.t) for c in entries)
    for paths in (proposed, baseline):
        assert np.all(_windowed_oracle_differences(trajs, P, paths, w_base) <= 1e-9)


@functools.lru_cache(maxsize=None)
def _property_platoon(name):
    if name == "overlap":
        return _overlap_platoon()
    if name == "coarse":
        # samples 1 s apart: many paths meet the follower before its first
        # sample after the entry, on the entry's own partial interval
        return _smooth_platoon(1.0, t_end=40.0)
    return simulate_platoon(case_scenario(2)).trajectories


def _conditioning(trajs, params, path, w_base):
    """max(1, 1/|v_fol - w|) at each crossing of `path`.  The crossing time
    is the root of x_fol(t) - x_path(t), whose slope there is v_fol - w, with
    w the path's speed (the pair wave speed, or `w_base` on a straight
    path): a round-off in either side moves the root by 1/|v_fol - w| times
    as much, and the crossing's x and v with it."""
    index = {tr.vehicle_id: k for k, tr in enumerate(trajs)}
    out = []
    for c in path.crossings:
        fol = index[c.vehicle_id]
        w = (w_base if path.kind is PathKind.CONSTANT_SPEED
             else pair_wave_speed(c.t, trajs[fol - 1], trajs[fol], params))
        out.append(max(1.0, 1.0 / abs(c.v - w)))
    return out


def _paths_from_any_origin(name, fractions, w):
    trajs = _property_platoon(name)
    lead = trajs[0]
    origins = [lead.t0 + f * (lead.t_end - lead.t0) for f in fractions]
    platoon = Platoon(trajs)
    paths = [trace_characteristic_path(t_o, platoon, P) for t_o in origins]
    paths += [constant_speed_path(t_o, platoon, w) for t_o in origins]
    return trajs, paths


def _conditioned_windowed_differences(trajs, paths, w):
    oracle = _oracle_paths(trajs, P, paths, w, tracer=_windowed_trace)
    conditioning = [_conditioning(trajs, P, path, w) for path in paths]
    return _crossing_differences(paths, oracle, conditioning)


# a straight path at 8.15 m/s meets follower 3 of case 2 where it runs at
# 8.26 m/s: 1/|v_fol - w| = 9.2, and the crossing's x is 3.9e-9 m off the
# windowed search's
_ILL_CONDITIONED = dict(name="case 2", fractions=[0.584159644649661], w=8.15279828561195)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["case 2", "overlap", "coarse"]),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    w=st.floats(min_value=-12.0, max_value=12.0),
)
@example(**_ILL_CONDITIONED)
def test_tracer_matches_windowed_oracle_from_any_origin(name, fractions, w):
    trajs, paths = _paths_from_any_origin(name, fractions, w)
    assert np.all(_conditioned_windowed_differences(trajs, paths, w) <= 1e-9)
    assert paths == _table_oracle_paths(trajs, P, paths, w)


@pytest.mark.parametrize("field", ["t", "x", "v"])
def test_the_conditioned_windowed_bound_refuses_a_crossing_moved_by_1e_7(field):
    trajs, paths = _paths_from_any_origin(**_ILL_CONDITIONED)
    w = _ILL_CONDITIONED["w"]
    for k, path in enumerate(paths):
        for j, c in enumerate(path.crossings):
            crossings = list(path.crossings)
            crossings[j] = c._replace(**{field: getattr(c, field) + 1e-7})
            moved = dataclasses.replace(path, crossings=tuple(crossings))
            mutated = paths[:k] + [moved] + paths[k + 1:]
            assert not np.all(_conditioned_windowed_differences(trajs, mutated, w) <= 1e-9), (k, j)


# ---------------------------------------------------------------------------
# the pair-table tracer with scalar np.interp and a whole-table compare,
# which the scalar crossings and the windowed search must equal bit for bit
# ---------------------------------------------------------------------------


def _table_oracle_paths(trajs, params, paths, w_base, transition=None):
    """Re-trace each path with `oracles.table_trace` over a Platoon of its own,
    from the origin and under the rule and terminator of the production call
    that made it; a path from the lead takes its origin from np.interp."""
    overtaken = None
    if transition is not None:
        c_sh, first = transition.shock_speed, transition.events[0]

        def overtaken(t, x):
            return x <= first.x_star + c_sh * (t - first.t_star)

    platoon, lead = Platoon(trajs), trajs[0]
    out = []
    for path in paths:
        origin = (path.origin_t, float(lead.position_at(path.origin_t)),
                  float(lead.speed_at(path.origin_t)))
        first_target, term = 1, None
        if path.kind is PathKind.CONSTANT_SPEED:
            rule = _Constant(w_base)
        elif path.kind is PathKind.SHOCK:
            rule, origin = _Constant(c_sh), (path.origin_t, path.origin_x, path.origin_v)
            first_target = [tr.vehicle_id for tr in trajs].index(first.vehicle_id) + 1
        else:
            rule, term = _Characteristic(params), overtaken
        out.append(table_trace(*origin, platoon, first_target, rule, path.kind, term))
    return out


def _overlap_run(tmp_path):
    """Both methods over the overlapping recorded-style platoon, read back from CSV."""
    path = str(tmp_path / "overlap.csv")
    write_trajectories(path, _overlap_platoon(), full_precision=True)
    trajs = ingest_trajectories(path)
    w_base = lwr_baseline_speed(P)
    proposed, baseline = trace_methods(np.arange(2.0, 34.0, 0.25), trajs, P)
    return trajs, P, proposed, baseline, w_base, None


@pytest.mark.parametrize("case", [1, 2, 3, 4, "four cut-ins", "overlap"])
def test_tracer_equals_table_oracle_bit_for_bit(case, tmp_path):
    # same origins, crossings and truncation flags, compared with ==
    run = _overlap_run(tmp_path) if case == "overlap" else _case_run(case)
    trajs, params, proposed, baseline, w_base, transition = run
    traced = [p for p in proposed + baseline if p.kind is not PathKind.ENGAGEMENT]
    if case == 4:
        assert transition.shock in traced
        assert any(p.truncated and p.crossings for p in transition.characteristics)
    oracle = _table_oracle_paths(trajs, params, traced, w_base, transition)
    for path, ref in zip(traced, oracle):
        assert path == ref, (path.kind, path.origin_t)


def _bits(*values):
    """Each value as the hex of its double, so -0.0, 0.0 and NaN compare exactly."""
    return [float(y).hex() for y in values]


def _interp_bits(tr, q):
    return _bits(np.interp(q, tr.t, tr.x), np.interp(q, tr.t, tr.v))


@st.composite
def _motion_and_interval(draw):
    """A trajectory on a uniform or a jittered grid, one of its sample
    intervals i, and a time on the interval's left end, on its right end or
    between them."""
    n = draw(st.integers(min_value=2, max_value=40))
    dt = draw(st.floats(min_value=0.01, max_value=2.0))
    t = draw(st.floats(min_value=-100.0, max_value=100.0)) + dt * np.arange(n)
    if draw(st.booleans()):
        jitter = st.floats(min_value=-0.4 * DT_JITTER, max_value=0.4 * DT_JITTER)
        t = t + np.array(draw(st.lists(jitter, min_size=n, max_size=n)))
    values = st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=n, max_size=n)
    x, v = np.array(draw(values)), np.array(draw(values))
    tr = Trajectory(vehicle_id=0, t=t, x=x, v=v, a=np.zeros(n), dt=dt)
    i = draw(st.integers(min_value=0, max_value=n - 2))
    f = draw(st.floats(min_value=0.0, max_value=1.0))
    q = draw(st.sampled_from([t[i], t[i + 1], min(t[i] + f * (t[i + 1] - t[i]), t[i + 1])]))
    return tr, float(q), i


@settings(max_examples=300, deadline=None)
@given(_motion_and_interval())
def test_the_read_in_a_given_interval_is_np_interp_bit_for_bit(case):
    tr, q, i = case
    got = _state_in(tr, q, i)
    assert all(type(y) is float for y in got)
    assert _bits(*got) == _interp_bits(tr, q)


def test_the_read_in_a_given_interval_where_the_formula_is_not_np_interp():
    # a sample time gives the sample itself, also a negative zero, where the
    # formula would give 2 * 0.0 + -0.0 = +0.0
    t = 0.5 * np.arange(5)
    x = np.array([-0.0, 1.0, 3.0, 2.0, 5.0])
    v = np.array([2.0, 1.0, -0.0, 4.0, 4.0])
    tr = Trajectory(vehicle_id=0, t=t, x=x, v=v, a=np.zeros_like(t), dt=0.5)
    for k, q in enumerate(t):
        for i in {max(k - 1, 0), min(k, 3)}:   # as a left end and as a right end
            assert _bits(*_state_in(tr, q, i)) == _interp_bits(tr, q) == _bits(x[k], v[k])
    # an infinite sample, between two of which the formula gave inf - inf =
    # NaN where np.interp gives the infinity, is refused at construction
    x_inf = np.array([0.0, 1.0, np.inf, np.inf, 2.0])
    with pytest.raises(ValueError, match="^x must be finite, got inf$"):
        Trajectory(vehicle_id=0, t=t, x=x_inf, v=v, a=np.zeros_like(t), dt=0.5)
    # finite samples whose difference overflows give inf, as np.interp does
    x_big = np.array([0.0, -1.7e308, 1.7e308, -1.7e308, 2.0])
    tr = Trajectory(vehicle_id=0, t=t, x=x_big, v=v, a=np.zeros_like(t), dt=0.5)
    for q, i in ((0.7, 1), (1.0, 1), (1.2, 2), (1.5, 2), (1.7, 3)):
        assert _bits(*_state_in(tr, q, i)) == _interp_bits(tr, q)
    assert _state_in(tr, 0.7, 1)[0] == math.inf and _state_in(tr, 1.2, 2)[0] == -math.inf
    # a time on an interval's right end is the next sample, which the
    # formula on that interval misses by round-off on some intervals here
    t = 0.07 + 0.1 * np.arange(11)
    x = np.random.default_rng(1).uniform(-50.0, 50.0, t.size)
    tr = Trajectory(vehicle_id=0, t=t, x=x, v=x[::-1].copy(), a=np.zeros_like(t), dt=0.1)
    missed = 0
    for i in range(t.size - 1):
        formula = (x[i + 1] - x[i]) / (t[i + 1] - t[i]) * (t[i + 1] - t[i]) + x[i]
        missed += formula != x[i + 1]
        assert _bits(*_state_in(tr, t[i + 1], i)) == _bits(x[i + 1], x[-i - 2])
    assert missed


def test_the_tracer_reads_the_follower_in_the_interval_its_table_gives(monkeypatch):
    reads = []

    def spy(tr, t, i):
        reads.append((tr, t, i))
        return _state_in(tr, t, i)

    monkeypatch.setattr(tracker, "_state_in", spy)
    # cut-ins start some followers' tables past their first sample
    trajs, _, proposed, baseline, *_ = _case_run("four cut-ins")
    entries = [(tr.t, t, i) for tr, t, i in reads if tr is not trajs[0]]
    assert len(reads) - len(entries) == len(proposed) + len(baseline)   # one origin each
    # every read lies in the interval it is given; an entry or a crossing
    # lies on its right end only where round-off puts a crossing on the
    # next sample
    assert all(tr.t[i] <= t <= tr.t[i + 1] for tr, t, i in reads)
    assert sum(t == ts[i + 1] for ts, t, i in entries) < len(entries) / 100


def _far_crossing_pair(t_end=40.0, dt=0.01):
    """A lead at 10 m/s and a follower 60 m behind it, sampled every dt: a
    path of slope 7 m/s closes on the follower at 3 m/s and meets it 20 s,
    2,000 samples, after it leaves the lead."""
    t = np.arange(0.0, t_end + dt / 2, dt)
    lead = Trajectory(0, t, 100.0 + 10.0 * t, np.full(t.size, 10.0), np.zeros(t.size), dt)
    fol = Trajectory(1, t, 40.0 + 10.0 * t, np.full(t.size, 10.0), np.zeros(t.size), dt)
    return [lead, fol]


def test_a_crossing_thousands_of_knots_ahead_is_found_by_growing_windows():
    trajs = _far_crossing_pair()
    far = constant_speed_path(1.0, trajs, 7.0)
    (crossing,) = far.crossings
    assert crossing.t == pytest.approx(21.0, abs=1e-9) and not far.truncated
    # from t = 25 s the path would meet the follower at 45 s, after the
    # window ends at 40 s: the search runs through every window and stops
    late = constant_speed_path(25.0, trajs, 7.0)
    assert late.truncated and late.crossings == ()
    assert [far, late] == _table_oracle_paths(trajs, P, [far, late], 7.0)


def test_crossing_search_windows_double_from_the_entry():
    windows = []

    class Logged(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, slice):
                windows.append(len(range(*key.indices(len(self)))))
            return super().__getitem__(key)

    g = np.arange(10_000.0)[::-1].copy().view(Logged)   # g[i] = 9999 - i
    assert tracker._first_knot(g, 10, 5000.5) == 4999
    first = tracker._FIRST_WINDOW
    assert windows == [first * 2 ** m for m in range(len(windows))]
    assert sum(windows[:-1]) < 4999 - 10 < sum(windows)
    windows.clear()
    assert tracker._first_knot(g, 10, -1.0) == -1
    assert sum(windows) == g.size - 10
    assert windows[:-1] == [first * 2 ** m for m in range(len(windows) - 1)]
    windows.clear()
    assert tracker._first_knot(g, 10, 9000.0, above=True) == 10
    assert windows == [first]


# ---------------------------------------------------------------------------
# pair tables are shared by every path over one Platoon
# ---------------------------------------------------------------------------


class _SpyRule:
    """A constant speed rule that records the length of each array it is evaluated on."""

    def __init__(self, w):
        self.w, self.arrays = w, []

    def __call__(self, x_lead, v_lead, x_fol, v_fol):
        if np.ndim(x_fol):
            self.arrays.append(len(x_fol))
        return np.full(np.shape(x_fol), self.w)


def test_each_pair_table_is_built_once_per_platoon():
    trajs = _cruise_platoon()
    platoon, spy = Platoon(trajs), _SpyRule(lwr_baseline_speed(P))
    origins = np.arange(2.0, 20.0, 0.5)
    paths = [_trace_from_lead(t_o, platoon, spy, PathKind.CONSTANT_SPEED) for t_o in origins]
    assert all(len(p.crossings) == 3 for p in paths)
    # one table per pair, on the follower's samples (the last one is the window end)
    assert spy.arrays == [len(tr.t) for tr in trajs[1:]]
    # the same paths as the public constant-speed path, which takes its own rule
    assert paths == [constant_speed_path(t_o, platoon, spy.w) for t_o in origins]


def _assert_table_equals_the_appended_one(lead, fol, rule):
    tab, ref = tracker._pair_table(lead, fol, rule), appended_pair_table(lead, fol, rule)
    for got, want in zip(tab, ref):
        assert np.asarray(got).dtype == np.asarray(want).dtype and np.array_equal(got, want)
    return tab


@pytest.mark.parametrize("lead_ends", ["with the follower", "on a follower sample"])
def test_pair_table_knots_borrow_the_follower_samples_when_the_window_ends_on_one(lead_ends):
    lead, fol = _cruise_platoon()[:2]
    if lead_ends == "on a follower sample":
        lead = Trajectory(lead.vehicle_id, lead.t[:1500], lead.x[:1500], lead.v[:1500],
                          lead.a[:1500], lead.dt)
    tab = _assert_table_equals_the_appended_one(lead, fol, _Characteristic(P))
    assert tab.t[-1] == lead.t_end
    assert np.shares_memory(tab.t, fol.t)


def test_pair_table_knots_are_a_copy_when_the_lead_ends_between_follower_samples():
    # a lead on a clock half a step off the follower's starts and ends
    # between follower samples
    fol = _const_speed_traj(1, 0.0, 10.0)
    t = 0.005 + 0.01 * np.arange(1500)
    lead = Trajectory(0, t, 30.0 + 10.0 * t, np.full_like(t, 10.0), np.zeros_like(t), 0.01)
    tab = _assert_table_equals_the_appended_one(lead, fol, _Characteristic(P))
    assert fol.t[tab.first - 1] < tab.t_lo < fol.t[tab.first]
    assert tab.t[-1] == lead.t_end and lead.t_end not in fol.t
    assert not np.shares_memory(tab.t, fol.t)


def test_characteristic_tables_are_shared_across_origins(monkeypatch):
    evaluations = []

    def counting(x_lead, v_lead, x_fol, v_fol, params):
        evaluations.append(np.ndim(x_fol))
        return wave_speed(x_lead, v_lead, x_fol, v_fol, params)

    wave_speed = tracker._wave_speed
    monkeypatch.setattr(tracker, "_wave_speed", counting)
    trajs = _cruise_platoon()
    origins = np.arange(2.0, 20.0, 0.5)
    proposed, _ = trace_methods(origins, trajs, P)
    # one array evaluation per pair for all origins; one scalar per entry
    assert evaluations.count(1) == len(trajs) - 1
    assert evaluations.count(0) == sum(len(p.crossings) for p in proposed)
    # a bare list is wrapped for one call only, so each call builds its own
    evaluations.clear()
    for t_o in origins[:3]:
        trace_characteristic_path(t_o, trajs, P)
    assert evaluations.count(1) == 3 * (len(trajs) - 1)
    assert _Characteristic(P) == _Characteristic(P) != _Constant(-4.0)
