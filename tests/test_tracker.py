"""Tests for disturbance-path tracing: characteristic, baseline, shock,
and engagement-front paths over platoon trajectories."""

import dataclasses
import math
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accwave.microsim import (
    ConstAccel,
    Cruise,
    CutIn,
    EngagementEvent,
    LeaderProfile,
    Oscillate,
    Scenario,
    Trajectory,
    detect_engagement,
    first_down_crossing,
    simulate_platoon,
)
from accwave.model import ControlParams, TrafficState
from accwave.scenarios import case_scenario, run_case
from accwave.tracker import (
    Crossing,
    DegenerateJumpError,
    PathKind,
    ShockSegment,
    WavePath,
    _trace,
    constant_speed_path,
    engagement_front,
    engagement_path,
    lwr_baseline_speed,
    pair_wave_speed,
    shock_speed,
    trace_characteristic_path,
    trace_phase_transition,
)

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
    with pytest.raises(ValueError):
        trace_characteristic_path(50.0, trajs, P)
    with pytest.raises(ValueError):
        constant_speed_path(-1.0, trajs, -4.0)


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


def test_shock_segment_validation():
    left = TrafficState(1.0 / 23.0, 15.0)
    right = TrafficState(1.0 / 17.0, 10.0)
    seg = ShockSegment(left, right, shock_speed(left, right), (0.0, 10.0))
    assert seg.speed == pytest.approx(-25.0 / 6.0, rel=1e-12)
    with pytest.raises(DegenerateJumpError):
        ShockSegment(left, left, -1.0, (0.0, 10.0))


# ---------------------------------------------------------------------------
# engagement fronts
# ---------------------------------------------------------------------------


def test_engagement_front_hand_oracle():
    ev = (EngagementEvent(1, 10.0, 100.0), EngagementEvent(2, 12.0, 80.0))
    front = engagement_front(ev)
    # chord through (10, 100) and (12, 80): slope -10 m/s
    assert front.segment_speeds == pytest.approx((-10.0,))
    assert not front.has_infinite_segment


def test_engagement_front_coincident_times_flagged_infinite():
    ev = (EngagementEvent(1, 10.0, 100.0), EngagementEvent(2, 10.0, 90.0))
    front = engagement_front(ev)
    assert math.isinf(front.segment_speeds[0])
    assert front.has_infinite_segment


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


def test_phase_transition_without_engagement_is_empty():
    trajs = _cruise_platoon()  # starts congested: nothing to engage
    pt = trace_phase_transition(trajs, P, v_e=10.0)
    assert pt.events == ()
    assert pt.front is None and pt.engagement is None and pt.shock is None
    assert pt.characteristics == () and pt.t_complete is None
    assert pt.paths() == []


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


def _oracle_paths(trajs, params, paths, w_base, transition=None, substeps=1):
    """Re-trace each path with the Euler oracle, using the same rule, start
    and terminator as the production call that made it."""
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
        out.append(_euler_trace(path.origin_t, path.origin_x, path.origin_v, trajs,
                                first_target, rule, path.kind, term, substeps))
    return out


def _crossing_differences(paths, oracle):
    """Largest |dt|, |dx|, |dv| over matching crossings; the paths must cross
    the same vehicles and agree on truncation."""
    worst = np.zeros(3)
    for path, ref in zip(paths, oracle):
        assert path.truncated == ref.truncated, path.origin_t
        assert [c.vehicle_id for c in path.crossings] == [c.vehicle_id for c in ref.crossings]
        for c, r in zip(path.crossings, ref.crossings):
            worst = np.maximum(worst, np.abs(np.subtract((c.t, c.x, c.v), (r.t, r.x, r.v))))
    return worst


def _cut_in_run():
    """Case-1 platoon with a cut-in ahead of follower 3 at t = 20 s; paths
    launched after it reach the merged vehicle inside its shorter window."""
    sc = dataclasses.replace(case_scenario(1), cut_ins=(CutIn(time=20.0, gap=8.0, ahead_of=3),))
    trajs = simulate_platoon(sc).trajectories
    assert trajs[3].t0 == pytest.approx(20.0)
    origins = np.arange(19.0, 50.0, 1.0)
    w_base = lwr_baseline_speed(sc.params)
    proposed = [trace_characteristic_path(t_o, trajs, sc.params) for t_o in origins]
    baseline = [constant_speed_path(t_o, trajs, w_base) for t_o in origins]
    return trajs, sc.params, proposed, baseline, w_base, None


def _case_run(case):
    if case == "cut-in":
        return _cut_in_run()
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

    lead = trajs[0]
    paths, oracle = [], []
    for t_o in np.arange(14.0, 24.0, 0.1):
        start = (t_o, float(lead.position_at(t_o)), float(lead.speed_at(t_o)), trajs, 1, rule,
                 PathKind.CHARACTERISTIC, overtaken)
        paths.append(_trace(*start))
        oracle.append(_euler_trace(*start))
    assert {len(p.crossings) for p in paths if p.truncated} == {0, 1, 2, 3}
    d_t, d_x, d_v = _crossing_differences(paths, oracle)
    assert d_t <= 4.0 * trajs[0].dt


def test_euler_oracle_converges_to_tracer_as_its_step_shrinks():
    # same trajectories, oracle marching at dt/4: the difference to the
    # production tracer shrinks about fourfold, so it is the oracle's error
    trajs, params, proposed, _, w_base, _ = _case_run(3)
    coarse = _crossing_differences(proposed, _oracle_paths(trajs, params, proposed, w_base))
    fine = _crossing_differences(proposed, _oracle_paths(trajs, params, proposed, w_base, substeps=4))
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
