"""Tests for disturbance-path tracing: characteristic, baseline, shock,
and engagement-front paths over platoon trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accwave.microsim import (
    ConstAccel,
    Cruise,
    EngagementEvent,
    LeaderProfile,
    Oscillate,
    Scenario,
    Trajectory,
    detect_engagement,
    simulate_platoon,
)
from accwave.model import ControlParams, TrafficState
from accwave.tracker import (
    LWR_BASELINE_SPEED,
    DegenerateJumpError,
    PathKind,
    ShockSegment,
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
    assert LWR_BASELINE_SPEED == lwr_baseline_speed(ControlParams())


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
def test_shock_between_congested_equilibria_moves_at_baseline_speed(s_left, s_right):
    # both states on the congested branch v = (s - L)/tau: the chord slope
    # of q(rho) = (1 - rho*L)/tau is -L/tau regardless of the endpoints
    if abs(s_left - s_right) < 1e-6:
        return
    left = TrafficState(1.0 / s_left, P.equilibrium_speed(s_left))
    right = TrafficState(1.0 / s_right, P.equilibrium_speed(s_right))
    assert shock_speed(left, right) == pytest.approx(-P.L / P.tau, rel=1e-12)


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
