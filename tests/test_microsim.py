"""Platoon simulation engine: leaders, followers, cut-ins, rings, engagement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accwave.microsim import (
    CollisionError,
    ConstAccel,
    Cruise,
    CutIn,
    LeaderProfile,
    Oscillate,
    OscillationSpec,
    PairErrorState,
    PiecewiseConstantAccel,
    Scenario,
    Trajectory,
    detect_engagement,
    first_down_crossing,
    leader_motion,
    pair_state_analytic,
    ring_setup,
    simulate_platoon,
    spacing_analytic,
)
from accwave.model import ControlParams
from accwave.waves import follower_motion_closed_form

P = ControlParams()
OMEGA_1 = 0.16 * math.pi


def test_leader_motion_exact_kinematics():
    spec = OscillationSpec(v_e=10.0, modes=((20.0, OMEGA_1, 0.0),))
    t = np.linspace(0.0, 30.0, 301)
    x, v, a = leader_motion(spec, t)
    assert np.allclose(x, 10.0 * t + 20.0 * np.sin(OMEGA_1 * t))
    assert np.allclose(v, 10.0 + 20.0 * OMEGA_1 * np.cos(OMEGA_1 * t))
    assert np.allclose(a, -20.0 * OMEGA_1**2 * np.sin(OMEGA_1 * t))


def test_mode_validation():
    with pytest.raises(ValueError):
        OscillationSpec(v_e=10.0, modes=((-1.0, 1.0, 0.0),))
    with pytest.raises(ValueError):
        OscillationSpec(v_e=10.0, modes=((1.0, 0.0, 0.0),))


@settings(max_examples=100, deadline=None)
@given(
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    field=st.sampled_from(["v_e", "A", "omega", "phi"]),
)
def test_oscillation_spec_rejects_non_finite_fields(bad, field):
    mode = {"A": 2.0, "omega": OMEGA_1, "phi": 0.5}
    v_e = 10.0
    if field == "v_e":
        v_e = bad
    else:
        mode[field] = bad
    with pytest.raises(ValueError):
        OscillationSpec(v_e=v_e, modes=((mode["A"], mode["omega"], mode["phi"]),))


@settings(max_examples=200, deadline=None)
@given(
    n_steps=st.integers(min_value=1, max_value=200_000),
    dt=st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.1, 0.25]),
    frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
def test_scenario_duration_must_be_a_whole_number_of_steps(n_steps, dt, frac):
    spec = OscillationSpec(v_e=10.0)
    sc = Scenario(params=P, n_followers=1, leader=spec, duration=n_steps * dt, dt=dt)
    assert round(sc.duration / sc.dt) == n_steps
    with pytest.raises(ValueError, match="integer multiple"):
        Scenario(params=P, n_followers=1, leader=spec, duration=(n_steps + frac) * dt, dt=dt)


@pytest.mark.parametrize("duration,dt", [(599.9, 0.1), (599.9, 0.05), (599.9, 0.01), (60.0, 0.01)])
def test_scenario_accepts_recorded_and_case_windows(duration, dt):
    Scenario(params=P, n_followers=1, leader=OscillationSpec(v_e=10.0), duration=duration, dt=dt)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(params=P, n_followers=4, leader=None, duration=10.0)
    with pytest.raises(ValueError):
        Scenario(params=P, n_followers=4, leader=OscillationSpec(10.0), duration=10.0,
                 topology="moebius")
    with pytest.raises(ValueError):
        Scenario(params=P, n_followers=4, leader=None, duration=10.0, topology="ring")


def test_equilibrium_platoon_is_a_fixed_point():
    """Followers seeded on the equilibrium manifold must stay there."""
    spec = OscillationSpec(v_e=10.0)
    sc = Scenario(params=P, n_followers=4, leader=spec, duration=20.0, dt=0.01)
    res = simulate_platoon(sc)
    for lead, fol in zip(res.trajectories, res.trajectories[1:]):
        gap = lead.x - fol.x
        assert np.max(np.abs(gap - 17.0)) < 1e-10
        assert np.max(np.abs(fol.v - 10.0)) < 1e-10


def test_follower_converges_to_closed_form_steady_state():
    spec = OscillationSpec(v_e=10.0, modes=((20.0, OMEGA_1, 0.0),))
    sc = Scenario(params=P, n_followers=4, leader=spec, duration=60.0, dt=0.002)
    res = simulate_platoon(sc)
    t = np.arange(45.0, 57.5, 0.01)  # one period, past the transient
    for n in (1, 2, 3, 4):
        _, v_exact = follower_motion_closed_form(n, spec, P, t)
        v_sim = res.trajectories[n].speed_at(t)
        rms = math.sqrt(float(np.mean((v_sim - v_exact) ** 2)))
        assert rms < 0.01, f"follower {n} deviates rms={rms}"


def test_trajectories_in_platoon_order_with_correct_ids():
    spec = OscillationSpec(v_e=10.0)
    res = simulate_platoon(Scenario(params=P, n_followers=3, leader=spec, duration=5.0))
    assert [tr.vehicle_id for tr in res.trajectories] == [0, 1, 2, 3]
    x0 = [tr.x[0] for tr in res.trajectories]
    assert all(a > b for a, b in zip(x0, x0[1:]))


def test_leader_profile_continuity():
    prof = LeaderProfile(
        v0=15.0,
        phases=(Cruise(duration=5.0), ConstAccel(duration=4.0, accel=-1.0),
                Oscillate(duration=None, modes=((3.0, 0.5, 0.25),))),
    )
    sc = Scenario(params=P, n_followers=2, leader=prof, duration=30.0, dt=0.01,
                  initial_gaps=40.0, initial_speeds=15.0)
    res = simulate_platoon(sc)
    lead = res.trajectories[0]
    # speed continuous at phase joints (5 s, 9 s): compare one-sided samples
    for t_joint in (5.0, 9.0):
        before = lead.speed_at(t_joint - 1e-6)
        after = lead.speed_at(t_joint + 1e-6)
        assert after == pytest.approx(before, abs=1e-3)
    # position strictly increasing while speed stays positive
    assert np.all(np.diff(lead.x) > 0)


def test_leader_profile_only_last_phase_open_ended():
    with pytest.raises(ValueError):
        LeaderProfile(v0=10.0, phases=(Cruise(duration=None), Cruise(duration=1.0)))


def test_profile_shorter_than_scenario_rejected():
    prof = LeaderProfile(v0=10.0, phases=(Cruise(duration=3.0),))
    sc = Scenario(params=P, n_followers=2, leader=prof, duration=10.0)
    with pytest.raises(ValueError):
        simulate_platoon(sc)


def test_cut_in_vehicle_joins_with_requested_gap_and_speed():
    spec = OscillationSpec(v_e=10.0)
    cut = CutIn(time=5.0, gap=10.0, ahead_of=2)
    sc = Scenario(params=P, n_followers=4, leader=spec, duration=30.0, dt=0.01,
                  cut_ins=(cut,))
    res = simulate_platoon(sc)
    assert len(res.trajectories) == 6
    # platoon order: 0, 1, new, 2, 3, 4 -- the merged vehicle gets id 5
    ids = [tr.vehicle_id for tr in res.trajectories]
    assert ids == [0, 1, 5, 2, 3, 4]
    new = res.trajectories[2]
    ahead = res.trajectories[1]
    behind = res.trajectories[3]
    k = int(round((5.0 - new.t0) / new.dt))
    assert ahead.position_at(new.t[k]) - new.x[k] == pytest.approx(10.0, abs=1e-9)
    assert new.v[k] == pytest.approx(float(behind.speed_at(new.t[k])), abs=1e-9)
    # after the transient the platoon re-equilibrates at spacing 17
    gap_end = ahead.x[-1] - new.x[-1]
    assert gap_end == pytest.approx(17.0, abs=0.05)


def test_collision_raises():
    # leader brakes to a stop while the follower starts far too fast
    prof = LeaderProfile(v0=10.0, phases=(ConstAccel(duration=5.0, accel=-2.0),
                                          Cruise(duration=None)))
    sc = Scenario(params=ControlParams(tau=1.2, L=5.0, k_s=0.05, k_v=0.05),
                  n_followers=1, leader=prof, duration=30.0, dt=0.01,
                  initial_speeds=25.0, initial_gaps=6.0)
    with pytest.raises(CollisionError):
        simulate_platoon(sc)


def test_ring_setup_total_length_and_descending_positions():
    speeds = np.array([10.0, 9.0, 11.0, 10.0])
    L_x, x0 = ring_setup(4, P, speeds)
    gaps = P.desired_spacing(speeds)
    assert L_x == pytest.approx(float(np.sum(gaps)))
    assert x0[0] == 0.0
    assert all(a > b for a, b in zip(x0, x0[1:]))
    with pytest.raises(ValueError):
        ring_setup(1, P, speeds[:1])


def test_ring_platoon_conserves_vehicle_count_and_length():
    speeds = 10.0 + 2.0 * np.sin(2 * np.pi * np.arange(12) / 12)
    sc = Scenario(params=P, n_followers=12, leader=None, duration=30.0, dt=0.01,
                  topology="ring", initial_speeds=speeds)
    res = simulate_platoon(sc)
    assert len(res.trajectories) == 12
    assert res.ring_length is not None
    # total occupied length (sum of wrapped gaps) is invariant
    x_end = np.array([tr.x[-1] for tr in res.trajectories])
    lead = np.empty_like(x_end)
    lead[1:] = x_end[:-1]
    lead[0] = x_end[-1] + res.ring_length
    assert np.sum(lead - x_end) == pytest.approx(res.ring_length, rel=1e-12)


def test_uniform_ring_is_steady():
    speeds = np.full(8, 10.0)
    sc = Scenario(params=P, n_followers=8, leader=None, duration=10.0, dt=0.01,
                  topology="ring", initial_speeds=speeds)
    res = simulate_platoon(sc)
    for tr in res.trajectories:
        assert np.max(np.abs(tr.v - 10.0)) < 1e-12


# ---------------------------------------------------------------------------
# Pair error dynamics (closed form)
# ---------------------------------------------------------------------------

def test_pair_state_decays_to_zero_without_forcing():
    z0 = PairErrorState(e_s=2.0, e_v=-1.0)
    z = pair_state_analytic(z0, None, 0.0, 60.0, P)
    assert abs(z.e_s) < 1e-8 and abs(z.e_v) < 1e-8


def test_pair_state_matches_numerical_integration():
    z0 = PairErrorState(e_s=1.5, e_v=0.5)
    prof = PiecewiseConstantAccel(times=(0.0, 2.0, 4.0), values=(-1.0, 0.5, 0.0))
    t_end = 6.0
    # reference: RK4 on z' = A z + D a, run segment by segment so the
    # acceleration jumps never fall inside a step
    A = np.array([[-P.tau * P.k_s, 1 - P.tau * P.k_v], [-P.k_s, -P.k_v]])
    D = np.array([0.0, 1.0])
    z = np.array([1.5, 0.5])
    for t_a, t_b, a in ((0.0, 2.0, -1.0), (2.0, 4.0, 0.5), (4.0, 6.0, 0.0)):
        steps = 4000
        h = (t_b - t_a) / steps

        def f(zz):
            return A @ zz + D * a

        for _ in range(steps):
            k1 = f(z)
            k2 = f(z + h / 2 * k1)
            k3 = f(z + h / 2 * k2)
            k4 = f(z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    got = pair_state_analytic(z0, prof, 0.0, t_end, P)
    assert got.e_s == pytest.approx(z[0], abs=1e-10)
    assert got.e_v == pytest.approx(z[1], abs=1e-10)


def test_spacing_analytic_equilibrium_is_constant():
    z0 = PairErrorState(e_s=0.0, e_v=0.0)
    s = spacing_analytic(z0, None, 10.0, 0.0, 12.0, P)
    assert s == pytest.approx(P.desired_spacing(10.0), rel=1e-14)


def test_pair_state_rejects_backward_time():
    with pytest.raises(ValueError):
        pair_state_analytic(PairErrorState(0.0, 0.0), None, 5.0, 1.0, P)


# ---------------------------------------------------------------------------
# Engagement detection
# ---------------------------------------------------------------------------

def test_engagement_time_matches_analytic_root():
    """Constant leader deceleration from a free-flow approach.

    With gap(t) = g0 - 0.5*b*t^2 while both drive at v_f, the critical
    spacing s_c is reached at t* = sqrt(2*(g0 - s_c)/b); for g0 = 33.6,
    b = 1.0, s_c = 23 that is sqrt(21.2).
    """
    g0, b = 33.6, 1.0
    prof = LeaderProfile(v0=P.v_f, phases=(ConstAccel(duration=6.0, accel=-b),
                                           Cruise(duration=None)))
    sc = Scenario(params=P, n_followers=1, leader=prof, duration=12.0, dt=0.01,
                  initial_speeds=P.v_f, initial_gaps=g0)
    res = simulate_platoon(sc)
    events = detect_engagement(res.trajectories, P)
    assert len(events) == 1
    t_star = events[0].t_star
    # the root is exact for the gap interpolated linearly between samples;
    # the chord of the concave gap errs by at most dt^2/(8 t*) = 2.7e-6 s
    assert t_star == pytest.approx(math.sqrt(21.2), abs=3e-6)


def _bisection_root(t, y, level, tol=1e-15):
    """Oracle: bisect the piecewise-linear interpolant over its whole span."""
    lo, hi = t[0], t[-1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.interp(mid, t, y) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("t, y, level", [
    ([0.0, 0.3, 1.0], [2.0, 1.2, -0.5], 0.0),      # root after the kink
    ([0.0, 0.3, 1.0], [1.0, -0.2, -3.0], 0.0),     # root before the kink
    ([2.0, 2.7, 3.1, 4.0], [30.0, 27.5, 26.9, 20.0], 27.0),
])
def test_first_down_crossing_matches_bisection(t, y, level):
    root = first_down_crossing(np.array(t), np.array(y), level)
    assert root == pytest.approx(_bisection_root(t, y, level), abs=1e-12)


def test_first_down_crossing_needs_a_crossing_from_above():
    t = np.array([0.0, 1.0, 2.0])
    assert first_down_crossing(t, np.array([3.0, 2.0, 1.5]), 1.0) is None
    assert first_down_crossing(t, np.array([0.5, 2.0, 0.0]), 1.0) is None
    assert first_down_crossing(t, np.array([3.0, 1.0, 0.0]), 1.0) == 1.0


def test_engagement_skips_pairs_already_engaged():
    spec = OscillationSpec(v_e=10.0)
    sc = Scenario(params=P, n_followers=2, leader=spec, duration=5.0)
    res = simulate_platoon(sc)  # equilibrium spacing 17 < s_c: engaged from t=0
    assert detect_engagement(res.trajectories, P) == []


def test_trajectory_interpolation_round_trip():
    t = np.arange(0.0, 1.0, 0.1)
    tr = Trajectory(vehicle_id=0, t=t, x=3.0 * t, v=np.full_like(t, 3.0),
                    a=np.zeros_like(t), dt=0.1)
    assert tr.position_at(0.55) == pytest.approx(1.65)
    assert tr.covers(0.9) and not tr.covers(1.5)
    with pytest.raises(ValueError):
        Trajectory(vehicle_id=0, t=t[:1], x=t[:1], v=t[:1], a=t[:1], dt=0.1)
