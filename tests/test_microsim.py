"""Platoon simulation engine: leaders, followers, cut-ins, rings, engagement."""

import dataclasses
import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accwave.microsim import (
    DT_JITTER,
    CollisionError,
    ConstAccel,
    Cruise,
    CutIn,
    LeaderProfile,
    Oscillate,
    OscillationSpec,
    PairErrorState,
    PiecewiseConstantAccel,
    PlatoonResult,
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
from accwave.microsim import _leader_arrays, _leader_initial_speed, _step_maps
from accwave.model import ControlParams, acc_acceleration
from accwave.scenarios import case_scenario, ring_scenario
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
    # exact to the Hermite input: even at dt = 0.05 the samples past the
    # transient match the closed form to 1e-5 m/s (the Euler loop: 5.5e-2)
    spec = OscillationSpec(v_e=10.0, modes=((20.0, OMEGA_1, 0.0),))
    sc = Scenario(params=P, n_followers=4, leader=spec, duration=60.0, dt=0.05)
    res = simulate_platoon(sc)
    for n in (1, 2, 3, 4):
        tr = res.trajectories[n]
        sel = (tr.t >= 45.0) & (tr.t <= 57.5)  # one period, past the transient
        _, v_exact = follower_motion_closed_form(n, spec, P, tr.t[sel])
        err = float(np.max(np.abs(tr.v[sel] - v_exact)))
        assert err < 1e-5, f"follower {n} deviates by {err}"


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
    fol = res.trajectories[1]
    t_star = math.sqrt(21.2)
    # the follower cruises exactly up to the root and brakes from the step holding it
    before = fol.t < t_star
    assert np.array_equal(fol.a[before], np.zeros(np.count_nonzero(before)))
    assert np.allclose(fol.x[before], fol.x[0] + P.v_f * fol.t[before], rtol=0, atol=1e-12)
    assert np.all(fol.a[~before] < 0)
    events = detect_engagement(res.trajectories, P)
    assert len(events) == 1
    # the detected root is that of the gap's cubic Hermite on the step
    # holding t*.  The gap's curvature jumps there from -b to k_v*b*t* - b
    # = 5.45 m/s^2, by J = k_v*b*t* = 6.45, as the follower brakes; with the
    # root at u dt into the step, the Hermite errs at it by J dt^2 u^2
    # (1 - u)^2 |1/2 - u| <= 0.0089 J dt^2, so t* by at most
    # 0.0089 J dt^2 / (b t*) = 1.3e-6 s (5.6e-7 s at this root, u = 0.43)
    assert events[0].t_star == pytest.approx(t_star, abs=1.3e-6)


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


def test_recorded_leader_position_is_exact_between_samples():
    """A leader whose speed is linear between its samples moves on a
    quadratic over each step, which the cubic Hermite of the recorded
    (x, v) reproduces: resampled at dt/2, x is exact to round-off."""
    prof = LeaderProfile(v0=12.0, phases=(ConstAccel(2.0, -1.5), Cruise(1.0),
                                          ConstAccel(3.0, 0.8), Cruise(None)))
    dt = 0.25
    t = np.arange(33) * dt
    rec = Trajectory(0, t, *_leader_arrays(prof, t), dt=dt)
    fine = np.arange(65) * (dt / 2)
    x, v, _ = _leader_arrays(rec, fine)
    x_true, v_true, _ = _leader_arrays(prof, fine)
    assert np.max(np.abs(x - x_true)) < 1e-12
    assert np.max(np.abs(v - v_true)) < 1e-12
    assert np.array_equal(x[:-1:2], rec.x[:-1])   # the samples themselves, bit for bit


def test_trajectory_interpolation_round_trip():
    t = np.arange(0.0, 1.0, 0.1)
    tr = Trajectory(vehicle_id=0, t=t, x=3.0 * t, v=np.full_like(t, 3.0),
                    a=np.zeros_like(t), dt=0.1)
    assert tr.position_at(0.55) == pytest.approx(1.65)
    assert tr.covers(0.9) and not tr.covers(1.5)
    with pytest.raises(ValueError):
        Trajectory(vehicle_id=0, t=t[:1], x=t[:1], v=t[:1], a=t[:1], dt=0.1)


def test_trajectory_dt_must_match_sample_steps():
    t = np.arange(11) * 0.1
    z = np.zeros_like(t)
    Trajectory(vehicle_id=0, t=t, x=z, v=z, a=z, dt=0.1 + 0.5 * DT_JITTER)
    for dt in (0.05, 0.1 + 2 * DT_JITTER, 0.2):
        with pytest.raises(ValueError, match="does not match sample step"):
            Trajectory(vehicle_id=0, t=t, x=z, v=z, a=z, dt=dt)
    jittered = t + np.r_[0.0, 3 * DT_JITTER, np.zeros(9)]
    with pytest.raises(ValueError, match="sample step 0"):
        Trajectory(vehicle_id=0, t=jittered, x=z, v=z, a=z, dt=0.1)


# ---------------------------------------------------------------------------
# The exact propagator against the Euler loops it replaced
# ---------------------------------------------------------------------------

# Oracles: the semi-implicit Euler open-road and ring loops, kept verbatim
# (names aside).  One run, one parameter set.  The exact propagator
# converges to them at first order in dt, the loops' own error.

def _oracle_open(sc: Scenario) -> PlatoonResult:
    p = sc.params
    n_steps = int(round(sc.duration / sc.dt))
    times = np.arange(n_steps + 1) * sc.dt
    lx, lv, la = _leader_arrays(sc.leader, times)

    n_f = sc.n_followers
    v0_lead = _leader_initial_speed(sc.leader)
    if sc.initial_speeds is None:
        init_v = np.full(n_f, v0_lead)
    else:
        init_v = np.broadcast_to(np.asarray(sc.initial_speeds, dtype=float), (n_f,)).copy()
    if sc.initial_gaps is None:
        init_gaps = p.tau * init_v + p.L
    else:
        init_gaps = np.broadcast_to(np.asarray(sc.initial_gaps, dtype=float), (n_f,)).copy()

    # Column layout: original followers 0..n_f-1, cut-in vehicles appended.
    cut_ins = sorted(sc.cut_ins, key=lambda c: c.time)
    cut_steps = [int(round(c.time / sc.dt)) for c in cut_ins]
    for c, k in zip(cut_ins, cut_steps):
        if not (0 < k < n_steps):
            raise ValueError(f"cut-in time {c.time} outside the scenario window")
        if not (1 <= c.ahead_of <= n_f):
            raise ValueError(f"cut-in ahead_of must name a follower 1..{n_f}")

    n_cols = n_f + len(cut_ins)
    X = np.full((n_steps + 1, n_cols), np.nan)
    V = np.full((n_steps + 1, n_cols), np.nan)
    A = np.full((n_steps + 1, n_cols), np.nan)

    x = np.empty(n_f)
    x[0] = lx[0] - init_gaps[0]
    for i in range(1, n_f):
        x[i] = x[i - 1] - init_gaps[i]
    v = init_v.copy()

    # order maps platoon position (front to rear, followers only) -> column
    order: List[int] = list(range(n_f))
    born = [0] * n_f
    X[0, :n_f], V[0, :n_f] = x, v

    active_x = x
    active_v = v
    pending = list(zip(cut_ins, cut_steps, range(n_f, n_cols)))

    for k in range(n_steps + 1):
        lead_pos = np.empty(len(order))
        lead_spd = np.empty(len(order))
        lead_pos[0], lead_spd[0] = lx[k], lv[k]
        lead_pos[1:] = active_x[:-1]
        lead_spd[1:] = active_v[:-1]
        gaps = lead_pos - active_x
        try:
            acc = acc_acceleration(gaps, active_v, lead_spd, p, sc.eps_v)
        except ValueError:  # raised for a non-positive spacing
            raise CollisionError(times[k], int(np.argmax(gaps <= 0))) from None
        A[k, order] = acc
        if k == n_steps:
            break
        active_v = active_v + sc.dt * acc
        active_x = active_x + sc.dt * active_v
        X[k + 1, order] = active_x
        V[k + 1, order] = active_v

        while pending and pending[0][1] == k + 1:
            cut, _, col = pending.pop(0)
            pos_in_order = cut.ahead_of - 1  # insert ahead of this follower
            new_leader_pos = lx[k + 1] if pos_in_order == 0 else active_x[pos_in_order - 1]
            new_x = new_leader_pos - cut.gap
            new_v = active_v[pos_in_order]
            active_x = np.insert(active_x, pos_in_order, new_x)
            active_v = np.insert(active_v, pos_in_order, new_v)
            order.insert(pos_in_order, col)
            born.append(k + 1)
            X[k + 1, col] = new_x
            V[k + 1, col] = new_v

    trajs: List[Trajectory] = [
        Trajectory(vehicle_id=0, t=times, x=lx, v=lv, a=la, dt=sc.dt)
    ]
    for pos, col in enumerate(order):
        b = born[col]
        trajs.append(
            Trajectory(
                vehicle_id=col + 1,
                t=times[b:],
                x=X[b:, col],
                v=V[b:, col],
                a=A[b:, col],
                dt=sc.dt,
            )
        )
    return PlatoonResult(trajectories=trajs, ring_length=None)


def _oracle_ring(sc: Scenario) -> PlatoonResult:
    p = sc.params
    init_v = np.asarray(sc.initial_speeds, dtype=float)
    n = len(init_v)
    if n < 2:
        raise ValueError("ring needs at least two vehicles")
    L_x, x0 = ring_setup(n, p, init_v)
    n_steps = int(round(sc.duration / sc.dt))
    times = np.arange(n_steps + 1) * sc.dt

    X = np.empty((n_steps + 1, n))
    V = np.empty((n_steps + 1, n))
    A = np.empty((n_steps + 1, n))
    x = x0.copy()
    v = init_v.copy()
    X[0], V[0] = x, v

    for k in range(n_steps + 1):
        lead_pos = np.empty(n)
        lead_spd = np.empty(n)
        lead_pos[1:] = x[:-1]
        lead_spd[1:] = v[:-1]
        lead_pos[0] = x[-1] + L_x
        lead_spd[0] = v[-1]
        gaps = lead_pos - x
        try:
            acc = acc_acceleration(gaps, v, lead_spd, p, sc.eps_v)
        except ValueError:  # raised for a non-positive spacing
            raise CollisionError(times[k], int(np.argmax(gaps <= 0))) from None
        A[k] = acc
        if k == n_steps:
            break
        v = v + sc.dt * acc
        x = x + sc.dt * v
        X[k + 1], V[k + 1] = x, v

    trajs = [
        Trajectory(vehicle_id=i, t=times, x=X[:, i], v=V[:, i], a=A[:, i], dt=sc.dt)
        for i in range(n)
    ]
    return PlatoonResult(trajectories=trajs, ring_length=L_x)


def _assert_same_vehicles(got: List[Trajectory], want: List[Trajectory]) -> None:
    """Same vehicle order and ids, and the same sample times (so the same cut-in birth steps)."""
    assert [tr.vehicle_id for tr in got] == [tr.vehicle_id for tr in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.t, w.t), g.vehicle_id


def _max_dv(got: List[Trajectory], want: List[Trajectory], t_from: float = 0.0, step: int = 1) -> float:
    """Largest speed difference on shared samples from t_from on; `want` may sample `step` times finer."""
    return max(float(np.max(np.abs(g.v - w.v[::step])[g.t >= t_from])) for g, w in zip(got, want))


def _loop_error_halves_with_dt(make, dts, t_from: float = 0.0) -> None:
    """The Euler loop minus the exact propagator: first order, 1.8-2.2x smaller per halving of dt."""
    errs = []
    for dt in dts:
        sc = make(dt)
        got, want = simulate_platoon(sc).trajectories, _oracle_open(sc).trajectories
        _assert_same_vehicles(got, want)
        errs.append(_max_dv(got, want, t_from))
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    assert all(1.8 <= r <= 2.2 for r in ratios), (errs, ratios)


BATCH = (
    ControlParams(),
    ControlParams(tau=0.9, L=4.0, k_s=0.5, k_v=1.1, v_f=14.0),
    ControlParams(tau=1.6, L=6.5, k_s=1.2, k_v=0.6, v_f=20.0),
    ControlParams(tau=1.1, L=5.5, k_s=0.3, k_v=2.0),
)


def _batch_matches_single_runs(sc: Scenario) -> None:
    """Each run of a batch is bit-identical to simulating that run alone."""
    res = simulate_platoon(dataclasses.replace(sc, params=BATCH))
    assert res.runs == len(BATCH)
    for r, p in enumerate(BATCH):
        alone = simulate_platoon(dataclasses.replace(sc, params=p)).trajectories
        _assert_same_vehicles(res.run(r), alone)
        for g, w in zip(res.run(r), alone):
            for field in ("x", "v", "a"):
                assert np.array_equal(getattr(g, field), getattr(w, field)), (r, g.vehicle_id, field)


def test_batch_of_parameter_sets_matches_per_run_loop():
    spec = OscillationSpec(v_e=10.0, modes=((4.0, OMEGA_1, 0.3),))
    sc = Scenario(params=P, n_followers=4, leader=spec, duration=30.0)
    _batch_matches_single_runs(sc)
    res = simulate_platoon(dataclasses.replace(sc, params=BATCH))
    for r, p in enumerate(BATCH):
        loop = _oracle_open(dataclasses.replace(sc, params=p)).trajectories
        assert _max_dv(res.run(r), loop) < 0.1
    # regime switches too: case 4's free-flow approach, in every run
    _batch_matches_single_runs(case_scenario(4, duration=20.0))


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_case_matches_per_run_loop(case):
    # case 4 is compared once its four engagement transients have decayed:
    # the loop engages at the first sample past the root, a delay whose
    # share of dt varies from one dt to the next
    _loop_error_halves_with_dt(lambda dt: case_scenario(case, dt=dt), (0.02, 0.01, 0.005),
                               t_from=30.0 if case == 4 else 0.0)


def test_exact_propagator_is_fourth_order():
    # case 1 against a dt/16 self-reference: the error of the Hermite
    # input falls about 16x per halving of dt (the Euler loop's: 2x)
    ref = simulate_platoon(case_scenario(1, dt=0.0025)).trajectories
    errs = [_max_dv(simulate_platoon(case_scenario(1, dt=dt)).trajectories, ref, step=round(dt / 0.0025))
            for dt in (0.04, 0.02, 0.01)]
    assert errs[0] < 1e-6
    assert all(e0 / e1 >= 12.0 for e0, e1 in zip(errs, errs[1:])), errs


def test_several_cut_ins_match_per_run_loop():
    # two merges in one step (the second lands ahead of the first), one
    # at 8 s that lands between those two (so at 5 s an unmerged column
    # sits directly behind a merging one), and one at the front
    cuts = (CutIn(time=12.0, gap=9.0, ahead_of=1), CutIn(time=5.0, gap=11.0, ahead_of=3),
            CutIn(time=5.0, gap=10.0, ahead_of=3), CutIn(time=8.0, gap=4.0, ahead_of=4))
    spec = OscillationSpec(v_e=10.0, modes=((2.0, OMEGA_1, 0.0),))
    sc = Scenario(params=P, n_followers=4, leader=spec, duration=25.0, cut_ins=cuts)
    res = simulate_platoon(sc)
    assert [tr.vehicle_id for tr in res.trajectories] == [0, 8, 1, 2, 6, 7, 5, 3, 4]
    _loop_error_halves_with_dt(lambda dt: dataclasses.replace(sc, dt=dt), (0.02, 0.01, 0.005))
    _batch_matches_single_runs(sc)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_ring_matches_per_run_loop(case):
    sc = ring_scenario(case)
    got, want = simulate_platoon(sc), _oracle_ring(sc)
    assert got.ring_length == want.ring_length
    _assert_same_vehicles(got.trajectories, want.trajectories)
    assert _max_dv(got.trajectories, want.trajectories) < 1e-2  # the loop's O(dt) error
    # no time loop and no step error: dt and dt/8 agree at the shared samples
    fine = simulate_platoon(ring_scenario(case, dt=sc.dt / 8)).trajectories
    for g, w in zip(got.trajectories, fine):
        assert np.max(np.abs(g.x - w.x[::8])) < 1e-10
        assert np.max(np.abs(g.v - w.v[::8])) < 1e-10


def test_ring_that_leaves_the_engaged_set_is_refused():
    # cruising just above v_f with gaps above s_c: the ring's modes do not apply
    sc = Scenario(params=P, n_followers=6, leader=None, duration=5.0, topology="ring",
                  initial_speeds=np.full(6, P.v_f + 0.1), eps_v=0.5)
    with pytest.raises(ValueError, match="leaves the engaged set"):
        simulate_platoon(sc)


@settings(max_examples=40, deadline=None)
@given(
    tau=st.floats(0.8, 1.6), k_s=st.floats(0.4, 1.5), k_v=st.floats(0.6, 2.0),
    brake=st.floats(0.5, 1.5), cruise=st.floats(0.0, 4.0),
    margins=st.lists(st.floats(0.5, 10.0), min_size=3, max_size=3),
)
def test_engagement_inside_a_step_is_exact(tau, k_s, k_v, brake, cruise, margins):
    # cruisers behind a braking leader engage between samples; the switch at
    # the sub-step root keeps the fourth order, so dt and dt/2 agree closely
    # (gains and braking within the calibrated range, where nobody collides)
    p = ControlParams(tau=tau, L=5.0, k_s=k_s, k_v=k_v, v_f=15.0)
    prof = LeaderProfile(v0=p.v_f, phases=(Cruise(cruise), ConstAccel(4.0, -brake), Cruise(None)))
    gaps = tuple(p.s_c + m for m in margins)
    sc = Scenario(params=p, n_followers=3, leader=prof, duration=20.0, dt=0.02,
                  initial_speeds=p.v_f, initial_gaps=gaps)
    coarse = simulate_platoon(sc).trajectories
    fine = simulate_platoon(dataclasses.replace(sc, dt=0.01)).trajectories
    assert np.any(coarse[1].a < 0)  # the leader's braking engages at least follower 1
    assert _max_dv(coarse, fine, step=2) < 1e-6


def test_follower_returns_to_cruise_as_the_loop_does():
    # followers start engaged below v_f, settle into the cruise band (eps_v)
    # with gaps above s_c and cruise; the leader's braking at 20 s re-engages them
    prof = LeaderProfile(v0=P.v_f, phases=(Cruise(20.0), ConstAccel(4.0, -0.5), Cruise(None)))
    sc = Scenario(params=P, n_followers=2, leader=prof, duration=40.0, initial_speeds=14.8,
                  initial_gaps=(23.5, 24.0), eps_v=0.05)
    got, want = simulate_platoon(sc).trajectories, _oracle_open(sc).trajectories
    for g, w in zip(got[1:], want[1:]):
        switches = [tr.t[np.flatnonzero(np.diff(tr.a == 0)) + 1] for tr in (g, w)]
        assert len(switches[0]) == len(switches[1]) == 2  # engaged -> cruise -> engaged
        assert np.max(np.abs(switches[0] - switches[1])) < 0.05
        cruise = g.a == 0
        assert np.ptp(g.v[cruise]) == 0.0 and abs(g.v[cruise][0] - P.v_f) <= sc.eps_v


def _rk4(A, z0, u, h, steps=2000):
    """Reference: RK4 on z' = A z + e2 u(s) over [0, h]."""
    e2 = np.array([0.0, 1.0])
    z, dt = np.array(z0, dtype=A.dtype), h / steps
    for i in range(steps):
        s = i * dt
        k1 = A @ z + e2 * u(s)
        k2 = A @ (z + dt / 2 * k1) + e2 * u(s + dt / 2)
        k3 = A @ (z + dt / 2 * k2) + e2 * u(s + dt / 2)
        k4 = A @ (z + dt * k3) + e2 * u(s + dt)
        z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


@pytest.mark.parametrize("k_s, k_v", [(0.8, 1.4), (0.0, 1.4), (1.0, 0.8)], ids=["table", "k_s=0", "defective"])
def test_step_maps_match_rk4(k_s, k_v):
    # (1.0, 0.8) with tau = 1.2 is the defective point (k_s*tau + k_v)^2 = 4 k_s
    tau = 1.2
    A = np.array([[0.0, 1.0], [-k_s, -(k_s * tau + k_v)]])
    c = np.array([0.7, -1.3, 0.4, 0.25])
    z0 = np.array([3.0, -2.0])
    for h in (1.0, 0.01):
        Phi, Psi = _step_maps(A, h)
        got = Phi @ z0 + c @ Psi
        want = _rk4(A, z0, lambda s: c @ s ** np.arange(4), h)
        assert np.allclose(got, want, rtol=0, atol=1e-12), (h, got - want)


@settings(max_examples=200, deadline=None)
@given(
    k_s=st.sampled_from([0.0]) | st.floats(0.0, 3.0),
    k_v=st.floats(0.0, 3.0),
    h1=st.floats(1e-3, 3.0),
    h2=st.floats(1e-3, 3.0),
    c=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
def test_two_steps_of_the_maps_make_one(k_s, k_v, h1, h2, c):
    # exactness for a cubic input: stepping h1 then h2 (the input re-expanded
    # about h1) lands where one step of h1 + h2 does
    A = np.array([[0.0, 1.0], [-k_s, -(k_s * 1.2 + k_v)]])
    z0 = np.array([1.0, -0.5])
    c0, c1, c2, c3 = c
    shifted = np.array([c0 + h1 * (c1 + h1 * (c2 + h1 * c3)), c1 + h1 * (2 * c2 + 3 * c3 * h1),
                        c2 + 3 * c3 * h1, c3])
    Phi1, Psi1 = _step_maps(A, h1)
    Phi2, Psi2 = _step_maps(A, h2)
    Phi, Psi = _step_maps(A, h1 + h2)
    two = Phi2 @ (Phi1 @ z0 + np.array(c) @ Psi1) + shifted @ Psi2
    one = Phi @ z0 + np.array(c) @ Psi
    assert np.allclose(two, one, rtol=1e-11, atol=1e-11 * (1.0 + np.abs(one).max()))


def test_step_maps_of_a_complex_ring_mode_match_rk4():
    shift = np.exp(-2j * np.pi * 3 / 40) - 1.0
    A = np.array([[0.0, 1.0], [P.k_s * shift, P.k_v * shift - P.k_s * P.tau]])
    z0 = np.array([1.0 + 2.0j, -0.5j])
    Phi, _ = _step_maps(A, 1.0, 0)
    assert np.allclose(Phi @ z0, _rk4(A, z0, lambda s: 0.0, 1.0), rtol=0, atol=1e-12)


def test_pair_state_with_a_sampled_profile_is_exact_for_linear_pieces():
    ts = np.array([0.0, 1.0, 2.5, 4.0])
    vals = np.array([0.0, -1.0, 0.5, 0.5])
    z0 = PairErrorState(e_s=1.0, e_v=-0.5)
    A = np.array([[-P.tau * P.k_s, 1 - P.tau * P.k_v], [-P.k_s, -P.k_v]])
    # RK4 from 0.5 to 3.2, both off the samples
    want = _rk4(A, z0.as_array(), lambda s: np.interp(0.5 + s, ts, vals), 2.7, steps=2700)
    got = pair_state_analytic(z0, (ts, vals), 0.5, 3.2, P)
    assert np.allclose([got.e_s, got.e_v], want, rtol=0, atol=1e-9)


def test_collision_in_one_run_of_a_batch_is_reported_as_in_the_loop():
    # the last follower starts fast and close; with weak gains it hits the
    # car ahead of it, then the fourth vehicle behind the leader, while a
    # later cut-in at the front has not merged yet
    sc = Scenario(params=P, n_followers=3, leader=OscillationSpec(10.0), duration=20.0,
                  initial_speeds=(10.0, 10.0, 16.0), initial_gaps=(17.0, 17.0, 12.0),
                  cut_ins=(CutIn(time=0.5, gap=12.0, ahead_of=2),
                           CutIn(time=15.0, gap=10.0, ahead_of=1)))
    weak = ControlParams(tau=1.2, L=5.0, k_s=0.05, k_v=0.05)
    with pytest.raises(CollisionError) as want:
        _oracle_open(dataclasses.replace(sc, params=weak))
    _oracle_open(sc)  # the default gains brake in time
    simulate_platoon(sc)
    with pytest.raises(CollisionError) as got:
        simulate_platoon(dataclasses.replace(sc, params=(P, weak, P)))
    assert want.value.follower_index == 3
    assert (got.value.follower_index, got.value.run) == (want.value.follower_index, 1)
    # the first sample with a non-positive gap, within the loop's O(dt) error
    assert abs(got.value.t - want.value.t) < 0.1


def test_batches_need_an_open_road_and_a_parameter_set():
    with pytest.raises(ValueError, match="at least one parameter set"):
        Scenario(params=(), n_followers=2, leader=OscillationSpec(10.0), duration=5.0)
    with pytest.raises(ValueError, match="one parameter set and no cut-ins"):
        Scenario(params=(P, P), n_followers=3, leader=None, duration=5.0, topology="ring",
                 initial_speeds=[10.0, 10.0, 10.0])
