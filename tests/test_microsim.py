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
from accwave.microsim import _leader_arrays, _leader_initial_speed
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
# The batched kernel against the per-run loops it replaced
# ---------------------------------------------------------------------------

# Oracles: the open-road and ring loops as they were before the single
# batched kernel, kept verbatim (names aside).  One run, one parameter set.

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


def _assert_bit_identical(got: List[Trajectory], want: List[Trajectory]) -> None:
    assert [tr.vehicle_id for tr in got] == [tr.vehicle_id for tr in want]
    for g, w in zip(got, want):
        for field in ("t", "x", "v", "a"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.shape == b.shape and np.array_equal(a, b), (g.vehicle_id, field)


BATCH = (
    ControlParams(),
    ControlParams(tau=0.9, L=4.0, k_s=0.5, k_v=1.1, v_f=14.0),
    ControlParams(tau=1.6, L=6.5, k_s=1.2, k_v=0.6, v_f=20.0),
    ControlParams(tau=1.1, L=5.5, k_s=0.3, k_v=2.0),
)


def _batch_matches_oracle(sc: Scenario, oracle) -> None:
    res = simulate_platoon(dataclasses.replace(sc, params=BATCH))
    assert res.runs == len(BATCH)
    for r, p in enumerate(BATCH):
        _assert_bit_identical(res.run(r), oracle(dataclasses.replace(sc, params=p)).trajectories)


def test_batch_of_parameter_sets_matches_per_run_loop():
    spec = OscillationSpec(v_e=10.0, modes=((4.0, OMEGA_1, 0.3),))
    _batch_matches_oracle(Scenario(params=P, n_followers=4, leader=spec, duration=30.0), _oracle_open)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_case_matches_per_run_loop(case):
    sc = case_scenario(case)
    _assert_bit_identical(simulate_platoon(sc).trajectories, _oracle_open(sc).trajectories)


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
    _assert_bit_identical(res.trajectories, _oracle_open(sc).trajectories)
    _batch_matches_oracle(sc, _oracle_open)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_ring_matches_per_run_loop(case):
    sc = ring_scenario(case)
    got, want = simulate_platoon(sc), _oracle_ring(sc)
    assert got.ring_length == want.ring_length
    _assert_bit_identical(got.trajectories, want.trajectories)


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
    with pytest.raises(CollisionError) as got:
        simulate_platoon(dataclasses.replace(sc, params=(P, weak, P)))
    assert want.value.follower_index == 3
    assert (got.value.t, got.value.follower_index, got.value.run) == (
        want.value.t, want.value.follower_index, 1)


def test_batches_need_an_open_road_and_a_parameter_set():
    with pytest.raises(ValueError, match="at least one parameter set"):
        Scenario(params=(), n_followers=2, leader=OscillationSpec(10.0), duration=5.0)
    with pytest.raises(ValueError, match="one parameter set and no cut-ins"):
        Scenario(params=(P, P), n_followers=3, leader=None, duration=5.0, topology="ring",
                 initial_speeds=[10.0, 10.0, 10.0])
