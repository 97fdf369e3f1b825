"""Platoon simulation engine: leaders, followers, cut-ins, rings, engagement."""

import dataclasses
import hashlib
import math
import re
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
    PlatoonResult,
    Scenario,
    Trajectory,
    detect_engagement,
    leader_motion,
    ring_setup,
    simulate_platoon,
)
from accwave.microsim import _leader_arrays, _leader_initial_speed, _step_maps
from accwave.model import ControlParams, acc_acceleration, engaged
from accwave.scenarios import (
    TABLE_PARAMS,
    case_scenario,
    ring_initial_speeds,
    ring_scenario,
    run_case,
    run_ring_validation,
)
from accwave.tracker import pair_wave_speed
from accwave.waves import follower_motion_closed_form
from oracles import (
    PairErrorState,
    PiecewiseConstantAccel,
    first_down_crossing,
    pair_state_analytic,
    spacing_analytic,
)

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
    # a scenario without a leader is a ring, and a ring needs a speed per vehicle
    with pytest.raises(ValueError, match=re.escape(
            "a scenario without a leader is a ring; its initial_speeds must list its 4 vehicles, "
            "got shape ()")):
        Scenario(params=P, n_followers=4, leader=None, duration=10.0)
    with pytest.raises(ValueError, match="a platoon needs at least two vehicles"):
        Scenario(params=P, n_followers=1, leader=None, duration=10.0, initial_speeds=[10.0])


@pytest.mark.parametrize("eps_v", [0.05, ControlParams().eps_v])
def test_one_cruise_band_gates_the_law_the_tracker_and_the_simulator(eps_v):
    # a follower 5 m beyond s_c and 0.03 m/s below v_f, behind a leader at v_f:
    # inside a 0.05 m/s band every layer lets it cruise, reading the band from
    # the one ControlParams; the default band engages it in every layer
    p = dataclasses.replace(P, eps_v=eps_v)
    s, v = p.s_c + 5.0, p.v_f - 0.03
    cruising = eps_v > 0.03
    sc = Scenario(params=p, n_followers=1, leader=LeaderProfile(v0=p.v_f, phases=(Cruise(None),)),
                  duration=10.0, initial_speeds=v, initial_gaps=s)
    lead, fol = simulate_platoon(sc).trajectories
    assert (fol.x[0], fol.v[0]) == (lead.x[0] - s, v)
    assert engaged(s, v, p) == (not cruising)
    assert (acc_acceleration(s, v, lead.v[0], p) == 0.0) == cruising
    assert (pair_wave_speed(0.0, lead, fol, p) == lead.v[0]) == cruising
    assert np.all(fol.a == 0.0) == cruising


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("run, name", [
    (run_case, "dt"), (run_case, "duration"), (run_ring_validation, "duration"),
], ids=["run_case-dt", "run_case-duration", "run_ring_validation-duration"])
def test_scenario_refuses_a_time_that_is_not_positive_and_finite_by_name(run, name, value):
    # inf and NaN used to pass on to round(duration / dt): a misleading
    # "not an integer multiple" or a bare conversion error naming no field
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
        run(1, **{name: value})


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


def test_cruise_phase_is_x0_plus_v0_tau_bit_for_bit():
    t = np.arange(1001) * 0.01
    prof = LeaderProfile(v0=12.5, phases=(ConstAccel(2.0, -1.0), Cruise(3.0), Cruise(None)))
    x, v, a = _leader_arrays(prof, t)
    x0, v0 = 0.0 + 12.5 * 2.0 + 0.5 * -1.0 * 2.0**2, 12.5 + -1.0 * 2.0
    first, second = (t >= 2.0) & (t < 5.0), t >= 5.0
    assert np.array_equal(x[first], x0 + v0 * (t[first] - 2.0))
    assert np.array_equal(x[second], (x0 + v0 * 3.0) + v0 * (t[second] - 5.0))
    assert np.all(v[t >= 2.0] == v0) and np.all(a[t >= 2.0] == 0.0)


def test_open_ended_oscillate_phase_is_leader_motion_shifted_to_start_at_zero():
    modes = ((3.0, 0.5, 0.25), (1.0, 1.3, -2.0))
    t = np.arange(2001) * 0.01
    got = _leader_arrays(LeaderProfile(v0=15.0, phases=(Oscillate(None, modes),)), t)
    x, v, a = leader_motion(OscillationSpec(15.0, modes), t)
    shift = sum(A * math.sin(phi) for A, _, phi in modes)
    for g, want in zip(got, (x - shift, v, a)):
        np.testing.assert_allclose(g, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("mode", [(1.0, 0.0, 0.0), (1.0, -0.5, 0.0), (-1.0, 0.5, 0.0),
                                  (math.nan, 0.5, 0.0), (1.0, math.nan, 0.0), (1.0, 0.5, math.nan)])
def test_oscillate_phase_refuses_a_mode_that_oscillation_spec_refuses(mode):
    with pytest.raises(ValueError, match="mode"):
        Oscillate(None, ((3.0, 0.5, 0.25), mode))


@pytest.mark.parametrize("build, message", [
    (lambda: LeaderProfile(math.nan, (Cruise(None),)), "v0 must be finite, got nan"),
    (lambda: LeaderProfile(math.inf, (Cruise(None),)), "v0 must be finite, got inf"),
    (lambda: ConstAccel(None, math.nan), "accel must be finite, got nan"),
    (lambda: ConstAccel(2.0, -math.inf), "accel must be finite, got -inf"),
    (lambda: ConstAccel(-2.0, 0.0), "duration must be None or positive and finite, got -2.0"),
    (lambda: Cruise(math.nan), "duration must be None or positive and finite, got nan"),
    (lambda: Cruise(0.0), "duration must be None or positive and finite, got 0.0"),
    (lambda: Oscillate(math.inf, ()), "duration must be None or positive and finite, got inf"),
], ids=["v0-nan", "v0-inf", "accel-nan", "accel-inf", "duration-negative", "duration-nan",
        "duration-zero", "oscillate-duration-inf"])
def test_leader_profile_and_phases_refuse_numbers_that_are_not_finite(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


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
    L_x, x0 = ring_setup(P, speeds)
    gaps = P.desired_spacing(speeds)
    assert L_x == pytest.approx(float(np.sum(gaps)))
    assert x0[0] == 0.0
    assert all(a > b for a, b in zip(x0, x0[1:]))


_RNG_SPEEDS = np.random.default_rng(34)


# ring length (as float.hex) and the first 16 hex digits of the sha256 of its
# float64 bytes followed by the positions' bytes, as the ring setup gave them
# when it also took the vehicle count
@pytest.mark.parametrize("speeds, length, digest", [
    (ring_initial_speeds(1, 40), "0x1.5400000000000p+9", "d76ccc629737418a"),
    (ring_initial_speeds(2, 7), "0x1.977c83cca2ed7p+6", "2cd0124c254671a5"),
    (ring_initial_speeds(3, 400), "0x1.a900000000000p+12", "00537381cbbf9788"),
    (_RNG_SPEEDS.uniform(5, 14, 2), "0x1.f768832798e5dp+4", "5894b1ed96042d3a"),
    (_RNG_SPEEDS.uniform(5, 14, 33), "0x1.1aca53ab09b61p+9", "5068eb3d78b8ee69"),
], ids=["case1-40", "case2-7", "case3-400", "random-2", "random-33"])
def test_ring_setup_counts_the_vehicles_from_the_speeds_bit_for_bit(speeds, length, digest):
    L_x, x0 = ring_setup(P, speeds)
    assert (x0.shape, L_x.hex()) == (speeds.shape, length)
    assert hashlib.sha256(np.float64(L_x).tobytes() + x0.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("speeds", [np.array([10.0]), np.full((2, 2), 10.0), np.float64(10.0)],
                         ids=["one", "2-D", "scalar"])
def test_ring_setup_refuses_speeds_that_are_not_one_per_vehicle(speeds):
    with pytest.raises(ValueError, match=r"^ring initial_speeds must be a 1-D array of two or more, "
                       rf"one per vehicle, got shape {re.escape(str(speeds.shape))}$"):
        ring_setup(P, speeds)


_NO_GAP = re.escape("each initial gap tau*v + L of initial_speeds must be positive and finite, got ")


def test_ring_refuses_a_speed_without_a_positive_gap_before_it_steps():
    # [10, -20] used to give a ring of length -2 m, which collided at t = 0
    with pytest.raises(ValueError, match=rf"^{_NO_GAP}-19\.0$"):
        ring_setup(P, [10.0, -20.0])
    with pytest.raises(ValueError, match=rf"^{_NO_GAP}-19\.0$"):
        simulate_platoon(Scenario(P, 2, None, 1.0, initial_speeds=[10.0, -20.0]))
    with pytest.raises(ValueError, match=rf"^{_NO_GAP}0\.0$"):
        ring_setup(P, [10.0, -P.L / P.tau])        # a zero gap
    # a negative speed with a positive gap stays legal, as in TrafficState
    assert ring_setup(P, [10.0, -3.0])[0] == pytest.approx(17.0 + 1.4, rel=1e-15)


def test_ring_refuses_a_non_finite_speed_by_name():
    # [10, nan] used to give a ring of length nan
    with pytest.raises(ValueError, match=r"^initial_speeds must be finite, got nan$"):
        ring_setup(P, [10.0, math.nan])
    with pytest.raises(ValueError, match=r"^initial_speeds must be None or finite, got nan$"):
        Scenario(P, 2, None, 1.0, initial_speeds=[10.0, math.nan])


@pytest.mark.parametrize("n", [2, 7, 40, 400])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_ring_setup_positions_match_the_gap_by_gap_loop_bit_for_bit(case, n):
    speeds = ring_initial_speeds(case, n)
    gaps = TABLE_PARAMS.tau * speeds + TABLE_PARAMS.L
    want = np.empty(n)
    want[0] = 0.0
    for i in range(1, n):
        want[i] = want[i - 1] - gaps[i]
    L_x, x0 = ring_setup(TABLE_PARAMS, speeds)
    assert L_x == float(np.sum(gaps))
    assert x0.tobytes() == want.tobytes()


def test_ring_platoon_conserves_vehicle_count_and_length():
    speeds = 10.0 + 2.0 * np.sin(2 * np.pi * np.arange(12) / 12)
    sc = Scenario(params=P, n_followers=12, leader=None, duration=30.0, dt=0.01, initial_speeds=speeds)
    res = simulate_platoon(sc)
    ring_length = ring_setup(P, speeds)[0]
    assert len(res.trajectories) == 12
    # total occupied length (sum of wrapped gaps) is invariant
    x_end = np.array([tr.x[-1] for tr in res.trajectories])
    lead = np.empty_like(x_end)
    lead[1:] = x_end[:-1]
    lead[0] = x_end[-1] + ring_length
    assert np.sum(lead - x_end) == pytest.approx(ring_length, rel=1e-12)


def test_uniform_ring_is_steady():
    speeds = np.full(8, 10.0)
    sc = Scenario(params=P, n_followers=8, leader=None, duration=10.0, dt=0.01, initial_speeds=speeds)
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


def test_pair_state_analytic_matches_the_simulated_first_pair():
    """The exact pair solution is an independent check on the platoon: a
    leader of constant-acceleration phases that start and end on samples,
    followed by engaged followers from equilibrium, gives the first pair's
    (s - s*, v_lead - v) of `simulate_platoon`."""
    p = ControlParams(v_f=30.0)
    prof = LeaderProfile(v0=10.0, phases=(
        Cruise(2.0), ConstAccel(3.0, 0.8), ConstAccel(4.0, -1.0), Cruise(None)))
    sc = Scenario(params=p, n_followers=2, leader=prof, duration=20.0, dt=0.01, initial_speeds=10.0)
    lead, fol = simulate_platoon(sc).trajectories[:2]
    assert np.all(lead.x - fol.x <= p.s_c)   # engaged throughout
    accel = PiecewiseConstantAccel(times=(2.0, 5.0, 9.0), values=(0.8, -1.0, 0.0))
    err = 0.0
    for k in range(0, len(lead.t), 10):
        z = pair_state_analytic(PairErrorState(0.0, 0.0), accel, 0.0, float(lead.t[k]), p)
        sim = (lead.x[k] - fol.x[k] - p.desired_spacing(fol.v[k]), lead.v[k] - fol.v[k])
        err = max(err, float(np.max(np.abs(np.array(sim) - z.as_array()))))
    assert err < 1e-10


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


def test_trajectory_takes_only_an_int64_vehicle_id():
    # 2**63 used to pass here and end in an OverflowError in write_trajectories
    t = np.arange(3) * 0.1
    z = np.zeros_like(t)
    for vid in (-2**63, 2**63 - 1, np.int64(7)):
        assert Trajectory(vehicle_id=vid, t=t, x=z, v=z, a=z, dt=0.1).vehicle_id == vid
    for vid in (2**63, -2**63 - 1, 1.5, 2.0, "3", None):
        with pytest.raises(ValueError, match=f"vehicle_id must be an integer in the int64 range, got {vid!r}"):
            Trajectory(vehicle_id=vid, t=t, x=z, v=z, a=z, dt=0.1)


def _bits(*values):
    """Each value as the hex of its double, so -0.0, 0.0 and NaN compare exactly."""
    return [float(y).hex() for y in values]


def _interp_bits(tr, q):
    return _bits(np.interp(q, tr.t, tr.x), np.interp(q, tr.t, tr.v))


@st.composite
def _motion_and_time(draw):
    """A trajectory on a uniform or a jittered grid, and a time on a sample, at
    either end, past either end, or inside the first, the last or any interval."""
    n = draw(st.integers(min_value=2, max_value=40))
    dt = draw(st.floats(min_value=0.01, max_value=2.0))
    t = draw(st.floats(min_value=-100.0, max_value=100.0)) + dt * np.arange(n)
    if draw(st.booleans()):
        jitter = st.floats(min_value=-0.4 * DT_JITTER, max_value=0.4 * DT_JITTER)
        t = t + np.array(draw(st.lists(jitter, min_size=n, max_size=n)))
    values = st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=n, max_size=n)
    x, v = np.array(draw(values)), np.array(draw(values))
    tr = Trajectory(vehicle_id=0, t=t, x=x, v=v, a=np.zeros(n), dt=dt)
    where = draw(st.sampled_from(
        ["sample", "start", "end", "past end", "before start", "first", "last", "any"]))
    f = draw(st.floats(min_value=0.0, max_value=1.0))
    beyond = draw(st.floats(min_value=0.0, max_value=10.0, exclude_min=True))
    q = {
        "sample": t[draw(st.integers(min_value=0, max_value=n - 1))],
        "start": t[0],
        "end": t[-1],
        "past end": t[-1] + beyond,
        "before start": t[0] - beyond,
        "first": t[0] + f * (t[1] - t[0]),
        "last": t[-2] + f * (t[-1] - t[-2]),
        "any": t[0] + f * (t[-1] - t[0]),
    }[where]
    return tr, float(q), draw(st.integers(min_value=-2, max_value=n + 1))


@settings(max_examples=300, deadline=None)
@given(_motion_and_time())
def test_state_at_is_np_interp_bit_for_bit(case):
    tr, q, guess = case
    want = _interp_bits(tr, q)
    for got in (tr.state_at(q), tr.state_at(q, guess), tr.state_at(np.float64(q), guess)):
        assert all(type(y) is float for y in got)
        assert _bits(*got) == want


def test_state_at_where_the_formula_is_not_np_interp():
    # a sample time gives the sample itself, also a negative zero, where the
    # formula would give 2 * 0.0 + -0.0 = +0.0
    t = 0.5 * np.arange(5)
    x = np.array([-0.0, 1.0, 3.0, 2.0, 5.0])
    v = np.array([2.0, 1.0, -0.0, 4.0, 4.0])
    tr = Trajectory(vehicle_id=0, t=t, x=x, v=v, a=np.zeros_like(t), dt=0.5)
    for i, q in enumerate(t):
        assert _bits(*tr.state_at(q)) == _interp_bits(tr, q) == _bits(x[i], v[i])
    # an infinite sample, between two of which the formula gave inf - inf =
    # NaN where np.interp gives the infinity, is refused at construction
    x_inf = np.array([0.0, 1.0, np.inf, np.inf, 2.0])
    with pytest.raises(ValueError, match="^x must be finite, got inf$"):
        Trajectory(vehicle_id=0, t=t, x=x_inf, v=v, a=np.zeros_like(t), dt=0.5)
    # finite samples whose difference overflows give inf, as np.interp does
    x_big = np.array([0.0, -1.7e308, 1.7e308, -1.7e308, 2.0])
    tr = Trajectory(vehicle_id=0, t=t, x=x_big, v=v, a=np.zeros_like(t), dt=0.5)
    for q in (0.7, 1.0, 1.2, 1.5, 1.7):
        assert _bits(*tr.state_at(q)) == _interp_bits(tr, q)
    assert tr.state_at(0.7)[0] == math.inf and tr.state_at(1.2)[0] == -math.inf


def test_state_at_with_a_wrong_interval_guess_is_still_np_interp():
    t = 0.07 + 0.1 * np.arange(11)
    x = np.random.default_rng(1).uniform(-50.0, 50.0, t.size)
    tr = Trajectory(vehicle_id=0, t=t, x=x, v=x[::-1].copy(), a=np.zeros_like(t), dt=0.1)
    for q, guess in ((0.55, 2), (0.55, 7), (0.55, -1), (0.55, 10), (0.55, 99),
                     (t[0] - 1.0, 0), (t[-1], 9), (t[-1] + 1.0, 9)):
        assert _bits(*tr.state_at(q, guess)) == _interp_bits(tr, q)
    # a time on the right end of the guessed interval is that interval's next
    # sample, which the formula on the guess misses by round-off on some
    # intervals of this motion
    missed = 0
    for i in range(t.size - 1):
        formula = (x[i + 1] - x[i]) / (t[i + 1] - t[i]) * (t[i + 1] - t[i]) + x[i]
        missed += formula != x[i + 1]
        assert _bits(*tr.state_at(t[i + 1], i)) == _bits(x[i + 1], x[-i - 2])
    assert missed


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
            acc = acc_acceleration(gaps, active_v, lead_spd, p)
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
    return PlatoonResult(trajectories=trajs)


def _oracle_ring(sc: Scenario) -> PlatoonResult:
    p = sc.params
    init_v = np.asarray(sc.initial_speeds, dtype=float)
    n = len(init_v)
    if n < 2:
        raise ValueError("ring needs at least two vehicles")
    L_x, x0 = ring_setup(p, init_v)
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
            acc = acc_acceleration(gaps, v, lead_spd, p)
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
    return PlatoonResult(trajectories=trajs)


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


PARAM_SETS = (
    ControlParams(),
    ControlParams(tau=0.9, L=4.0, k_s=0.5, k_v=1.1, v_f=14.0),
    ControlParams(tau=1.6, L=6.5, k_s=1.2, k_v=0.6, v_f=20.0),
    ControlParams(tau=1.1, L=5.5, k_s=0.3, k_v=2.0),
)


def test_parameter_sets_match_per_run_loop():
    spec = OscillationSpec(v_e=10.0, modes=((4.0, OMEGA_1, 0.3),))
    for p in PARAM_SETS:
        sc = Scenario(params=p, n_followers=4, leader=spec, duration=30.0)
        got, want = simulate_platoon(sc).trajectories, _oracle_open(sc).trajectories
        _assert_same_vehicles(got, want)
        assert _max_dv(got, want) < 0.1, p
        # regime switches too: case 4's free-flow approach under the same gains
        case4 = simulate_platoon(dataclasses.replace(case_scenario(4, duration=20.0), params=p))
        assert all(np.all(np.isfinite(tr.x)) and np.all(np.isfinite(tr.a)) for tr in case4.trajectories)


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


# two merges in one step (the second lands ahead of the first), one at 8 s
# that lands between those two (so at 5 s an unmerged column sits directly
# behind a merging one), and one at the front
_FOUR_CUT_INS = Scenario(
    params=P, n_followers=4, leader=OscillationSpec(v_e=10.0, modes=((2.0, OMEGA_1, 0.0),)),
    duration=25.0, cut_ins=(CutIn(time=12.0, gap=9.0, ahead_of=1), CutIn(time=5.0, gap=11.0, ahead_of=3),
                            CutIn(time=5.0, gap=10.0, ahead_of=3), CutIn(time=8.0, gap=4.0, ahead_of=4)))


def test_several_cut_ins_match_per_run_loop():
    sc = _FOUR_CUT_INS
    res = simulate_platoon(sc)
    assert [tr.vehicle_id for tr in res.trajectories] == [0, 8, 1, 2, 6, 7, 5, 3, 4]
    _loop_error_halves_with_dt(lambda dt: dataclasses.replace(sc, dt=dt), (0.02, 0.01, 0.005))


@pytest.mark.parametrize("dt", [0.02, 0.01])
def test_cut_ins_record_the_acc_command_of_each_sample(dt):
    # from its merge on, each vehicle follows the nearest merged vehicle ahead
    trajs = simulate_platoon(dataclasses.replace(_FOUR_CUT_INS, dt=dt)).trajectories
    n = len(trajs[0].t)
    x, v = (np.full((len(trajs), n), np.nan) for _ in range(2))
    for i, tr in enumerate(trajs):
        x[i, n - len(tr.t):], v[i, n - len(tr.t):] = tr.x, tr.v
    assert sum(len(tr.t) < n for tr in trajs) == len(_FOUR_CUT_INS.cut_ins)
    for i, tr in enumerate(trajs[1:], 1):
        steps = np.arange(n - len(tr.t), n)
        lead = np.where(np.isnan(x[:i, steps]), 0, np.arange(i)[:, None]).max(axis=0)
        want = acc_acceleration(x[lead, steps] - tr.x, tr.v, v[lead, steps], P)
        assert tr.a.tobytes() == want.tobytes(), tr.vehicle_id


@pytest.mark.parametrize("case", [1, 2, 3])
def test_ring_matches_per_run_loop(case):
    sc = ring_scenario(case)
    got, want = simulate_platoon(sc), _oracle_ring(sc)
    _assert_same_vehicles(got.trajectories, want.trajectories)
    assert _max_dv(got.trajectories, want.trajectories) < 1e-2  # the loop's O(dt) error
    # no time loop and no step error: dt and dt/8 agree at the shared samples
    fine = simulate_platoon(ring_scenario(case, dt=sc.dt / 8)).trajectories
    for g, w in zip(got.trajectories, fine):
        assert np.max(np.abs(g.x - w.x[::8])) < 1e-10
        assert np.max(np.abs(g.v - w.v[::8])) < 1e-10


def test_ring_that_leaves_the_engaged_set_is_refused():
    # cruising just above v_f with gaps above s_c: the ring's modes do not apply
    sc = Scenario(params=dataclasses.replace(P, eps_v=0.5), n_followers=6, leader=None,
                  duration=5.0, initial_speeds=np.full(6, P.v_f + 0.1))
    with pytest.raises(ValueError, match="leaves the engaged set"):
        simulate_platoon(sc)


def _ring(p: ControlParams, speeds, duration: float, dt: float) -> Scenario:
    return Scenario(params=p, n_followers=len(speeds), leader=None, duration=duration, dt=dt,
                    initial_speeds=speeds)


def _ring_gaps(sc: Scenario, res: PlatoonResult) -> np.ndarray:
    """Wrapped gaps of `res`, the ring of `sc`, which `ring_setup` sizes."""
    x = np.array([tr.x for tr in res.trajectories])
    return np.vstack((x[-1:] + ring_setup(sc.params, sc.initial_speeds)[0], x[:-1])) - x


@pytest.mark.parametrize("dt", [0.5, 0.01])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_ring_records_the_acc_command_of_each_sample(case, dt):
    # vehicle 0's lead is the last vehicle one ring length ahead
    sc = ring_scenario(case, dt=dt)
    res = simulate_platoon(sc)
    v = np.array([tr.v for tr in res.trajectories])
    want = acc_acceleration(_ring_gaps(sc, res), v, np.vstack((v[-1:], v[:-1])), sc.params)
    assert np.array([tr.a for tr in res.trajectories]).tobytes() == want.tobytes()


def test_ring_that_leaves_the_engaged_set_only_between_samples_is_refused():
    # speeds cross the cruise band around v_f with gaps above s_c from 0.15
    # to 0.17 s only; the ring's motion does not depend on the band, so the
    # same ring with eps_v = 0 (never out of the engaged set) shows every
    # sample at dt = 0.5 inside it
    p = dataclasses.replace(P, eps_v=0.05)
    speeds = P.v_f + 0.5 + 3.0 * np.sin(2 * np.pi * np.arange(6) / 6)
    free = _ring(dataclasses.replace(p, eps_v=0.0), speeds, 2.0, 0.5)
    res = simulate_platoon(free)
    assert np.all(engaged(_ring_gaps(free, res), np.array([tr.v for tr in res.trajectories]), p))
    with pytest.raises(ValueError, match="leaves the engaged set") as coarse:
        simulate_platoon(_ring(p, speeds, 2.0, 0.5))
    with pytest.raises(ValueError, match="leaves the engaged set") as fine:
        simulate_platoon(_ring(p, speeds, 2.0, 0.01))
    assert str(coarse.value) == str(fine.value)
    assert 0.0 < float(re.search(r"t=([0-9.]+) s", str(coarse.value)).group(1)) < 0.5


def test_ring_that_collides_only_between_samples_is_refused():
    # weak gains: two vehicles overlap from 9.55 to 9.94 s only.  Moving L
    # 20 m out moves every gap 20 m and nothing else, so that ring shows
    # every sample at dt = 1 with a positive gap
    p = ControlParams(tau=0.6, k_s=0.4, k_v=0.5)
    speeds = 8.0 + 6.25 * np.sin(2 * np.pi * np.arange(8) / 8)
    far = _ring(dataclasses.replace(p, L=p.L + 20.0), speeds, 10.0, 1.0)
    assert np.min(_ring_gaps(far, simulate_platoon(far))) > 20.0
    with pytest.raises(CollisionError) as coarse:
        simulate_platoon(_ring(p, speeds, 10.0, 1.0))
    with pytest.raises(CollisionError) as fine:
        simulate_platoon(_ring(p, speeds, 10.0, 0.01))
    assert (coarse.value.t, coarse.value.follower_index) == (fine.value.t, fine.value.follower_index)
    assert 9.0 < coarse.value.t < 10.0


@pytest.mark.parametrize("dt, fine_dt, every", [(0.5, 0.01, 50), (0.015, 0.0075, 2)])
def test_ring_above_the_check_step_keeps_every_step_of_the_ring_at_the_finer_step(dt, fine_dt, every):
    # a ring steps at dt / ceil(dt / DT), here the finer dt, so its samples
    # are the finer ring's, bit for bit
    for case in (1, 2):
        got = simulate_platoon(ring_scenario(case, dt=dt)).trajectories
        want = simulate_platoon(ring_scenario(case, dt=fine_dt)).trajectories
        for g, w in zip(got, want):
            for field in ("t", "x", "v", "a"):
                assert getattr(g, field).tobytes() == getattr(w, field)[::every].tobytes()


@pytest.mark.parametrize("speeds, shape", [([10.0] * 8, "(8,)"), (10.0, "()")])
def test_ring_scenario_refuses_speeds_that_are_not_one_per_vehicle(speeds, shape):
    with pytest.raises(ValueError, match=re.escape(f"initial_speeds must list its 6 vehicles, got shape {shape}")):
        Scenario(params=P, n_followers=6, leader=None, duration=5.0, initial_speeds=speeds)


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
    prof = LeaderProfile(v0=p.v_f, phases=((Cruise(cruise),) if cruise else ()) + (
        ConstAccel(4.0, -brake), Cruise(None)))
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
    sc = Scenario(params=dataclasses.replace(P, eps_v=0.05), n_followers=2, leader=prof,
                  duration=40.0, initial_speeds=14.8, initial_gaps=(23.5, 24.0))
    got, want = simulate_platoon(sc).trajectories, _oracle_open(sc).trajectories
    for g, w in zip(got[1:], want[1:]):
        switches = [tr.t[np.flatnonzero(np.diff(tr.a == 0)) + 1] for tr in (g, w)]
        assert len(switches[0]) == len(switches[1]) == 2  # engaged -> cruise -> engaged
        assert np.max(np.abs(switches[0] - switches[1])) < 0.05
        cruise = g.a == 0
        assert np.ptp(g.v[cruise]) == 0.0 and abs(g.v[cruise][0] - P.v_f) <= sc.params.eps_v


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


def test_step_maps_taylor_degree_is_round_off_exact_at_the_scaling_norm():
    # The argument diag(-0.5, -0.5) sits exactly at _TAYLOR_NORM, so it is
    # not squared and the Taylor series alone must reach e^-0.5.  At degree
    # 14 Phi[0, 0] is off by 0.0; at 13 by 6.7e-16 and at 12 by 1.9e-14, so
    # 2e-16 fails any degree below 14.
    Phi, _ = _step_maps(np.diag([-0.5, -0.5]), 1.0, 0)
    assert abs(Phi[0, 0] - math.exp(-0.5)) <= 2e-16


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


def test_collision_behind_a_merged_cut_in_is_reported_as_in_the_loop():
    # the last follower starts fast and close; with weak gains it hits the
    # car ahead of it, then the fourth vehicle behind the leader, while a
    # later cut-in at the front has not merged yet
    sc = Scenario(params=P, n_followers=3, leader=OscillationSpec(10.0), duration=20.0,
                  initial_speeds=(10.0, 10.0, 16.0), initial_gaps=(17.0, 17.0, 12.0),
                  cut_ins=(CutIn(time=0.5, gap=12.0, ahead_of=2),
                           CutIn(time=15.0, gap=10.0, ahead_of=1)))
    weak = dataclasses.replace(sc, params=ControlParams(tau=1.2, L=5.0, k_s=0.05, k_v=0.05))
    with pytest.raises(CollisionError) as want:
        _oracle_open(weak)
    _oracle_open(sc)  # the default gains brake in time
    simulate_platoon(sc)
    with pytest.raises(CollisionError) as got:
        simulate_platoon(weak)
    assert got.value.follower_index == want.value.follower_index == 3
    # the first sample with a non-positive gap, within the loop's O(dt) error
    assert abs(got.value.t - want.value.t) < 0.1


def test_scenario_takes_one_parameter_set_and_a_ring_no_cut_ins():
    with pytest.raises(TypeError, match="one ControlParams, got tuple"):
        Scenario(params=(P, P), n_followers=2, leader=OscillationSpec(10.0), duration=5.0)
    with pytest.raises(ValueError, match="a ring takes no cut-ins"):
        Scenario(params=P, n_followers=3, leader=None, duration=5.0, initial_speeds=[10.0, 10.0, 10.0],
                 cut_ins=(CutIn(time=1.0, gap=10.0, ahead_of=1),))
