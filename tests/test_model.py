"""Regime logic, eigenstructure, and degeneracy indicators."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accwave.model import (
    ControlParams,
    TrafficState,
    acc_acceleration,
    constant_gain,
    density_gain,
    eigenstructure,
    engaged,
    linear_degeneracy_indicator,
    momentum_residual,
    ptm_equivalent_kv,
)

P = ControlParams()


def test_default_critical_spacing():
    # s_c = tau*v_f + L = 1.2*15 + 5
    assert P.s_c == pytest.approx(23.0, abs=0)
    assert P.rho_c == pytest.approx(1.0 / 23.0, rel=1e-15)
    assert P.rho_j == pytest.approx(1.0 / 5.0, rel=1e-15)


def test_desired_spacing_and_equilibrium_speed_are_inverses():
    v = 7.3
    s = P.desired_spacing(v)
    assert P.equilibrium_speed(s) == pytest.approx(v, rel=1e-14)


def test_params_positivity_validated():
    with pytest.raises(ValueError):
        ControlParams(tau=0.0)
    with pytest.raises(ValueError):
        ControlParams(L=-1.0)
    with pytest.raises(ValueError):
        ControlParams(k_s=-0.1)


@pytest.mark.parametrize("field", ["tau", "L", "k_s", "k_v", "v_f"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        ControlParams(**{field: value})


@pytest.mark.parametrize("eps_v", [-1e-9, -1.0, math.nan])
def test_params_refuse_a_negative_or_nan_cruise_band(eps_v):
    with pytest.raises(ValueError, match="eps_v must be non-negative"):
        ControlParams(eps_v=eps_v)


def test_state_requires_positive_density():
    with pytest.raises(ValueError):
        TrafficState(rho=0.0, v=5.0)


def test_regime_free_flow_needs_low_density_and_cruise_speed():
    # free flow: spacing above s_c (density below rho_c) at cruise speed
    assert not engaged(2.0 * P.s_c, P.v_f, P)
    # same spacing but off-speed -> controller engaged
    assert engaged(2.0 * P.s_c, P.v_f - 1.0, P)
    # dense at cruise speed -> engaged
    assert engaged(0.5 * P.s_c, P.v_f, P)


def test_regime_boundary_density_is_congested():
    # the threshold itself belongs to the engaged side
    assert engaged(P.s_c, P.v_f, P)


def test_regime_eps_v_widens_the_cruise_band():
    assert engaged(2.0 * P.s_c, P.v_f - 0.05, P)
    assert not engaged(2.0 * P.s_c, P.v_f - 0.05, dataclasses.replace(P, eps_v=0.1))


@pytest.mark.parametrize("above", [False, True])
def test_switching_rule_agrees_at_the_critical_spacing(above):
    """Every caller of the switching rule classifies the same pair alike.

    The follower runs at v_f behind a leader at v_f - 1 with spacing s_c
    (engaged) or one ulp above it (cruising).  A density state cannot
    hold that spacing (1/(1/s) rounds back to s_c), so the rule is also
    given the spacing of the nearest density on the same side of the
    threshold.
    """
    from accwave.microsim import OscillationSpec, Scenario, simulate_platoon
    from accwave.tracker import pair_wave_speed

    P8 = ControlParams(tau=0.8, L=3.0, v_f=30.0)
    assert P8.s_c == 27.0
    s = np.nextafter(P8.s_c, np.inf) if above else P8.s_c
    rho = np.nextafter(1.0 / s, 0.0) if above else 1.0 / s
    v, v_lead = P8.v_f, P8.v_f - 1.0
    gain = 0.0 if above else 1.0
    expected_acc = gain * (P8.k_s * (s - P8.desired_spacing(v)) + P8.k_v * (v_lead - v))

    sc = Scenario(params=P8, n_followers=1, leader=OscillationSpec(v_e=v_lead),
                  duration=1.0, dt=0.1, initial_speeds=v, initial_gaps=s)
    lead, fol = simulate_platoon(sc).trajectories
    assert bool(engaged(s, v, P8)) is not above
    assert bool(1.0 / rho > P8.s_c) is above
    assert bool(engaged(TrafficState(rho=rho, v=v).s, v, P8)) is not above
    assert acc_acceleration(s, v, v_lead, P8) == pytest.approx(expected_acc, abs=1e-12)
    assert fol.a[0] == pytest.approx(expected_acc, abs=1e-12)
    assert pair_wave_speed(0.0, lead, fol, P8) == pytest.approx(
        v_lead - gain * P8.k_v * s, abs=1e-12)


def test_acc_acceleration_is_elementwise():
    s = np.array([P.s_c - 4.0, P.s_c + 1.0, P.s_c + 1.0])
    v = np.array([10.0, P.v_f, P.v_f - 1.0])
    v_lead = np.array([11.0, P.v_f - 3.0, P.v_f])
    acc = acc_acceleration(s, v, v_lead, P)
    assert acc.shape == (3,)
    assert np.array_equal(acc, [acc_acceleration(*args, P) for args in zip(s, v, v_lead)])


def test_acc_acceleration_zero_at_equilibrium():
    v = 10.0
    s = P.desired_spacing(v)
    assert acc_acceleration(s, v, v, P) == pytest.approx(0.0, abs=1e-14)


def test_acc_acceleration_hand_value():
    # k_s*(s - (tau*v+L)) + k_v*(v_lead - v) with defaults:
    # 0.8*(20 - 17) + 1.4*(11 - 10) = 3.8
    assert acc_acceleration(20.0, 10.0, 11.0, P) == pytest.approx(3.8, rel=1e-14)


def test_acc_acceleration_cruise_mode_is_inert():
    # spacing above critical and v at v_f: no feedback
    assert acc_acceleration(P.s_c + 1.0, P.v_f, P.v_f - 3.0, P) == 0.0
    with pytest.raises(ValueError):
        acc_acceleration(0.0, 10.0, 10.0, P)


def test_acc_acceleration_names_the_first_refused_spacing():
    # the boundary contract's form, not numpy's truncated print of the array;
    # a NaN spacing (an unmerged cut-in's column) passes and gives NaN
    s = np.r_[np.ones(2000), math.nan, -1.0, 0.0]
    with pytest.raises(ValueError, match=r"^spacing must be positive, got -1\.0$"):
        acc_acceleration(s, 10.0, 10.0, P)
    assert np.isnan(acc_acceleration(s[1999:2001], 10.0, 10.0, P)).tolist() == [False, True]


def test_eigenstructure_hand_values():
    st_ = TrafficState(rho=0.05, v=10.0)
    eig = eigenstructure(st_, P.k_v)
    assert eig.lambda1 == pytest.approx(10.0)
    assert eig.lambda2 == pytest.approx(10.0 - 1.4 / 0.05, rel=1e-14)
    # r2 tilts by -k_v/rho^2
    assert eig.r2[1] == pytest.approx(-1.4 / 0.05**2, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    rho=st.floats(1e-4, 0.2),
    v=st.floats(0.0, 40.0),
    k_v=st.floats(1e-6, 5.0),
)
def test_hyperbolicity_and_anisotropy(rho, v, k_v):
    eig = eigenstructure(TrafficState(rho=rho, v=v), k_v)
    assert eig.lambda1 - eig.lambda2 == pytest.approx(k_v / rho, rel=1e-12)
    assert eig.lambda2 <= eig.lambda1


def test_eigenstructure_vectorized():
    rho = np.array([0.04, 0.05, 0.1])
    v = np.array([8.0, 10.0, 12.0])
    eig = eigenstructure(TrafficState(rho=rho, v=v), 1.4)
    assert np.allclose(eig.lambda2, v - 1.4 / rho)


def test_momentum_residual_vanishes_on_equilibrium():
    v = 9.0
    state = TrafficState(rho=1.0 / P.desired_spacing(v), v=v)
    assert momentum_residual(0.0, 0.0, state, P) == pytest.approx(0.0, abs=1e-14)


def test_momentum_residual_picks_up_relaxation():
    # stationary uniform field off the equilibrium manifold
    state = TrafficState(rho=1.0 / 20.0, v=10.0)
    expect = P.k_s * (P.tau * 10.0 + P.L - 20.0)
    assert momentum_residual(0.0, 0.0, state, P) == pytest.approx(expect, rel=1e-14)


def test_ptm_equivalent_kv_matches_eigenvalue():
    # with the equivalent gain, lambda2 = v + rho*Vp(rho)*v/V(rho) ... the
    # pressure-model eigenvalue; verify via the defining relation
    rho, v = 0.06, 8.0
    V, Vp = 9.0, -40.0
    kv = ptm_equivalent_kv(rho, v, V, Vp)
    lam2 = eigenstructure(TrafficState(rho=rho, v=v), kv).lambda2
    assert lam2 == pytest.approx(v - kv / rho, rel=1e-14)
    assert kv == pytest.approx(-rho * (v + rho * Vp * v / V - V), rel=1e-14)
    with pytest.raises(ValueError):
        ptm_equivalent_kv(rho, v, 0.0, Vp)


def test_first_field_linearly_degenerate():
    rng = np.random.default_rng(7)
    fn = constant_gain(1.4)
    for _ in range(100):
        state = TrafficState(rho=rng.uniform(0.01, 0.2), v=rng.uniform(0.0, 30.0))
        assert linear_degeneracy_indicator(1, state, fn) == 0.0


def test_second_field_degenerate_for_constant_gain():
    state = TrafficState(rho=0.05, v=10.0)
    assert linear_degeneracy_indicator(2, state, constant_gain(2.2)) == 0.0


def test_second_field_indicator_for_density_gain():
    # k_v(rho) = a + b*rho  ->  indicator = -b/rho
    a, b = 0.7, 3.0
    fn = density_gain(lambda r: a + b * r, lambda r: b)
    state = TrafficState(rho=0.08, v=12.0)
    got = linear_degeneracy_indicator(2, state, fn)
    assert got == pytest.approx(-b / 0.08, rel=1e-12)
    with pytest.raises(ValueError):
        linear_degeneracy_indicator(3, state, fn)
