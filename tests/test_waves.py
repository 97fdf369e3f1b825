"""Transfer function, string stability, and closed-form wave speed."""

import math
from pathlib import Path

import numpy as np
import pytest

from accwave import waves
from accwave.dataio import load_draws
from accwave.microsim import OscillationSpec, leader_motion
from accwave.model import ControlParams
from accwave.scenarios import CASE4_PARAMS, TABLE_PARAMS
from accwave.waves import (
    StabilityClass,
    follower_motion_closed_form,
    string_stability_class,
    transfer_function,
    wave_oscillation_period,
    wave_speed_closed_form,
)
from oracles import grid_stability_class

P = ControlParams()
OMEGA_1 = 0.16 * math.pi

# frozen from an independent complex-arithmetic evaluation of
# (k_s + i w k_v) / ((i w)^2 + i w (k_s tau + k_v) + k_s) at defaults
G_MAG_AT_W1 = 0.8155443691421281
G_PHASE_AT_W1 = -0.41705070565589974


def test_transfer_magnitude_and_phase_frozen_values():
    te = transfer_function(OMEGA_1, P)
    assert te.gain_mag == pytest.approx(G_MAG_AT_W1, rel=1e-14)
    assert te.phase == pytest.approx(G_PHASE_AT_W1, rel=1e-14)


def test_transfer_dc_gain_is_unity():
    assert transfer_function(0.0, P).gain_mag == 1.0
    assert transfer_function(1e-8, P).gain_mag == pytest.approx(1.0, abs=1e-6)


def test_transfer_vectorized_matches_scalar():
    w = np.array([0.1, OMEGA_1, 2.0])
    te = transfer_function(w, P)
    for i, wi in enumerate(w):
        one = transfer_function(float(wi), P)
        assert te.gain_mag[i] == pytest.approx(one.gain_mag, rel=1e-15)
        assert te.phase[i] == pytest.approx(one.phase, rel=1e-15)


@pytest.mark.parametrize("params", [P, ControlParams(k_s=0.0), ControlParams(tau=0.6, k_s=0.4, k_v=0.5)],
                         ids=["defaults", "k_s=0", "weak"])
def test_inverse_gain_is_one_plus_the_micro_macro_term(params):
    # the micro/macro bridge on the open road: 1/G(iw) = 1 + mu(iw), where
    # mu(iw) = iw (iw + k_s tau) / (k_s + iw k_v), and e^{-mu} is the
    # continuum's per-vehicle factor
    w = np.logspace(-2, 2, 20)
    iw = 1j * w
    mu = iw * (iw + params.k_s * params.tau) / (params.k_s + iw * params.k_v)
    g = waves._gain(w, params)
    assert np.all(np.abs(1.0 / g - (1.0 + mu)) <= 1e-12 * np.abs(1.0 + mu))


def test_default_gains_are_string_stable():
    res = string_stability_class(P)
    assert res.classification is StabilityClass.STABLE
    # the criterion k_s*tau^2 + 2*k_v*tau > 2 holds: 1.152 + 3.36
    assert P.k_s * P.tau**2 + 2 * P.k_v * P.tau > 2.0


def test_unstable_gains_have_amplifying_band():
    weak = ControlParams(tau=1.0, L=5.0, k_s=0.3, k_v=0.5)
    assert weak.k_s * weak.tau**2 + 2 * weak.k_v * weak.tau < 2.0
    res = string_stability_class(weak)
    assert res.classification is StabilityClass.UNSTABLE
    assert res.sup_gain > 1.0
    assert transfer_function(res.argmax_omega, weak).gain_mag == pytest.approx(
        res.sup_gain, rel=1e-12
    )


def test_marginal_boundary_classification():
    # pick k_v so that k_s*tau^2 + 2*k_v*tau == 2 exactly
    tau, k_s = 1.0, 0.5
    k_v = (2.0 - k_s * tau**2) / (2.0 * tau)
    res = string_stability_class(ControlParams(tau=tau, L=5.0, k_s=k_s, k_v=k_v))
    assert res.classification is StabilityClass.MARGINAL


# the k_s = 0 and k_v = 0 edges, the D = 0 set of the marginal test and the
# amplifying set above
BOUNDARY_SETS = [ControlParams(k_s=0.0), ControlParams(k_v=0.0),
                 ControlParams(tau=1.0, L=5.0, k_s=0.5, k_v=0.75),
                 ControlParams(tau=1.0, L=5.0, k_s=0.3, k_v=0.5)]
DRAW_SETS = [ControlParams(tau=d.tau, L=d.L, k_s=d.k_s, k_v=d.k_v)
             for d in load_draws(str(Path(__file__).resolve().parent.parent / "data" / "calibrated_draws.csv"))]
GRID_STEP = 10 ** (4 / 9999)   # ratio of neighbours on the oracle's 10^4-point grid


def test_exact_stability_matches_the_grid_oracle():
    # 202 of the 206 sets are Unstable; measured, the exact sup is at most
    # 5.1e-8 relative above the grid's and the argmax 4.6e-4 relative off it
    for params in [TABLE_PARAMS, CASE4_PARAMS, *BOUNDARY_SETS, *DRAW_SETS]:
        got, grid = string_stability_class(params), grid_stability_class(params)
        assert got.classification is grid.classification, params
        assert grid.sup_gain <= got.sup_gain <= grid.sup_gain * (1.0 + 1e-7), params
        assert 1.0 / GRID_STEP <= got.argmax_omega / grid.argmax_omega <= GRID_STEP, params
    assert string_stability_class(TABLE_PARAMS) == grid_stability_class(TABLE_PARAMS)


@pytest.mark.parametrize("params", [TABLE_PARAMS, CASE4_PARAMS, *BOUNDARY_SETS, *DRAW_SETS[:10]],
                         ids=["table", "case4", "k_s=0", "k_v=0", "D=0", "amplifying",
                              *(f"draw{i}" for i in range(10))])
def test_no_frequency_of_a_fine_grid_exceeds_the_exact_sup(params):
    res = string_stability_class(params)
    mags = transfer_function(np.logspace(-2, 2, 10**6), params).gain_mag
    assert mags.max() <= res.sup_gain * (1.0 + 1e-12)


def test_stability_evaluates_the_gain_once_on_at_most_three_frequencies(monkeypatch):
    sizes, gain = [], waves._gain
    monkeypatch.setattr(waves, "_gain", lambda w, p: sizes.append(np.size(w)) or gain(w, p))
    string_stability_class(DRAW_SETS[0])
    assert sizes == [3]


def test_follower_motion_reduces_to_leader_at_n0():
    spec = OscillationSpec(v_e=10.0, modes=((2.0, OMEGA_1, 0.3),))
    t = np.linspace(0.0, 25.0, 400)
    x0, v0 = follower_motion_closed_form(0, spec, P, t)
    assert np.allclose(v0, 10.0 + 2.0 * OMEGA_1 * np.cos(OMEGA_1 * t + 0.3))
    assert np.allclose(x0, 10.0 * t + 2.0 * np.sin(OMEGA_1 * t + 0.3))
    # bit for bit, as the docstring claims, and with its t >= 0 check
    x, v, _ = leader_motion(spec, t)
    assert np.array_equal(x0, x) and np.array_equal(v0, v)
    assert follower_motion_closed_form(0, spec, P, 7.3) == tuple(float(y) for y in leader_motion(spec, 7.3)[:2])
    with pytest.raises(ValueError, match="vehicle index"):
        follower_motion_closed_form(-1, spec, P, t)
    with pytest.raises(ValueError, match="non-negative"):
        follower_motion_closed_form(2, spec, P, -1.0)


def test_follower_amplitude_scales_by_gain_power():
    spec = OscillationSpec(v_e=10.0, modes=((2.0, OMEGA_1, 0.0),))
    t = np.linspace(200.0, 200.0 + 2 * math.pi / OMEGA_1, 4001)
    for n in (1, 2, 3):
        _, v = follower_motion_closed_form(n, spec, P, t)
        swing = 0.5 * (v.max() - v.min())
        assert swing == pytest.approx(2.0 * OMEGA_1 * G_MAG_AT_W1**n, rel=1e-5)


def test_wave_nominal_speed_default_equilibrium():
    spec = OscillationSpec(v_e=10.0, modes=())
    w = wave_speed_closed_form(1, spec, P)
    # v_e - k_v*(tau*v_e + L) = 10 - 1.4*17
    assert w.nominal == pytest.approx(-13.8, rel=1e-14)
    assert w.evaluate(3.7) == pytest.approx(-13.8, rel=1e-14)


def test_wave_amplitude_frozen_value_single_mode():
    # exact harmonic combination for n=1, A=20, w = 0.16*pi, defaults;
    # frozen from an independent evaluation of
    # R = A*hypot(w + k_v*g*sin(psi), k_v*(g*cos(psi) - 1))
    spec = OscillationSpec(v_e=10.0, modes=((20.0, OMEGA_1, 0.0),))
    w = wave_speed_closed_form(1, spec, P)
    R, phi_w, om, theta0 = w.modes[0]
    assert R == pytest.approx(7.167183586754288, rel=1e-13)
    assert om == OMEGA_1
    assert theta0 == 0.0


def test_wave_closed_form_matches_direct_substitution():
    """W(t) rebuilt from the closed-form follower motion must agree."""
    spec = OscillationSpec(v_e=10.0, modes=((20.0, OMEGA_1, 0.0), (10.0, 0.32 * math.pi, 0.5 * math.pi)))
    t = np.linspace(50.0, 90.0, 1500)
    for n in (1, 2, 4):
        x_lead, v_lead = follower_motion_closed_form(n - 1, spec, P, t)
        x_fol, _ = follower_motion_closed_form(n, spec, P, t)
        direct = v_lead - P.k_v * (x_lead - x_fol)
        closed = wave_speed_closed_form(n, spec, P).evaluate(t)
        assert np.max(np.abs(direct - closed)) < 1e-12
    with pytest.raises(ValueError):
        wave_speed_closed_form(0, spec, P)


def test_wave_amplitude_decays_for_stable_gains():
    spec = OscillationSpec(v_e=10.0, modes=((20.0, OMEGA_1, 0.0),))
    amps = [wave_speed_closed_form(n, spec, P).modes[0][0] for n in (1, 2, 3, 4)]
    assert all(a2 < a1 for a1, a2 in zip(amps, amps[1:]))
    assert amps[1] / amps[0] == pytest.approx(G_MAG_AT_W1, rel=1e-12)


def test_oscillation_period_single_mode():
    assert wave_oscillation_period([OMEGA_1]) == pytest.approx(2 * math.pi / OMEGA_1, rel=1e-12)


def test_oscillation_period_rational_pair():
    # w2 = 2*w1 -> period of the slower mode
    T = wave_oscillation_period([OMEGA_1, 2 * OMEGA_1])
    assert T == pytest.approx(2 * math.pi / OMEGA_1, rel=1e-12)
    # 3:2 ratio -> two periods of the slower mode
    T = wave_oscillation_period([1.5, 1.0])
    assert T == pytest.approx(2 * math.pi / 0.5, rel=1e-12)


def test_oscillation_period_incommensurate_returns_none():
    assert wave_oscillation_period([1.0, math.sqrt(2.0)]) is None
    with pytest.raises(ValueError):
        wave_oscillation_period([])
    with pytest.raises(ValueError):
        wave_oscillation_period([1.0, -2.0])
