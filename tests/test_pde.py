"""Tests for the finite-volume ring solver and the micro-to-Eulerian map."""

import math

import numpy as np
import pytest

from accwave.microsim import Trajectory, simulate_platoon
from accwave.model import ControlParams, TrafficState
from accwave.pde import (
    EulerianField,
    Grid,
    PositivityError,
    advection_speed,
    local_wave_bound,
    micro_to_eulerian,
    pde_initial_from_micro,
    rusanov_flux,
    solve,
    step,
)

P = ControlParams()  # tau=1.2, L=5, k_s=0.8, k_v=1.4


# ---------------------------------------------------------------------------
# grid and building blocks
# ---------------------------------------------------------------------------


def test_grid_geometry():
    g = Grid(L_x=100.0, n_x=10)
    assert g.dx == 10.0
    assert np.allclose(g.centers, np.arange(5.0, 100.0, 10.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(L_x=-1.0, n_x=10)
    with pytest.raises(ValueError):
        Grid(L_x=100.0, n_x=3)
    with pytest.raises(ValueError):
        Grid(L_x=100.0, n_x=10, periodic=False)


def test_wave_bound_and_flux_hand_values():
    # left: max(12, |12 - 1.4/0.05|) = 16; right: max(6, |6 - 1.4/0.08|) = 11.5
    left = TrafficState(0.05, 12.0)
    right = TrafficState(0.08, 6.0)
    assert local_wave_bound(left, right, P) == pytest.approx(16.0, rel=1e-12)
    # 0.5*(0.6 + 0.48) - 0.5*16*(0.08 - 0.05) = 0.54 - 0.24 = 0.30
    assert rusanov_flux(left, right, P) == pytest.approx(0.30, rel=1e-12)


def test_building_blocks_are_elementwise():
    left = TrafficState(np.array([0.05, 0.08, 0.1]), np.array([12.0, 6.0, 10.0]))
    right = TrafficState(np.array([0.08, 0.05, 0.1]), np.array([6.0, 12.0, 9.0]))
    for fn in (local_wave_bound, rusanov_flux):
        got = fn(left, right, P)
        want = [fn(TrafficState(lr, lv), TrafficState(rr, rv), P)
                for lr, lv, rr, rv in zip(left.rho, left.v, right.rho, right.v)]
        assert np.array_equal(got, want)
    assert np.array_equal(advection_speed(left, P), left.v - P.k_v / left.rho)


def test_advection_speed_is_second_characteristic():
    # v - k_v/rho = 10 - 1.4/0.1 = -4
    assert advection_speed(TrafficState(0.1, 10.0), P) == pytest.approx(-4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def _equilibrium_grid():
    g = Grid(L_x=1000.0, n_x=200)  # dx = 5
    rho = np.full(g.n_x, 1.0 / 17.0)
    v = np.full(g.n_x, 10.0)
    return g, rho, v


def test_cfl_time_step_hand_value():
    # bound = |10 - 1.4*17| = 13.8, dt = 0.5*5/13.8
    g, rho, v = _equilibrium_grid()
    _, _, h = step(rho, v, g, P, cfl=0.5)
    assert h == pytest.approx(0.18115942028985507, rel=1e-13)


def test_dt_argument_caps_the_step():
    g, rho, v = _equilibrium_grid()
    _, _, h = step(rho, v, g, P, cfl=0.5, dt=0.01)
    assert h == 0.01


def test_cfl_validation():
    g, rho, v = _equilibrium_grid()
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            step(rho, v, g, P, cfl=bad)


def test_equilibrium_is_exact_fixed_point():
    # uniform (1/17, 10) sits on the manifold: every update term vanishes
    # identically, so the state is bitwise unchanged step after step
    g, rho, v = _equilibrium_grid()
    r, w = rho.copy(), v.copy()
    for _ in range(200):
        r, w, _ = step(r, w, g, P)
    assert np.array_equal(r, rho)
    assert np.array_equal(w, v)


def test_mass_conserved_without_sources():
    g = Grid(L_x=400.0, n_x=80)
    x = g.centers
    rho0 = 1.0 / 17.0 + 0.01 * np.sin(2.0 * math.pi * x / g.L_x)
    v0 = 10.0 + 0.8 * np.cos(2.0 * math.pi * x / g.L_x)
    field = solve(rho0, v0, g, P, t_end=20.0, cfl=0.5)
    m0 = float(np.sum(rho0) * g.dx)
    assert field.mass(-1) == pytest.approx(m0, abs=1e-12)


def test_mass_source_shows_up_in_the_budget():
    g, rho, v = _equilibrium_grid()
    rate = 1e-4
    field = solve(rho, v, g, P, t_end=5.0, mass_source=lambda x, t: np.full_like(x, rate))
    t_end = float(field.times[-1])
    expected = field.mass(0) + rate * g.L_x * t_end
    assert field.mass(-1) == pytest.approx(expected, rel=1e-12)


def test_density_positivity_guard():
    g, rho, v = _equilibrium_grid()
    with pytest.raises(PositivityError):
        solve(rho, v, g, P, t_end=5.0, mass_source=lambda x, t: np.full_like(x, -1.0))


def test_solve_validation():
    g, rho, v = _equilibrium_grid()
    with pytest.raises(ValueError):
        solve(rho[:-1], v[:-1], g, P, t_end=1.0)
    with pytest.raises(ValueError):
        solve(-rho, v, g, P, t_end=1.0)
    with pytest.raises(ValueError):
        solve(rho, v, g, P, t_end=-1.0)


def test_solve_records_requested_times():
    g, rho, v = _equilibrium_grid()
    field = solve(rho, v, g, P, t_end=2.0, output_times=[0.0, 1.0, 2.0])
    assert len(field.times) == 3
    assert field.times[0] == 0.0
    # snapshots land on completed steps, within one CFL step of the request
    assert abs(field.times[1] - 1.0) <= 0.19
    assert field.times[2] == pytest.approx(2.0, abs=1e-12)
    assert field.rho.shape == (3, g.n_x)


def test_field_validation():
    g = Grid(L_x=100.0, n_x=10)
    times = np.array([0.0])
    good = np.full((1, 10), 0.05)
    with pytest.raises(ValueError):
        EulerianField(g, times, np.full((2, 10), 0.05), np.full((2, 10), 10.0))
    with pytest.raises(ValueError):
        EulerianField(g, times, 0.0 * good, np.full((1, 10), 10.0))


# ---------------------------------------------------------------------------
# micro -> Eulerian mapping
# ---------------------------------------------------------------------------


def _ring_pair():
    # platoon order, positions descending: vehicle 0 at 60 m, vehicle 1 at 20 m
    t = np.array([0.0, 1.0])
    tr0 = Trajectory(0, t, np.array([60.0, 65.0]), np.array([5.0, 5.0]), np.zeros(2), 1.0)
    tr1 = Trajectory(1, t, np.array([20.0, 27.0]), np.array([7.0, 7.0]), np.zeros(2), 1.0)
    return [tr0, tr1]


def test_micro_to_eulerian_ownership():
    trajs = _ring_pair()
    g = Grid(L_x=100.0, n_x=10)
    rho, v = micro_to_eulerian(trajs, 100.0, g, 0.0)
    # vehicle 1 owns [20, 60) with spacing 40; vehicle 0 owns the wrapped
    # stretch [60, 120) with spacing 60
    centers = g.centers
    own1 = (centers >= 20.0) & (centers < 60.0)
    assert np.allclose(rho[own1], 1.0 / 40.0)
    assert np.allclose(v[own1], 7.0)
    assert np.allclose(rho[~own1], 1.0 / 60.0)
    assert np.allclose(v[~own1], 5.0)


def test_micro_to_eulerian_validation():
    trajs = _ring_pair()
    g = Grid(L_x=100.0, n_x=10)
    with pytest.raises(ValueError):
        micro_to_eulerian(trajs[:1], 100.0, g, 0.0)
    with pytest.raises(ValueError):
        micro_to_eulerian(trajs, 120.0, g, 0.0)


def _micro_to_eulerian_at(trajectories, ring_length, grid, t):
    """Reference: the per-snapshot mapping with scalar interpolation."""
    x = np.array([float(tr.position_at(t)) for tr in trajectories])
    v = np.array([float(tr.speed_at(t)) for tr in trajectories])
    lead_x = np.empty(len(x))
    lead_x[1:] = x[:-1]
    lead_x[0] = x[-1] + ring_length
    pos = np.mod(x, ring_length)
    order = np.argsort(pos)
    idx = np.searchsorted(pos[order], grid.centers, side="right") - 1
    idx[idx < 0] = len(x) - 1
    owners = order[idx]
    return 1.0 / (lead_x - x)[owners], v[owners]


def test_micro_to_eulerian_over_many_times_matches_each_time():
    from accwave.scenarios import ring_scenario

    res = simulate_platoon(ring_scenario(3, n_vehicles=12, duration=6.0))
    g = Grid(L_x=res.ring_length, n_x=50)
    times = np.array([0.0, 0.37, 1.0, 2.505, 6.0])
    rho, v = micro_to_eulerian(res.trajectories, res.ring_length, g, times)
    assert rho.shape == v.shape == (len(times), g.n_x)
    for k, t_k in enumerate(times):
        rho_k, v_k = _micro_to_eulerian_at(res.trajectories, res.ring_length, g, float(t_k))
        assert np.array_equal(rho[k], rho_k)
        assert np.array_equal(v[k], v_k)


def test_pde_initial_from_micro_uses_first_common_time():
    trajs = _ring_pair()
    g = Grid(L_x=100.0, n_x=10)
    rho_a, v_a = pde_initial_from_micro(trajs, 100.0, g)
    rho_b, v_b = micro_to_eulerian(trajs, 100.0, g, 0.0)
    assert np.array_equal(rho_a, rho_b)
    assert np.array_equal(v_a, v_b)


# ---------------------------------------------------------------------------
# manufactured-solution convergence (short version)
# ---------------------------------------------------------------------------


def _manufactured(L_x):
    k = 2.0 * math.pi / L_x
    c = 3.0

    def rho_star(x, t):
        return 0.06 + 0.01 * np.sin(k * (x - c * t))

    def v_star(x, t):
        return 10.0 + 0.5 * np.cos(k * (x - c * t))

    def mass_src(x, t):
        th = k * (x - c * t)
        rho = rho_star(x, t)
        v = v_star(x, t)
        rho_t = -c * 0.01 * k * np.cos(th)
        rho_x = 0.01 * k * np.cos(th)
        v_x = -0.5 * k * np.sin(th)
        return rho_t + rho_x * v + rho * v_x

    def mom_src(x, t):
        th = k * (x - c * t)
        rho = rho_star(x, t)
        v = v_star(x, t)
        v_t = c * 0.5 * k * np.sin(th)
        v_x = -0.5 * k * np.sin(th)
        a = v - P.k_v / rho
        relax = P.k_s * (1.0 / rho - P.tau * v - P.L)
        return v_t + a * v_x - relax

    return rho_star, v_star, mass_src, mom_src


def test_manufactured_solution_error_shrinks_with_refinement():
    L_x = 200.0
    t_end = 0.5
    rho_star, v_star, mass_src, mom_src = _manufactured(L_x)
    errs = []
    for n_x in (50, 100):
        g = Grid(L_x=L_x, n_x=n_x)
        x = g.centers
        field = solve(
            rho_star(x, 0.0), v_star(x, 0.0), g, P, t_end=t_end,
            mass_source=mass_src, momentum_source=mom_src,
        )
        t_f = float(field.times[-1])
        err_rho = np.max(np.abs(field.rho[-1] - rho_star(x, t_f)))
        err_v = np.max(np.abs(field.v[-1] - v_star(x, t_f)))
        errs.append(err_rho / 0.01 + err_v / 0.5)
    assert errs[1] < errs[0] / 1.5
