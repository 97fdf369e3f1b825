"""Tests for the finite-volume ring solver and the micro-to-Eulerian map."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accwave.microsim import Trajectory, ring_setup, simulate_platoon
from accwave.model import ControlParams
from accwave.pde import (
    EulerianField,
    Grid,
    PositivityError,
    micro_to_eulerian,
    ring_cells,
    solve,
    step,
)
from accwave.pde import _StepWork, _advection, _cell_bound, _rusanov

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
    with pytest.raises(TypeError):  # the grid is always a ring
        Grid(L_x=100.0, n_x=10, periodic=False)


@settings(max_examples=100, deadline=None)
@given(L_x=st.floats().filter(lambda x: not (math.isfinite(x) and x > 0)),
       n_x=st.integers(4, 10_000))
def test_grid_rejects_non_finite_or_non_positive_length(L_x, n_x):
    # Grid(nan, 10) used to be accepted
    with pytest.raises(ValueError, match="ring length"):
        Grid(L_x=L_x, n_x=n_x)


@settings(max_examples=100, deadline=None)
@given(L_x=st.floats(1.0, 1e5), n_x=st.floats(4.0, 1e5) | st.sampled_from([math.nan, math.inf]))
def test_grid_rejects_a_non_integer_cell_count(L_x, n_x):
    # a float cell count, integral or not, is refused: 10.5 used to give
    # 11 centers with dx = L_x/10.5
    with pytest.raises(ValueError, match="cell count"):
        Grid(L_x=L_x, n_x=n_x)


def test_grid_accepts_numpy_integer_cell_count():
    assert Grid(L_x=100.0, n_x=np.int64(10)).dx == 10.0


def _side(rho, v):
    """(rho, q, bound) of one interface side, as `_rusanov` takes it."""
    return rho, rho * v, _cell_bound(v, _advection(rho, v, P))


def test_wave_bound_and_flux_hand_values():
    # left: max(12, |12 - 1.4/0.05|) = 16; right: max(6, |6 - 1.4/0.08|) = 11.5
    left, right = _side(0.05, 12.0), _side(0.08, 6.0)
    assert (left[2], right[2]) == pytest.approx((16.0, 11.5), rel=1e-12)
    # alpha = 16: 0.5*(0.6 + 0.48) - 0.5*16*(0.08 - 0.05) = 0.54 - 0.24 = 0.30,
    # returned doubled
    assert _rusanov(*left, *right) == pytest.approx(2 * 0.30, rel=1e-12)


def test_building_blocks_are_elementwise():
    l_rho, l_v = np.array([0.05, 0.08, 0.1]), np.array([12.0, 6.0, 10.0])
    r_rho, r_v = np.array([0.08, 0.05, 0.1]), np.array([6.0, 12.0, 9.0])
    got = _rusanov(*_side(l_rho, l_v), *_side(r_rho, r_v))
    want = [_rusanov(*_side(*left), *_side(*right))
            for left, right in zip(zip(l_rho, l_v), zip(r_rho, r_v))]
    assert np.array_equal(got, want)
    a = _advection(l_rho, l_v, P)
    assert np.array_equal(a, l_v - P.k_v / l_rho)
    assert np.array_equal(_cell_bound(l_v, a), np.maximum(np.abs(l_v), np.abs(a)))


def test_advection_speed_is_second_characteristic():
    # v - k_v/rho = 10 - 1.4/0.1 = -4
    assert _advection(0.1, 10.0, P) == pytest.approx(-4.0, rel=1e-14)


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
    _, _, h = step(rho, v, g, P)
    assert h == pytest.approx(0.18115942028985507, rel=1e-13)


def test_dt_argument_caps_the_step():
    g, rho, v = _equilibrium_grid()
    _, _, h = step(rho, v, g, P, dt=0.01)
    assert h == 0.01


@settings(max_examples=100, deadline=None)
@given(bad=st.floats(max_value=0.0) | st.just(math.nan))
def test_step_refuses_a_nan_zero_or_negative_dt_cap(bad):
    # dt=nan used to return an all-NaN field, and dt <= 0 a zero or backward step
    g, rho, v = _equilibrium_grid()
    with pytest.raises(ValueError, match="dt cap"):
        step(rho, v, g, P, dt=bad)


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
    field = solve(rho0, v0, g, P, t_end=20.0)
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


@settings(max_examples=100, deadline=None)
@given(
    field=st.sampled_from(["rho", "v"]),
    cell=st.integers(0, 199),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_solve_rejects_non_finite_initial_data(field, cell, bad):
    # a NaN speed used to make the CFL step NaN, so min(dt, NaN) took one
    # step of h = t_end and returned a NaN field
    g, rho, v = _equilibrium_grid()
    data = {"rho": rho.copy(), "v": v.copy()}
    data[field][cell] = bad
    with pytest.raises(ValueError, match="finite"):
        solve(data["rho"], data["v"], g, P, t_end=1.0)


@settings(max_examples=60, deadline=None)
@given(t_end=st.floats().filter(lambda x: not (math.isfinite(x) and x >= 0)))
def test_solve_rejects_non_finite_or_negative_end_time(t_end):
    # a NaN t_end used to return the t = 0 snapshot alone; inf never ends
    g, rho, v = _equilibrium_grid()
    with pytest.raises(ValueError, match="t_end"):
        solve(rho, v, g, P, t_end=t_end)


def test_solve_records_requested_times():
    g, rho, v = _equilibrium_grid()
    field = solve(rho, v, g, P, t_end=2.0, output_times=[0.0, 1.0, 2.0])
    assert field.times.tolist() == [0.0, 1.0, 2.0]
    assert field.rho.shape == (3, g.n_x)


@pytest.mark.parametrize("requests, want", [
    ([0.3, 0.0, 0.3, 0.03, 0.0], [0.0, 0.03, 0.3]),      # duplicates
    ([0.7, 0.31, 0.1 + 0.2], [0.1 + 0.2, 0.31, 0.7]),    # out of order
    ([0.2, -0.0, -1.0], [0.0, 0.2]),                     # below 0: at +0.0
    ([0.9, 5.0, 1.0], [0.9, 1.0]),                       # past t_end: at t_end
])
def test_solve_lands_on_each_requested_time(requests, want):
    # at equilibrium on dx = 17 m an uncapped step is h = 0.5 * 17 / 13.8
    # = 0.616 s, so each request here caps the step that lands on it; the
    # march reaches 0.3 from 0.03 only by setting t to the request, as
    # 0.03 + (0.3 - 0.03) rounds past it
    g = Grid(L_x=3400.0, n_x=200)
    rho, v = np.full(g.n_x, 1.0 / 17.0), np.full(g.n_x, 10.0)
    field = solve(rho, v, g, P, t_end=1.0, output_times=requests)
    assert field.times.tolist() == want                  # bit for bit
    assert [math.copysign(1.0, t) for t in field.times] == [1.0] * len(want)
    assert field.rho.shape == (len(want), g.n_x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_refuses_a_non_finite_output_time(bad):
    # a NaN request broke the sort, so [0, nan, 1] on a 2 s solve recorded
    # [0, 2] and dropped the 1; inf was recorded at t_end
    g, rho, v = _equilibrium_grid()
    with pytest.raises(ValueError, match=f"^output times must be finite, got {bad}$"):
        solve(rho, v, g, P, t_end=2.0, output_times=[0.0, bad, 1.0])


def test_field_validation():
    g = Grid(L_x=100.0, n_x=10)
    times = np.array([0.0])
    good = np.full((1, 10), 0.05)
    with pytest.raises(ValueError):
        EulerianField(g, times, np.full((2, 10), 0.05), np.full((2, 10), 10.0))
    with pytest.raises(ValueError):
        EulerianField(g, times, 0.0 * good, np.full((1, 10), 10.0))


def test_field_refuses_a_nan_density():
    # rho <= 0 is False for NaN, so a NaN density used to pass
    g = Grid(L_x=100.0, n_x=10)
    rho = np.full((1, 10), 0.05)
    rho[0, 3] = math.nan
    with pytest.raises(ValueError, match="density must be positive"):
        EulerianField(g, np.array([0.0]), rho, np.full((1, 10), 10.0))


def _oracle_step(rho, v, grid, params, t=0.0, dt=None, mass_source=None, momentum_source=None):
    """Reference: the roll-based step, with every interface term rebuilt by
    np.roll, at the solver's CFL number 0.5."""
    dx = grid.dx
    rho_r, v_r = np.roll(rho, -1), np.roll(v, -1)              # cell i+1
    a = v - params.k_v / rho
    a_r = v_r - params.k_v / rho_r
    bound = np.maximum(np.abs(v), np.abs(a))
    bound_r = np.maximum(np.abs(v_r), np.abs(a_r))
    dt_cfl = 0.5 * dx / float(np.max(bound))
    h = dt_cfl if dt is None else min(dt, dt_cfl)

    alpha = np.maximum(bound, bound_r)                          # interface i+1/2
    flux = 0.5 * (rho * v + rho_r * v_r) - 0.5 * alpha * (rho_r - rho)
    rho_new = rho - (h / dx) * (flux - np.roll(flux, 1))
    if mass_source is not None:
        rho_new = rho_new + h * mass_source(grid.centers, t)
    if np.any(rho_new <= 0):
        cell = int(np.argmin(rho_new))
        raise PositivityError(t + h, cell, float(rho_new[cell]))

    a_if = 0.5 * (a + np.roll(a, -1))
    dv_up = v - np.roll(v, 1)
    dv_dn = v_r - v
    a_left = np.roll(a_if, 1)
    v_star = v - (h / dx) * (
        np.maximum(a_left, 0.0) * dv_up + np.minimum(a_if, 0.0) * dv_dn
    )
    if momentum_source is not None:
        v_star = v_star + h * momentum_source(grid.centers, t)
    v_new = v_star + h * params.k_s * (1.0 / rho_new - params.tau * v_star - params.L)
    return rho_new, v_new, h


def _ring_setup(case):
    from accwave.scenarios import RING_N, TABLE_PARAMS, ring_initial_speeds

    v = ring_initial_speeds(case, RING_N)
    return ring_setup(TABLE_PARAMS, v) + (v,)


def _ring_initial_field(case, n_cells):
    from accwave.scenarios import TABLE_PARAMS

    L_x, x, v = _ring_setup(case)
    g = Grid(L_x, n_cells)
    (rho0,), (v0,) = ring_cells(x[None], v[None], g)
    return g, rho0, v0, TABLE_PARAMS


def _wavy_sources(grid):
    k = 2.0 * math.pi / grid.L_x
    return (lambda x, t: 2e-4 * np.sin(k * x + t),
            lambda x, t: 0.05 * np.cos(2.0 * k * x - 0.3 * t))


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("sources", [False, True])
def test_step_matches_roll_oracle_bit_for_bit(case, capped, sources):
    g, rho0, v0, params = _ring_initial_field(case, 200)
    mass, mom = _wavy_sources(g) if sources else (None, None)
    got = (rho0, v0)
    want = (rho0, v0)
    t = 0.0
    for k in range(200):
        # a cap below the CFL step (~0.11 s here) on odd steps, above it on even ones
        dt = (0.05 if k % 2 else 1.0) if capped else None
        r, w, h = step(*got, g, params, t, dt, mass, mom)
        r_o, w_o, h_o = _oracle_step(*want, g, params, t, dt, mass, mom)
        assert h == h_o
        assert (h == 0.05) == (capped and k % 2 == 1)
        assert np.array_equal(r, r_o)
        assert np.array_equal(w, w_o)
        got, want, t = (r, w), (r_o, w_o), t + h


def test_step_positivity_error_matches_roll_oracle():
    g, rho0, v0, params = _ring_initial_field(2, 200)
    # a sink strongest near one point drains the cells there first; the
    # CFL step shrinks with rho as k_v/rho grows, so a steady sink only
    # decays rho geometrically: a weak one for 0.5 s, then a strong one
    sink = lambda x, t: -(0.01 if t < 0.5 else 0.4) * (
        1.0 + np.exp(-((x - 0.3 * g.L_x) / 10.0) ** 2))

    def run(fn):
        rho, v, t = rho0, v0, 0.0
        with pytest.raises(PositivityError) as info:
            for n_steps in range(100):
                rho, v, h = fn(rho, v, g, params, t, None, sink, None)
                t += h
        return info.value, n_steps

    got, want = run(step), run(_oracle_step)
    assert got[1] == want[1] > 1
    assert (got[0].cell, got[0].t, got[0].rho) == (want[0].cell, want[0].t, want[0].rho)


def test_step_rejects_non_positive_density():
    g, rho, v = _equilibrium_grid()
    rho = rho.copy()
    rho[7] = 0.0
    with pytest.raises(ValueError, match="density must be positive"):
        step(rho, v, g, P)


def test_step_refuses_a_nan_density_before_and_after_the_update():
    # both positivity tests used to be (rho <= 0).any(), which NaN passes
    g, rho, v = _equilibrium_grid()
    bad = rho.copy()
    bad[7] = math.nan
    with pytest.raises(ValueError, match="density must be positive"):
        step(bad, v, g, P)
    nan_at_11 = lambda x, t: np.where(np.arange(x.size) == 11, math.nan, 0.0)
    with pytest.raises(PositivityError) as info:
        step(rho, v, g, P, mass_source=nan_at_11)
    assert info.value.cell == 11 and math.isnan(info.value.rho)


def test_step_takes_inputs_that_live_where_its_result_goes():
    # solve passes each step the previous result, a view of the buffer the
    # step writes; the step must read it all before it writes
    g, rho0, v0, params = _ring_initial_field(3, 200)
    w = _StepWork(g.n_x)
    rho1, v1, _ = step(rho0, v0, g, params, work=w)
    want = _oracle_step(rho1.copy(), v1.copy(), g, params)
    rho2, v2, _ = step(rho1, v1, g, params, work=w)
    assert np.shares_memory(rho1, rho2) and np.shares_memory(v1, v2)
    assert np.array_equal(rho2, want[0]) and np.array_equal(v2, want[1])


def test_step_refuses_work_for_another_grid():
    g, rho, v = _equilibrium_grid()
    with pytest.raises(ValueError, match="work buffers"):
        step(rho, v, g, P, work=_StepWork(g.n_x + 1))


def _oracle_solve(rho, v, grid, params, t_end, output_times, mass_source=None,
                  momentum_source=None):
    """Reference for `solve`: a loop of `_oracle_step` capped at each
    request, clipped to [0, t_end], in increasing order, and then at t_end;
    it keeps the state and time where each request's march ends, once."""
    wanted = [0.0, t_end] if output_times is None else sorted(np.clip(output_times, 0.0, t_end))
    times, rhos, vs = [], [], []
    t = 0.0
    for k, stop in enumerate(wanted + [t_end]):
        while t < stop:
            rho, v, h = _oracle_step(rho, v, grid, params, t, stop - t, mass_source,
                                     momentum_source)
            t = stop if h == stop - t else t + h
        if k < len(wanted) and (not times or times[-1] != t):
            times.append(t)
            rhos.append(rho)
            vs.append(v)
    return np.array(times), np.array(rhos), np.array(vs)


# (cells or None, dx or None, t_end): the default grid and the refined one
_RESOLUTIONS = {"200 cells": (200, None, 8.0), "dx 0.25": (None, 0.25, 0.8)}


def _ring_resolution(case, name):
    n_cells, dx, t_end = _RESOLUTIONS[name]
    if dx is not None:
        n_cells = int(round(_ring_setup(case)[0] / dx))
    return _ring_initial_field(case, n_cells) + (t_end,)


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("resolution", list(_RESOLUTIONS))
@pytest.mark.parametrize("sources", [False, True])
def test_solve_matches_a_loop_of_the_oracle_step_bit_for_bit(case, resolution, sources):
    # solve reuses its buffers from step to step and copies the state it
    # records; the oracle step allocates every state it returns
    g, rho0, v0, params, t_end = _ring_resolution(case, resolution)
    mass, mom = _wavy_sources(g) if sources else (None, None)
    # off the CFL step grid, and the last one short of t_end
    requests = list(np.arange(0.0, t_end, t_end / 17.0) + t_end / 41.0)
    for wanted in (requests, None):
        got = solve(rho0, v0, g, params, t_end, output_times=wanted,
                    mass_source=mass, momentum_source=mom)
        times, rho, v = _oracle_solve(rho0, v0, g, params, t_end, wanted, mass, mom)
        assert got.times.tolist() == times.tolist() == (wanted or [0.0, t_end])
        assert np.array_equal(got.rho, rho)
        assert np.array_equal(got.v, v)


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("resolution", list(_RESOLUTIONS))
def test_solve_positivity_error_matches_the_oracle_loop(case, resolution):
    g, rho0, v0, params, _ = _ring_resolution(case, resolution)
    # as in the step test, but strong enough on any grid: a CFL step takes
    # cfl*dx*rho/k_v, so a sink above k_v/(cfl*dx) empties a cell in one
    sink = lambda x, t: -(0.01 if t < 0.5 else 1.5 / g.dx) * (
        1.0 + np.exp(-((x - 0.3 * g.L_x) / 10.0) ** 2))
    with pytest.raises(PositivityError) as got:
        solve(rho0, v0, g, params, 5.0, mass_source=sink)
    with pytest.raises(PositivityError) as want:
        _oracle_solve(rho0, v0, g, params, 5.0, None, sink)
    assert (got.value.cell, got.value.t, got.value.rho) == (
        want.value.cell, want.value.t, want.value.rho)


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
    rho, v = micro_to_eulerian(trajs, g, 0.0)
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
    for few in (trajs[:1], []):  # no trajectories used to fail in max() of an empty window
        with pytest.raises(ValueError, match="^need at least two vehicles$"):
            micro_to_eulerian(few, g, 0.0)


@pytest.mark.parametrize("t", [600.0, -0.5, math.nan, [0.0, 0.5, 1.5]])
def test_micro_to_eulerian_refuses_a_time_outside_the_trajectories(t):
    # np.interp clamps: t = 600 on a 6 s ring used to return the t = 6
    # field, and a NaN time an all-NaN field
    trajs = _ring_pair()                 # both sampled at t = 0 and 1
    g = Grid(L_x=100.0, n_x=10)
    with pytest.raises(ValueError, match=r"outside the trajectories' common window \[0.0, 1.0\]"):
        micro_to_eulerian(trajs, g, t)


def _micro_to_eulerian_at(trajectories, grid, t):
    """Reference: the per-snapshot mapping with scalar interpolation."""
    ring_length = grid.L_x
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

    sc = ring_scenario(3, n_vehicles=12, duration=6.0)
    res = simulate_platoon(sc)
    g = Grid(L_x=ring_setup(sc.params, sc.initial_speeds)[0], n_x=50)
    times = np.array([0.0, 0.37, 1.0, 2.505, 6.0])
    rho, v = micro_to_eulerian(res.trajectories, g, times)
    assert rho.shape == v.shape == (len(times), g.n_x)
    for k, t_k in enumerate(times):
        rho_k, v_k = _micro_to_eulerian_at(res.trajectories, g, float(t_k))
        assert np.array_equal(rho[k], rho_k)
        assert np.array_equal(v[k], v_k)


def test_ring_cells_of_the_sampled_states_match_micro_to_eulerian():
    trajs = _ring_pair()
    g = Grid(L_x=100.0, n_x=10)
    x = np.array([tr.x for tr in trajs]).T        # (n_t, n): one row per sample time
    v = np.array([tr.v for tr in trajs]).T
    rho_a, v_a = ring_cells(x, v, g)
    rho_b, v_b = micro_to_eulerian(trajs, g, trajs[0].t)
    assert np.array_equal(rho_a, rho_b)
    assert np.array_equal(v_a, v_b)
    # no times: empty fields, as solve(output_times=[]) gives
    for rho_0, v_0 in (ring_cells(x[:0], v[:0], g), micro_to_eulerian(trajs, g, [])):
        assert rho_0.shape == v_0.shape == (0, g.n_x)


def test_ring_cells_validation():
    g = Grid(L_x=100.0, n_x=10)
    x, v = np.array([[60.0, 20.0]]), np.array([[5.0, 7.0]])
    with pytest.raises(ValueError, match="at least two vehicles"):
        ring_cells(x[:, :1], v[:, :1], g)
    with pytest.raises(ValueError, match="non-positive spacing"):
        ring_cells(np.array([[20.0, 60.0]]), v, g)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_solve_ring_starts_from_the_simulated_ring_at_t0_bit_for_bit(case):
    from accwave.scenarios import RING_N, ring_scenario, solve_ring

    fld = solve_ring(case, RING_N, 1.0, 0.5)
    sc = ring_scenario(case)
    assert (fld.grid.L_x, fld.grid.n_x) == (ring_setup(sc.params, sc.initial_speeds)[0], 200)
    res = simulate_platoon(sc)
    rho, v = micro_to_eulerian(res.trajectories, fld.grid, 0.0)
    assert fld.times[0] == 0.0
    assert np.array_equal(fld.rho[0], rho)
    assert np.array_equal(fld.v[0], v)


def test_solve_ring_records_the_end_state_of_a_run_between_samples():
    # the solver marches to the duration, so its end state is recorded too;
    # a last sample within round-off of the end (3 * 0.7 against 2.1) is it
    from accwave.scenarios import RING_N, run_ring_validation, solve_ring

    assert solve_ring(1, RING_N, 0.3, 0.5).times.tolist() == [0.0, 0.3]
    assert solve_ring(1, RING_N, 59.7, 0.5).times[-2:].tolist() == [59.5, 59.7]
    assert solve_ring(1, RING_N, 2.1, 0.7).times.tolist() == [0.0, 0.7, 1.4, 3 * 0.7]
    r = run_ring_validation(1, duration=0.3)
    assert r.micro.times.tolist() == [0.0, 0.3]
    assert r.rmse_v > 0 and r.rmse_rho > 0


def _validate_and_a_fine_ring(case, duration, sample_every=0.5):
    """`validate`'s run, and the field of a ring at dt = 0.001 mapped at its times."""
    from accwave.scenarios import ring_scenario, run_ring_validation

    r = run_ring_validation(case, duration=duration, sample_every=sample_every)
    res = simulate_platoon(ring_scenario(case, duration=duration, dt=0.001))
    return r, micro_to_eulerian(res.trajectories, r.pde.grid, r.pde.times)


@pytest.mark.parametrize("case, duration", [pytest.param(c, 60.0, id=str(c)) for c in (1, 2, 3)]
                         + [pytest.param(c, 30.25, id=f"{c}-30.25") for c in (1, 2, 3)])
def test_validate_micro_field_does_not_depend_on_the_ring_step(case, duration):
    # every PDE output time is a sample of the ring at its sample step:
    # 0.5 s, or 0.01 s when the duration is not a whole number of samples
    # (30.25 s, whose output times are the multiples of 0.5 s and the end).
    # The ring is exact at its samples, so a ring at dt = 0.001 maps to the
    # same field to round-off
    r, (rho, v) = _validate_and_a_fine_ring(case, duration)
    assert np.array_equal(r.micro.times, r.pde.times)
    assert np.max(np.abs(r.micro.rho - rho)) <= 1e-11
    assert np.max(np.abs(r.micro.v - v)) <= 1e-11


def test_validate_micro_field_interpolates_times_between_the_ring_samples():
    # at 0.333 s the output times fall between the ring's 0.01 s samples:
    # the field there is interpolated, which `validate`'s docs state
    r, (rho, v) = _validate_and_a_fine_ring(1, 30.25, sample_every=0.333)
    assert 1e-6 < np.max(np.abs(r.micro.v - v)) < 1e-5
    assert np.max(np.abs(r.micro.rho - rho)) > 1e-9


def test_ring_validation_records_only_its_samples():
    # the ring is simulated at its 0.5 s sample step (121 samples of 40
    # vehicles), not at the 0.01 s check step (6,001 samples, 5.9 MB)
    from accwave.scenarios import run_ring_validation

    run_ring_validation(1)
    tracemalloc.start()
    try:
        run_ring_validation(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


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
    # Each halving of dx from 50 to 800 cells cut the error by 1.90, 2.01,
    # 2.01 and 2.00: first order.  The band 1.8-2.2 fails a solve that stops
    # converging (ratio near 1) or changes order (near 4); the five solves
    # take about 20 ms.
    L_x = 200.0
    t_end = 0.5
    rho_star, v_star, mass_src, mom_src = _manufactured(L_x)
    errs = []
    for n_x in (50, 100, 200, 400, 800):
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
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(1.8 < r < 2.2 for r in ratios), (errs, ratios)


# ---------------------------------------------------------------------------
# grid error of validate's ring solve, against refined solves of the same ring
# ---------------------------------------------------------------------------


def _v_on_cells(field: EulerianField, n_cells: int) -> np.ndarray:
    """v of a ring field averaged onto n_cells equal cells (a divisor of its own count)."""
    n_t, n_x = field.v.shape
    return field.v.reshape(n_t, n_cells, n_x // n_cells).mean(axis=2)


def _rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def test_ring_solve_self_converges_at_first_order():
    # Case 1 on 200, 400, ..., 3,200 cells, each field's v averaged onto the
    # 200 cells: successive fields differ by 0.0268, 0.0108, 0.0055 and 0.0028
    # m/s, ratios 2.49, 1.95 and 2.00.  A first-order scheme halves that
    # difference with dx, a ratio of 2; the band 1.6-3.0 keeps about 0.35 of
    # margin below the lowest ratio and 0.5 above the highest, and fails a
    # solve that stops converging (ratio near 1) or changes order (near 4).
    from accwave.scenarios import solve_ring

    ring_length = _ring_setup(1)[0]
    fields = []
    for n in (200, 400, 800, 1600, 3200):
        field = solve_ring(1, dx=ring_length / n)
        assert field.grid.n_x == n
        fields.append(_v_on_cells(field, 200))
    diffs = [_rms(a, b) for a, b in zip(fields, fields[1:])]
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    assert all(1.6 < r < 3.0 for r in ratios), (diffs, ratios)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_ring_grid_error_is_a_small_share_of_the_validation_rmse(case):
    # validate's RMSE_v holds the model's micro-vs-PDE mismatch and the grid
    # error of its 200-cell solve.  Against the 1,600-cell field averaged onto
    # the 200 cells, the 200-cell v differs by 0.039, 0.013 and 0.044 m/s in
    # cases 1-3: 10.9 %, 9.9 % and 11.5 % of RMSE_v (0.356, 0.127, 0.381).
    # The bound, 15 %, leaves about a third of margin over the largest share.
    from accwave.scenarios import run_ring_validation, solve_ring

    r = run_ring_validation(case)
    field = solve_ring(case, dx=_ring_setup(case)[0] / 1600)
    assert field.grid.n_x == 1600
    fine = _v_on_cells(field, r.pde.grid.n_x)
    assert _rms(r.pde.v, fine) < 0.15 * r.rmse_v
