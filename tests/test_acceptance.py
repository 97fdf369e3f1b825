"""End-to-end acceptance gate.

Every shipped claim is re-derived here and checked at its stated
tolerance; each criterion prints one PASS/FAIL line (run with
`pytest -s tests/test_acceptance.py` to see them all).  Criteria with a
runtime budget are timed with a monotonic clock.
"""

import math
import time
from pathlib import Path

import numpy as np

from accwave.dataio import ingest_trajectories, load_draws, sample_params
from accwave.fourier import fourier_decompose, periodic_reconstruct
from accwave.microsim import (
    ConstAccel,
    Cruise,
    EngagementEvent,
    LeaderProfile,
    OscillationSpec,
    Scenario,
    detect_engagement,
    simulate_platoon,
)
from accwave.model import (
    ControlParams,
    TrafficState,
    constant_gain,
    density_gain,
    eigenstructure,
    linear_degeneracy_indicator,
)
from accwave.pde import Grid, solve, step
from accwave.scenarios import (
    SINGLE_MODES,
    TABLE_PARAMS,
    V_E,
    case_scenario,
    run_case,
    run_empirical,
    run_ring_validation,
)
from accwave.tracker import pair_wave_speed, shock_speed
from accwave.waves import (
    StabilityClass,
    string_stability_class,
    transfer_function,
    wave_speed_closed_form,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
EPS = np.finfo(float).eps


def _gate(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2} ({name}): {status}  [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. hyperbolicity / anisotropy over random admissible states
# ---------------------------------------------------------------------------


def test_criterion_01_hyperbolicity_anisotropy():
    rng = np.random.default_rng(1)
    n = 10**5
    t0 = time.perf_counter()
    L = 5.0
    rho = rng.uniform(1e-9, 1.0 / L, n)
    v = rng.uniform(0.0, 40.0, n)
    k_v = rng.uniform(1e-9, 5.0, n)
    eig = eigenstructure(TrafficState(rho, v), k_v)
    gap = eig.lambda1 - eig.lambda2
    target = k_v / rho
    strict = bool(np.all(gap > 0.0))
    aniso = bool(np.all(eig.lambda2 <= v))
    # the gap identity is algebraic; in floats v - (v - w) reconstructs w
    # only to roundoff, so the bound is a few ulps of the larger operand
    ident = bool(np.all(np.abs(gap - target) <= 4.0 * EPS * np.maximum(v, target)))
    elapsed = time.perf_counter() - t0
    _gate(
        1, "hyperbolicity/anisotropy",
        strict and aniso and ident and elapsed < 1.0,
        f"n={n}, strict={strict}, anisotropy={aniso}, gap identity={ident}, "
        f"runtime {elapsed:.3f} s < 1 s",
    )


# ---------------------------------------------------------------------------
# 2. jump speed between time-headway steady states
# ---------------------------------------------------------------------------


def test_criterion_02_steady_jump_speed_identity():
    # distinct steady states: the jump quotient's cancellation amplifies
    # rounding by ~s/(tau*|dv|), so a 0.5 m/s separation keeps the
    # algebraically exact identity inside 1e-12 in double precision
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10**4):
        tau = rng.uniform(0.5, 2.5)
        L = rng.uniform(2.0, 10.0)
        v_l = rng.uniform(0.0, 40.0)
        delta = rng.uniform(0.5, 10.0) * (1.0 if rng.random() < 0.5 else -1.0)
        v_r = v_l + delta
        if not 0.0 <= v_r <= 40.0:
            v_r = v_l - delta
        left = TrafficState(1.0 / (tau * v_l + L), v_l)
        right = TrafficState(1.0 / (tau * v_r + L), v_r)
        c = shock_speed(left, right)
        worst = max(worst, abs(c + L / tau) / (L / tau))
    ok = worst <= 1e-12
    _gate(2, "steady-jump speed = -L/tau", ok, f"10^4 draws, worst rel err {worst:.3e} <= 1e-12")


# ---------------------------------------------------------------------------
# 3. closed-form wave speed vs fine simulation
# ---------------------------------------------------------------------------


def test_criterion_03_closed_form_matches_simulation():
    t0 = time.perf_counter()
    dt = 0.002
    sc = case_scenario(1, dt=dt, duration=50.0)
    trajs = simulate_platoon(sc).trajectories
    spec = OscillationSpec(v_e=V_E, modes=SINGLE_MODES)
    period = 2.0 * math.pi / SINGLE_MODES[0][1]          # 12.5 s
    warmup = 3.0 * period
    tt = np.arange(warmup, warmup + period, dt)
    worst = 0.0
    for n in range(1, 5):
        w_sim = pair_wave_speed(tt, trajs[n - 1], trajs[n], TABLE_PARAMS)
        w_cf = wave_speed_closed_form(n, spec, TABLE_PARAMS).evaluate(tt)
        rms = float(np.sqrt(np.mean((w_sim - w_cf) ** 2)))
        worst = max(worst, rms)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and elapsed < 10.0
    _gate(
        3, "closed-form wave speed vs simulation", ok,
        f"dt={dt}, pairs 1-4 over one period, worst RMS {worst:.4f} < 0.05 m/s, "
        f"runtime {elapsed:.2f} s < 10 s",
    )


# ---------------------------------------------------------------------------
# 4. summary-statistic ordering across the four cases
# ---------------------------------------------------------------------------


def test_criterion_04_case_table_ordering():
    details = []
    ok = True
    bands = {1: (1.02, 0.25), 3: (1.27, 0.25)}  # reference means, fully determined cases
    for case in (1, 2, 3, 4):
        run = run_case(case)
        ps, bs = run.proposed_stats, run.baseline_stats
        strict = (
            ps.mean < bs.mean and ps.median < bs.median and ps.q1 < bs.q1
            and ps.q3 < bs.q3 and ps.max < bs.max
        )
        ties_ok = ps.min <= bs.min  # minima can tie at zero-deviation crossings
        case_ok = strict and ties_ok
        if case in bands:
            center, tol = bands[case]
            case_ok = case_ok and abs(ps.mean - center) <= tol
        ok = ok and case_ok
        details.append(f"case {case}: {ps.mean:.3f} < {bs.mean:.3f}")
    _gate(4, "case ordering proposed < baseline", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. conservation and equilibrium invariance of the ring solver
# ---------------------------------------------------------------------------


def test_criterion_05_mass_conservation_and_fixed_point():
    g = Grid(L_x=1000.0, n_x=200)
    x = g.centers
    rho = 1.0 / 17.0 + 0.005 * np.sin(2.0 * math.pi * x / g.L_x)
    v = 10.0 + 0.5 * np.cos(2.0 * math.pi * x / g.L_x)
    m0 = float(np.sum(rho) * g.dx)
    for _ in range(10**4):
        rho, v, _ = step(rho, v, g, TABLE_PARAMS)
    drift = abs(float(np.sum(rho) * g.dx) - m0) / m0

    rho_e = np.full(g.n_x, 1.0 / 17.0)
    v_e = np.full(g.n_x, 10.0)
    r, w = rho_e.copy(), v_e.copy()
    for _ in range(100):
        r, w, _ = step(r, w, g, TABLE_PARAMS)
    still = max(float(np.max(np.abs(r - rho_e))), float(np.max(np.abs(w - v_e))))
    ok = drift <= 1e-10 and still <= 1e-12
    _gate(
        5, "mass conservation / fixed point", ok,
        f"10^4-step mass drift {drift:.2e} <= 1e-10, equilibrium drift {still:.2e} <= 1e-12",
    )


# ---------------------------------------------------------------------------
# 6. micro-vs-PDE field agreement on the ring
# ---------------------------------------------------------------------------


def test_criterion_06_micro_vs_pde_rmse():
    details = []
    ok = True
    for case in (1, 2, 3):
        t0 = time.perf_counter()
        r = run_ring_validation(case)
        elapsed = time.perf_counter() - t0
        if case == 1:
            case_ok = 0.25 <= r.rmse_v <= 0.70 and r.rmse_rho <= 0.005
        else:
            case_ok = r.rmse_v <= 1.0
        case_ok = case_ok and elapsed < 60.0
        ok = ok and case_ok
        details.append(f"case {case}: RMSE_v {r.rmse_v:.3f}, RMSE_rho {r.rmse_rho:.5f}, {elapsed:.1f} s")
    _gate(6, "micro vs PDE ring RMSE", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. frequency response against the micro simulation
# ---------------------------------------------------------------------------


def test_criterion_07_transfer_function_validation():
    omega = SINGLE_MODES[0][1]  # 0.16*pi
    g_ref = transfer_function(omega, TABLE_PARAMS).gain_mag
    trajs = simulate_platoon(case_scenario(1)).trajectories
    period = 2.0 * math.pi / omega
    lo, hi = 3.0 * period, 4.0 * period
    amps = []
    for tr in trajs:
        sel = (tr.t >= lo) & (tr.t <= hi)
        amps.append(0.5 * float(tr.v[sel].max() - tr.v[sel].min()))
    ratios = [a / b for a, b in zip(amps[1:], amps[:-1])]
    ratio_ok = all(abs(r - g_ref) / g_ref <= 0.01 for r in ratios)
    decay_ok = all(a < b for a, b in zip(amps[1:], amps[:-1]))
    dc_err = abs(transfer_function(1e-5, TABLE_PARAMS).gain_mag - 1.0)
    stab = string_stability_class(TABLE_PARAMS)
    ok = ratio_ok and decay_ok and dc_err < 1e-6 and stab.classification is StabilityClass.STABLE
    _gate(
        7, "transfer-function validation", ok,
        f"|G|={g_ref:.6f}, measured ratios {['%.4f' % r for r in ratios]}, "
        f"DC err {dc_err:.1e} < 1e-6, class {stab.classification.value}",
    )


# ---------------------------------------------------------------------------
# 8. engagement detection and front geometry
# ---------------------------------------------------------------------------


def test_criterion_08_engagement_analytics():
    # cruising follower, leader braking at 1 m/s^2 from 33.6 m ahead:
    # the gap reaches s_c = 23 m when t^2/2 = 10.6, i.e. t* = sqrt(21.2)
    P = ControlParams()
    sc = Scenario(
        params=P, n_followers=1,
        leader=LeaderProfile(v0=P.v_f, phases=(ConstAccel(6.0, -1.0), Cruise(None))),
        duration=12.0, dt=0.01, initial_speeds=P.v_f, initial_gaps=33.6,
    )
    events = detect_engagement(simulate_platoon(sc).trajectories, P)
    t_star = events[0].t_star
    root_err = abs(t_star - math.sqrt(21.2))

    from accwave.tracker import engagement_front

    front = engagement_front((
        EngagementEvent(7, 4.0, 50.0),
        EngagementEvent(8, 6.5, 40.0),
        EngagementEvent(9, 7.5, 25.0),
    ))
    seg_err = max(abs(front.segment_speeds[0] + 4.0), abs(front.segment_speeds[1] + 15.0))
    ok = root_err <= 1e-4 and seg_err <= 1e-9
    _gate(
        8, "engagement analytics", ok,
        f"t* err {root_err:.2e} <= 1e-4 s, chord speed err {seg_err:.2e} <= 1e-9",
    )


# ---------------------------------------------------------------------------
# 9. linear-degeneracy indicators
# ---------------------------------------------------------------------------


def test_criterion_09_degeneracy_indicators():
    rng = np.random.default_rng(9)
    a, b, c = 1.4, 2.0, -1.5
    poly = density_gain(
        lambda r: a + b * r + c * r * r,
        lambda r: b + 2.0 * c * r,
    )
    const = constant_gain(1.4)
    worst_f1 = 0.0
    worst_const = 0.0
    worst_poly = 0.0
    for _ in range(10**4):
        st = TrafficState(rng.uniform(1e-3, 0.2), rng.uniform(0.0, 40.0))
        worst_f1 = max(worst_f1, abs(linear_degeneracy_indicator(1, st, poly)),
                       abs(linear_degeneracy_indicator(1, st, const)))
        worst_const = max(worst_const, abs(linear_degeneracy_indicator(2, st, const)))
        expected = -(b + 2.0 * c * st.rho) / st.rho
        worst_poly = max(worst_poly, abs(linear_degeneracy_indicator(2, st, poly) - expected))
    ok = worst_f1 == 0.0 and worst_const == 0.0 and worst_poly <= 1e-9
    _gate(
        9, "linear-degeneracy indicators", ok,
        f"field 1 max {worst_f1:.1e} (exact 0), constant-gain field 2 max {worst_const:.1e} "
        f"(exact 0), polynomial-gain err {worst_poly:.1e} <= 1e-9",
    )


# ---------------------------------------------------------------------------
# 10. Fourier round trip and monotone reconstruction error
# ---------------------------------------------------------------------------


def test_criterion_10_fourier_round_trip():
    n, dt = 1000, 0.05
    T = n * dt
    t = np.arange(n) * dt
    v = 10.0 + np.zeros(n)
    for k, C, phi in ((3, 1.5, 0.2), (7, 0.8, -1.0), (12, 0.3, 2.2)):
        v = v + C * np.cos(2.0 * math.pi * k / T * t + phi)
    _, rmse = periodic_reconstruct(v, dt, fourier_decompose(v, dt, K=3))

    leader = ingest_trajectories(str(DATA_DIR / "leader_dip.csv"))[0]
    errs = [periodic_reconstruct(leader.v, leader.dt, fourier_decompose(leader.v, leader.dt, K=k))[1]
            for k in range(0, 21)]
    monotone = all(e1 <= e0 + 1e-12 for e0, e1 in zip(errs, errs[1:]))
    ok = rmse < 1e-9 and monotone
    _gate(
        10, "Fourier round trip", ok,
        f"3-mode round-trip RMSE {rmse:.2e} < 1e-9, recorded-profile RMSE monotone in K "
        f"({errs[0]:.3f} -> {errs[-1]:.3f} m/s)",
    )


# ---------------------------------------------------------------------------
# 11. first-order convergence on a manufactured solution
# ---------------------------------------------------------------------------


def test_criterion_11_first_order_convergence():
    L_x, t_end, c = 400.0, 1.0, 3.0
    k = 2.0 * math.pi / L_x
    P = TABLE_PARAMS

    def rho_star(x, t):
        return 0.06 + 0.01 * np.sin(k * (x - c * t))

    def v_star(x, t):
        return 10.0 + 0.5 * np.cos(k * (x - c * t))

    def mass_src(x, t):
        th = k * (x - c * t)
        return (-c * 0.01 * k * np.cos(th)
                + 0.01 * k * np.cos(th) * v_star(x, t)
                + rho_star(x, t) * (-0.5 * k * np.sin(th)))

    def mom_src(x, t):
        th = k * (x - c * t)
        rho, v = rho_star(x, t), v_star(x, t)
        v_t = c * 0.5 * k * np.sin(th)
        v_x = -0.5 * k * np.sin(th)
        return v_t + (v - P.k_v / rho) * v_x - P.k_s * (1.0 / rho - P.tau * v - P.L)

    dxs, errs = [], []
    for n_x in (100, 200, 400):
        g = Grid(L_x=L_x, n_x=n_x)
        x = g.centers
        field = solve(rho_star(x, 0.0), v_star(x, 0.0), g, P, t_end=t_end,
                      mass_source=mass_src, momentum_source=mom_src)
        t_f = float(field.times[-1])
        dxs.append(g.dx)
        errs.append(float(np.mean(np.abs(field.rho[-1] - rho_star(x, t_f)))))
    rate = float(np.polyfit(np.log(dxs), np.log(errs), 1)[0])
    pair_rates = [math.log(e0 / e1) / math.log(2.0) for e0, e1 in zip(errs, errs[1:])]
    ok = rate >= 0.7
    _gate(
        11, "manufactured-solution convergence", ok,
        f"rho errors {['%.2e' % e for e in errs]}, fitted rate {rate:.2f} >= 0.7 "
        f"(pairwise {['%.2f' % r for r in pair_rates]})",
    )


# ---------------------------------------------------------------------------
# 12. recorded-leader sweep on the shipped stand-in data
# ---------------------------------------------------------------------------


def test_criterion_12_recorded_leader_sweep_ordering():
    leader = ingest_trajectories(str(DATA_DIR / "leader_dip.csv"))[0]
    draws = sample_params(load_draws(str(DATA_DIR / "calibrated_draws.csv")), 200, seed=0)
    run = run_empirical(leader, draws)
    ps, bs = run.proposed_stats, run.baseline_stats
    ok = (
        ps.mean < bs.mean and ps.median < bs.median
        and ps.q1 < bs.q1 and ps.q3 < bs.q3
    )
    _gate(
        12, "recorded-leader sweep ordering", ok,
        f"{run.n_draws} draws, {run.n_deviations} deviations; proposed "
        f"mean/median/q1/q3 = {ps.mean:.3f}/{ps.median:.3f}/{ps.q1:.3f}/{ps.q3:.3f} "
        f"all < baseline {bs.mean:.3f}/{bs.median:.3f}/{bs.q1:.3f}/{bs.q3:.3f}",
    )
