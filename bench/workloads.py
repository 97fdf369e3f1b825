"""Workloads of the accwave benchmark.

Each workload turns a seed into inputs and a list of CLI invocations
(units) that make up one pass, and checks what every unit writes.  A
unit is one `accwave.cli.main(argv)` call with its own output directory.
The `exercises` set names the traced functions a workload must call;
every other traced function is predicted to record no calls on it.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, List

import numpy as np
import yaml

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DATA_DIR = os.path.join(ROOT, "data")


@dataclass(frozen=True)
class Unit:
    name: str
    argv: List[str]
    out_dir: str
    # (out_dir, captured stdout) -> list of problems; empty when correct
    check: Callable[[str, str], List[str]]


@dataclass(frozen=True)
class Setup:
    units: List[Unit]
    inputs: Dict[str, object]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], Setup]
    exercises: FrozenSet[str]


def _unit(run_dir: str, name: str, argv: List[str], check) -> Unit:
    out = os.path.join(run_dir, name)
    os.makedirs(out, exist_ok=True)
    return Unit(name, argv + ["--out-dir", out], out, check)


def _rows(path: str) -> List[List[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _table(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _stats(path: str) -> Dict[str, List[float]]:
    """method -> [mean, median, q1, q3, max, min] from a stats CSV."""
    return {r[1]: [float(v) for v in r[2:]] for r in _rows(path)}


def _has_crossing(path: str) -> bool:
    return any(int(r[2]) != -1 for r in _rows(path))


# ---------------------------------------------------------------------------
# cases: `accwave case 1..4` at the defaults
# ---------------------------------------------------------------------------

# Acceptance criterion 4: reference proposed means of the fully determined cases.
_CASE_BANDS = {1: (1.02, 0.25), 3: (1.27, 0.25)}


def _check_case(case: int, out: str, stdout: str) -> List[str]:
    tag = f"case{case}"
    problems = []
    st = _stats(os.path.join(out, f"{tag}_stats.csv"))
    ps, bs = st["proposed"], st["baseline"]
    # criterion 4: proposed < baseline on mean, median, q1, q3, max; minima may tie
    if not (all(p < b for p, b in zip(ps[:5], bs[:5])) and ps[5] <= bs[5]):
        problems.append(f"criterion 4: proposed {ps} not below baseline {bs}")
    if case in _CASE_BANDS:
        center, tol = _CASE_BANDS[case]
        if abs(ps[0] - center) > tol:
            problems.append(f"criterion 4: proposed mean {ps[0]} outside {center} +- {tol}")
    traj = _table(os.path.join(out, f"{tag}_trajectories.csv"))
    if not np.all(np.isfinite(traj)) or len(np.unique(traj[:, 1])) < 5 or traj[:, 0].max() != 60.0:
        problems.append("trajectories: non-finite values, missing vehicles or short horizon")
    for method in ("proposed", "baseline"):
        if not _has_crossing(os.path.join(out, f"{tag}_paths_{method}.csv")):
            problems.append(f"{method} paths cross no vehicle")
    return problems


def _setup_cases(seed: int, run_dir: str) -> Setup:
    order = [int(k) for k in np.random.default_rng(seed).permutation([1, 2, 3, 4])]
    units = [_unit(run_dir, f"case{k}", ["case", str(k)], partial(_check_case, k)) for k in order]
    return Setup(units, {"cases": order, "dt": 0.01, "duration": 60.0, "origin_spacing": 1.0})


# ---------------------------------------------------------------------------
# sweep: `accwave empirical` over the shipped stand-in data
# ---------------------------------------------------------------------------

def _check_sweep(n_draws: int, out: str, stdout: str) -> List[str]:
    problems = []
    st = _stats(os.path.join(out, "empirical_stats.csv"))
    ps, bs = st["proposed"], st["baseline"]
    # criterion 12: proposed below baseline on mean, median, q1 and q3
    if not all(p < b for p, b in zip(ps[:4], bs[:4])):
        problems.append(f"criterion 12: proposed {ps[:4]} not below baseline {bs[:4]}")
    m = re.search(r"^(\d+) draws, (\d+) deviations$", stdout, re.M)
    if m is None or int(m.group(1)) != n_draws or int(m.group(2)) == 0:
        problems.append(f"expected {n_draws} draws with deviations, stdout {stdout!r}")
    return problems


def _setup_sweep(seed: int, run_dir: str) -> Setup:
    with open(os.path.join(BENCH_DIR, "sweep.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    cfg["seed"] = int(np.random.default_rng(seed).integers(0, 2**31))
    config = os.path.join(run_dir, "sweep.yaml")
    with open(config, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    argv = [
        "empirical", "--config", config,
        "--draws", os.path.join(DATA_DIR, "calibrated_draws.csv"),
        "--leader", os.path.join(DATA_DIR, "leader_dip.csv"),
    ]
    units = [_unit(run_dir, "empirical", argv, partial(_check_sweep, cfg["n_draws"]))]
    return Setup(units, dict(cfg))


# ---------------------------------------------------------------------------
# ring: `accwave validate --case 1..3` plus one refined, sparsely sampled `pde`
# ---------------------------------------------------------------------------

_PDE_DX = 0.25


def _check_validate(case: int, out: str, stdout: str) -> List[str]:
    micro = _table(os.path.join(out, f"validate_case{case}_micro.csv"))
    pde = _table(os.path.join(out, f"validate_case{case}_pde.csv"))
    if micro.shape != pde.shape or not np.array_equal(micro[:, :2], pde[:, :2]):
        return ["micro and PDE fields are sampled on different points"]
    rmse_v = math.sqrt(float(np.mean((micro[:, 3] - pde[:, 3]) ** 2)))
    rmse_rho = math.sqrt(float(np.mean((micro[:, 2] - pde[:, 2]) ** 2)))
    # criterion 6: ring RMSE bands
    ok = 0.25 <= rmse_v <= 0.70 and rmse_rho <= 0.005 if case == 1 else rmse_v <= 1.0
    problems = [] if ok else [f"criterion 6: RMSE_v {rmse_v:.4f}, RMSE_rho {rmse_rho:.6f}"]
    m = re.search(r"RMSE_v = (\S+) m/s", stdout)
    if m is None or abs(float(m.group(1)) - rmse_v) > 1e-3:
        problems.append(f"printed RMSE disagrees with the CSVs ({rmse_v:.4f}): {stdout!r}")
    return problems


def _check_pde(case: int, cells: int, sample_every: float, out: str, stdout: str) -> List[str]:
    fld = _table(os.path.join(out, f"field_case{case}.csv"))
    times = np.unique(fld[:, 0])
    n_snap = int(round(60.0 / sample_every)) + 1
    if fld.shape != (n_snap * cells, 4) or len(times) != n_snap:
        return [f"field has shape {fld.shape}, expected {n_snap} snapshots x {cells} cells"]
    if not np.all(np.isfinite(fld)) or np.any(fld[:, 2] <= 0):
        return ["field has non-finite values or non-positive density"]
    mass = fld[:, 2].reshape(n_snap, cells).sum(axis=1)
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    # the scheme conserves mass to round-off; the slack covers 6-digit CSV output
    return [] if drift <= 1e-5 else [f"mass drift {drift:.2e} over the run"]


def _setup_ring(seed: int, run_dir: str) -> Setup:
    from accwave.scenarios import TABLE_PARAMS, ring_initial_speeds

    rng = np.random.default_rng(seed)
    order = [int(k) for k in rng.permutation([1, 2, 3])]
    pde_case = int(rng.integers(1, 4))
    speeds = ring_initial_speeds(pde_case, 40)
    ring_length = float(np.sum(TABLE_PARAMS.tau * speeds + TABLE_PARAMS.L))
    cells = max(4, int(round(ring_length / _PDE_DX)))
    config = os.path.join(BENCH_DIR, "ring_pde.yaml")
    with open(config) as fh:
        sample_every = float(yaml.safe_load(fh)["sample_every"])
    units = [
        _unit(run_dir, f"validate{k}", ["validate", "--case", str(k)], partial(_check_validate, k))
        for k in order
    ]
    units.append(_unit(
        run_dir, f"pde{pde_case}",
        ["pde", "--case", str(pde_case), "--config", config, "--dx", str(_PDE_DX)],
        partial(_check_pde, pde_case, cells, sample_every),
    ))
    inputs = {
        "validate_cases": order, "dt": 0.01, "duration": 60.0, "validate_cells": 200,
        "validate_sample_every": 0.5, "pde_case": pde_case, "pde_dx": _PDE_DX,
        "pde_cells": cells, "pde_sample_every": sample_every,
    }
    return Setup(units, inputs)


# ---------------------------------------------------------------------------
# recorded: a recorded-style trajectory CSV read by `metrics` and `fft`
# ---------------------------------------------------------------------------

_REC_DT = 0.1
_REC_SAMPLES = 6000
_REC_FOLLOWERS = 8
_REC_MODES = 3
_FFT_VEHICLES = (0, 3, 6, 8)


def write_recorded(seed: int, path: str) -> List[tuple]:
    """Simulate a platoon behind a seeded multi-mode leader and write it as
    a recorded trajectory file (t,vehicle_id,x,v; no acceleration column).

    The mode frequencies sit on FFT bins of the recorded window, so `fft`
    on the leader must return exactly these modes.  Returns them as
    (amplitude, omega, phase).
    """
    from accwave.microsim import OscillationSpec, Scenario, simulate_platoon
    from accwave.model import ControlParams

    rng = np.random.default_rng(seed)
    window = _REC_SAMPLES * _REC_DT
    bins = np.sort(rng.choice(np.arange(3, 40), size=_REC_MODES, replace=False))
    speed_amps = rng.uniform(0.4, 1.2, size=_REC_MODES)
    phases = rng.uniform(-math.pi, math.pi, size=_REC_MODES)
    modes = []
    for k, c, phi in zip(bins, speed_amps, phases):
        omega = 2.0 * math.pi * int(k) / window
        modes.append((float(c) / omega, omega, float(phi)))
    sc = Scenario(
        params=ControlParams(), n_followers=_REC_FOLLOWERS,
        leader=OscillationSpec(v_e=10.0, modes=tuple(modes)),
        duration=(_REC_SAMPLES - 1) * _REC_DT, dt=_REC_DT,
    )
    trajs = simulate_platoon(sc).trajectories
    with open(path, "w") as fh:
        fh.write("t,vehicle_id,x,v\n")
        for k in range(_REC_SAMPLES):
            t = k * _REC_DT
            for tr in trajs:
                fh.write(f"{t:.1f},{tr.vehicle_id},{tr.x[k]:.4f},{tr.v[k]:.6f}\n")
    return modes


def _check_fft(expected, out: str, stdout: str) -> List[str]:
    got = _table(os.path.join(out, "modes.csv"))
    if got.shape[0] != _REC_MODES or not np.all(np.isfinite(got)):
        return [f"expected {_REC_MODES} finite modes, got {got.tolist()}"]
    if expected is None:
        return []
    problems = []
    for A, omega, phi in expected:
        k = int(np.argmin(np.abs(got[:, 1] - omega)))
        dphi = abs(math.remainder(got[k, 2] - phi, 2.0 * math.pi))
        if abs(got[k, 1] / omega - 1) > 1e-5 or abs(got[k, 0] / A - 1) > 1e-4 or dphi > 1e-4:
            problems.append(f"seeded mode {(A, omega, phi)} recovered as {got[k].tolist()}")
    m = re.search(r"RMSE = (\S+) m/s", stdout)
    if m is None or float(m.group(1)) > 1e-4:
        problems.append(f"leader reconstruction is not exact: {stdout!r}")
    return problems


def _check_metrics(out: str, stdout: str) -> List[str]:
    st = _stats(os.path.join(out, "stats.csv"))
    if sorted(st) != ["baseline", "proposed"] or not np.all(np.isfinite(list(st.values()))):
        return [f"stats are missing or not finite: {st}"]
    if not _has_crossing(os.path.join(out, "paths_proposed.csv")):
        return ["no proposed path crosses a vehicle"]
    return []


def _setup_recorded(seed: int, run_dir: str) -> Setup:
    path = os.path.join(run_dir, "recorded.csv")
    modes = write_recorded(seed, path)
    units = [_unit(
        run_dir, "metrics",
        ["metrics", "--input", path, "--warmup", "60", "--origin-spacing", "10",
         "--end-margin", "20"],
        _check_metrics,
    )]
    for vid in _FFT_VEHICLES:
        units.append(_unit(
            run_dir, f"fft{vid}",
            ["fft", "--input", path, "--vehicle", str(vid), "--modes", str(_REC_MODES)],
            partial(_check_fft, modes if vid == 0 else None),
        ))
    inputs = {
        "dt": _REC_DT, "samples_per_vehicle": _REC_SAMPLES, "vehicles": _REC_FOLLOWERS + 1,
        "rows": _REC_SAMPLES * (_REC_FOLLOWERS + 1), "bytes": os.path.getsize(path), "modes": modes,
        "fft_vehicles": list(_FFT_VEHICLES), "origin_spacing": 10.0, "warmup": 60.0,
    }
    return Setup(units, inputs)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cases", _setup_cases, frozenset({
            "microsim.simulate_platoon", "tracker.trace_characteristic_path",
            "tracker.constant_speed_path", "tracker.trace_phase_transition",
            "dataio.write_trajectories", "dataio.write_wave_paths",
            "metrics.deviation_set", "metrics.summary_stats", "scenarios.run_case", "cli.main",
        })),
        Workload("sweep", _setup_sweep, frozenset({
            "microsim.simulate_platoon", "tracker.trace_characteristic_path",
            "tracker.constant_speed_path", "dataio.ingest_trajectories",
            "metrics.deviation_set", "metrics.summary_stats", "scenarios.run_empirical", "cli.main",
        })),
        Workload("ring", _setup_ring, frozenset({
            "microsim.simulate_platoon", "pde.solve", "pde.step", "pde.micro_to_eulerian",
            "dataio.write_field", "metrics.field_rmse", "scenarios.run_ring_validation", "cli.main",
        })),
        Workload("recorded", _setup_recorded, frozenset({
            "dataio.ingest_trajectories", "tracker.trace_characteristic_path",
            "tracker.constant_speed_path", "dataio.write_wave_paths", "metrics.deviation_set",
            "metrics.summary_stats", "fourier.fourier_decompose", "fourier.periodic_reconstruct",
            "cli.main",
        })),
    )
}
