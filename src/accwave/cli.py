"""Command-line front end.

Subcommands: simulate, wave, pde, metrics, fft, validate, case,
empirical.  A YAML config (see configs/example.yaml) sets run values and
flags override its keys; what neither sets is left to the library's
defaults.  Outputs are CSV files in --out-dir (or $ACCWAVE_OUT_DIR,
default ./out), identical byte-for-byte for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

import numpy as np

from . import dataio
from .dataio import ScenarioConfig, default_out_dir, load_config
from .fourier import fourier_decompose, periodic_reconstruct
from .metrics import histogram
from .microsim import Scenario, simulate_platoon
from .scenarios import (
    Comparison,
    case_scenario,
    oscillation_scenario,
    origin_grid,
    run_case,
    run_empirical,
    run_ring_validation,
    solve_ring,
    trace_methods,
)
from .waves import string_stability_class, transfer_function, wave_speed_closed_form


def _config(args: argparse.Namespace) -> ScenarioConfig:
    """The config file's keys, overridden by the flags given (a flag's dest is its key)."""
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    return dataclasses.replace(cfg, **{f.name: val for f in dataclasses.fields(cfg)
                                       if (val := getattr(args, f.name, None)) is not None})


def _out_dir(cfg: ScenarioConfig) -> str:
    path = cfg.out_dir or default_out_dir()
    os.makedirs(path, exist_ok=True)
    return path


def _custom_scenario(cfg: ScenarioConfig, **run) -> Scenario:
    return oscillation_scenario(cfg.params(), **cfg.given("n_followers", "v_e", "modes"), **run)


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    run = cfg.given("duration", "dt")
    sc = case_scenario(args.case, **run) if args.case else _custom_scenario(cfg, **run)
    res = simulate_platoon(sc)
    out = os.path.join(_out_dir(cfg), "trajectories.csv")
    dataio.write_trajectories(out, res.trajectories, cfg.full_precision)
    print(f"wrote {out} ({len(res.trajectories)} vehicles, dt={sc.dt})")
    return 0


def _cmd_wave(args: argparse.Namespace) -> int:
    cfg = _config(args)
    sc = _custom_scenario(cfg)
    p, spec = sc.params, sc.leader
    omegas = np.logspace(-2, 2, 400)
    out = os.path.join(_out_dir(cfg), "bode.csv")
    dataio.write_bode(out, transfer_function(omegas, p), cfg.full_precision)
    stab = string_stability_class(p)
    print(f"wrote {out}")
    print(f"string stability: {stab.classification.value} "
          f"(sup|G|={stab.sup_gain:.6f} at omega={stab.argmax_omega:.4g} rad/s)")
    if spec.modes:
        for n in range(1, sc.n_followers + 1):
            w = wave_speed_closed_form(n, spec, p)
            amps = ", ".join(f"R={R:.4f} phase={th0 + phw:.4f}" for R, phw, om, th0 in w.modes)
            print(f"pair {n}: nominal {w.nominal:.4f} m/s; {amps}")
    return 0


def _ring_kwargs(cfg: ScenarioConfig) -> dict:
    return cfg.given("duration", "sample_every", n_vehicles="ring_vehicles")


def _write_comparison(cfg: ScenarioConfig, c: Comparison, prefix: str, label: str) -> str:
    """Paths, stats and histogram CSVs of both methods, named `prefix` + file;
    `label` fills the stats file's case column.  Returns the output directory."""
    out = _out_dir(cfg)
    fp = cfg.full_precision
    for method, paths, devs in (("proposed", c.proposed, c.proposed_devs),
                                ("baseline", c.baseline, c.baseline_devs)):
        dataio.write_wave_paths(os.path.join(out, f"{prefix}paths_{method}.csv"), paths, fp)
        dataio.write_histogram(os.path.join(out, f"{prefix}hist_{method}.csv"), histogram(devs), fp)
    dataio.write_stats(os.path.join(out, f"{prefix}stats.csv"), label,
                       c.proposed_stats, c.baseline_stats, fp)
    return out


def _cmd_pde(args: argparse.Namespace) -> int:
    cfg = _config(args)
    fld = solve_ring(args.case, dx=args.dx, **_ring_kwargs(cfg))
    out = os.path.join(_out_dir(cfg), f"field_case{args.case}.csv")
    dataio.write_field(out, fld, cfg.full_precision)
    print(f"wrote {out} ({len(fld.times)} snapshots x {fld.grid.n_x} cells)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    cfg = _config(args)
    trajs = dataio.ingest_trajectories(args.input)
    if len(trajs) < 2:
        raise ValueError("need at least two vehicles to trace waves")
    origins = origin_grid(trajs[0], args.warmup, args.end_margin, **cfg.given(spacing="origin_spacing"))
    c = Comparison.pool(*trace_methods(origins, trajs, cfg.params()))
    out = _write_comparison(cfg, c, "", "custom")
    print(f"wrote stats and paths for {len(origins)} origins to {out}")
    return 0


def _cmd_fft(args: argparse.Namespace) -> int:
    cfg = _config(args)
    trajs = dataio.ingest_trajectories(args.input)
    by_id = {tr.vehicle_id: tr for tr in trajs}
    if args.vehicle not in by_id:
        raise ValueError(f"vehicle {args.vehicle} not in {sorted(by_id)}")
    tr = by_id[args.vehicle]
    spec = fourier_decompose(tr.v, tr.dt, **cfg.given(K="fft_modes"))
    _, rmse = periodic_reconstruct(tr.v, tr.dt, spec)
    out = os.path.join(_out_dir(cfg), "modes.csv")
    dataio.write_modes(out, spec.modes, cfg.full_precision)
    print(f"v_e = {spec.v_e:.6g} m/s, {len(spec.modes)} modes, reconstruction RMSE = {rmse:.6g} m/s")
    print(f"wrote {out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    r = run_ring_validation(args.case, **_ring_kwargs(cfg))
    out = _out_dir(cfg)
    dataio.write_field(os.path.join(out, f"validate_case{args.case}_micro.csv"), r.micro, cfg.full_precision)
    dataio.write_field(os.path.join(out, f"validate_case{args.case}_pde.csv"), r.pde, cfg.full_precision)
    print(f"case {args.case}: RMSE_v = {r.rmse_v:.4f} m/s, RMSE_rho = {r.rmse_rho:.6f} veh/m")
    return 0


def _cmd_case(args: argparse.Namespace) -> int:
    cfg = _config(args)
    run = run_case(args.case, **cfg.given("dt", "duration", "origin_spacing"))
    tag = f"case{args.case}"
    dataio.write_trajectories(os.path.join(_out_dir(cfg), f"{tag}_trajectories.csv"),
                              run.trajectories, cfg.full_precision)
    out = _write_comparison(cfg, run, f"{tag}_", tag)
    ps, bs = run.proposed_stats, run.baseline_stats
    print(f"{tag}: proposed mean |dev| = {ps.mean:.3f} m/s, baseline = {bs.mean:.3f} m/s")
    print(f"wrote 6 CSVs to {out}")
    return 0


def _cmd_empirical(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if not cfg.draws_file or not cfg.leader_file:
        raise ValueError("empirical needs --draws and --leader (or config keys)")
    draws = dataio.sample_params(dataio.load_draws(cfg.draws_file), **cfg.given("seed", count="n_draws"))
    leaders = dataio.ingest_trajectories(cfg.leader_file)
    if not leaders:
        raise ValueError(f"{cfg.leader_file}: no vehicles")
    leader = leaders[0]
    r = run_empirical(leader, draws, **cfg.given("n_followers", "dt", "origin_spacing"))
    ps, bs = r.proposed_stats, r.baseline_stats
    path = os.path.join(_out_dir(cfg), "empirical_stats.csv")
    dataio.write_stats(path, "empirical", ps, bs, cfg.full_precision)
    print(f"{r.n_draws} draws, {r.n_deviations} deviations")
    print(f"proposed:  mean={ps.mean:.3f} median={ps.median:.3f} q1={ps.q1:.3f} q3={ps.q3:.3f}")
    print(f"baseline:  mean={bs.mean:.3f} median={bs.median:.3f} q1={bs.q1:.3f} q3={bs.q3:.3f}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser, *run_flags: str) -> None:
    """Flags of every subcommand, plus "dt" and "duration" where in `run_flags`."""
    sp.add_argument("--config", help="YAML config file")
    sp.add_argument("--out-dir", help="output directory")
    sp.add_argument("--full-precision", action="store_true", default=None, help="write full-precision floats")
    if "dt" in run_flags:
        sp.add_argument("--dt", type=float, help="simulation time step [s]")
    if "duration" in run_flags:
        sp.add_argument("--duration", type=float, help="scenario length [s]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accwave",
        description="Traffic-wave simulation and analysis for ACC platoons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run a platoon scenario, write trajectories")
    _add_common(sp, "dt", "duration")
    sp.add_argument("--case", type=int, choices=(1, 2, 3, 4), help="preset case (omit to use config scenario)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("wave", help="frequency response, stability, closed-form waves")
    _add_common(sp)
    sp.set_defaults(func=_cmd_wave)

    sp = sub.add_parser("pde", help="solve the ring balance law, write the field")
    _add_common(sp, "duration")
    sp.add_argument("--case", type=int, choices=(1, 2, 3), default=1)
    sp.add_argument("--dx", type=float, help="target cell size [m]")
    sp.set_defaults(func=_cmd_pde)

    sp = sub.add_parser("metrics", help="trace waves on a trajectory CSV, write stats")
    _add_common(sp)
    sp.add_argument("--input", required=True, help="trajectory CSV (t,vehicle_id,x,v[,a])")
    sp.add_argument("--origin-spacing", type=float)
    sp.add_argument("--warmup", type=float, default=0.0, help="skip this much lead time [s]")
    sp.add_argument("--end-margin", dest="end_margin", type=float, default=5.0)
    sp.set_defaults(func=_cmd_metrics)

    sp = sub.add_parser("fft", help="decompose a vehicle's speed series")
    _add_common(sp)
    sp.add_argument("--input", required=True, help="trajectory CSV")
    sp.add_argument("--vehicle", type=int, default=0)
    sp.add_argument("--modes", dest="fft_modes", type=int, help="mode count K")
    sp.set_defaults(func=_cmd_fft)

    sp = sub.add_parser("validate", help="micro-vs-PDE ring comparison")
    _add_common(sp, "duration")
    sp.add_argument("--case", type=int, choices=(1, 2, 3), default=1)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("case", help="full pipeline for one preset case")
    _add_common(sp, "dt", "duration")
    sp.add_argument("case", type=int, choices=(1, 2, 3, 4))
    sp.add_argument("--origin-spacing", type=float)
    sp.set_defaults(func=_cmd_case)

    sp = sub.add_parser("empirical", help="calibrated-draw sweep over a recorded leader")
    _add_common(sp, "dt")
    sp.add_argument("--draws", dest="draws_file", metavar="DRAWS", help="draws CSV (tau,L,k_s,k_v)")
    sp.add_argument("--leader", dest="leader_file", metavar="LEADER", help="recorded leader trajectory CSV")
    sp.add_argument("--n-draws", type=int)
    sp.add_argument("--seed", type=int, help="resampling seed")
    sp.set_defaults(func=_cmd_empirical)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
