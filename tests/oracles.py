"""Reference solutions that tests compare the package against.

- The exact solution of the vehicle-pair error dynamics

      z' = A_d z + D_d a_lead,   A_d = [[-tau*k_s, 1 - tau*k_v],
                                        [-k_s,     -k_v       ]],

  built on the platoon propagator's step maps (`microsim._step_maps`),
  as an independent check on the platoon.
- `first_down_crossing`, the root of a sampled series linear between its
  samples, which the Euler and windowed tracer oracles cross pairs with.
- `table_trace`, the pair-table tracer as it was before its crossings
  were computed in scalar arithmetic: the follower read by scalar
  np.interp, the crossing knot found by one compare over the whole rest
  of the table, on tables (`appended_pair_table`) that copy the
  follower's samples and append the window end.  The production tracer
  must equal it bit for bit.
- `row_ingest`, the trajectory CSV reader as it was before every file
  went through one np.loadtxt parse: a csv.reader loop, one row at a
  time.  `dataio.ingest_trajectories` must give its result bit for bit
  and its message for a refused file.
- `sorted_write_trajectories`, the trajectory CSV export as it was before
  it was written one window of sample times at a time: the whole table
  stacked and sorted on (t, vehicle_id), then written in blocks of
  `_BLOCK_ROWS` rows.  `dataio.write_trajectories` must write its bytes.
- `pooled_empirical`, the calibrated-draw sweep as it was before each
  draw's deviations were pooled as soon as it was traced: every draw's
  paths kept until the last draw, then pooled once by `Comparison.pool`.
  `scenarios.run_empirical` must give the same statistics and counts.
- `grid_stability_class`, the string-stability class as it was before its
  supremum was computed in closed form: the largest |G| on 10^4
  log-spaced frequencies.  `waves.string_stability_class` must give its
  class, a sup at most 1e-7 relative above it, and an argmax within one
  grid step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from accwave.dataio import _REAL_SPEC, _row, _sampling, _trajectory_header, _write_blocks
from accwave.microsim import Scenario, Trajectory, _step_maps, simulate_platoon
from accwave.model import ControlParams
from accwave.scenarios import _EMPIRICAL_WINDOW, Comparison, EmpiricalRun, origin_grid, trace_methods
from accwave.tracker import (
    Crossing,
    PathKind,
    Platoon,
    SpeedRule,
    Terminator,
    WavePath,
    _PairTable,
)
from accwave.waves import StabilityClass, StabilityResult, _gain


# ---------------------------------------------------------------------------
# Exact vehicle-pair solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairErrorState:
    """Spacing error s - s* and speed difference v_lead - v of one pair."""

    e_s: float
    e_v: float

    def as_array(self) -> np.ndarray:
        return np.array([self.e_s, self.e_v], dtype=float)


@dataclass(frozen=True)
class PiecewiseConstantAccel:
    """Leader acceleration held constant between breakpoints.

    a(t) = values[j] on [times[j], times[j+1]), zero before times[0],
    and values[-1] from times[-1] on.
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be equal-length and non-empty")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("breakpoints must be strictly increasing")


AccelProfile = Union[None, PiecewiseConstantAccel, Tuple[np.ndarray, np.ndarray]]


def pair_dynamics_matrix(params: ControlParams) -> np.ndarray:
    """Closed-loop error dynamics matrix A_d (det A_d = k_s)."""
    return np.array(
        [[-params.tau * params.k_s, 1.0 - params.tau * params.k_v],
         [-params.k_s, -params.k_v]]
    )


def _linear_pieces(a_lead: AccelProfile, t0: float, t: float):
    """The leader acceleration on [t0, t] as linear pieces (lo, hi, a(lo), slope).

    A piecewise-constant profile gives flat pieces; a sampled (times,
    values) profile is linear between its samples, clipped to [t0, t].
    """
    if isinstance(a_lead, PiecewiseConstantAccel):
        knots = np.array(a_lead.times + (math.inf,))
        lo, hi = np.maximum(knots[:-1], t0), np.minimum(knots[1:], t)
        keep = hi > lo
        return lo[keep], hi[keep], np.array(a_lead.values)[keep], np.zeros(np.count_nonzero(keep))
    ts, vals = (np.asarray(arr, dtype=float) for arr in a_lead)
    knots = np.concatenate(([t0], ts[(ts > t0) & (ts < t)], [t]))
    a = np.interp(knots, ts, vals)
    return knots[:-1], knots[1:], a[:-1], np.diff(a) / np.diff(knots)


def pair_state_analytic(
    z0: PairErrorState,
    a_lead: AccelProfile,
    t0: float,
    t: float,
    params: ControlParams,
) -> PairErrorState:
    """Exact pair error state z(t) = e^{A(t-t0)} z0 + forcing term.

    The leader acceleration is piecewise constant, or for a sampled
    (t_array, a_array) profile linear between samples; each piece [lo, hi]
    contributes e^{A (t - hi)} (Psi_0 a(lo) + Psi_1 slope), exactly, from
    `_step_maps`.  a_lead=None means zero forcing.
    """
    if t < t0:
        raise ValueError("t must be >= t0")
    A = pair_dynamics_matrix(params)
    z = _step_maps(A, t - t0, 0)[0] @ z0.as_array()
    if a_lead is not None and t > t0:
        lo, hi, a, slope = _linear_pieces(a_lead, t0, t)
        tail, _ = _step_maps(A, t - hi, 0)
        _, Psi = _step_maps(A, hi - lo, 2)
        inc = Psi[:, 0] * a[:, None] + Psi[:, 1] * slope[:, None]
        z = z + np.einsum("nij,nj->i", tail, inc)
    return PairErrorState(*(z.tolist()))


def spacing_analytic(
    z0: PairErrorState,
    a_lead: AccelProfile,
    v_lead0: float,
    t0: float,
    t: float,
    params: ControlParams,
) -> float:
    """Absolute spacing of the pair at time t from the exact error state.

    s(t) = (e_s - tau*e_v)(t) + tau*(v_lead0 + int a_lead) + L, which
    reconstructs s from the error coordinates and the leader's speed
    history.
    """
    z = pair_state_analytic(z0, a_lead, t0, t, params)
    inc = 0.0
    if a_lead is not None and t > t0:
        lo, hi, a, slope = _linear_pieces(a_lead, t0, t)
        inc = float(np.sum((hi - lo) * (a + 0.5 * slope * (hi - lo))))
    v_lead = v_lead0 + inc
    return z.e_s - params.tau * z.e_v + params.tau * v_lead + params.L


# ---------------------------------------------------------------------------
# Crossing of a piecewise-linear series
# ---------------------------------------------------------------------------

def first_down_crossing(t, y, level: float) -> Optional[float]:
    """First time a sampled series, linear between samples, comes down to `level`.

    Finds the first sample k with y[k] <= level and returns the exact
    root of the linear piece on [t[k-1], t[k]] (where y[k-1] > level).
    None when the series starts at or below `level` or never reaches it.
    """
    hit = np.nonzero(np.asarray(y) <= level)[0]
    if hit.size == 0 or hit[0] == 0:
        return None
    k = int(hit[0])
    y0, y1 = float(y[k - 1]), float(y[k])
    return float(t[k - 1] + (y0 - level) / (y0 - y1) * (t[k] - t[k - 1]))


# ---------------------------------------------------------------------------
# Pair-table tracer with scalar np.interp and a whole-table compare
# ---------------------------------------------------------------------------

def appended_pair_table(lead: Trajectory, fol: Trajectory, rule: SpeedRule) -> _PairTable:
    """`tracker._pair_table` with its knots and follower states always copied
    from the follower's samples, and the window end appended."""
    t_lo, t_end = max(lead.t0, fol.t0), min(lead.t_end, fol.t_end)
    first = int(np.searchsorted(fol.t, t_lo))
    inside = slice(first, int(np.searchsorted(fol.t, t_end)))
    t = np.append(fol.t[inside], t_end)
    x_fol = np.append(fol.x[inside], fol.position_at(t_end))
    v_fol = np.append(fol.v[inside], fol.speed_at(t_end))
    w = rule(lead.position_at(t), lead.speed_at(t), x_fol, v_fol)
    c = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))))
    return _PairTable(t_lo, t_end, first, t, w, c, c - x_fol)


def table_pair_crossing(t_c: float, x_c: float, v_c: float, fol: Trajectory, tab: _PairTable,
                        rule: SpeedRule, terminator: Optional[Terminator]) -> Optional[float]:
    """Time at which a path entering a pair at (t_c, x_c), on the lead at
    speed v_c, meets the follower, or None when it reaches the end of the
    pair's common window or the terminator first (or enters outside that
    window).

    Between t_c and the first knot after it the path takes the trapezoid of
    the rule at the entry and at that knot; from there on it follows the
    table.  The path is the chord between knots, so path minus follower is
    linear there and its first down-crossing of zero is a closed-form root.
    """
    t, g = tab.t, tab.g
    if not tab.t_lo <= t_c < tab.t_end:
        return None
    x_f = float(fol.position_at(t_c))
    w_c = rule(x_c, v_c, x_f, float(fol.speed_at(t_c)))
    j = int(t.searchsorted(t_c, side="right"))   # first knot after t_c
    # path minus follower is g + offset on the knots from j on; compared
    # as g against -offset, which has the same sign in floating point
    offset = float(x_c + 0.5 * (w_c + tab.w[j]) * (t[j] - t_c) - tab.c[j])
    k = j
    if not x_c - x_f > 0.0:
        # a path behind the follower (overlapping vehicles in recorded data)
        # has not crossed it yet: search from the first knot ahead of it
        ahead = g[j:] > -offset
        k += int(ahead.argmax())
        if not ahead[k - j]:
            return None
    below = g[k:] <= -offset
    n = int(below.argmax())
    if not below[n]:
        return None
    k += n
    t0, g0 = (t_c, x_c - x_f) if k == j else (t[k - 1], g[k - 1] + offset)
    t_x = float(t0 + g0 / (g0 - (g[k] + offset)) * (t[k] - t0))
    if terminator is not None:
        tn = np.concatenate(([t_c], t[j:k + 1]))
        xn = np.concatenate(([x_c], tab.c[j:k + 1] + offset))
        if np.any(terminator(tn, xn)[tn < t_x]):
            return None
    return t_x


def table_trace(
    origin_t: float,
    origin_x: float,
    origin_v: float,
    trajectories: Sequence[Trajectory],
    first_target: int,
    rule: SpeedRule,
    kind: PathKind,
    terminator: Optional[Terminator] = None,
) -> WavePath:
    """Shared tracer: pair tables on the follower's samples, closed-form crossings.

    Pair by pair from `first_target` rearward, the path follows the table
    of `rule` on the bracketing pair (last crossed vehicle, next vehicle)
    and re-anchors on the follower at the crossing; see `table_pair_crossing`.
    Crossings are O(h^2) in the sample spacing h where the speed is smooth
    and O(h) across an interval in which the switching rule flips;
    straight paths are exact to round-off.  `Trajectory.dt` is not read.
    `terminator(t, x)` (array-valued) is tested on the knots before each
    crossing and ends the path early (flagged truncated), as does the end
    of a pair's common time window.
    """
    platoon = Platoon.of(trajectories)
    tables = platoon.tables(rule)
    crossings: List[Crossing] = []
    t, x, v = origin_t, origin_x, origin_v
    for idx in range(first_target, len(platoon)):
        fol = platoon[idx]
        tab = tables.get(idx)
        if tab is None:
            tab = tables[idx] = appended_pair_table(platoon[idx - 1], fol, rule)
        t_x = table_pair_crossing(t, x, v, fol, tab, rule, terminator)
        if t_x is None:
            return WavePath(kind, origin_t, origin_x, origin_v, tuple(crossings), True)
        t, x, v = t_x, float(fol.position_at(t_x)), float(fol.speed_at(t_x))
        crossings.append(Crossing(fol.vehicle_id, t, x, v))
    return WavePath(kind, origin_t, origin_x, origin_v, tuple(crossings))


# ---------------------------------------------------------------------------
# Row-by-row trajectory ingest
# ---------------------------------------------------------------------------

def row_ingest(path: str) -> List[Trajectory]:
    """`ingest_trajectories` by a csv.reader loop, one row at a time.

    Refuses a malformed row, a non-finite value, a vehicle with fewer
    than two samples or one not uniformly sampled, naming the file and
    the data row (the vehicle, for a non-finite reconstructed acceleration).
    """
    by_vehicle: Dict[int, List[Tuple[float, float, float, Optional[float], int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        has_a = _trajectory_header(path, reader)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t = float(row[0])
                vid = int(row[1])
                x = float(row[2])
                v = float(row[3])
                a = float(row[4]) if has_a else None
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed row {row_no}: {row}") from exc
            by_vehicle.setdefault(vid, []).append((t, x, v, a, row_no))

    out: List[Trajectory] = []
    n_cols = 4 if has_a else 3
    for vid in sorted(by_vehicle):
        recs = sorted(by_vehicle[vid], key=lambda r: r[0])
        if len(recs) < 2:
            raise ValueError(f"{path}: vehicle {vid} has fewer than two samples")
        cols = np.array([[r[i] for r in recs] for i in range(n_cols)])   # rows t, x, v[, a]
        bad = np.nonzero(~np.isfinite(cols).all(axis=0))[0]
        if bad.size:
            raise ValueError(f"{path}: non-finite value in data row {recs[int(bad[0])][4]}")
        t, x, v = cols[:3]
        steps, dt, bad = _sampling(t)
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"{path}: vehicle {vid} not uniformly sampled near data row "
                f"{recs[k + 1][4]} (step {steps[k]:.6g} vs dt {dt:.6g})"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            a = cols[3] if has_a else np.gradient(v, dt)
        if not np.isfinite(a).all():
            raise ValueError(f"{path}: vehicle {vid} speeds give a non-finite acceleration")
        out.append(Trajectory(vehicle_id=vid, t=t, x=x, v=v, a=a, dt=dt))
    return out


# ---------------------------------------------------------------------------
# Whole-table trajectory export
# ---------------------------------------------------------------------------

# rows of a trajectory export formatted and written at a time
_BLOCK_ROWS = 4096


def sorted_write_trajectories(
    path: str, trajectories: Sequence[Trajectory], full_precision: bool = False
) -> None:
    """Flat trajectory export sorted by (t, vehicle_id)."""
    cols = np.hstack([np.empty((5, 0))] + [
        np.vstack((tr.t, np.zeros(len(tr.t)), tr.x, tr.v, tr.a))
        for tr in trajectories])                       # rows t, (id slot), x, v, a
    # ids stay int64: as floats, distinct ids above 2**53 would collapse
    ids = np.repeat(np.array([tr.vehicle_id for tr in trajectories], dtype=np.int64),
                    [len(tr.t) for tr in trajectories])
    order = np.lexsort((ids, cols[0]))
    real = _REAL_SPEC[full_precision]
    row = _row(real, "%d", real, real, real)

    def blocks():
        for i in range(0, order.size, _BLOCK_ROWS):
            o = order[i:i + _BLOCK_ROWS]
            values = cols[:, o].T.ravel().tolist()
            values[1::5] = ids[o].tolist()
            yield row * o.size, values

    _write_blocks(path, "t,vehicle_id,x,v,a", blocks())


# ---------------------------------------------------------------------------
# Accumulate-then-pool empirical sweep
# ---------------------------------------------------------------------------

def pooled_empirical(
    leader: Trajectory,
    draws: Sequence,
    n_followers: int = 4,
    dt: float = 0.05,
    origin_spacing: float = 2.0,
) -> EmpiricalRun:
    """`run_empirical` keeping every draw's paths until the last draw is
    traced, then pooling them all at once."""
    if leader.t0 != 0.0:
        raise ValueError("recorded leader must start at t = 0")
    v_free = float(np.max(leader.v)) + 5.0
    params = [ControlParams(tau=d.tau, L=d.L, k_s=d.k_s, k_v=d.k_v, v_f=v_free) for d in draws]
    if not params:
        raise ValueError("no parameter draws to simulate")
    origins = origin_grid(leader, *_EMPIRICAL_WINDOW, origin_spacing)
    proposed: List[WavePath] = []
    baseline: List[WavePath] = []
    for p in params:
        sc = Scenario(params=p, n_followers=n_followers, leader=leader, duration=leader.t_end, dt=dt)
        prop, base = trace_methods(origins, simulate_platoon(sc).trajectories, p)
        proposed += prop
        baseline += base
    c = Comparison.pool(proposed, baseline)
    return EmpiricalRun(
        proposed_stats=c.proposed_stats,
        baseline_stats=c.baseline_stats,
        n_draws=len(params),
        n_deviations=len(c.proposed_devs),
    )


# ---------------------------------------------------------------------------
# String stability on a frequency grid
# ---------------------------------------------------------------------------

def grid_stability_class(params: ControlParams) -> StabilityResult:
    """Classify string stability from the supremum of |G| on a grid.

    The grid is 10^4 log-spaced frequencies on [1e-2, 100] rad/s.  The
    lower end matters: |G| -> 1 at DC for every parameter set, so a grid
    reaching too close to zero would tag every configuration Marginal.
    Stable means sup |G| < 1 - 1e-6; Marginal |sup - 1| <= 1e-6;
    Unstable otherwise.
    """
    omegas, tol = np.logspace(-2, 2, 10_000), 1e-6
    mags = np.abs(_gain(omegas, params))
    k = int(np.argmax(mags))
    sup = float(mags[k])
    if sup < 1.0 - tol:
        cls = StabilityClass.STABLE
    elif abs(sup - 1.0) <= tol:
        cls = StabilityClass.MARGINAL
    else:
        cls = StabilityClass.UNSTABLE
    return StabilityResult(cls, sup, float(omegas[k]))
