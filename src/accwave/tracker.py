"""Disturbance-path tracing over platoon trajectories.

Four kinds of propagation path are traced in the (t, x) plane:

* characteristic paths, integrating dx/dt = W(t) where W is the
  pair-local wave speed v_lead - k_v*(x_lead - x_follower);
* constant-speed paths (the first-order baseline, default slope -L/tau);
* shock fronts at the Rankine-Hugoniot speed of the conserved mass;
* engagement fronts connecting the per-vehicle ACC activation points.

All tracing is read-only over immutable trajectories; paths record every
trajectory crossing as (vehicle, t, x, v) tuples for the deviation
metric downstream.

Paths are traced pair by pair.  The speed of a path inside a pair
depends on t only, so every path through that pair integrates the same
speed: its pair table holds the speed on the follower's own samples
(one array call) and its cumulative trapezoid, built the first time a
path reaches the pair and reused by every later path under the same
speed rule.  When the pair's common window ends on a follower sample (a
simulated platoon, or recorded vehicles on one clock), the table's knots
borrow the follower's samples: they are a view of its times, not a copy.
A path entering at (t_c, x_c) adds one trapezoid from t_c to
the next sample and is then the table shifted by a constant; its
crossing is the first root of path minus follower, linear between
samples.  Its knot is found by array compares over windows of knots
from the entry, the first `_FIRST_WINDOW` knots long and each next one
twice as long, so a crossing n knots ahead compares O(n) knots in
O(log n) windows, not the whole rest of the table.  The follower
intervals of the entry and of the crossing are known from the table, so
the follower's state there takes a few Python float operations
(`_state_in`), equal bit for bit to np.interp.  With sample
spacing h this is second order, O(h^2), where the speed is smooth, first
order over a sample interval in which the switching rule flips, and
exact to round-off for straight (constant-speed) paths.  No time step is
chosen by the tracer, so `Trajectory.dt` is not read.

The tables live on a `Platoon`, the tuple of a platoon's trajectories,
and go when it goes: a caller tracing many origins wraps its
trajectories in one `Platoon` and passes it to every call; a plain
sequence is wrapped for the one call.  There is no module-level cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import ControlParams, TrafficState, _require, engaged
from .microsim import (
    EngagementEvent,
    Trajectory,
    detect_engagement,
    gap_reach,
)

__all__ = [
    "PathKind",
    "Crossing",
    "WavePath",
    "EngagementFront",
    "DegenerateJumpError",
    "PhaseTransition",
    "Platoon",
    "pair_wave_speed",
    "trace_characteristic_path",
    "constant_speed_path",
    "shock_speed",
    "engagement_front",
    "engagement_path",
    "trace_phase_transition",
]

ORIGIN_SPACING = 1.0  # seconds between path origins, when not given


class PathKind(Enum):
    CHARACTERISTIC = "Characteristic"
    CONSTANT_SPEED = "ConstantSpeed"
    SHOCK = "Shock"
    ENGAGEMENT = "Engagement"


class Crossing(NamedTuple):
    vehicle_id: int
    t: float
    x: float
    v: float


@dataclass(frozen=True)
class WavePath:
    """One traced path: an origin point plus ordered trajectory crossings.

    Crossings advance strictly rearward through the platoon (the order
    the trajectories were supplied in).  `truncated` marks paths cut
    short by the time window or by shock overtaking, not an error.
    """

    kind: PathKind
    origin_t: float
    origin_x: float
    origin_v: float
    crossings: Tuple[Crossing, ...]
    truncated: bool = False

    @property
    def speeds(self) -> np.ndarray:
        """Speed sequence V_p along the path: origin speed, then crossings."""
        return np.array([self.origin_v] + [c.v for c in self.crossings])


@dataclass(frozen=True)
class EngagementFront:
    """ACC activation points of successive vehicles and the speeds of the
    straight segments connecting them (inf where two engage at once)."""

    events: Tuple[EngagementEvent, ...]
    segment_speeds: Tuple[float, ...]


class DegenerateJumpError(ValueError):
    pass


def lwr_baseline_speed(params: ControlParams) -> float:
    """Slope dq/drho of the congested branch q = (1 - rho*L)/tau: -L/tau."""
    return -params.L / params.tau


# ---------------------------------------------------------------------------
# Pair-local wave speed
# ---------------------------------------------------------------------------

def _wave_speed(x_lead, v_lead, x_fol, v_fol, params: ControlParams):
    """W = v_lead - k_v*s of a pair in the states (x, v) of its two vehicles,
    s = x_lead - x_fol, with the gain gated by the follower's regime."""
    s = x_lead - x_fol
    return v_lead - params.k_v * s * engaged(s, v_fol, params)


def pair_wave_speed(t, leader: Trajectory, follower: Trajectory, params: ControlParams):
    """Wave speed W(t) = v_lead - k_v*(x_lead - x_follower) of one pair.

    The gain is gated by the follower's local regime (`engaged` on its
    spacing and speed, with the cruise band of `params`), so a free-flow
    follower yields the degenerate W = v_lead.  Accepts scalar or array t.
    """
    t_arr = np.asarray(t, dtype=float)
    w = _wave_speed(leader.position_at(t_arr), leader.speed_at(t_arr),
                    follower.position_at(t_arr), follower.speed_at(t_arr), params)
    return float(w) if np.isscalar(t) or t_arr.ndim == 0 else w


# ---------------------------------------------------------------------------
# Path tracing
# ---------------------------------------------------------------------------

# (x_lead, v_lead, x_fol, v_fol) of a pair, scalars or arrays -> path speed.
# Rules are hashable: equal rules share their pair tables.
SpeedRule = Callable[..., np.ndarray]
Terminator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _Characteristic:
    """Speed rule of a characteristic path: the pair wave speed W."""

    params: ControlParams

    def __call__(self, x_lead, v_lead, x_fol, v_fol):
        return _wave_speed(x_lead, v_lead, x_fol, v_fol, self.params)


@dataclass(frozen=True)
class _Constant:
    """Speed rule of a straight path of slope w."""

    w: float

    def __call__(self, x_lead, v_lead, x_fol, v_fol):
        return self.w if isinstance(x_fol, float) else np.full(np.shape(x_fol), self.w)


class _PairTable(NamedTuple):
    """A speed rule integrated once over a pair's common window [t_lo, t_end].

    The knots are the follower's samples in [t_lo, t_end), from sample
    `first` on, and t_end.  When t_end is a follower sample the knots are a
    view of the follower's times (np.interp returns a sample at its own
    time, so the follower's states there are its samples); otherwise they
    are a copy with t_end appended.  `w` is the rule on the knots (the lead
    interpolated, the follower at its own samples), `c` its cumulative
    trapezoid from the first knot and `g = c - x_fol`.  A path entering at
    (t_c, x_c) is at c + offset on the knots after t_c and minus the
    follower at g + offset, one `offset` per path (`_pair_crossing`).  A
    time in [t_lo, t_end) before knot j lies in the follower's sample
    interval first + j - 1.
    """

    t_lo: float
    first: int
    t: np.ndarray
    w: np.ndarray
    c: np.ndarray
    g: np.ndarray


def _pair_table(lead: Trajectory, fol: Trajectory, rule: SpeedRule) -> _PairTable:
    t_lo, t_end = max(lead.t0, fol.t0), min(lead.t_end, fol.t_end)
    first = int(np.searchsorted(fol.t, t_lo))
    stop = int(np.searchsorted(fol.t, t_end))
    if first <= stop < len(fol.t) and fol.t.item(stop) == t_end:
        # views: np.interp returns the follower's sample at t_end
        t, x_fol, v_fol = fol.t[first:stop + 1], fol.x[first:stop + 1], fol.v[first:stop + 1]
    else:
        t = np.append(fol.t[first:stop], t_end)
        x_fol = np.append(fol.x[first:stop], fol.position_at(t_end))
        v_fol = np.append(fol.v[first:stop], fol.speed_at(t_end))
    w = rule(lead.position_at(t), lead.speed_at(t), x_fol, v_fol)
    c = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))))
    return _PairTable(t_lo, first, t, w, c, c - x_fol)


def _state_in(tr: Trajectory, t: float, i: int) -> Tuple[float, float]:
    """(position_at(t), speed_at(t)) of `tr` at a float t in its sample
    interval i, t[i] <= t <= t[i+1], bit for bit, as floats:
    the sample at a sample time, else np.interp's own formula
    (y[i+1] - y[i])/(t[i+1] - t[i])*(t - t[i]) + y[i], which on finite
    samples is never NaN (a difference that overflows gives inf, as
    np.interp does)."""
    ts, xs, vs = tr.t, tr.x, tr.v
    if t == ts.item(i + 1):
        i += 1
    t_i, x_i, v_i = ts.item(i), xs.item(i), vs.item(i)
    if t == t_i:
        return x_i, v_i
    h, u = ts.item(i + 1) - t_i, t - t_i
    return (xs.item(i + 1) - x_i) / h * u + x_i, (vs.item(i + 1) - v_i) / h * u + v_i


class Platoon(tuple):
    """The trajectories of one platoon, front to rear, and the pair tables
    of the paths traced over it.

    A pair's table for a speed rule (`_PairTable`) is built the first time
    a path reaches that pair under that rule and reused by every later
    path over the same Platoon, so a caller tracing many origins wraps its
    trajectories once; the tables go with the Platoon.
    """

    def __new__(cls, trajectories: Sequence[Trajectory]):
        platoon = super().__new__(cls, trajectories)
        platoon._tables = {}
        return platoon

    @classmethod
    def of(cls, trajectories: Sequence[Trajectory]) -> "Platoon":
        """`trajectories` when it is already a Platoon, else a new Platoon of them."""
        return trajectories if isinstance(trajectories, cls) else cls(trajectories)

    def tables(self, rule: SpeedRule) -> Dict[int, _PairTable]:
        """The tables of `rule` built so far, by the index of the pair's follower."""
        return self._tables.setdefault(rule, {})


# Knots in the first window of the crossing search; each next window is twice
# as long.  A compare over 128 knots costs about what one over 32 does, and
# 128 knots hold 86 % of the crossings of cases 1-4 (dt = 0.01 s) and every
# crossing of an `empirical` draw (dt = 0.05 s).
_FIRST_WINDOW = 128


def _first_knot(g: np.ndarray, k: int, level: float, above: bool = False) -> int:
    """First index i >= k with g[i] <= level (g[i] > level when `above`), or
    -1 when there is none.  Compares g window by window from k, the first
    `_FIRST_WINDOW` knots long and each next one twice as long."""
    n = _FIRST_WINDOW
    while k < len(g):
        window = g[k:k + n]
        hit = window > level if above else window <= level
        i = int(hit.argmax())
        if hit[i]:
            return k + i
        k += n
        n += n
    return -1


def _pair_crossing(t_c: float, x_c: float, v_c: float, fol: Trajectory, tab: _PairTable,
                   rule: SpeedRule, terminator: Optional[Terminator],
                   ) -> Optional[Tuple[float, float, float]]:
    """Time, position and speed at which a path entering a pair at
    (t_c, x_c), on the lead at speed v_c, meets the follower, or None when
    it reaches the end of the pair's common window or the terminator first
    (or enters outside that window).

    Between t_c and the first knot after it the path takes the trapezoid of
    the rule at the entry and at that knot; from there on it follows the
    table.  The path is the chord between knots, so path minus follower is
    linear there and its first down-crossing of zero is a closed-form root,
    on the first knot at or below zero that `_first_knot` finds from the
    entry.  The follower is read by `_state_in` in the sample interval the
    table puts the entry and the crossing in; round-off can put the
    crossing on that interval's right end, where the read is the sample.
    """
    t, g = tab.t, tab.g
    if not tab.t_lo <= t_c < t.item(-1):
        return None
    j = int(t.searchsorted(t_c, side="right"))   # first knot after t_c
    x_f, v_f = _state_in(fol, t_c, tab.first + j - 1)
    w_c = rule(x_c, v_c, x_f, v_f)
    # path minus follower is g + offset on the knots from j on; compared
    # as g against -offset, which has the same sign in floating point
    offset = x_c + 0.5 * (w_c + tab.w.item(j)) * (t.item(j) - t_c) - tab.c.item(j)
    k = j
    if not x_c - x_f > 0.0:
        # a path behind the follower (overlapping vehicles in recorded data)
        # has not crossed it yet: search from the first knot ahead of it
        k = _first_knot(g, j, -offset, above=True)
        if k < 0:
            return None
    k = _first_knot(g, k, -offset)
    if k < 0:
        return None
    t0, g0 = (t_c, x_c - x_f) if k == j else (t.item(k - 1), g.item(k - 1) + offset)
    t_x = float(t0 + g0 / (g0 - (g.item(k) + offset)) * (t.item(k) - t0))
    if terminator is not None:
        tn = np.concatenate(([t_c], t[j:k + 1]))
        xn = np.concatenate(([x_c], tab.c[j:k + 1] + offset))
        if np.any(terminator(tn, xn)[tn < t_x]):
            return None
    return (t_x,) + _state_in(fol, t_x, tab.first + k - 1)


def _trace(
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
    and re-anchors on the follower at the crossing; see `_pair_crossing`.
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
            tab = tables[idx] = _pair_table(platoon[idx - 1], fol, rule)
        crossing = _pair_crossing(t, x, v, fol, tab, rule, terminator)
        if crossing is None:
            return WavePath(kind, origin_t, origin_x, origin_v, tuple(crossings), True)
        t, x, v = crossing
        crossings.append(Crossing(fol.vehicle_id, t, x, v))
    return WavePath(kind, origin_t, origin_x, origin_v, tuple(crossings))


def _trace_from_lead(origin_t: float, trajectories: Sequence[Trajectory], rule: SpeedRule,
                     kind: PathKind, terminator: Optional[Terminator] = None) -> WavePath:
    """`_trace` from the point (origin_t, x_0, v_0) of the lead trajectory."""
    lead = trajectories[0]
    if not lead.t0 <= origin_t <= lead.t_end:
        raise ValueError("origin time outside the lead trajectory")
    i = max(int(lead.t.searchsorted(origin_t)), 1) - 1   # t[i] < origin_t <= t[i+1], or i = 0
    origin_x, origin_v = _state_in(lead, float(origin_t), i)
    return _trace(origin_t, origin_x, origin_v, trajectories, 1, rule, kind, terminator)


def trace_characteristic_path(
    origin_t: float,
    trajectories: Sequence[Trajectory],
    params: ControlParams,
) -> WavePath:
    """Trace a characteristic path from a point on the lead trajectory.

    The path starts at (origin_t, x_0(origin_t)) and integrates dx/dt = W
    of the pair currently being traversed, its gain gated by the cruise
    band of `params`, re-anchoring on each crossed trajectory.  Tracing
    stops at the last vehicle or the end of the common time window (then
    flagged truncated).  Pass a `Platoon` to share its pair tables with other paths.
    """
    return _trace_from_lead(
        origin_t, trajectories, _Characteristic(params), PathKind.CHARACTERISTIC)


def constant_speed_path(
    origin_t: float,
    trajectories: Sequence[Trajectory],
    w_const: float,
) -> WavePath:
    """Straight-line path of slope w_const from a point on the lead trajectory."""
    _require(w_const, "w_const")
    return _trace_from_lead(origin_t, trajectories, _Constant(w_const), PathKind.CONSTANT_SPEED)


# ---------------------------------------------------------------------------
# Shocks and engagement fronts
# ---------------------------------------------------------------------------

def shock_speed(left: TrafficState, right: TrafficState) -> float:
    """Rankine-Hugoniot speed of the mass jump: (q_r - q_l)/(rho_r - rho_l)."""
    if left.rho == right.rho:
        raise DegenerateJumpError("equal densities: jump speed undefined")
    return (right.q - left.q) / (right.rho - left.rho)


def engagement_front(events: Sequence[EngagementEvent]) -> EngagementFront:
    """Connect successive activation points into a piecewise-linear front.

    Segment speed between events i-1 and i is dx/dt of the connecting
    chord; coincident engagement times give a segment speed of inf, not an
    error.
    """
    if len(events) < 2:
        raise ValueError("an engagement front needs at least two events")
    speeds = []
    for prev, nxt in zip(events, events[1:]):
        dt = prev.t_star - nxt.t_star
        if dt == 0.0:
            speeds.append(math.inf)
        else:
            speeds.append((prev.x_star - nxt.x_star) / dt)
    return EngagementFront(tuple(events), tuple(speeds))


def engagement_path(front: EngagementFront, trajectories: Sequence[Trajectory]) -> WavePath:
    """The engagement front as a WavePath (crossing speeds read from the
    engaged vehicles' trajectories at their activation times)."""
    by_id = {tr.vehicle_id: tr for tr in trajectories}
    first = front.events[0]
    origin_v = float(by_id[first.vehicle_id].speed_at(first.t_star))
    crossings = tuple(
        Crossing(ev.vehicle_id, ev.t_star, ev.x_star, float(by_id[ev.vehicle_id].speed_at(ev.t_star)))
        for ev in front.events[1:]
    )
    return WavePath(PathKind.ENGAGEMENT, first.t_star, first.x_star, origin_v, crossings)


# ---------------------------------------------------------------------------
# Free-flow -> congested transition composite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseTransition:
    """Composite wave description of a free-flow-to-congested transition."""

    events: Tuple[EngagementEvent, ...]
    front: Optional[EngagementFront]
    engagement: Optional[WavePath]
    shock: Optional[WavePath]
    characteristics: Tuple[WavePath, ...]
    shock_speed: Optional[float]
    t_complete: Optional[float]

    def paths(self) -> List[WavePath]:
        out: List[WavePath] = []
        if self.engagement is not None:
            out.append(self.engagement)
        if self.shock is not None:
            out.append(self.shock)
        out.extend(self.characteristics)
        return out


def _first_spacing_reach(lead: Trajectory, fol: Trajectory, target: float) -> Optional[float]:
    """`gap_reach`, except that a pair already at or below `target` at the
    start of its common window reaches it there."""
    t_lo = max(lead.t0, fol.t0)
    if lead.position_at(t_lo) - fol.position_at(t_lo) <= target:
        return t_lo
    return gap_reach(lead, fol, target)


def trace_phase_transition(
    trajectories: Sequence[Trajectory],
    params: ControlParams,
    v_e: float,
    origin_spacing: float = ORIGIN_SPACING,
) -> PhaseTransition:
    """Build the composite wave set of a free-flow-to-congested scenario.

    The engagement front joins the per-vehicle activation points; a
    shock launched at the first activation point travels at the
    Rankine-Hugoniot speed between the pre-engagement state
    (1/s_c, v_f) and the final equilibrium (1/s_e, v_e); characteristic
    paths start on the lead trajectory at multiples of `origin_spacing`
    once every vehicle's spacing has first come down to s_e, and each
    one terminates when the shock front catches it (the characteristic
    falls back faster than the shock); their gain sees the cruise band of `params`.

    A scenario that never transitions returns an empty composite.
    """
    _require(origin_spacing, "origin spacing", positive=True)
    _require(v_e, "v_e")
    trajectories = Platoon.of(trajectories)
    events = detect_engagement(trajectories, params)
    if not events:
        return PhaseTransition((), None, None, None, (), None, None)

    front = engagement_front(events) if len(events) >= 2 else None
    eng_path = engagement_path(front, trajectories) if front is not None else None

    s_c = params.s_c
    s_e = params.desired_spacing(v_e)
    c_sh = shock_speed(TrafficState(1.0 / s_c, params.v_f), TrafficState(1.0 / s_e, v_e))
    t_sh, x_sh = events[0].t_star, events[0].x_star

    # shock path: straight line from the first activation point across the rest
    first_idx = next(
        i for i, tr in enumerate(trajectories) if tr.vehicle_id == events[0].vehicle_id
    )
    origin_v_sh = float(trajectories[first_idx].speed_at(t_sh))
    shock_path = _trace(
        t_sh, x_sh, origin_v_sh, trajectories, first_idx + 1, _Constant(c_sh), PathKind.SHOCK,
    ) if first_idx + 1 < len(trajectories) else None

    # transition completes once every pair's spacing has reached s_e
    reach = [_first_spacing_reach(lead, fol, s_e) for lead, fol in zip(trajectories, trajectories[1:])]
    t_complete = None if None in reach else max(reach)

    chars: List[WavePath] = []
    if t_complete is not None:
        def overtaken(t: np.ndarray, x: np.ndarray) -> np.ndarray:
            return x <= x_sh + c_sh * (t - t_sh)

        rule = _Characteristic(params)
        k = math.ceil(t_complete / origin_spacing)
        while k * origin_spacing < trajectories[0].t_end:
            chars.append(_trace_from_lead(
                k * origin_spacing, trajectories, rule, PathKind.CHARACTERISTIC, terminator=overtaken))
            k += 1

    return PhaseTransition(
        tuple(events), front, eng_path, shock_path, tuple(chars), c_sh, t_complete
    )
