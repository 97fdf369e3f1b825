"""Reference solutions that tests compare the package against.

- The exact solution of the vehicle-pair error dynamics

      z' = A_d z + D_d a_lead,   A_d = [[-tau*k_s, 1 - tau*k_v],
                                        [-k_s,     -k_v       ]],

  built on the platoon propagator's step maps (`microsim._step_maps`),
  as an independent check on the platoon.
- `first_down_crossing`, the root of a sampled series linear between its
  samples, which the Euler and windowed tracer oracles cross pairs with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from accwave.microsim import _step_maps
from accwave.model import ControlParams


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
