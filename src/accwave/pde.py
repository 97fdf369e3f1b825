"""Finite-volume solver for the congested-regime balance law on a ring.

The mass equation is advanced conservatively with the Rusanov (local
Lax-Friedrichs) flux; the speed equation is split into an upwind
convective update at the second characteristic speed a = v - k_v/rho
followed by an explicit relaxation source toward the time-headway
manifold, evaluated with the already-updated density.  Time steps obey
a CFL condition on the largest characteristic speed.

Each step copies (rho, v) into one ghost-cell array of n_x + 2 columns,
with the last cell wrapped in front of the first and the first after the
last.  The per-cell terms (flow, a and the wave bound max(|v|, |a|)) are
computed once on it, and every interface term is a pair of shifted
slices of those columns, so the periodic wrap costs two column copies
and no rolled copies.  The Rusanov flux, the wave bound and a are each
written once, on arrays.

Also provides the piecewise-constant mapping from ring trajectories to
Eulerian (rho, v) fields: each vehicle owns the stretch of road from its
own position up to its leader's, carrying rho = 1/spacing and its own
speed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import ControlParams
from .microsim import Trajectory

__all__ = [
    "Grid",
    "EulerianField",
    "PositivityError",
    "step",
    "solve",
    "micro_to_eulerian",
    "pde_initial_from_micro",
]

SourceFn = Optional[Callable[[np.ndarray, float], np.ndarray]]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid of n_x cells on a ring of length L_x."""

    L_x: float
    n_x: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L_x) and self.L_x > 0):
            raise ValueError(f"ring length must be positive and finite, got {self.L_x}")
        if not isinstance(self.n_x, numbers.Integral):
            raise ValueError(f"cell count must be an integer, got {self.n_x!r}")
        if self.n_x < 4:
            raise ValueError("need at least 4 cells")

    @property
    def dx(self) -> float:
        return self.L_x / self.n_x

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_x) + 0.5) * self.dx


@dataclass(frozen=True)
class EulerianField:
    """Cell-averaged (rho, v) snapshots on a grid at recorded times."""

    grid: Grid
    times: np.ndarray          # (n_t,)
    rho: np.ndarray            # (n_t, n_x)
    v: np.ndarray              # (n_t, n_x)

    def __post_init__(self) -> None:
        n_t = len(self.times)
        if self.rho.shape != (n_t, self.grid.n_x) or self.v.shape != self.rho.shape:
            raise ValueError("field arrays must be (n_times, n_cells)")
        if np.any(self.rho <= 0):
            raise ValueError("density must be positive everywhere")

    def mass(self, k: int = -1) -> float:
        return float(np.sum(self.rho[k]) * self.grid.dx)


class PositivityError(RuntimeError):
    def __init__(self, t: float, cell: int, rho: float):
        super().__init__(
            f"density non-positive after update: cell {cell}, t={t:.6f}, rho={rho:.3e} "
            "(refine dx or lower cfl)"
        )
        self.t = t
        self.cell = cell
        self.rho = rho


# ---------------------------------------------------------------------------
# Local building blocks
# ---------------------------------------------------------------------------

def _advection(rho, v, params: ControlParams):
    """a = v - k_v/rho (= lambda2), elementwise."""
    return v - params.k_v / rho


def _cell_bound(v, a):
    """max(|lambda1|, |lambda2|) per cell = max(|v|, |a|)."""
    return np.maximum(np.abs(v), np.abs(a))


def _rusanov(rho_l, q_l, bound_l, rho_r, q_r, bound_r):
    """(alpha, flux) at interfaces between left and right cell values.

    alpha = max(bound_l, bound_r) is the local wave bound; the Rusanov
    mass flux is the central average of q = rho*v minus alpha-scaled
    dissipation on the density jump.
    """
    alpha = np.maximum(bound_l, bound_r)
    return alpha, 0.5 * (q_l + q_r) - 0.5 * alpha * (rho_r - rho_l)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def step(
    rho: np.ndarray,
    v: np.ndarray,
    grid: Grid,
    params: ControlParams,
    cfl: float = 0.5,
    t: float = 0.0,
    dt: Optional[float] = None,
    mass_source: SourceFn = None,
    momentum_source: SourceFn = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """One finite-volume step; returns (rho_new, v_new, dt_used).

    Stages: CFL time step from the global wave bound (unless `dt`, which
    must be positive, caps it); conservative Rusanov mass update with periodic wrap; upwind
    convective update of v with interface speed a_{i+1/2} = (a_i +
    a_{i+1})/2 and donor cell chosen by its sign; relaxation source
    using the updated density.  Optional source callbacks (x, t) ->
    per-cell rates support manufactured-solution testing.

    Layout: (rho, v) are copied into one (2, n_x + 2) ghost-cell array
    whose column 0 holds the last cell and column n_x + 1 the first, so
    the periodic wrap is two column copies.  The per-cell terms q, a and
    the wave bound are computed once on that array; its n_x + 1
    interfaces pair column j with column j + 1, so cell i's left and
    right interfaces are entries i and i + 1 of every interface array.
    """
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must lie in (0, 1)")
    if dt is not None and not dt > 0:  # also refuses NaN
        raise ValueError(f"dt cap must be positive, got {dt}")
    n, dx = grid.n_x, grid.dx
    cells = np.empty((2, n + 2))
    cells[0, 1:-1] = rho
    cells[1, 1:-1] = v
    cells[:, 0] = cells[:, n]
    cells[:, -1] = cells[:, 1]
    r, u = cells
    if (r <= 0).any():
        raise ValueError("density must be positive (non-vacuum)")
    a = _advection(r, u, params)
    bound = _cell_bound(u, a)

    # the max over cells equals the max of the interface bounds
    dt_cfl = cfl * dx / float(bound.max())
    h = dt_cfl if dt is None else min(dt, dt_cfl)

    q = r * u
    _, flux = _rusanov(r[:-1], q[:-1], bound[:-1], r[1:], q[1:], bound[1:])
    rho_new = rho - (h / dx) * (flux[1:] - flux[:-1])
    if mass_source is not None:
        rho_new = rho_new + h * mass_source(grid.centers, t)
    if (rho_new <= 0).any():
        cell = int(np.argmin(rho_new))
        raise PositivityError(t + h, cell, float(rho_new[cell]))

    a_if = 0.5 * (a[:-1] + a[1:])             # interface i-1/2 at entry i
    dv = u[1:] - u[:-1]                        # v_i - v_{i-1} at entry i
    v_star = v - (h / dx) * (
        np.maximum(a_if[:-1], 0.0) * dv[:-1] + np.minimum(a_if[1:], 0.0) * dv[1:]
    )
    if momentum_source is not None:
        v_star = v_star + h * momentum_source(grid.centers, t)

    v_new = v_star + h * params.k_s * (1.0 / rho_new - params.tau * v_star - params.L)
    return rho_new, v_new, h


def solve(
    rho0: np.ndarray,
    v0: np.ndarray,
    grid: Grid,
    params: ControlParams,
    t_end: float,
    cfl: float = 0.5,
    output_times: Optional[Sequence[float]] = None,
    mass_source: SourceFn = None,
    momentum_source: SourceFn = None,
) -> EulerianField:
    """March the scheme to t_end, sampling output at the requested times.

    Each requested time is matched to the nearest completed step and the
    actual step time is recorded.  With no request list, only the
    initial and final states are kept.  The final step is clamped to
    land exactly on t_end.
    """
    rho = np.asarray(rho0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if rho.shape != (grid.n_x,) or v.shape != rho.shape:
        raise ValueError("initial arrays must match the grid")
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(v))):
        raise ValueError("initial density and speed must be finite")
    if np.any(rho <= 0):
        raise ValueError("initial density must be positive")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")

    requests = None if output_times is None else sorted(float(x) for x in output_times)
    rec_t: List[float] = []
    rec_rho: List[np.ndarray] = []
    rec_v: List[np.ndarray] = []

    def record(t_now: float) -> None:
        rec_t.append(t_now)
        rec_rho.append(rho.copy())
        rec_v.append(v.copy())

    t = 0.0
    ptr = 0
    if requests is None:
        record(t)
    else:
        while ptr < len(requests) and requests[ptr] <= 0.0:
            record(t)
            ptr += 1

    prev_t = t
    while t < t_end - 1e-12:
        prev_rho, prev_v, prev_t = rho, v, t
        rho, v, h = step(
            rho, v, grid, params, cfl, t=t, dt=t_end - t,
            mass_source=mass_source, momentum_source=momentum_source,
        )
        t += h
        if requests is None:
            continue
        while ptr < len(requests) and requests[ptr] <= t:
            # nearest completed step to the requested time
            if abs(requests[ptr] - prev_t) < abs(requests[ptr] - t) and rec_t and rec_t[-1] != prev_t:
                rec_t.append(prev_t)
                rec_rho.append(prev_rho.copy())
                rec_v.append(prev_v.copy())
            elif not rec_t or rec_t[-1] != t:
                record(t)
            ptr += 1
    if requests is None:
        if rec_t[-1] != t:
            record(t)
    else:
        while ptr < len(requests):
            if not rec_t or rec_t[-1] != t:
                record(t)
            ptr += 1

    return EulerianField(
        grid=grid,
        times=np.array(rec_t),
        rho=np.vstack(rec_rho) if rec_rho else np.empty((0, grid.n_x)),
        v=np.vstack(rec_v) if rec_v else np.empty((0, grid.n_x)),
    )


# ---------------------------------------------------------------------------
# Micro -> Eulerian mapping
# ---------------------------------------------------------------------------

def micro_to_eulerian(
    trajectories: Sequence[Trajectory],
    ring_length: float,
    grid: Grid,
    t,
) -> Tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant (rho, v) at time t from ring trajectories.

    Vehicle i owns the road from its own position up to its leader's
    (wrap-around); every cell whose center falls in that stretch takes
    rho = 1/s_i(t) and v = v_i(t).  Trajectories are in platoon order:
    vehicle i follows i-1, vehicle 0 follows the last one across the
    seam.  A scalar t gives (n_x,) arrays; an array of n_t times gives
    (n_t, n_x) arrays, one row per time.
    """
    n = len(trajectories)
    if n < 2:
        raise ValueError("need at least two vehicles")
    if abs(ring_length - grid.L_x) > 1e-9:
        raise ValueError("grid length must match the ring length")
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    # (n_t, n): one interpolation per vehicle over all requested times
    x = np.stack([tr.position_at(flat) for tr in trajectories], axis=1)
    v = np.stack([tr.speed_at(flat) for tr in trajectories], axis=1)
    lead_x = np.roll(x, 1, axis=1)
    lead_x[:, 0] += ring_length
    gaps = lead_x - x
    if np.any(gaps <= 0):
        raise ValueError("non-positive spacing on the ring")

    pos = np.mod(x, ring_length)
    order = np.argsort(pos, axis=1)
    sorted_pos = np.take_along_axis(pos, order, axis=1)
    centers = grid.centers
    # owner of a center = vehicle with the largest wrapped position <= center,
    # wrapping to the topmost vehicle below the first one
    idx = np.array([np.searchsorted(row, centers, side="right") for row in sorted_pos]) - 1
    idx[idx < 0] = n - 1
    owners = np.take_along_axis(order, idx, axis=1)
    shape = times.shape + (grid.n_x,)
    rho = 1.0 / np.take_along_axis(gaps, owners, axis=1)
    return rho.reshape(shape), np.take_along_axis(v, owners, axis=1).reshape(shape)


def pde_initial_from_micro(
    trajectories: Sequence[Trajectory],
    ring_length: float,
    grid: Grid,
) -> Tuple[np.ndarray, np.ndarray]:
    """Initial PDE data: the micro-derived field at the first sample time."""
    t0 = max(tr.t0 for tr in trajectories)
    return micro_to_eulerian(trajectories, ring_length, grid, t0)
