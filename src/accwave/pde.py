"""Finite-volume solver for the congested-regime balance law on a ring.

The mass equation is advanced conservatively with the Rusanov (local
Lax-Friedrichs) flux; the speed equation is split into an upwind
convective update at the second characteristic speed a = v - k_v/rho
followed by an explicit relaxation source toward the time-headway
manifold, evaluated with the already-updated density.  Time steps obey
a CFL condition on the largest characteristic speed.  The CFL number is
the constant `CFL` = 0.5, a stability constant of the scheme, so the grid
is the one setting of a solve; the ring solve (`scenarios.solve_ring`)
takes it as a cell size dx, and has 200 cells by default.

Each step copies (rho, v) into one ghost-cell array of n_x + 2 columns,
with the last cell wrapped in front of the first and the first after the
last.  The per-cell terms (flow, a and the wave bound max(|v|, |a|)) are
computed once on it, and every interface term is a pair of shifted
slices of those columns, so the periodic wrap costs two column copies
and no rolled copies.  The Rusanov flux, the wave bound and a are each
written once, on arrays, and write into a buffer when given one.

Within `solve` a step allocates nothing: its ghost-cell array, its
scratch arrays and the state it returns live in a `_StepWork` that
`solve` allocates once per solve, and every term is computed in place
with `out=` ufuncs.  The flux average and the interface speed are
carried doubled and share one scale 0.5 * (h / dx); halving is exact,
so the arithmetic is the same to the bit.  `solve` caps the step before
each output time so that the march lands on it, and records the state
there.

Also provides the piecewise-constant mapping from ring vehicle states
(`ring_cells`) and ring trajectories (`micro_to_eulerian`) to Eulerian
(rho, v) fields on a ring as long as their `Grid`: each vehicle owns the
road from its own position up to its leader's, at rho = 1/spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import ControlParams, _require
from .microsim import Trajectory

__all__ = [
    "Grid",
    "EulerianField",
    "PositivityError",
    "step",
    "solve",
    "ring_cells",
    "micro_to_eulerian",
]

SourceFn = Optional[Callable[[np.ndarray, float], np.ndarray]]

CFL = 0.5  # CFL number of the adaptive step: a stability constant of the scheme


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid of n_x cells on a ring of length L_x."""

    L_x: float
    n_x: int

    def __post_init__(self) -> None:
        _require(self.L_x, "ring length L_x", positive=True)
        _require(self.n_x, "cell count n_x", integer=True)
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
        if not np.all(self.rho > 0):  # also refuses NaN
            raise ValueError("density must be positive everywhere")

    def mass(self, k: int = -1) -> float:
        return float(np.sum(self.rho[k]) * self.grid.dx)


class PositivityError(RuntimeError):
    def __init__(self, t: float, cell: int, rho: float):
        super().__init__(
            f"density non-positive after update: cell {cell}, t={t:.6f}, rho={rho:.3e} "
            "(refine dx)"
        )
        self.t = t
        self.cell = cell
        self.rho = rho


# ---------------------------------------------------------------------------
# Local building blocks
# ---------------------------------------------------------------------------

def _advection(rho, v, params: ControlParams, out=None):
    """a = v - k_v/rho (= lambda2), elementwise; into `out` when given."""
    return np.subtract(v, np.divide(params.k_v, rho, out=out), out=out)


def _cell_bound(v, a, out=None):
    """max(|lambda1|, |lambda2|) per cell = max(|v|, |a|); into `out` when given.

    k_v >= 0 and rho > 0 make a = v - k_v/rho <= v, so the bound is
    max(v, -a), the same value in two passes rather than three.
    """
    return np.maximum(v, np.negative(a, out=out), out=out)


def _rusanov(rho_l, q_l, bound_l, rho_r, q_r, bound_r, out=None, scratch=None):
    """Twice the Rusanov mass flux at interfaces between left and right cell
    values; into `out` when given, with `scratch` as a second buffer.

    alpha = max(bound_l, bound_r) is the local wave bound; the flux is the
    central average of q = rho*v minus alpha-scaled dissipation on the
    density jump, 0.5 (q_l + q_r) - 0.5 alpha (rho_r - rho_l).  It is
    returned doubled so that the caller's update scale carries the 0.5:
    halving is exact, so this costs no rounding.
    """
    alpha = np.maximum(bound_l, bound_r, out=scratch)
    dissipation = np.multiply(alpha, np.subtract(rho_r, rho_l, out=out), out=scratch)
    return np.subtract(np.add(q_l, q_r, out=out), dissipation, out=out)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

class _StepWork:
    """Buffers of `step` on an n-cell grid, and the views of them it reads.

    The ghost-cell array, the per-column, interface and cell scratch
    arrays, and the (2, n) state buffer that each step writes.  Every
    slice the step takes (interior, wrap columns, left and right interface
    sides, state rows) is made once here: making a view costs a good part
    of a ufunc call on a grid of a few hundred cells.
    """

    def __init__(self, n: int):
        self.n = n
        cells = np.empty((2, n + 2))             # rho, v with one ghost column each side
        self.a = np.empty(n + 2)                 # per column: a = v - k_v/rho,
        self.bound = np.empty(n + 2)             # the wave bound max(|v|, |a|)
        self.q = np.empty(n + 2)                 # and the flow rho*v
        self.flux = np.empty(n + 1)              # per interface: twice the Rusanov flux,
        self.scratch = np.empty(n + 1)           # its second buffer,
        self.dv = np.empty(n + 1)                # the jump of v
        self.donor = np.empty((2, n + 1))        # and the two upwind terms of v
        self.relax = np.empty(n)                 # per cell: the relaxation term
        self.tmp = np.empty(n)                   # and its second buffer,
        self.state = np.empty((2, n))            # the new rho and v

        self.r, self.u = cells
        self.interior = cells[:, 1:-1]
        self.wrap = ((cells[:, 0], cells[:, n]), (cells[:, -1], cells[:, 1]))   # (ghost, cell)
        r, u, a, bound, q = self.r, self.u, self.a, self.bound, self.q
        # interface j pairs column j (left) with column j + 1 (right)
        self.flux_sides = (r[:-1], q[:-1], bound[:-1], r[1:], q[1:], bound[1:])
        self.a_l, self.a_r, self.u_l, self.u_r = a[:-1], a[1:], u[:-1], u[1:]
        self.up, self.dn = self.donor
        self.flux_l, self.flux_r = self.flux[:-1], self.flux[1:]
        # cell i takes the positive part at its left interface (entry i)
        # and the negative part at its right one (entry i + 1)
        self.up_l, self.dn_r = self.up[:-1], self.dn[1:]
        self.rho_new, self.v_new = self.state


def step(
    rho: np.ndarray,
    v: np.ndarray,
    grid: Grid,
    params: ControlParams,
    t: float = 0.0,
    dt: Optional[float] = None,
    mass_source: SourceFn = None,
    momentum_source: SourceFn = None,
    *,
    work: Optional[_StepWork] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """One finite-volume step; returns (rho_new, v_new, dt_used).

    Stages: time step of CFL number `CFL` (a constant) from the global
    wave bound, unless `dt`, which must be positive and finite, caps it;
    conservative Rusanov mass update with periodic wrap; upwind
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
    The flux average and the interface speed are kept doubled and halved
    once, in the scale 0.5 * (h / dx); halving is exact, so this is the
    same arithmetic to the bit.  A NaN density is refused like a
    non-positive one, before and after the update.

    Buffers: every array the step computes lives in `work`, a `_StepWork`
    for this grid size, and is filled in place; without one the step
    allocates its own.  The returned arrays are views of the state buffer
    of `work`, which the next call with the same `work` overwrites.  The
    inputs are read only through the ghost-cell copy, so they may be the
    results of the previous call.
    """
    _require(dt, "dt cap", positive=True, optional=True)
    n, dx = grid.n_x, grid.dx
    w = _StepWork(n) if work is None else work
    if w.n != n:
        raise ValueError(f"work buffers are for {w.n} cells, the grid has {n}")
    w.interior[0] = rho
    w.interior[1] = v
    for ghost, cell in w.wrap:
        ghost[...] = cell
    r, u = w.r, w.u
    # argmin and argmax return the first NaN, so these tests also refuse NaN;
    # each is one pass, and cheaper per call than min() and max()
    if not r[r.argmin()] > 0:
        raise ValueError("density must be positive (non-vacuum)")
    a = _advection(r, u, params, out=w.a)
    bound = _cell_bound(u, a, out=w.bound)

    # the max over cells equals the max of the interface bounds
    dt_cfl = CFL * dx / float(bound[bound.argmax()])
    h = dt_cfl if dt is None else min(dt, dt_cfl)
    scale = 0.5 * (h / dx)                       # the 0.5 of the doubled flux and speeds

    np.multiply(r, u, out=w.q)
    _rusanov(*w.flux_sides, out=w.flux, scratch=w.scratch)
    # upwind terms at entry i: twice a_{i-1/2}, its positive part times
    # v_i - v_{i-1} and its negative part times the same jump
    up, dn, dv = w.up, w.dn, w.dv
    np.add(w.a_l, w.a_r, out=up)
    np.subtract(w.u_r, w.u_l, out=dv)
    np.minimum(up, 0.0, out=dn)
    np.maximum(up, 0.0, out=up)
    np.multiply(w.donor, dv, out=w.donor)
    # both updates, scaled at once: rho - scale (flux_{i+1/2} - flux_{i-1/2})
    # and v* = v - scale (a_{i-1/2}^+ dv_{i-1/2} + a_{i+1/2}^- dv_{i+1/2})
    state, rho_new, v_new = w.state, w.rho_new, w.v_new   # v_new holds v* until the relaxation
    np.subtract(w.flux_r, w.flux_l, out=rho_new)
    np.add(w.up_l, w.dn_r, out=v_new)
    np.multiply(state, scale, out=state)
    np.subtract(w.interior, state, out=state)
    if mass_source is not None:
        np.add(rho_new, h * mass_source(grid.centers, t), out=rho_new)
    cell = int(rho_new.argmin())
    if not rho_new[cell] > 0:
        raise PositivityError(t + h, cell, float(rho_new[cell]))
    if momentum_source is not None:
        np.add(v_new, h * momentum_source(grid.centers, t), out=v_new)

    # relaxation toward the manifold: v* + h k_s (1/rho_new - tau v* - L)
    relax, tmp = w.relax, w.tmp
    np.divide(1.0, rho_new, out=relax)
    np.multiply(params.tau, v_new, out=tmp)
    np.subtract(relax, tmp, out=relax)
    np.subtract(relax, params.L, out=relax)
    np.multiply(h * params.k_s, relax, out=relax)
    np.add(v_new, relax, out=v_new)
    return rho_new, v_new, h


def solve(
    rho0: np.ndarray,
    v0: np.ndarray,
    grid: Grid,
    params: ControlParams,
    t_end: float,
    output_times: Optional[Sequence[float]] = None,
    mass_source: SourceFn = None,
    momentum_source: SourceFn = None,
) -> EulerianField:
    """March the scheme to t_end, recording the state at the requested times.

    The steps take the constant CFL number `CFL`, so `grid` alone sets the
    resolution.  The step before each requested time is capped to land on
    it exactly, so the recorded times are the distinct requests, clipped
    to [0, t_end], in increasing order; with no request list they are 0
    and t_end.  The march always ends at t_end.  One `_StepWork` serves every
    step, so the march allocates nothing per step but the recorded copies.
    """
    rho = np.asarray(rho0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if rho.shape != (grid.n_x,) or v.shape != rho.shape:
        raise ValueError("initial arrays must match the grid")
    _require(rho, "initial density", positive=True)
    _require(v, "initial speed")
    _require(t_end, "t_end", nonnegative=True)
    requests = [0.0, t_end] if output_times is None else [float(x) for x in output_times]
    _require(requests, "output times")
    stops = sorted({min(max(x, 0.0), t_end) for x in requests})

    t = 0.0
    work = _StepWork(grid.n_x)
    rec_t: List[float] = []
    rec_rho: List[np.ndarray] = []
    rec_v: List[np.ndarray] = []
    for k, stop in enumerate(stops + [t_end]):
        while t < stop:
            rho, v, h = step(
                rho, v, grid, params, t=t, dt=stop - t,
                mass_source=mass_source, momentum_source=momentum_source, work=work,
            )
            # when the cap binds, t + h may round to either side of the stop
            t = stop if h == stop - t else t + h
        if k < len(stops):
            rec_t.append(t)
            rec_rho.append(rho.copy())
            rec_v.append(v.copy())

    return EulerianField(
        grid=grid,
        times=np.array(rec_t),
        rho=np.vstack(rec_rho) if rec_rho else np.empty((0, grid.n_x)),
        v=np.vstack(rec_v) if rec_v else np.empty((0, grid.n_x)),
    )


# ---------------------------------------------------------------------------
# Micro -> Eulerian mapping
# ---------------------------------------------------------------------------

def ring_cells(x: np.ndarray, v: np.ndarray, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant (n_t, n_x) fields rho and v of ring vehicles at
    (n_t, n) positions `x` and speeds `v`, one column per vehicle in
    platoon order: vehicle i follows i-1, vehicle 0 the last one across
    the seam.  The ring is `grid.L_x` long.  Vehicle i owns the road from
    its own position up to its leader's (wrap-around); every cell whose
    center falls in that stretch takes rho = 1/s_i and v = v_i.
    """
    n, ring_length = x.shape[1], grid.L_x
    if n < 2:
        raise ValueError("need at least two vehicles")
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
    idx = np.array([np.searchsorted(row, centers, side="right") for row in sorted_pos],
                   dtype=int).reshape(-1, centers.size) - 1
    idx[idx < 0] = n - 1
    owners = np.take_along_axis(order, idx, axis=1)
    rho = 1.0 / np.take_along_axis(gaps, owners, axis=1)
    return rho, np.take_along_axis(v, owners, axis=1)


def micro_to_eulerian(
    trajectories: Sequence[Trajectory],
    grid: Grid,
    t,
) -> Tuple[np.ndarray, np.ndarray]:
    """`ring_cells` of ring trajectories in platoon order at time t: a scalar
    t gives (n_x,) arrays, an array of n_t times (n_t, n_x) arrays.  Every
    time must lie in the window that all trajectories cover."""
    if len(trajectories) < 2:
        raise ValueError("need at least two vehicles")
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    lo = max(tr.t0 for tr in trajectories)
    hi = min(tr.t_end for tr in trajectories)
    outside = ~((flat >= lo) & (flat <= hi))     # also NaN
    if outside.any():
        raise ValueError(f"time {flat[outside][0]} lies outside the trajectories' "
                         f"common window [{lo}, {hi}]")
    # (n_t, n): one interpolation per vehicle over all requested times
    x = np.stack([tr.position_at(flat) for tr in trajectories], axis=1)
    v = np.stack([tr.speed_at(flat) for tr in trajectories], axis=1)
    shape = times.shape + (grid.n_x,)
    return tuple(field.reshape(shape) for field in ring_cells(x, v, grid))
