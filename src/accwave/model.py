"""Core ACC traffic model: control law, regime switching, eigenstructure.

The model couples a constant time-headway (CTH) spacing policy with linear
feedback on spacing and relative speed,

    a = k_s * (s - (tau*v + L)) + k_v * (v_lead - v),

active in the congested regime and switched off while cruising at the
free-flow speed.  The induced macroscopic system is strictly hyperbolic
in the congested regime with characteristic speeds

    lambda1 = v,            lambda2 = v - k_v / rho,

so information never travels faster than the vehicles themselves.

All functions here are pure and accept scalars or numpy arrays
elementwise (broadcasting follows numpy rules).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "ControlParams",
    "TrafficState",
    "EigenStructure",
    "engaged",
    "acc_acceleration",
    "eigenstructure",
    "momentum_residual",
    "ptm_equivalent_kv",
    "linear_degeneracy_indicator",
    "constant_gain",
    "density_gain",
]


def _require(value, name: str, *, positive: bool = False, nonnegative: bool = False,
             integer: bool = False, finite: bool = True, optional: bool = False) -> None:
    """The one check of a number that enters the library, or of each element
    of an array or a (nested) sequence: it refuses a non-number (a bool too,
    also among the numbers of a list or tuple, where numpy would read it as
    0 or 1, and a ragged sequence), NaN, +-inf unless not `finite`, values
    <= 0 if `positive` or < 0 if `nonnegative`, and a non-integer if
    `integer`; None passes if `optional`.  An ndarray is typed by its dtype alone.  The ValueError reads
    "<name> must be <rule>, got <value>", with an array's first refused value."""
    if optional and value is None:
        return
    scalar = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        v = value if scalar else np.asarray(value)
        mixed = isinstance(value, (list, tuple)) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat)
    except ValueError:  # a ragged sequence, which numpy refuses without naming it
        mixed = True
    if mixed or not (scalar and isinstance(value, numbers.Integral) if integer
                     else scalar or v.dtype.kind in "iuf"):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    ok = v > 0 if positive else v >= 0 if nonnegative else v == v   # each is False for NaN
    if finite:
        ok = ok & (abs(v) != math.inf)
    if not (ok if scalar else ok.all()):
        sign = "positive" if positive else "non-negative" if nonnegative else ""
        rule = " and ".join(w for w in (sign, "finite" if finite and not integer else "") if w)
        got = value if np.ndim(v) == 0 else v[~ok][0]
        raise ValueError(f"{name} must be {'None or ' if optional else ''}{rule}, got {got}")


@dataclass(frozen=True)
class ControlParams:
    """ACC law constants and regime thresholds.

    Attributes:
        tau: time headway [s].
        L: standstill distance [m].
        k_s: spacing gain [1/s^2].
        k_v: speed-difference gain [1/s].
        v_f: free-flow (cruise) speed [m/s].
        eps_v: cruise band half-width [m/s] of `engaged`, which the simulator,
            the acceleration record and the tracker all read from here.
    """

    tau: float = 1.2
    L: float = 5.0
    k_s: float = 0.8
    k_v: float = 1.4
    v_f: float = 15.0
    eps_v: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("tau", "L", "k_s", "k_v", "v_f"):    # the gains may be 0
            _require(getattr(self, name), name, positive=not name.startswith("k_"), nonnegative=True)
        # an infinite band is meaningful: the controller then engages on spacing alone
        _require(self.eps_v, "eps_v", nonnegative=True, finite=False)

    @property
    def s_c(self) -> float:
        """Critical spacing at which a cruiser engages: tau*v_f + L [m]."""
        return self.tau * self.v_f + self.L

    @property
    def rho_c(self) -> float:
        """Critical density 1/s_c [veh/m]."""
        return 1.0 / self.s_c

    @property
    def rho_j(self) -> float:
        """Jam density bound 1/L [veh/m] (spacing cannot fall below L)."""
        return 1.0 / self.L

    def desired_spacing(self, v: ArrayLike) -> ArrayLike:
        """CTH desired spacing s* = tau*v + L."""
        return self.tau * v + self.L

    def equilibrium_speed(self, s: ArrayLike) -> ArrayLike:
        """Speed on the equilibrium manifold for spacing s: (s - L)/tau."""
        return (s - self.L) / self.tau


@dataclass(frozen=True)
class TrafficState:
    """Macroscopic state (density, speed).

    Density is positive (non-vacuum).  Speed may be any finite value: the
    linear oscillation cases can dip below zero and the theory stays exact,
    so no v >= 0 check is applied.
    """

    rho: ArrayLike
    v: ArrayLike

    def __post_init__(self) -> None:
        _require(self.rho, "rho", positive=True)
        _require(self.v, "v")

    @property
    def s(self) -> ArrayLike:
        """Mean spacing 1/rho [m]."""
        return 1.0 / self.rho

    @property
    def q(self) -> ArrayLike:
        """Flow rho*v [veh/s]."""
        return self.rho * self.v


@dataclass(frozen=True)
class EigenStructure:
    """Eigenvalues/eigenvectors of the congested-regime flux Jacobian."""

    lambda1: ArrayLike
    lambda2: ArrayLike
    r1: Tuple[ArrayLike, ArrayLike]
    r2: Tuple[ArrayLike, ArrayLike]


def engaged(s: ArrayLike, v: ArrayLike, params: ControlParams) -> ArrayLike:
    """ACC switching rule, elementwise: is the controller engaged?

    The controller is engaged when the spacing is at or below the
    critical spacing s_c, or the speed is off the cruise band
    |v - v_f| <= eps_v (all three from `params`); it cruises (zero command)
    otherwise.  The boundary s = s_c counts as engaged, which keeps
    engagement times well defined.  This is the only place the rule is written.
    """
    return (s <= params.s_c) | (abs(v - params.v_f) > params.eps_v)


def acc_acceleration(
    s: ArrayLike,
    v: ArrayLike,
    v_lead: ArrayLike,
    params: ControlParams,
) -> ArrayLike:
    """Commanded acceleration of the ACC law, elementwise over vehicle pairs.

    Returns k_s*(s - s*) + k_v*(v_lead - v) with s* = tau*v + L where the
    follower is engaged (see `engaged`), and 0 in cruise mode.
    """
    refused = np.asarray(s)[np.asarray(s) <= 0]    # NaN passes: an unmerged cut-in
    if refused.size:
        raise ValueError(f"spacing must be positive, got {refused[0]}")
    raw = params.k_s * (s - params.desired_spacing(v)) + params.k_v * (v_lead - v)
    acc = np.where(engaged(s, v, params), raw, 0.0)
    return float(acc) if acc.ndim == 0 else acc


def eigenstructure(state: TrafficState, k_v_eff: ArrayLike) -> EigenStructure:
    """Characteristic structure for a state under an effective gain.

    lambda1 = v with r1 = (1, 0); lambda2 = v - k_v/rho with
    r2 = (1, -k_v/rho^2).  Strict hyperbolicity lambda1 > lambda2 holds
    whenever k_v > 0, and lambda2 <= lambda1 = v (anisotropy) always.
    """
    rho, v = state.rho, state.v
    lam2 = v - k_v_eff / rho
    one = np.ones_like(np.asarray(v, dtype=float))
    return EigenStructure(
        lambda1=v,
        lambda2=lam2,
        r1=(one, np.zeros_like(one)),
        r2=(one, -k_v_eff / rho**2),
    )


def momentum_residual(
    v_t: ArrayLike,
    v_x: ArrayLike,
    state: TrafficState,
    params: ControlParams,
) -> ArrayLike:
    """Residual of the congested-regime momentum equation.

    For exact solutions, v_t + (v - k_v*s)*v_x + (tau*v + L - s)*k_s = 0
    with s = 1/rho; the returned value measures how far given fields are
    from satisfying it.
    """
    s = 1.0 / state.rho
    return v_t + (state.v - params.k_v * s) * v_x + (-s + state.v * params.tau + params.L) * params.k_s


def ptm_equivalent_kv(rho: ArrayLike, v: ArrayLike, V: ArrayLike, Vp: ArrayLike) -> ArrayLike:
    """Speed-difference gain that makes lambda2 match a PTM-type model.

    Given an equilibrium speed value V = V(rho) and its density derivative
    Vp = V'(rho), returns k_v = -rho*[v + (rho*Vp/V)*v - V].  With this
    gain the second characteristic speed of the ACC model coincides with
    the corresponding pressure-based model eigenvalue.
    """
    if np.any(np.asarray(V) == 0):
        raise ValueError("equilibrium speed V must be nonzero")
    _require(rho, "density rho", positive=True)
    return -rho * (v + (rho * Vp / V) * v - V)


GainFn = Callable[[float, float], Tuple[float, float, float]]


def constant_gain(k_v: float) -> GainFn:
    """Gain function for a constant k_v (zero partials)."""

    def fn(rho: float, v: float) -> Tuple[float, float, float]:
        return (k_v, 0.0, 0.0)

    return fn


def density_gain(k_v_of_rho: Callable[[float], float], dk_v_drho: Callable[[float], float]) -> GainFn:
    """Gain function for a density-only k_v(rho) with given derivative."""

    def fn(rho: float, v: float) -> Tuple[float, float, float]:
        return (k_v_of_rho(rho), dk_v_drho(rho), 0.0)

    return fn


def linear_degeneracy_indicator(field: int, state: TrafficState, k_v_fn: GainFn) -> float:
    """Directional derivative grad(lambda_i) . r_i for field i in {1, 2}.

    Field 1 is linearly degenerate by construction (exactly 0, a contact
    field).  Field 2 returns -(1/rho)*dk_v/drho + (k_v/rho^3)*dk_v/dv,
    which vanishes for constant gains and equals -k_v'(rho)/rho for
    density-only gains.

    Args:
        field: 1 or 2.
        state: evaluation state.
        k_v_fn: callable (rho, v) -> (k_v, dk_v/drho, dk_v/dv).
    """
    if field == 1:
        return 0.0
    if field != 2:
        raise ValueError(f"field must be 1 or 2, got {field}")
    rho = float(np.asarray(state.rho))
    v = float(np.asarray(state.v))
    k_v, dk_drho, dk_dv = k_v_fn(rho, v)
    return -dk_drho / rho + (k_v / rho**3) * dk_dv
