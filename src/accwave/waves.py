"""Frequency-domain platoon analysis and closed-form oscillation waves.

A platoon under the linear ACC law acts, vehicle to vehicle, as an LTI
filter.  Taking the Laplace transform of the control law with the CTH
spacing policy gives the position-to-position transfer function

    G(s) = (k_s + k_v s) / (s^2 + (k_s*tau + k_v) s + k_s),

whose magnitude on the imaginary axis governs string stability.  From G
follow the steady-state motion of the n-th follower under leader
oscillations and the closed-form speed of the disturbance wave between
a vehicle pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .microsim import OscillationSpec, leader_motion
from .model import ControlParams, _require

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "TransferEval",
    "StabilityClass",
    "StabilityResult",
    "WaveSpeedClosedForm",
    "transfer_function",
    "string_stability_class",
    "follower_motion_closed_form",
    "wave_speed_closed_form",
    "wave_oscillation_period",
]


@dataclass(frozen=True)
class TransferEval:
    """Transfer-function evaluation at one or more frequencies."""

    omega: ArrayLike
    gain_mag: ArrayLike
    phase: ArrayLike


def _gain(omega: ArrayLike, params: ControlParams) -> Union[complex, np.ndarray]:
    jw = 1j * np.asarray(omega, dtype=float)
    num = params.k_s + params.k_v * jw
    den = jw**2 + (params.k_s * params.tau + params.k_v) * jw + params.k_s
    return num / den


def transfer_function(omega: ArrayLike, params: ControlParams) -> TransferEval:
    """Evaluate G(j*omega) for the vehicle-to-vehicle position filter.

    Accepts a scalar or array of angular frequencies [rad/s]; omega = 0
    returns the DC limit (unity gain, zero phase), which also covers the
    k_s = 0 case where the literal expression is 0/0 at the origin.
    """
    omega_arr = np.asarray(omega, dtype=float)
    scalar = omega_arr.ndim == 0
    omega_arr = np.atleast_1d(omega_arr)
    g = np.empty(omega_arr.shape, dtype=complex)
    zero = omega_arr == 0.0
    g[zero] = 1.0 + 0.0j
    g[~zero] = _gain(omega_arr[~zero], params)
    mag = np.abs(g)
    ph = np.angle(g)
    if scalar:
        return TransferEval(float(omega_arr[0]), float(mag[0]), float(ph[0]))
    return TransferEval(omega_arr, mag, ph)


class StabilityClass(Enum):
    STABLE = "Stable"
    MARGINAL = "Marginal"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class StabilityResult:
    classification: StabilityClass
    sup_gain: float
    argmax_omega: float


def string_stability_class(params: ControlParams) -> StabilityResult:
    """Classify string stability from the exact sup of |G| on [1e-2, 100] rad/s.

    |G| falls from 1 at DC when D = k_s (k_s tau^2 + 2 k_v tau - 2) >= 0, and else
    rises to one peak at w^2 = -k_s^2 D / (k_s^2 + sqrt(k_s^4 - k_v^2 k_s^2 D)): the
    sup is the first largest |G| at the window's ends and that peak clipped into it.
    Stable means sup < 1 - 1e-6 (the window leaves out DC, where every |G| is 1);
    Marginal |sup - 1| <= 1e-6; Unstable otherwise.
    """
    k_s, k_v, tol = params.k_s, params.k_v, 1e-6
    D = k_s * (k_s * params.tau**2 + 2.0 * k_v * params.tau - 2.0)
    u = -k_s**2 * D / (k_s**2 + math.sqrt(k_s**4 - (k_v * k_s) ** 2 * D)) if D < 0 else 0.0
    omegas = np.array([1e-2, min(max(math.sqrt(u), 1e-2), 100.0), 100.0])
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


def follower_motion_closed_form(
    n: int,
    spec: OscillationSpec,
    params: ControlParams,
    t: ArrayLike,
) -> Tuple[ArrayLike, ArrayLike]:
    """Steady-state position and speed of follower n under leader modes.

    Each mode passes through the filter n times, so its amplitude scales
    by |G|^n and its phase advances by n*angle(G): follower n moves as
    `leader_motion` of the filtered modes, n spacings x_e = tau*v_e + L
    behind,

        x_n = v_e t + sum_m A_m |G_m|^n sin(w_m t + phi_m + n psi_m) - n*x_e
        v_n = v_e + sum_m A_m |G_m|^n w_m cos(...)

    n = 0 is `leader_motion` itself, bit for bit.  Like it, t must be
    non-negative.
    """
    _require(n, "vehicle index n", integer=True, nonnegative=True)
    filtered = []
    for A, om, phi in spec.modes:
        te = transfer_function(om, params)
        filtered.append((A * te.gain_mag**n, om, phi + n * te.phase))
    x, v, _ = leader_motion(OscillationSpec(spec.v_e, tuple(filtered)), t)
    x = x - n * params.desired_spacing(spec.v_e)
    if np.ndim(t) == 0:
        return float(x), float(v)
    return x, v


@dataclass(frozen=True)
class WaveSpeedClosedForm:
    """Closed-form oscillatory wave speed for the pair (n-1 -> n).

    W(t) = nominal + sum_m R_m cos(Theta_m(t) + phi_m) with
    Theta_m(t) = omega_m t + leader-phase + (n-1)*angle(G_m).  The
    amplitude/phase of each mode come from the exact harmonic
    combination of the leader-speed (cosine) and spacing (sine)
    contributions; see `wave_speed_closed_form`.
    """

    nominal: float
    modes: Tuple[Tuple[float, float, float, float], ...]  # (R, phi, omega, theta0)

    def evaluate(self, t: ArrayLike) -> ArrayLike:
        """W at times t >= 0: the speed of `leader_motion` with position
        amplitudes R/omega."""
        modes = tuple((R / om, om, theta0 + phi) for R, phi, om, theta0 in self.modes)
        _, w, _ = leader_motion(OscillationSpec(self.nominal, modes), t)
        return float(w) if np.ndim(t) == 0 else w


def wave_speed_closed_form(
    n: int,
    spec: OscillationSpec,
    params: ControlParams,
) -> WaveSpeedClosedForm:
    """Closed form of W(t) = v_{n-1}(t) - k_v*(x_{n-1}(t) - x_n(t)).

    Substituting the steady-state follower motion and collecting each
    mode's cos/sin terms at the base angle Theta_m = w t + phi + (n-1)psi:

        cos coefficient  c = A g^{n-1} (w + k_v g sin(psi))
        sin coefficient  s = A g^{n-1} k_v (g cos(psi) - 1)

    gives R = hypot(c, s) and phase atan2(-s, c), exactly.  The nominal
    part is v_e - k_v*(tau*v_e + L).  For string-stable gains R shrinks
    geometrically with n and W approaches the nominal speed.
    """
    _require(n, "pair index n (the wave from vehicle n-1 to n)", integer=True, positive=True)
    x_e = params.desired_spacing(spec.v_e)
    nominal = spec.v_e - params.k_v * x_e
    modes: List[Tuple[float, float, float, float]] = []
    for A, om, phi in spec.modes:
        te = transfer_function(om, params)
        g, psi = te.gain_mag, te.phase
        gn1 = g ** (n - 1)
        c = A * gn1 * (om + params.k_v * g * math.sin(psi))
        s = A * gn1 * params.k_v * (g * math.cos(psi) - 1.0)
        R = math.hypot(c, s)
        phi_w = math.atan2(-s, c)
        theta0 = phi + (n - 1) * psi
        modes.append((R, phi_w, om, theta0))
    return WaveSpeedClosedForm(nominal=nominal, modes=tuple(modes))


def wave_oscillation_period(omegas: Sequence[float]) -> Optional[float]:
    """Common period of a set of oscillation modes, if one exists.

    Returns lcm-based period when all frequency ratios w_m/w_1 are
    rational within a relative 1e-9 (continued-fraction convergent with
    denominator <= 10^4); returns None for quasi-periodic
    (incommensurate) mode sets.  The denominator cap is the effective
    horizon: ratios like sqrt(2) admit astronomically good rational
    approximations, so an unbounded cap would call everything periodic.
    """
    from fractions import Fraction  # only this helper needs it, and it loads decimal

    if len(omegas) == 0:
        raise ValueError("need at least one frequency")
    _require(omegas, "frequencies", positive=True)
    base = omegas[0]
    qs: List[int] = []
    for w in omegas:
        ratio = w / base
        frac = Fraction(ratio).limit_denominator(10_000)
        approx = frac.numerator / frac.denominator
        if not math.isclose(approx, ratio, rel_tol=1e-9, abs_tol=0.0):
            return None
        qs.append(frac.denominator)
    k = 1
    for q in qs:
        k = k * q // math.gcd(k, q)
    return k * 2.0 * math.pi / base
