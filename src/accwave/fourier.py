"""Fourier decomposition of leader speed profiles.

A uniformly sampled speed series is split into its mean (the
equilibrium speed) plus the K largest positive-frequency components,
expressed in the cosine convention

    v(t) = v_e + sum_m A_m w_m cos(w_m t + phi_m),

i.e. mode amplitudes are stored as position amplitudes A_m = C_m/w_m so
they plug directly into OscillationSpec.  Phases are referenced to the
first sample (t = 0).  The same decomposition drives the exactly
periodic reconstruction used to initialize ring scenarios from recorded
(non-periodic) data.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .microsim import OscillationSpec, leader_motion
from .model import _require

__all__ = ["fourier_decompose", "periodic_reconstruct"]

N_MODES = 10  # modes kept when K is not given


def fourier_decompose(speeds: np.ndarray, dt: float, K: int = N_MODES) -> OscillationSpec:
    """Extract equilibrium speed and the top-K oscillation modes.

    Selection is by descending spectral magnitude over the positive-
    frequency bins (Nyquist excluded: its phase is not observable), so
    the mode set is nested in K and reconstruction error is monotone
    non-increasing.  Requires len(speeds) >= 2K+1.
    """
    v = np.asarray(speeds, dtype=float)
    if v.ndim != 1:
        raise ValueError("speed series must be one-dimensional")
    _require(dt, "dt", positive=True)
    _require(K, "K", integer=True, nonnegative=True)
    n = v.size
    if n < 2 * K + 1:
        raise ValueError(f"series of length {n} supports at most K={(n - 1) // 2} modes")

    spec = np.fft.rfft(v)
    v_e = float(spec[0].real) / n
    n_bins = (n - 1) // 2  # positive frequencies, Nyquist excluded
    if K == 0 or n_bins == 0:
        return OscillationSpec(v_e=v_e, modes=())

    mags = np.abs(spec[1 : n_bins + 1])
    top = np.argsort(-mags, kind="stable")[:K] + 1
    modes = []
    for k in top:
        c_k = 2.0 * abs(spec[k]) / n
        if c_k == 0.0:
            continue
        omega = 2.0 * np.pi * k / (n * dt)
        phi = float(np.angle(spec[k]))
        modes.append((c_k / omega, float(omega), phi))
    return OscillationSpec(v_e=v_e, modes=tuple(modes))


def periodic_reconstruct(speeds: np.ndarray, dt: float, spec: OscillationSpec) -> Tuple[np.ndarray, float]:
    """Exactly periodic reconstruction of `speeds` from its decomposition
    `spec` (`fourier_decompose(speeds, dt, K)`), and its RMSE vs the input.

    The window length defines the period; a spec without modes (K=0)
    gives the constant mean (RMSE = population standard deviation).
    """
    v = np.asarray(speeds, dtype=float)
    _require(dt, "dt", positive=True)
    _, recon, _ = leader_motion(spec, np.arange(v.size) * dt)
    rmse = float(np.sqrt(np.mean((recon - v) ** 2)))
    return recon, rmse
