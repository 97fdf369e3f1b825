"""Tests for the speed-series Fourier decomposition and reconstruction."""

import math

import numpy as np
import pytest

from accwave.fourier import fourier_decompose, periodic_reconstruct


def _two_tone(n=400, dt=0.05):
    # bin frequencies of the n*dt window so the decomposition is exact
    T = n * dt
    w1 = 2.0 * math.pi * 4 / T
    w2 = 2.0 * math.pi * 9 / T
    t = np.arange(n) * dt
    v = 10.0 + 1.2 * np.cos(w1 * t + 0.3) + 0.5 * np.cos(w2 * t - 1.1)
    return t, v, dt, (w1, w2)


def test_equilibrium_speed_is_the_mean():
    _, v, dt, _ = _two_tone()
    spec = fourier_decompose(v, dt, K=0)
    assert spec.modes == ()
    assert spec.v_e == pytest.approx(np.mean(v), rel=1e-12)


def test_bin_frequencies_recovered_exactly():
    _, v, dt, (w1, w2) = _two_tone()
    spec = fourier_decompose(v, dt, K=2)
    assert spec.v_e == pytest.approx(10.0, abs=1e-12)
    # modes come out ordered by spectral magnitude: the 1.2 tone first
    (A1, om1, ph1), (A2, om2, ph2) = spec.modes
    assert om1 == pytest.approx(w1, rel=1e-12)
    assert A1 * om1 == pytest.approx(1.2, abs=1e-12)
    assert ph1 == pytest.approx(0.3, abs=1e-12)
    assert om2 == pytest.approx(w2, rel=1e-12)
    assert A2 * om2 == pytest.approx(0.5, abs=1e-12)
    assert ph2 == pytest.approx(-1.1, abs=1e-12)


def test_round_trip_exact_when_k_covers_the_signal():
    _, v, dt, _ = _two_tone()
    recon, rmse = periodic_reconstruct(v, dt, fourier_decompose(v, dt, K=2))
    assert rmse < 1e-9
    assert np.allclose(recon, v, atol=1e-9)


def test_rmse_monotone_non_increasing_in_k():
    rng = np.random.default_rng(7)
    v = 10.0 + rng.normal(0.0, 1.0, 257)
    dt = 0.1
    errs = [periodic_reconstruct(v, dt, fourier_decompose(v, dt, K=k))[1] for k in range(0, 30, 3)]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_k_zero_rmse_is_population_std():
    rng = np.random.default_rng(3)
    v = 5.0 + rng.normal(0.0, 0.7, 128)
    _, rmse = periodic_reconstruct(v, 0.1, fourier_decompose(v, 0.1, K=0))
    assert rmse == pytest.approx(float(np.std(v)), rel=1e-12)


def test_nyquist_bin_is_excluded():
    # even-length alternating series: all energy sits in the Nyquist bin,
    # whose phase is unobservable; the decomposition must not emit it
    v = 10.0 + np.array([1.0, -1.0] * 64)
    spec = fourier_decompose(v, 0.1, K=10)
    nyquist = math.pi / 0.1
    assert all(om < nyquist - 1e-9 for _, om, _ in spec.modes)
    # and those off-band modes carry (numerically) no energy
    assert all(A * om < 1e-12 for A, om, _ in spec.modes)


def test_validation():
    v = np.ones(10)
    with pytest.raises(ValueError):
        fourier_decompose(v, -0.1, K=1)
    with pytest.raises(ValueError):
        fourier_decompose(v, 0.1, K=-1)
    with pytest.raises(ValueError):
        fourier_decompose(v, 0.1, K=5)  # needs len >= 2K+1 = 11
    with pytest.raises(ValueError):
        fourier_decompose(np.ones((2, 5)), 0.1, K=1)


def test_constant_series_yields_no_modes():
    spec = fourier_decompose(np.full(64, 8.25), 0.1, K=5)
    assert spec.v_e == pytest.approx(8.25, rel=1e-14)
    assert spec.modes == ()
