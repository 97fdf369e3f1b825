"""Tests for the speed-deviation metric, its summaries, and field RMSE."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from accwave.dataio import ingest_trajectories, load_draws, sample_params
from accwave.metrics import deviation_set, field_rmse, histogram, summary_stats
from accwave.pde import EulerianField, Grid
from accwave.scenarios import run_case, run_empirical
from accwave.tracker import Crossing, PathKind, WavePath

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _path(origin_v, crossing_speeds, kind=PathKind.CHARACTERISTIC):
    crossings = tuple(
        Crossing(i + 1, float(i + 1), -10.0 * (i + 1), float(v))
        for i, v in enumerate(crossing_speeds)
    )
    return WavePath(kind, 0.0, 0.0, origin_v, crossings)


def _devset(values):
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def test_deviation_set_pools_successive_differences():
    # speeds 10 -> 9.2 -> 9.5 give signed deviations (-0.8, 0.3)
    devs = deviation_set([_path(10.0, (9.2, 9.5))])
    assert np.allclose(devs, [-0.8, 0.3])


def test_deviation_set_pools_paths_in_order():
    devs = deviation_set([_path(10.0, (9.0,)), _path(8.0, (8.5, 8.25))])
    assert len(devs) == 3
    assert np.allclose(devs, [-1.0, 0.5, -0.25])


def test_deviation_set_is_each_paths_speed_differences_bit_for_bit():
    # the pooled values are the subtractions b - a of consecutive path
    # speeds, as a Python loop over each path computes them
    rng = np.random.default_rng(11)
    paths = [_path(float(rng.uniform(5, 15)), rng.uniform(5, 15, n).tolist()) for n in (0, 1, 4, 9)]
    want = [b - a for p in paths for a, b in zip(p.speeds.tolist(), p.speeds.tolist()[1:])]
    got = deviation_set(paths)
    assert got.dtype == np.float64 and got.tolist() == want


def test_deviation_set_of_no_paths_is_an_empty_float_array():
    devs = deviation_set([])
    assert devs.dtype == np.float64 and devs.shape == (0,)


def test_paths_without_crossings_contribute_nothing():
    devs = deviation_set([_path(10.0, ()), _path(10.0, (9.5,))])
    assert len(devs) == 1


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------


def test_summary_stats_hand_oracle():
    # |deviations| = {0.8, 0.3}: mean 0.55, median 0.55, max 0.8, min 0.3
    stats = summary_stats(_devset([-0.8, 0.3]))
    assert stats.mean == pytest.approx(0.55, rel=1e-12)
    assert stats.median == pytest.approx(0.55, rel=1e-12)
    assert stats.max == pytest.approx(0.8, rel=1e-12)
    assert stats.min == pytest.approx(0.3, rel=1e-12)


def test_quartiles_linear_interpolation():
    # |values| = 1..5: q1 at rank 0.25*(5-1)=1 -> 2.0, q3 at rank 3 -> 4.0;
    # dropping the 5 leaves ranks 0.75 and 2.25 -> 1.75 and 3.25
    stats = summary_stats(_devset([1.0, -2.0, 3.0, -4.0, 5.0]))
    assert stats.q1 == pytest.approx(2.0, rel=1e-12)
    assert stats.q3 == pytest.approx(4.0, rel=1e-12)
    stats4 = summary_stats(_devset([1.0, -2.0, 3.0, -4.0]))
    assert stats4.q1 == pytest.approx(1.75, rel=1e-12)
    assert stats4.q3 == pytest.approx(3.25, rel=1e-12)


def test_as_row_ordering():
    row = summary_stats(_devset([-0.8, 0.3])).as_row()
    assert row == (0.55, 0.55, pytest.approx(0.425), pytest.approx(0.675), 0.8, 0.3)


def test_empty_set_raises():
    with pytest.raises(ValueError):
        summary_stats(_devset([]))
    with pytest.raises(ValueError):
        histogram(_devset([]))


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_center_aligned_bins():
    h = histogram(_devset([0.0, 0.02, 0.27, -0.31]))
    # centers run over multiples of the width spanning the data
    assert h.bin_centers[0] == pytest.approx(-0.3)
    assert h.bin_centers[-1] == pytest.approx(0.3)
    assert np.allclose(np.diff(h.bin_centers), 0.1)


def test_histogram_density_integrates_to_one():
    rng = np.random.default_rng(11)
    h = histogram(_devset(rng.normal(0.0, 0.5, 500)))
    assert float(np.sum(h.density) * 0.1) == pytest.approx(1.0, rel=1e-12)


def test_histogram_single_zero_value():
    h = histogram(_devset([0.0]))
    assert h.bin_centers == pytest.approx([0.0])
    assert h.density == pytest.approx([10.0])  # 1/width


def test_histogram_validation():
    with pytest.raises(ValueError, match="^cannot bin an empty deviation set$"):
        histogram(_devset([]))


# ---------------------------------------------------------------------------
# field RMSE
# ---------------------------------------------------------------------------


def _field(v_offset=0.0, rho_offset=0.0):
    g = Grid(L_x=100.0, n_x=10)
    times = np.array([0.0, 1.0])
    rho = np.full((2, 10), 0.05) + rho_offset
    v = np.full((2, 10), 10.0) + v_offset
    return EulerianField(g, times, rho, v)


def test_field_rmse_hand_value():
    a = _field()
    b = _field(v_offset=0.25, rho_offset=0.001)
    assert field_rmse(a, b) == pytest.approx((0.25, 0.001), rel=1e-12)
    assert field_rmse(a, a) == (0.0, 0.0)


def test_field_rmse_validation():
    a = _field()
    g2 = Grid(L_x=200.0, n_x=10)
    b = EulerianField(g2, np.array([0.0, 1.0]), np.full((2, 10), 0.05), np.full((2, 10), 10.0))
    with pytest.raises(ValueError, match="^fields live on different grids$"):
        field_rmse(a, b)
    later = dataclasses.replace(a, times=np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="^fields sampled at different times$"):
        field_rmse(a, later)


# ---------------------------------------------------------------------------
# dependence on the time step
# ---------------------------------------------------------------------------

# Halving dt moves each of the 12 printed statistics (mean, median, q1, q3,
# max and min of both methods) by at most, as measured:
#
#   run                      dt halved      largest change (statistic)   means' change   mean gap
#   case 1                   0.01 -> 0.005  1.3e-5 (baseline q3)         7.8e-7/7.3e-7   0.478
#   case 2                   0.01 -> 0.005  5.0e-6 (proposed median)     6.0e-7/4.7e-7   0.385
#   case 3                   0.01 -> 0.005  1.2e-4 (proposed max)        9.4e-8/6.8e-6   1.072
#   sweep (40 draws, seed 0) 0.05 -> 0.025  4.8e-5 (proposed max)        2.7e-6/3.9e-6   0.032
#
# Case 4 stays out: its phase-transition paths move with dt.
DT_BOUND = 5e-4


def _run(name, dt):
    """`case <n>`, or the `bench/sweep.yaml` sweep, at time step dt."""
    if name != "sweep":
        return run_case(int(name[-1]), dt=dt)
    draws = sample_params(load_draws(str(DATA_DIR / "calibrated_draws.csv")), 40, seed=0)
    leader = ingest_trajectories(str(DATA_DIR / "leader_dip.csv"))[0]
    return run_empirical(leader, draws, dt=dt, origin_spacing=2.0)


@pytest.mark.parametrize("name, dt", [("case1", 0.01), ("case2", 0.01), ("case3", 0.01), ("sweep", 0.05)])
def test_the_printed_statistics_do_not_depend_on_the_time_step(name, dt):
    coarse, fine = _run(name, dt), _run(name, dt / 2)
    for r in (coarse, fine):       # the ordering the statistics show is 50 bounds clear
        assert r.baseline_stats.mean - r.proposed_stats.mean > 50 * DT_BOUND
    for method in ("proposed_stats", "baseline_stats"):
        a, b = getattr(coarse, method).as_row(), getattr(fine, method).as_row()
        assert np.max(np.abs(np.subtract(a, b))) < DT_BOUND, method
