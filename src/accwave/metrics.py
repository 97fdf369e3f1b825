"""Vehicle-pair speed-deviation metric and field comparison.

Each traced path carries the speed sequence V_p = (origin speed,
crossing speeds...); the metric pools the signed successive differences
over all paths.  Summary statistics (Table-style rows) are computed on
absolute deviations; histograms keep the sign so the spread around zero
stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Sequence, Tuple

import numpy as np

from .model import _require
from .pde import EulerianField
from .tracker import WavePath

__all__ = [
    "DeviationStats",
    "Histogram",
    "deviation_set",
    "summary_stats",
    "histogram",
    "field_rmse",
]


@dataclass(frozen=True)
class DeviationStats:
    mean: float
    median: float
    q1: float
    q3: float
    max: float
    min: float

    def as_row(self) -> Tuple[float, float, float, float, float, float]:
        return (self.mean, self.median, self.q1, self.q3, self.max, self.min)


@dataclass(frozen=True)
class Histogram:
    """Density-normalized bins over signed deviations (integral 1); the
    spacing of `bin_centers` is the bin width."""

    bin_centers: np.ndarray
    density: np.ndarray


def deviation_set(paths: Sequence[WavePath]) -> np.ndarray:
    """Signed deviations v_{p,i+1} - v_{p,i} pooled over every path, order kept.

    Paths with fewer than two points (origin plus at least one crossing)
    contribute nothing; an empty pool is legal.
    """
    return np.array([b - a for p in paths
                     for a, b in pairwise([p.origin_v, *(c.v for c in p.crossings)])], dtype=float)


def summary_stats(devs: np.ndarray) -> DeviationStats:
    """Table-row statistics of |deviation|; quartiles by linear interpolation."""
    if len(devs) == 0:
        raise ValueError("cannot summarize an empty deviation set")
    _require(devs, "deviations")
    a = np.abs(devs)
    q1, med, q3 = np.percentile(a, [25.0, 50.0, 75.0])
    return DeviationStats(
        mean=float(np.mean(a)),
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        max=float(np.max(a)),
        min=float(np.min(a)),
    )


def histogram(devs: np.ndarray) -> Histogram:
    """Center-aligned density histogram of the signed deviations, in bins
    0.1 m/s wide.

    Bin centers sit on multiples of the width, which is their spacing (a
    lone zero value lands in a bin centered at 0 with density 1/width); the
    densities integrate to one over bins of that width.
    """
    if len(devs) == 0:
        raise ValueError("cannot bin an empty deviation set")
    width = 0.1
    lo = int(np.round(np.min(devs) / width))
    hi = int(np.round(np.max(devs) / width))
    edges = (np.arange(lo, hi + 2) - 0.5) * width
    density, _ = np.histogram(devs, bins=edges, density=True)
    centers = np.arange(lo, hi + 1) * width
    return Histogram(bin_centers=centers, density=density)


def field_rmse(a: EulerianField, b: EulerianField) -> Tuple[float, float]:
    """Space-time RMSEs (rmse_v, rmse_rho) between two fields on identical
    grids, sampled at the same times.

    Each mean runs over every (time, cell) sample of its component.
    """
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if a.rho.shape != b.rho.shape or not np.allclose(a.times, b.times, atol=1e-9):
        raise ValueError("fields sampled at different times")
    return (float(np.sqrt(np.mean((a.v - b.v) ** 2))),
            float(np.sqrt(np.mean((a.rho - b.rho) ** 2))))
