"""CSV import/export, parameter draws, and scenario configuration.

All exports default to 6 significant digits (full precision on
request).  Trajectory files use the flat schema `t,vehicle_id,x,v,a`
sorted by (t, vehicle_id); wave-path files carry one row per crossing
with the path origin marked by vehicle_id = -1.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import warnings
from dataclasses import dataclass, asdict, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .metrics import DeviationStats, Histogram
from .microsim import DT_JITTER, Trajectory
from .model import ControlParams
from .pde import EulerianField
from .tracker import WavePath
from .waves import transfer_function

__all__ = [
    "ParamSample",
    "ScenarioConfig",
    "fmt",
    "write_trajectories",
    "ingest_trajectories",
    "write_wave_paths",
    "write_stats",
    "write_histogram",
    "write_field",
    "write_bode",
    "load_draws",
    "sample_params",
    "load_config",
    "save_config",
]


@dataclass(frozen=True)
class ParamSample:
    """One calibrated controller draw."""

    tau: float
    L: float
    k_s: float
    k_v: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(f) and f > 0 for f in (self.tau, self.L, self.k_s, self.k_v)):
            raise ValueError(f"draw fields must be positive and finite, got {self}")


# printf spec of an exported real: 6 significant digits, or repr()
_REAL_SPEC = {False: "%.6g", True: "%r"}


def fmt(x: float, full_precision: bool = False) -> str:
    return _REAL_SPEC[full_precision] % float(x)


def _write_blocks(
    path: str, header: str, specs: Sequence[str], blocks: Iterable[np.ndarray]
) -> None:
    """CSV file of `header`, then each row of every 2-D block with column j
    formatted by printf spec `specs[j]`, with csv's line ending.

    One block is formatted and written at a time, so the text held in
    memory is one block's, not the file's.
    """
    row = ",".join(specs) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for block in blocks:
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

# rows of a trajectory export formatted and written at a time
_BLOCK_ROWS = 4096


def write_trajectories(
    path: str, trajectories: Sequence[Trajectory], full_precision: bool = False
) -> None:
    """Flat trajectory export sorted by (t, vehicle_id)."""
    cols = np.hstack([np.empty((5, 0))] + [
        np.vstack((tr.t, np.full(len(tr.t), tr.vehicle_id), tr.x, tr.v, tr.a))
        for tr in trajectories])                       # rows t, vehicle_id, x, v, a
    order = np.lexsort((cols[1], cols[0]))
    blocks = (cols[:, order[i:i + _BLOCK_ROWS]].T for i in range(0, order.size, _BLOCK_ROWS))
    real = _REAL_SPEC[full_precision]
    _write_blocks(path, "t,vehicle_id,x,v,a", (real, "%d", real, real, real), blocks)


# fields of a trajectory CSV row; the last, `a`, is optional
_ROW_DTYPE = [("t", "f8"), ("vehicle_id", "i8"), ("x", "f8"), ("v", "f8"), ("a", "f8")]
# file name endings np.loadtxt takes for compressed input
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _trajectory_header(path: str, reader) -> bool:
    """Check the header row of a trajectory CSV; True when it has the `a` column."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    cols = [c.strip() for c in header]
    if cols[:4] != ["t", "vehicle_id", "x", "v"] or (len(cols) > 4 and cols[4] != "a"):
        raise ValueError(f"{path}: expected header t,vehicle_id,x,v[,a], got {header}")
    return len(cols) > 4


def _sampling(t: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray]:
    """Steps of sample times t, their median dt and the indices of the
    steps off dt by more than DT_JITTER."""
    steps = np.diff(t)
    dt = float(np.median(steps))
    return steps, dt, np.flatnonzero(np.abs(steps - dt) > DT_JITTER)


def ingest_trajectories(path: str) -> List[Trajectory]:
    """Read a trajectory CSV into per-vehicle Trajectory objects.

    Rows may appear in any order.  Each vehicle must be uniformly
    sampled (time jitter above `DT_JITTER` or a skipped sample raises,
    naming the offending data row).  A missing `a` column is
    reconstructed by central differences of v.

    The data rows are parsed in one pass (`np.loadtxt`) and grouped by
    one stable sort on (vehicle_id, t).  A file that pass does not take
    as it stands (a parse error, quoted fields, a row of another length,
    a failed check) is read again by the row parser `_ingest_rows`, so
    the result, and the message naming the file and data row of a
    refused file, are the row parser's.
    """
    out = _ingest_block(path)
    return _ingest_rows(path) if out is None else out


def _ingest_block(path: str) -> Optional[List[Trajectory]]:
    """`ingest_trajectories` by one loadtxt parse and one lexsort; None
    where the row parser must decide (anything refused or not parsed as
    it would parse it)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        has_a = _trajectory_header(path, reader)
    # loadtxt is given the path, not the open file: it reads a path in
    # blocks and a file line by line, at half the speed.  But it opens a
    # path with a compression suffix as compressed, which this file is not.
    if path.endswith(_COMPRESSED_SUFFIXES):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # e.g. loadtxt's "input contained no data"
            rows = np.loadtxt(path, dtype=_ROW_DTYPE[:4 + has_a], delimiter=",", comments=None,
                              skiprows=reader.line_num, ndmin=1)
    except (ValueError, Warning):
        return None
    order = np.lexsort((rows["t"], rows["vehicle_id"]))
    vid = rows["vehicle_id"][order]
    cols = np.array([rows[n][order] for n in rows.dtype.names if n != "vehicle_id"])  # t, x, v[, a]
    if not np.isfinite(cols).all():
        return None
    bounds = np.r_[0, np.flatnonzero(vid[1:] != vid[:-1]) + 1, vid.size]
    out: List[Trajectory] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            return None
        t, x, v = cols[:3, lo:hi]
        _, dt, off = _sampling(t)
        if off.size:
            return None
        a = cols[3, lo:hi] if has_a else np.gradient(v, dt)
        out.append(Trajectory(vehicle_id=int(vid[lo]), t=t, x=x, v=v, a=a, dt=dt))
    return out


def _ingest_rows(path: str) -> List[Trajectory]:
    """`ingest_trajectories` by a csv.reader loop, one row at a time.

    Refuses a malformed row, a non-finite value, a vehicle with fewer
    than two samples or one not uniformly sampled, naming the file and
    the data row.
    """
    by_vehicle: Dict[int, List[Tuple[float, float, float, Optional[float], int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        has_a = _trajectory_header(path, reader)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t = float(row[0])
                vid = int(row[1])
                x = float(row[2])
                v = float(row[3])
                a = float(row[4]) if has_a else None
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed row {row_no}: {row}") from exc
            by_vehicle.setdefault(vid, []).append((t, x, v, a, row_no))

    out: List[Trajectory] = []
    n_cols = 4 if has_a else 3
    for vid in sorted(by_vehicle):
        recs = sorted(by_vehicle[vid], key=lambda r: r[0])
        if len(recs) < 2:
            raise ValueError(f"{path}: vehicle {vid} has fewer than two samples")
        cols = np.array([[r[i] for r in recs] for i in range(n_cols)])   # rows t, x, v[, a]
        bad = np.nonzero(~np.isfinite(cols).all(axis=0))[0]
        if bad.size:
            raise ValueError(f"{path}: non-finite value in data row {recs[int(bad[0])][4]}")
        t, x, v = cols[:3]
        steps, dt, bad = _sampling(t)
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"{path}: vehicle {vid} not uniformly sampled near data row "
                f"{recs[k + 1][4]} (step {steps[k]:.6g} vs dt {dt:.6g})"
            )
        a = cols[3] if has_a else np.gradient(v, dt)
        out.append(Trajectory(vehicle_id=vid, t=t, x=x, v=v, a=a, dt=dt))
    return out


# ---------------------------------------------------------------------------
# Wave paths, stats, histograms, fields, frequency response
# ---------------------------------------------------------------------------

def write_wave_paths(
    path: str, paths: Sequence[WavePath], full_precision: bool = False
) -> None:
    """One row per crossing; the origin point is the row with vehicle_id -1."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path_id", "kind", "vehicle_id", "t_cross", "x_cross", "v_at_cross"])
        for pid, wp in enumerate(paths):
            w.writerow([pid, wp.kind.value, -1, fmt(wp.origin_t, full_precision),
                        fmt(wp.origin_x, full_precision), fmt(wp.origin_v, full_precision)])
            for c in wp.crossings:
                w.writerow([pid, wp.kind.value, c.vehicle_id, fmt(c.t, full_precision),
                            fmt(c.x, full_precision), fmt(c.v, full_precision)])


def write_stats(
    path: str,
    rows: Sequence[Tuple[str, str, DeviationStats]],
    full_precision: bool = False,
) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "method", "mean", "median", "q1", "q3", "max", "min"])
        for case, method, st in rows:
            w.writerow([case, method] + [fmt(v, full_precision) for v in st.as_row()])


def write_histogram(path: str, hist: Histogram, full_precision: bool = False) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_center", "density"])
        for c, d in zip(hist.bin_centers, hist.density):
            w.writerow([fmt(float(c), full_precision), fmt(float(d), full_precision)])


def write_field(path: str, fld: EulerianField, full_precision: bool = False) -> None:
    """Heatmap-ready field export: one row per (time, cell center)."""
    centers = fld.grid.centers
    blocks = (np.column_stack((np.full(centers.size, t), centers, rho, v))
              for t, rho, v in zip(fld.times, fld.rho, fld.v))
    _write_blocks(path, "t,x,rho,v", [_REAL_SPEC[full_precision]] * 4, blocks)


def write_bode(
    path: str,
    params: ControlParams,
    omegas: Sequence[float],
    full_precision: bool = False,
) -> None:
    """Frequency response export: omega, gain magnitude, phase."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["omega", "gain_mag", "phase"])
        for om in omegas:
            te = transfer_function(float(om), params)
            w.writerow([fmt(float(om), full_precision), fmt(te.gain_mag, full_precision),
                        fmt(te.phase, full_precision)])


# ---------------------------------------------------------------------------
# Calibrated parameter draws
# ---------------------------------------------------------------------------

def load_draws(path: str) -> List[ParamSample]:
    """Read a draws file (header tau,L,k_s,k_v, one row per sample)."""
    out: List[ParamSample] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty draws file")
        if [c.strip() for c in header] != ["tau", "L", "k_s", "k_v"]:
            raise ValueError(f"{path}: expected header tau,L,k_s,k_v, got {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                out.append(ParamSample(float(row[0]), float(row[1]), float(row[2]), float(row[3])))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed draw at row {row_no}: {row}") from exc
    if not out:
        raise ValueError(f"{path}: no draws found")
    return out


def sample_params(draws: Sequence[ParamSample], count: int, seed: int) -> List[ParamSample]:
    """Seeded uniform resampling with replacement from the provided draws."""
    if not draws:
        raise ValueError("cannot sample from an empty draw set")
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(draws), size=count)
    return [draws[int(i)] for i in idx]


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a CLI run needs; YAML-serializable and strict on keys."""

    case: int = 1
    # dt and origin_spacing left unset (None) take the CLI subcommand's
    # default (see configs/example.yaml)
    dt: Optional[float] = None
    duration: float = 60.0
    origin_spacing: Optional[float] = None
    baseline_speed: Optional[float] = None
    # controller (used by simulate/wave/metrics when not running a case)
    tau: float = 1.2
    L: float = 5.0
    k_s: float = 0.8
    k_v: float = 1.4
    v_f: float = 15.0
    v_e: float = 10.0
    modes: Tuple[Tuple[float, float, float], ...] = ()
    n_followers: int = 4
    # PDE / ring validation
    n_cells: int = 200
    cfl: float = 0.5
    sample_every: float = 0.5
    ring_vehicles: int = 40
    # signal tools
    fft_modes: int = 10
    # empirical sweep
    draws_file: Optional[str] = None
    leader_file: Optional[str] = None
    n_draws: int = 200
    seed: int = 0
    # output
    out_dir: Optional[str] = None
    full_precision: bool = False

    def params(self) -> ControlParams:
        return ControlParams(tau=self.tau, L=self.L, k_s=self.k_s, k_v=self.k_v, v_f=self.v_f)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["modes"] = [list(m) for m in self.modes]
        return d


def _coerce_modes(raw) -> Tuple[Tuple[float, float, float], ...]:
    modes = []
    for m in raw:
        if len(m) != 3:
            raise ValueError(f"each mode needs [amplitude, omega, phase], got {m}")
        modes.append((float(m[0]), float(m[1]), float(m[2])))
    return tuple(modes)


def config_from_dict(data: dict) -> ScenarioConfig:
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    # numeric fields are checked by their annotation, naming the key
    for f in fields(ScenarioConfig):
        val = data.get(f.name)
        if f.name not in data or (val is None and f.type == "Optional[float]"):
            continue
        if f.type == "int" and (isinstance(val, bool) or not isinstance(val, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {val!r}")
        if f.type in ("float", "Optional[float]"):
            if isinstance(val, bool) or not isinstance(val, numbers.Real):
                raise ValueError(f"{f.name} must be a number, got {val!r}")
            if not math.isfinite(val):
                raise ValueError(f"{f.name} must be finite, got {val!r}")
    if "modes" in data and data["modes"] is not None:
        data = dict(data)
        data["modes"] = _coerce_modes(data["modes"])
    return ScenarioConfig(**data)


def load_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a mapping")
    try:
        return config_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True)


def default_out_dir() -> str:
    return os.environ.get("ACCWAVE_OUT_DIR", "out")
