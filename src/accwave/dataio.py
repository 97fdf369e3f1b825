"""CSV import/export, parameter draws, and scenario configuration.

Every export is written by `_write_blocks`: a header row, then printf rows
ending in CRLF, reals at 6 significant digits (full precision on request).
Trajectory files use the flat schema `t,vehicle_id,x,v,a` sorted by
(t, vehicle_id).  They are written one window of sample times at a time,
so the memory an export takes beyond its trajectories is set by the
window, not by the length of the run, and read back, in any row order,
by one np.loadtxt parse.  Wave-path files carry one row per crossing
with the path origin marked by vehicle_id = -1.
"""

from __future__ import annotations

import contextlib
import csv
import os
import warnings
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import DeviationStats, Histogram
from .microsim import DT_JITTER, Trajectory
from .model import ControlParams, _require
from .pde import EulerianField
from .tracker import WavePath

__all__ = [
    "ParamSample",
    "ScenarioConfig",
    "write_trajectories",
    "ingest_trajectories",
    "write_wave_paths",
    "write_stats",
    "write_histogram",
    "write_field",
    "write_bode",
    "write_modes",
    "load_draws",
    "sample_params",
    "load_config",
]


@dataclass(frozen=True)
class ParamSample:
    """One calibrated controller draw."""

    tau: float
    L: float
    k_s: float
    k_v: float

    def __post_init__(self) -> None:
        for name in ("tau", "L", "k_s", "k_v"):
            _require(getattr(self, name), name, positive=True)


# printf spec of an exported real: 6 significant digits, or repr().  A real
# must reach it as a Python float: %r prints an np.float64 as "np.float64(...)".
_REAL_SPEC = {False: "%.6g", True: "%r"}


def _row(*specs: str) -> str:
    """printf template of one CSV row: `specs` joined by commas, CRLF-ended."""
    return ",".join(specs) + "\r\n"


def _write_blocks(path: str, header: str, blocks: Iterable[Tuple[str, list]]) -> None:
    """CSV file of the `header` row, then each block's printf template (whole
    rows, see `_row`) filled with its flat list of values.  Every output file
    is written here, one block at a time, so the text held in memory is one
    block's, not the file's."""
    with open(path, "w", newline="") as fh:
        fh.write(_row(header))
        for template, values in blocks:
            fh.write(template % tuple(values))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

# sample times of the longest trajectory in one window of a trajectory export
_WINDOW_TIMES = 256


def write_trajectories(
    path: str, trajectories: Sequence[Trajectory], full_precision: bool = False
) -> None:
    """Flat trajectory export sorted by (t, vehicle_id).

    Rows are formatted and written one window of sample times at a time, so
    the memory taken beyond the trajectories is set by the window, not by
    the length of the run.  The window edges are every `_WINDOW_TIMES`-th
    time of the trajectory with the most samples; a window holds each
    trajectory's samples from one edge up to the next, stacked in the order
    given and stably sorted on (t, vehicle_id).  The windows split the time
    axis, so the rows come out in the stable order of the whole table.
    """
    real = _REAL_SPEC[full_precision]
    row = _row(real, "%d", real, real, real)
    longest = max((tr.t for tr in trajectories), key=len, default=np.empty(0))
    edges = np.r_[-np.inf, longest[_WINDOW_TIMES::_WINDOW_TIMES], np.inf]
    # starts[k][i]: the first sample of trajectory i at or after edge k
    starts = list(zip(*(tr.t.searchsorted(edges).tolist() for tr in trajectories)))
    # ids stay int64: as floats, distinct ids above 2**53 would collapse
    ids = np.array([tr.vehicle_id for tr in trajectories], dtype=np.int64)

    def blocks():
        for los, his in zip(starts, starts[1:]):
            spans = list(zip(trajectories, los, his))
            counts = [hi - lo for hi, lo in zip(his, los)]
            cols = np.empty((5, sum(counts)))                  # rows t, (id slot), x, v, a
            for c, name in ((0, "t"), (2, "x"), (3, "v"), (4, "a")):
                np.concatenate([getattr(tr, name)[lo:hi] for tr, lo, hi in spans], out=cols[c])
            vid = np.repeat(ids, counts)
            order = np.lexsort((vid, cols[0]))
            values = cols[:, order].T.ravel().tolist()
            values[1::5] = vid[order].tolist()
            yield row * order.size, values

    _write_blocks(path, "t,vehicle_id,x,v,a", blocks())


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

    Rows may appear in any order; blank lines are skipped and fields may
    be quoted.  Each vehicle must be uniformly sampled (time jitter above
    `DT_JITTER` or a skipped sample raises, naming the offending data
    row).  A missing `a` column is reconstructed by central differences
    of v.

    The data rows are parsed by one `np.loadtxt` call and grouped by one
    stable sort on (vehicle_id, t).  A refused file raises ValueError
    naming the file and the data row (its csv record number; the header
    is row 1), or the vehicle where no one row is at fault.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        has_a = _trajectory_header(path, reader)
        skip = reader.line_num
    try:
        rows = _load_rows(path, has_a, skip)
    except (ValueError, Warning) as exc:
        if "input contained no data" in str(exc):    # a header-only file
            return []
        raise ValueError(_refused_row(path, has_a, skip)) from exc
    order = np.lexsort((rows["t"], rows["vehicle_id"]))
    vid = rows["vehicle_id"][order]
    cols = np.array([rows[n][order] for n in rows.dtype.names if n != "vehicle_id"])  # t, x, v[, a]
    bounds = np.r_[0, np.flatnonzero(vid[1:] != vid[:-1]) + 1, vid.size]
    out: List[Trajectory] = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        vehicle = int(vid[lo])
        if hi - lo < 2:
            raise ValueError(f"{path}: vehicle {vehicle} has fewer than two samples")
        bad = np.flatnonzero(~np.isfinite(cols[:, lo:hi]).all(axis=0))
        if bad.size:
            row_no = _data_rows(path)[order[lo + bad[0]]][0]
            raise ValueError(f"{path}: non-finite value in data row {row_no}")
        t, x, v = cols[:3, lo:hi]
        steps, dt, off = _sampling(t)
        if off.size:
            k = int(off[0])
            row_no = _data_rows(path)[order[lo + k + 1]][0]
            raise ValueError(
                f"{path}: vehicle {vehicle} not uniformly sampled near data row "
                f"{row_no} (step {steps[k]:.6g} vs dt {dt:.6g})"
            )
        with np.errstate(over="ignore", invalid="ignore"):   # finite speeds can overflow
            a = cols[3, lo:hi] if has_a else np.gradient(v, dt)
        if not np.isfinite(a).all():
            raise ValueError(f"{path}: vehicle {vehicle} speeds give a non-finite acceleration")
        out.append(Trajectory(vehicle_id=vehicle, t=t, x=x, v=v, a=a, dt=dt))
    return out


def _load_rows(path: str, has_a: bool, skip: int, max_rows: Optional[int] = None) -> np.ndarray:
    """The data rows after the `skip` header lines of a trajectory CSV, by one
    np.loadtxt call: the first `max_rows` of them if given.  A row loadtxt
    refuses raises ValueError or, warnings being errors here, a Warning."""
    n = 4 + has_a
    # loadtxt reads a path in blocks and an open file line by line, at half
    # the speed.  But it opens a path with a compression suffix as
    # compressed, which this file is not.
    named_compressed = path.endswith(_COMPRESSED_SUFFIXES)
    with (open(path) if named_compressed else contextlib.nullcontext(path)) as src, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        # under max_rows, loadtxt warns of each blank line that it is not a row
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        return np.loadtxt(src, dtype=_ROW_DTYPE[:n], delimiter=",", comments=None,
                          quotechar='"', skiprows=skip, usecols=range(n), ndmin=1,
                          max_rows=max_rows)


def _data_rows(path: str) -> List[Tuple[int, List[str]]]:
    """(data row number, csv record) of each non-empty record after the
    header of a trajectory CSV; row k of `_load_rows` is the k-th."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(row_no, row) for row_no, row in enumerate(reader, start=2) if row]


def _refused_row(path: str, has_a: bool, skip: int) -> str:
    """Message naming the first row loadtxt refuses in a file it does not
    parse whole, found by bisecting `max_rows` over the data rows."""
    rows = _data_rows(path)
    lo, hi = 0, len(rows)     # the first lo rows parse, the first hi do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load_rows(path, has_a, skip, mid)
            lo = mid
        except (ValueError, Warning):
            hi = mid
    row_no, row = rows[hi - 1]
    return f"{path}: malformed row {row_no}: {row}"


# ---------------------------------------------------------------------------
# Wave paths, stats, histograms, fields, frequency response
# ---------------------------------------------------------------------------

def write_wave_paths(
    path: str, paths: Sequence[WavePath], full_precision: bool = False
) -> None:
    """One row per crossing; the origin point is the row with vehicle_id -1."""
    real = _REAL_SPEC[full_precision]
    row = _row("%d", "%s", "%d", real, real, real)

    def blocks():
        for pid, wp in enumerate(paths):
            points = [(-1, wp.origin_t, wp.origin_x, wp.origin_v), *wp.crossings]
            values = [u for vid, t, x, v in points
                      for u in (pid, wp.kind.value, vid, float(t), float(x), float(v))]
            yield row * len(points), values

    _write_blocks(path, "path_id,kind,vehicle_id,t_cross,x_cross,v_at_cross", blocks())


def write_stats(path: str, label: str, proposed: DeviationStats, baseline: DeviationStats,
                full_precision: bool = False) -> None:
    """|deviation| statistics of the proposed and the baseline method, one row
    each; `label` fills the case column, written as given (unquoted)."""
    real = _REAL_SPEC[full_precision]
    values = [v for method, st in (("proposed", proposed), ("baseline", baseline))
              for v in (label, method, *map(float, st.as_row()))]
    _write_blocks(path, "case,method,mean,median,q1,q3,max,min",
                  [(_row("%s", "%s", *[real] * 6) * 2, values)])


def write_histogram(path: str, hist: Histogram, full_precision: bool = False) -> None:
    real = _REAL_SPEC[full_precision]
    values = np.column_stack((hist.bin_centers, hist.density)).ravel().tolist()
    _write_blocks(path, "bin_center,density", [(_row(real, real) * len(hist.density), values)])


def write_field(path: str, fld: EulerianField, full_precision: bool = False) -> None:
    """Heatmap-ready field export: one row per (time, cell center).

    Every snapshot's rows share its time and every snapshot shares the
    centers, so each time is formatted once per snapshot and the centers
    once per file; only rho and v go through printf cell by cell.  A
    snapshot is one block: its time text joined between the per-cell
    row tails, filled with the snapshot's interleaved (rho, v).
    """
    real = _REAL_SPEC[full_precision]
    # what follows the time in each cell's row: ",x,<rho spec>,<v spec>\r\n"
    tails = [_row("", real % x, real, real) for x in fld.grid.centers.tolist()]

    def blocks():
        for t, rho_v in zip(fld.times.tolist(), np.stack((fld.rho, fld.v), axis=-1)):
            t_text = real % t
            yield t_text + t_text.join(tails), rho_v.ravel().tolist()

    _write_blocks(path, "t,x,rho,v", blocks())


def write_bode(path: str, bode, full_precision: bool = False) -> None:
    """Frequency response export: omega, gain magnitude, phase, one row per
    frequency of `bode`, a `waves.TransferEval` over an array of omegas."""
    real = _REAL_SPEC[full_precision]
    values = np.column_stack((bode.omega, bode.gain_mag, bode.phase)).ravel().tolist()
    _write_blocks(path, "omega,gain_mag,phase", [(_row(real, real, real) * len(bode.omega), values)])


def write_modes(path: str, modes: Sequence[Sequence[float]], full_precision: bool = False) -> None:
    """Fourier modes export: one row of (amplitude, omega, phase) per mode."""
    real = _REAL_SPEC[full_precision]
    values = [float(v) for mode in modes for v in mode]
    _write_blocks(path, "amplitude,omega,phase", [(_row(real, real, real) * len(modes), values)])


# ---------------------------------------------------------------------------
# Calibrated parameter draws
# ---------------------------------------------------------------------------

def load_draws(path: str) -> List[ParamSample]:
    """Read a draws file (header tau,L,k_s,k_v): one row per sample of four
    numbers in ASCII digits without `_`; another row is refused by number."""
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
            try:  # float() alone would also take `1_0` and non-ASCII digits
                if len(row) != 4 or "_" in (text := "".join(row)) or not text.isascii():
                    raise ValueError("not four ASCII numbers")
                out.append(ParamSample(*map(float, row)))
            except ValueError as exc:
                raise ValueError(f"{path}: malformed draw at row {row_no}: {row}: {exc}") from exc
    if not out:
        raise ValueError(f"{path}: no draws found")
    return out


def sample_params(draws: Sequence[ParamSample], count: int = 200, seed: int = 0) -> List[ParamSample]:
    """Seeded uniform resampling with replacement from the provided draws."""
    if not draws:
        raise ValueError("cannot sample from an empty draw set")
    _require(count, "count", integer=True, positive=True)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(draws), size=count)
    return [draws[int(i)] for i in idx]


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a CLI run needs; YAML-serializable and strict on keys.  A
    field left None (in YAML, an absent key) is not passed on (`given`), so
    the library call it feeds applies its default, written once there.
    `modes` may be given as lists; it is checked and held as tuples of floats."""

    dt: Optional[float] = None
    duration: Optional[float] = None
    origin_spacing: Optional[float] = None
    # controller (used by simulate/wave/metrics when not running a case)
    tau: Optional[float] = None
    L: Optional[float] = None
    k_s: Optional[float] = None
    k_v: Optional[float] = None
    v_f: Optional[float] = None
    v_e: Optional[float] = None
    modes: Optional[Tuple[Tuple[float, float, float], ...]] = None
    n_followers: Optional[int] = None
    # PDE / ring validation
    sample_every: Optional[float] = None
    ring_vehicles: Optional[int] = None
    # signal tools
    fft_modes: Optional[int] = None
    # empirical sweep
    draws_file: Optional[str] = None
    leader_file: Optional[str] = None
    n_draws: Optional[int] = None
    seed: Optional[int] = None
    # output
    out_dir: Optional[str] = None
    full_precision: bool = False

    def __post_init__(self) -> None:
        if self.modes is not None:  # frozen: the checked tuples replace what was given
            object.__setattr__(self, "modes", _coerce_modes(self.modes))
        for f in fields(self):  # None means unset, except in the bool flag
            if getattr(self, f.name) is not None or f.type == "bool":
                _check_field(f, getattr(self, f.name))

    def given(self, *keys: str, **renamed: str) -> dict:
        """The set fields among `keys`, and among `renamed`'s values (under
        their argument names), as keyword arguments."""
        names = {**dict(zip(keys, keys)), **renamed}
        return {arg: getattr(self, key) for arg, key in names.items() if getattr(self, key) is not None}

    def params(self) -> ControlParams:
        """The controller of its fields set here; ControlParams gives the rest."""
        keys = (f.name for f in fields(ControlParams) if f.name in self.__dataclass_fields__)
        return ControlParams(**self.given(*keys))


# keys that YAML may set to null, which means what an absent key means
_NULL_KEYS = ("dt", "origin_spacing", "draws_file", "leader_file", "out_dir")


def _check_field(f, val) -> None:
    """Refuse a value that config field `f`'s annotation does not take, naming the key."""
    if f.type in ("Optional[int]", "Optional[float]"):
        _require(val, f.name, integer=f.type == "Optional[int]")
    if f.type == "Optional[str]" and not isinstance(val, str):
        raise ValueError(f"{f.name} must be a string, got {val!r}")
    if f.type == "bool" and not isinstance(val, bool):
        raise ValueError(f"{f.name} must be true or false, got {val!r}")
    if val is None:
        raise ValueError(f"{f.name} must not be null")


def _coerce_modes(raw) -> Tuple[Tuple[float, float, float], ...]:
    """`raw`, a list of [amplitude, omega, phase] numbers, as modes; a value
    that is not is refused by the key `modes`."""
    seq = (list, tuple)
    if not isinstance(raw, seq) or not all(isinstance(m, seq) and len(m) == 3 for m in raw):
        raise ValueError(f"modes must be a list of [amplitude, omega, phase], got {raw!r}")
    _require(raw, "modes")
    return tuple(map(tuple, np.asarray(raw, dtype=float).tolist()))


def config_from_dict(data: dict) -> ScenarioConfig:
    unknown = set(data) - set(ScenarioConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(ScenarioConfig):
        if f.name in data and data[f.name] is None and f.name not in _NULL_KEYS:
            _check_field(f, None)  # raises, naming the key
    return ScenarioConfig(**data)


def load_config(path: str) -> ScenarioConfig:
    import yaml  # only a --config run needs it
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a mapping")
    try:
        return config_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def default_out_dir() -> str:
    return os.environ.get("ACCWAVE_OUT_DIR", "out")
