"""Tests for CSV import/export, configs, draws, and the CLI front end."""

import argparse
import builtins
import csv
import dataclasses
import functools
import inspect
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from accwave import dataio, fourier
from accwave.cli import build_parser, main
from accwave.dataio import (
    ParamSample,
    ScenarioConfig,
    config_from_dict,
    ingest_trajectories,
    load_config,
    load_draws,
    sample_params,
    write_trajectories,
)
from accwave import scenarios
from accwave.microsim import Cruise, CutIn, LeaderProfile, OscillationSpec, Scenario, simulate_platoon
from accwave.model import ControlParams
from accwave.pde import EulerianField, Grid
import oracles

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _small_run(duration=2.0):
    sc = Scenario(
        params=ControlParams(),
        n_followers=2,
        leader=LeaderProfile(v0=10.0, phases=(Cruise(None),)),
        duration=duration,
        dt=0.1,
        initial_speeds=10.0,
    )
    return simulate_platoon(sc).trajectories


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------


def test_trajectory_round_trip_full_precision(tmp_path):
    trajs = _small_run()
    path = tmp_path / "t.csv"
    write_trajectories(str(path), trajs, full_precision=True)
    back = ingest_trajectories(str(path))
    assert [tr.vehicle_id for tr in back] == [tr.vehicle_id for tr in trajs]
    for a, b in zip(trajs, back):
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.a, b.a)


def test_ingest_accepts_shuffled_rows(tmp_path):
    trajs = _small_run()
    path = tmp_path / "t.csv"
    write_trajectories(str(path), trajs, full_precision=True)
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    rng = np.random.default_rng(5)
    rng.shuffle(rows)
    path.write_text("\n".join([header] + rows) + "\n")
    back = ingest_trajectories(str(path))
    for a, b in zip(trajs, back):
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)


def test_ingest_reports_nonuniform_sampling_row(tmp_path):
    path = tmp_path / "bad.csv"
    # vehicle 0 skips the t=0.2 sample: the offending data row is named
    path.write_text(
        "t,vehicle_id,x,v,a\n"
        "0.0,0,0.0,10.0,0.0\n"
        "0.1,0,1.0,10.0,0.0\n"
        "0.3,0,3.0,10.0,0.0\n"
        "0.4,0,4.0,10.0,0.0\n"
    )
    with pytest.raises(ValueError, match="not uniformly sampled near data row 4"):
        ingest_trajectories(str(path))


@pytest.mark.parametrize("row", ["0.1,0,1.0,nan,0.0", "0.1,0,inf,10.0,0.0",
                                 "nan,0,1.0,10.0,0.0", "0.1,0,1.0,10.0,nan"])
def test_ingest_names_file_and_row_of_non_finite_value(tmp_path, row):
    path = tmp_path / "nan.csv"
    path.write_text(f"t,vehicle_id,x,v,a\n0.0,0,0.0,10.0,0.0\n{row}\n0.2,0,2.0,10.0,0.0\n")
    with pytest.raises(ValueError, match=r"nan\.csv: non-finite value in data row 3"):
        ingest_trajectories(str(path))


def _ingest_bad_row(kind: str, data) -> None:
    """Write a valid two-vehicle file with one row spoiled, among blank lines
    and quoted fields, LF or CRLF; ingest must refuse it with the message of
    `oracles.row_ingest`, which names the spoiled data row."""
    rows = [[repr(k * 0.1), str(vid), repr(30.0 - 20.0 * vid + k), "10.0", "0.0"]
            for k in range(8) for vid in (0, 1)]
    rows = data.draw(st.permutations(rows), label="rows")
    if kind == "non_uniform":   # a sample after a vehicle's first one, moved off its grid
        i = data.draw(st.sampled_from([i for i, r in enumerate(rows) if r[0] != "0.0"]), label="row")
        shift = data.draw(st.floats(2 * 1e-6, 0.04) | st.floats(-0.04, -2 * 1e-6), label="shift")
        rows[i][0] = repr(float(rows[i][0]) + shift)
    else:
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        if kind == "non_finite":
            field = data.draw(st.sampled_from([0, 2, 3, 4]), label="field")
            rows[i][field] = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]), label="value")
        elif data.draw(st.booleans(), label="truncate"):
            rows[i] = rows[i][:data.draw(st.integers(1, 4), label="fields")]
        else:
            field = data.draw(st.integers(0, 4), label="field")
            bad = ["", "ten", "1..5", "--1"] + (["1.5", "nan"] if field == 1 else [])
            rows[i][field] = data.draw(st.sampled_from(bad), label="value")
    spoiled = rows[i]
    for r, f in data.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 4)),
                                   max_size=8, unique=True), label="quoted fields"):
        if f < len(rows[r]):
            rows[r][f] = f'"{rows[r][f]}"'
    for at in data.draw(st.lists(st.integers(0, len(rows)), max_size=3), label="blank lines"):
        rows.insert(at, [])
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.csv")
        with open(path, "w", newline="") as fh:
            fh.write(newline.join(["t,vehicle_id,x,v,a"] + [",".join(r) for r in rows]) + newline)
        with pytest.raises(ValueError) as want:
            oracles.row_ingest(path)
        with pytest.raises(ValueError) as got:
            ingest_trajectories(path)
        assert str(got.value) == str(want.value)
        # the data row of list index j is record j + 2 of the file, after the header
        j = next(j for j, r in enumerate(rows) if r is spoiled)
        assert re.match(rf"^{re.escape(path)}: .*\brow {j + 2}\b", str(got.value))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["malformed", "non_finite", "non_uniform"]), data=st.data())
def test_ingest_names_file_and_data_row_of_a_bad_row(kind, data):
    _ingest_bad_row(kind, data)


def _same_trajectories(got, want) -> bool:
    """Bit-for-bit equality of two ingest results: ids, dt and every array."""
    return len(got) == len(want) and all(
        type(g.vehicle_id) is int and g.vehicle_id == w.vehicle_id and g.dt == w.dt
        and all(getattr(g, f).tobytes() == getattr(w, f).tobytes() for f in "txva")
        for g, w in zip(got, want))


@st.composite
def _valid_trajectory_file(draw):
    """Text of a valid trajectory CSV: shuffled rows, with or without `a`,
    LF or CRLF, blank lines, quoted rows, a column past the header's, and
    ids written as `1`, `+1` or ` 1 `."""
    has_a = draw(st.booleans(), label="has_a")
    extra = draw(st.booleans(), label="extra column")
    newline = draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=3, unique=True),
               label="ids")
    # |value| <= 1e9: near the float range, reconstructing a by differences
    # overflows (with a RuntimeWarning) in both parsers alike
    reals = st.floats(-1e9, 1e9)
    rows = []
    for vid in ids:
        t0 = draw(st.floats(-1e3, 1e3), label="t0")
        dt = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25, 1 / 3]), label="dt")
        for k in range(draw(st.integers(2, 8), label="samples")):
            forms = ["{}", " {} "] + ["+{}"] * (vid >= 0)
            id_text = draw(st.sampled_from(forms), label="id form").format(vid)
            fields = [repr(t0 + k * dt), id_text] + [repr(draw(reals)) for _ in range(2 + has_a)]
            fields += ["lane 2"] * extra
            if draw(st.booleans(), label="quoted"):
                fields = [f'"{f}"' for f in fields]
            rows.append(",".join(fields))
    rows = draw(st.permutations(rows), label="rows")
    for _ in range(draw(st.integers(0, 2), label="blank lines")):
        rows.insert(draw(st.integers(0, len(rows)), label="at"), "")
    header = "t,vehicle_id,x,v" + (",a" if has_a else "")
    return newline.join([header] + rows) + newline


@settings(max_examples=100, deadline=None)
@given(text=_valid_trajectory_file())
def test_block_ingest_matches_the_row_parser_bit_for_bit(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert _same_trajectories(ingest_trajectories(path), oracles.row_ingest(path))


_TWO_SAMPLES = "t,vehicle_id,x,v,a\n0.0,0,0.0,10.0,0.0\n0.1,0,1.0,10.0,0.0\n"


@pytest.mark.parametrize("vid", ["1.0", "1e0"])
def test_ingest_refuses_a_real_vehicle_id(tmp_path, vid):
    path = tmp_path / "id.csv"
    path.write_text(_TWO_SAMPLES + f"0.0,{vid},5.0,10.0,0.0\n")
    msg = f"{path}: malformed row 4: ['0.0', '{vid}', '5.0', '10.0', '0.0']"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        ingest_trajectories(str(path))


@pytest.mark.parametrize("vid", [str(2**63), str(-2**63 - 1), "1_0"])
def test_ingest_refuses_an_id_that_is_not_an_int64_literal(tmp_path, vid):
    # Python's int() takes each of these; the int64 parse of np.loadtxt does not
    path = tmp_path / "id.csv"
    path.write_text(_TWO_SAMPLES + f"0.2,0,2.0,10.0,0.0\n0.0,{vid},5.0,10.0,0.0\n")
    msg = f"{path}: malformed row 5: ['0.0', '{vid}', '5.0', '10.0', '0.0']"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        ingest_trajectories(str(path))


def test_ingest_refuses_a_comment_row(tmp_path):
    path = tmp_path / "hash.csv"
    path.write_text(_TWO_SAMPLES + "# a note\n0.2,0,2.0,10.0,0.0\n")
    msg = f"{path}: malformed row 4: ['# a note']"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        ingest_trajectories(str(path))


def test_ingest_accepts_quoted_fields(tmp_path):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text(_TWO_SAMPLES)
    quoted.write_text('"t",vehicle_id,x,v,a\n"0.0","0",0.0,10.0,0.0\n0.1,0,"1.0",10.0,0.0\n')
    assert _same_trajectories(ingest_trajectories(str(quoted)), ingest_trajectories(str(plain)))


@pytest.mark.parametrize("text", ["t,vehicle_id,x,v,a\n", "t,vehicle_id,x,v", "t,vehicle_id,x,v\r\n\r\n"])
def test_ingest_of_a_header_only_file_is_empty_and_silent(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ingest_trajectories(str(path)) == []
    assert caught == []


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_ingest_reads_a_plain_file_named_as_compressed(tmp_path, suffix):
    plain, named = tmp_path / "plain.csv", tmp_path / f"rec.csv{suffix}"
    plain.write_text(_TWO_SAMPLES)
    named.write_text(_TWO_SAMPLES)
    assert _same_trajectories(ingest_trajectories(str(named)), ingest_trajectories(str(plain)))


def test_ingest_reconstructs_missing_accel_column(tmp_path):
    path = tmp_path / "noa.csv"
    path.write_text(
        "t,vehicle_id,x,v\n"
        "0.0,0,0.0,10.0\n"
        "0.5,0,5.0,11.0\n"
        "1.0,0,10.5,12.0\n"
    )
    (tr,) = ingest_trajectories(str(path))
    assert tr.a == pytest.approx([2.0, 2.0, 2.0])


# finite speeds whose central differences overflow
_HUGE_SPEEDS = "t,vehicle_id,x,v\n0.0,0,0.0,1.8e306\n0.1,0,1.0,-1.7e308\n0.2,0,2.0,1.7e308\n"


def test_row_ingest_refuses_a_non_finite_reconstructed_accel_naming_file_and_vehicle(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(_HUGE_SPEEDS)
    msg = f"{path}: vehicle 0 speeds give a non-finite acceleration"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        oracles.row_ingest(str(path))
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        ingest_trajectories(str(path))


def test_ingest_rejects_wrong_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,id,pos,speed\n0,0,0,1\n")
    with pytest.raises(ValueError, match="expected header"):
        ingest_trajectories(str(path))


# ---------------------------------------------------------------------------
# block writers against the csv.writer loops they replace
# ---------------------------------------------------------------------------


def _oracle_fmt(x, full_precision):
    return repr(float(x)) if full_precision else f"{x:.6g}"


def _oracle_write_field(path, fld, full_precision):
    """Reference: one csv.writer row and four fmt calls per (time, cell)."""
    centers = fld.grid.centers
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "rho", "v"])
        for k, t in enumerate(fld.times):
            for m, x in enumerate(centers):
                w.writerow([_oracle_fmt(float(t), full_precision),
                            _oracle_fmt(float(x), full_precision),
                            _oracle_fmt(float(fld.rho[k, m]), full_precision),
                            _oracle_fmt(float(fld.v[k, m]), full_precision)])


def _oracle_write_trajectories(path, trajectories, full_precision):
    """Reference: every row as a tuple, sorted by (t, vehicle_id), then csv.writer."""
    rows = []
    for tr in trajectories:
        for k in range(len(tr.t)):
            rows.append((float(tr.t[k]), tr.vehicle_id, float(tr.x[k]), float(tr.v[k]), float(tr.a[k])))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "vehicle_id", "x", "v", "a"])
        for t, vid, x, v, a in rows:
            w.writerow([_oracle_fmt(t, full_precision), vid, _oracle_fmt(x, full_precision),
                        _oracle_fmt(v, full_precision), _oracle_fmt(a, full_precision)])


# signed zero, extremes, a subnormal and integral floats, which %g and repr
# print in their own ways
_AWKWARD = np.array([-0.0, 1e-300, 1e300, -1e300, 5e-324, 3.0, 100.0, -7.0,
                     123456789.0, 1e16, 0.1 + 0.2, 1.0 / 3.0])


@pytest.mark.parametrize("full_precision", [False, True])
def test_write_field_bytes_match_csv_writer_loop(tmp_path, full_precision):
    rng = np.random.default_rng(3)
    g = Grid(L_x=7.0, n_x=len(_AWKWARD))
    times = np.array([-0.0, 0.5, 1.0, 2.0, 1e300, 0.1 + 0.2])
    rho = rng.permuted(np.tile(np.abs(_AWKWARD) + 1e-300, (len(times), 1)), axis=1)
    v = rng.permuted(np.tile(_AWKWARD, (len(times), 1)), axis=1)
    fld = EulerianField(g, times, rho, v)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataio.write_field(str(got), fld, full_precision)
    _oracle_write_field(str(want), fld, full_precision)
    assert got.read_bytes() == want.read_bytes()


# (ring length, cells, times): one snapshot; centers that print in exponent
# form, huge and tiny; times whose texts repeat (1 + 1e-7 prints as 1 at 6
# digits, and equal times print alike at any precision)
_FIELD_SHAPES = {
    "one snapshot": (7.0, 5, [0.25]),
    "exponent centers": (4e20, 4, [0.0, 3.5]),
    "tiny centers": (4e-9, 6, [0.0, 1e-300]),
    "repeated time texts": (50.0, 8, [1.0, 1.0000001, 1.0000001, 2.0, 2.0]),
}


@pytest.mark.parametrize("full_precision", [False, True])
@pytest.mark.parametrize("shape", list(_FIELD_SHAPES))
def test_write_field_bytes_match_csv_writer_loop_on_edge_shapes(tmp_path, shape, full_precision):
    L_x, n_x, times = _FIELD_SHAPES[shape]
    rng = np.random.default_rng(5)
    rho = rng.uniform(1e-3, 0.2, (len(times), n_x))
    v = rng.choice(_AWKWARD, (len(times), n_x))
    fld = EulerianField(Grid(L_x=L_x, n_x=n_x), np.array(times), rho, v)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataio.write_field(str(got), fld, full_precision)
    _oracle_write_field(str(want), fld, full_precision)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("full_precision", [False, True])
def test_write_trajectories_bytes_match_csv_writer_loop(tmp_path, full_precision):
    from accwave.microsim import Trajectory

    rng = np.random.default_rng(4)
    trajs = []
    # ids out of order, later starts, and times such as 3*0.1 that differ
    # from 0.3 in the last bit; more rows than one written block
    for vid, t0, n in [(7, 0.0, 2500), (0, 0.3, 2200), (3, 0.1 * 3, 2000)]:
        t = t0 + 0.1 * np.arange(n)
        x, v, a = (rng.permuted(np.resize(_AWKWARD, n)) for _ in range(3))
        trajs.append(Trajectory(vid, t, x, v, a, 0.1))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectories(str(got), trajs, full_precision)
    _oracle_write_trajectories(str(want), trajs, full_precision)
    assert got.read_bytes() == want.read_bytes()


@functools.lru_cache(maxsize=None)
def _export_platoon(case):
    """Case 1-4 at the defaults, or a platoon of four cut-ins: vehicles born
    mid-run, two of them in one step."""
    if case != "four cut-ins":
        return simulate_platoon(scenarios.case_scenario(case)).trajectories
    cuts = (CutIn(time=12.0, gap=9.0, ahead_of=1), CutIn(time=5.0, gap=11.0, ahead_of=3),
            CutIn(time=5.0, gap=10.0, ahead_of=3), CutIn(time=8.0, gap=4.0, ahead_of=4))
    sc = Scenario(params=ControlParams(), n_followers=4, duration=25.0, cut_ins=cuts,
                  leader=OscillationSpec(v_e=10.0, modes=((2.0, 0.16 * math.pi, 0.0),)))
    return simulate_platoon(sc).trajectories


def _assert_writes_the_whole_table_bytes(tmp_path, trajs, full_precision):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectories(str(got), trajs, full_precision)
    oracles.sorted_write_trajectories(str(want), trajs, full_precision)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("full_precision", [False, True])
@pytest.mark.parametrize("case", [1, 2, 3, 4, "four cut-ins"])
def test_windowed_trajectory_export_writes_the_whole_table_bytes(tmp_path, case, full_precision):
    trajs = _export_platoon(case)
    if case == "four cut-ins":
        assert len({tr.t0 for tr in trajs}) == 4     # the leader's start and three merge times
    _assert_writes_the_whole_table_bytes(tmp_path, trajs, full_precision)


def _clock_trajectories():
    """Trajectories on four clocks around a longest one of 1,000 samples every
    0.25 s, whose every 256th time (64, 128, 192 s) is a window edge: a later
    start, an earlier end, a coarser dt whose samples fall on the edges, and
    one that starts later and ends after the longest.  Ids are out of order
    and one repeats, so rows tie on (t, vehicle_id)."""
    from accwave.microsim import Trajectory

    rng = np.random.default_rng(8)
    clocks = [(5, 0.0, 0.25, 1000), (2, 10.0, 0.25, 400), (9, 0.0, 0.25, 300),
              (2, 1.0, 0.5, 450), (-4, 100.0, 1.0, 200)]
    trajs = []
    for vid, t0, dt, n in clocks:
        t = t0 + dt * np.arange(n)
        x, v, a = (rng.permuted(np.resize(_AWKWARD, n)) for _ in range(3))
        trajs.append(Trajectory(vid, t, x, v, a, dt))
    return trajs


@pytest.mark.parametrize("full_precision", [False, True])
def test_windowed_trajectory_export_on_different_clocks(tmp_path, full_precision):
    trajs = _clock_trajectories()
    edges = trajs[0].t[dataio._WINDOW_TIMES::dataio._WINDOW_TIMES]
    assert edges.tolist() == [64.0, 128.0, 192.0]
    # samples of other clocks on every edge, and times past the longest's end
    assert np.isin(edges, trajs[3].t).all() and np.isin(edges[1:], trajs[4].t).all()
    assert trajs[-1].t_end > trajs[0].t_end
    _assert_writes_the_whole_table_bytes(tmp_path, trajs, full_precision)


@pytest.mark.parametrize("full_precision", [False, True])
@pytest.mark.parametrize("n", [0, 1])
def test_windowed_trajectory_export_of_one_trajectory_or_none(tmp_path, n, full_precision):
    trajs = _clock_trajectories()[:n]
    _assert_writes_the_whole_table_bytes(tmp_path, trajs, full_precision)
    if n == 0:
        assert (tmp_path / "got.csv").read_bytes() == b"t,vehicle_id,x,v,a\r\n"


def test_trajectory_export_windows_follow_the_longest_trajectory(tmp_path, monkeypatch):
    # listed first, a 200-sample trajectory would set no edge of its own and
    # leave the whole run to one window
    trajs = _clock_trajectories()[::-1]
    blocks, write_blocks = [], dataio._write_blocks

    def recording(path, header, given):
        blocks.extend(given)
        write_blocks(path, header, blocks)

    monkeypatch.setattr(dataio, "_write_blocks", recording)
    write_trajectories(str(tmp_path / "t.csv"), trajs)
    rows = [len(values) // 5 for _, values in blocks]
    assert len(rows) == 4 and sum(rows) == sum(len(tr.t) for tr in trajs)
    assert max(rows) <= dataio._WINDOW_TIMES * len(trajs)


def _export_peak_bytes(trajs, path):
    tracemalloc.start()
    try:
        write_trajectories(str(path), trajs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_export_peak_memory_does_not_grow_with_the_run_length(tmp_path):
    # rows are formatted one window of sample times at a time; sorting the
    # whole table first peaks at about 8x more for the 10x longer run
    short, long = (simulate_platoon(scenarios.case_scenario(2, duration=d)).trajectories
                   for d in (60.0, 600.0))
    assert sum(len(tr.t) for tr in long) == 359_006
    path = tmp_path / "t.csv"
    assert _export_peak_bytes(long, path) < 1.5 * _export_peak_bytes(short, path)


def _oracle_write_rows(path, header, rows):
    """Reference: the header and every row through one csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _awkward_paths():
    """Paths of every kind with np.float64 coordinates, one without crossings."""
    from accwave.tracker import Crossing, PathKind, WavePath

    rng = np.random.default_rng(6)
    paths = []
    for k, kind in enumerate(list(PathKind) * 2):
        t, x, v = (rng.permuted(_AWKWARD)[:k + 1] for _ in range(3))
        crossings = tuple(Crossing(i + 1, t[i + 1], x[i + 1], v[i + 1]) for i in range(k))
        paths.append(WavePath(kind, t[0], x[0], v[0], crossings))
    return paths


@pytest.mark.parametrize("full_precision", [False, True])
def test_write_wave_paths_bytes_match_csv_writer_loop(tmp_path, full_precision):
    paths = _awkward_paths()
    rows = []
    for pid, wp in enumerate(paths):
        rows.append([pid, wp.kind.value, -1] + [_oracle_fmt(float(u), full_precision)
                                                 for u in (wp.origin_t, wp.origin_x, wp.origin_v)])
        rows += [[pid, wp.kind.value, c.vehicle_id] + [_oracle_fmt(float(u), full_precision)
                                                        for u in (c.t, c.x, c.v)]
                 for c in wp.crossings]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataio.write_wave_paths(str(got), paths, full_precision)
    _oracle_write_rows(str(want), ["path_id", "kind", "vehicle_id", "t_cross", "x_cross",
                                   "v_at_cross"], rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("full_precision", [False, True])
def test_write_stats_bytes_match_csv_writer_loop(tmp_path, full_precision):
    from accwave.metrics import DeviationStats

    proposed = DeviationStats(*_AWKWARD[:6])       # np.float64 fields
    baseline = DeviationStats(*_AWKWARD[6:].tolist())
    rows = [["case3", method] + [_oracle_fmt(u, full_precision) for u in st.as_row()]
            for method, st in (("proposed", proposed), ("baseline", baseline))]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataio.write_stats(str(got), "case3", proposed, baseline, full_precision)
    _oracle_write_rows(str(want), ["case", "method", "mean", "median", "q1", "q3", "max", "min"],
                       rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("full_precision", [False, True])
def test_write_histogram_bytes_match_csv_writer_loop(tmp_path, full_precision):
    from accwave.metrics import Histogram

    hist = Histogram(bin_centers=_AWKWARD, density=np.abs(_AWKWARD[::-1]))
    rows = [[_oracle_fmt(float(c), full_precision), _oracle_fmt(float(d), full_precision)]
            for c, d in zip(hist.bin_centers, hist.density)]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataio.write_histogram(str(got), hist, full_precision)
    _oracle_write_rows(str(want), ["bin_center", "density"], rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("full_precision", [False, True])
def test_write_bode_bytes_match_csv_writer_loop(tmp_path, full_precision):
    from accwave.waves import transfer_function

    params = ControlParams(k_s=0.0)                 # omega = 0 takes the DC limit
    omegas = np.concatenate(([0.0, 0.1 + 0.2, 3.0, 1.0 / 3.0], np.logspace(-2, 2, 400)))
    rows = []
    for om in omegas:
        te = transfer_function(float(om), params)
        rows.append([_oracle_fmt(u, full_precision) for u in (float(om), te.gain_mag, te.phase)])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataio.write_bode(str(got), transfer_function(omegas, params), full_precision)
    _oracle_write_rows(str(want), ["omega", "gain_mag", "phase"], rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("full_precision", [False, True])
def test_write_modes_bytes_match_csv_writer_loop_with_crlf_line_ends(tmp_path, full_precision):
    modes = list(zip(_AWKWARD[0::3], _AWKWARD[1::3], _AWKWARD[2::3]))   # np.float64 values
    rows = [[_oracle_fmt(u, full_precision) for u in mode] for mode in modes]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataio.write_modes(str(got), modes, full_precision)
    _oracle_write_rows(str(want), ["amplitude", "omega", "phase"], rows)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\r\n") == len(modes) + 1


@pytest.mark.parametrize("full_precision", [False, True])
def test_trajectory_ids_across_the_int64_range_round_trip(tmp_path, full_precision):
    from accwave.microsim import Trajectory

    # ids above 2**53 are not all representable as float64: 2**62 + 1 and
    # 2**63 - 1 would collapse onto their neighbours
    ids = [-2**63, 2**62, 2**62 + 1, 2**63 - 1]
    t = 0.5 * np.arange(4)
    trajs = [Trajectory(vid, t, -10.0 * k + t, np.full(4, 2.0), np.zeros(4), 0.5)
             for k, vid in enumerate(ids)]
    path = tmp_path / "ids.csv"
    write_trajectories(str(path), trajs, full_precision)
    back = ingest_trajectories(str(path))
    assert [tr.vehicle_id for tr in back] == ids
    for a, b in zip(trajs, back):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------


def test_load_draws_and_seeded_sampling(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("tau,L,k_s,k_v\n1.0,9.0,0.3,0.5\n1.1,9.5,0.25,0.55\n0.9,8.5,0.28,0.6\n")
    draws = load_draws(str(path))
    assert len(draws) == 3
    assert draws[0] == ParamSample(1.0, 9.0, 0.3, 0.5)
    a = sample_params(draws, 10, seed=4)
    b = sample_params(draws, 10, seed=4)
    assert a == b
    assert any(x != y for x, y in zip(a, sample_params(draws, 10, seed=5)))


def test_sampling_from_single_draw_repeats_it(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("tau,L,k_s,k_v\n1.0,9.0,0.3,0.5\n")
    draws = load_draws(str(path))
    assert sample_params(draws, 5, seed=0) == [draws[0]] * 5


@pytest.mark.parametrize("field", ["tau", "L", "k_s", "k_v"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_draw_rejects_non_finite(field, value):
    fields = dict(tau=1.0, L=9.0, k_s=0.3, k_v=0.5)
    fields[field] = value
    with pytest.raises(ValueError, match="finite"):
        ParamSample(**fields)


@pytest.mark.parametrize("row", ["1.0,nan,0.5,0.5", "inf,9.0,0.3,0.5", "1.0,9.0,0.3,-inf"])
def test_load_draws_names_file_and_row_of_non_finite_draw(tmp_path, row):
    path = tmp_path / "d.csv"
    path.write_text(f"tau,L,k_s,k_v\n1.0,9.0,0.3,0.5\n{row}\n")
    with pytest.raises(ValueError, match=rf"d\.csv: .* row 3"):
        load_draws(str(path))


@pytest.mark.parametrize("row", ["1.2,5,0.8,1.4,99", "1_0,5,0.8,1.4", "\u0661,5,0.8,1.4", "1.2,5,0.8"],
                         ids=["five fields", "underscore", "arabic-indic digit", "three fields"])
def test_load_draws_refuses_a_row_that_is_not_four_ascii_numbers(tmp_path, row):
    # float() takes `1_0` as 10 and the Arabic-Indic one as 1, and a fifth
    # field used to be dropped; a trajectory file refuses each of them too
    path = tmp_path / "d.csv"
    path.write_text(f"tau,L,k_s,k_v\n1.0,9.0,0.3,0.5\n{row}\n", encoding="utf-8")
    message = f"{path}: malformed draw at row 3: {row.split(',')}: not four ASCII numbers"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_draws(str(path))


def test_cli_empirical_gives_the_reason_it_refuses_a_draw(tmp_path, capsys):
    # the reason used to be only the exception's __cause__
    path = tmp_path / "d.csv"
    path.write_text("tau,L,k_s,k_v\n-1,5,0.8,1.4\n")
    assert main(["empirical", "--draws", str(path), "--leader", str(DATA_DIR / "leader_dip.csv"),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: malformed draw at row 2: ['-1', '5', '0.8', '1.4']: "
                                       "tau must be positive and finite, got -1.0\n")


def test_draw_validation(tmp_path):
    with pytest.raises(ValueError):
        ParamSample(1.0, -9.0, 0.3, 0.5)
    path = tmp_path / "d.csv"
    path.write_text("tau,L\n1.0,9.0\n")
    with pytest.raises(ValueError, match="expected header"):
        load_draws(str(path))
    with pytest.raises(ValueError):
        sample_params([], 5, seed=0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = ScenarioConfig(
        dt=0.02, modes=((20.0, 0.5, 0.0), (10.0, 1.0, 1.5)),
        draws_file="data/calibrated_draws.csv", seed=7,
    )
    path = tmp_path / "c.yaml"
    path.write_text("dt: 0.02\nmodes:\n- [20.0, 0.5, 0.0]\n- [10.0, 1.0, 1.5]\n"
                    "draws_file: data/calibrated_draws.csv\nseed: 7\n")
    assert load_config(str(path)) == cfg


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys.*n_folowers"):
        config_from_dict({"n_folowers": 3})


_INT_KEYS = ("n_followers", "ring_vehicles", "fft_modes", "n_draws", "seed")
_REAL_KEYS = ("dt", "duration", "origin_spacing", "tau", "L", "k_s", "k_v", "v_f", "v_e",
              "sample_every")


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(_INT_KEYS),
       val=st.floats(allow_nan=True) | st.booleans() | st.text(max_size=3) | st.none())
def test_config_refuses_a_non_integer_count_and_names_the_key(key, val):
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
        config_from_dict({key: val})


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(_REAL_KEYS), val=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_config_refuses_a_non_finite_real_and_names_the_key(key, val):
    with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
        config_from_dict({key: val})


def test_config_takes_integers_for_reals_and_none_where_optional():
    cfg = config_from_dict({"duration": 30, "dt": None, "origin_spacing": None, "ring_vehicles": 30})
    assert (cfg.duration, cfg.dt, cfg.origin_spacing, cfg.ring_vehicles) == (30, None, None, 30)
    with pytest.raises(ValueError, match="duration must be a number, got None"):
        config_from_dict({"duration": None})


@pytest.mark.parametrize("data, message", [
    ({"modes": None}, "modes must not be null"),
    ({"full_precision": None}, "full_precision must be true or false, got None"),
    ({"full_precision": 3}, "full_precision must be true or false, got 3"),
])
def test_config_refuses_a_null_mode_list_or_a_non_boolean_precision(data, message):
    # each used to load, then end in a TypeError or KeyError traceback
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)


@pytest.mark.parametrize("flag", ["--dt", "--duration", "--origin-spacing"])
def test_cli_refuses_a_non_finite_flag_value_by_its_key(tmp_path, capsys, flag):
    # flags override the config through ScenarioConfig, which checks them as it checks keys
    assert main(["case", "1", flag, "nan", "--out-dir", str(tmp_path)]) == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {key} must be finite, got nan\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cmd, key, val", [
    (["empirical"], "draws_file", 7),
    (["wave"], "out_dir", 5),
    (["empirical"], "leader_file", [1, 2]),
])
def test_cli_refuses_a_non_string_path_key_before_opening_a_file(tmp_path, monkeypatch, capsys,
                                                                 cmd, key, val):
    # each used to open a file descriptor (draws_file) or end in a TypeError traceback
    cfg = tmp_path / "c.yaml"
    paths = {"draws_file": str(DATA_DIR / "calibrated_draws.csv"),
             "leader_file": str(DATA_DIR / "leader_dip.csv")}
    cfg.write_text(yaml.safe_dump({**paths, key: val}))
    opened, real_open = [], builtins.open
    monkeypatch.setattr(builtins, "open",
                        lambda file, *a, **k: opened.append(file) or real_open(file, *a, **k))
    monkeypatch.chdir(tmp_path)
    assert main([*cmd, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {key} must be a string, got {val!r}\n"
    assert opened == [str(cfg)]
    assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]


def test_yaml_float_ring_vehicle_count_fails_at_load_with_the_key(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("ring_vehicles: 40.0\n")
    with pytest.raises(ValueError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}: ring_vehicles must be an integer, got 40.0"


def test_malformed_mode_rejected():
    with pytest.raises(ValueError, match="amplitude, omega, phase"):
        config_from_dict({"modes": [[1.0, 2.0]]})


@pytest.mark.parametrize("text, message", [
    # a bool and a numeric string used to be read as 1.0 and 0.5, and the
    # scalars to end in a TypeError that named no key
    ('[[true, "0.5", 0]]', "modes must be a number, got [[True, '0.5', 0]]"),
    ("[[true, 0.5, 0]]", "modes must be a number, got [[True, 0.5, 0]]"),
    ("5", "modes must be a list of [amplitude, omega, phase], got 5"),
    ("[5]", "modes must be a list of [amplitude, omega, phase], got [5]"),
    # numpy refused a ragged list with an "inhomogeneous shape" that named no key
    ("[[1, 2, [3]]]", "modes must be a number, got [[1, 2, [3]]]"),
])
def test_cli_refuses_modes_that_are_not_lists_of_numbers_by_the_key(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"modes: {text}\n")
    assert main(["wave", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_config_modes_of_integers_load_as_floats():
    assert config_from_dict({"modes": [[20, 1, 0]]}).modes == ((20.0, 1.0, 0.0),)
    assert config_from_dict({"modes": []}).modes == ()
    # the fields coerce them, so a config built without the loader holds the same tuple
    assert ScenarioConfig(modes=[[20, 1, 0]]).modes == ((20.0, 1.0, 0.0),)


def test_example_config_loads():
    path = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    cfg = load_config(str(path))
    assert cfg.n_draws == 200


def test_example_config_documents_exactly_the_config_fields():
    with open(Path(__file__).resolve().parent.parent / "configs" / "example.yaml") as fh:
        keys = set(yaml.safe_load(fh))
    assert keys == {f.name for f in dataclasses.fields(ScenarioConfig)}


# keys whose value in configs/example.yaml is an example, not the default
_EXAMPLE_VALUED_KEYS = {"modes", "draws_file", "leader_file", "out_dir"}


def test_example_config_shows_the_default_of_every_other_key():
    # the default of a key that a run leaves unset is read from every library
    # call the key feeds, and those calls must agree on it; a key that feeds
    # none, or calls that differ by subcommand (dt, origin_spacing), shows
    # ScenarioConfig's own default, which the CLI does not pass on
    s = scenarios

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    feeds = {
        "duration": [(fn, "duration") for fn in (s.oscillation_scenario, s.case_scenario, s.run_case,
                                                 s.ring_scenario, s.solve_ring, s.run_ring_validation)],
        **{f.name: [(ControlParams, f.name)] for f in dataclasses.fields(ControlParams)},
        "v_e": [(s.oscillation_scenario, "v_e")],
        "n_followers": [(s.oscillation_scenario, "n_followers"), (s.run_empirical, "n_followers")],
        "sample_every": [(s.solve_ring, "sample_every"), (s.run_ring_validation, "sample_every")],
        "ring_vehicles": [(s.ring_initial_speeds, "n_vehicles"), (s.ring_scenario, "n_vehicles"),
                          (s.solve_ring, "n_vehicles"), (s.run_ring_validation, "n_vehicles")],
        "fft_modes": [(fourier.fourier_decompose, "K")],
        "n_draws": [(sample_params, "count")],
        "seed": [(sample_params, "seed")],
    }
    unset = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
    with open(Path(__file__).resolve().parent.parent / "configs" / "example.yaml") as fh:
        shown = {k: v for k, v in yaml.safe_load(fh).items() if k not in _EXAMPLE_VALUED_KEYS}
    applied = {key: {default(fn, name) for fn, name in feeds[key]} if key in feeds else {unset[key]}
               for key in shown}
    assert {key: {val} for key, val in shown.items()} == applied


def test_config_refuses_the_removed_case_key():
    with pytest.raises(ValueError, match=r"unknown config keys: \['case'\]"):
        config_from_dict({"case": 1})


@pytest.mark.parametrize("command", ["pde", "validate"])
@pytest.mark.parametrize("key, val", [("cfl", 0.5), ("n_cells", 200)])
def test_config_refuses_the_removed_solver_keys(tmp_path, capsys, command, key, val):
    # the CFL number is a constant of the scheme, and --dx the one grid setting
    with pytest.raises(ValueError, match=rf"^unknown config keys: \['{key}'\]$"):
        config_from_dict({key: val})
    path = tmp_path / "c.yaml"
    path.write_text(f"{key}: {val}\n")
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: unknown config keys: ['{key}']\n"
    assert not (tmp_path / "out").exists()


def test_config_refuses_the_removed_baseline_speed_key(tmp_path, capsys):
    # the baseline is Newell's kinematic wave at -L/tau of the run's controller
    with pytest.raises(ValueError, match=r"^unknown config keys: \['baseline_speed'\]$"):
        config_from_dict({"baseline_speed": -5})
    path = tmp_path / "c.yaml"
    path.write_text("baseline_speed: -5\n")
    assert main(["case", "1", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: unknown config keys: ['baseline_speed']\n"
    assert not (tmp_path / "out").exists()


def test_default_out_dir_env(monkeypatch):
    monkeypatch.delenv("ACCWAVE_OUT_DIR", raising=False)
    assert dataio.default_out_dir() == "out"
    monkeypatch.setenv("ACCWAVE_OUT_DIR", "/tmp/xyz")
    assert dataio.default_out_dir() == "/tmp/xyz"


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def test_cli_simulate_without_modes_keeps_constant_spacing(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("duration: 5.0\nn_followers: 2\nmodes: []\n")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path),
               "--full-precision"])
    assert rc == 0
    trajs = ingest_trajectories(str(tmp_path / "trajectories.csv"))
    assert len(trajs) == 3
    # steady leader at v_e: every pair holds the equilibrium spacing 17 m
    for lead, fol in zip(trajs, trajs[1:]):
        assert np.allclose(lead.x - fol.x, 17.0, atol=1e-9)


def test_cli_case_pipeline_writes_all_outputs(tmp_path, capsys):
    rc = main(["case", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    for name in (
        "case1_trajectories.csv", "case1_paths_proposed.csv", "case1_paths_baseline.csv",
        "case1_stats.csv", "case1_hist_proposed.csv", "case1_hist_baseline.csv",
    ):
        assert (tmp_path / name).exists(), name
    lines = (tmp_path / "case1_stats.csv").read_text().splitlines()
    assert lines[0] == "case,method,mean,median,q1,q3,max,min"
    assert lines[1].startswith("case1,proposed,")
    assert lines[2].startswith("case1,baseline,")
    assert "case1: proposed mean" in capsys.readouterr().out


def test_cli_outputs_byte_identical_across_runs(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["case", "1", "--out-dir", str(dir_a)]) == 0
    assert main(["case", "1", "--out-dir", str(dir_b)]) == 0
    for name in ("case1_trajectories.csv", "case1_stats.csv", "case1_paths_proposed.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_cli_metrics_on_exported_trajectories(tmp_path):
    assert main(["case", "1", "--out-dir", str(tmp_path)]) == 0
    rc = main([
        "metrics", "--input", str(tmp_path / "case1_trajectories.csv"),
        "--out-dir", str(tmp_path), "--warmup", "37.5", "--end-margin", "8.0",
    ])
    assert rc == 0
    stats = (tmp_path / "stats.csv").read_text().splitlines()
    assert stats[1].startswith("custom,proposed,")


def test_metrics_on_a_case_export_writes_the_case_comparison(tmp_path):
    """`metrics` over case 1's exported trajectories, on case 1's origin
    window (README's `--warmup 37.5`), traces and pools exactly what
    `case 1` does."""
    case_dir, metrics_dir = tmp_path / "case", tmp_path / "metrics"
    assert main(["case", "1", "--full-precision", "--out-dir", str(case_dir)]) == 0
    assert main([
        "metrics", "--input", str(case_dir / "case1_trajectories.csv"),
        "--warmup", "37.5", "--end-margin", "5", "--full-precision",
        "--out-dir", str(metrics_dir),
    ]) == 0
    for name in ("paths_proposed.csv", "paths_baseline.csv", "hist_proposed.csv",
                 "hist_baseline.csv"):
        assert (metrics_dir / name).read_bytes() == (case_dir / f"case1_{name}").read_bytes(), name
    case_rows = (case_dir / "case1_stats.csv").read_text().splitlines()
    metrics_rows = (metrics_dir / "stats.csv").read_text().splitlines()
    assert metrics_rows[0] == case_rows[0]
    assert [r.split(",", 1)[1] for r in metrics_rows[1:]] == [r.split(",", 1)[1] for r in case_rows[1:]]
    assert [r.split(",", 1)[0] for r in metrics_rows[1:]] == ["custom", "custom"]


def test_pde_simulates_nothing_and_writes_the_validate_pde_field(tmp_path, monkeypatch):
    """The PDE starts from the ring's t = 0 state, which `solve_ring` builds
    without simulating; `validate` simulates the whole run for its micro
    field only, and its PDE field is the field of `pde`, byte for byte."""
    steps = []
    simulate = scenarios.simulate_platoon
    monkeypatch.setattr(scenarios, "simulate_platoon",
                        lambda sc: steps.append(round(sc.duration / sc.dt)) or simulate(sc))
    assert main(["pde", "--case", "2", "--full-precision", "--out-dir", str(tmp_path)]) == 0
    assert steps == []
    assert main(["validate", "--case", "2", "--full-precision", "--out-dir", str(tmp_path)]) == 0
    assert steps == [120]
    assert (tmp_path / "field_case2.csv").read_bytes() == (
        tmp_path / "validate_case2_pde.csv").read_bytes()


@pytest.mark.parametrize("name, value", [
    ("duration", 0.0), ("duration", -60.0), ("duration", math.nan), ("duration", math.inf),
    ("sample_every", 0.0), ("sample_every", math.nan),
    ("cell size dx", -1.0), ("cell size dx", math.nan),
])
def test_solve_ring_refuses_a_value_that_is_not_positive_and_finite(name, value):
    args = {"duration": 60.0, "sample_every": 0.5, "cell size dx": 0.5}
    args[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
        scenarios.solve_ring(2, 40, args["duration"], args["sample_every"], dx=args["cell size dx"])


_SUBCOMMANDS = {  # subcommand -> its required arguments
    "simulate": [], "wave": [], "pde": [], "metrics": ["--input", "x.csv"], "fft": ["--input", "x.csv"],
    "validate": [], "case": ["1"], "empirical": [],
}
# flags that set a config key, and the subcommands that read that key
_FLAG_READERS = {
    "--dt": {"simulate", "case", "empirical"},
    "--duration": {"simulate", "pde", "validate", "case"},
    "--seed": {"empirical"},
}


@pytest.mark.parametrize("flag", sorted(_FLAG_READERS))
def test_cli_takes_a_config_flag_only_where_its_key_is_read(flag, capsys):
    parser = build_parser()
    for command, required in _SUBCOMMANDS.items():
        argv = [command] + required + [flag, "5"]
        if command in _FLAG_READERS[flag]:
            assert parser.parse_args(argv).func is not None
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pde", "validate"])
def test_the_ring_commands_take_no_cfl_flag(command, capsys):
    # the CFL number is a constant of the solver
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--cfl", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cfl 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["case", "1"], ["metrics", "--input", "x.csv"]])
def test_case_and_metrics_take_no_baseline_speed_flag(argv, tmp_path, capsys):
    # the baseline speed is -L/tau of the run's controller
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--baseline-speed", "-5", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --baseline-speed -5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _parser_flags():
    """Each subcommand's option flags, apart from the ones every subcommand takes."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    common = {"-h", "--help", "--config", "--out-dir", "--full-precision"}
    return {name: {flag for a in sp._actions for flag in a.option_strings} - common
            for name, sp in sub.choices.items()}


def test_readme_flag_table_matches_the_parser():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    quick_start = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| (.*)\|$", quick_start, re.M)
    table = {name: set(re.findall(r"`(--[\w-]+)`", flags)) for name, flags in rows}
    assert table == _parser_flags()


def test_cli_wave_reports_stability(tmp_path, capsys):
    rc = main(["wave", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "string stability: Stable" in out
    assert (tmp_path / "bode.csv").exists()


def test_cli_fft_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "duration: 25.0\nn_followers: 2\n"
        "modes:\n  - [20.0, 0.5026548245743669, 0.0]\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path),
                 "--full-precision"]) == 0
    rc = main(["fft", "--input", str(tmp_path / "trajectories.csv"),
               "--vehicle", "0", "--modes", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "v_e = 10" in out
    assert (tmp_path / "modes.csv").exists()


def test_cli_empirical_smoke(tmp_path, capsys):
    rc = main([
        "empirical",
        "--draws", str(DATA_DIR / "calibrated_draws.csv"),
        "--leader", str(DATA_DIR / "leader_dip.csv"),
        "--n-draws", "3", "--seed", "0", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 draws" in out
    assert (tmp_path / "empirical_stats.csv").exists()


def _empirical_with(tmp_path, config):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    return main(["empirical", "--config", str(cfg),
                 "--draws", str(DATA_DIR / "calibrated_draws.csv"),
                 "--leader", str(DATA_DIR / "leader_dip.csv"),
                 "--n-draws", "2", "--seed", "0", "--out-dir", str(tmp_path)])


def test_cli_empirical_simulates_the_configured_platoon_size(tmp_path, capsys):
    counts = []
    for config in ("", "n_followers: 2\n"):
        assert _empirical_with(tmp_path, config) == 0
        m = re.search(r"^2 draws, (\d+) deviations$", capsys.readouterr().out, re.M)
        counts.append(int(m.group(1)))
    # every path crosses each follower once, so half the followers pool half the deviations
    assert counts[0] > 0 and counts[1] * 2 == counts[0]


def test_cli_empirical_refuses_a_platoon_without_followers(tmp_path, capsys):
    assert _empirical_with(tmp_path, "n_followers: 0\n") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_empirical_refuses_a_leader_file_without_vehicles(tmp_path, capsys):
    # used to end in an IndexError traceback
    leader = tmp_path / "leader.csv"
    leader.write_text("t,vehicle_id,x,v\n")
    rc = main(["empirical", "--draws", str(DATA_DIR / "calibrated_draws.csv"),
               "--leader", str(leader), "--n-draws", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {leader}: no vehicles\n"


def _sweep_inputs(n_draws, seed=3):
    leader = ingest_trajectories(str(DATA_DIR / "leader_dip.csv"))[0]
    return leader, sample_params(load_draws(str(DATA_DIR / "calibrated_draws.csv")), n_draws, seed=seed)


def test_empirical_counts_draws_from_an_iterator_and_rejects_none():
    leader, draws = _sweep_inputs(2)
    assert scenarios.run_empirical(leader, iter(draws)).n_draws == 2
    with pytest.raises(ValueError, match="no parameter draws"):
        scenarios.run_empirical(leader, iter([]))


@pytest.mark.parametrize("seed, kwargs", [
    (0, {}),
    (3, {"n_followers": 2}),
    (5, {}),
    (11, {"n_followers": 2, "origin_spacing": 1.5}),
])
def test_empirical_pooled_draw_by_draw_equals_the_pool_of_all_paths(seed, kwargs):
    leader, draws = _sweep_inputs(4, seed)
    got = scenarios.run_empirical(leader, iter(draws), **kwargs)
    want = oracles.pooled_empirical(leader, draws, **kwargs)
    assert got.proposed_stats == want.proposed_stats
    assert got.baseline_stats == want.baseline_stats
    assert (got.n_deviations, got.n_draws) == (want.n_deviations, want.n_draws)


def test_empirical_simulates_a_repeated_draw_once_and_pools_it_each_time(monkeypatch):
    leader, (a, b) = _sweep_inputs(2, seed=0)
    assert a != b
    draws = [a, b, a, dataclasses.replace(a)]  # the same object twice, then an equal copy
    kwargs = {"n_followers": 2, "origin_spacing": 15.0}
    want = oracles.pooled_empirical(leader, draws, **kwargs)
    calls = []

    def spy(sc):
        calls.append(sc.params)
        return simulate_platoon(sc)

    monkeypatch.setattr(scenarios, "simulate_platoon", spy)
    got = scenarios.run_empirical(leader, draws, **kwargs)
    assert len(calls) == len(set(calls)) == 2  # each distinct draw simulated once
    assert got.proposed_stats == want.proposed_stats
    assert got.baseline_stats == want.baseline_stats
    assert (got.n_deviations, got.n_draws) == (want.n_deviations, want.n_draws)


def _sweep_peak_bytes(leader, draws):
    tracemalloc.start()
    try:
        scenarios.run_empirical(leader, draws)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_empirical_peak_memory_does_not_grow_with_the_draw_count():
    # each draw's paths are released once its deviations are pooled; keeping
    # them all grows the peak by about 0.08 MB per draw
    leader, draws = _sweep_inputs(16)
    scenarios.run_empirical(leader, draws[:1])  # warm any first-call allocations
    growth = _sweep_peak_bytes(leader, draws) - _sweep_peak_bytes(leader, draws[:4])
    assert growth < 0.25e6


class _Stop(Exception):
    pass


def _effective(fn, *args, **kwargs) -> dict:
    """Every argument `fn` runs with when called with `args` and `kwargs`,
    its own defaults included."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


@pytest.mark.parametrize("argv, config, expected", [
    ([], "", (0.05, 2.0)),
    (["--dt", "0.01"], "", (0.01, 2.0)),
    ([], "origin_spacing: 1.0\n", (0.05, 1.0)),
    (["--dt", "0.02"], "dt: 0.01\norigin_spacing: 3.0\n", (0.02, 3.0)),
])
def test_cli_empirical_runs_explicit_dt_and_spacing_as_given(tmp_path, monkeypatch, argv, config, expected):
    from accwave import cli

    seen = []

    def spy(leader, draws, **kwargs):
        run = _effective(scenarios.run_empirical, leader, draws, **kwargs)
        seen.append((run["dt"], run["origin_spacing"]))
        raise _Stop

    monkeypatch.setattr(cli, "run_empirical", spy)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    with pytest.raises(_Stop):
        main(["empirical", "--config", str(cfg), "--draws", str(DATA_DIR / "calibrated_draws.csv"),
              "--leader", str(DATA_DIR / "leader_dip.csv"), "--n-draws", "1",
              "--out-dir", str(tmp_path)] + argv)
    assert seen == [expected]


def test_cli_other_subcommands_default_to_fine_dt_and_spacing(tmp_path, monkeypatch):
    from accwave import cli

    seen = []

    def spy(case, **kwargs):
        run = _effective(scenarios.run_case, case, **kwargs)
        seen.append((run["dt"], run["origin_spacing"]))
        raise _Stop

    monkeypatch.setattr(cli, "run_case", spy)
    with pytest.raises(_Stop):
        main(["case", "1", "--out-dir", str(tmp_path)])
    assert seen == [(0.01, 1.0)]


def test_cli_bad_config_key_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("no_such_key: 1\n")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_cli_refuses_a_config_that_is_not_yaml(tmp_path, capsys):
    # used to end in a yaml.parser.ParserError traceback
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("dt: [0.1\n")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spacing", ["0", "-1"])
@pytest.mark.parametrize("command", ["case 1", "case 4", "metrics"])
def test_cli_refuses_an_origin_spacing_that_is_not_positive(tmp_path, capsys, command, spacing):
    # 0 used to end in a ZeroDivisionError traceback; -1 in a misleading error
    argv = command.split()
    if command == "metrics":
        path = tmp_path / "t.csv"
        write_trajectories(str(path), _small_run(duration=20.0))
        argv += ["--input", str(path), "--end-margin", "1"]
    rc = main(argv + ["--origin-spacing", spacing, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error: origin spacing must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("dx", ["0", "-1", "nan", "inf"])
def test_cli_pde_refuses_a_cell_size_that_is_not_positive_and_finite(tmp_path, capsys, dx):
    # 0 used to end in a ZeroDivisionError traceback, -1 to solve on 4 cells
    rc = main(["pde", "--dx", dx, "--duration", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error: cell size dx must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "field_case1.csv").exists()


@pytest.mark.parametrize("sample_every", ["0", "-1"])
@pytest.mark.parametrize("command", ["pde", "validate"])
def test_cli_refuses_a_sample_interval_that_is_not_positive(tmp_path, capsys, command, sample_every):
    # 0 used to end in a ZeroDivisionError traceback, -1 to write a field of 0 snapshots
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"sample_every: {sample_every}\n")
    rc = main([command, "--config", str(cfg), "--duration", "2", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error: sample_every must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flag, value", [("--warmup", "-5"), ("--warmup", "nan"), ("--end-margin", "-5")])
def test_cli_metrics_refuses_a_negative_or_nan_window_margin(tmp_path, capsys, flag, value):
    # used to fail with "origin time outside the lead trajectory" or numpy's arange error
    path = tmp_path / "t.csv"
    write_trajectories(str(path), _small_run(duration=20.0))
    rc = main(["metrics", "--input", str(path), flag, value, "--out-dir", str(tmp_path)])
    assert rc == 2
    name = flag[2:].replace("-", " ")
    assert f"error: {name} must be non-negative, got {float(value)}" in capsys.readouterr().err


# each used to end in an OSError traceback
def test_cli_refuses_a_directory_as_input(tmp_path, capsys):
    rc = main(["metrics", "--input", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_cli_refuses_an_out_dir_that_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["wave", "--out-dir", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert taken.read_text() == ""
