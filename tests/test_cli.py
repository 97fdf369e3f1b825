"""Tests for CSV import/export, configs, draws, and the CLI front end."""

import csv
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accwave import dataio
from accwave.cli import main
from accwave.dataio import (
    ParamSample,
    ScenarioConfig,
    config_from_dict,
    ingest_trajectories,
    load_config,
    load_draws,
    sample_params,
    save_config,
    write_trajectories,
)
from accwave import scenarios
from accwave.microsim import Cruise, LeaderProfile, Scenario, simulate_platoon
from accwave.model import ControlParams
from accwave.pde import EulerianField, Grid

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
    """Write a valid two-vehicle file with one row spoiled; ingest must name it."""
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
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.csv")
        with open(path, "w") as fh:
            fh.write("t,vehicle_id,x,v,a\n" + "".join(",".join(r) + "\n" for r in rows))
        # data row i is line i + 2 of the file, after the header
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: .*\brow {i + 2}\b"):
            ingest_trajectories(path)


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
    LF or CRLF, blank lines, and ids written as `1`, `+1` or ` 1 `."""
    has_a = draw(st.booleans(), label="has_a")
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
        fast, want = dataio._ingest_block(path), dataio._ingest_rows(path)
        assert fast is not None   # the file is valid, so the block parse takes it
        assert _same_trajectories(fast, want)
        assert _same_trajectories(ingest_trajectories(path), want)


_TWO_SAMPLES = "t,vehicle_id,x,v,a\n0.0,0,0.0,10.0,0.0\n0.1,0,1.0,10.0,0.0\n"


@pytest.mark.parametrize("vid", ["1.0", "1e0"])
def test_ingest_refuses_a_real_vehicle_id(tmp_path, vid):
    path = tmp_path / "id.csv"
    path.write_text(_TWO_SAMPLES + f"0.0,{vid},5.0,10.0,0.0\n")
    msg = f"{path}: malformed row 4: ['0.0', '{vid}', '5.0', '10.0', '0.0']"
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
    assert dataio._ingest_block(str(quoted)) is None   # left to the row parser
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
        case=3, dt=0.02, modes=((20.0, 0.5, 0.0), (10.0, 1.0, 1.5)),
        draws_file="data/calibrated_draws.csv", seed=7,
    )
    path = tmp_path / "c.yaml"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys.*n_folowers"):
        config_from_dict({"n_folowers": 3})


_INT_KEYS = ("case", "n_followers", "n_cells", "ring_vehicles", "fft_modes", "n_draws", "seed")
_REAL_KEYS = ("dt", "duration", "origin_spacing", "baseline_speed", "tau", "L", "k_s", "k_v",
              "v_f", "v_e", "cfl", "sample_every")


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
    cfg = config_from_dict({"duration": 30, "dt": None, "baseline_speed": None, "n_cells": 100})
    assert (cfg.duration, cfg.dt, cfg.n_cells) == (30, None, 100)
    with pytest.raises(ValueError, match="duration must be a number, got None"):
        config_from_dict({"duration": None})


def test_yaml_float_cell_count_fails_at_load_with_the_key(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("n_cells: 200.0\n")
    with pytest.raises(ValueError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}: n_cells must be an integer, got 200.0"


def test_malformed_mode_rejected():
    with pytest.raises(ValueError, match="amplitude, omega, phase"):
        config_from_dict({"modes": [[1.0, 2.0]]})


def test_example_config_loads():
    path = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    cfg = load_config(str(path))
    assert cfg.n_draws == 200


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


def _sweep_inputs(n_draws):
    leader = ingest_trajectories(str(DATA_DIR / "leader_dip.csv"))[0]
    return leader, sample_params(load_draws(str(DATA_DIR / "calibrated_draws.csv")), n_draws, seed=3)


def test_empirical_batches_give_the_per_draw_result(monkeypatch):
    leader, draws = _sweep_inputs(5)
    calls = []

    def counting(sc):
        calls.append(len(sc.run_params))
        return simulate_platoon(sc)

    monkeypatch.setattr(scenarios, "simulate_platoon", counting)
    per_run = 5 * (round(leader.t_end / 0.05) + 1) * 3 * 8  # leader + 4 followers
    results = []
    for budget, batches in ((1, [1] * 5), (2 * per_run, [2, 2, 1]), (scenarios._BATCH_BYTES, [5])):
        monkeypatch.setattr(scenarios, "_BATCH_BYTES", budget)
        calls.clear()
        results.append(scenarios.run_empirical(leader, draws))
        assert calls == batches
    assert results[0] == results[1] == results[2]
    assert results[0].n_draws == 5


def test_empirical_counts_draws_from_an_iterator_and_rejects_none():
    leader, draws = _sweep_inputs(2)
    assert scenarios.run_empirical(leader, iter(draws)).n_draws == 2
    with pytest.raises(ValueError, match="no parameter draws"):
        scenarios.run_empirical(leader, iter([]))


class _Stop(Exception):
    pass


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
        seen.append((kwargs["dt"], kwargs["origin_spacing"]))
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
        seen.append((kwargs["dt"], kwargs["origin_spacing"]))
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
