"""Golden outputs: every file and the stdout of a fixed set of CLI runs,
hashed (sha256) and compared with the committed `tests/golden.json`.

The runs are in-process `cli.main` calls at default precision, each with
an output directory of its own; stdout is hashed with the temporary
directory's path replaced by `<tmp>`.  A change that moves an output on
purpose regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py

and names the files that moved, with their before and after values, in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from accwave.cli import main
from accwave.dataio import load_config, load_draws, sample_params
from accwave.microsim import OscillationSpec, Scenario, simulate_platoon
from accwave.model import ControlParams
from accwave.waves import StabilityClass, string_stability_class

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
RECORDED = "recorded.csv"    # written by `_write_recorded` into the temporary directory
UNSTABLE = "unstable.yaml"   # written by `_write_unstable` into the temporary directory

_EMPIRICAL_INPUTS = ["--draws", str(ROOT / "data" / "calibrated_draws.csv"),
                     "--leader", str(ROOT / "data" / "leader_dip.csv")]
# run name -> argv, without --out-dir; RECORDED and UNSTABLE stand for their files' paths
RUNS = {
    **{f"case{c}": ["case", str(c)] for c in (1, 2, 3, 4)},
    **{f"validate{c}": ["validate", "--case", str(c)] for c in (1, 2, 3)},
    # a duration that is not a whole number of 0.5 s samples: the ring runs at 0.01 s
    "validate2_offgrid": ["validate", "--case", "2", "--duration", "30.25"],
    "pde": ["pde", "--case", "1", "--dx", "0.25", "--config", str(ROOT / "bench" / "ring_pde.yaml")],
    "empirical": ["empirical", "--config", str(ROOT / "bench" / "sweep.yaml"), *_EMPIRICAL_INPUTS],
    "simulate": ["simulate", "--config", str(ROOT / "configs" / "example.yaml")],
    "wave": ["wave", "--config", str(ROOT / "configs" / "example.yaml")],
    "wave_unstable": ["wave", "--config", UNSTABLE],
    "metrics": ["metrics", "--input", RECORDED, "--warmup", "20", "--origin-spacing", "4",
                "--end-margin", "15"],
    **{f"fft{v}": ["fft", "--input", RECORDED, "--vehicle", str(v), "--modes", "3"]
       for v in (0, 3, 6, 8)},
}


def _write_recorded(path: str) -> None:
    """A small recorded-style file: 8 followers behind a seeded three-mode
    leader, 90 s at 0.1 s, written as t,vehicle_id,x,v with fixed decimals."""
    rng = np.random.default_rng(7)
    samples, dt = 900, 0.1
    omegas = 2.0 * math.pi * np.array([3, 5, 8]) / (samples * dt)
    modes = tuple((float(rng.uniform(0.4, 1.2)) / om, float(om), float(rng.uniform(-math.pi, math.pi)))
                  for om in omegas)
    sc = Scenario(params=ControlParams(), n_followers=8, leader=OscillationSpec(v_e=10.0, modes=modes),
                  duration=(samples - 1) * dt, dt=dt)
    trajs = simulate_platoon(sc).trajectories
    with open(path, "w", newline="") as fh:
        fh.write("t,vehicle_id,x,v\n")
        for k in range(samples):
            for tr in trajs:
                fh.write(f"{k * dt:.1f},{tr.vehicle_id},{tr.x[k]:.4f},{tr.v[k]:.6f}\n")


def _write_unstable(path: str) -> None:
    """A config with the controller of the first calibrated draw, which is
    string-unstable."""
    d = load_draws(_EMPIRICAL_INPUTS[1])[0]
    Path(path).write_text(f"tau: {d.tau!r}\nL: {d.L!r}\nk_s: {d.k_s!r}\nk_v: {d.k_v!r}\n")


# each input file a run reads from the temporary directory, and its writer
INPUTS = {RECORDED: _write_recorded, UNSTABLE: _write_unstable}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(name: str, tmp: str) -> dict:
    """Run `name` into its own directory under `tmp`; the sha256 of its
    stdout and of each file it wrote, by "<run>/<file>"."""
    out = os.path.join(tmp, name)
    argv = [os.path.join(tmp, a) if a in INPUTS else a for a in RUNS[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out-dir", out]) == 0, name
    got = {f"{name}/<stdout>": _sha256(stdout.getvalue().replace(tmp, "<tmp>").encode())}
    for file in sorted(os.listdir(out)):
        got[f"{name}/{file}"] = _sha256(Path(out, file).read_bytes())
    return got


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("golden"))
    for file, write in INPUTS.items():
        write(os.path.join(tmp, file))
    return tmp


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_the_golden_digests(name, run_dir):
    golden = json.loads(GOLDEN.read_text())
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert want, f"{name} has no golden digests; regenerate {GOLDEN.name}"
    assert _digests(name, run_dir) == want


def test_golden_digests_name_only_these_runs():
    assert {k.split("/")[0] for k in json.loads(GOLDEN.read_text())} == set(RUNS)


def test_golden_unstable_wave_run_is_string_unstable(run_dir):
    cfg = load_config(os.path.join(run_dir, UNSTABLE))
    assert string_stability_class(cfg.params()).classification is StabilityClass.UNSTABLE


def test_golden_empirical_run_repeats_a_draw():
    # `run_empirical` reuses a repeated draw's deviations, so the golden sweep
    # must resample at least one draw twice for its digests to cover that path
    cfg = load_config(str(ROOT / "bench" / "sweep.yaml"))
    draws = sample_params(load_draws(_EMPIRICAL_INPUTS[1]), cfg.n_draws, cfg.seed)
    assert len(set(draws)) < len(draws)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for file, write in INPUTS.items():
            write(os.path.join(tmp, file))
        digests = {k: v for name in RUNS for k, v in _digests(name, tmp).items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
