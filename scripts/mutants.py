#!/usr/bin/env python3
"""Mutant catalogue: check that the tier-1 tests pin the behaviour.

Each mutant replaces one piece of text, found exactly once, in one file of
the package.  The mutants are applied one at a time to a temporary copy of
the repository's sources and tests (and the data, configs and docs the tests
read), and the tier-1 suite runs on it with -x.  A mutant the suite fails
on, or runs past the time limit on, is killed; one it passes survives.
The unmutated copy runs first and must pass, or every mutant would look
killed.

MUTANTS must all be killed.  EQUIVALENT lists mutants that change no
behaviour the suite can see, each with the reason; they are not run, only
checked to still apply.  The script exits 1 when a mutant in MUTANTS
survives, when the unmutated copy fails, or when a mutant's text, in
either list, is not found exactly once (the code moved and the catalogue
must follow).

A change that deletes or replaces code adds mutants for the behaviour it
keeps; one that adds a fast path adds a mutant that breaks it against its
oracle.

Usage:  python3 scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# what the tests read: the package, the tests, and the files they open
COPIED = ("src", "tests", "bench", "configs", "data", "README.md", "pyproject.toml")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT = 300  # seconds; a mutant that hangs the suite counts as killed


class Mutant(NamedTuple):
    file: str   # relative to the repository root
    old: str
    new: str
    reason: str


MUTANTS = [
    Mutant("src/accwave/tracker.py",
           "    return v_lead - params.k_v * s * engaged(s, v_fol, params)",
           "    return v_lead + params.k_v * s * engaged(s, v_fol, params)",
           "the pair wave speed W = v_lead - k_v s, with the sign of its gain term flipped"),
    Mutant("src/accwave/tracker.py",
           "np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))",
           "np.cumsum(w[:-1] * np.diff(t))",
           "the pair table integrates its speed by the left rectangle rule, not the trapezoid"),
    Mutant("src/accwave/microsim.py",
           "shift = np.exp(-2j * np.pi",
           "shift = np.exp(2j * np.pi",
           "each ring mode couples to the vehicle behind, not the one ahead"),
    Mutant("src/accwave/pde.py",
           "CFL = 0.5  #",
           "CFL = 0.45  #",
           "the ring PDE takes smaller steps than the documented CFL number"),
    Mutant("src/accwave/metrics.py",
           "    return np.array([b - a for p in paths",
           "    return np.array([a - b for p in paths",
           "the deviations are pooled with their sign flipped"),
    Mutant("src/accwave/model.py",
           "    return (s <= params.s_c) | (abs(v - params.v_f) > params.eps_v)",
           "    return (s < params.s_c) | (abs(v - params.v_f) > params.eps_v)",
           "a spacing of exactly s_c counts as free flow, not engaged"),
    Mutant("src/accwave/waves.py",
           "    D = k_s * (k_s * params.tau**2",
           "    D = -k_s * (k_s * params.tau**2",
           "string stability reads the sign of D, the DC curvature of |G|, flipped"),
    Mutant("src/accwave/dataio.py",
           "_WINDOW_TIMES = 256",
           "_WINDOW_TIMES = 255",
           "the trajectory export windows are one sample time short of the documented 256"),
    Mutant("src/accwave/microsim.py",
           "_TAYLOR_DEGREE = 14",
           "_TAYLOR_DEGREE = 12",
           "the step maps' Taylor series stops short of round-off at the scaling norm"),
    Mutant("src/accwave/microsim.py",
           "fol.t[first:stop + 1], fol.x[first:stop + 1], fol.v[first:stop + 1]",
           "fol.t[first:stop], fol.x[first:stop], fol.v[first:stop]",
           "a pair's knots drop the window end when it is a follower sample"),
    Mutant("src/accwave/microsim.py",
           "if t_star is not None and t_star > max(lead.t0, fol.t0):",
           "if t_star is not None and t_star >= max(lead.t0, fol.t0):",
           "a pair at or below s_c at the start of its window gives an engagement event"),
    Mutant("src/accwave/microsim.py",
           "    if k == 0:\n        return t_lo\n",
           "    if k == 0:\n        return None\n",
           "gap_reach finds no reach for a pair already at or below the level at its window start"),
    Mutant("src/accwave/microsim.py",
           "    if t.item(0) > t_lo:\n        t = np.insert(t, 0, t_lo)",
           "    if False:\n        t = np.insert(t, 0, t_lo)",
           "gap_reach starts a pair on vehicles on different clocks at the follower's first sample, not at t_lo"),
]

EQUIVALENT = [
    Mutant("src/accwave/tracker.py",
           "_FIRST_WINDOW = 128",
           "_FIRST_WINDOW = 64",
           "a pure speed constant: the crossing search compares the same knots in more windows"),
]


def _run(work: Path) -> str:
    """'passed', 'failed' or 'timed out' for tier-1 on the copy in `work`."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(TIER1, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def _stale(n: int, mutant: Mutant, text: str) -> bool:
    """Whether the mutant's text is not found exactly once in `text` (reported)."""
    found = text.count(mutant.old)
    if found != 1:
        print(f"{n:2d} STALE    {mutant.file}: the text is found {found} times, "
              f"not once: {mutant.old!r}", flush=True)
    return found != 1


def main() -> int:
    bad = 0
    for n, mutant in enumerate(EQUIVALENT, len(MUTANTS) + 1):
        if _stale(n, mutant, (ROOT / mutant.file).read_text()):
            bad += 1
        else:
            print(f"{n:2d} allowed  {mutant.file} (not run): {mutant.reason}", flush=True)
    with tempfile.TemporaryDirectory(prefix="accwave-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, work / name)
        start = time.monotonic()
        outcome = _run(work)
        print(f"unmutated: {outcome} ({time.monotonic() - start:.0f} s)", flush=True)
        if outcome != "passed":
            return 1
        for n, mutant in enumerate(MUTANTS, 1):
            path = work / mutant.file
            text = path.read_text()
            if _stale(n, mutant, text):
                bad += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new))
            start = time.monotonic()
            try:
                outcome = _run(work)
            finally:
                path.write_text(text)
            if outcome == "passed":
                verdict, bad = "SURVIVED", bad + 1
            else:
                verdict = "killed"
            print(f"{n:2d} {verdict:8s} {mutant.file} ({outcome}, {time.monotonic() - start:.0f} s): "
                  f"{mutant.reason}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
