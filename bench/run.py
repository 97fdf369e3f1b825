"""Benchmark of the accwave CLI.

    python3 bench/run.py --workload cases --seed 1 --seconds 15 --trace 0

Each workload (see workloads.py) drives `accwave.cli.main(argv)` in this
one single-threaded process and checks every output.  A pass runs all of
a workload's CLI invocations once; after one warm-up pass the run repeats
passes for --seconds.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters that import accwave and make the inputs), wall_s (median
seconds per warm pass) and peak_rss_mb.  --trace 1 alternates untraced
passes with passes in which spans.py wraps the library's public functions
from outside, and reports the per-layer metrics instead.  The metric
names and units come from BENCHMARK.json.  `--workload all` runs every
workload in its own process and prints one table.

The last line of stdout is the JSON result; the lines above it record
the environment, the effective inputs and the pass-time quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cases", "sweep", "ring", "recorded")
SETUP_PROBES = 5


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import yaml

    cpu, caches = None, {}
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        cache_dir = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache_dir)):
            if index.startswith("index"):
                fields = []
                for f in ("level", "type", "size"):
                    with open(os.path.join(cache_dir, index, f)) as fh:
                        fields.append(fh.read().strip())
                caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "pyyaml": yaml.__version__,
        "nproc": nproc, "cpu": cpu, "caches": caches, "commit": _git_commit(), "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(workload: str, seed: int, base_dir: str) -> list:
    """Seconds from spawning a fresh interpreter to `ready`, SETUP_PROBES times."""
    times = []
    for _ in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(prefix="probe-", dir=base_dir)
        try:
            t0 = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload, str(seed), probe_dir],
                stdout=subprocess.PIPE, text=True,
            ) as proc:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                proc.stdout.read()
                proc.wait(timeout=120)
            if proc.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def run_unit(cli, unit):
    """Run one CLI invocation; returns (ok, captured stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(unit.argv))
    except Exception:  # a unit that raises counts as failed; the run goes on
        traceback.print_exc()
        return False, buf.getvalue()
    if rc != 0:
        print(f"bench: {unit.name} exited with {rc}", file=sys.stderr)
    return rc == 0, buf.getvalue()


def run_pass(cli, units):
    t0, c0 = time.perf_counter(), time.process_time()
    results = [run_unit(cli, u) for u in units]
    return time.perf_counter() - t0, time.process_time() - c0, results


def _digest(out_dir: str, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Checks each unit's outputs on its first success, then requires
    byte-identical outputs (files and stdout) on every later pass."""

    def __init__(self) -> None:
        self.reference = {}

    def failures(self, units, results) -> int:
        failed = 0
        for unit, (ok, stdout) in zip(units, results):
            if ok:
                digest = _digest(unit.out_dir, stdout)
                if unit.name not in self.reference:
                    try:
                        problems = unit.check(unit.out_dir, stdout)
                    except Exception as exc:  # unreadable or malformed output
                        problems = [f"output check raised {exc!r}"]
                    for p in problems:
                        print(f"bench: {unit.name}: {p}", file=sys.stderr)
                    self.reference[unit.name] = (digest, not problems)
                ref_digest, ref_ok = self.reference[unit.name]
                if digest != ref_digest:
                    print(f"bench: {unit.name}: output differs from the first pass", file=sys.stderr)
                ok = ref_ok and digest == ref_digest
            failed += not ok
        return failed


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _declared(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _result(failed: int, attempted: int, values: dict, key: str) -> dict:
    """Final JSON line; the metric set must be exactly the one BENCHMARK.json declares."""
    units = _declared(key)
    if set(units) != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {key}: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(args, nproc: int) -> dict:
    if not os.path.isfile(os.path.join(SRC, "accwave", "cli.py")):
        raise SystemExit(f"bench: no accwave sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    from accwave import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported accwave from {cli.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    base_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(base_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base_dir)
    try:
        setup_times = None if args.trace else measure_setup(wl.name, args.seed, base_dir)
        setup = wl.setup(args.seed, run_dir)
        print(f"workload {wl.name}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
        print("environment: " + json.dumps(environment(nproc, args.seed)))
        print("inputs: " + json.dumps(setup.inputs))
        if args.trace:
            return traced_run(cli, wl, setup.units, args.seconds)
        return untraced_run(cli, setup.units, args.seconds, setup_times)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def untraced_run(cli, units, seconds: float, setup_times) -> dict:
    checker = Checker()
    _, _, results = run_pass(cli, units)   # warm-up
    failed, attempted = checker.failures(units, results), len(units)
    walls, cpus = [], []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        wall, cpu, results = run_pass(cli, units)
        failed += checker.failures(units, results)
        attempted += len(units)
        walls.append(wall)
        cpus.append(cpu)
    q1, med, q3 = _quartiles(walls)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": med,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"setup_s     {values['setup_s']:.4f} s  (median of {len(setup_times)} fresh interpreters: "
          + ", ".join(f"{t:.4f}" for t in setup_times) + ")")
    print(f"wall_s      {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}; {len(walls)} warm passes of "
          f"{len(units)} units; cpu {statistics.median(cpus):.4f} s per pass)")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {failed / attempted:.4f}  ({failed} of {attempted} units)")
    return _result(failed, attempted, values, "end_to_end")


def traced_run(cli, wl, units, seconds: float) -> dict:
    import spans

    tracer = spans.Tracer()
    checker = Checker()
    _, _, results = run_pass(cli, units)   # warm-up
    failed, attempted = checker.failures(units, results), len(units)
    plain_walls, plain_cpus, traced_walls, per_pass = [], [], [], []
    t_start = time.perf_counter()
    while not per_pass or time.perf_counter() - t_start < seconds:
        wall, cpu, results = run_pass(cli, units)
        failed += checker.failures(units, results)
        plain_walls.append(wall)
        plain_cpus.append(cpu)
        tracer.pass_id += 1
        tracer.install()
        try:
            wall, _, results = run_pass(cli, units)
        finally:
            tracer.remove()
        failed += checker.failures(units, results)
        attempted += 2 * len(units)
        traced_walls.append(wall)
        per_pass.append(tracer.pass_metrics(tracer.pass_id, wall))
    values = spans.combine(per_pass)
    spans.check_exercised(values, wl.exercises)
    values["proc.cpu_s"] = statistics.median(plain_cpus)
    values["proc.wall_s"] = statistics.median(plain_walls)
    values["trace.wall_s"] = statistics.median(traced_walls)
    # each traced pass runs right after an untraced one; pairing them cancels slow host drift
    values["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced_walls, plain_walls)) - 1.0
    print(f"layer shares of a traced pass ({len(per_pass)} traced, {len(plain_walls)} untraced passes):")
    for layer in spans.LAYERS + ("untraced",):
        print(f"  {layer:<9} {values[layer + '.share']:7.3f}")
    print(f"trace.overhead_frac {values['trace.overhead_frac']:.4f}; failed {failed} of {attempted} units")
    return _result(failed, attempted, values, "per_layer")


def run_all(args) -> int:
    """Run every workload in its own process; print one table of their metrics."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
        rows.append((name, res))
    print()
    for name, res in rows:
        cells = [f"{m} {v['value']:.4g} {v['unit']}" for m, v in res["metrics"].items()]
        if not args.trace:
            cells.append(f"failed_frac {res['failed'] / res['attempted']:.4g}")
        print(f"{name:<9} " + "  ".join(cells))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc = _cap_threads()
    os.environ.pop("ACCWAVE_OUT_DIR", None)
    result = run_workload(args, nproc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
