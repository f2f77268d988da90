#!/usr/bin/env python3
"""choreocert benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. Workloads
(see workloads.py): bounds_family, certify_scan, refine_study, cli_pipeline.

The load is a closed loop with one caller: each item waits for the previous
one. A repetition is one pass over a workload's items; repetition i draws its
inputs from (seed, i). BLAS/OpenMP pools are pinned to one thread in this
process and its children, so every figure is a single-threaded baseline.

End-to-end times are in reference seconds (calibrate.py): on a shared host
the speed of the same code drifts by up to 60% within seconds, so a fixed
calibration unit runs between items and each repetition's times are scaled
by REFERENCE_S over its median unit time. The plain-seconds wall and the unit
times are printed as '# ' lines; per-layer self_s stays in plain seconds.

--trace 0 measures the end-to-end metrics with tracing off: setup_s (median of
seven fresh interpreters importing the package, warming the kernels and
drawing inputs, each scaled by units it times afterwards), wall_s (median
repetition), item_ms_p50/p90 (nearest rank over all items of the run),
peak_rss_mb and ok_ratio (items passing every correctness gate over items
attempted; 1 - failed_ratio). Repetition 0 runs once untimed first, with the
costly gates, and its outputs must match the timed repetition 0 byte for byte.

--trace 1 repeats repetition 0: once to warm up, then alternating traced
(spans.py) and untraced, so both see the same machine. It reports per-layer
metrics per repetition (median over the traced repetitions), the worst
finest-level ODE residual and trace.overhead_ratio (traced over untraced
wall time). It fails the run when a binding escaped the wrappers, a
repetition's outputs differ from repetition 0's, or a layer's call count
breaks the workload's bypass prediction.

stdout: '# ' lines (a table, then '# env {...}' with backend, versions, core
count and seed), then one JSON line: correct, attempted, failed, metrics.
Exit code 2 without a result when the sources are missing.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CAL_GAP_S = 0.1  # at most this much work between two calibration units

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_ms_p50": "ms", "item_ms_p90": "ms",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]))
elapsed = time.perf_counter() - t0
import calibrate
print(elapsed, *sorted(calibrate.unit() for _ in range(3)))
"""


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    package = SRC / "choreocert"
    if not (package / "__init__.py").is_file():
        die(f"no choreocert sources at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import choreocert

    if Path(choreocert.__file__).resolve().parent != package.resolve():
        die(f"imported choreocert from {choreocert.__file__}, not from {package}")
    return choreocert


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, in reference seconds.

    Each interpreter times three calibration units right after its set-up
    and is scaled by their median.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, _, unit, _ = map(float, done.stdout.split())
        times.append(elapsed * calibrate.REFERENCE_S / unit)
    return times


class Runner:
    """Runs repetitions of one workload in a scratch directory of the checkout."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.workdir = scratch / "rep"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # every failed gate, one line each
        self.raw_wall = 0.0             # last repetition's wall in plain seconds
        self.unit_s: list[float] = []   # every calibration unit timed
        self.notes: list[str] = []      # printed as '# ' lines

    def repetition(self, inputs, tracer=None):
        """(repetition wall, per-item times, outputs), times in reference seconds.

        A calibration unit runs before the first item, after the last and
        between items once CAL_GAP_S has passed since the previous unit; all
        items are scaled by the median unit time of the repetition. The wall is
        the sum of the items, calibration excluded. An item that raises is a
        failed item: its exception is its output.
        """
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir()
        units, times, outs = [calibrate.unit()], [], []
        last = time.perf_counter()
        for label, call in self.workload.steps(inputs, self.workdir):
            span = tracer.open(f"item {label}") if tracer else None
            t0 = time.perf_counter()
            try:
                outs.append(call())
            except Exception as exc:  # the item failed; the run goes on
                traceback.print_exc()
                outs.append(exc)
            t1 = time.perf_counter()
            times.append(t1 - t0)
            if tracer:
                tracer.close(span)
            if t1 - last >= CAL_GAP_S:
                units.append(calibrate.unit())
                last = time.perf_counter()
        if t1 > last:
            units.append(calibrate.unit())
        self.unit_s.extend(units)
        self.raw_wall = sum(times)
        scale = calibrate.REFERENCE_S / statistics.median(units)
        return self.raw_wall * scale, [t * scale for t in times], outs

    def gate(self, tag: str, inputs, outs, deep: bool) -> bool:
        """Count failed items; False when an item raised (its outputs are partial)."""
        failed = {k: f"raised {out!r}" for k, out in enumerate(outs)
                  if isinstance(out, Exception)}
        if not failed:
            failed = self.workload.check(inputs, outs, self.workdir, deep)
        self.attempted += len(outs)
        self.failed += len(failed)
        self.problems += [f"{tag} item {k}: {reason}" for k, reason in failed.items()]
        return not any(isinstance(out, Exception) for out in outs)

    def digest(self, inputs, outs) -> str:
        return hashlib.sha256(self.workload.serialize(inputs, outs, self.workdir)).hexdigest()

    def loop(self, seconds: float, draw, body, min_calls: int = 1) -> None:
        """Call body(i, inputs) until the next call would likely overrun `seconds`."""
        start = time.perf_counter()
        i = 0
        while True:
            body(i, draw(i))
            i += 1
            elapsed = time.perf_counter() - start
            if i >= min_calls and elapsed + elapsed / i > seconds:
                return


def end_to_end(runner: Runner, args) -> dict:
    from workloads import rng_for

    w, seed = runner.workload, args.seed
    setup = measure_setup(w.name, seed)

    inputs0 = w.draw(rng_for(seed, 0))
    _, _, outs = runner.repetition(inputs0)
    complete = runner.gate("untimed repetition 0", inputs0, outs, deep=True)
    reference = runner.digest(inputs0, outs) if complete else None

    walls, raw_walls, items = [], [], []

    def body(i, inputs):
        wall, times, outs = runner.repetition(inputs)
        walls.append(wall)
        raw_walls.append(runner.raw_wall)
        items.extend(times)
        complete = runner.gate(f"repetition {i}", inputs, outs, deep=False)
        if i == 0 and (not complete or runner.digest(inputs, outs) != reference):
            runner.problems.append("determinism: repetition 0 outputs differ between two runs")

    runner.loop(args.seconds, lambda i: w.draw(rng_for(seed, i)), body)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = 1.0 - runner.failed / runner.attempted
    runner.notes.append(f"wall_s in plain seconds: median {statistics.median(raw_walls):.6g}")
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), len(walls)),
        "item_ms_p50": (1e3 * nearest_rank(items, 0.5), len(items)),
        "item_ms_p90": (1e3 * nearest_rank(items, 0.9), len(items)),
        "peak_rss_mb": (peak, 1),
        "ok_ratio": (ok, runner.attempted),
    }


def per_layer(runner: Runner, args) -> dict:
    import spans
    from workloads import rng_for

    w = runner.workload
    inputs = w.draw(rng_for(args.seed, 0))
    tracer = spans.Tracer()
    plain_walls, traced_walls, reports, digests = [], [], [], set()
    residual = [None]

    def body(i, inputs):
        traced = i % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                escaped = tracer.unpatched_bindings()
                wall, _, outs = runner.repetition(inputs, tracer)
            finally:
                tracer.uninstall()
            if escaped and i == 1:
                runner.problems.append(f"trace: bindings not wrapped: {escaped}")
            traced_walls.append(wall)
            reports.append(tracer.layer_report())
        else:
            wall, _, outs = runner.repetition(inputs)
            if i:  # repetition 0 warms up
                plain_walls.append(wall)
        complete = runner.gate(f"repetition {i}", inputs, outs, deep=i == 0)
        digests.add(runner.digest(inputs, outs) if complete else None)
        if traced and complete:
            residual[0] = w.finest_residual(outs, runner.workdir)

    runner.loop(args.seconds, lambda i: inputs, body, min_calls=3)
    if len(digests) > 1:
        runner.problems.append("determinism: repetitions of the same inputs differ")

    layers = {key: statistics.median(r[key] for r in reports) for key in reports[0]}
    for layer in w.expect_nonzero:
        if layers[f"{layer}.calls"] == 0:
            runner.problems.append(f"bypass: {layer} expected calls, saw none")
    for layer in w.expect_zero:
        if layers[f"{layer}.calls"] != 0:
            runner.problems.append(
                f"bypass: {layer} expected no calls, saw {layers[layer + '.calls']}")

    out = {key: (value, len(reports), spans.unit_of(key)) for key, value in layers.items()}
    out["solver.ode_residual.finest_max"] = (residual[0] or 0.0, 1, "rms")
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls),
        len(traced_walls), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    choreocert = load_program()
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": choreocert.KERNEL_BACKEND,
        "CHOREOCERT_BACKEND": os.environ.get("CHOREOCERT_BACKEND"),
        "numpy": numpy.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, 1 caller",
    }

    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            runner = Runner(workloads.WORKLOADS[args.workload], Path(scratch))
            if args.trace:
                metrics = per_layer(runner, args)
            else:
                metrics = {key: (value, n, END_TO_END_UNITS[key])
                           for key, (value, n) in end_to_end(runner, args).items()}
    finally:
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    for key, (value, n, unit) in metrics.items():
        print(f"# {key:<58} {value:>16.6g} {unit:<6} n={n}")
    units_ms = sorted(1e3 * u for u in runner.unit_s)
    runner.notes.append(
        f"calibration unit: {len(units_ms)} timed, ms min {units_ms[0]:.4g} median "
        f"{statistics.median(units_ms):.4g} max {units_ms[-1]:.4g}; times are in reference "
        f"seconds ({1e3 * calibrate.REFERENCE_S:g} ms per unit)")
    for note in runner.notes:
        print(f"# {note}")
    for problem in runner.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, _, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
