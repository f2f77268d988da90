"""The four benchmark workloads: seeded inputs, one repetition, correctness gates.

A repetition is a list of items run one after another by a single caller
(a closed loop with one client). Each workload provides:

  draw(rng)                 -> inputs of one repetition, from a seeded generator
  steps(inputs, workdir)    -> [(label, callable)], one per item, in order
  check(inputs, outs, workdir, deep)
                            -> {item index: reason} for items failing a gate;
                               deep adds the gates too costly for every item
  serialize(inputs, outs, workdir)
                            -> bytes fixed by the outputs, for the determinism check
                               (result objects at 17 significant digits, files)
  finest_residual(outs, workdir)
                            -> worst finest-level ODE residual, or None

The program only ever sees the generated inputs, through its public API.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

import choreocert as cc
from choreocert import cli, kernels
from choreocert.bounds import representative_seeds

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())["families"]

# Reference systems of the test suite: params and published test radii.
REFERENCE_ORBITS = {
    4: (cc.SymmetryParams(4, 7, 3, 3, -4), 0.2300, 0.0880),
    5: (cc.SymmetryParams(5, 8, 3, 3, -5), 0.2450, 0.0760),
    7: (cc.SymmetryParams(7, 10, 3, 3, -7), 0.2500, 0.0640),
}

# Finest-level action of the refinement study, computed on the commit that
# introduced the benchmark; every start within +-3% converges to it.
REFINED_ACTION = {4: 135.500753557, 5: 175.253929844, 7: 266.627037872}
REFINE_LEVELS = ((24, 1), (48, 2), (96, 4))  # (cutoff K, grid multiple of the default)


def rng_for(seed: int, repetition: int) -> np.random.Generator:
    """Inputs of repetition i depend only on (seed, i)."""
    return np.random.default_rng([seed, repetition])


def canonical(obj) -> str:
    """JSON with every float at 17 significant digits and sorted keys."""

    def conv(x):
        if isinstance(x, (bool, str)) or x is None:
            return x
        if isinstance(x, (float, np.floating)):
            return f"{float(x):.17g}"
        if isinstance(x, (int, np.integer)):
            return int(x)
        if isinstance(x, dict):
            return {str(k): conv(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [conv(v) for v in x]
        raise TypeError(f"cannot serialize {type(x).__name__}")

    return json.dumps(conv(obj), sort_keys=True)


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


class BoundsFamily:
    """collision_threshold + verify_time_lemmas over families (N, N+3).

    Exact-integer lattice closure with zero kernel calls. Admissible N (not a
    multiple of 3) from 4 to 38 fall into thirteen bands: the reference
    systems N=4 and N=5 alone, then pairs of consecutive values; each
    repetition draws one N per band, so the work per repetition grows with N
    the same way on every seed while the families themselves vary. The odd
    band count puts the median item inside a band rather than on the edge
    between two, where it would jump with the draw.
    """

    name = "bounds_family"
    bands = ((4,), (5,), (7, 8), (10, 11), (13, 14), (16, 17), (19, 20),
             (22, 23), (25, 26), (28, 29), (31, 32), (34, 35), (37, 38))
    expect_nonzero = ("bounds.collision_closure", "bounds.collision_threshold",
                      "bounds.verify_time_lemmas")
    expect_zero = ("kernels.pair_forces", "kernels.pair_mean_inverse_distance",
                   "kernels.pair_mean_square_relative_velocity",
                   "kernels.min_separation_scan", "loops.trajectory_to_csv",
                   "solver.minimize", "cli.main")

    def draw(self, rng):
        return [int(rng.choice(band)) for band in self.bands]

    def steps(self, inputs, workdir):
        def item(n):
            params = cc.SymmetryParams(n, n + 3, 3, 3, -n)
            return cc.collision_threshold(params), cc.verify_time_lemmas(params)

        return [(f"N={n}", lambda n=n: item(n)) for n in inputs]

    def check(self, inputs, outs, workdir, deep):
        failed = {}
        for k, (n, (report, lemmas)) in enumerate(zip(inputs, outs)):
            ref = REFERENCE[str(n)]
            bounds = [c.bound for c in report.cases]
            if report.threshold != min(bounds):
                failed[k] = "threshold is not the minimum of its cases"
            elif not lemmas.passed:
                failed[k] = f"lemma scan failed: {lemmas.first_failure()}"
            elif _rel_err(report.threshold, ref["threshold"]) > 1e-9:
                failed[k] = f"threshold {report.threshold!r} != reference {ref['threshold']!r}"
            elif [[c.label, list(c.lattice_sizes)] for c in report.cases] != [
                [label, sizes] for label, _, sizes in ref["cases"]
            ] or any(_rel_err(b, r[1]) > 1e-9 for b, r in zip(bounds, ref["cases"])):
                failed[k] = "case table differs from reference"
            elif deep:
                for case, (_, seed) in zip(report.cases, representative_seeds(report.params)):
                    lattices = cc.collision_closure(report.params, seed).values()
                    if not all(lat.is_arithmetic for lat in lattices):
                        failed[k] = f"case {case.label}: lattice not arithmetic"
                    elif sorted(lat.size for lat in lattices) != list(case.lattice_sizes):
                        failed[k] = f"case {case.label}: lattice sizes differ from closure"
        return failed

    def serialize(self, inputs, outs, workdir):
        return canonical(
            [[n, report.to_dict(), [[c.name, c.passed] for c in lemmas.checks]]
             for n, (report, lemmas) in zip(inputs, outs)]
        ).encode()

    def finest_residual(self, outs, workdir):
        return None


class CertifyScan:
    """certify(params, a, b) for radii within +-5% of the three reference pairs.

    The value-only path: spectral sampling, windings, action kernels and the
    collision threshold, recomputed per call for only three distinct params.
    pair_forces is never called.
    """

    name = "certify_scan"
    per_system = 40
    expect_nonzero = ("testorbits.certify", "action.total_action", "loops.sample",
                      "loops.evaluate", "loops.winding_number",
                      "kernels.pair_mean_inverse_distance",
                      "kernels.pair_mean_square_relative_velocity",
                      "kernels.min_separation_scan", "bounds.collision_threshold",
                      "bounds.collision_closure")
    expect_zero = ("kernels.pair_forces", "loops.trajectory_to_csv", "solver.minimize",
                   "cli.main")

    def draw(self, rng):
        items = []
        for n, (_, a, b) in REFERENCE_ORBITS.items():
            for fa, fb in rng.uniform(0.95, 1.05, size=(self.per_system, 2)):
                items.append((n, float(a * fa), float(b * fb)))
        return [items[k] for k in rng.permutation(len(items))]

    def steps(self, inputs, workdir):
        return [
            (f"N={n}", lambda n=n, a=a, b=b: cc.certify(REFERENCE_ORBITS[n][0], a, b))
            for n, a, b in inputs
        ]

    def check(self, inputs, outs, workdir, deep):
        failed = {}
        for k, ((n, a, b), cert) in enumerate(zip(inputs, outs)):
            if cert.certified != (cert.margin > 0 and cert.windings_ok):
                failed[k] = "verdict disagrees with margin and windings"
            elif cert.verdict != ("certified" if cert.certified else "not certified"):
                failed[k] = "verdict string disagrees with the certified flag"
            elif _rel_err(cert.threshold, REFERENCE[str(n)]["threshold"]) > 1e-9:
                failed[k] = f"threshold {cert.threshold!r} differs from the bounds reference"
            elif deep:
                params = REFERENCE_ORBITS[n][0]
                fine = cc.total_action(cc.build_test_orbit(params, a, b),
                                       2 * params.default_grid()).total
                if _rel_err(cert.action, fine) > 1e-9:
                    failed[k] = f"action {cert.action!r} vs 2M-grid {fine!r}"
        return failed

    def serialize(self, inputs, outs, workdir):
        return canonical([cert.to_dict() for cert in outs]).encode()

    def finest_residual(self, outs, workdir):
        return None


def _refine_options(params, level):
    cutoff, multiple = REFINE_LEVELS[level]
    return cc.MinimizeOptions(cutoff=cutoff, m_samples=multiple * params.default_grid())


class RefineStudy:
    """Acceptance criterion 9: minimize at K = 24, 48, 96 with M doubling.

    Each of N = 4, 5, 7 starts from its test orbit with both radii perturbed
    by up to 3%. The gradient path: pair_forces, the separation scan, the
    potential, phase-table positions and windings.
    """

    name = "refine_study"
    expect_nonzero = ("solver.minimize", "solver.ode_residual",
                      "action.ActionWorkspace.__init__", "action.ActionWorkspace.positions",
                      "action.ActionWorkspace.value_and_gradient", "kernels.pair_forces",
                      "kernels.min_separation_scan", "kernels.pair_mean_inverse_distance",
                      "loops.winding_number", "bounds.collision_threshold")
    expect_zero = ("loops.trajectory_to_csv", "cli.main", "testorbits.certify")

    def draw(self, rng):
        return [(n, float(a * rng.uniform(0.97, 1.03)), float(b * rng.uniform(0.97, 1.03)))
                for n, (_, a, b) in REFERENCE_ORBITS.items()]

    def steps(self, inputs, workdir):
        out = []
        for n, a, b in inputs:
            params = REFERENCE_ORBITS[n][0]
            orbit = cc.build_test_orbit(params, a, b)
            for level, (cutoff, _) in enumerate(REFINE_LEVELS):
                options = _refine_options(params, level)
                out.append((f"N={n} K={cutoff}",
                            lambda orbit=orbit, options=options: cc.minimize(orbit, options)))
        return out

    def check(self, inputs, outs, workdir, deep):
        failed = {}
        for k, res in enumerate(outs):
            n = inputs[k // len(REFINE_LEVELS)][0]
            finest = k % len(REFINE_LEVELS) == len(REFINE_LEVELS) - 1
            if res.termination != "converged":
                failed[k] = f"termination {res.termination}"
            elif not res.windings_preserved:
                failed[k] = "windings changed"
            elif res.min_separation.distance < 1e-3:
                failed[k] = f"min separation {res.min_separation.distance!r} < 1e-3"
            elif finest and _rel_err(res.action, REFINED_ACTION[n]) > 1e-8:
                failed[k] = f"action {res.action!r} != reference {REFINED_ACTION[n]!r}"
            elif finest and res.ode_residual > 1e-3:
                failed[k] = f"finest ODE residual {res.ode_residual!r} > 1e-3"
        return failed

    def serialize(self, inputs, outs, workdir):
        return canonical([[res.to_dict(), res.log_csv()] for res in outs]).encode()

    def finest_residual(self, outs, workdir):
        step = len(REFINE_LEVELS)
        return max(res.ode_residual for res in outs[step - 1::step])


class CliPipeline:
    """The README flow for N=7 through choreocert.cli.main, in-process.

    bounds -> certify -> minimize --modes 24 -> --loop-in ... --modes 48 ->
    --loop-in ... --modes 96, with the grid doubling at each level. Warm
    starts chain through JSON files and most of the run is file output
    (trajectory CSVs). The only workload that exercises cli and fileio.

    The seed moves the README radii by at most 0.3%, which leaves the
    solver's iteration counts unchanged (7, 8, 6 per level), so the run
    times the pipeline rather than how lucky a start was; refine_study
    covers the +-3% starts.
    """

    name = "cli_pipeline"
    n = 7
    expect_nonzero = ("cli.main", "fileio.atomic_write_text", "loops.trajectory_to_csv",
                      "solver.minimize", "testorbits.certify", "bounds.collision_threshold",
                      "kernels.pair_forces")
    expect_zero = ()

    def draw(self, rng):
        _, a, b = REFERENCE_ORBITS[self.n]
        return float(a * rng.uniform(0.997, 1.003)), float(b * rng.uniform(0.997, 1.003))

    def _argv(self, inputs, workdir):
        a, b = inputs
        params, _, _ = REFERENCE_ORBITS[self.n]
        grid = params.default_grid()
        common = ["--n", str(self.n), "--r", str(params.r)]
        radii = ["--a", repr(a), "--b", repr(b)]
        out = [("bounds", ["bounds", *common, "--format", "json",
                           "--out", str(workdir / "bounds.json")]),
               ("certify", ["certify", *common, *radii, "--format", "json",
                            "--out", str(workdir / "certificate.json")])]
        previous = None
        for level, (cutoff, multiple) in enumerate(REFINE_LEVELS):
            start = ["--loop-in", str(previous)] if previous else [*common, *radii]
            previous = workdir / f"level{level}.json"
            out.append((f"minimize K={cutoff}",
                        ["minimize", *start, "--modes", str(cutoff),
                         "--grid", str(multiple * grid), "--out", str(previous)]))
        return out

    def steps(self, inputs, workdir):
        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        return [(label, lambda argv=argv: run(argv))
                for label, argv in self._argv(inputs, workdir)]

    def _level_files(self, workdir, level):
        stem = workdir / f"level{level}"
        return (Path(f"{stem}.json"), Path(f"{stem}.traj.csv"), Path(f"{stem}.iters.csv"))

    def check(self, inputs, outs, workdir, deep):
        failed = {k: f"exit code {code}" for k, code in enumerate(outs) if code != 0}
        expected_keys = {f.name for f in dataclasses.fields(cc.MinimizeResult)}
        expected_keys = (expected_keys - {"system", "log"}) | {"loop", "claim"}
        for level, (_, multiple) in enumerate(REFINE_LEVELS):
            k = 2 + level
            if k not in failed:
                try:
                    reason = self._check_level(workdir, level, multiple, expected_keys)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    reason = f"unreadable output: {exc!r}"
                if reason:
                    failed[k] = reason
        return failed

    def _check_level(self, workdir, level, multiple, expected_keys):
        """Reason the files of one minimize level disagree with its result, or None."""
        params = REFERENCE_ORBITS[self.n][0]
        result_path, traj_path, iters_path = self._level_files(workdir, level)
        doc = json.loads(result_path.read_text())
        iters = iters_path.read_text().splitlines()
        m_samples = multiple * params.default_grid()
        with traj_path.open() as handle:
            traj_rows = sum(1 for _ in handle)
        if set(doc) != expected_keys:
            return f"result keys {sorted(set(doc) ^ expected_keys)} differ"
        if doc["termination"] != "converged" or not doc["windings_preserved"]:
            return "result file reports no convergence or changed windings"
        if len(iters) != doc["iterations"] + 2:
            return "iteration log length disagrees with iterations"
        if float(iters[-1].split(",")[1]) != doc["action"]:
            return "last logged action disagrees with the result action"
        if traj_rows != m_samples * params.n_bodies + 1:
            return "trajectory rows disagree with the grid"
        if doc["options"]["m_samples"] != m_samples:
            return "options grid disagrees with the command line"
        if cc.system_from_dict(doc).params != params:
            return "stored loop has other params"
        if level == len(REFINE_LEVELS) - 1 and (
            _rel_err(doc["action"], REFINED_ACTION[self.n]) > 1e-8 or doc["ode_residual"] > 1e-3
        ):
            return "finest level action or residual off reference"
        return None

    def serialize(self, inputs, outs, workdir):
        # The files run to 24 MB: hash them one at a time.
        digest = hashlib.sha256(canonical(list(outs)).encode())
        for name in sorted(os.listdir(workdir)):
            digest.update(name.encode() + b"\0" + (workdir / name).read_bytes())
        return digest.digest()

    def finest_residual(self, outs, workdir):
        last = self._level_files(workdir, len(REFINE_LEVELS) - 1)[0]
        return json.loads(last.read_text())["ode_residual"]


WORKLOADS = {w.name: w for w in (BoundsFamily(), CertifyScan(), RefineStudy(), CliPipeline())}


def setup(name: str, seed: int) -> None:
    """Everything a run needs before its first item: kernels ready, inputs drawn."""
    kernels.warmup()
    WORKLOADS[name].draw(rng_for(seed, 0))

