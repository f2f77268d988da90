"""Traced pass: wrap the public functions of each choreocert module from outside.

Every wrapped call records a span (name, start, end, parent) and, where the
layer has one, a count taken from its arguments or result. Per-layer self
time is a span's duration minus the durations of its direct children; calls
are strictly nested because the benchmark has one caller.

Wrapping replaces every binding of a function: the module attribute, each
`from .x import f` alias in the other modules and the package namespace, and
the method on ActionWorkspace. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import sys
import time

from choreocert import action, bounds, cli, fileio, kernels, loops, solver, testorbits

KERNELS = ("pair_forces", "pair_mean_inverse_distance",
           "pair_mean_square_relative_velocity", "min_separation_scan")

# (layer name, owner, attribute): owner is a module, or a class for methods.
TARGETS = (
    *((f"kernels.{name}", kernels, name) for name in KERNELS),
    *((f"loops.{name}", loops, name)
      for name in ("evaluate", "sample", "winding_number", "trajectory_to_csv")),
    ("action.total_action", action, "total_action"),
    *((f"action.ActionWorkspace.{name}", action.ActionWorkspace, name)
      for name in ("__init__", "positions", "value_and_gradient")),
    *((f"bounds.{name}", bounds, name)
      for name in ("collision_closure", "collision_threshold", "verify_time_lemmas")),
    ("solver.minimize", solver, "minimize"),
    ("solver.ode_residual", solver, "ode_residual"),
    ("testorbits.certify", testorbits, "certify"),
    ("cli.main", cli, "main"),
    ("fileio.atomic_write_text", fileio, "atomic_write_text"),
)

# The separation guard the solver applies by default; a scan below it is a reject.
EPS_SEP = solver.MinimizeOptions.__dataclass_fields__["eps_sep"].default


def _pair_samples(args):
    bodies, samples = args[0].shape[:2]
    return bodies * (bodies - 1) // 2 * samples


def _count(name, args, result):
    """Counter increments for one call of layer `name`."""
    if name.startswith("kernels."):
        out = {"pair_samples": _pair_samples(args)}
        if name == "kernels.min_separation_scan":
            out["guard_rejects"] = int(result[0] < EPS_SEP)
        return out
    if name == "loops.trajectory_to_csv":
        return {"bytes": len(result)}
    if name == "fileio.atomic_write_text":
        return {"bytes": len(args[1])}
    if name == "bounds.collision_closure":
        return {"states": sum(lattice.size for lattice in result.values())}
    if name == "solver.minimize":
        return {"iterations": result.iterations, "evaluations": result.evaluations}
    return {}


def choreocert_modules():
    return [mod for key, mod in sys.modules.items()
            if key == "choreocert" or key.startswith("choreocert.")]


class Tracer:
    """Installs wrappers on every binding of TARGETS; spans kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, dict[str, float]] = {}
        self.params_seen: list = []   # collision_threshold arguments, in call order
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.originals = {name: getattr(owner, attr) for name, owner, attr in TARGETS}

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.params_seen.clear()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            counts = tracer.counts.setdefault(name, {})
            for key, value in _count(name, args, result).items():
                counts[key] = counts.get(key, 0) + value
            if name == "bounds.collision_threshold":
                tracer.params_seen.append(args[0])
            return result

        return wrapper

    def install(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        for name, owner, attr in TARGETS:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        for module in choreocert_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def unpatched_bindings(self) -> list[str]:
        """Bindings that still reach an original function, as 'module.attr'."""
        originals = {id(fn) for fn in self.originals.values()}
        left = [f"{module.__name__}.{attr}" for module in choreocert_modules()
                for attr, value in vars(module).items() if id(value) in originals]
        left += [f"{owner.__name__}.{attr}" for name, owner, attr in TARGETS
                 if isinstance(owner, type) and id(owner.__dict__[attr]) in originals]
        return left

    def layer_report(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since reset."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {name: 0 for name, _, _ in TARGETS}
        self_s = {name: 0.0 for name, _, _ in TARGETS}
        probes = 0
        for k, (name, start, end, parent) in enumerate(self.spans):
            if name not in calls:
                continue
            calls[name] += 1
            self_s[name] += end - start - child[k]
            if name == "action.ActionWorkspace.positions" and self._under(k, "solver.minimize"):
                probes += 1

        def count(layer, key):
            return self.counts.get(layer, {}).get(key, 0)

        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in KERNELS:
            layer = f"kernels.{name}"
            samples = count(layer, "pair_samples")
            out[f"{layer}.pair_samples_per_s"] = samples / self_s[layer] if samples else 0.0
        out["kernels.min_separation_scan.guard_rejects"] = count(
            "kernels.min_separation_scan", "guard_rejects")
        out["loops.trajectory_to_csv.bytes"] = count("loops.trajectory_to_csv", "bytes")
        out["fileio.atomic_write_text.bytes"] = count("fileio.atomic_write_text", "bytes")
        out["bounds.collision_closure.states"] = count("bounds.collision_closure", "states")
        seen = self.params_seen
        out["bounds.collision_threshold.distinct_ratio"] = (
            len(set(seen)) / len(seen) if seen else 0.0)
        iterations = count("solver.minimize", "iterations")
        out["solver.minimize.iterations"] = iterations
        out["solver.minimize.evaluations"] = count("solver.minimize", "evaluations")
        out["solver.minimize.accept_ratio"] = iterations / probes if probes else 0.0
        return out

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False


UNITS = {"calls": "count", "self_s": "s", "pair_samples_per_s": "1/s",
         "guard_rejects": "count", "bytes": "B", "states": "count",
         "distinct_ratio": "ratio", "iterations": "count", "evaluations": "count",
         "accept_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]

