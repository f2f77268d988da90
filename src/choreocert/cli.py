"""Command-line interface.

Subcommands: bounds (collision-set lower-bound table), certify (test-orbit
certificate), minimize (action descent with result/trajectory/log files),
lemmas (exact collision-grid distinctness scans).

Exit codes: 0 success or certified, 1 checked-and-negative (a verdict, never
a refusal), 2 invalid input or an output file that cannot be written, 3 solver
failure. A subcommand refuses by raising; ``main`` alone prints the one
message on stderr and returns the code, and a library ValueError that no
subcommand anticipates is refused as ``error: ...`` with exit 2. Input too
large for memory exits 2 too, as ``error: out of memory: ...``. Human tables
print 4 decimals; files carry 17 significant digits and are written
atomically. Environment variables are not consulted for run configuration.
The argument parser is built once per process, on the first ``main`` call,
and reused: parsing returns a new namespace each time and changes no parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from .bounds import ThresholdReport, collision_threshold, lattice_modulus, verify_time_lemmas
from .fileio import atomic_write_text, read_config
from .loops import sample, system_from_dict, trajectory_to_csv, valid_grid
from .solver import MinimizeOptions, minimize
from .symmetry import SymmetryParams, compatibility_check
from .testorbits import CertificateReport, build_test_orbit, certify

# The values a config file may give a switch such as --force, in any letter case.
_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class _Refusal(Exception):
    """A refused run: the message ``main`` prints on stderr and the exit code it returns."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by name, the parser of each subcommand."""
    parser = argparse.ArgumentParser(
        prog="choreocert",
        description="Collision-free certification of two-chain choreography orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file supplying flag defaults")
        p.add_argument("--n", type=int, help="bodies on the main curve (N >= 4)")
        p.add_argument("--r", type=int, help="rotation order")
        p.add_argument("--d", type=int, help="rotation multiplier (default 3)")
        p.add_argument("--k1", type=int, help="main-pair winding (default 3)")
        p.add_argument("--k2", type=int, help="triple-pair winding (default -N)")

    def add_rendering(p, formats):
        p.add_argument("--out", help="also write the rendering to this file")
        p.add_argument("--format", choices=formats,
                       help="rendering for stdout and --out (default table)")

    p = sub.add_parser("bounds", help="per-case collision lower bounds and threshold")
    add_common(p)
    add_rendering(p, ("table", "json", "csv"))

    p = sub.add_parser("certify", help="action-vs-threshold certificate of a test orbit")
    add_common(p)
    add_rendering(p, ("table", "json"))
    p.add_argument("--a", type=float, help="main-curve radius")
    p.add_argument("--b", type=float, help="triple-curve radius")
    p.add_argument("--grid", type=int, help="quadrature nodes (default 16*lcm(3,N,r))")
    p.add_argument("--emit-plot", dest="emit_plot", help="write sampled curves CSV here")

    p = sub.add_parser("minimize", help="descend the action from a starting loop")
    add_common(p)
    p.add_argument("--out", help="result JSON path (default result.json); the trajectory "
                   "and iteration CSVs are written beside it")
    p.add_argument("--a", type=float, help="test-orbit start: main radius")
    p.add_argument("--b", type=float, help="test-orbit start: triple radius")
    p.add_argument("--loop-in", dest="loop_in", help="resume from a stored loop JSON")
    p.add_argument("--grid", type=int, help="quadrature nodes (default 16*lcm(3,N,r))")
    p.add_argument("--modes", type=int, help="frequency cutoff K (default max(24, N))")
    defaults = MinimizeOptions.__dataclass_fields__
    p.add_argument("--gtol", type=float,
                   help=f"gradient-norm tolerance (default {defaults['gtol'].default:g})")
    p.add_argument("--max-iter", dest="max_iter", type=int,
                   help=f"iteration cap (default {defaults['max_iterations'].default})")
    p.add_argument("--eps-sep", dest="eps_sep", type=float,
                   help=f"separation guard (default {defaults['eps_sep'].default:g})")
    p.add_argument("--emit-plot", dest="emit_plot", help="write sampled curves CSV here")

    p = sub.add_parser("lemmas", help="exact distinctness scans of the collision grids")
    add_common(p)
    p.add_argument("--force", action="store_true", help="run scans even if params are invalid")

    return parser, sub.choices


def _config_value(action: argparse.Action, key: str, raw: str) -> object:
    """A config value converted and checked as its flag would be on the command line.

    Raises ValueError naming the key and the value when the flag would refuse it.
    """
    def refuse(why: str) -> ValueError:
        return ValueError(f"config key {key!r} = {raw!r} {why}")

    if action.nargs == 0:  # a switch such as --force
        if raw.lower() not in _SWITCH_WORDS:
            raise refuse(f"is not one of {', '.join(_SWITCH_WORDS)}")
        return _SWITCH_WORDS[raw.lower()]
    try:
        value = raw if action.type is None else action.type(raw)
    except ValueError:
        raise refuse(f"is not a valid {action.type.__name__}") from None
    if action.choices is not None and value not in action.choices:
        raise refuse(f"is not one of {', '.join(action.choices)}")
    return value


def _apply_config(args: argparse.Namespace, command: argparse.ArgumentParser) -> None:
    """Fill the flags of ``command`` left unset on the command line from --config."""
    if not getattr(args, "config", None):
        return
    flags = {action.dest: action for action in command._actions
             if action.option_strings and action.default is not argparse.SUPPRESS
             and action.dest != "config"}
    for key, raw in read_config(args.config).items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} does not match any flag a config file "
                             "may set")
        value = _config_value(action, key, raw)
        if getattr(args, action.dest) == action.default:
            setattr(args, action.dest, value)


def _params_from_args(args) -> SymmetryParams:
    if args.n is None or args.r is None:
        raise _Refusal("error: --n and --r are required")
    d = 3 if args.d is None else args.d
    k1 = 3 if args.k1 is None else args.k1
    k2 = -args.n if args.k2 is None else args.k2
    return SymmetryParams(n_main=args.n, r=args.r, d=d, k1=k1, k2=k2)


def _check_params(params: SymmetryParams) -> None:
    """Refuse a class that ``compatibility_check`` rejects, listing its violations."""
    result = compatibility_check(params)
    if not result.ok:
        raise _Refusal("\n".join([f"invalid parameters {params}:",
                                  *(f"  {violation}" for violation in result.violations)]))


def _resolve_grid(grid: int | None, params: SymmetryParams) -> int:
    """--grid, or the default grid when it is absent."""
    if grid is None:
        return params.default_grid()
    if not valid_grid(params, grid):
        raise _Refusal(f"error: --grid must be a positive multiple of lcm(3, N, r) = "
                       f"{params.grid_unit}")
    return grid


def _write(path: str, text: str) -> None:
    """Write a file atomically, refusing with a message naming it if that fails."""
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise _Refusal(f"error: cannot write {path}: {exc.strerror or exc}") from None


def _check_emit_plot(emit_plot: str | None, others: dict[str, str]) -> None:
    """Refuse an --emit-plot path that is another output file of the command.

    ``others`` maps each such file's path to its description, naming its flag.
    """
    if not emit_plot:
        return
    for path, what in others.items():
        if os.path.abspath(emit_plot) == os.path.abspath(path):
            raise _Refusal(f"error: --emit-plot {emit_plot} would overwrite {what}")


def _emit(text: str, out: str | None) -> None:
    """Print a rendering and write it to ``out`` if given."""
    print(text, end="" if text.endswith("\n") else "\n")
    if out:
        _write(out, text if text.endswith("\n") else text + "\n")


def _lattice_summary(sizes) -> str:
    counts = Counter(sizes)
    return " ".join(f"{size}x{mult}" for size, mult in sorted(counts.items()))


def _render_bounds_table(report: ThresholdReport) -> str:
    p = report.params
    lines = [
        f"collision-set lower bounds for N={p.n_main}, r={p.r}, d={p.d}, "
        f"k1={p.k1}, k2={p.k2}",
        f"{'case':<10}{'pair':<10}{'lattices':<16}{'bound':>12}",
    ]
    for case in report.cases:
        pair = f"({case.pair[0]},{case.pair[1]})"
        lines.append(
            f"{case.label:<10}{pair:<10}{_lattice_summary(case.lattice_sizes):<16}"
            f"{case.bound:>12.4f}"
        )
    lines.append(f"threshold: {report.threshold:.4f}   ({report.parity})")
    return "\n".join(lines) + "\n"


def _render_bounds_csv(report: ThresholdReport) -> str:
    lines = ["label,pair_i,pair_j,lattice_sizes,bound"]
    for case in report.cases:
        sizes = ";".join(str(s) for s in case.lattice_sizes)
        lines.append(
            f"{case.label},{case.pair[0]},{case.pair[1]},{sizes},{case.bound:.17g}"
        )
    lines.append(f"threshold,,,,{report.threshold:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_bounds(args) -> int:
    params = _params_from_args(args)
    _check_params(params)
    report = collision_threshold(params)
    fmt = args.format or "table"
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    elif fmt == "csv":
        text = _render_bounds_csv(report)
    else:
        text = _render_bounds_table(report)
    _emit(text, args.out)
    return 0


def _winding_summary(windings: dict) -> str:
    parts = []
    for key in ("main", "triple"):
        values = {row[2] for row in windings[key]}
        if len(values) == 1:
            parts.append(f"{key}:{values.pop()}")
        else:
            parts.append(f"{key}:mixed{sorted(values)}")
    return ",".join(parts)


def _render_certificate(report: CertificateReport, m_samples: int) -> str:
    p = report.params
    best = min(report.threshold_report.cases, key=lambda c: c.bound)
    lines = [
        f"certificate for N={p.n_main}, r={p.r}, d={p.d}, k1={p.k1}, k2={p.k2}",
        f"test orbit: a={report.a:.4f} b={report.b:.4f}  grid M={m_samples}",
        f"action     = {report.action:.4f}  "
        f"(kinetic {report.kinetic:.4f} + potential {report.potential:.4f})",
        f"threshold  = {report.threshold:.4f}  "
        f"(case {best.label}, pair ({best.pair[0]},{best.pair[1]}))",
        f"margin     = {report.margin:.4f}",
        f"windings   : {_winding_summary(report.windings)}  "
        f"[{'ok' if report.windings_ok else 'MISMATCH'}]",
        f"min separation = {report.min_separation:.4f}",
        f"verdict: {report.verdict}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_certify(args) -> int:
    if args.out:
        _check_emit_plot(args.emit_plot, {args.out: f"the --out file {args.out}"})
    params = _params_from_args(args)
    _check_params(params)
    if args.a is None or args.b is None:
        raise _Refusal("error: certify requires --a and --b")
    m_samples = _resolve_grid(args.grid, params)
    report = certify(params, args.a, args.b, m_samples)
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    else:
        text = _render_certificate(report, m_samples)
    _emit(text, args.out)
    if args.emit_plot:
        traj = sample(build_test_orbit(params, args.a, args.b), m_samples)
        _write(args.emit_plot, trajectory_to_csv(traj))
    return 0 if report.certified else 1


def _cmd_minimize(args) -> int:
    out = args.out or "result.json"
    stem = out[:-5] if out.endswith(".json") else out
    # The trajectory CSV beside --out has the same bytes, so it may be named.
    _check_emit_plot(args.emit_plot, {
        out: f"the --out file {out}",
        stem + ".iters.csv": f"the iteration log written beside --out {out}",
    })
    if args.loop_in:
        try:
            with open(args.loop_in) as handle:
                start = system_from_dict(json.load(handle))
        except (OSError, ValueError) as exc:
            raise _Refusal(f"error reading --loop-in: {exc}") from None
        params = start.params
        _check_params(params)
        # the keys are the flags; no radius fits, as the stored loop is the start
        for flag, value in {**params.to_dict(), "a": None, "b": None}.items():
            given = getattr(args, flag)
            if flag == "d" and given is not None:
                given %= params.r  # SymmetryParams stores d modulo r
            if given is not None and given != value:
                stored = "(the stored loop is the start)" if value is None else (
                    f"parameters ({flag}={value})")
                raise _Refusal(f"error: --{flag} conflicts with --loop-in {stored}")
    else:
        params = _params_from_args(args)
        _check_params(params)
        if args.a is None or args.b is None:
            raise _Refusal("error: minimize requires --a/--b or --loop-in")
        start = build_test_orbit(params, args.a, args.b)

    m_samples = _resolve_grid(args.grid, params)
    modes = args.modes if args.modes is not None else max(24, params.n_main)
    if modes < params.n_main:
        raise _Refusal(f"error: --modes must be at least N = {params.n_main}")
    needed = max((abs(m) for spec in (start.main, start.triple) for m in spec.freqs), default=0)
    if modes < needed:
        raise _Refusal(f"error: --modes {modes} is below the loop's largest frequency; "
                       f"use --modes {needed} or more")
    given = {"max_iterations": args.max_iter, "gtol": args.gtol, "eps_sep": args.eps_sep}
    options = MinimizeOptions(
        cutoff=modes,
        m_samples=args.grid,
        **{name: value for name, value in given.items() if value is not None},
    )
    try:
        result = minimize(start, options)
    except ValueError as exc:
        raise _Refusal(f"solver error: {exc}", 3) from None

    print(
        f"action={result.action:.17g} gradnorm={result.gradient_norm:.17g} "
        f"minsep={result.min_separation.distance:.17g} "
        f"windings={_winding_summary(result.windings)}"
    )
    _write(out, json.dumps(result.to_dict(), indent=2) + "\n")
    traj_csv = trajectory_to_csv(sample(result.system, m_samples))
    files = [(stem + ".traj.csv", traj_csv), (stem + ".iters.csv", result.log_csv())]
    if args.emit_plot:
        files.append((args.emit_plot, traj_csv))
    for path, text in files:
        _write(path, text)
    if result.termination != "converged":
        raise _Refusal(f"solver did not converge: {result.termination}", 3)
    return 0


def _cmd_lemmas(args) -> int:
    params = _params_from_args(args)
    lattice_modulus(params)  # refuses N < 1 or r < 1 even under --force
    if not args.force:
        _check_params(params)
    report = verify_time_lemmas(params)
    for check in report.checks:
        if check.passed:
            print(f"{check.name}: PASS")
        else:
            a, b, tick, den = check.witness
            print(f"{check.name}: FAIL  indices {a} and {b} coincide at t={tick}/{den}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bounds": _cmd_bounds,
        "certify": _cmd_certify,
        "minimize": _cmd_minimize,
        "lemmas": _cmd_lemmas,
    }
    try:
        try:
            _apply_config(args, commands[args.command])
        except (OSError, ValueError) as exc:
            raise _Refusal(f"error in --config: {exc}") from None
        return handlers[args.command](args)
    except _Refusal as refusal:
        print(refusal, file=sys.stderr)
        return refusal.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
