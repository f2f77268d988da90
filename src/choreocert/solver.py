"""Action minimization over the symmetry-reduced coefficient space.

The descent runs on the packed real coefficient vector of the two generator
spectra after center-of-mass projection. Directions come from an L-BFGS
two-loop recursion seeded with the inverse kinetic Hessian (a diagonal, which
removes the (2 pi m)^2 scale disparity between frequencies); steps are
accepted by Armijo backtracking and, in addition, only if the minimum pair
separation stays above the guard and no pair winding number changes. Once the
evaluated action saturates float64 resolution near the minimum, acceptance
switches to strict gradient-norm contraction so the gradient tolerance stays
reachable. The backtracking factor, the Armijo constant and the L-BFGS memory
are module constants; ``MinimizeOptions`` holds the cutoff, grid, iteration
cap, gradient tolerance and separation guard. A run is a pure function of
(start, options): repeated runs are identical bit for bit.

After the descent, ``minimize`` samples the final loop once on the full grid
and reports its windings and minimum separation (read on one g1 domain, as
the guards read them), symmetry residual and center-of-mass drift: the
class check of a descended loop. It certifies only a converged loop below
the collision threshold, above the separation guard and with the class's
windings (``loops.windings_match``, as ``certify``). It also reports the
equations-of-motion residual, ``ode_residual``. Both the sample and the
residual read the generators' phases from one table of M-th roots of unity
(``loops.evaluate_ticks``), the table the workspace's phase tables are read
from.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .action import DISTANCE_FLOOR, ActionWorkspace
from .bounds import collision_threshold
from .loops import (
    GeneratorSpectrum,
    MinSeparation,
    SystemLoop,
    com_drift,
    evaluate_ticks,
    max_symmetry_residual,
    min_separation,
    require_grid,
    roots_of_unity,
    sample,
    winding_table,
    windings_match,
)
from .symmetry import ROLE_MAIN, ROLE_TRIPLE, allowed_frequencies

SHRINK = 0.5     # line-search backtracking factor
ARMIJO = 1e-4    # sufficient-decrease constant
MEMORY = 12      # L-BFGS history length


@dataclass(frozen=True)
class MinimizeOptions:
    """Settings of a descent; all of them are echoed into results for reproducibility."""

    cutoff: int                    # frequency cutoff K of the reduced basis
    m_samples: int | None = None   # quadrature grid; default 16*lcm(3, N, r)
    max_iterations: int = 500
    gtol: float = 1e-8             # stop when the projected gradient norm drops below
    eps_sep: float = 1e-3          # reject any step with min pair separation below

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if self.m_samples is not None and self.m_samples <= 0:
            raise ValueError("m_samples must be positive")
        if not (self.gtol > 0 and math.isfinite(self.gtol)):
            raise ValueError("gtol must be positive and finite")
        if not (self.eps_sep >= 1e-6 and math.isfinite(self.eps_sep)):
            raise ValueError("eps_sep must be at least 1e-6 and finite")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LogRow:
    iteration: int
    action: float
    gradient_norm: float
    min_separation: float
    step: float


@dataclass(frozen=True)
class MinimizeResult:
    system: SystemLoop
    action: float
    gradient_norm: float
    iterations: int
    evaluations: int
    termination: str               # converged | max_iterations | no_admissible_step
    ode_residual: float
    windings: dict
    windings_preserved: bool
    min_separation: MinSeparation
    symmetry_residual: float
    com_drift: float
    threshold: float
    certificate: str | None
    options: MinimizeOptions
    log: tuple[LogRow, ...] = field(repr=False)

    def to_dict(self) -> dict:
        from .loops import system_to_dict

        return {
            "loop": system_to_dict(self.system),
            "action": self.action,
            "gradient_norm": self.gradient_norm,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "termination": self.termination,
            "ode_residual": self.ode_residual,
            "windings": self.windings,
            "windings_preserved": self.windings_preserved,
            "min_separation": asdict(self.min_separation),
            "symmetry_residual": self.symmetry_residual,
            "com_drift": self.com_drift,
            "threshold": self.threshold,
            "certificate": self.certificate,
            "claim": "critical point with action below the collision-set lower bound"
            if self.certificate
            else "no certificate",
            "options": self.options.to_dict(),
        }

    def log_csv(self) -> str:
        lines = ["iter,action,gradnorm,minsep,step"]
        for row in self.log:
            lines.append(
                f"{row.iteration},{row.action:.17g},{row.gradient_norm:.17g},"
                f"{row.min_separation:.17g},{row.step:.17g}"
            )
        return "\n".join(lines) + "\n"


def _pack(cm: np.ndarray, ct: np.ndarray) -> np.ndarray:
    return np.concatenate([cm.view(float), ct.view(float)])


def _unpack(x: np.ndarray, n_main_coeffs: int) -> tuple[np.ndarray, np.ndarray]:
    k = 2 * n_main_coeffs
    return (
        np.ascontiguousarray(x[:k]).view(complex),
        np.ascontiguousarray(x[k:]).view(complex),
    )


def minimize(start: SystemLoop, options: MinimizeOptions) -> MinimizeResult:
    """Descend the discretized action from a starting loop.

    Terminates when the projected gradient norm falls below gtol, on the
    iteration cap, or when no admissible step exists (sufficient decrease
    plus separation and winding guards). The recorded action sequence across
    accepted steps decreases strictly while decreases are resolvable in
    float64; near the minimum, where the evaluated action is constant to
    rounding, acceptance switches to strict gradient-norm contraction (with
    the action pinned to its rounding floor), which is what lets the gradient
    reach gtol at all.
    """
    params = start.params
    if options.cutoff < params.n_main:
        raise ValueError("cutoff must be at least N so the triple basis is nonempty")
    m_samples = params.default_grid() if options.m_samples is None else options.m_samples
    ws = ActionWorkspace(
        params,
        allowed_frequencies(params, ROLE_MAIN, options.cutoff),
        allowed_frequencies(params, ROLE_TRIPLE, options.cutoff),
        m_samples,
    )
    nm = len(ws.main_freqs)
    cm, ct = ws.project(*ws.coefficients_of(start))

    pos = ws.positions(cm, ct)
    start_minsep = ws.min_separation(pos).distance
    if start_minsep < options.eps_sep:
        raise ValueError(
            f"separation guard hit at start: min separation {start_minsep:.3e} "
            f"< eps_sep {options.eps_sep:.3e}"
        )
    ref_windings = ws.windings(cm, ct, pos)

    f, gm, gt = ws.value_and_gradient(cm, ct, pos)
    x = _pack(cm, ct)
    g = _pack(gm, gt)
    evaluations = 1
    prec = np.concatenate(
        [
            np.repeat(np.maximum(ws.kinetic_weights_main, 1.0), 2),
            np.repeat(np.maximum(ws.kinetic_weights_triple, 1.0), 2),
        ]
    )
    eps64 = float(np.finfo(float).eps)
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    log = [LogRow(0, f, float(np.linalg.norm(g)), start_minsep, 0.0)]
    termination = "max_iterations"
    iterations = 0

    def admissible_probe(base, direction, step):
        """Projected step as (x, cm, ct, domain positions, minsep), or None on guard."""
        cmn, ctn = ws.project(*_unpack(base + step * direction, nm))
        xn = _pack(cmn, ctn)
        pos = ws.positions(cmn, ctn)
        minsep = ws.min_separation(pos).distance
        if minsep < options.eps_sep:
            return None
        return xn, cmn, ctn, pos, minsep

    def windings_unchanged(cmn, ctn, pos):
        try:
            return ws.windings(cmn, ctn, pos) == ref_windings
        except ValueError:  # undersampled: treated as a change
            return False

    def flat_probe(base, direction, step):
        """Probe with value and gradient, for the gradient-contraction regime."""
        nonlocal evaluations
        hit = admissible_probe(base, direction, step)
        if hit is None:
            return None
        xn, cmn, ctn, pos, minsep = hit
        fn, gmn, gtn = ws.value_and_gradient(cmn, ctn, pos)
        evaluations += 1
        return xn, fn, _pack(gmn, gtn), minsep, (cmn, ctn, pos)

    def flat_search(direction, gnorm, f_floor):
        """Smallest-|g| admissible point along the ray, expanding from step 1."""
        step = 1.0
        hit = flat_probe(x, direction, step)
        if hit is not None and hit[1] <= f_floor and np.linalg.norm(hit[2]) <= 0.999 * gnorm:
            best, best_step = hit, step
            while step < 2.0**40:
                step *= 2.0
                nxt = flat_probe(x, direction, step)
                if not (
                    nxt is not None
                    and nxt[1] <= f_floor
                    and np.linalg.norm(nxt[2]) < np.linalg.norm(best[2])
                ):
                    break
                best, best_step = nxt, step
            return best_step, best
        while step > 1e-18:
            step *= SHRINK
            hit = flat_probe(x, direction, step)
            if hit is not None and hit[1] <= f_floor and np.linalg.norm(hit[2]) <= 0.999 * gnorm:
                return step, hit
        return None

    for it in range(1, options.max_iterations + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= options.gtol:
            termination = "converged"
            break

        # L-BFGS two-loop recursion with the inverse kinetic diagonal as seed
        q = g.copy()
        alphas = []
        for s, y, sy in reversed(history):
            a = float(s @ q) / sy
            alphas.append(a)
            q -= a * y
        q /= prec
        for (s, y, sy), a in zip(history, reversed(alphas)):
            q += (a - float(y @ q) / sy) * s
        direction = -q
        slope = float(g @ direction)
        if slope >= 0.0:
            history.clear()
            direction = -g / prec
            slope = float(g @ direction)

        # When the Armijo margin is below the resolution of f, value
        # comparisons are meaningless: switch to gradient contraction.
        flat = abs(ARMIJO * slope) < 64.0 * eps64 * max(1.0, abs(f))

        accepted = None  # (xn, f, g, minsep, step, (cm, ct, positions))
        if not flat:
            step = 1.0
            while step >= 1e-18:
                hit = admissible_probe(x, direction, step)
                if hit is not None:
                    xn, cmn, ctn, pos, minsep = hit
                    fn = ws.value(cmn, ctn, pos)
                    evaluations += 1
                    if fn <= f + ARMIJO * step * slope:
                        evaluations += 1
                        gn_vec = _pack(*ws.gradient(cmn, ctn, pos))
                        accepted = (xn, fn, gn_vec, minsep, step, (cmn, ctn, pos))
                        break
                step *= SHRINK
        else:
            f_floor = f + 256.0 * eps64 * max(1.0, abs(f))
            found = flat_search(direction, gnorm, f_floor)
            if found is None and history:
                history.clear()
                found = flat_search(-g / prec, gnorm, f_floor)
            if found is not None:
                step, (xn, fn2, gn_vec, minsep, probe) = found
                accepted = (xn, fn2, gn_vec, minsep, step, probe)

        if accepted is not None and not windings_unchanged(*accepted[5]):
            accepted = None
        if accepted is None:
            termination = "no_admissible_step"
            break

        xn, fn2, gn_vec, minsep, step, _ = accepted
        s_vec, y_vec = xn - x, gn_vec - g
        sy = float(s_vec @ y_vec)
        meaningful = float(np.linalg.norm(s_vec)) > 1e-13 * (1.0 + float(np.linalg.norm(x)))
        if meaningful and sy > 1e-12 * float(np.linalg.norm(s_vec)) * float(
            np.linalg.norm(y_vec)
        ):
            history.append((s_vec, y_vec, sy))
            if len(history) > MEMORY:
                history.pop(0)
        x, f, g = xn, fn2, gn_vec
        iterations = it
        log.append(LogRow(it, f, float(np.linalg.norm(g)), minsep, step))

    cm, ct = _unpack(x, nm)
    final = SystemLoop(
        params,
        GeneratorSpectrum(ROLE_MAIN, tuple(int(m) for m in ws.main_freqs), cm),
        GeneratorSpectrum(ROLE_TRIPLE, tuple(int(m) for m in ws.triple_freqs), ct),
    )
    traj = sample(final, m_samples)
    windings = winding_table(traj)
    minsep_info = min_separation(traj)
    threshold = collision_threshold(params).threshold
    certified = (
        termination == "converged"
        and f < threshold
        and minsep_info.distance >= options.eps_sep
        and windings_match(params, windings)
    )
    return MinimizeResult(
        system=final,
        action=f,
        gradient_norm=float(np.linalg.norm(g)),
        iterations=iterations,
        evaluations=evaluations,
        termination=termination,
        ode_residual=ode_residual(final, m_samples),
        windings=windings,
        windings_preserved=windings == ref_windings,
        min_separation=minsep_info,
        symmetry_residual=max_symmetry_residual(traj),
        com_drift=com_drift(traj),
        threshold=threshold,
        certificate="collision-free certified by threshold" if certified else None,
        options=options,
        log=tuple(log),
    )


def acceleration_residual_rms(positions: np.ndarray, accelerations: np.ndarray) -> float:
    """RMS of |a_i(t) - sum_{j != i} (q_j - q_i)/|q_i - q_j|^3| over bodies and nodes.

    Raw-array form of the equations-of-motion residual for unit masses; the
    pair force sum reuses the potential-gradient kernel.
    """
    d = kernels.min_separation_scan(positions)[0]
    if d < DISTANCE_FLOOR:
        raise ValueError("near-collision sample: residual undefined at a collision")
    forces = kernels.pair_forces(positions)
    diff = np.asarray(accelerations, dtype=float) - forces
    return float(np.sqrt((diff[..., 0] ** 2 + diff[..., 1] ** 2).mean()))


def ode_residual(system: SystemLoop, m_samples: int) -> float:
    """Equations-of-motion residual of a loop, with exact spectral acceleration.

    Like the loop, the residual turns by a fixed rotation under a time shift
    of 1/r, so its RMS over the first M/r nodes is its RMS over all M. Only
    those nodes are evaluated: every body reads its generator from the table
    of M-th roots of unity at the window of nodes that starts where its shift
    puts it (``loops.evaluate_ticks``).
    """
    params = system.params
    require_grid(params, m_samples)
    roots = roots_of_unity(m_samples)
    window = np.arange(m_samples // params.r)
    pos, acc = [], []
    for spec, chain in ((system.main, params.n_main), (system.triple, 3)):
        starts = np.arange(0, m_samples, m_samples // chain)
        position, acceleration = evaluate_ticks(
            spec, roots, starts[:, None] + window, derivatives=(0, 2)
        )
        pos.append(position)
        acc.append(acceleration)
    return acceleration_residual_rms(np.concatenate(pos), np.concatenate(acc))
