"""Action minimization over the symmetry-reduced coefficient space.

The descent runs on the packed real coefficient vector of the two generator
spectra after center-of-mass projection. Each iteration takes a Newton step
on the exact Hessian of the discretized action,
``ActionWorkspace.hessian``: it diagonalizes the Hessian with ``eigh``,
replaces every eigenvalue by its modulus, floored at EIGEN_FLOOR times the
largest, and solves. The modified Hessian is positive definite, so the
direction descends wherever the gradient is nonzero; near a minimizer it
is the Newton step, and the floor keeps saddle and near-flat directions
from taking huge steps. The rotation, time-shift and center-of-mass
directions get no step: the projected gradient is zero along them. Once the
evaluated action saturates float64 resolution near the minimum, acceptance
switches from sufficient decrease (Armijo) to strict gradient-norm
contraction, the flat regime, so the gradient tolerance stays reachable.

Each iteration runs one backtracking probe loop over the steps 1, 1/2, 1/4,
... down to 1e-18. Each probe is projected onto zero center of mass, sampled
on one g1 domain and rejected if its minimum pair separation falls below the
guard. A probe that clears the guard costs one evaluation, its action value,
and is accepted by the regime's test: the Armijo condition with a decrease
f + ARMIJO*step*slope < f resolvable in float64, or in the flat regime an
action at most f_floor, a few hundred ulps above the current one, and a
gradient norm at most 0.999 of the current one. The gradient is
computed only for a probe whose value passes, and the Hessian only at the
start of an iteration. An accepted probe must keep every pair winding
number. ``MinimizeResult.evaluations`` counts the start plus every probe
that clears the guard.

No search tries steps longer than 1, the Newton step of the quadratic
model, and there is no second direction. The L-BFGS descent this replaced
needed a steepest-descent retry of a failed flat search: warm-started from
the level below, as ``minimize --loop-in`` chains levels, every N = 5
descent at K = 96 converged only through it. Newton steps converge on the
README's chains, that one included, in one to four unit steps per level,
and no flat search fails there before the gradient norm reaches gtol.

The backtracking factor, the Armijo constant and the eigenvalue floor are
module constants; ``MinimizeOptions`` holds the cutoff, grid, iteration cap,
gradient tolerance and separation guard. A run is a pure function of
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
from; ``loops.roots_of_unity`` keeps it, so the descent builds it once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .action import ActionWorkspace, _require_separated
from .bounds import collision_threshold
from .loops import (
    GeneratorSpectrum,
    MinSeparation,
    SystemLoop,
    chain_layout,
    com_drift,
    evaluate_ticks,
    max_symmetry_residual,
    min_separation,
    require_grid,
    roots_of_unity,
    sample,
    system_to_dict,
    winding_table,
    windings_match,
)
from .symmetry import ROLE_MAIN, ROLE_TRIPLE, allowed_frequencies

SHRINK = 0.5     # line-search backtracking factor
STEPS = tuple(SHRINK**k for k in range(60))  # 1, 1/2, ..., 2**-59: every step >= 1e-18
ARMIJO = 1e-4    # sufficient-decrease constant
EIGEN_FLOOR = 1e-3  # smallest Newton eigenvalue modulus, relative to the largest


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
    evaluations: int               # the start plus every probe that clears the separation guard
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
    iteration cap, or when the line search accepts no step that keeps the
    windings (see the module docstring). The recorded action sequence across
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
    if not start_minsep >= options.eps_sep:
        raise ValueError(
            f"separation guard hit at start: min separation {start_minsep:.3e} "
            f"< eps_sep {options.eps_sep:.3e}"
        )
    ref_windings = ws.windings(pos)

    f, gm, gt = ws.value_and_gradient(cm, ct, pos)
    x = _pack(cm, ct)
    g = _pack(gm, gt)
    evaluations = 1
    eps64 = float(np.finfo(float).eps)
    log = [LogRow(0, f, float(np.linalg.norm(g)), start_minsep, 0.0)]
    termination = "max_iterations"
    iterations = 0

    for it in range(1, options.max_iterations + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= options.gtol:
            termination = "converged"
            break

        # Newton on the Hessian at x (pos holds its positions), each
        # eigenvalue replaced by its modulus, floored relative to the largest
        lam, vecs = np.linalg.eigh(ws.hessian(*_unpack(x, nm), pos))
        lam = np.abs(lam)
        lam = np.maximum(lam, EIGEN_FLOOR * lam.max())
        direction = -(vecs @ ((vecs.T @ g) / lam))
        slope = float(g @ direction)

        # When the Armijo margin is below the resolution of f, value
        # comparisons are meaningless: switch to gradient contraction, with f
        # pinned to its rounding floor.
        flat = abs(ARMIJO * slope) < 64.0 * eps64 * max(1.0, abs(f))
        f_floor = f + 256.0 * eps64 * max(1.0, abs(f))
        for step in STEPS:
            cmn, ctn = ws.project(*_unpack(x + step * direction, nm))
            pos = ws.positions(cmn, ctn)
            minsep = ws.min_separation(pos).distance
            if not minsep >= options.eps_sep:
                continue
            evaluations += 1
            fn = ws.value(cmn, ctn, pos)
            # an Armijo target that rounds to f asks for no decrease at all
            target = f + ARMIJO * step * slope
            if (fn <= f_floor) if flat else (fn <= target < f):
                gn = _pack(*ws.gradient(cmn, ctn, pos))
                if not flat or np.linalg.norm(gn) <= 0.999 * gnorm:
                    break
        else:
            termination = "no_admissible_step"
            break
        try:
            windings_kept = ws.windings(pos) == ref_windings
        except ValueError:  # undersampled: treated as a change
            windings_kept = False
        if not windings_kept:
            termination = "no_admissible_step"
            break

        x, f, g = _pack(cmn, ctn), fn, gn
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

    Raw-array form of the equations-of-motion residual for unit masses, row i
    body i + 1; the pair force sum reuses the potential-gradient kernel. A
    near-collision sample raises the ValueError of ``action`` that names the
    bodies and the node.
    """
    d, i, j, k = kernels.min_separation_scan(positions)
    _require_separated(MinSeparation(pair=(i + 1, j + 1), time_index=k, distance=d))
    forces = kernels.pair_forces(positions)
    diff = np.asarray(accelerations, dtype=float) - forces
    return float(np.sqrt((diff[..., 0] ** 2 + diff[..., 1] ** 2).mean()))


def ode_residual(system: SystemLoop, m_samples: int) -> float:
    """Equations-of-motion residual of a loop, with exact spectral acceleration.

    Like the loop, the residual turns by a fixed rotation under a time shift
    of 1/r, so its RMS over the first M/r nodes is its RMS over all M. Only
    those nodes are evaluated: every body reads its generator from the table
    of M-th roots of unity at the window of nodes that starts where its shift
    puts it (``loops.chain_layout``, ``loops.evaluate_ticks``).
    """
    params = system.params
    require_grid(params, m_samples)
    roots = roots_of_unity(m_samples)
    window = np.arange(m_samples // params.r)
    pos, acc = [], []
    for first, length, _ in chain_layout(params, m_samples):
        starts = np.arange(length) * (m_samples // length)
        position, acceleration = evaluate_ticks(
            system.generator_for(first + 1), roots, starts[:, None] + window, derivatives=(0, 2)
        )
        pos.append(position)
        acc.append(acceleration)
    return acceleration_residual_rms(np.concatenate(pos), np.concatenate(acc))
