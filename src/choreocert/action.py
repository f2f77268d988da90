"""Lagrangian action of a system loop: the full-pair breakdown and the reduced workspace.

The action over one period is

    f = integral_0^1 ( 1/2 sum_i |dq_i/dt|^2 + sum_{i<j} 1/|q_i - q_j| ) dt.

The kinetic part is evaluated in closed form from the generator spectra
(every body is a time shift of its generator, so all bodies of a chain share
one speed profile). The potential part uses the trapezoid rule on a uniform
periodic grid, which for smooth non-collision loops converges spectrally and
reduces to the plain node average. total_action returns the full-pair
breakdown; ActionWorkspace evaluates the value and its exact gradient, the
gradient of the discretized functional, for the solver.

The center of mass has Fourier coefficient N c_m + 3 b_m at frequency m,
where c and b are the main and triple coefficients, and it vanishes through
each chain's internal averaging unless 3N divides m. ActionWorkspace.project
is the one projection onto zero center of mass: it sets N c_m + 3 b_m = 0 by
least squares at those frequencies. The solver projects every iterate and
every gradient with it.

ActionWorkspace evaluates on one fundamental domain of g1. Every admissible
frequency satisfies m = d (mod r), so q(t + 1/r) = e^(2 pi i d/r) q(t) for
every body: pair distances and the potential integrand are 1/r-periodic, and
in the gradient sum the factor conj(e_m(t + 1/r)) e^(2 pi i d/r) is 1. On a
grid of M nodes (a multiple of r), value, gradient and minimum separation
therefore equal their averages or minima over the first M/r nodes, up to
rounding.

It also evaluates only one representative pair per orbit of g2 and g3: the
entries of symmetry.pair_kinds, which derives them. They are (1, 1+s) for
s = 1..floor(N/2), standing for N pairs (N/2 when s = N/2), the cross pair
(1, N+1) for 3N and the triple pair (N+1, N+2) for 3, and they are the same
orbits as the collision cases 1-5 of bounds. Every pair distance is a time
shift of its representative's, and the multiplicities, the weights here, sum
to (N+3)(N+2)/2. M is a multiple of lcm(3, N), so every shift is a whole
number of nodes, and the node average and the minimum of a periodic sequence
do not change under a shift. The potential is the weighted sum of the
representatives' node averages, and the minimum separation is their minimum.
The representatives need bodies 1..floor(N/2)+1, N+1 and N+2 only, the
reduced body set; the gradient of the weighted sum reaches the generator
coefficients through the phase of each reduced row. total_action keeps the
full-pair path on all M nodes, an independent check of this reduction.

The phase tables hold e^(2 pi i m k/M) for the domain nodes k. Each entry is
read from loops.roots_of_unity(M) at m*k mod M, so the workspace computes M
complex exponentials, not one per frequency and node, and its phases are
the ones loops.sample and solver.ode_residual read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .loops import (
    MinSeparation,
    SystemLoop,
    Trajectory,
    domain_min_separation,
    domain_windings,
    min_separation,
    representative_rows,
    require_grid,
    roots_of_unity,
    sample,
)
from .symmetry import SymmetryParams, pair_kinds

TWO_PI = 2.0 * np.pi
DISTANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class ActionBreakdown:
    """Kinetic/potential split plus the per-pair two-body action terms.

    Each pair term is integral of (1/2 |v_i - v_j|^2 + (N+3)/|q_i - q_j|);
    their sum divided by N+3 must reproduce the total when the center of
    mass vanishes identically.
    """

    kinetic: float
    potential: float
    total: float
    pairs: tuple[tuple[tuple[int, int], float], ...]  # ((i, j) 1-based, value)

    @property
    def pairwise_total(self) -> float:
        n_bodies = max(j for (_, j), _ in self.pairs)
        return sum(v for _, v in self.pairs) / n_bodies

    def to_dict(self) -> dict:
        return {
            "kinetic": self.kinetic,
            "potential": self.potential,
            "total": self.total,
            "pairs": [[i, j, v] for (i, j), v in self.pairs],
        }


def kinetic_action(system: SystemLoop) -> float:
    """Exact kinetic action: N/2 sum (2 pi m)^2 |c_m|^2 + 3/2 sum (2 pi m)^2 |b_m|^2."""
    n = system.params.n_main
    fm = np.array(system.main.freqs, dtype=float)
    ft = np.array(system.triple.freqs, dtype=float)
    km = 0.5 * n * np.sum((TWO_PI * fm) ** 2 * np.abs(system.main.coeffs) ** 2)
    kt = 0.5 * 3 * np.sum((TWO_PI * ft) ** 2 * np.abs(system.triple.coeffs) ** 2)
    return float(km + kt)


def _require_separated(sep: MinSeparation) -> MinSeparation:
    """``sep``, or ValueError on a near-collision sample naming its bodies and node."""
    if sep.distance < DISTANCE_FLOOR:
        (i, j), k = sep.pair, sep.time_index
        raise ValueError(
            f"near-collision sample: bodies {i} and {j} at node {k} are {sep.distance:.3e} apart"
        )
    return sep


def checked_min_separation(traj: Trajectory) -> MinSeparation:
    """``loops.min_separation`` of a trajectory; ValueError on a near-collision."""
    return _require_separated(min_separation(traj))


def total_action(
    system: SystemLoop, m_samples: int, traj: Trajectory | None = None
) -> ActionBreakdown:
    """Full action with the per-pair two-body decomposition, over all pairs and nodes.

    ``traj`` may pass sample(system, m_samples) whose separation the caller
    has already checked with ``checked_min_separation``; otherwise it is
    sampled and checked here.
    """
    if traj is None:
        traj = sample(system, m_samples)
        checked_min_separation(traj)
    elif traj.m_samples != m_samples:
        raise ValueError(f"trajectory has M={traj.m_samples}, not {m_samples}")
    inv_d = kernels.pair_mean_inverse_distance(traj.positions)
    rel_v2 = kernels.pair_mean_square_relative_velocity(traj.velocities)
    kin = kinetic_action(system)
    pot = float(inv_d.sum())
    n_bodies = system.params.n_bodies
    pair_ids = kernels.pair_index_table(n_bodies)
    pairs = tuple(
        ((int(i) + 1, int(j) + 1), float(0.5 * v2 + n_bodies * invd))
        for (i, j), v2, invd in zip(pair_ids, rel_v2, inv_d)
    )
    return ActionBreakdown(kinetic=kin, potential=pot, total=kin + pot, pairs=pairs)


def _phase_table(freqs: np.ndarray, roots: np.ndarray, m_nodes: int) -> np.ndarray:
    """(F, m_nodes) table of e^(2 pi i m k / M) for k < m_nodes, read from
    roots = roots_of_unity(M) at m*k reduced modulo M."""
    return roots.take(np.outer(freqs, np.arange(m_nodes)) % len(roots))


def _chain_phases(freqs: np.ndarray, chain_length: int, rows: int) -> np.ndarray:
    """(rows, F) table of e^(2 pi i m b / L): the phase of body b+1 of a chain of L."""
    ticks = np.outer(np.arange(rows), freqs) % chain_length
    return np.exp((TWO_PI / chain_length) * 1j * ticks)


def _chain_gradient(fz: np.ndarray, table_h: np.ndarray, phase_conj: np.ndarray) -> np.ndarray:
    """sum over rows b and nodes k of fz[b, k] conj(phase[b, f] table[f, k]), per f,
    from the conjugate transpose table_h of the table and the conjugated phases."""
    return ((fz @ table_h) * phase_conj).sum(axis=0)


class ActionWorkspace:
    """Phase tables for repeated evaluation on a fixed frequency basis and grid.

    Coefficients are passed as two complex arrays (cm, ct) aligned with
    main_freqs and triple_freqs. Everything runs on the reduced body set, the
    bodies of the ``symmetry.pair_kinds`` representatives, and on the first
    M/r nodes, one fundamental domain of g1 (see the module docstring): the
    value and separation scan over the weighted representative pairs, the
    gradient through the generator phases of the reduced rows, and the
    winding guard over one domain arc per same-chain representative, all
    wound in one stacked pass. Both chains' rows are written into one complex
    array, and positions are its float64 view, not a copy. The conjugated
    phase tables of the gradient are built once, with the workspace. All
    evaluations share one discretization, so value_and_gradient returns the
    exact gradient of the value it reports.
    """

    def __init__(self, params: SymmetryParams, main_freqs, triple_freqs, m_samples: int):
        require_grid(params, m_samples)
        self.params = params
        self.m_samples = m_samples
        self.m_domain = m_samples // params.r
        self.main_freqs = np.array(sorted(int(m) for m in main_freqs), dtype=np.int64)
        self.triple_freqs = np.array(sorted(int(m) for m in triple_freqs), dtype=np.int64)
        n = params.n_main
        self.bodies, self._pairs = representative_rows(params)
        self._weights = np.array([kind.multiplicity for kind in pair_kinds(params)], dtype=float)
        self._n_main_rows = n // 2 + 1
        roots = roots_of_unity(m_samples)
        self._em = _phase_table(self.main_freqs, roots, self.m_domain)   # (F, M/r)
        self._et = _phase_table(self.triple_freqs, roots, self.m_domain)
        self._main_phase = _chain_phases(self.main_freqs, n, self._n_main_rows)  # (rows, F)
        self._triple_phase = _chain_phases(self.triple_freqs, 3, 2)
        # the gradient's conjugated tables, (M/r, F) and (rows, F)
        self._em_h, self._et_h = self._em.conj().T, self._et.conj().T
        self._main_phase_conj = self._main_phase.conj()
        self._triple_phase_conj = self._triple_phase.conj()
        self.kinetic_weights_main = n * (TWO_PI * self.main_freqs.astype(float)) ** 2
        self.kinetic_weights_triple = 3 * (TWO_PI * self.triple_freqs.astype(float)) ** 2
        coupling = 3 * n
        self._coupled = [
            (im, int(np.where(self.triple_freqs == m)[0][0]))
            for im, m in enumerate(self.main_freqs)
            if m % coupling == 0 and m in set(self.triple_freqs.tolist())
        ]

    @classmethod
    def for_system(cls, system: SystemLoop, m_samples: int) -> "ActionWorkspace":
        return cls(system.params, system.main.freqs, system.triple.freqs, m_samples)

    # -- coefficient-space helpers --

    def project(self, cm: np.ndarray, ct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Orthogonal projection onto zero center of mass (see the module docstring).

        At each frequency m divisible by 3N that is in both bases, the
        least-squares update enforces N*c_m + 3*b_m = 0. A coupled frequency
        in one basis only is left as it is, like every other coefficient;
        bases drawn at one cutoff hold each coupled frequency in both.
        Idempotent.
        """
        cm, ct = cm.copy(), ct.copy()
        n = self.params.n_main
        for im, it in self._coupled:
            lam = (n * cm[im] + 3.0 * ct[it]) / (n * n + 9.0)
            cm[im] -= n * lam
            ct[it] -= 3.0 * lam
        return cm, ct

    def positions(self, cm: np.ndarray, ct: np.ndarray) -> np.ndarray:
        """(floor(N/2)+3, M/r, 2) positions of the reduced rows on the domain.

        The rows are bodies 1..floor(N/2)+1 (the main generator advanced by
        b/N, b = 0..floor(N/2)) and bodies N+1, N+2 (the triple generator
        advanced by 0 and 1/3), as listed in ``bodies``. Both chains are
        written into one complex array, returned as its float64 view.
        """
        rows = self._n_main_rows
        z = np.empty((rows + 2, self.m_domain), dtype=complex)
        np.matmul(cm * self._main_phase, self._em, out=z[:rows])
        np.matmul(ct * self._triple_phase, self._et, out=z[rows:])
        return z.view(np.float64).reshape(*z.shape, 2)

    def min_separation(self, pos: np.ndarray) -> MinSeparation:
        """``loops.domain_min_separation`` of positions(cm, ct), over all pairs and nodes."""
        return domain_min_separation(pos, self.bodies, self._pairs)

    def windings(self, pos: np.ndarray) -> dict[str, list[list[int]]]:
        """``loops.domain_windings`` of positions(cm, ct)."""
        return domain_windings(self.params, pos)

    def kinetic(self, cm: np.ndarray, ct: np.ndarray) -> float:
        return float(
            0.5 * np.sum(self.kinetic_weights_main * np.abs(cm) ** 2)
            + 0.5 * np.sum(self.kinetic_weights_triple * np.abs(ct) ** 2)
        )

    def _checked_positions(self, cm, ct) -> np.ndarray:
        pos = self.positions(cm, ct)
        _require_separated(self.min_separation(pos))
        return pos

    def value(self, cm: np.ndarray, ct: np.ndarray, pos=None) -> float:
        """Discretized action.

        ``pos`` may pass positions(cm, ct) whose separation the caller has
        already checked; otherwise they are computed and checked here.
        """
        if pos is None:
            pos = self._checked_positions(cm, ct)
        potential = self._weights @ kernels.pair_mean_inverse_distance(pos, self._pairs)
        return self.kinetic(cm, ct) + float(potential)

    def gradient(self, cm, ct, pos) -> tuple[np.ndarray, np.ndarray]:
        """Exact coefficient gradient (projected) of the value at positions(cm, ct)."""
        forces = kernels.pair_forces(pos, self._pairs, self._weights)
        fz = forces[..., 0] + 1j * forces[..., 1]  # dU/dq of each reduced row
        rows, md = self._n_main_rows, self.m_domain
        gm = self.kinetic_weights_main * cm + (
            _chain_gradient(fz[:rows], self._em_h, self._main_phase_conj) / md
        )
        gt = self.kinetic_weights_triple * ct + (
            _chain_gradient(fz[rows:], self._et_h, self._triple_phase_conj) / md
        )
        return self.project(gm, gt)

    def value_and_gradient(self, cm, ct, pos=None) -> tuple[float, np.ndarray, np.ndarray]:
        """Discretized action and its exact coefficient gradient; ``pos`` as in value."""
        if pos is None:
            pos = self._checked_positions(cm, ct)
        return (self.value(cm, ct, pos), *self.gradient(cm, ct, pos))

    def coefficients_of(self, system: SystemLoop) -> tuple[np.ndarray, np.ndarray]:
        """Embed a system's spectra into this workspace's frequency basis."""
        cm = np.zeros(len(self.main_freqs), dtype=complex)
        ct = np.zeros(len(self.triple_freqs), dtype=complex)
        for m, c in zip(system.main.freqs, system.main.coeffs):
            hits = np.where(self.main_freqs == m)[0]
            if not len(hits):
                raise ValueError(f"main frequency {m} outside workspace basis")
            cm[hits[0]] = c
        for m, c in zip(system.triple.freqs, system.triple.coeffs):
            hits = np.where(self.triple_freqs == m)[0]
            if not len(hits):
                raise ValueError(f"triple frequency {m} outside workspace basis")
            ct[hits[0]] = c
        return cm, ct
