"""Lagrangian action of a system loop, pairwise decomposition, and gradient.

The action over one period is

    f = integral_0^1 ( 1/2 sum_i |dq_i/dt|^2 + sum_{i<j} 1/|q_i - q_j| ) dt.

The kinetic part is evaluated in closed form from the generator spectra
(every body is a time shift of its generator, so all bodies of a chain share
one speed profile). The potential part uses the trapezoid rule on a uniform
periodic grid, which for smooth non-collision loops converges spectrally and
reduces to the plain node average. The gradient is the exact gradient of the
discretized functional, projected onto the zero center-of-mass subspace.

ActionWorkspace evaluates on one fundamental domain of g1. Every admissible
frequency satisfies m = d (mod r), so q(t + 1/r) = e^(2 pi i d/r) q(t) for
every body: pair distances and the potential integrand are 1/r-periodic, and
in the gradient sum the factor conj(e_m(t + 1/r)) e^(2 pi i d/r) is 1. On a
grid of M nodes (a multiple of r), value, gradient and minimum separation
therefore equal their averages or minima over the first M/r nodes, up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .loops import SystemLoop, chain_nodes, require_grid, sample, winding_number
from .symmetry import SymmetryParams

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


@dataclass(frozen=True)
class CoefficientGradient:
    """Gradient of the discretized action per generator coefficient.

    Entries are complex numbers whose real/imaginary parts are the partial
    derivatives with respect to the x/y parts of the coefficient.
    """

    main_freqs: tuple[int, ...]
    main: np.ndarray
    triple_freqs: tuple[int, ...]
    triple: np.ndarray

    def norm(self) -> float:
        return float(
            np.sqrt((np.abs(self.main) ** 2).sum() + (np.abs(self.triple) ** 2).sum())
        )


def kinetic_action(system: SystemLoop) -> float:
    """Exact kinetic action: N/2 sum (2 pi m)^2 |c_m|^2 + 3/2 sum (2 pi m)^2 |b_m|^2."""
    n = system.params.n_main
    fm = np.array(system.main.freqs, dtype=float)
    ft = np.array(system.triple.freqs, dtype=float)
    km = 0.5 * n * np.sum((TWO_PI * fm) ** 2 * np.abs(system.main.coeffs) ** 2)
    kt = 0.5 * 3 * np.sum((TWO_PI * ft) ** 2 * np.abs(system.triple.coeffs) ** 2)
    return float(km + kt)


def _check_separation(positions: np.ndarray) -> None:
    d, i, j, k = kernels.min_separation_scan(positions)
    if d < DISTANCE_FLOOR:
        raise ValueError(
            f"near-collision sample: bodies {i + 1} and {j + 1} at node {k} "
            f"are {d:.3e} apart"
        )


def potential_action(system: SystemLoop, m_samples: int) -> float:
    """Trapezoid quadrature of sum_{i<j} 1/|q_i - q_j| over one period."""
    traj = sample(system, m_samples)
    _check_separation(traj.positions)
    per_pair = kernels.pair_mean_inverse_distance(traj.positions)
    return float(per_pair.sum())


def total_action(system: SystemLoop, m_samples: int) -> ActionBreakdown:
    """Full action with the per-pair two-body decomposition."""
    traj = sample(system, m_samples)
    _check_separation(traj.positions)
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


def _phase_table(freqs: np.ndarray, m_samples: int) -> np.ndarray:
    """(F, M) table of e^(2 pi i m k / M), with m*k reduced modulo M first."""
    ticks = np.outer(freqs, np.arange(m_samples)) % m_samples
    return np.exp((TWO_PI / m_samples) * 1j * ticks)


def _chain_phases(freqs: np.ndarray, chain_length: int) -> np.ndarray:
    """(L, F) table of e^(-2 pi i m b / L): body b's conjugate phase per frequency."""
    ticks = np.outer(np.arange(chain_length), freqs) % chain_length
    return np.exp((-TWO_PI / chain_length) * 1j * ticks)


class ActionWorkspace:
    """Phase tables for repeated evaluation on a fixed frequency basis and grid.

    Coefficients are passed as two complex arrays (cm, ct) aligned with
    main_freqs and triple_freqs. Each generator is sampled on all M nodes from
    one (F, M) phase table, and every other body reads its generator at
    shifted nodes. Value, gradient and separation scan run on the first M/r
    nodes, one fundamental domain of g1 (see the module docstring). All
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
        self._em = _phase_table(self.main_freqs, m_samples)      # (F, M)
        self._et = _phase_table(self.triple_freqs, m_samples)
        self._main_nodes = chain_nodes(n, m_samples)[:, : self.m_domain]
        self._triple_nodes = chain_nodes(3, m_samples)[:, : self.m_domain]
        self._main_phase = _chain_phases(self.main_freqs, n)    # (N, F)
        self._triple_phase = _chain_phases(self.triple_freqs, 3)
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
        """Least-squares enforcement of N*c_m + 3*b_m = 0 at coupled frequencies."""
        cm, ct = cm.copy(), ct.copy()
        n = self.params.n_main
        for im, it in self._coupled:
            lam = (n * cm[im] + 3.0 * ct[it]) / (n * n + 9.0)
            cm[im] -= n * lam
            ct[it] -= 3.0 * lam
        return cm, ct

    def _generators(self, cm: np.ndarray, ct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Main and triple generator on all M nodes, as complex samples."""
        return np.einsum("f,fk->k", cm, self._em), np.einsum("f,fk->k", ct, self._et)

    def positions(self, cm: np.ndarray, ct: np.ndarray) -> np.ndarray:
        """(N+3, M/r, 2) positions of every body on the fundamental domain."""
        zm, zt = self._generators(cm, ct)
        z = np.concatenate([zm[self._main_nodes], zt[self._triple_nodes]])
        return np.stack([z.real, z.imag], axis=-1)

    def windings(self, cm: np.ndarray, ct: np.ndarray) -> dict[str, list[list[int]]]:
        """Windings of all same-chain pairs, in the layout of loops.winding_table.

        Main pair (i, j) is pair (1, 1+s) advanced in time, s = j - i, and
        the negative of pair (1, 1+N-s) advanced in time; neither changes a
        winding number, so floor(N/2) offsets cover the main chain. The three
        triple pairs are all pair (N+1, N+2) advanced in time. Representatives
        are taken from the full-grid generator samples; an undersampled one
        raises ValueError as winding_number does.
        """
        zm, zt = self._generators(cm, ct)
        n, m_samples = self.params.n_main, self.m_samples

        def wind(z, shift):
            rel = z - np.roll(z, -shift)
            return winding_number(np.stack([rel.real, rel.imag], axis=-1), (0.0, 0.0))

        by_offset = {s: wind(zm, s * m_samples // n) for s in range(1, n // 2 + 1)}
        triple = wind(zt, m_samples // 3)
        return {
            "main": [
                [i + 1, j + 1, by_offset[min(j - i, n - (j - i))]]
                for i in range(n)
                for j in range(i + 1, n)
            ],
            "triple": [
                [i + 1, j + 1, triple] for i in range(n, n + 3) for j in range(i + 1, n + 3)
            ],
        }

    def kinetic(self, cm: np.ndarray, ct: np.ndarray) -> float:
        return float(
            0.5 * np.sum(self.kinetic_weights_main * np.abs(cm) ** 2)
            + 0.5 * np.sum(self.kinetic_weights_triple * np.abs(ct) ** 2)
        )

    def value(self, cm: np.ndarray, ct: np.ndarray, pos=None) -> float:
        """Discretized action.

        ``pos`` may pass positions(cm, ct) whose separation the caller has
        already checked; otherwise they are computed and checked here.
        """
        if pos is None:
            pos = self.positions(cm, ct)
            _check_separation(pos)
        return self.kinetic(cm, ct) + float(kernels.pair_mean_inverse_distance(pos).sum())

    def gradient(self, cm, ct, pos) -> tuple[np.ndarray, np.ndarray]:
        """Exact coefficient gradient (projected) of the value at positions(cm, ct)."""
        forces = kernels.pair_forces(pos)
        fz = forces[..., 0] + 1j * forces[..., 1]  # dU/dq_i as complex numbers
        n, md = self.params.n_main, self.m_domain
        gm = self.kinetic_weights_main * cm + np.einsum(
            "bk,fk,bf->f", fz[:n], np.conj(self._em[:, :md]), self._main_phase
        ) / md
        gt = self.kinetic_weights_triple * ct + np.einsum(
            "bk,fk,bf->f", fz[n:], np.conj(self._et[:, :md]), self._triple_phase
        ) / md
        return self.project(gm, gt)

    def value_and_gradient(self, cm, ct, pos=None) -> tuple[float, np.ndarray, np.ndarray]:
        """Discretized action and its exact coefficient gradient; ``pos`` as in value."""
        if pos is None:
            pos = self.positions(cm, ct)
            _check_separation(pos)
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


def action_gradient(system: SystemLoop, m_samples: int) -> CoefficientGradient:
    """One-shot exact gradient of the discretized action for a system loop."""
    ws = ActionWorkspace.for_system(system, m_samples)
    cm, ct = ws.coefficients_of(system)
    _, gm, gt = ws.value_and_gradient(cm, ct)
    return CoefficientGradient(
        main_freqs=tuple(int(m) for m in ws.main_freqs),
        main=gm,
        triple_freqs=tuple(int(m) for m in ws.triple_freqs),
        triple=gt,
    )


def wirtinger_margins(system: SystemLoop) -> dict[str, float]:
    """Per-chain margin of the zero-mean kinetic inequality.

    For a zero-mean 1-periodic loop, integral |dq/dt|^2 >= (2 pi)^2 integral
    |q|^2; in spectral form the margin is sum ((2 pi m)^2 - (2 pi)^2) |c_m|^2.
    Nonnegative whenever every allowed frequency has |m| >= 1.
    """
    out = {}
    for name, spec in (("main", system.main), ("triple", system.triple)):
        m = np.array(spec.freqs, dtype=float)
        a2 = np.abs(spec.coeffs) ** 2
        out[name] = float(np.sum(((TWO_PI * m) ** 2 - TWO_PI**2) * a2))
    return out


def sobolev_margins(system: SystemLoop, m_samples: int) -> dict[str, float]:
    """Per-chain margin of max|q| <= sqrt(1/12) (integral |dq/dt|^2)^(1/2)."""
    traj = sample(system, m_samples)
    n = system.params.n_main
    out = {}
    for name, body, spec in (("main", 0, system.main), ("triple", n, system.triple)):
        m = np.array(spec.freqs, dtype=float)
        energy = float(np.sum((TWO_PI * m) ** 2 * np.abs(spec.coeffs) ** 2))
        peak = float(np.sqrt((traj.positions[body] ** 2).sum(axis=1)).max())
        out[name] = float(np.sqrt(energy / 12.0) - peak)
    return out


def lagrangian_identity_gap(breakdown: ActionBreakdown) -> float:
    """|direct total - pairwise total|: zero when the center of mass vanishes."""
    return abs(breakdown.total - breakdown.pairwise_total)
