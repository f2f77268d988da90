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

ActionWorkspace.hessian is the exact Hessian of the value in the
interleaved (Re c_j, Im c_j) coordinates of c.view(float), c the
workspace's coefficient vector: the main coefficients then the triple ones,
j = 1..F. It is assembled by discrete Fourier transforms, not by
(coefficient x node) Jacobians. For a representative pair p = (a, b) of
weight w_p, let D_k = q_a - q_b at domain node k < M/r, and
g_pj = phi_aj - phi_bj the difference of the rows' phases of coefficient j
(zero off a row's chain), so that D_k = sum_j g_pj c_j e^(2 pi i m_j k/M).
With the node weights

    alpha_k = w_p / (2 (M/r) |D_k|^3),
    beta_k = 3 w_p conj(D_k)^2 / (2 (M/r) |D_k|^5),

the potential's part of dx^T H dx, dx = dc.view(float) for a coefficient
change dc, is sum_jl A_jl dc_j conj(dc_l) + Re sum_jl B_jl dc_j dc_l, where
A_jl sums alpha_k g_pj conj(g_pl) e^(2 pi i (m_j - m_l) k/M) and B_jl sums
beta_k g_pj g_pl e^(2 pi i (m_j + m_l) k/M) over pairs and nodes. Every
frequency is d (mod r), so m_j - m_l and m_j + m_l - 2d are multiples of r,
and each node sum is one DFT coefficient over the M/r domain nodes:

    A_jl = sum_p g_pj conj(g_pl) Ahat_p[(m_j - m_l)/r],
    B_jl = sum_p g_pj g_pl Bhat_p[(m_j + m_l - 2d)/r],

indices mod M/r, where Ahat_p[q] = sum_k alpha_k e^(2 pi i q k/(M/r)) and
Bhat_p the same transform of beta_k e^(4 pi i d k/M): one inverse FFT per
pair for each. In real coordinates H_uu = Re A + Re B, H_vv = Re A - Re B
and H_uv = Im A - Im B, H_vu its transpose. The kinetic weights go on the
diagonal, and the result is P H P with P the matrix of project. The
workspace builds the products of g, the two (F x F) index tables and the
twist e^(4 pi i d k/M), read from loops.roots_of_unity(M), once.
"""

from __future__ import annotations

import math
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
        # math.fsum rounds once on every Python; the builtin sum is compensated from 3.12 on only.
        return math.fsum(v for _, v in self.pairs) / n_bodies

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
    """``sep``, or ValueError naming its bodies and node on a near-collision
    sample or a NaN separation."""
    if not sep.distance >= DISTANCE_FLOOR:
        (i, j), k = sep.pair, sep.time_index
        what = "NaN separation" if math.isnan(sep.distance) else "near-collision sample"
        raise ValueError(f"{what}: bodies {i} and {j} at node {k} are {sep.distance:.3e} apart")
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
    terms = (0.5 * rel_v2 + n_bodies * inv_d).tolist()
    pairs = tuple(
        ((i + 1, j + 1), term)
        for (i, j), term in zip(kernels.pair_index_table(n_bodies).tolist(), terms)
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


class ActionWorkspace:
    """Phase tables for repeated evaluation on a fixed frequency basis and grid.

    Coefficients are one complex vector c aligned with ``freqs``: the main
    generator's coefficients at main_freqs, then the triple generator's at
    triple_freqs, so c.view(float) is the solver's real coordinate vector.
    Everything runs on the reduced body set, the bodies of the
    ``symmetry.pair_kinds`` representatives, and on the first M/r nodes, one
    fundamental domain of g1 (see the module docstring): the value and
    separation scan over the weighted representative pairs, the gradient
    through the generator phases of the reduced rows, and the winding guard
    over one domain arc per same-chain representative, all wound in one
    stacked pass. One phase table serves both chains: each reduced row's
    phases are zero on the other chain's coefficients. Positions are the
    float64 view of one complex product, not a copy. The conjugated tables of
    the gradient are built once, with the workspace. All evaluations share
    one discretization, so value_and_gradient returns the exact gradient of
    the value it reports.
    """

    def __init__(self, params: SymmetryParams, main_freqs, triple_freqs, m_samples: int):
        require_grid(params, m_samples)
        self.params = params
        self.m_samples = m_samples
        self.m_domain = md = m_samples // params.r
        main = sorted(int(m) for m in main_freqs)
        nm = len(main)
        self.freqs = np.array(main + sorted(int(m) for m in triple_freqs), dtype=np.int64)
        self.main_freqs, self.triple_freqs = self.freqs[:nm], self.freqs[nm:]
        n, r, d = params.n_main, params.r, params.d
        self.bodies, self._pairs = representative_rows(params)
        self._weights = np.array([kind.multiplicity for kind in pair_kinds(params)], dtype=float)
        roots = roots_of_unity(m_samples)
        self._table = _phase_table(self.freqs, roots, md)  # (F, M/r)
        self._table_h = self._table.conj().T
        rows = n // 2 + 1
        self._phases = np.zeros((rows + 2, len(self.freqs)), dtype=complex)  # (rows + 2, F)
        self._phases[:rows, :nm] = _chain_phases(self.main_freqs, n, rows)
        self._phases[rows:, nm:] = _chain_phases(self.triple_freqs, 3, 2)
        self._phases_conj = self._phases.conj()
        chain_length = np.where(np.arange(len(self.freqs)) < nm, n, 3)
        self.kinetic_weights = chain_length * (TWO_PI * self.freqs.astype(float)) ** 2
        triple_index = {int(m): nm + it for it, m in enumerate(self.triple_freqs)}
        self._coupled = [
            (im, triple_index[m])
            for im, m in enumerate(main)
            if m % (3 * n) == 0 and m in triple_index
        ]
        # the tables of hessian (see the module docstring): the pair phase
        # differences g, their products, the two frequency index tables, the
        # twist and the projector
        ii, jj = self._pairs.T
        g = self._phases[ii] - self._phases[jj]                 # (P, F)
        self._gg_conj = g[:, :, None] * g.conj()[:, None, :]    # g_j conj(g_l)
        self._gg = g[:, :, None] * g[:, None, :]                # g_j g_l
        # every frequency is d (mod r): both differences are whole multiples of r
        self._index_minus = (self.freqs[:, None] - self.freqs[None, :]) // r % md
        self._index_plus = (self.freqs[:, None] + self.freqs[None, :] - 2 * d) // r % md
        self._twist = roots.take(2 * d * np.arange(md) % m_samples)
        self._kinetic_diag = np.repeat(self.kinetic_weights, 2)
        # project() of every unit coefficient vector at once, a real matrix,
        # acting alike on the real and imaginary parts of c.view(float)
        self._projector = np.kron(self.project(np.eye(len(self.freqs))), np.eye(2))

    @classmethod
    def for_system(cls, system: SystemLoop, m_samples: int) -> "ActionWorkspace":
        return cls(system.params, system.main.freqs, system.triple.freqs, m_samples)

    # -- coefficient-space helpers --

    def project(self, c: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto zero center of mass (see the module docstring).

        At each frequency m divisible by 3N that is in both bases, the
        least-squares update enforces N*c_m + 3*b_m = 0. A coupled frequency
        in one basis only is left as it is, like every other coefficient;
        bases drawn at one cutoff hold each coupled frequency in both.
        Acts on the first axis, so project(np.eye(F)) is the projector's
        matrix. Idempotent.
        """
        c = c.copy()
        n = self.params.n_main
        for im, it in self._coupled:
            lam = (n * c[im] + 3.0 * c[it]) / (n * n + 9.0)
            c[im] -= n * lam
            c[it] -= 3.0 * lam
        return c

    def positions(self, c: np.ndarray) -> np.ndarray:
        """(floor(N/2)+3, M/r, 2) positions of the reduced rows on the domain.

        The rows are bodies 1..floor(N/2)+1 (the main generator advanced by
        b/N, b = 0..floor(N/2)) and bodies N+1, N+2 (the triple generator
        advanced by 0 and 1/3), as listed in ``bodies``. All rows are one
        complex product, returned as its float64 view.
        """
        z = (c * self._phases) @ self._table
        return z.view(np.float64).reshape(*z.shape, 2)

    def min_separation(self, pos: np.ndarray) -> MinSeparation:
        """``loops.domain_min_separation`` of positions(c), over all pairs and nodes."""
        return domain_min_separation(pos, self.bodies, self._pairs)

    def windings(self, pos: np.ndarray) -> dict[str, list[list[int]]]:
        """``loops.domain_windings`` of positions(c)."""
        return domain_windings(self.params, pos)

    def kinetic(self, c: np.ndarray) -> float:
        return float(0.5 * np.sum(self.kinetic_weights * np.abs(c) ** 2))

    def _checked_positions(self, c: np.ndarray) -> np.ndarray:
        pos = self.positions(c)
        _require_separated(self.min_separation(pos))
        return pos

    def value(self, c: np.ndarray, pos=None) -> float:
        """Discretized action.

        ``pos`` may pass positions(c) whose separation the caller has already
        checked; otherwise they are computed and checked here.
        """
        if pos is None:
            pos = self._checked_positions(c)
        potential = self._weights @ kernels.pair_mean_inverse_distance(pos, self._pairs)
        return self.kinetic(c) + float(potential)

    def gradient(self, c: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Exact coefficient gradient (projected) of the value at positions(c)."""
        forces = kernels.pair_forces(pos, self._pairs, self._weights)
        fz = forces[..., 0] + 1j * forces[..., 1]  # dU/dq of each reduced row
        # sum over rows b and nodes k of fz[b, k] conj(phase[b, j] table[j, k])
        potential = ((fz @ self._table_h) * self._phases_conj).sum(axis=0)
        return self.project(self.kinetic_weights * c + potential / self.m_domain)

    def hessian(self, pos: np.ndarray) -> np.ndarray:
        """Exact Hessian (projected) of the value at positions ``pos``, in the
        interleaved (Re c, Im c) coordinates of c.view(float); assembled by
        DFTs of per-pair node weights (see the module docstring)."""
        z = np.ascontiguousarray(pos).view(complex)[..., 0]
        ii, jj = self._pairs.T
        diff = z[ii] - z[jj]                                    # D_k, (P, M/r)
        inv2 = 1.0 / (diff.real**2 + diff.imag**2)
        alpha = (0.5 * self._weights)[:, None] * inv2 * np.sqrt(inv2)
        beta = 3.0 * alpha * inv2 * diff.conj() ** 2 * self._twist
        # the node average's 1/(M/r) cancels the one of the inverse DFT
        a_hat, b_hat = np.fft.ifft(alpha, axis=1), np.fft.ifft(beta, axis=1)
        a = (self._gg_conj * a_hat[:, self._index_minus]).sum(axis=0)
        b = (self._gg * b_hat[:, self._index_plus]).sum(axis=0)
        f = len(a)
        h = np.empty((2 * f, 2 * f))
        h[0::2, 0::2] = a.real + b.real
        h[1::2, 1::2] = a.real - b.real
        h[0::2, 1::2] = a.imag - b.imag
        h[1::2, 0::2] = h[0::2, 1::2].T
        h[np.diag_indices(2 * f)] += self._kinetic_diag
        return self._projector @ h @ self._projector

    def value_and_gradient(self, c: np.ndarray, pos=None) -> tuple[float, np.ndarray]:
        """Discretized action and its exact coefficient gradient; ``pos`` as in value."""
        if pos is None:
            pos = self._checked_positions(c)
        return self.value(c, pos), self.gradient(c, pos)

    def coefficients_of(self, system: SystemLoop) -> np.ndarray:
        """Embed a system's spectra into this workspace's coefficient vector.

        Each role is looked up in its own slice: a coupled frequency is in both.
        """
        c = np.zeros(len(self.freqs), dtype=complex)
        offset = 0
        for spectrum, basis in ((system.main, self.main_freqs), (system.triple, self.triple_freqs)):
            for m, coeff in zip(spectrum.freqs, spectrum.coeffs):
                hits = np.flatnonzero(basis == m)
                if not len(hits):
                    raise ValueError(f"{spectrum.role} frequency {m} outside workspace basis")
                c[offset + hits[0]] = coeff
            offset += len(basis)
        return c
