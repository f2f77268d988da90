"""Loop representation: generator spectra, sampling, winding numbers, diagnostics.

A system loop stores only the two generating bodies as truncated planar
trigonometric spectra; the remaining bodies are time shifts of them:

  q_i(t)     = q_1(t + (i-1)/N)        for i = 2..N,
  q_{N+j}(t) = q_{N+1}(t + (j-1)/3)    for j = 2, 3.

The plane is identified with the complex numbers, so a generator is
q(t) = sum_m c_m e^(2*pi*i*m*t) with complex coefficients c_m restricted to
the symmetry-allowed frequencies of its role.

``sample`` uses these shifts. On a grid of M nodes (a multiple of N and 3)
body i of the main chain is the main generator read (i-1)*M/N nodes later,
and body N+j is the triple generator read (j-1)*M/3 nodes later, so only the
two generators are evaluated on the grid and the other bodies are index
shifts of them. Bodies 2 and N+2 are the exception: each is evaluated
directly at its own times, so the g2/g3 residuals of
``group_action_residual`` compare a shifted generator with an independent
evaluation rather than with a copy of itself. Index-shifted samples differ
from ``evaluate(body, t_k)`` in the last bits only.

Every same-chain pair is a time shift of a representative pair, or its
negation: (1, 1+s) for s = 1..floor(N/2) on the main chain and (N+1, N+2)
on the triple chain. ``winding_table`` winds the representatives and
``expand_windings`` lists them for every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .symmetry import ROLE_MAIN, ROLE_TRIPLE, SymmetryParams, frequency_allowed

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GeneratorSpectrum:
    """Finite frequency -> planar coefficient map for one generating body."""

    role: str
    freqs: tuple[int, ...]
    coeffs: np.ndarray  # complex128, aligned with freqs

    def __post_init__(self):
        if self.role not in (ROLE_MAIN, ROLE_TRIPLE):
            raise ValueError(f"unknown role {self.role!r}")
        freqs = tuple(int(m) for m in self.freqs)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (len(freqs),):
            raise ValueError("coeffs must align with freqs")
        if len(set(freqs)) != len(freqs):
            raise ValueError("duplicate frequencies in spectrum")
        order = np.argsort(freqs)
        object.__setattr__(self, "freqs", tuple(freqs[i] for i in order))
        object.__setattr__(self, "coeffs", coeffs[order])  # a copy, in frequency order
        self.coeffs.setflags(write=False)

    @classmethod
    def from_pairs(cls, role: str, entries) -> "GeneratorSpectrum":
        """Build from [(m, cx, cy), ...] rows."""
        freqs = [int(e[0]) for e in entries]
        coeffs = [complex(float(e[1]), float(e[2])) for e in entries]
        return cls(role, tuple(freqs), np.array(coeffs, dtype=complex))

    def to_rows(self) -> list[list]:
        return [[m, float(c.real), float(c.imag)] for m, c in zip(self.freqs, self.coeffs)]


@dataclass(frozen=True)
class SystemLoop:
    """Symmetric loop of all N+3 bodies, generated by two spectra."""

    params: SymmetryParams
    main: GeneratorSpectrum
    triple: GeneratorSpectrum

    def __post_init__(self):
        if self.main.role != ROLE_MAIN or self.triple.role != ROLE_TRIPLE:
            raise ValueError("spectra roles must be (main, triple)")
        for spec in (self.main, self.triple):
            for m in spec.freqs:
                if not frequency_allowed(self.params, spec.role, m):
                    raise ValueError(
                        f"frequency {m} not admissible for role {spec.role!r} "
                        f"with params {self.params}"
                    )

    def body_shift(self, body: int) -> float:
        """Time shift applied to the generator to obtain body ``body`` (1-based)."""
        n = self.params.n_main
        if 1 <= body <= n:
            return (body - 1) / n
        if n < body <= n + 3:
            return (body - 1 - n) / 3
        raise IndexError(f"body index {body} out of range 1..{n + 3}")

    def generator_for(self, body: int) -> GeneratorSpectrum:
        return self.main if body <= self.params.n_main else self.triple


def _spectral_sums(freqs, coeffs, u, derivatives) -> list[np.ndarray]:
    """sum_m c_m (2*pi*i*m)^d e^(2*pi*i*m*u) for each order d, elementwise over u.

    Each exponential is computed once and shared by every order. Accumulates
    frequency by frequency in ascending order so each result is identical bit
    for bit regardless of the shape of u and of the other orders asked for.
    """
    u = np.asarray(u, dtype=float)
    outs = [np.zeros(u.shape, dtype=complex) for _ in derivatives]
    for m, c in zip(freqs, coeffs):
        wave = np.exp((TWO_PI * m) * 1j * u)
        for out, derivative in zip(outs, derivatives):
            factor = c * (TWO_PI * 1j * m) ** derivative
            out += factor * wave
    return outs


def _complex_to_planar(z: np.ndarray) -> np.ndarray:
    return np.stack([z.real, z.imag], axis=-1)


def evaluate(
    system: SystemLoop, body: int, t, derivative: int | tuple[int, ...] = 0
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Position (or time derivative) of one body at time(s) t, shape (..., 2).

    ``derivative`` may also be a tuple of orders; then one array per order is
    returned, each equal bit for bit to its single-order evaluation.
    """
    spec = system.generator_for(body)
    u = np.asarray(t, dtype=float) + system.body_shift(body)
    orders = derivative if isinstance(derivative, tuple) else (derivative,)
    planar = [_complex_to_planar(z) for z in _spectral_sums(spec.freqs, spec.coeffs, u, orders)]
    return tuple(planar) if isinstance(derivative, tuple) else planar[0]


@dataclass(frozen=True)
class Trajectory:
    """Uniform samples of every body on [0, 1): positions and exact velocities."""

    params: SymmetryParams
    m_samples: int
    times: np.ndarray       # (M,)
    positions: np.ndarray   # (B, M, 2)
    velocities: np.ndarray  # (B, M, 2)

    @property
    def n_bodies(self) -> int:
        return self.positions.shape[0]


def valid_grid(params: SymmetryParams, m_samples: int) -> bool:
    return m_samples > 0 and m_samples % params.grid_unit == 0


def require_grid(params: SymmetryParams, m_samples: int) -> None:
    """Raise ValueError unless M is a positive multiple of lcm(3, N, r)."""
    if not valid_grid(params, m_samples):
        raise ValueError(
            f"invalid grid: M={m_samples} must be a positive multiple of "
            f"lcm(3, N, r) = {params.grid_unit}"
        )


def chain_nodes(chain_length: int, m_samples: int) -> np.ndarray:
    """(L, M) node indices: row b holds (k + b*M/L) mod M for k = 0..M-1.

    Body b of a chain of L bodies is its generator advanced by b/L in time,
    so on a grid of M nodes (a multiple of L) it reads the generator's
    samples at these nodes.
    """
    k = np.arange(m_samples)
    step = m_samples // chain_length
    return (k[None, :] + step * np.arange(chain_length)[:, None]) % m_samples


def sample(system: SystemLoop, m_samples: int) -> Trajectory:
    """Sample all bodies at t_k = k/M. M must be a multiple of lcm(3, N, r).

    Evaluates four bodies, whatever N is: the generators 1 and N+1, whose
    samples fill the other rows of their chain through ``chain_nodes``, and
    bodies 2 and N+2, each at its own times (see the module docstring).
    """
    params = system.params
    require_grid(params, m_samples)
    times = np.arange(m_samples) / m_samples
    n = params.n_main
    pos = np.empty((params.n_bodies, m_samples, 2))
    vel = np.empty((params.n_bodies, m_samples, 2))
    for first, chain in ((0, n), (n, 3)):
        rows = slice(first, first + chain)
        nodes = chain_nodes(chain, m_samples)
        position, velocity = evaluate(system, first + 1, times, derivative=(0, 1))
        np.take(position, nodes, axis=0, out=pos[rows], mode="clip")
        np.take(velocity, nodes, axis=0, out=vel[rows], mode="clip")
        pos[first + 1], vel[first + 1] = evaluate(system, first + 2, times, derivative=(0, 1))
    return Trajectory(params, m_samples, times, pos, vel)


def com_drift(traj: Trajectory) -> float:
    """max_t |sum_i q_i(t)|: distance from the zero center-of-mass constraint."""
    total = traj.positions.sum(axis=0)
    return float(np.sqrt(total[:, 0] ** 2 + total[:, 1] ** 2).max())


_GENERATORS = ("g1", "g2", "g3")


def group_action_residual(traj: Trajectory, generator: str) -> float:
    """max |(g.q)_i(t_k) - q_i(t_k)| over bodies and samples, for one generator.

    g1 rotates by 2*pi*d/r and shifts time by 1/r; g2 shifts by 1/3 and cycles
    the triple chain; g3 shifts by 1/N and cycles the main chain. Zero residual
    (<= 1e-10) means the sampled loop lies in the symmetric fixed-point space.
    """
    if generator not in _GENERATORS:
        raise ValueError(f"generator must be one of {_GENERATORS}")
    p = traj.params
    M = traj.m_samples
    if not valid_grid(p, M):
        raise ValueError(
            f"trajectory grid M={M} is not a multiple of lcm(3, N, r) = {p.grid_unit}"
        )
    pos = traj.positions
    n = p.n_main
    if generator == "g1":
        shifted = np.roll(pos, -M // p.r, axis=1)
        theta = -TWO_PI * p.d / p.r
        c, s = math.cos(theta), math.sin(theta)
        acted = np.empty_like(shifted)
        acted[..., 0] = c * shifted[..., 0] - s * shifted[..., 1]
        acted[..., 1] = s * shifted[..., 0] + c * shifted[..., 1]
    elif generator == "g2":
        shifted = np.roll(pos, -M // 3, axis=1)
        order = list(range(n)) + [n + 2, n, n + 1]
        acted = shifted[order]
    else:
        shifted = np.roll(pos, -M // n, axis=1)
        order = [n - 1] + list(range(n - 1)) + [n, n + 1, n + 2]
        acted = shifted[order]
    diff = acted - pos
    return float(np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2).max())


def max_symmetry_residual(traj: Trajectory) -> float:
    return max(group_action_residual(traj, g) for g in _GENERATORS)


def winding_number(points, base, arcs: int = 1, arc_turn: float = 0.0) -> int:
    """Signed turns of a closed sampled curve around a base point.

    Accumulates the angle of (x - base)/|x - base| step by step; each step must
    stay below pi in magnitude, which makes the rounded total exact. Positive
    means counterclockwise. The closing segment from the last sample back to
    the first is included.

    The points may instead sample the first of ``arcs`` congruent arcs of the
    curve, each the previous one rotated about ``base`` by ``arc_turn``
    radians. The arc then closes at its first point so rotated, and the curve
    turns ``arcs`` times as often as the arc.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 planar points")
    rel = pts - np.asarray(base, dtype=float)
    if np.any((rel[:, 0] == 0.0) & (rel[:, 1] == 0.0)):
        raise ValueError("base point lies on the curve")
    end = rel[:1]
    if arc_turn:
        c, s = math.cos(arc_turn), math.sin(arc_turn)
        end = np.array([[c * end[0, 0] - s * end[0, 1], s * end[0, 0] + c * end[0, 1]]])
    nxt = np.concatenate([rel[1:], end])
    cross = rel[:, 0] * nxt[:, 1] - rel[:, 1] * nxt[:, 0]
    dot = rel[:, 0] * nxt[:, 0] + rel[:, 1] * nxt[:, 1]
    steps = np.arctan2(cross, dot)
    if np.any(np.abs(steps) >= np.pi * (1.0 - 1e-12)):
        raise ValueError("undersampled: angular step >= pi between adjacent samples")
    total = arcs * steps.sum() / TWO_PI
    n = round(total)
    if abs(total - n) > 1e-6:
        raise ValueError(f"accumulated angle {total!r} turns is not an integer")
    return int(n)


@dataclass(frozen=True)
class MinSeparation:
    pair: tuple[int, int]  # 1-based body indices, i < j
    time_index: int
    distance: float


def min_separation(traj: Trajectory) -> MinSeparation:
    """Global minimum of |q_i - q_j| over pairs and samples; lexicographic ties."""
    d, i, j, k = kernels.min_separation_scan(traj.positions)
    return MinSeparation(pair=(i + 1, j + 1), time_index=k, distance=d)


def expand_windings(n_main: int, wind) -> dict[str, list[list]]:
    """Winding table of every same-chain pair, from one winding per representative.

    ``wind(i, j)`` returns the winding of pair (i, j), 1-based bodies, and is
    called once per representative: (1, 1+s) for s = 1..floor(N/2), then
    (N+1, N+2). Main pair (i, j) is pair (1, 1+s) advanced in time,
    s = j - i, and the negative of pair (1, 1+N-s) advanced in time; neither
    changes a winding number, so it gets the winding of offset min(s, N-s).
    Every triple pair gets the triple representative's. Rows are [i, j, w]
    with i < j, lexicographic, under "main" and "triple".
    """
    n = n_main
    by_offset = {s: wind(1, 1 + s) for s in range(1, n // 2 + 1)}
    triple = wind(n + 1, n + 2)
    return {
        "main": [
            [i + 1, j + 1, by_offset[min(j - i, n - (j - i))]]
            for i in range(n)
            for j in range(i + 1, n)
        ],
        "triple": [[i + 1, j + 1, triple] for i in range(n, n + 3) for j in range(i + 1, n + 3)],
    }


def winding_table(traj: Trajectory) -> dict[str, list[list[int]]]:
    """deg(q_i - q_j) for all main-main and triple-triple pairs, 1-based rows.

    Winds only the representative pairs over all M samples and expands them
    with ``expand_windings``, so the trajectory must be that of a symmetric
    loop, as ``sample`` returns. A representative that cannot be wound
    (undersampled, or through the origin) raises ValueError.
    """
    pos = traj.positions
    return expand_windings(
        traj.params.n_main,
        lambda i, j: winding_number(pos[i - 1] - pos[j - 1], (0.0, 0.0)),
    )


# -- serialization --------------------------------------------------------------

def system_to_dict(system: SystemLoop) -> dict:
    p = system.params
    return {
        "params": {"n": p.n_main, "r": p.r, "d": p.d, "k1": p.k1, "k2": p.k2},
        "main": system.main.to_rows(),
        "triple": system.triple.to_rows(),
    }


def system_from_dict(doc) -> SystemLoop:
    """Inverse of system_to_dict; a result document is read through its "loop".

    A malformed document raises ValueError naming the part at fault.
    """
    if isinstance(doc, dict) and "loop" in doc and "params" not in doc:
        doc = doc["loop"]
    if not isinstance(doc, dict):
        raise ValueError(f"a loop must be a JSON object, not {type(doc).__name__}")
    try:
        p = doc["params"]
        params = SymmetryParams(
            n_main=int(p["n"]), r=int(p["r"]), d=int(p["d"]), k1=int(p["k1"]), k2=int(p["k2"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"'params' must map n, r, d, k1 and k2 to integers ({exc!r})") from None
    spectra = []
    for role in (ROLE_MAIN, ROLE_TRIPLE):
        try:
            spectra.append(GeneratorSpectrum.from_pairs(role, doc[role]))
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"{role!r} must be a list of [m, x, y] rows ({exc!r})") from None
    return SystemLoop(params, *spectra)


# Grid nodes converted to Python floats at a time by trajectory_to_csv.
_CSV_BLOCK_NODES = 256


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with header t,body,x,y,vx,vy; row-major by time then body; 17 digits.

    Every value is written as "%.17g", the format of f"{x:.17g}", so the text
    is that of one f-string per row. Blocks of nodes are turned into Python
    objects at once, and the rows of one node are filled by one template,
    with its time formatted once for all bodies.
    """
    n_bodies = traj.n_bodies
    # (M, B, 4): node-major, then body, then x, y, vx, vy.
    values = np.concatenate([traj.positions, traj.velocities], axis=2).transpose(1, 0, 2)
    times = np.array(["%.17g" % t for t in traj.times.tolist()], dtype=object)
    node_rows = "".join(f"%s,{b + 1},%.17g,%.17g,%.17g,%.17g\n" for b in range(n_bodies))
    parts = ["t,body,x,y,vx,vy\n"]
    for start in range(0, traj.m_samples, _CSV_BLOCK_NODES):
        block = values[start:start + _CSV_BLOCK_NODES]
        cells = np.empty((len(block), n_bodies, 5), dtype=object)
        cells[:, :, 0] = times[start:start + len(block), None]
        cells[:, :, 1:] = block
        parts.extend(node_rows % tuple(row) for row in cells.reshape(len(block), -1).tolist())
    return "".join(parts)
