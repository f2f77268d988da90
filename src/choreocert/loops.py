"""Loop representation: generator spectra, sampling, winding numbers, diagnostics.

A system loop stores only the two generating bodies as truncated planar
trigonometric spectra; the remaining bodies are time shifts of them:

  q_i(t)     = q_1(t + (i-1)/N)        for i = 2..N,
  q_{N+j}(t) = q_{N+1}(t + (j-1)/3)    for j = 2, 3.

The plane is identified with the complex numbers, so a generator is
q(t) = sum_m c_m e^(2*pi*i*m*t) with complex coefficients c_m restricted to
the symmetry-allowed frequencies of its role.

On a grid of M nodes every phase is an M-th root of unity: e^(2*pi*i*m*k/M)
is entry m*k mod M of ``roots_of_unity(M)``, an exact integer index.
``evaluate_ticks`` sums a generator at integer nodes from that one table, with
one complex exponential per node instead of one per frequency and node; it
serves ``sample``, ``solver.ode_residual`` and the phase tables of
``action.ActionWorkspace``. ``evaluate`` takes arbitrary times and computes
each phase directly.

``sample`` uses the shifts. On a grid of M nodes every body is its chain's
generator read a whole number of nodes later, and from the table each
generator repeats bit for bit after M/3 (main) or M/N (triple) nodes
(``chain_layout``), so only the two generators are summed, over one period
each, and the other bodies are index shifts of them.
Bodies 2 and N+2 are the exception: each is evaluated directly at its own
times with ``evaluate``, so the g2/g3 residuals of ``group_action_residual``
compare a shifted generator with an independent evaluation rather than with
a copy of itself. They agree with the table's samples in the last bits only.

Every pair distance is a time shift of one of the ``symmetry.pair_kinds``
representatives, and the loop at t + 1/r is the loop at t rotated by
2*pi*d/r, so the first M/r nodes, one domain of g1, hold every pair at every
node. ``domain_windings`` and ``domain_min_separation`` check a loop there;
``winding_table`` and ``min_separation`` apply them to a trajectory.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .symmetry import (
    ROLE_CROSS,
    ROLE_MAIN,
    ROLE_TRIPLE,
    SymmetryParams,
    frequency_allowed,
    frequency_rule,
    json_number,
    pair_kinds,
)

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
        """Build from [(m, cx, cy), ...] rows.

        A row that is not an integral frequency and two finite numbers (booleans
        and strings are neither) raises ValueError naming the role and the row's index.
        """
        freqs, coeffs = [], []
        for index, row in enumerate(entries):
            try:
                m, x, y = map(json_number, row)
                freq, coeff = int(m), complex(float(x), float(y))
                if freq != float(m) or not cmath.isfinite(coeff):
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"{role!r} must be a list of [m, x, y] rows: row {index} is {row!r}"
                ) from None
            freqs.append(freq)
            coeffs.append(coeff)
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
                        f"frequency {m} not admissible for role {spec.role!r} with params "
                        f"{self.params}: requires {frequency_rule(self.params, spec.role)}"
                    )
        # Every |q(t)| is at most R = sum |c_m| + sum |b_m|, so pair distances
        # stay below 2R, and pair_forces cubes them.
        reach = sum(math.hypot(c.real, c.imag) for spec in (self.main, self.triple)
                    for c in spec.coeffs)
        if not math.isfinite(8.0 * reach * reach * reach):
            raise ValueError(
                f"coefficient moduli sum to R = {reach:.6g}: pair forces cube "
                "distances up to 2R, and (2R)^3 overflows float64"
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


def _spectral_sums(freqs, coeffs, wave, shape, derivatives) -> list[np.ndarray]:
    """sum_m c_m (2*pi*i*m)^d wave(m) for each order d, elementwise over ``shape``.

    ``wave(m)`` returns the phases e^(2*pi*i*m*u) of frequency m at every
    point, computed once and shared by every order. Accumulates frequency by
    frequency in ascending order so each result is identical bit for bit
    regardless of the shape of the points and of the other orders asked for.
    """
    outs = [np.zeros(shape, dtype=complex) for _ in derivatives]
    for m, c in zip(freqs, coeffs):
        phases = wave(m)
        for out, derivative in zip(outs, derivatives):
            factor = c * (TWO_PI * 1j * m) ** derivative
            out += factor * phases
    return outs


def _complex_to_planar(z: np.ndarray) -> np.ndarray:
    """(..., 2) float64 view of a contiguous complex array: (real, imag) pairs, no copy.

    The trailing axis of length 1 makes the view legal for a 0-d ``z`` too.
    """
    return z[..., None].view(np.float64)


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
    sums = _spectral_sums(
        spec.freqs, spec.coeffs, lambda m: np.exp((TWO_PI * m) * 1j * u), u.shape, orders
    )
    planar = [_complex_to_planar(z) for z in sums]
    return tuple(planar) if isinstance(derivative, tuple) else planar[0]


@functools.lru_cache(maxsize=1)
def roots_of_unity(m_samples: int) -> np.ndarray:
    """e^(2*pi*i*k/M) for k = 0..M-1, each entry one complex exponential.

    On a grid of M nodes the phase of frequency m at node k is the entry at
    m*k mod M, an exact integer index. The table of the last grid asked for
    is kept and shared, read-only: a descent builds it once for its
    workspace, its final ``sample`` and its ``solver.ode_residual``, and no
    table outlives the next grid.
    """
    roots = np.exp((TWO_PI / m_samples) * 1j * np.arange(m_samples))
    roots.setflags(write=False)
    return roots


def evaluate_ticks(
    spec: GeneratorSpectrum, roots: np.ndarray, ticks, derivatives: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """One generator (and time derivatives) at the nodes t_k = k/M, shape (..., 2).

    ``roots`` is roots_of_unity(M) and ``ticks`` an integer array of node
    indices k; one planar array is returned per order in ``derivatives``.
    Each phase is read from the table, so the result is periodic in k with
    the period of the spectrum's frequencies, bit for bit.
    """
    ticks = np.asarray(ticks, dtype=np.int64)
    m_samples = len(roots)
    sums = _spectral_sums(
        spec.freqs, spec.coeffs, lambda m: roots.take(m * ticks % m_samples), ticks.shape,
        derivatives,
    )
    return tuple(_complex_to_planar(z) for z in sums)


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


def chain_layout(params: SymmetryParams, m_samples: int) -> tuple[tuple[int, int, int], ...]:
    """(first row, length, period) of the main and the triple chain on M nodes.

    Row first + b is the chain's generator read b*M/length nodes later. Main
    frequencies are multiples of 3 and triple ones of N, so read from the
    table of M-th roots of unity a generator repeats bit for bit every period
    nodes, M/3 (main) or M/N (triple). M must be a multiple of lcm(3, N, r).
    """
    n = params.n_main
    return ((0, n, m_samples // 3), (n, 3, m_samples // n))


def sample(system: SystemLoop, m_samples: int) -> Trajectory:
    """Sample all bodies at t_k = k/M. M must be a multiple of lcm(3, N, r).

    Evaluates four bodies, whatever N is: the generators 1 and N+1 from the
    table of M-th roots of unity (``evaluate_ticks``) over one period of
    ``chain_layout`` each, and bodies 2 and N+2 with ``evaluate`` at their
    own times (see the module docstring). Each row of a chain is then filled
    with the period, as a tile that starts where the row's time shift puts it.
    """
    params = system.params
    require_grid(params, m_samples)
    times = np.arange(m_samples) / m_samples
    roots = roots_of_unity(m_samples)
    pos = np.empty((params.n_bodies, m_samples, 2))
    vel = np.empty((params.n_bodies, m_samples, 2))
    for first, length, period in chain_layout(params, m_samples):
        spec = system.generator_for(first + 1)
        # one period, twice over, so every rotation of it is a slice
        tiles = [np.concatenate([samples, samples])
                 for samples in evaluate_ticks(spec, roots, np.arange(period), (0, 1))]
        for row, start in enumerate(range(0, m_samples, m_samples // length), first):
            # this row's body reads its generator `start` nodes later
            start %= period
            for out, tile in zip((pos, vel), tiles):
                out[row].reshape(-1, period, 2)[:] = tile[start:start + period]
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

    The generator is applied one body row at a time into one (M, 2) buffer,
    so the working set is a row, not a copy of the trajectory. Each element
    gets the float operations it gets on the whole array at once, and the
    maximum is exact, so the result does not depend on how rows are grouped.
    A NaN anywhere gives nan.
    """
    if generator not in _GENERATORS:
        raise ValueError(f"generator must be one of {_GENERATORS}")
    p, M = traj.params, traj.m_samples
    require_grid(p, M)
    pos = traj.positions
    n = p.n_main
    if generator == "g1":
        shift = M // p.r
        theta = -TWO_PI * p.d / p.r
        c, s = math.cos(theta), math.sin(theta)
        sources = range(len(pos))
    elif generator == "g2":
        shift = M // 3
        sources = list(range(n)) + [n + 2, n, n + 1]
    else:
        shift = M // n
        sources = [n - 1] + list(range(n - 1)) + [n, n + 1, n + 2]
    shift %= M
    acted, square = np.empty((M, 2)), np.empty(M)
    peaks = np.empty(len(sources))
    for body, source in enumerate(sources):
        if generator == "g1":
            x, y = pos[source, :, 0], pos[source, :, 1]
            acted[:, 0] = c * x - s * y
            acted[:, 1] = s * x + c * y
        else:
            acted[...] = pos[source]
        # (g.q) of this body at node k is `acted` read `shift` nodes later,
        # wrapping at M: node k + shift of `acted` is compared with node k
        acted[shift:] -= pos[body, :M - shift]
        acted[:shift] -= pos[body, M - shift:]
        np.multiply(acted, acted, out=acted)
        peaks[body] = np.add(acted[:, 0], acted[:, 1], out=square).max()
    # the largest distance is the root of the largest square, as sqrt is
    # monotone; np.max keeps a NaN where Python's max could drop it
    return math.sqrt(peaks.max())


def max_symmetry_residual(traj: Trajectory) -> float:
    return max(group_action_residual(traj, g) for g in _GENERATORS)


# A step of this magnitude or more between adjacent samples is undersampled.
_MAX_STEP = np.pi * (1.0 - 1e-12)


def winding_number(points, base, arcs: int = 1, arc_turn: float = 0.0) -> int | list[int]:
    """Signed turns of a closed sampled curve around a base point.

    Accumulates the angle of (x - base)/|x - base| step by step; each step must
    stay below pi in magnitude, which makes the rounded total exact. Positive
    means counterclockwise. The closing segment from the last sample back to
    the first is included.

    The points may instead sample the first of ``arcs`` congruent arcs of the
    curve, each the previous one rotated about ``base`` by ``arc_turn``
    radians. The arc then closes at its first point so rotated, and the curve
    turns ``arcs`` times as often as the arc. ``arcs`` must be a positive int
    and ``arc_turn`` finite.

    ``points`` is one curve, (n, 2), or a stack of P curves, (P, n, 2), wound
    in one stacked pass; a stack returns one int per curve, each the curve's
    own call bit for bit (``base`` is then one point or one per curve). A
    curve that cannot be wound raises ValueError with its own call's message,
    the first such curve in the stack.
    """
    if isinstance(arcs, bool) or not isinstance(arcs, numbers.Integral) or arcs < 1:
        raise ValueError(f"arcs must be a positive int, got {arcs!r}")
    if not math.isfinite(arc_turn):
        raise ValueError(f"arc_turn must be finite, got {arc_turn!r}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (2, 3) or pts.shape[-1] != 2 or pts.shape[-2] < 3:
        raise ValueError("need at least 3 planar points")
    # the curves' coordinates relative to base, as contiguous (P, n) arrays
    stack, base = pts.reshape(-1, *pts.shape[-2:]), np.asarray(base, dtype=float)
    x, y = stack[..., 0] - base[..., :1], stack[..., 1] - base[..., 1:]
    on_curve = ((x == 0.0) & (y == 0.0)).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        end_x, end_y = x[:, :1], y[:, :1]
        if arc_turn:
            c, s = math.cos(arc_turn), math.sin(arc_turn)
            end_x, end_y = c * end_x - s * end_y, s * end_x + c * end_y
        next_x = np.concatenate([x[:, 1:], end_x], axis=1)
        next_y = np.concatenate([y[:, 1:], end_y], axis=1)
        cross = x * next_y - y * next_x
        dot = x * next_x + y * next_y
        steps = np.arctan2(cross, dot)
        total = arcs * steps.sum(axis=1) / TWO_PI
        turns = np.rint(total)
        # a NaN step or turn compares False, so it fails here too
        failing = (on_curve | ~(np.abs(steps) < _MAX_STEP).all(axis=1)
                   | ~(np.abs(total - turns) <= 1e-6))
    if failing.any():
        k = int(np.argmax(failing))  # the first curve that fails, checked as on its own
        if on_curve[k]:
            raise ValueError("base point lies on the curve")
        if not np.isfinite(steps[k]).all():
            raise ValueError(
                "non-finite angle steps: a point is not finite or a product overflows")
        if (np.abs(steps[k]) >= _MAX_STEP).any():
            raise ValueError("undersampled: angular step >= pi between adjacent samples")
        raise ValueError(f"accumulated angle {total[k]!r} turns is not an integer")
    winds = [int(n) for n in turns.tolist()]
    return winds if pts.ndim == 3 else winds[0]


@dataclass(frozen=True)
class MinSeparation:
    pair: tuple[int, int]  # 1-based body indices, i < j
    time_index: int
    distance: float


@functools.lru_cache(maxsize=16)
def representative_rows(params: SymmetryParams) -> tuple[tuple[int, ...], np.ndarray]:
    """(bodies, pairs): the bodies of the ``pair_kinds`` representatives, ascending
    (1..floor(N/2)+1, N+1 and N+2), and the (P, 2) rows in ``bodies`` of each
    representative, in ``pair_kinds`` order. Built once per class; ``pairs``
    is read-only."""
    kinds = pair_kinds(params)
    bodies = tuple(sorted({body for kind in kinds for body in kind.pair}))
    pairs = np.array([[bodies.index(i), bodies.index(j)] for i, j in (kind.pair for kind in kinds)],
                     dtype=np.int64)
    pairs.setflags(write=False)
    return bodies, pairs


@functools.lru_cache(maxsize=16)
def _winding_rows(params: SymmetryParams) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(a, b, main): the same-chain representatives of ``pair_kinds``, main offsets
    ascending then the triple pair, as rows a - b of ``representative_rows``;
    and (i, j, index) for every main pair i < j, lexicographic, 1-based, with
    the index of its representative in (a, b). Built once per class."""
    n = params.n_main
    _, pairs = representative_rows(params)
    same = pairs[[k for k, kind in enumerate(pair_kinds(params)) if kind.kind != ROLE_CROSS]]
    same.setflags(write=False)
    a, b = same.T
    # main pair (i, j) winds as offset min(s, N-s), the entry min(s, N-s) - 1
    main = tuple((i + 1, j + 1, min(j - i, n - (j - i)) - 1)
                 for i in range(n) for j in range(i + 1, n))
    return a, b, main


def _domain_positions(traj: Trajectory) -> np.ndarray:
    """The rows of ``representative_rows``' bodies on the first M/r nodes, one g1
    domain: the layout of ``action.ActionWorkspace.positions``."""
    require_grid(traj.params, traj.m_samples)
    bodies, _ = representative_rows(traj.params)
    return traj.positions[np.array(bodies) - 1, : traj.m_samples // traj.params.r]


def domain_min_separation(pos: np.ndarray, bodies, pairs) -> MinSeparation:
    """Minimum distance over all pairs and nodes, from positions on one g1 domain.

    ``bodies`` and ``pairs`` are ``representative_rows``. The pair is the
    representative that attains it and time_index a domain node; ties break
    to the first representative in ``pair_kinds`` order, then the first node.
    """
    d, a, b, k = kernels.min_separation_scan(pos, pairs)
    return MinSeparation(pair=(bodies[a], bodies[b]), time_index=k, distance=d)


def domain_windings(params: SymmetryParams, pos: np.ndarray) -> dict[str, list[list[int]]]:
    """deg(q_i - q_j) of every main-main and triple-triple pair, from one g1 domain.

    The floor(N/2) + 1 same-chain representatives are wound in one stacked
    pass of ``winding_number``, each as r arcs, each the previous one rotated
    by 2*pi*d/r. Main pair (i, j), s = j - i, is pair (1, 1+s) and minus pair
    (1, 1+N-s), both advanced in time, so it winds as offset min(s, N-s);
    every triple pair winds as (N+1, N+2). Rows are [i, j, w], i < j,
    lexicographic, under "main" and "triple". A representative that cannot be
    wound raises ValueError.
    """
    n, r, turn = params.n_main, params.r, TWO_PI * params.d / params.r
    a, b, main = _winding_rows(params)
    winds = winding_number(pos[a] - pos[b], (0.0, 0.0), arcs=r, arc_turn=turn)
    triple = winds[-1]
    return {
        "main": [[i, j, winds[k]] for i, j, k in main],
        "triple": [[i + 1, j + 1, triple] for i in range(n, n + 3) for j in range(i + 1, n + 3)],
    }


def windings_match(params: SymmetryParams, table: dict[str, list[list]]) -> bool:
    """True when every main pair of a winding table winds k1 and every triple pair k2."""
    return all(w == params.k1 for _, _, w in table["main"]) and all(
        w == params.k2 for _, _, w in table["triple"]
    )


def min_separation(traj: Trajectory) -> MinSeparation:
    """``domain_min_separation`` of a sampled symmetric loop on its grid."""
    return domain_min_separation(_domain_positions(traj), *representative_rows(traj.params))


def winding_table(traj: Trajectory) -> dict[str, list[list[int]]]:
    """``domain_windings`` of a sampled symmetric loop on its grid."""
    return domain_windings(traj.params, _domain_positions(traj))


# -- serialization --------------------------------------------------------------

def system_to_dict(system: SystemLoop) -> dict:
    return {
        "params": system.params.to_dict(),
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
    params = SymmetryParams.from_dict(doc.get("params", {}))
    spectra = []
    for role in (ROLE_MAIN, ROLE_TRIPLE):
        try:
            spectra.append(GeneratorSpectrum.from_pairs(role, doc[role]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{role!r} must be a list of [m, x, y] rows ({exc!r})") from None
    return SystemLoop(params, *spectra)


# -- exact "%.17g" text ---------------------------------------------------------

# Bytes of the longest "%.17g" text, "-2.2250738585072014e-308".
_G17_WIDTH = 24
# 10**p for p = 0..22, every one an exact double (5**22 < 2**53).
_POW10 = 10.0 ** np.arange(23)
_VELTKAMP = 134217729.0  # 2**27 + 1


def _veltkamp_split(a):
    """(hi, lo) with hi + lo == a exactly, each half of at most 26 significant bits."""
    scaled = _VELTKAMP * a
    hi = scaled - (scaled - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp_split(_POW10)


@functools.cache
def _digit_groups() -> np.ndarray:
    """ASCII "0000".."9999" as uint32 words, then the same with trailing zeros NUL.

    Built on first use, so a run that writes no CSV does not pay for it.
    """
    groups = np.arange(10000, dtype=np.uint32)[:, None]
    digits = groups // np.array([1000, 100, 10, 1], dtype=np.uint32) % 10
    text = (digits + ord("0")).astype(np.uint8)
    # a digit is trailing when the group is 0 modulo the place of the digit before it
    trailing = groups % np.array([10000, 1000, 100, 10], dtype=np.uint32) == 0
    table = np.concatenate([text, text * ~trailing]).view(np.uint32).ravel()
    table.setflags(write=False)
    return table


def _scaled_product(a, exponent):
    """(h, l) with h + l == a * 10**(16 - exponent) exactly: Dekker's two-product."""
    scale = 16 - exponent
    h = a * _POW10[scale]
    a_hi, a_lo = _veltkamp_split(a)
    b_hi, b_lo = _POW10_HI[scale], _POW10_LO[scale]
    return h, ((a_hi * b_hi - h) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _format_17g(values) -> np.ndarray:
    """The text "%.17g" % x of every float64 x, as (n, 24) uint8 rows padded with NUL.

    Finite 1e-4 <= |x| < 1e15 print in fixed notation and are formatted in
    numpy (``_fixed_17g``); every other value (zeros, subnormals, |x| < 1e-4,
    |x| >= 1e15, inf, nan) goes through ``_printf_17g``.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    magnitude = np.abs(x)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e15)
    text = np.empty((len(x), _G17_WIDTH), dtype=np.uint8)
    _fixed_17g(x[fixed], magnitude[fixed], text, np.flatnonzero(fixed))
    others = ~fixed
    text[others] = _printf_17g(x[others])
    return text


def _printf_17g(x) -> np.ndarray:
    """"%.17g" % v for each float64 v, one call per value, as (n, 24) NUL-padded rows."""
    text = np.array(["%.17g" % v for v in x.tolist()], dtype=f"S{_G17_WIDTH}")
    return text.view(np.uint8).reshape(-1, _G17_WIDTH)


def _fixed_17g(x, magnitude, out, rows) -> None:
    """Write "%.17g" % x into out[rows] for finite 1e-4 <= |x| < 1e15.

    "%.17g" rounds |x| to 17 significant digits, half to even on its exact
    binary value, and prints fixed notation for these x (decimal exponent
    -4..14). With k = floor(log10 |x|), the 17 digits are the exact product
    |x| * 10**(16 - k), in [1e16, 1e17), rounded to an integer:
    - 10**(16 - k) is an exact double (16 - k is 2..20), and Dekker's
      two-product gives h + l equal to the product exactly;
    - k is estimated from log10 and corrected by one wherever the exact
      product falls outside [1e16, 1e17), tested on h and the sign of l,
      never on the rounded sum h + l;
    - h >= 1e16 > 2**53 is an even integer, so h + rint(l) is the product
      rounded half to even;
    - it never rounds up to 1e17, which would need a double within 5e-18
      relative below a power of ten: 10**0..10**15 are doubles, spaced 1e-16
      relative, and the doubles nearest 10**-3..10**-1 lie above them.
    The text is then laid out: the integer digits, a point only before a
    nonzero fractional digit, the fractional digits without trailing zeros,
    and a leading "-" for negative x.
    """
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    h, lo = _scaled_product(magnitude, exponent)
    while True:
        low = (h < 1e16) | ((h == 1e16) & (lo < 0))
        high = (h > 1e17) | ((h == 1e17) & (lo >= 0))
        wrong = np.flatnonzero(low | high)
        if not len(wrong):
            break
        exponent[wrong] += high[wrong].astype(np.int64) - low[wrong]
        h[wrong], lo[wrong] = _scaled_product(magnitude[wrong], exponent[wrong])
    digits = h.astype(np.int64) + np.rint(lo).astype(np.int64)
    # Rows sorted by kind, 20 * sign + exponent + 4, share one layout.
    kind = (exponent + 4) + 20 * np.signbit(x)
    order = np.argsort(kind.astype(np.uint8), kind="stable")
    digits = digits[order]
    # The lead digit, then four groups of four digits, each an ASCII word; a
    # group followed only by zero groups is read with its trailing zeros NUL.
    table = _digit_groups()
    words = np.empty((len(digits), 5), dtype=np.uint32)
    stripped = np.full(len(digits), 10000)
    for column in range(4, 0, -1):
        rest = digits // 10000
        group = digits - rest * 10000
        words[:, column] = table[group + stripped]
        stripped *= group == 0
        digits = rest
    words[:, 0] = table[digits]
    ascii_digits = words.view(np.uint8)[:, 3:]  # 17 digits, trailing zeros NUL
    text = np.zeros((len(words), _G17_WIDTH), dtype=np.uint8)
    start = 0
    for layout, count in enumerate(np.bincount(kind).tolist()):
        if not count:
            continue
        stop = start + count
        e, sign = layout % 20 - 4, layout // 20
        row, digit = text[start:stop, sign:], ascii_digits[start:stop]
        if sign:
            text[start:stop, 0] = ord("-")
        if e >= 0:
            # zeros of the integer part stay, NUL or not
            np.maximum(digit[:, :e + 1], ord("0"), out=row[:, :e + 1])
            row[:, e + 1] = (digit[:, e + 1] != 0) * ord(".")
            row[:, e + 2:18] = digit[:, e + 1:]
        else:
            row[:, :1 - e] = ord("0")
            row[:, 1] = ord(".")
            row[:, 1 - e:18 - e] = digit
        start = stop
    out.view(f"V{_G17_WIDTH}")[rows[order]] = text.view(f"V{_G17_WIDTH}")


def _csv_text(values) -> str:
    """The rows of a 2-D float array as lines of "%.17g" fields joined by commas."""
    n_rows, n_fields = values.shape
    fields = np.zeros((n_rows, n_fields, _G17_WIDTH + 1), dtype=np.uint8)
    fields[:, :, :-1] = _format_17g(values).reshape(n_rows, n_fields, _G17_WIDTH)
    fields[:, :-1, -1] = ord(",")
    fields[:, -1, -1] = ord("\n")
    return fields.tobytes().translate(None, b"\0").decode("ascii")


# -- trajectory CSV -------------------------------------------------------------

# Grid nodes whose rows trajectory_to_csv compares, formats and assembles at a
# time; every temporary is one block's. Converting every formatted row to
# Python objects at once raised the peak RSS of eight cli_pipeline
# repetitions from about 80 to 97 MB.
_CSV_BLOCK_NODES = 256


def _csv_candidates(traj: Trajectory, start: int, stop: int) -> np.ndarray:
    """(stop - start, B) anchor of the row each (node, body) row repeats, nodes start..stop-1.

    A chain's anchors are its generator's rows at nodes 0..period-1 (see
    ``chain_layout``), main node k anchor k and triple node k anchor M/3 + k.
    Body i of a chain at node k repeats its generator at node
    (k + (i - first)*M/length) mod period. Only for N+3 bodies on a valid grid.
    """
    m_samples = traj.m_samples
    nodes = np.arange(start, stop)[:, None]
    candidates = np.empty((stop - start, traj.n_bodies), dtype=np.int64)
    base = 0
    for first, length, period in chain_layout(traj.params, m_samples):
        shifts = np.arange(length) * (m_samples // length)
        candidates[:, first:first + length] = base + (nodes + shifts) % period
        base += period
    return candidates


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with header t,body,x,y,vx,vy; row-major by time then body; 17 digits.

    Every value is written as "%.17g", the format of f"{x:.17g}", so the text
    is that of one f-string per row, byte for byte. ``_format_17g`` makes that
    text in numpy, exactly. A finite 1e-4 <= |x| < 1e15 prints in fixed
    notation, and its 17 digits are the exact product |x| * 10**(16 - k),
    k = floor(log10 |x|), rounded half to even. 10**(16 - k) is an exact
    double, and Dekker's two-product gives the product exactly as h + l; k is
    corrected by exact tests on h and the sign of l; h >= 1e16 is an even
    integer, so h + rint(l) rounds as "%.17g" does (see ``_fixed_17g``).
    Every other value is formatted by "%.17g" itself.

    Most (x, y, vx, vy) rows of a sampled loop are copies ``sample`` made of
    its chains' anchors (see ``_csv_candidates``), whose text is made first.
    Each row is compared with its candidate anchor by bit pattern, not by
    value (-0.0 == 0.0, yet the two print differently): a row equal to its
    candidate reuses the anchor's text, any other row is formatted on its
    own. So every trajectory is written exactly, and a sampled one formats
    only its generators' periods and the rows of bodies 2 and N+2 that
    differ.
    """
    params, m_samples, n_bodies = traj.params, traj.m_samples, traj.n_bodies
    sampled = n_bodies == params.n_bodies and valid_grid(params, m_samples)  # else no chains
    chains = chain_layout(params, m_samples) if sampled else ()
    anchors = np.concatenate([np.empty((0, 4))] + [
        np.concatenate([traj.positions[first, :period], traj.velocities[first, :period]], axis=1)
        for first, _, period in chains
    ])
    anchor_bits = anchors.view(np.uint64)
    anchor_text = np.array(_csv_text(anchors).splitlines(keepends=True), dtype=object)
    times = np.array(_csv_text(traj.times[:, None]).splitlines(), dtype=object)
    # One block of lines as (time, body tag, row text ending in a newline).
    block = np.empty((_CSV_BLOCK_NODES, n_bodies, 3), dtype=object)
    block[:, :, 1] = [f",{b + 1}," for b in range(n_bodies)]
    parts = ["t,body,x,y,vx,vy\n"]
    for start in range(0, m_samples, _CSV_BLOCK_NODES):
        stop = min(start + _CSV_BLOCK_NODES, m_samples)
        # (nodes, B, 4): node-major, then body, then x, y, vx, vy.
        values = np.empty((stop - start, n_bodies, 4))
        values[:, :, :2] = traj.positions[:, start:stop].transpose(1, 0, 2)
        values[:, :, 2:] = traj.velocities[:, start:stop].transpose(1, 0, 2)
        lines = block[:stop - start]
        lines[:, :, 0] = times[start:stop, None]
        own = np.ones((stop - start, n_bodies), dtype=bool)
        if chains:
            candidates = _csv_candidates(traj, start, stop)
            own = (values.view(np.uint64) != anchor_bits[candidates]).any(axis=2)
            lines[~own, 2] = anchor_text[candidates[~own]]
        lines[own, 2] = np.array(_csv_text(values[own]).splitlines(keepends=True), dtype=object)
        parts.append("".join(lines.ravel().tolist()))
    return "".join(parts)
