"""Shared fixtures: reference parameter sets, random admissible systems, oracles."""

import math
from collections import deque

import numpy as np
import pytest

from choreocert import kernels
from choreocert.action import ActionWorkspace
from choreocert.bounds import (
    CaseBound,
    LatticeCheck,
    LatticeCheckReport,
    ThresholdReport,
    TimeLattice,
    gordon_periodic,
    gordon_segment,
    representative_seeds,
)
from choreocert.loops import (
    GeneratorSpectrum,
    SystemLoop,
    Trajectory,
    evaluate,
    sample,
    winding_number,
)
from choreocert.symmetry import (
    ROLE_MAIN,
    ROLE_TRIPLE,
    SymmetryParams,
    allowed_frequencies,
)

# The three certified parameter families with their published test radii.
REFERENCE_CASES = [
    {"params": SymmetryParams(4, 7, 3, 3, -4), "a": 0.2300, "b": 0.0880},
    {"params": SymmetryParams(5, 8, 3, 3, -5), "a": 0.2450, "b": 0.0760},
    {"params": SymmetryParams(7, 10, 3, 3, -7), "a": 0.2500, "b": 0.0640},
]

# Published 4-decimal reference tables for the three families above, kept
# verbatim. The bound and threshold tables were evaluated with pi truncated
# to 3.1415; every collision bound scales as pi^(2/3), so an exact bound
# times PI_TRUNCATION_FACTOR reproduces its table entry to the table's own
# rounding. A cross pair's lattice has r ticks and a triple pair's N*r, so
# the cross bound is the larger of the two for every family here.
PI_TRUNCATION_FACTOR = (3.1415 / math.pi) ** (2 / 3)
PUBLISHED_BOUNDS = {
    (4, "adjacent"): 144.6215,
    (4, "antipodal"): 138.9586,
    (4, "cross"): 170.7479,
    (4, "triple"): 139.2196,
    (5, "adjacent"): 193.5057,
    (5, "cross"): 228.7437,
    (5, "triple"): 181.0305,
    (7, "adjacent"): 305.0645,
    (7, "cross"): 360.6557,
    (7, "triple"): 274.1354,
}
PUBLISHED_THRESHOLDS = {4: 138.9586, 5: 181.0305, 7: 274.1354}
# Published test-orbit actions at the radii of REFERENCE_CASES. The N=5 entry
# is not the action at its quoted radii (0.2450, 0.0760), which is 175.5315
# with exact pi and 175.5278 with pi = 3.1415; it lies below the minimum of
# the whole circular family (tests/test_testorbits.py::TestRestrictedFamily).
PUBLISHED_ACTIONS = {4: 135.5123, 5: 175.2312, 7: 266.6297}


def case_seed(n: int, kind: str) -> tuple[int, int]:
    """First colliding pair of each collision case kind for N main bodies."""
    return {
        "adjacent": (1, 2),
        "antipodal": (1, n // 2 + 1),
        "cross": (1, n + 1),
        "triple": (n + 1, n + 2),
    }[kind]


@pytest.fixture(params=range(3), ids=["N4", "N5", "N7"])
def reference_case(request):
    return REFERENCE_CASES[request.param]


def random_admissible_system(
    params: SymmetryParams,
    cutoff: int,
    seed: int,
    noise: float = 0.03,
    min_sep: float = 0.05,
) -> SystemLoop:
    """Random well-separated loop: circular base plus decaying spectral noise.

    Draws are resampled until the sampled minimum pair separation clears
    ``min_sep``, so every returned system is usable with the Newtonian
    potential. Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    fm = allowed_frequencies(params, ROLE_MAIN, cutoff)
    ft = allowed_frequencies(params, ROLE_TRIPLE, cutoff)
    probe = 4 * params.grid_unit
    # Both chains share the cutoff, so every coupled frequency is in both bases.
    ws = ActionWorkspace(params, fm, ft, params.grid_unit)
    for _ in range(60):
        cm = np.array(
            [
                (0.20 if m == 3 else 0.0)
                + noise
                * (rng.standard_normal() + 1j * rng.standard_normal())
                / (1.0 + (abs(m) / 4.0) ** 2)
                for m in fm
            ]
        )
        ct = np.array(
            [
                (0.08 if m == -params.n_main else 0.0)
                + 0.4
                * noise
                * (rng.standard_normal() + 1j * rng.standard_normal())
                / (1.0 + (abs(m) / 4.0) ** 2)
                for m in ft
            ]
        )
        cm, ct = ws.project(cm, ct)
        system = SystemLoop(
            params,
            GeneratorSpectrum(ROLE_MAIN, tuple(fm), cm),
            GeneratorSpectrum(ROLE_TRIPLE, tuple(ft), ct),
        )
        traj = sample(system, probe)
        if kernels.min_separation_scan(traj.positions)[0] >= min_sep:
            return system
    raise RuntimeError("could not draw a well-separated random system")


def offset_loop(freq: int, n_main: int = 4) -> SystemLoop:
    """Loop of the (N, N+3) family whose main offsets wind differently.

    The main generator mixes frequency 3 with ``freq``, and the weight of a
    frequency m in pair (1, 1+s) is |1 - e^(2 pi i m s/N)|. For N = 4 an
    even ``freq`` cancels at offset 2: -18 gives windings -18 and 3. For
    N = 5, -21 dominates offset 2 and 3 dominates offset 1.
    """
    return SystemLoop(
        SymmetryParams(n_main, n_main + 3, 3, 3, -n_main),
        GeneratorSpectrum(ROLE_MAIN, (freq, 3), np.array([0.09 + 0j, 0.1 + 0j])),
        GeneratorSpectrum(ROLE_TRIPLE, (-n_main,), np.array([0.005 + 0j])),
    )


def half_turn_loop() -> SystemLoop:
    """N=5, r=2 loop with |c_3| = |c_-3|: every main pair difference is a segment
    through the origin, so crossing it between two nodes is a half-turn step."""
    return SystemLoop(
        SymmetryParams(5, 2, 3, 3, -5),
        GeneratorSpectrum(ROLE_MAIN, (-3, 3), np.array([0.1 + 0j, 0.1 * np.exp(0.5j)])),
        GeneratorSpectrum(ROLE_TRIPLE, (-5,), np.array([0.05 + 0j])),
    )


def reference_trajectory_csv(traj) -> str:
    """Byte oracle for loops.trajectory_to_csv: one f-string per row."""
    lines = ["t,body,x,y,vx,vy"]
    for k in range(traj.m_samples):
        t = traj.times[k]
        for b in range(traj.n_bodies):
            x, y = traj.positions[b, k]
            vx, vy = traj.velocities[b, k]
            lines.append(f"{t:.17g},{b + 1},{x:.17g},{y:.17g},{vx:.17g},{vy:.17g}")
    return "\n".join(lines) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Fail unless got == want, naming the first line that differs.

    The CSVs run to a megabyte, where pytest's own diff of two strings takes
    minutes; this reports one line pair instead. Lines keep their endings, so
    equal lines and equal line counts mean equal strings.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for number, (line, expected) in enumerate(zip(got_lines, want_lines), start=1):
        if line != expected:
            pytest.fail(f"line {number} differs: {line!r} != {expected!r}", pytrace=False)
    pytest.fail(f"{len(got_lines)} lines where {len(want_lines)} are expected, "
                f"the first {min(len(got_lines), len(want_lines))} equal", pytrace=False)


def direct_trajectory(system: SystemLoop, m_samples: int) -> Trajectory:
    """Reference for loops.sample: every body evaluated at its own times."""
    times = np.arange(m_samples) / m_samples
    shape = (system.params.n_bodies, m_samples, 2)
    pos, vel = np.empty(shape), np.empty(shape)
    for body in range(1, system.params.n_bodies + 1):
        pos[body - 1], vel[body - 1] = evaluate(system, body, times, derivative=(0, 1))
    return Trajectory(system.params, m_samples, times, pos, vel)


def tick_table_generator(spec: GeneratorSpectrum, m_samples: int):
    """Reference for the generator rows of loops.sample: (positions, velocities).

    Each phase e^(2 pi i m k/M) is entry m*k mod M of one table of M-th roots
    of unity, and the terms are added in ascending frequency order.
    """
    roots = np.exp((2.0 * np.pi / m_samples) * 1j * np.arange(m_samples))
    ticks = np.arange(m_samples)
    sums = [np.zeros(m_samples, dtype=complex) for _ in range(2)]
    for m, c in zip(spec.freqs, spec.coeffs):
        wave = roots[(m * ticks) % m_samples]
        for derivative, out in enumerate(sums):
            out += (c * (2.0 * np.pi * 1j * m) ** derivative) * wave
    return tuple(np.stack([z.real, z.imag], axis=-1) for z in sums)


def longdouble_generator(spec: GeneratorSpectrum, m_samples: int):
    """(positions, velocities) of a generator at t_k = k/M in np.longdouble.

    Each phase angle is 2 pi (m*k mod M)/M with pi = 4 atan(1) in long double
    precision, so on x86-64 (64-bit mantissa) it is about 2^11 times more
    accurate than a float64 evaluation.
    """
    two_pi = 8 * np.arctan(np.longdouble(1))
    ticks = np.arange(m_samples)
    shape = (m_samples, 2)
    pos, vel = np.zeros(shape, dtype=np.longdouble), np.zeros(shape, dtype=np.longdouble)
    for m, c in zip(spec.freqs, spec.coeffs):
        angle = two_pi * ((m * ticks) % m_samples).astype(np.longdouble) / m_samples
        cos, sin = np.cos(angle), np.sin(angle)
        x, y = np.longdouble(c.real), np.longdouble(c.imag)
        pos[:, 0] += x * cos - y * sin
        pos[:, 1] += x * sin + y * cos
        # d/dt of c e^(2 pi i m t) is (2 pi i m) c e^(2 pi i m t)
        w = two_pi * m
        vel[:, 0] += -w * (x * sin + y * cos)
        vel[:, 1] += w * (x * cos - y * sin)
    return pos, vel


def roll_group_action_residual(traj: Trajectory, generator: str) -> float:
    """Reference for loops.group_action_residual: each generator applied to a
    copy of the samples rolled along time, then gathered by body."""
    p, M, pos, n = traj.params, traj.m_samples, traj.positions, traj.params.n_main
    if generator == "g1":
        shifted = np.roll(pos, -M // p.r, axis=1)
        theta = -2.0 * np.pi * p.d / p.r
        c, s = math.cos(theta), math.sin(theta)
        acted = np.empty_like(shifted)
        acted[..., 0] = c * shifted[..., 0] - s * shifted[..., 1]
        acted[..., 1] = s * shifted[..., 0] + c * shifted[..., 1]
    elif generator == "g2":
        shifted = np.roll(pos, -M // 3, axis=1)
        acted = shifted[list(range(n)) + [n + 2, n, n + 1]]
    else:
        shifted = np.roll(pos, -M // n, axis=1)
        acted = shifted[[n - 1] + list(range(n - 1)) + [n, n + 1, n + 2]]
    diff = acted - pos
    return float(np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2).max())


def direct_phase_table(freqs: np.ndarray, roots: np.ndarray, m_nodes: int) -> np.ndarray:
    """Reference for action._phase_table: one complex exponential per entry."""
    m_samples = len(roots)
    ticks = np.outer(freqs, np.arange(m_nodes)) % m_samples
    return np.exp((2.0 * np.pi / m_samples) * 1j * ticks)


def gathered_pair_forces(pos, pairs=None, weights=None) -> np.ndarray:
    """Reference for kernels.pair_forces: -diff/|diff|^3 as one expression on the
    gathered differences, contracted over pairs by the dense (B, P) incidence."""
    pos = np.asarray(pos, dtype=np.float64)
    table = kernels.pair_index_table(len(pos)) if pairs is None else np.asarray(pairs, np.int64)
    ii, jj = table.T
    diff = pos[ii] - pos[jj]
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    g = -diff / (d2 * np.sqrt(d2))[..., None]
    w = np.ones(len(ii)) if weights is None else np.asarray(weights, dtype=np.float64)
    incidence = np.zeros((len(pos), len(ii)))
    cols = np.arange(len(ii))
    incidence[ii, cols] = w
    incidence[jj, cols] = -w
    return np.tensordot(incidence, g, axes=(1, 0))


def all_pairs_winding_table(traj) -> dict:
    """Reference for loops.winding_table: every same-chain pair wound on its own."""
    n = traj.params.n_main
    pos = traj.positions
    table = {"main": [], "triple": []}
    for key, lo, hi in (("main", 0, n), ("triple", n, n + 3)):
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                table[key].append([i + 1, j + 1, winding_number(pos[i] - pos[j], (0.0, 0.0))])
    return table


def all_pairs_min_separation(traj) -> float:
    """Reference for loops.min_separation: every pair's distance at every node."""
    pos = traj.positions
    return min(
        float(np.hypot(*(pos[i] - pos[j]).T).min())
        for i in range(traj.n_bodies)
        for j in range(i + 1, traj.n_bodies)
    )


def brute_force_frequencies(params: SymmetryParams, role: str, cutoff: int) -> list[int]:
    """Literal congruence scan used as the oracle for allowed_frequencies."""
    anchor = 3 if role == ROLE_MAIN else params.n_main
    return [
        m
        for m in range(-cutoff, cutoff + 1)
        if m % anchor == 0 and (m - params.d) % params.r == 0
    ]


def brute_potential(system: SystemLoop, m_samples: int) -> float:
    """Independent node-average potential: direct complex evaluation, no kernels."""
    p = system.params
    n, B = p.n_main, p.n_bodies
    t = np.arange(m_samples) / m_samples
    pos = np.empty((B, m_samples), dtype=complex)
    for body in range(1, B + 1):
        shift = (body - 1) / n if body <= n else (body - 1 - n) / 3
        spec = system.main if body <= n else system.triple
        z = np.zeros(m_samples, dtype=complex)
        for m, c in zip(spec.freqs, spec.coeffs):
            z += c * np.exp(2j * np.pi * m * (t + shift))
        pos[body - 1] = z
    total = 0.0
    for i in range(B):
        for j in range(i + 1, B):
            total += float(np.mean(1.0 / np.abs(pos[i] - pos[j])))
    return total


def full_grid_evaluation(ws, cm, ct):
    """Reference for ActionWorkspace: per-body phase tables on all M nodes.

    Every body of both chains is evaluated on the whole grid, and the value,
    projected gradient and minimum separation come from the kernels over all
    (N+3)(N+2)/2 pairs and M nodes. Returns (value, gm, gt, min separation).
    """
    n, m_samples = ws.params.n_main, ws.m_samples
    times = np.arange(m_samples) / m_samples

    def table(freqs, chain):
        shifts = np.arange(chain) / chain
        u = shifts[:, None] + times[None, :]
        return np.exp(2j * np.pi * freqs[None, :, None] * u[:, None, :])

    em, et = table(ws.main_freqs, n), table(ws.triple_freqs, 3)
    z = np.concatenate([np.einsum("f,bft->bt", cm, em), np.einsum("f,bft->bt", ct, et)])
    pos = np.ascontiguousarray(np.stack([z.real, z.imag], axis=-1))
    value = ws.kinetic(cm, ct) + float(kernels.pair_mean_inverse_distance(pos).sum())
    forces = kernels.pair_forces(pos)
    fz = forces[..., 0] + 1j * forces[..., 1]
    gm = ws.kinetic_weights_main * cm + np.einsum("bt,bft->f", fz[:n], np.conj(em)) / m_samples
    gt = ws.kinetic_weights_triple * ct + np.einsum("bt,bft->f", fz[n:], np.conj(et)) / m_samples
    gm, gt = ws.project(gm, gt)
    return value, gm, gt, kernels.min_separation_scan(pos)[0]


def circular_kinetic(params: SymmetryParams, a: float, b: float) -> float:
    """Closed-form kinetic action of the circular family: per-body speed 2*pi*|m|*R."""
    n = params.n_main
    return n * 0.5 * (2 * math.pi * 3 * a) ** 2 + 3 * 0.5 * (2 * math.pi * n * b) ** 2


# -- oracles for the collision lattices ------------------------------------------
# Breadth-first search over the propagation rules, one (pair, tick) state at a
# time: the reference for the orbit enumeration in bounds.collision_closure.
def bfs_closure(params: SymmetryParams, seed: tuple[int, int]) -> dict:
    n, r = params.n_main, params.r
    L = 3 * n * r
    rot, third, enth = L // r, L // 3, L // n

    def canonical(i, j):
        return (i, j) if i < j else (j, i)

    def succ_main(i):
        return i % n + 1

    def succ_triple(i):
        return n + 1 + (i - n) % 3

    start = (*canonical(*seed), 0)
    seen = {start}
    queue = deque([start])
    while queue:
        i, j, t = queue.popleft()
        nexts = [(i, j, (t + rot) % L)]
        if j <= n:
            nexts.append((i, j, (t + third) % L))
            nexts.append((*canonical(succ_main(i), succ_main(j)), (t - enth) % L))
        elif i > n:
            nexts.append((i, j, (t + enth) % L))
            nexts.append((*canonical(succ_triple(i), succ_triple(j)), (t - third) % L))
        else:
            nexts.append((*canonical(succ_main(i), j), (t - enth) % L))
            nexts.append((i, succ_triple(j), (t - third) % L))
        for state in nexts:
            if state not in seen:
                seen.add(state)
                queue.append(state)

    by_pair: dict = {}
    for i, j, t in seen:
        by_pair.setdefault((i, j), set()).add(t)
    return {pair: TimeLattice(L, tuple(sorted(ticks))) for pair, ticks in sorted(by_pair.items())}


# One case bound from a closure (the BFS one by default): pairs walked in
# lexicographic order, a colliding pair adding its own lattice's
# gordon_segment per inter-collision duration, every other pair its periodic
# term. Each sum is an explicit += loop from 0.0, the reference order for
# case_lower_bound; the builtin sum of floats is compensated from Python 3.12
# on, and np.sum adds pairwise.
def oracle_case_bound(
    params: SymmetryParams, seed: tuple[int, int], label: str, closure_of=bfs_closure
) -> CaseBound:
    n = params.n_main
    B = n + 3
    strength = float(B)
    closure = closure_of(params, seed)
    total = 0.0
    for i in range(1, B + 1):
        for j in range(i + 1, B + 1):
            lattice = closure.get((i, j))
            if lattice is not None:
                term = 0.0
                for d in lattice.durations():
                    term += gordon_segment(strength, d)
            else:
                p = 1.0 / 3.0 if j <= n else 1.0 / n if i > n else 1.0
                term = gordon_periodic(strength, p) / p
            total += term
    sizes = tuple(sorted(lattice.size for lattice in closure.values()))
    return CaseBound(label, tuple(sorted(seed)), sizes, total / B)


# The case bounds and their minimum: the reference for collision_threshold.
def oracle_threshold(params: SymmetryParams, closure_of=bfs_closure) -> ThresholdReport:
    cases = tuple(
        oracle_case_bound(params, seed, label, closure_of)
        for label, seed in representative_seeds(params)
    )
    parity = (
        "N even: threshold over cases 1, 2, 3, 4, 5"
        if params.n_main % 2 == 0
        else "N odd: threshold over cases 1, 2', 4, 5"
    )
    return ThresholdReport(params, cases, min(c.bound for c in cases), parity)


# The distinctness scans as Python loops over (indices, tick) states, each
# witness being the first repeated tick in loop order and the first state
# that had it: the reference for bounds.verify_time_lemmas.
def oracle_time_lemmas(params: SymmetryParams) -> LatticeCheckReport:
    n, r = params.n_main, params.r

    def distinct(name, states, denominator):
        seen = {}
        for indices, tick in states:
            tick %= denominator
            if tick in seen:
                return LatticeCheck(name, False, (seen[tick], indices, tick, denominator))
            seen[tick] = indices
        return LatticeCheck(name, True, None)

    checks = [
        distinct("rotation-vs-thirds",
                 [((i, k), 3 * i + k * r) for k in range(3) for i in range(r)], 3 * r),
        distinct("thirds-lattice-vs-main-shifts",
                 [((i, j), n * i + 3 * r * j) for j in range(1, n) for i in range(3 * r)],
                 3 * r * n),
    ]
    if n % 2 == 0:
        checks.append(distinct(
            "rotation-vs-sixths",
            [((i, j), 6 * i + r * j) for j in range(6) for i in range(r)], 6 * r))
        checks.append(distinct(
            "sixths-lattice-vs-main-shifts",
            [((i, j), n * i + 6 * r * j) for j in range(1, n // 2) for i in range(6 * r)],
            6 * r * n))
    checks.append(distinct(
        "rotation-main-thirds-joint",
        [((i, j, k), 3 * n * i + 3 * r * j + n * r * k)
         for k in range(3) for j in range(1, n) for i in range(r)],
        3 * r * n))
    return LatticeCheckReport(params, tuple(checks))


# The distinctness scan on one grid as Python list comprehensions: ticks built
# outermost axis first, so their order is the loop order, and the witness
# found by one pass over them. The reference for bounds._distinct, which
# builds the same grid in int64 numpy.
def oracle_distinct(name: str, denominator: int, *axes) -> LatticeCheck:
    ticks = [0]
    for c, x in reversed(axes):
        ticks = [t + c * i for t in ticks for i in x]
    ticks = [t % denominator for t in ticks]
    if len(set(ticks)) == len(ticks):
        return LatticeCheck(name, True, None)

    def indices(flat):
        out = []
        for _, x in axes:
            flat, k = divmod(flat, len(x))
            out.append(x[k])
        return tuple(out)

    first: dict = {}
    repeat = next(k for k, tick in enumerate(ticks) if first.setdefault(tick, k) != k)
    tick = ticks[repeat]
    return LatticeCheck(name, False, (indices(first[tick]), indices(repeat), tick, denominator))
