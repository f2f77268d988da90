"""Action lower bounds on the collision set via exact collision-time lattices.

If two bodies of a symmetric loop ever coincide, the symmetry relations force
them (and relabeled partners) to coincide on a whole lattice of times. Times
are handled exactly as integer ticks modulo L = 3*N*r, on which every
symmetry shift (1/r, 1/3, 1/N) is an integer, so the propagation closure and
the distinctness checks involve no floating point at all.

The closure is one group orbit, enumerated directly. A pair kind has three
propagation maps (the rotation t + L/r, a pure time shift, and the chain
relabelling with its time shift), and they commute: relabelling does not
depend on t and every shift is additive. Their orders are r, 3 and N (N and
3 for triple pairs; for cross pairs the pure shift is replaced by the second
chain's relabelling), so the orbit of a seed at t = 0 has at most 3*N*r
states.

The shifts that keep the pair fixed generate a subgroup of Z_L: by L/r and
L/3 for a main seed, by L/r and L/N for a triple seed, by L/r alone for a
cross seed. A subgroup of Z_L is gap*Z_L with gap the gcd of L and its
generators, so each colliding pair collides on one coset base + gap*Z_L, its
base being the tick of the relabelling power that reaches it. For the
antipodal main seed (1, 1 + N/2) two powers c and c + N/2 reach each pair,
with bases L/2 apart, and gap also takes the gcd with L/2. Every lattice of
a case is therefore arithmetic, with the seed lattice's size L/gap.

Each pair's contribution to the action is bounded below with the two-body
bounds: between consecutive forced collisions by the fixed-end bound, and for
never-colliding pairs by the zero-mean periodic bound applied on the pair's
natural relative period (1/3 for main-main, 1/N for triple-triple, 1 for
cross pairs). Summing over all pairs and dividing by the body count N+3
(valid because the center of mass vanishes) gives a lower bound for the full
action of any loop exhibiting the seed collision. Since every colliding pair
has L/gap equal gaps, its term is one segment summed L/gap times, the same
for every colliding pair of the case.

Both sums are folds left to right, as a ``+=`` loop adds them: the repeated
segment, and then the pair terms in lexicographic pair order. The segment is
folded with ``functools.reduce`` over ``itertools.repeat``, once per
distinct lattice size. The pair terms of all the cases of a threshold are
rows of one table, folded with ``np.add.accumulate``, which adds along each
row strictly in order. ``np.sum`` and ``np.add.reduce`` add pairwise, and
the builtin ``sum`` of floats is compensated from Python 3.12 on, so either
would give other bits, the latter depending on the interpreter.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .symmetry import SymmetryParams, pair_kinds

GORDON_COEFF = 1.5 * (2.0 * math.pi) ** (2.0 / 3.0)


def gordon_segment(strength: float, duration: float) -> float:
    """Least two-body action over a duration whose endpoints are collisions.

    Minimal value of integral (|x'|^2/2 + strength/|x|) dt over arcs with
    x = 0 at both ends: (3/2) (2 pi)^(2/3) strength^(2/3) duration^(1/3),
    the same closed form the circular Kepler orbit attains (minimize
    T*(w^2 R^2/2 + strength/R) over R with w = 2 pi/T).
    """
    if strength <= 0 or duration <= 0:
        raise ValueError("strength and duration must be positive")
    return GORDON_COEFF * strength ** (2.0 / 3.0) * duration ** (1.0 / 3.0)


def gordon_periodic(strength: float, period: float) -> float:
    """Least two-body action over one period among zero-mean periodic motions."""
    if strength <= 0 or period <= 0:
        raise ValueError("strength and period must be positive")
    return GORDON_COEFF * strength ** (2.0 / 3.0) * period ** (1.0 / 3.0)


@dataclass(frozen=True)
class TimeLattice:
    """Sorted set of collision ticks modulo L = 3*N*r (tick/L is the time).

    Ticks may come in any order, as any integers: they are reduced mod L and
    sorted, and a tick repeated after reduction raises ValueError. A non-empty
    set whose sorted ticks form an ascending arithmetic progression is stored
    as a ``range``, any other set as a tuple of Python ints, so that ``==``
    and ``hash`` depend only on the tick set. An ascending range inside
    [0, L) is already sorted, distinct and reduced, so it is stored as given.
    """

    modulus: int
    ticks: range | tuple[int, ...]

    def __post_init__(self):
        m = self.modulus
        ts = self.ticks
        if isinstance(ts, range) and ts.step > 0 and ts.start >= 0 and ts.stop <= m:
            if not ts:
                object.__setattr__(self, "ticks", ())
            return
        ts = sorted(map(int, ts))
        if ts and (ts[0] < 0 or ts[-1] >= m):
            ts = sorted(map(m.__rmod__, ts))
        steps = set(map(operator.sub, ts[1:], ts))
        if steps and min(steps) <= 0:
            raise ValueError("duplicate ticks")
        if ts and len(steps) <= 1:
            step = steps.pop() if steps else 1
            object.__setattr__(self, "ticks", range(ts[0], ts[-1] + 1, step))
        else:
            object.__setattr__(self, "ticks", tuple(ts))

    @property
    def size(self) -> int:
        return len(self.ticks)

    def gaps(self) -> list[int]:
        """Tick counts of the consecutive inter-collision intervals (wrap included)."""
        ts = self.ticks
        if not ts:
            return []
        gaps = list(map(operator.sub, ts[1:], ts))
        gaps.append(self.modulus + ts[0] - ts[-1])
        return gaps

    def durations(self) -> list[float]:
        """Lengths of the consecutive inter-collision intervals (wrap included)."""
        return list(map(self.modulus.__rtruediv__, self.gaps()))

    @property
    def is_arithmetic(self) -> bool:
        """True when every gap is equal: the ticks are one coset of a subgroup of Z_L.

        An empty set is no coset. Only a range can be arithmetic, since every
        other non-empty set has two different gaps before the wrap.
        """
        ts = self.ticks
        return isinstance(ts, range) and (len(ts) == 1 or self.modulus == ts.step * len(ts))


def _seed_pair(params: SymmetryParams, seed: tuple[int, int]) -> tuple[int, int]:
    """The seed as (i, j), i < j, Python ints; ValueError unless two distinct bodies.

    Bodies are the ints 1..N+3: a bool, a float (integral or not) or a
    value out of range names no body.
    """
    bodies = params.n_main + 3
    try:
        i, j = seed
    except (TypeError, ValueError):
        raise ValueError(f"seed pair {seed!r} invalid for {bodies} bodies: not a pair") from None
    if type(i) is not int or type(j) is not int:
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (i, j)):
            raise ValueError(f"seed pair {seed!r} invalid for {bodies} bodies: bodies are ints")
        i, j = int(i), int(j)
    if j < i:
        i, j = j, i
    if i < 1 or j > bodies or i == j:
        raise ValueError(f"seed pair {seed!r} invalid for {bodies} bodies")
    return i, j


def lattice_modulus(params: SymmetryParams) -> int:
    """Common tick denominator L = 3*N*r of every collision time and scan.

    Raises ValueError unless N >= 1 and r >= 1: with either below 1 there is
    no lattice, and every orbit and distinctness scan would be empty.
    """
    n, r = params.n_main, params.r
    if n < 1 or r < 1:
        raise ValueError(f"collision lattices need N >= 1 and r >= 1, got N={n}, r={r}")
    return 3 * n * r


def collision_closure(
    params: SymmetryParams, seed: tuple[int, int]
) -> dict[tuple[int, int], TimeLattice]:
    """All (pair, time) collision facts forced by a seed collision at t = 0.

    Propagation rules on ticks mod L = 3*N*r:
      any pair:        t -> t + L/r            (rotate by 2 pi d/r)
      main-main:       t -> t + L/3            (main bodies are 1/3-periodic)
                       (i, j) -> (succ i, succ j), t -> t - L/N
      triple-triple:   t -> t + L/N            (triple bodies are 1/N-periodic)
                       (i, j) -> (succ i, succ j), t -> t - L/3
      cross:           succ on the main index with t -> t - L/N,
                       succ on the triple index with t -> t - L/3
    where succ is the cyclic successor on its chain. Returns every reachable
    pair with its full tick lattice, pairs in ascending order. The seed must
    be two distinct bodies, ints in 1..N+3 (not bools, not floats), in
    either order; anything else raises ValueError naming the seed.

    The three rules of a pair kind are commuting maps: relabelling does not
    depend on t and every time shift is additive. Each has finite order (r
    for the rotation, 3 or N for the pure shift, N or 3 for succ with its
    shift, since N * L/N = L), so the reachable set is exactly the orbit
    {rot^a shift^b succ^c (seed, 0)}, and for cross seeds
    {rot^a succ_main^c succ_triple^e (seed, 0)}: at most 3*N*r states,
    enumerated directly rather than searched.

    The free shifts (rot^a shift^b) form the subgroup gap*Z_L, so each pair's
    ticks are range(base % gap, L, gap) for the base tick of a relabelling
    power that reaches it. When two powers reach one pair (only the antipodal
    main seed), their bases differ by L/2 and gap takes the gcd with that
    difference, so the pair's ticks are the union of both cosets. That range
    is ascending and inside [0, L), so TimeLattice stores it as built.
    """
    n, r = params.n_main, params.r
    L = lattice_modulus(params)
    i0, j0 = _seed_pair(params, seed)
    rot, third, enth = L // r, L // 3, L // n

    # Each relabelling power (c on the main chain, e on the triple chain)
    # gives a pair and a base tick; gap generates the subgroup of free shifts.
    bases: dict[tuple[int, int], int] = {}
    if j0 <= n:
        gap = math.gcd(L, rot, third)
        for c in range(n):
            i, j = (i0 - 1 + c) % n + 1, (j0 - 1 + c) % n + 1
            base = -c * enth
            first = bases.setdefault((i, j) if i < j else (j, i), base)
            if first != base:  # the antipodal seed: power c + N/2 reaches power c's pair
                gap = math.gcd(gap, base - first)
    elif i0 > n:
        gap = math.gcd(L, rot, enth)
        for e in range(3):
            i, j = n + 1 + (i0 - n - 1 + e) % 3, n + 1 + (j0 - n - 1 + e) % 3
            bases[(i, j) if i < j else (j, i)] = -e * third
    else:
        gap = rot
        for c in range(n):
            i = (i0 - 1 + c) % n + 1
            for e in range(3):
                bases[(i, n + 1 + (j0 - n - 1 + e) % 3)] = -c * enth - e * third
    return {
        pair: TimeLattice(L, range(base % gap, L, gap))
        for pair, base in sorted(bases.items())
    }


@dataclass(frozen=True)
class CaseBound:
    """Action lower bound for one collision case (identified by its seed pair)."""

    label: str
    pair: tuple[int, int]
    lattice_sizes: tuple[int, ...]  # per colliding pair, sorted
    bound: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "pair": list(self.pair),
            "lattice_sizes": list(self.lattice_sizes),
            "bound": self.bound,
        }


@functools.lru_cache(maxsize=32)
def _periodic_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair's periodic term in lexicographic pair order, and where each pair sits.

    Pair (i, j), i < j, of the B = N+3 bodies sits at (i-1)*B - (i-1)*i/2 +
    (j-i-1), which is starts[i] + j. The relative periods are 1/3 for
    main-main, 1 for cross and 1/N for triple-triple pairs. Kept per N, both
    arrays read-only.
    """
    B = n + 3
    strength = float(B)
    main_term, cross_term, triple_term = (
        gordon_periodic(strength, p) / p for p in (1.0 / 3.0, 1.0, 1.0 / n)
    )
    pairs = itertools.combinations(range(1, B + 1), 2)  # lexicographic
    row = np.array(
        [main_term if j <= n else cross_term if i <= n else triple_term for i, j in pairs]
    )
    starts = np.array([(i - 1) * B - (i - 1) * i // 2 - i - 1 for i in range(B + 1)])
    row.flags.writeable = starts.flags.writeable = False
    return row, starts


# Entries of one table of case rows: at large N the cases are folded a few
# rows at a time, so the tables stay near one row's size, not N/2 rows'.
_TABLE_ENTRIES = 1 << 16


def _case_bounds(
    params: SymmetryParams, seeds: list[tuple[str | None, tuple[int, int]]]
) -> tuple[CaseBound, ...]:
    """The CaseBound of every (label, seed), one row of a table per case.

    One ``collision_closure`` call per seed. Every colliding pair's lattice
    is a coset of the seed lattice, so its intervals are all L/size ticks
    long and its term is one Gordon segment added size times: one sum per
    distinct size. Each case's row is the periodic row with its colliding
    pairs' terms overwritten by that sum. The rows are folded left to right,
    in tables of at most _TABLE_ENTRIES entries, and divided by N+3.
    """
    L = lattice_modulus(params)
    n = params.n_main
    B = n + 3
    row, starts = _periodic_terms(n)
    pairs, sizes, closures = [], [], []
    for _, seed in seeds:
        pair = _seed_pair(params, seed)
        closure = collision_closure(params, pair)
        pairs.append(pair)
        sizes.append(closure[pair].size)
        closures.append(closure)
    counts = [len(closure) for closure in closures]
    colliding = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(closures)),
        dtype=np.intp,
        count=2 * sum(counts),
    )
    # each colliding pair's entry in the flattened table of all cases
    cells = np.arange(0, len(seeds) * row.size, row.size).repeat(counts)
    cells += starts[colliding[0::2]] + colliding[1::2]

    # one Gordon segment per interval, added left to right from 0.0 as += adds it
    seed_sums = {
        size: functools.reduce(
            operator.add, itertools.repeat(gordon_segment(float(B), (L // size) / L), size), 0.0
        )
        for size in set(sizes)
    }
    terms = np.array([seed_sums[size] for size in sizes]).repeat(counts)
    ends = [0, *itertools.accumulate(counts)]
    per_table = max(1, _TABLE_ENTRIES // row.size)
    bounds: list[float] = []
    for first in range(0, len(seeds), per_table):
        last = min(first + per_table, len(seeds))
        table = row[None, :].repeat(last - first, axis=0)
        block = slice(ends[first], ends[last])
        table.ravel()[cells[block] - first * row.size] = terms[block]
        # adds along each row in order; np.sum would add pairwise
        bounds += (np.add.accumulate(table, axis=1)[:, -1] / B).tolist()
    return tuple(
        CaseBound(
            label=label if label is not None else f"seed {seed}",
            pair=pair,
            lattice_sizes=(size,) * count,
            bound=bound,
        )
        for (label, seed), pair, size, count, bound in zip(seeds, pairs, sizes, counts, bounds)
    )


def case_lower_bound(
    params: SymmetryParams, seed: tuple[int, int], label: str | None = None
) -> CaseBound:
    """Lower bound of the action over loops where the seed pair collides.

    Colliding pairs contribute the fixed-end bound summed over their
    inter-collision intervals; all other pairs contribute the periodic bound
    on their relative period, repeated 1/period times to cover [0, 1).

    Every colliding pair's lattice is a coset of the seed lattice (see
    collision_closure), so its intervals are all L/size ticks long: one
    Gordon segment, added size times left to right from 0.0, is the term of
    each colliding pair. That adds the same floats in the same order as
    summing one segment per interval of each lattice with +=. The pair terms
    are then listed in lexicographic pair order, each colliding pair's
    periodic term overwritten by that sum, and folded left to right the same
    way, as a row of ``np.add.accumulate``, which adds strictly left to
    right. ``np.sum`` adds pairwise, and the builtin sum of floats is
    compensated from Python 3.12 on, so either would change the bits.
    ``collision_threshold`` folds all its cases through the same code.
    """
    return _case_bounds(params, [(label, seed)])[0]


@dataclass(frozen=True)
class ThresholdReport:
    """Per-case bounds and their minimum: the collision-set action threshold."""

    params: SymmetryParams
    cases: tuple[CaseBound, ...]
    threshold: float
    parity: str

    def to_dict(self) -> dict:
        return {
            "cases": [c.to_dict() for c in self.cases],
            "threshold": self.threshold,
            "parity": self.parity,
        }


def representative_seeds(params: SymmetryParams) -> list[tuple[str, tuple[int, int]]]:
    """(label, seed pair) of every collision case: the entries of ``pair_kinds``."""
    return [(k.label, k.pair) for k in pair_kinds(params)]


def collision_threshold(params: SymmetryParams) -> ThresholdReport:
    """Minimum of the case bounds over every collision case, one per pair orbit."""
    cases = _case_bounds(params, representative_seeds(params))
    parity = (
        "N even: threshold over cases 1, 2, 3, 4, 5"
        if params.n_main % 2 == 0
        else "N odd: threshold over cases 1, 2', 4, 5"
    )
    return ThresholdReport(
        params=params,
        cases=cases,
        threshold=min(c.bound for c in cases),
        parity=parity,
    )


# -- exact distinctness checks for the collision-time grids ---------------------

@dataclass(frozen=True)
class LatticeCheck:
    name: str
    passed: bool
    witness: tuple | None  # ((indices a), (indices b), tick, denominator)


@dataclass(frozen=True)
class LatticeCheckReport:
    params: SymmetryParams
    checks: tuple[LatticeCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> LatticeCheck | None:
        return next((c for c in self.checks if not c.passed), None)


def _distinct(name: str, denominator: int, *axes: tuple[int, range]) -> LatticeCheck:
    """All ticks sum(c * x) mod denominator over a grid distinct, exact integers.

    Each axis is (coefficient c, range of its index x), innermost loop first;
    the witness lists indices in the same order. The grid is built in int64
    by outer sums, outermost axis first, so its flat order is the loop order;
    the largest tick is below 9*N*r, far inside int64, and nothing is a float.
    A failure's witness pairs the first state in loop order whose tick
    repeats with the first state that had that tick: ((indices a),
    (indices b), tick, denominator).
    """
    ticks = np.zeros(1, dtype=np.int64)
    for c, x in reversed(axes):
        ticks = np.add.outer(ticks, c * np.arange(x.start, x.stop, x.step, dtype=np.int64)).ravel()
    ticks %= denominator
    if ticks.size <= denominator and np.bincount(ticks, minlength=denominator).max() <= 1:
        return LatticeCheck(name, True, None)

    def indices(flat):
        out = []
        for _, x in axes:
            flat, k = divmod(flat, len(x))
            out.append(x[k])
        return tuple(out)

    ticks = ticks.tolist()
    first: dict[int, int] = {}
    repeat = next(k for k, tick in enumerate(ticks) if first.setdefault(tick, k) != k)
    tick = ticks[repeat]
    return LatticeCheck(name, False, (indices(first[tick]), indices(repeat), tick, denominator))


def verify_time_lemmas(params: SymmetryParams) -> LatticeCheckReport:
    """Exhaustive distinctness scans behind the lattice cardinalities.

    Each check asserts that a family of rational collision times, reduced to
    integer ticks over the common denominator, contains no coincidences. They
    justify, respectively: the refinement of {i/r} by thirds to a 3r-lattice;
    distinctness across main-chain shifts of that lattice; the sixths
    refinement to a 6r-lattice; distinctness across shifts of the 6r-lattice;
    and the joint rotation/main-shift/thirds grid.

    The two sixths scans run only for even N: they describe the antipodal
    main-pair lattice, which exists only then. (For compatible parameters
    with even N, r is odd, which the sixths distinctness needs; with the
    generic d it can fail for even r, e.g. i/8 + j/6 has 4/8 = 3/6.)

    With 3 | r the first scan finds a coincidence, which is what a caller
    probing bad parameters sees. N < 1 or r < 1 raises ValueError, since
    every scan would be empty and pass vacuously.
    """
    n, r = params.n_main, params.r
    L = lattice_modulus(params)

    checks = [
        # i/r vs j/r + k/3 over 3r
        _distinct("rotation-vs-thirds", 3 * r, (3, range(r)), (r, range(3))),
        # i/(3r) + j/N over 3rN, j = 1..N-1
        _distinct("thirds-lattice-vs-main-shifts", L, (n, range(3 * r)), (3 * r, range(1, n))),
    ]
    if n % 2 == 0:
        # i/r + j/6 over 6r
        checks.append(_distinct("rotation-vs-sixths", 6 * r, (6, range(r)), (r, range(6))))
        # i/(6r) + j/N over 6rN, j = 1..N/2-1
        checks.append(
            _distinct(
                "sixths-lattice-vs-main-shifts", 2 * L, (n, range(6 * r)), (6 * r, range(1, n // 2))
            )
        )
    # i/r + j/N + k/3 over 3rN, j = 1..N-1
    checks.append(
        _distinct(
            "rotation-main-thirds-joint", L, (3 * n, range(r)), (3 * r, range(1, n)), (n * r, range(3))
        )
    )
    return LatticeCheckReport(params=params, checks=tuple(checks))
