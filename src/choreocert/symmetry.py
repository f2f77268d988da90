"""Symmetry parameters, admissibility conditions, and the adapted frequency basis.

The configuration is N equal-mass bodies chasing each other on one closed
curve plus 3 more chasing each other on a second curve, all with period 1.
The symmetry group is a product of three cyclic actions:

  g1: advance time by 1/r and rotate the plane by 2*pi*d/r,
  g2: advance time by 1/3 and cyclically relabel the three-body chain,
  g3: advance time by 1/N and cyclically relabel the main chain.

A loop fixed under all three is determined by two generating bodies (body 1
and body N+1), and in the complex-plane representation q(t) = sum_m c_m
e^(2*pi*i*m*t) the fixed-point conditions become per-frequency congruences:
main-generator frequencies satisfy m = 0 (mod 3) and m = d (mod r); triple
frequencies satisfy m = 0 (mod N) and m = d (mod r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ROLE_MAIN = "main"
ROLE_TRIPLE = "triple"
ROLE_CROSS = "cross"


def json_number(value):
    """``value`` itself, or TypeError if it is a boolean or a string: a loop
    file's numbers must be JSON numbers, though int() and float() read both."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return value


@dataclass(frozen=True)
class SymmetryParams:
    """Integer tuple (N, r, d, k1, k2) describing one symmetric family.

    n_main  -- bodies on the first curve (N >= 4); total bodies = n_main + 3
    r       -- rotation order of g1 (>= 2)
    d       -- rotation multiplier, stored modulo r
    k1      -- prescribed winding number of main-curve pair differences
    k2      -- prescribed winding number of triple-curve pair differences

    All masses are 1 and the period is 1. Construction does not validate the
    admissibility conditions; see ``compatibility_check``.
    """

    n_main: int
    r: int
    d: int
    k1: int
    k2: int

    def __post_init__(self):
        for name in ("n_main", "r", "d", "k1", "k2"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.r >= 1:
            object.__setattr__(self, "d", self.d % self.r)

    def to_dict(self) -> dict:
        """The JSON form {n, r, d, k1, k2} of loop and certificate files."""
        return {"n": self.n_main, "r": self.r, "d": self.d, "k1": self.k1, "k2": self.k2}

    @classmethod
    def from_dict(cls, doc) -> SymmetryParams:
        """Inverse of ``to_dict``; ValueError unless every value is a whole number
        (the test ``loops.GeneratorSpectrum.from_pairs`` applies to frequencies)."""
        keys = ("n", "r", "d", "k1", "k2")
        try:
            integers = [int(json_number(doc[key])) for key in keys]
            if integers != [float(doc[key]) for key in keys]:
                raise ValueError({key: doc[key] for key in keys})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"'params' must map n, r, d, k1 and k2 to integers ({exc!r})") from None
        return cls(*integers)

    @property
    def n_bodies(self) -> int:
        return self.n_main + 3

    @property
    def grid_unit(self) -> int:
        """Smallest sample count on which every symmetry shift is integral."""
        return math.lcm(3, self.n_main, self.r)

    def default_grid(self) -> int:
        """Default sample count: 16 grid units, 16 * lcm(3, N, r).

        Every symmetry shift is then a whole number of nodes, and each of
        1/3, 1/N and 1/r spans at least 16 of them. It need not be a multiple
        of the collision lattice modulus 3*N*r: for N = 10, r = 25 it is 2400,
        where 3*N*r = 750.
        """
        return 16 * self.grid_unit


@dataclass(frozen=True)
class CompatibilityResult:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def compatibility_check(params: SymmetryParams) -> CompatibilityResult:
    """Check the admissibility conditions linking (N, r, d, k1, k2).

    Returns an ok result exactly when all conditions hold; otherwise lists
    every violated condition by name. Invalid input is a reported outcome,
    never an exception. gcd(N, r) = g > 1 makes g divide d and every main
    frequency, so main bodies i and i + N/g coincide in every loop. d = 0
    (mod r) admits frequency 0 for both generators, so a cross pair's relative
    motion may have the non-zero mean that ``bounds.case_lower_bound`` excludes.
    """
    n, r, d, k1, k2 = params.n_main, params.r, params.d, params.k1, params.k2
    violations = []
    if n < 4:
        violations.append("N < 4")
    if r < 2:
        violations.append("r < 2")
    if math.gcd(n, 3) != 1:
        violations.append("gcd(N,3) != 1")
    if r >= 2 and math.gcd(r, 3) != 1:
        violations.append("gcd(r,3) != 1")
    if k1 % 3 != 0:
        violations.append("k1 not multiple of 3")
    if n >= 1 and k2 % n != 0:
        violations.append("k2 not multiple of N")
    if r >= 2:
        if (k1 - d) % r != 0:
            violations.append("k1 != d (mod r)")
        if (k2 - d) % r != 0:
            violations.append("k2 != d (mod r)")
    g = math.gcd(n, r)
    if n >= 1 and r >= 2 and g != 1:
        violations.append(f"gcd(N,r) = {g} != 1: main bodies i and i+{n // g} coincide")
    if r >= 2 and d == 0:
        violations.append("d = 0 (mod r): frequency 0 is admissible, so the chains' means "
                          "are free and the zero-mean cross-pair bound does not apply")
    return CompatibilityResult(ok=not violations, violations=tuple(violations))


def _anchor_modulus(params: SymmetryParams, role: str) -> int:
    if role == ROLE_MAIN:
        return 3
    if role == ROLE_TRIPLE:
        return params.n_main
    raise ValueError(f"unknown role {role!r} (expected 'main' or 'triple')")


def frequency_allowed(params: SymmetryParams, role: str, m: int) -> bool:
    """True when frequency m satisfies both congruences of the role, ``frequency_rule``."""
    a = _anchor_modulus(params, role)
    return m % a == 0 and (m - params.d) % params.r == 0


def frequency_rule(params: SymmetryParams, role: str) -> str:
    """The congruences of ``frequency_allowed`` as text, for messages."""
    return f"m = 0 (mod {_anchor_modulus(params, role)}) and m = {params.d} (mod {params.r})"


def allowed_frequencies(params: SymmetryParams, role: str, cutoff: int) -> list[int]:
    """The frequencies m with |m| <= cutoff that ``frequency_allowed`` admits, ascending.

    None may exist: gcd(anchor, r) need not divide d, and the cutoff may be
    below the smallest admissible |m|. Both raise an "empty basis" error.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    freqs = [m for m in range(-cutoff, cutoff + 1) if frequency_allowed(params, role, m)]
    if not freqs:
        raise ValueError(
            f"empty basis: no frequency |m| <= {cutoff} of role {role!r} satisfies "
            f"{frequency_rule(params, role)}"
        )
    return freqs


class PairKind(NamedTuple):
    """One orbit of body pairs under g2 and g3; see ``pair_kinds``."""

    kind: str              # ROLE_MAIN, ROLE_CROSS or ROLE_TRIPLE
    label: str             # its collision case: "1", "2(k=..)", "2'(k=..)", "3", "4" or "5"
    pair: tuple[int, int]  # 1-based representative (i, j), i < j
    offset: int            # s = j - i of a main pair; 0 for the cross and triple pairs
    multiplicity: int      # pairs of the full system in the orbit


def pair_kinds(params: SymmetryParams) -> tuple[PairKind, ...]:
    """The orbits of the (N+3)(N+2)/2 body pairs under g2 and g3, one entry each.

    Main frequencies satisfy m = 0 (mod 3) and triple frequencies m = 0 (mod
    N), so the main generator q_1 has period 1/3 and the triple generator
    q_{N+1} has period 1/N. With q_i(t) = q_1(t + (i-1)/N) and
    q_{N+j}(t) = q_{N+1}(t + (j-1)/3):

      main pair (i, j), s = j - i:  q_i - q_j at t is q_1 - q_{1+s} at
          t + (i-1)/N, and minus q_1 - q_{1+N-s} at t + (j-1)/N. So the pairs
          with offset s or N - s are time shifts of (1, 1+s), s = 1..floor(N/2):
          N of them, or N/2 when s = N/2.
      cross pair (i, N+j):  |q_i - q_{N+j}| at t is |q_1 - q_{N+1}| at
          t + (i-1)/N + (j-1)/3, by the two periods: all 3N cross pairs are
          time shifts of (1, N+1).
      triple pair:  the 3 pairs are time shifts of (N+1, N+2).

    The entries come in that order, the main offsets ascending, and their
    multiplicities sum to (N+3)(N+2)/2. A collision of one pair forces one
    of every pair in its orbit, so the orbits are also the collision cases
    of ``bounds``, whose labels the entries carry: "1" for s = 1, "3" for
    the antipodal s = N/2 of even N, "2(k=s-1)" (N even) or "2'(k=s-1)"
    (N odd) for the offsets between, "4" for the cross pair and "5" for the
    triple pair. For N = 2 the offset 1 is antipodal too and is labelled
    "1". N must be at least 1.
    """
    n = params.n_main
    sub = "2" if n % 2 == 0 else "2'"
    kinds = []
    for s in range(1, n // 2 + 1):
        antipodal = 2 * s == n
        label = "1" if s == 1 else "3" if antipodal else f"{sub}(k={s - 1})"
        kinds.append(PairKind(ROLE_MAIN, label, (1, 1 + s), s, n // 2 if antipodal else n))
    kinds.append(PairKind(ROLE_CROSS, "4", (1, n + 1), 0, 3 * n))
    kinds.append(PairKind(ROLE_TRIPLE, "5", (n + 1, n + 2), 0, 3))
    return tuple(kinds)
