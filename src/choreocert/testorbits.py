"""Circular two-chain test configurations and their non-collision certificates.

The test family puts the N main bodies on a circle of radius a traversed
with frequency 3 and the three other bodies on a circle of radius b with
frequency -N, phases fixed to zero at t = 0. Both frequencies are admissible
whenever 3 = d (mod r) and -N = d (mod r); equally spaced initial positions
then follow from the chain shifts because gcd(3, N) = gcd(N, 3) = 1.

On this family the action has a closed form, ``circular_action``, with one
term per entry of ``symmetry.pair_kinds`` weighted by its multiplicity. Every
body moves at constant speed, so the kinetic action is
(N/2)(6 pi a)^2 + (3/2)(2 pi N b)^2. Main bodies at offset s stay
6 pi s/N apart in angle, at distance 2a|sin(3 pi s/N)|, and the triple
bodies 2 pi N/3 apart, at sqrt(3) b. The relative angle of a cross pair
turns 3 + N times per period at constant speed, so its mean inverse
distance is the mean of 1/|a - b e^(i phi)| over the circle,
1/AGM(a + b, |a - b|) (Gauss).

A certificate compares the action of such a loop against the collision-set
threshold: action strictly below the threshold proves the action minimizer
over the symmetric class is collision-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import checked_min_separation, total_action
from .bounds import ThresholdReport, collision_threshold
from .loops import GeneratorSpectrum, SystemLoop, sample, winding_table, windings_match
from .symmetry import ROLE_MAIN, ROLE_TRIPLE, SymmetryParams, pair_kinds


def build_test_orbit(params: SymmetryParams, a: float, b: float) -> SystemLoop:
    """Circular loop: main radius a at frequency 3, triple radius b at -N.

    ``SystemLoop`` refuses a class that does not admit these frequencies.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
        raise ValueError("radii must be positive and finite")
    n = params.n_main
    main, triple = 6 * math.pi * a, 2 * math.pi * n * b  # the bodies' speeds
    if not math.isfinite(0.5 * n * main * main + 1.5 * triple * triple):
        raise ValueError(f"radii a={a!r}, b={b!r}: the test orbit's kinetic action overflows")
    main = GeneratorSpectrum(ROLE_MAIN, (3,), np.array([a + 0.0j]))
    triple = GeneratorSpectrum(ROLE_TRIPLE, (-n,), np.array([b + 0.0j]))
    return SystemLoop(params, main, triple)


def circular_action(params: SymmetryParams, a: float, b: float) -> float:
    """Exact action of ``build_test_orbit(params, a, b)``, the module docstring's closed form.

    Input that ``build_test_orbit`` refuses raises its ValueError; so do equal
    radii, where the cross pairs collide, and N divisible by 3, where bodies
    of one chain coincide.
    """
    build_test_orbit(params, a, b)
    n = params.n_main
    if a == b:
        raise ValueError("equal radii: the cross pairs collide")
    if n % 3 == 0:
        raise ValueError(f"3 divides N = {n}: the bodies of each chain collide")
    potential = 0.0
    for kind in pair_kinds(params):
        if kind.kind == ROLE_MAIN:
            mean_inverse = 1 / (2 * a * abs(math.sin(3 * math.pi * kind.offset / n)))
        elif kind.kind == ROLE_TRIPLE:
            mean_inverse = 1 / (math.sqrt(3) * b)
        else:  # 1/AGM(a + b, |a - b|); the two means meet within a few ulps
            x, y = a + b, abs(a - b)
            while abs(x - y) > 1e-15 * x:
                x, y = (x + y) / 2, math.sqrt(x) * math.sqrt(y)
            mean_inverse = 1 / x
        potential += kind.multiplicity * mean_inverse
    return 0.5 * n * (6 * math.pi * a) ** 2 + 1.5 * (2 * math.pi * n * b) ** 2 + potential


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the action-vs-threshold comparison for one test orbit."""

    params: SymmetryParams
    a: float
    b: float
    kinetic: float
    potential: float
    action: float
    threshold: float
    margin: float          # threshold - action; positive is good
    windings: dict         # {"main": [[i,j,w]...], "triple": [[i,j,w]...]}
    windings_ok: bool
    min_separation: float
    certified: bool
    threshold_report: ThresholdReport

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "not certified"

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "a": self.a,
            "b": self.b,
            "kinetic": self.kinetic,
            "potential": self.potential,
            "action": self.action,
            "threshold": self.threshold,
            "margin": self.margin,
            "windings": self.windings,
            "windings_ok": self.windings_ok,
            "min_separation": self.min_separation,
            "verdict": self.verdict,
            "bounds": self.threshold_report.to_dict(),
        }


def certify(
    params: SymmetryParams, a: float, b: float, m_samples: int | None = None
) -> CertificateReport:
    """Build the test orbit, compare its action to the collision threshold.

    Certified means margin > 0 and every main/triple pair winding matches
    (k1, k2). No special-casing: the verdict is determined by the numbers.
    The orbit is sampled once; that trajectory gives the full-pair action,
    the windings and the minimum separation over all pairs, and a
    near-collision sample raises ValueError.
    """
    if m_samples is None:
        m_samples = params.default_grid()
    system = build_test_orbit(params, a, b)
    traj = sample(system, m_samples)
    separation = checked_min_separation(traj)
    breakdown = total_action(system, m_samples, traj)
    report = collision_threshold(params)
    windings = winding_table(traj)
    windings_ok = windings_match(params, windings)
    margin = report.threshold - breakdown.total
    return CertificateReport(
        params=params,
        a=a,
        b=b,
        kinetic=breakdown.kinetic,
        potential=breakdown.potential,
        action=breakdown.total,
        threshold=report.threshold,
        margin=margin,
        windings=windings,
        windings_ok=windings_ok,
        min_separation=separation.distance,
        certified=bool(margin > 0 and windings_ok),
        threshold_report=report,
    )
