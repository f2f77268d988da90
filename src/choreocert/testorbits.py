"""Circular two-chain test configurations and their non-collision certificates.

The test family puts the N main bodies on a circle of radius a traversed
with frequency 3 and the three other bodies on a circle of radius b with
frequency -N, phases fixed to zero at t = 0. Both frequencies are admissible
whenever 3 = d (mod r) and -N = d (mod r); equally spaced initial positions
then follow from the chain shifts because gcd(3, N) = gcd(N, 3) = 1.

A certificate compares the action of such a loop against the collision-set
threshold: action strictly below the threshold proves the action minimizer
over the symmetric class is collision-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import total_action
from .bounds import ThresholdReport, collision_threshold
from .loops import (
    GeneratorSpectrum,
    SystemLoop,
    min_separation,
    sample,
    winding_table,
)
from .symmetry import ROLE_MAIN, ROLE_TRIPLE, SymmetryParams, frequency_allowed


def build_test_orbit(params: SymmetryParams, a: float, b: float) -> SystemLoop:
    """Circular loop: main radius a at frequency 3, triple radius b at -N."""
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
        raise ValueError("radii must be positive and finite")
    n = params.n_main
    for role, m in ((ROLE_MAIN, 3), (ROLE_TRIPLE, -n)):
        if not frequency_allowed(params, role, m):
            raise ValueError(
                f"test-orbit frequency {m} not admissible for role {role!r} "
                f"(requires {m} = d (mod r))"
            )
    main = GeneratorSpectrum(ROLE_MAIN, (3,), np.array([a + 0.0j]))
    triple = GeneratorSpectrum(ROLE_TRIPLE, (-n,), np.array([b + 0.0j]))
    return SystemLoop(params, main, triple)


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
        p = self.params
        return {
            "params": {"n": p.n_main, "r": p.r, "d": p.d, "k1": p.k1, "k2": p.k2},
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
    """
    if m_samples is None:
        m_samples = params.default_grid()
    system = build_test_orbit(params, a, b)
    breakdown = total_action(system, m_samples)
    report = collision_threshold(params)
    traj = sample(system, m_samples)
    windings = winding_table(traj)
    windings_ok = all(w == params.k1 for _, _, w in windings["main"]) and all(
        w == params.k2 for _, _, w in windings["triple"]
    )
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
        min_separation=min_separation(traj).distance,
        certified=bool(margin > 0 and windings_ok),
        threshold_report=report,
    )


def restricted_action(
    params: SymmetryParams, a: float, b: float, m_samples: int | None = None
) -> float:
    """Action of the circular test family as a function of the two radii."""
    if m_samples is None:
        m_samples = params.default_grid()
    return total_action(build_test_orbit(params, a, b), m_samples).total


@dataclass(frozen=True)
class StencilReport:
    """5x5 grid of the restricted action around a center point (a, b)."""

    a: float
    b: float
    delta: float
    values: np.ndarray         # (5, 5), rows vary a, columns vary b
    center_is_min: bool
    argmin_offset: tuple[int, int]  # grid steps from center, (da, db)


def restricted_action_stencil(
    params: SymmetryParams,
    a: float,
    b: float,
    delta: float = 1e-3,
    m_samples: int | None = None,
) -> StencilReport:
    """Probe whether (a, b) minimizes the circular family at grid resolution delta."""
    offsets = (-2, -1, 0, 1, 2)
    values = np.empty((5, 5))
    for ia, da in enumerate(offsets):
        for ib, db in enumerate(offsets):
            values[ia, ib] = restricted_action(
                params, a + da * delta, b + db * delta, m_samples
            )
    flat = int(np.argmin(values))
    ia, ib = divmod(flat, 5)
    return StencilReport(
        a=a,
        b=b,
        delta=delta,
        values=values,
        center_is_min=(ia, ib) == (2, 2),
        argmin_offset=(offsets[ia], offsets[ib]),
    )
