import math

import numpy as np
import pytest

from choreocert.action import ActionWorkspace, total_action
from choreocert.loops import evaluate, max_symmetry_residual, min_separation, sample
from choreocert.symmetry import SymmetryParams, compatibility_check
from choreocert.testorbits import build_test_orbit, certify, circular_action

from conftest import PUBLISHED_ACTIONS, REFERENCE_CASES, circular_kinetic

PARAMS4 = SymmetryParams(4, 7, 3, 3, -4)

# Every class with N <= 20 that admits the circular test orbit: gcd(N, 3) = 1,
# r | N + 3 (so 3 = -N = d (mod r)), r >= 2 and 3 not dividing r.
CIRCULAR_CLASSES = [
    (n, r) for n in range(4, 21) if n % 3 for r in range(2, n + 4) if (n + 3) % r == 0 and r % 3
]

# Minimizers of the circular two-radius family, found by derivative-free
# refinement of the sampled action (stable to 1e-6 under grid doubling) and
# checked on the closed form by the stencil tests below.
FAMILY_OPTIMUM = {
    4: (0.230385, 0.088695, 135.512971),
    5: (0.235711, 0.078259, 175.256081),
    7: (0.248690, 0.064215, 266.627340),
}


class TestBuildTestOrbit:
    def test_body_radii_and_turns(self):
        orbit = build_test_orbit(PARAMS4, 0.23, 0.088)
        traj = sample(orbit, 1344)
        radii_main = np.sqrt((traj.positions[0] ** 2).sum(axis=1))
        radii_tri = np.sqrt((traj.positions[4] ** 2).sum(axis=1))
        assert np.abs(radii_main - 0.23).max() <= 1e-14
        assert np.abs(radii_tri - 0.088).max() <= 1e-14

    def test_initial_positions_equally_spaced(self, reference_case):
        p, a, b = reference_case["params"], reference_case["a"], reference_case["b"]
        orbit = build_test_orbit(p, a, b)
        n = p.n_main
        got = sorted(
            np.angle(complex(*evaluate(orbit, i, 0.0))) % (2 * np.pi) for i in range(1, n + 1)
        )
        want = sorted(2 * np.pi * k / n for k in range(n))
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12
        got_tri = sorted(
            np.angle(complex(*evaluate(orbit, i, 0.0))) % (2 * np.pi)
            for i in range(n + 1, n + 4)
        )
        want_tri = sorted(2 * np.pi * k / 3 for k in range(3))
        assert np.abs(np.array(got_tri) - np.array(want_tri)).max() <= 1e-12

    def test_symmetry_residual_tiny(self, reference_case):
        p = reference_case["params"]
        orbit = build_test_orbit(p, reference_case["a"], reference_case["b"])
        traj = sample(orbit, p.default_grid())
        assert max_symmetry_residual(traj) <= 1e-10

    def test_inadmissible_frequency_rejected(self):
        # (4, 7, d=5) is self-consistent (k1=12, k2=-16) but 3 != 5 (mod 7)
        params = SymmetryParams(4, 7, 5, 12, -16)
        with pytest.raises(ValueError, match="not admissible"):
            build_test_orbit(params, 0.23, 0.088)

    def test_inadmissible_frequency_names_the_congruences(self):
        # refused by SystemLoop, the one admissibility check of every loop
        with pytest.raises(ValueError, match=r"frequency 3 not admissible for role 'main' .*: "
                           r"requires m = 0 \(mod 3\) and m = 5 \(mod 7\)"):
            build_test_orbit(SymmetryParams(4, 7, 5, 12, -16), 0.23, 0.088)
        # r = 5: the main frequency 3 = d passes, the triple one -4 = 1 (mod 5) is named
        with pytest.raises(ValueError, match=r"frequency -4 not admissible for role 'triple' .*: "
                           r"requires m = 0 \(mod 4\) and m = 3 \(mod 5\)"):
            build_test_orbit(SymmetryParams(4, 5, 3, 3, 8), 0.23, 0.088)

    def test_positive_radii_required(self):
        with pytest.raises(ValueError, match="positive"):
            build_test_orbit(PARAMS4, 0.0, 0.1)

    @pytest.mark.parametrize("a, b", [(float("nan"), 0.1), (0.23, float("inf"))])
    def test_finite_radii_required(self, a, b):
        with pytest.raises(ValueError, match="radii must be positive and finite"):
            build_test_orbit(PARAMS4, a, b)

    @pytest.mark.parametrize("a, b", [(1e300, 0.088), (0.23, 1e200), (1e154, 1e154)])
    def test_overflowing_kinetic_action_refused(self, a, b):
        # finite radii whose kinetic action (N/2)(6 pi a)^2 + (3/2)(2 pi N b)^2
        # overflows float64 are refused, named, before any sampling
        with pytest.raises(ValueError, match="kinetic action overflows") as err:
            build_test_orbit(PARAMS4, a, b)
        assert f"radii a={a!r}, b={b!r}:" in str(err.value)
        with pytest.raises(ValueError, match="kinetic action overflows"):
            circular_action(PARAMS4, a, b)

    def test_overflowing_pair_forces_refused(self):
        # a finite kinetic action whose pair forces still overflow: every
        # pair distance stays below 2R = 2(a + b), and (2R)^3 must be finite
        with pytest.raises(ValueError, match=r"sum to R = 2e\+150: pair forces cube"):
            build_test_orbit(PARAMS4, 1e150, 1e150)
        assert build_test_orbit(PARAMS4, 1e102, 1e102).main.coeffs[0] == 1e102


class TestCertify:
    def test_reference_cases_certified(self, reference_case):
        p = reference_case["params"]
        report = certify(p, reference_case["a"], reference_case["b"])
        assert report.certified
        assert report.verdict == "certified"
        assert report.margin >= 1.0
        assert report.windings_ok
        assert report.action == pytest.approx(report.kinetic + report.potential)
        assert report.kinetic == pytest.approx(
            circular_kinetic(p, reference_case["a"], reference_case["b"])
        )

    def test_margins(self):
        # threshold minus action at the stated radii, exact arithmetic
        margins = {4: 3.446, 5: 5.503, 7: 7.506}
        for case, want in zip(
            (
                (SymmetryParams(4, 7, 3, 3, -4), 0.2300, 0.0880),
                (SymmetryParams(5, 8, 3, 3, -5), 0.2450, 0.0760),
                (SymmetryParams(7, 10, 3, 3, -7), 0.2500, 0.0640),
            ),
            margins.values(),
        ):
            report = certify(*case)
            assert abs(report.margin - want) <= 2e-3

    def test_bad_radii_not_certified(self):
        report = certify(PARAMS4, 0.5, 0.01)
        assert not report.certified
        assert report.margin < 0  # the verdict follows the sign, nothing else

    def test_reports_the_full_pair_scan(self):
        # the reported separation is loops.min_separation's (the representative
        # pairs on M/r nodes) and the action the full-pair, full-grid one
        report = certify(PARAMS4, 0.23, 0.088, 1344)
        traj = sample(build_test_orbit(PARAMS4, 0.23, 0.088), 1344)
        assert report.min_separation == min_separation(traj).distance
        assert report.action == total_action(build_test_orbit(PARAMS4, 0.23, 0.088), 1344).total

    def test_near_collision_refused(self):
        # equal radii: body 1 meets body 5 at t = 0
        with pytest.raises(ValueError, match="near-collision sample: bodies 1 and 5 at node 0"):
            certify(PARAMS4, 0.1, 0.1, 168)

    def test_json_dict(self):
        doc = certify(PARAMS4, 0.23, 0.088).to_dict()
        for key in ("params", "a", "b", "action", "threshold", "margin", "verdict", "windings"):
            assert key in doc
        assert doc["verdict"] == "certified"


def family_stencil(params, a, b, delta=1e-3):
    """5x5 grid of the family action around (a, b); rows vary a, columns b."""
    steps = (-2, -1, 0, 1, 2)
    return np.array(
        [[circular_action(params, a + i * delta, b + j * delta) for j in steps] for i in steps]
    )


def center_is_min(values):
    return np.unravel_index(np.argmin(values), values.shape) == (2, 2)


class TestRestrictedFamily:
    def test_family_optimum_is_stencil_minimum(self, reference_case):
        p = reference_case["params"]
        a_opt, b_opt, f_opt = FAMILY_OPTIMUM[p.n_main]
        values = family_stencil(p, a_opt, b_opt)
        assert center_is_min(values)
        assert abs(values[2, 2] - f_opt) <= 1e-4

    def test_published_radii_are_near_but_not_at_the_optimum(self, reference_case):
        # at 1e-3 resolution the stencil walks off the published radii toward
        # the family optimum, so the center is not the grid minimum
        p = reference_case["params"]
        values = family_stencil(p, reference_case["a"], reference_case["b"])
        assert not center_is_min(values)
        a_opt, b_opt, f_opt = FAMILY_OPTIMUM[p.n_main]
        assert values.min() >= f_opt - 1e-6
        assert values[2, 2] - f_opt <= 0.31

    def test_published_n5_action_is_no_circular_orbit(self):
        # the published N=5 action lies below the family minimum, and with
        # pi = 3.1415 the family minimum drops by at most the kinetic
        # factor kappa, since kappa*K + V >= kappa*(K + V) for V > 0
        published = PUBLISHED_ACTIONS[5]
        kappa = (3.1415 / math.pi) ** 2
        assert published < kappa * FAMILY_OPTIMUM[5][2]
        # nor is it the action at the quoted radii under pi = 3.1415
        case = REFERENCE_CASES[1]
        p = case["params"]
        breakdown = total_action(build_test_orbit(p, case["a"], case["b"]), p.default_grid())
        paper_convention = kappa * breakdown.kinetic + breakdown.potential
        assert paper_convention - published > 0.25

    def test_sampled_family_action_smooth(self):
        # second differences converge to a curvature: f''(a) estimates at two
        # step sizes agree, so the sampled family has no kinks
        def curvature(h):
            f = [
                total_action(build_test_orbit(PARAMS4, 0.23 + k * h, 0.088), 336).total
                for k in (-1, 0, 1)
            ]
            return (f[0] - 2 * f[1] + f[2]) / h**2

        c1, c2 = curvature(1e-3), curvature(5e-4)
        assert abs(c1 - c2) <= 0.05 * abs(c1)


class TestCircularAction:
    def test_circular_classes_listed(self):
        assert len(CIRCULAR_CLASSES) == 27
        for n, r in CIRCULAR_CLASSES:
            assert compatibility_check(SymmetryParams(n, r, 3, 3, -n))

    @pytest.mark.parametrize("n, r", CIRCULAR_CLASSES)
    def test_matches_sampled_action_and_separation(self, n, r):
        # On the default grid the sampled family action agrees with the closed
        # form to rounding. The radii stay apart: the grid does not resolve a
        # near-collision of the cross pair.
        params = SymmetryParams(n, r, 3, 3, -n)
        rng = np.random.default_rng(1900 + 100 * n + r)
        m_samples = params.default_grid()
        for a, b in zip(rng.uniform(0.15, 0.4, 8), rng.uniform(0.02, 0.1, 8)):
            a, b = float(a), float(b)
            exact = circular_action(params, a, b)
            # certify reports total_action's full-pair total on the default grid
            report = certify(params, a, b)
            assert report.action == pytest.approx(exact, rel=1e-13)
            orbit = build_test_orbit(params, a, b)
            ws = ActionWorkspace.for_system(orbit, m_samples)
            assert ws.value(*ws.coefficients_of(orbit)) == pytest.approx(exact, rel=1e-13)
            closest = min(2 * a * math.sin(math.pi / n), math.sqrt(3) * b, abs(a - b))
            assert report.min_separation == pytest.approx(closest, rel=1e-12)

    def test_equal_radii_refused(self):
        with pytest.raises(ValueError, match="equal radii"):
            circular_action(PARAMS4, 0.1, 0.1)

    def test_chain_collision_refused(self):
        # 3 | N: the test-orbit frequencies are admissible for (6, 9, 3), yet
        # bodies 1 and 3 coincide, as do the three triple bodies
        with pytest.raises(ValueError, match="3 divides N = 6"):
            circular_action(SymmetryParams(6, 9, 3, 3, -6), 0.23, 0.088)

    @pytest.mark.parametrize(
        "params, a, b, message",
        [
            (PARAMS4, 0.0, 0.1, "positive"),
            (PARAMS4, float("nan"), 0.1, "positive and finite"),
            (SymmetryParams(4, 7, 5, 12, -16), 0.23, 0.088, "not admissible"),
        ],
    )
    def test_refuses_what_build_test_orbit_refuses(self, params, a, b, message):
        with pytest.raises(ValueError, match=message):
            circular_action(params, a, b)
