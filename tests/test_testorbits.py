import math

import numpy as np
import pytest

from choreocert.action import total_action
from choreocert.loops import evaluate, max_symmetry_residual, min_separation, sample
from choreocert.symmetry import SymmetryParams
from choreocert.testorbits import (
    build_test_orbit,
    certify,
    restricted_action,
    restricted_action_stencil,
)

from conftest import PUBLISHED_ACTIONS, REFERENCE_CASES, circular_kinetic

PARAMS4 = SymmetryParams(4, 7, 3, 3, -4)

# Minimizers of the circular two-radius family, found by derivative-free
# refinement of the sampled action (stable to 1e-6 under grid doubling).
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

    def test_positive_radii_required(self):
        with pytest.raises(ValueError, match="positive"):
            build_test_orbit(PARAMS4, 0.0, 0.1)

    @pytest.mark.parametrize("a, b", [(float("nan"), 0.1), (0.23, float("inf"))])
    def test_finite_radii_required(self, a, b):
        with pytest.raises(ValueError, match="radii must be positive and finite"):
            build_test_orbit(PARAMS4, a, b)


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
        # the reported separation and action are the full-pair, full-grid ones
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


class TestRestrictedFamily:
    def test_family_optimum_is_stencil_minimum(self, reference_case):
        p = reference_case["params"]
        a_opt, b_opt, f_opt = FAMILY_OPTIMUM[p.n_main]
        stencil = restricted_action_stencil(p, a_opt, b_opt, delta=1e-3)
        assert stencil.center_is_min
        assert abs(stencil.values[2, 2] - f_opt) <= 1e-4

    def test_published_radii_are_near_but_not_at_the_optimum(self, reference_case):
        # at 1e-3 resolution the stencil walks off the published radii toward
        # the family optimum, so the center is not the grid minimum
        p = reference_case["params"]
        stencil = restricted_action_stencil(
            p, reference_case["a"], reference_case["b"], delta=1e-3
        )
        assert not stencil.center_is_min
        a_opt, b_opt, f_opt = FAMILY_OPTIMUM[p.n_main]
        assert stencil.values.min() >= f_opt - 1e-6
        assert stencil.values[2, 2] - f_opt <= 0.31

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

    def test_restricted_action_smooth(self):
        # second differences converge to a curvature: f''(a) estimates at two
        # step sizes agree, so the sampled family has no kinks
        def curvature(h):
            f = [restricted_action(PARAMS4, 0.23 + k * h, 0.088, 336) for k in (-1, 0, 1)]
            return (f[0] - 2 * f[1] + f[2]) / h**2

        c1, c2 = curvature(1e-3), curvature(5e-4)
        assert abs(c1 - c2) <= 0.05 * abs(c1)
