import numpy as np
import pytest

from choreocert.solver import (
    MinimizeOptions,
    acceleration_residual_rms,
    membership_check,
    minimize,
    ode_residual,
)
from choreocert.symmetry import SymmetryParams
from choreocert.testorbits import build_test_orbit, restricted_action

from conftest import half_turn_loop

PARAMS4 = SymmetryParams(4, 7, 3, 3, -4)


@pytest.fixture(scope="module")
def converged4():
    orbit = build_test_orbit(PARAMS4, 0.23, 0.088)
    return minimize(orbit, MinimizeOptions(cutoff=24, m_samples=1344))


class TestMinimize:
    def test_converges_below_start_and_threshold(self, converged4):
        res = converged4
        assert res.termination == "converged"
        assert res.gradient_norm <= 1e-8
        assert res.action <= 135.5123
        assert res.action < res.threshold
        assert res.min_separation.distance >= 1e-3
        assert res.windings_preserved
        assert res.certificate == "collision-free certified by threshold"

    def test_action_sequence_monotone(self, converged4):
        # strictly decreasing until the decrease hits the float64 resolution
        # of the action value; at that floor the recorded value may wobble by
        # a few hundred ulps while the gradient is polished down to gtol
        actions = [row.action for row in converged4.log]
        floor = 512 * np.finfo(float).eps * abs(actions[-1])
        assert all(b <= a + floor for a, b in zip(actions, actions[1:]))
        above = [a for a in actions if a - actions[-1] > floor]
        assert all(b < a for a, b in zip(above, above[1:]))
        assert len(above) >= 2

    def test_log_guards_hold_everywhere(self, converged4):
        for row in converged4.log:
            assert row.min_separation >= 1e-3

    def test_refeed_is_a_fixed_point(self, converged4):
        again = minimize(converged4.system, MinimizeOptions(cutoff=24, m_samples=1344))
        assert again.iterations <= 2
        assert abs(again.action - converged4.action) <= 1e-10

    def test_symmetry_and_com_preserved(self, converged4):
        assert converged4.symmetry_residual <= 1e-10
        assert converged4.com_drift <= 1e-10

    def test_deterministic_reruns(self):
        orbit = build_test_orbit(PARAMS4, 0.23, 0.088)
        a = minimize(orbit, MinimizeOptions(cutoff=24, m_samples=1344))
        b = minimize(orbit, MinimizeOptions(cutoff=24, m_samples=1344))
        assert a.action == b.action
        assert a.gradient_norm == b.gradient_norm
        assert np.array_equal(a.system.main.coeffs, b.system.main.coeffs)
        assert np.array_equal(a.system.triple.coeffs, b.system.triple.coeffs)
        assert a.to_dict() == b.to_dict()

    def test_restricted_cutoff_matches_grid_search(self):
        # cutoff 5 leaves only the two circular-family frequencies {3} and {-4}
        orbit = build_test_orbit(PARAMS4, 0.23, 0.088)
        res = minimize(orbit, MinimizeOptions(cutoff=5, m_samples=672))
        assert res.termination == "converged"
        assert sorted(res.system.main.freqs) == [3]
        assert sorted(res.system.triple.freqs) == [-4]

        # independent oracle: nested grid search over the two radii
        best = (np.inf, None)
        grid_a = np.arange(0.01, 0.5, 0.01)
        grid_b = np.arange(0.01, 0.5, 0.01)
        for a in grid_a:
            for b in grid_b:
                if abs(a - b) < 1e-6:
                    continue  # cross pairs collide when the radii coincide
                f = restricted_action(PARAMS4, a, b, 168)
                if f < best[0]:
                    best = (f, (a, b))
        (a0, b0) = best[1]
        for step in (1e-3, 1e-4, 1e-5):
            local = [
                (restricted_action(PARAMS4, a0 + i * step, b0 + j * step, 672), i, j)
                for i in range(-12, 13)
                for j in range(-12, 13)
            ]
            _, i, j = min(local)
            a0, b0 = a0 + i * step, b0 + j * step
        oracle = restricted_action(PARAMS4, a0, b0, 672)
        assert abs(res.action - oracle) <= 1e-4

    def test_separation_guard_at_start(self):
        # radii nearly equal: the cross-pair distance a-b starts below the guard
        orbit = build_test_orbit(PARAMS4, 0.1, 0.0995)
        with pytest.raises(ValueError, match="separation guard hit at start"):
            minimize(orbit, MinimizeOptions(cutoff=24, m_samples=672))

    def test_option_validation(self):
        with pytest.raises(ValueError):
            MinimizeOptions(cutoff=24, gtol=0.0)
        with pytest.raises(ValueError):
            MinimizeOptions(cutoff=24, eps_sep=1e-9)
        for bad in (
            {"max_iterations": -1}, {"memory": -1}, {"armijo": 0.0}, {"armijo": 1.0},
            {"cutoff": 0}, {"m_samples": 0}, {"m_samples": -672},
        ):
            with pytest.raises(ValueError):
                MinimizeOptions(**{"cutoff": 24, **bad})
        with pytest.raises(ValueError):
            minimize(
                build_test_orbit(PARAMS4, 0.23, 0.088),
                MinimizeOptions(cutoff=3, m_samples=672),
            )


class TestOdeResidual:
    def test_equilateral_ring_oracle(self):
        # three unit masses on a unit circle rotating at w = 3^(-1/4):
        # w^2 R^3 = 1/sqrt(3) balances gravity exactly
        omega = 3.0 ** (-0.25)
        M = 720
        theta = omega * (np.arange(M) / M) * (2 * np.pi / omega)
        pos = np.zeros((3, M, 2))
        acc = np.zeros((3, M, 2))
        for j in range(3):
            ph = theta + 2 * np.pi * j / 3
            pos[j, :, 0], pos[j, :, 1] = np.cos(ph), np.sin(ph)
            acc[j] = -(omega**2) * pos[j]
        assert acceleration_residual_rms(pos, acc) <= 1e-10

    def test_wrong_rotation_rate_fails_oracle(self):
        omega = 0.9 * 3.0 ** (-0.25)
        M = 240
        theta = 2 * np.pi * np.arange(M) / M
        pos = np.zeros((3, M, 2))
        acc = np.zeros((3, M, 2))
        for j in range(3):
            ph = theta + 2 * np.pi * j / 3
            pos[j, :, 0], pos[j, :, 1] = np.cos(ph), np.sin(ph)
            acc[j] = -(omega**2) * pos[j]
        assert acceleration_residual_rms(pos, acc) > 1e-2

    def test_reference_orbit_is_not_a_solution(self):
        orbit = build_test_orbit(PARAMS4, 0.23, 0.088)
        assert ode_residual(orbit, 1344) > 0.1

    def test_converged_minimizer_near_solution(self):
        orbit = build_test_orbit(PARAMS4, 0.23, 0.088)
        res = minimize(orbit, MinimizeOptions(cutoff=96, m_samples=1344))
        assert res.termination == "converged"
        assert res.ode_residual <= 1e-3

    def test_residual_decreases_under_refinement(self):
        orbit = build_test_orbit(PARAMS4, 0.23, 0.088)
        residuals = []
        for cutoff, m in ((24, 1344), (48, 2688), (96, 5376)):
            res = minimize(orbit, MinimizeOptions(cutoff=cutoff, m_samples=m))
            residuals.append(res.ode_residual)
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] <= 1e-3


class TestMembership:
    def test_reference_orbit_tables(self):
        report = membership_check(build_test_orbit(PARAMS4, 0.23, 0.088), 1344)
        assert [w for _, _, w in report.windings["main"]] == [3] * 6
        assert [w for _, _, w in report.windings["triple"]] == [-4] * 3
        assert not report.winding_errors
        assert report.symmetry_residual <= 1e-10
        assert report.com_drift <= 1e-10
        assert abs(report.min_separation.distance - 0.142) <= 2e-3

    def test_converged_n5_windings_preserved(self):
        params = SymmetryParams(5, 8, 3, 3, -5)
        orbit = build_test_orbit(params, 0.245, 0.076)
        res = minimize(orbit, MinimizeOptions(cutoff=24))
        assert res.termination == "converged"
        report = membership_check(res.system)
        assert {w for _, _, w in report.windings["main"]} == {3}
        assert {w for _, _, w in report.windings["triple"]} == {-5}

    def test_default_grid_used(self):
        report = membership_check(build_test_orbit(PARAMS4, 0.23, 0.088))
        assert report.min_separation.distance > 0.1

    def test_unwindable_representatives_reported(self):
        # both main offsets of the N=5 half-turn loop fail to wind: every main
        # pair is None, with one note per representative; the triple chain winds
        report = membership_check(half_turn_loop(), 30)
        assert [w for _, _, w in report.windings["main"]] == [None] * 10
        assert [w for _, _, w in report.windings["triple"]] == [-5] * 3
        assert [note.split(":")[0] for note in report.winding_errors] == [
            "pair (1,2)", "pair (1,3)"]
        assert all("undersampled" in note for note in report.winding_errors)
