import dataclasses

import numpy as np
import pytest

from choreocert import action
from choreocert.loops import (
    com_drift,
    evaluate,
    max_symmetry_residual,
    min_separation,
    sample,
    winding_table,
)
from choreocert.solver import (
    MinimizeOptions,
    acceleration_residual_rms,
    minimize,
    ode_residual,
)
from choreocert.symmetry import SymmetryParams
from choreocert.testorbits import build_test_orbit, circular_action

from conftest import REFERENCE_CASES, direct_phase_table, random_admissible_system

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

        # independent oracle: nested grid search over the two radii of the
        # family's closed-form action
        best = (np.inf, None)
        grid_a = np.arange(0.01, 0.5, 0.01)
        grid_b = np.arange(0.01, 0.5, 0.01)
        for a in grid_a:
            for b in grid_b:
                if abs(a - b) < 1e-6:
                    continue  # cross pairs collide when the radii coincide
                f = circular_action(PARAMS4, a, b)
                if f < best[0]:
                    best = (f, (a, b))
        (a0, b0) = best[1]
        for step in (1e-3, 1e-4, 1e-5):
            local = [
                (circular_action(PARAMS4, a0 + i * step, b0 + j * step), i, j)
                for i in range(-12, 13)
                for j in range(-12, 13)
            ]
            _, i, j = min(local)
            a0, b0 = a0 + i * step, b0 + j * step
        oracle = circular_action(PARAMS4, a0, b0)
        assert abs(res.action - oracle) <= 1e-4

    def test_windings_outside_the_class_not_certified(self):
        # (4, 7, k2=24) is admissible and has the thresholds of k2=-4, but the
        # test orbit's triple pairs wind -4 times, so no certificate
        params = SymmetryParams(4, 7, 3, 3, 24)
        res = minimize(build_test_orbit(params, 0.23, 0.088), MinimizeOptions(cutoff=24))
        assert res.termination == "converged"
        assert res.action < res.threshold
        assert {w for _, _, w in res.windings["triple"]} == {-4}
        assert res.certificate is None

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
            {"max_iterations": -1}, {"cutoff": 0}, {"m_samples": 0}, {"m_samples": -672},
            {"gtol": float("inf")}, {"gtol": float("nan")},
            {"eps_sep": float("inf")}, {"eps_sep": float("nan")},
        ):
            with pytest.raises(ValueError):
                MinimizeOptions(**{"cutoff": 24, **bad})
        with pytest.raises(ValueError):
            minimize(
                build_test_orbit(PARAMS4, 0.23, 0.088),
                MinimizeOptions(cutoff=3, m_samples=672),
            )

    def test_phase_tables_from_direct_exponentials_change_nothing(self, converged4,
                                                                     monkeypatch):
        monkeypatch.setattr(action, "_phase_table", direct_phase_table)
        orbit = build_test_orbit(PARAMS4, 0.23, 0.088)
        res = minimize(orbit, MinimizeOptions(cutoff=24, m_samples=1344))
        assert res.log_csv() == converged4.log_csv()
        assert res.action == converged4.action

    def test_result_records_every_option(self, converged4):
        recorded = converged4.to_dict()["options"]
        assert set(recorded) == {f.name for f in dataclasses.fields(MinimizeOptions)}
        assert recorded == dataclasses.asdict(converged4.options)

    def test_no_iteration_costs_one_evaluation(self):
        options = MinimizeOptions(cutoff=24, m_samples=1344, max_iterations=0)
        res = minimize(build_test_orbit(PARAMS4, 0.23, 0.088), options)
        assert res.termination == "max_iterations"
        assert (res.iterations, res.evaluations, len(res.log)) == (0, 1, 1)

    def test_evaluations_count_the_start_and_every_guarded_probe(self, monkeypatch):
        # one action value per evaluation: the start's, and one per probe
        # that clears the separation guard, accepted or not
        calls = {"value": 0, "scan": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(action.ActionWorkspace, "value",
                            counted("value", action.ActionWorkspace.value))
        monkeypatch.setattr(action.ActionWorkspace, "min_separation",
                            counted("scan", action.ActionWorkspace.min_separation))
        system = build_test_orbit(PARAMS4, 0.23, 0.088)
        for cutoff, multiple in ((24, 1), (48, 2), (96, 4)):
            calls.update(value=0, scan=0)
            res = minimize(system, MinimizeOptions(cutoff=cutoff, m_samples=multiple * 1344))
            assert res.termination == "converged"
            assert res.iterations + 1 <= res.evaluations
            assert res.evaluations == calls["value"]
            assert res.evaluations <= calls["scan"]  # the start's scan and every probe's
            system = res.system


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

    @pytest.mark.parametrize("params", [case["params"] for case in REFERENCE_CASES]
                             + [SymmetryParams(5, 2, 3, 3, -5)],
                             ids=["N4", "N5", "N7", "N5r2"])
    def test_matches_every_body_on_every_node(self, params):
        system = random_admissible_system(params, 40, seed=params.n_main + params.r)
        m_samples = params.default_grid()
        times = np.arange(m_samples) / m_samples
        pos, acc = zip(*(evaluate(system, body, times, derivative=(0, 2))
                         for body in range(1, params.n_bodies + 1)))
        want = acceleration_residual_rms(np.stack(pos), np.stack(acc))
        assert abs(ode_residual(system, m_samples) - want) <= 1e-12 * want

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
        traj = sample(build_test_orbit(PARAMS4, 0.23, 0.088), 1344)
        windings = winding_table(traj)
        assert [w for _, _, w in windings["main"]] == [3] * 6
        assert [w for _, _, w in windings["triple"]] == [-4] * 3
        assert max_symmetry_residual(traj) <= 1e-10
        assert com_drift(traj) <= 1e-10
        assert abs(min_separation(traj).distance - 0.142) <= 2e-3

    def test_converged_n5_windings_preserved(self):
        params = SymmetryParams(5, 8, 3, 3, -5)
        orbit = build_test_orbit(params, 0.245, 0.076)
        res = minimize(orbit, MinimizeOptions(cutoff=24))
        assert res.termination == "converged"
        assert {w for _, _, w in res.windings["main"]} == {3}
        assert {w for _, _, w in res.windings["triple"]} == {-5}
