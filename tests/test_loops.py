import json

import numpy as np
import pytest

from choreocert import loops
from choreocert.action import ActionWorkspace
from choreocert.loops import (
    GeneratorSpectrum,
    SystemLoop,
    Trajectory,
    com_drift,
    evaluate,
    group_action_residual,
    max_symmetry_residual,
    min_separation,
    sample,
    system_from_dict,
    system_to_dict,
    trajectory_to_csv,
    winding_number,
    winding_table,
)
from choreocert.symmetry import SymmetryParams
from choreocert.testorbits import build_test_orbit

from conftest import (
    REFERENCE_CASES,
    all_pairs_winding_table,
    direct_trajectory,
    random_admissible_system,
    reference_trajectory_csv,
)

PARAMS4 = SymmetryParams(4, 7, 3, 3, -4)
PARAMS7 = SymmetryParams(7, 10, 3, 3, -7)
# The reference families, an r = 2 family and N = 8: systems for the
# index-shift and representative-pair oracles.
SHIFT_FAMILIES = [case["params"] for case in REFERENCE_CASES] + [
    SymmetryParams(5, 2, 3, 3, -5),
    SymmetryParams(8, 11, 3, 3, -8),
]


@pytest.fixture(scope="module")
def orbit4():
    return build_test_orbit(PARAMS4, 0.23, 0.088)


class TestEvaluate:
    def test_body_one_at_zero(self, orbit4):
        assert np.allclose(evaluate(orbit4, 1, 0.0), (0.23, 0.0), atol=1e-15)

    def test_body_five_at_zero(self, orbit4):
        assert np.allclose(evaluate(orbit4, 5, 0.0), (0.088, 0.0), atol=1e-15)

    def test_periodicity(self, orbit4):
        ts = np.linspace(0.0, 1.0, 17)
        for body in (1, 3, 5, 7):
            drift = np.abs(evaluate(orbit4, body, ts) - evaluate(orbit4, body, ts + 1.0))
            assert drift.max() <= 1e-12

    def test_body_index_range(self, orbit4):
        with pytest.raises(IndexError):
            evaluate(orbit4, 8, 0.0)
        with pytest.raises(IndexError):
            evaluate(orbit4, 0, 0.0)

    def test_shift_rule(self, orbit4):
        # body i+1 leads body i by 1/N on the main chain, 1/3 on the triple chain
        ts = np.linspace(0.0, 1.0, 11)
        assert np.allclose(evaluate(orbit4, 2, ts), evaluate(orbit4, 1, ts + 0.25))
        assert np.allclose(evaluate(orbit4, 6, ts), evaluate(orbit4, 5, ts + 1 / 3))


class TestSample:
    def test_circular_speed(self, orbit4):
        traj = sample(orbit4, 1344)
        speed_main = np.sqrt((traj.velocities[0] ** 2).sum(axis=1))
        speed_tri = np.sqrt((traj.velocities[4] ** 2).sum(axis=1))
        assert np.abs(speed_main - 2 * np.pi * 3 * 0.23).max() <= 1e-12
        assert np.abs(speed_tri - 2 * np.pi * 4 * 0.088).max() <= 1e-12

    def test_grid_refinement_consistency(self, orbit4):
        coarse = sample(orbit4, 1344)
        fine = sample(orbit4, 2688)
        assert np.abs(coarse.positions - fine.positions[:, ::2]).max() <= 1e-12

    def test_invalid_grid_rejected(self, orbit4):
        with pytest.raises(ValueError, match="invalid grid"):
            sample(orbit4, 1000)

    def test_evaluate_matches_samples_bitwise(self):
        # Bodies 1, 2, N+1 and N+2 are evaluate's own arrays, bit for bit. The
        # other bodies read their generator at shifted nodes, whose phases are
        # rounded differently from evaluate(body, t_k): they must agree with it
        # at every node to 1e-13 of the largest coordinate.
        for params in SHIFT_FAMILIES:
            n = params.n_main
            for cutoff in (24, 96):
                system = random_admissible_system(params, cutoff, seed=100 * n + cutoff)
                m_samples = params.default_grid()
                traj = sample(system, m_samples)
                ref = direct_trajectory(system, m_samples)
                for got, want in ((traj.positions, ref.positions),
                                  (traj.velocities, ref.velocities)):
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
                    for body in (1, 2, n + 1, n + 2):
                        assert np.array_equal(got[body - 1], want[body - 1])

    @pytest.mark.parametrize("params", [PARAMS7, SymmetryParams(20, 23, 3, 3, -20)],
                             ids=["N7", "N20"])
    def test_sample_evaluates_four_bodies(self, monkeypatch, params):
        calls = []
        real = loops.evaluate

        def counting(system, body, *args, **kwargs):
            calls.append(body)
            return real(system, body, *args, **kwargs)

        monkeypatch.setattr(loops, "evaluate", counting)
        sample(build_test_orbit(params, 0.25, 0.064), params.grid_unit)
        n = params.n_main
        assert sorted(calls) == [1, 2, n + 1, n + 2]

    @pytest.mark.parametrize("chain, generator", [(4, "g3"), (3, "g2")],
                             ids=["main", "triple"])
    def test_wrong_chain_shift_breaks_symmetry(self, monkeypatch, chain, generator):
        # a sampler that reads one chain's generator at reversed shifts must
        # fail the group action of that chain against the directly evaluated body
        system = random_admissible_system(PARAMS4, 30, seed=11)
        assert max_symmetry_residual(sample(system, 168)) <= 1e-10
        real = loops.chain_nodes

        def reversed_chain(length, m_samples):
            nodes = real(length, m_samples)
            return nodes[::-1] if length == chain else nodes

        monkeypatch.setattr(loops, "chain_nodes", reversed_chain)
        traj = sample(system, 168)
        assert group_action_residual(traj, generator) > 1e-10

    def test_evaluate_orders_match_single_orders_bitwise(self):
        system = random_admissible_system(PARAMS4, 30, seed=11)
        ts = np.linspace(0.0, 1.0, 97)
        for body in (1, 3, 5, 7):
            several = evaluate(system, body, ts, derivative=(2, 0, 1))
            assert len(several) == 3
            for order, values in zip((2, 0, 1), several):
                assert np.array_equal(values, evaluate(system, body, ts, derivative=order))

    def test_velocities_match_finite_differences(self):
        system = random_admissible_system(PARAMS4, 45, seed=5)
        errors = []
        for m_samples in (672, 1344):
            traj = sample(system, m_samples)
            h = 1.0 / m_samples
            fd = (np.roll(traj.positions, -1, axis=1) - np.roll(traj.positions, 1, axis=1)) / (
                2 * h
            )
            errors.append(np.abs(fd - traj.velocities).max())
        assert errors[0] > 3.0 * errors[1]  # roughly O(1/M^2) convergence
        assert errors[1] <= 1e-2


class TestWinding:
    def test_unit_circle(self):
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        assert winding_number(pts, (0.0, 0.0)) == 1

    def test_four_clockwise_turns(self):
        t = np.arange(256) / 256
        z = np.exp(-2j * np.pi * 4 * t)
        pts = np.stack([z.real, z.imag], axis=1)
        assert winding_number(pts, (0.0, 0.0)) == -4

    def test_reference_orbit_pair_windings(self, orbit4):
        traj = sample(orbit4, 1344)
        assert winding_number(traj.positions[0] - traj.positions[1], (0, 0)) == 3
        assert winding_number(traj.positions[4] - traj.positions[5], (0, 0)) == -4

    def test_cyclic_relabeling_invariance(self):
        t = np.arange(100) / 100
        z = np.exp(2j * np.pi * 2 * t) + 0.3 * np.exp(-2j * np.pi * t)
        pts = np.stack([z.real, z.imag], axis=1)
        w = winding_number(pts, (0.0, 0.0))
        for shift in (1, 17, 60):
            assert winding_number(np.roll(pts, shift, axis=0), (0.0, 0.0)) == w

    def test_rescaling_invariance(self):
        t = np.arange(128) / 128
        z = np.exp(2j * np.pi * 5 * t)
        pts = np.stack([z.real, z.imag], axis=1)
        for scale in (1e-6, 1.0, 1e6):
            assert winding_number(scale * pts, (0.0, 0.0)) == 5

    def test_base_point_on_curve_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="base point"):
            winding_number(pts, (0.0, 0.0))

    @pytest.mark.parametrize("params", SHIFT_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}")
    def test_table_matches_all_pairs_oracle(self, params):
        for cutoff in (24, 96):
            system = random_admissible_system(params, cutoff, seed=100 * params.n_main + cutoff)
            traj = direct_trajectory(system, params.default_grid())
            table = winding_table(traj)
            assert table == all_pairs_winding_table(traj)
            assert {w for _, _, w in table["main"]} == {params.k1}
            assert {w for _, _, w in table["triple"]} == {params.k2}

    def test_undersampled_rejected(self):
        t = np.arange(6) / 6
        z = np.exp(2j * np.pi * 3 * t)  # three turns on six samples: step exactly pi
        pts = np.stack([z.real, z.imag], axis=1)
        with pytest.raises(ValueError, match="undersampled"):
            winding_number(pts, (0.0, 0.0))


class TestMinSeparation:
    def test_reference_orbit_cross_pair(self, orbit4):
        # the closest approach is a cross pair at radial alignment: distance a - b
        traj = sample(orbit4, 10080)
        info = min_separation(traj)
        i, j = info.pair
        assert i <= 4 < j  # every same-curve pair stays strictly farther apart
        assert abs(info.distance - (0.23 - 0.088)) <= 2e-3


def _projected(system: SystemLoop) -> SystemLoop:
    """The system after ActionWorkspace.project on its own basis."""
    ws = ActionWorkspace.for_system(system, system.params.grid_unit)
    cm, ct = ws.project(system.main.coeffs, system.triple.coeffs)
    return SystemLoop(
        system.params,
        GeneratorSpectrum("main", system.main.freqs, cm),
        GeneratorSpectrum("triple", system.triple.freqs, ct),
    )


class TestComProjection:
    def test_uncoupled_system_unchanged(self, orbit4):
        projected = _projected(orbit4)
        assert projected.main.freqs == orbit4.main.freqs
        assert np.array_equal(projected.main.coeffs, orbit4.main.coeffs)
        assert np.array_equal(projected.triple.coeffs, orbit4.triple.coeffs)

    def test_coupled_frequency_projected(self):
        # m = 24 is divisible by 3N = 12 and admissible for both roles; the
        # projection acts on frequencies present in both bases
        system = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", (3, 24), np.array([0.23 + 0j, 0.05 + 0.02j])),
            GeneratorSpectrum("triple", (-4, 24), np.array([0.088 + 0j, 0j])),
        )
        projected = _projected(system)
        c = projected.main.coeffs[projected.main.freqs.index(24)]
        b = projected.triple.coeffs[projected.triple.freqs.index(24)]
        n = 4
        assert abs(n * c + 3 * b) <= 1e-15
        # com vanishes at every sample once projected
        t = np.linspace(0.0, 1.0, 100, endpoint=False)
        total = np.zeros((100, 2))
        for body in range(1, 8):
            total += evaluate(projected, body, t)
        assert np.abs(total).max() <= 1e-13

    def test_projection_solves_least_squares(self):
        system = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", (24,), np.array([0.1 + 0j])),
            GeneratorSpectrum("triple", (24,), np.array([0.0 + 0j])),
        )
        projected = _projected(system)
        n = 4
        expect_c = 0.1 * 9 / (n * n + 9)
        expect_b = -0.1 * 3 * n / (n * n + 9)
        assert abs(projected.main.coeffs[0] - expect_c) <= 1e-15
        assert abs(projected.triple.coeffs[0] - expect_b) <= 1e-15

    def test_idempotent_and_norm_nonincreasing(self):
        rng = np.random.default_rng(3)
        system = SystemLoop(
            PARAMS4,
            GeneratorSpectrum(
                "main", (3, 24), rng.normal(size=2) + 1j * rng.normal(size=2)
            ),
            GeneratorSpectrum(
                "triple", (-4, 24), rng.normal(size=2) + 1j * rng.normal(size=2)
            ),
        )
        once = _projected(system)
        twice = _projected(once)
        assert np.array_equal(once.main.coeffs, twice.main.coeffs)
        assert np.array_equal(once.triple.coeffs, twice.triple.coeffs)

        def norm(s):
            return np.sqrt(
                (np.abs(s.main.coeffs) ** 2).sum() + (np.abs(s.triple.coeffs) ** 2).sum()
            )

        assert norm(once) <= norm(system) + 1e-15


class TestGroupAction:
    @pytest.mark.parametrize("generator", ["g1", "g2", "g3"])
    def test_reference_orbit_fixed(self, orbit4, generator):
        traj = sample(orbit4, 1344)
        assert group_action_residual(traj, generator) <= 1e-10

    def test_random_admissible_systems_are_fixed(self):
        for case in REFERENCE_CASES:
            system = random_admissible_system(case["params"], 40, seed=11)
            traj = sample(system, 8 * case["params"].grid_unit)
            assert max_symmetry_residual(traj) <= 1e-10
            assert com_drift(traj) <= 1e-10

    def test_perturbed_trajectory_not_fixed(self, orbit4):
        traj = sample(orbit4, 1344)
        rng = np.random.default_rng(0)
        bad = Trajectory(
            traj.params,
            traj.m_samples,
            traj.times,
            traj.positions + 1e-3 * rng.normal(size=traj.positions.shape),
            traj.velocities,
        )
        assert max_symmetry_residual(bad) > 1e-4

    def test_invalid_generator_name(self, orbit4):
        traj = sample(orbit4, 1344)
        with pytest.raises(ValueError, match="generator"):
            group_action_residual(traj, "g4")


class TestSerialization:
    def test_json_round_trip(self, orbit4):
        system = random_admissible_system(PARAMS4, 45, seed=9)
        back = system_from_dict(json.loads(json.dumps(system_to_dict(system))))
        assert back.params == system.params
        assert back.main.freqs == system.main.freqs
        assert np.array_equal(back.main.coeffs, system.main.coeffs)
        assert np.array_equal(back.triple.coeffs, system.triple.coeffs)

    def test_trajectory_csv_format(self, orbit4):
        traj = sample(orbit4, 84)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,body,x,y,vx,vy"
        assert len(lines) == 1 + 84 * 7
        # row-major by time then body
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert lines[8].split(",")[1] == "1"  # second time block starts again at body 1
        # 17-significant-digit fields parse back exactly
        row = lines[42].split(",")
        k, b = 5, 6  # row 42 = 1 + 5*7 + 6 -> time index 5, body 7
        assert float(row[0]) == traj.times[k]
        assert float(row[2]) == traj.positions[b, k, 0]
        assert float(row[4]) == traj.velocities[b, k, 0]

    @pytest.mark.parametrize("case", range(3), ids=["N4", "N5", "N7"])
    def test_trajectory_csv_bytes_match_reference(self, case):
        ref = REFERENCE_CASES[case]
        orbit = build_test_orbit(ref["params"], ref["a"], ref["b"])
        traj = sample(orbit, 2 * ref["params"].grid_unit)
        assert trajectory_to_csv(traj) == reference_trajectory_csv(traj)

    def test_trajectory_csv_partial_last_block(self):
        params = SymmetryParams(8, 11, 3, 3, -8)
        m_samples = 2 * params.grid_unit
        assert m_samples > loops._CSV_BLOCK_NODES
        assert m_samples % loops._CSV_BLOCK_NODES != 0
        traj = sample(random_admissible_system(params, 30, seed=3), m_samples)
        assert trajectory_to_csv(traj) == reference_trajectory_csv(traj)

    def test_trajectory_csv_special_values(self):
        special = np.array([-0.0, 0.0, 5e-324, 2.0e-310, 1e300, -1e300, np.inf, np.nan])
        positions = np.stack([special.reshape(4, 2), -special[::-1].reshape(4, 2)])
        traj = Trajectory(PARAMS4, 4, np.array([0.0, -0.0, 5e-324, 1e300]),
                          positions, positions[::-1] * 3.0)
        text = trajectory_to_csv(traj)
        assert text == reference_trajectory_csv(traj)
        assert text.splitlines()[1] == "0,1,-0,0,nan,-inf"
        fields = set(text.replace("\n", ",").split(","))
        assert {"-0", "0", "4.9406564584124654e-324", "1.0000000000000001e+300", "inf"} <= fields

    @pytest.mark.parametrize("coeffs", [[1, 2, 3], [1]], ids=["long", "short"])
    def test_spectrum_length_checked_before_sorting(self, coeffs):
        with pytest.raises(ValueError, match="coeffs must align with freqs"):
            GeneratorSpectrum("main", (6, 3), coeffs)
        spec = GeneratorSpectrum("main", (6, 3), [1, 2])
        assert spec.freqs == (3, 6) and spec.coeffs.tolist() == [2, 1]

    def test_spectrum_sorted_and_validated(self):
        spec = GeneratorSpectrum("main", (24, 3), np.array([1j, 2 + 0j]))
        assert spec.freqs == (3, 24)
        assert spec.coeffs[0] == 2 + 0j
        with pytest.raises(ValueError, match="duplicate"):
            GeneratorSpectrum("main", (3, 3), np.array([1j, 1j]))
        with pytest.raises(ValueError, match="not admissible"):
            SystemLoop(
                PARAMS4,
                GeneratorSpectrum("main", (4,), np.array([1 + 0j])),
                GeneratorSpectrum("triple", (-4,), np.array([1 + 0j])),
            )
