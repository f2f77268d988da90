import re

import numpy as np
import pytest

from choreocert.action import (
    ActionWorkspace,
    kinetic_action,
    total_action,
)
from choreocert import kernels
from choreocert.loops import (
    GeneratorSpectrum,
    SystemLoop,
    roots_of_unity,
    sample,
    winding_table,
)
from choreocert.symmetry import SymmetryParams, pair_kinds
from choreocert.testorbits import build_test_orbit

from conftest import (
    REFERENCE_CASES,
    all_pairs_min_separation,
    all_pairs_winding_table,
    brute_potential,
    circular_kinetic,
    direct_phase_table,
    direct_trajectory,
    full_grid_evaluation,
    half_turn_loop,
    offset_loop,
    random_admissible_system,
)

PARAMS4 = SymmetryParams(4, 7, 3, 3, -4)

# Frozen circular-family actions at M = 16 lcm(3, N, r); the quadrature is
# spectrally converged there (grid doubling moves them by < 1e-8).
EXPECTED_ACTION = {4: 135.514969, 5: 175.531485, 7: 266.634481}


class TestKinetic:
    def test_matches_circular_speed_oracle(self, reference_case):
        p, a, b = reference_case["params"], reference_case["a"], reference_case["b"]
        system = build_test_orbit(p, a, b)
        assert abs(kinetic_action(system) - circular_kinetic(p, a, b)) <= 1e-10

    def test_zero_spectrum(self):
        system = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", (3,), np.array([0.0 + 0.0j])),
            GeneratorSpectrum("triple", (-4,), np.array([0.0 + 0.0j])),
        )
        assert kinetic_action(system) == 0.0

    def test_degree_two_homogeneity(self):
        system = random_admissible_system(PARAMS4, 45, seed=1)
        doubled = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", system.main.freqs, 2.0 * system.main.coeffs),
            GeneratorSpectrum("triple", system.triple.freqs, 2.0 * system.triple.coeffs),
        )
        assert abs(kinetic_action(doubled) - 4.0 * kinetic_action(system)) <= 1e-9


class TestPotential:
    def test_grid_refinement_agreement(self):
        system = build_test_orbit(PARAMS4, 0.23, 0.088)
        fine, finer = total_action(system, 1344), total_action(system, 2688)
        assert abs(fine.potential - finer.potential) <= 1e-8

    def test_matches_independent_evaluation(self, reference_case):
        p = reference_case["params"]
        system = build_test_orbit(p, reference_case["a"], reference_case["b"])
        m = 4 * p.grid_unit
        assert abs(total_action(system, m).potential - brute_potential(system, m)) <= 1e-9

    def test_collision_guard(self):
        system = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", (3,), np.array([0.0 + 0.0j])),  # all four at origin
            GeneratorSpectrum("triple", (-4,), np.array([0.088 + 0.0j])),
        )
        with pytest.raises(ValueError, match="near-collision sample"):
            total_action(system, 84)


class TestTotalAction:
    def test_reference_orbit_values(self, reference_case):
        p = reference_case["params"]
        system = build_test_orbit(p, reference_case["a"], reference_case["b"])
        breakdown = total_action(system, p.default_grid())
        assert abs(breakdown.total - EXPECTED_ACTION[p.n_main]) <= 1e-5
        assert breakdown.total == pytest.approx(breakdown.kinetic + breakdown.potential)
        assert breakdown.kinetic == pytest.approx(
            circular_kinetic(p, reference_case["a"], reference_case["b"])
        )

    def test_pair_table_complete(self):
        system = build_test_orbit(PARAMS4, 0.23, 0.088)
        breakdown = total_action(system, 1344)
        assert len(breakdown.pairs) == 21
        assert breakdown.pairs[0][0] == (1, 2)
        assert all(value > 0 for _, value in breakdown.pairs)

    def test_given_trajectory_is_used(self):
        system = random_admissible_system(PARAMS4, 40, seed=24)
        traj = sample(system, 1344)
        assert total_action(system, 1344, traj) == total_action(system, 1344)
        with pytest.raises(ValueError, match="trajectory has M=1344"):
            total_action(system, 672, traj)

    def test_lagrangian_identity_on_random_systems(self):
        for seed, case in zip((21, 22, 23), REFERENCE_CASES):
            p = case["params"]
            system = random_admissible_system(p, 40, seed=seed)
            breakdown = total_action(system, 8 * p.grid_unit)
            assert abs(breakdown.total - breakdown.pairwise_total) <= 1e-6

    def test_identity_needs_zero_center_of_mass(self):
        # un-projected coupled coefficients break the pairwise identity
        system = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", (3, 24), np.array([0.23 + 0j, 0.06 + 0j])),
            GeneratorSpectrum("triple", (-4,), np.array([0.088 + 0j])),
        )
        breakdown = total_action(system, 1344)
        assert abs(breakdown.total - breakdown.pairwise_total) > 1e-3

    def test_json_dict_shape(self):
        system = build_test_orbit(PARAMS4, 0.23, 0.088)
        doc = total_action(system, 1344).to_dict()
        assert set(doc) == {"kinetic", "potential", "total", "pairs"}
        assert doc["pairs"][0][:2] == [1, 2]


class TestInvariance:
    def test_global_rotation(self):
        system = random_admissible_system(PARAMS4, 45, seed=2)
        phase = np.exp(1j * 0.7343)
        rotated = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", system.main.freqs, phase * system.main.coeffs),
            GeneratorSpectrum("triple", system.triple.freqs, phase * system.triple.coeffs),
        )
        f0 = total_action(system, 672)
        f1 = total_action(rotated, 672)
        assert abs(f0.total - f1.total) <= 1e-10
        assert abs(f0.kinetic - f1.kinetic) <= 1e-10

    def test_time_shift(self):
        system = random_admissible_system(PARAMS4, 45, seed=4)
        tau = 0.3117
        shifted = SystemLoop(
            PARAMS4,
            GeneratorSpectrum(
                "main",
                system.main.freqs,
                system.main.coeffs
                * np.exp(2j * np.pi * np.array(system.main.freqs) * tau),
            ),
            GeneratorSpectrum(
                "triple",
                system.triple.freqs,
                system.triple.coeffs
                * np.exp(2j * np.pi * np.array(system.triple.freqs) * tau),
            ),
        )
        diff = total_action(system, 672).total - total_action(shifted, 672).total
        assert abs(diff) <= 1e-10


class TestGradient:
    def _finite_difference(self, ws, cm, ct, h=1e-6):
        x = np.concatenate([cm.view(float), ct.view(float)])
        k = 2 * len(cm)

        def value(vec):
            c = np.ascontiguousarray(vec[:k]).view(complex)
            t = np.ascontiguousarray(vec[k:]).view(complex)
            return ws.value(*ws.project(c, t))

        grad = np.empty_like(x)
        for idx in range(len(x)):
            plus, minus = x.copy(), x.copy()
            plus[idx] += h
            minus[idx] -= h
            grad[idx] = (value(plus) - value(minus)) / (2 * h)
        return grad

    def test_matches_finite_differences(self):
        for seed in (31, 32, 33):
            system = random_admissible_system(PARAMS4, 45, seed=seed)
            ws = ActionWorkspace.for_system(system, 4 * PARAMS4.grid_unit)
            cm, ct = ws.project(*ws.coefficients_of(system))
            _, gm, gt = ws.value_and_gradient(cm, ct)
            analytic = np.concatenate([gm.view(float), gt.view(float)])
            numeric = self._finite_difference(ws, cm, ct)
            err = np.abs(analytic - numeric)
            assert (err <= 1e-6 * np.maximum(1.0, np.abs(analytic))).all()

    def test_far_separated_system_is_kinetic_dominated(self):
        system = random_admissible_system(PARAMS4, 45, seed=6)
        scale = 1000.0
        big = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", system.main.freqs, scale * system.main.coeffs),
            GeneratorSpectrum("triple", system.triple.freqs, scale * system.triple.coeffs),
        )
        ws = ActionWorkspace.for_system(big, 672)
        cm, ct = ws.coefficients_of(big)
        _, gm, gt = ws.value_and_gradient(cm, ct)
        kin_m, kin_t = ws.project(ws.kinetic_weights_main * cm, ws.kinetic_weights_triple * ct)
        scale_ref = max(np.abs(kin_m).max(), np.abs(kin_t).max())
        rel = max(np.abs(gm - kin_m).max(), np.abs(gt - kin_t).max()) / scale_ref
        assert rel <= 1e-6

    def test_gradient_is_com_projected(self):
        system = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", (3, 24), np.array([0.23 + 0j, 0.01 + 0j])),
            GeneratorSpectrum("triple", (-4, 24), np.array([0.088 + 0j, 0.0 + 0j])),
        )
        ws = ActionWorkspace.for_system(system, 1344)
        _, gm, gt = ws.value_and_gradient(*ws.coefficients_of(system))
        c = gm[list(ws.main_freqs).index(24)]
        b = gt[list(ws.triple_freqs).index(24)]
        assert abs(4 * c + 3 * b) <= 1e-12 * max(1.0, abs(c))


# The reference families, N=5 with r=2 (half-grid domain), and two larger
# (N, N+3) families.
DOMAIN_FAMILIES = [case["params"] for case in REFERENCE_CASES] + [
    SymmetryParams(5, 2, 3, 3, -5),
    SymmetryParams(8, 11, 3, 3, -8),
    SymmetryParams(10, 13, 3, 3, -10),
]


class TestPhaseTables:
    @pytest.mark.parametrize("cutoff", [24, 96])
    def test_equal_direct_exponentials_bitwise(self, reference_case, cutoff):
        params = reference_case["params"]
        system = random_admissible_system(params, cutoff, seed=7 * params.n_main + cutoff)
        for m_samples in (params.grid_unit, params.default_grid()):
            ws = ActionWorkspace.for_system(system, m_samples)
            roots = roots_of_unity(m_samples)
            for table, freqs in ((ws._em, ws.main_freqs), (ws._et, ws.triple_freqs)):
                assert np.array_equal(table, direct_phase_table(freqs, roots, ws.m_domain))


class TestPlanarPositions:
    """positions is a float64 view of one complex array; the gradient reads
    conjugated tables built with the workspace. Both against the forms they
    replace, bit for bit."""

    @pytest.mark.parametrize("m_multiple", [1, 16])
    def test_positions_match_concatenated_stack(self, reference_case, m_multiple):
        params = reference_case["params"]
        orbit = build_test_orbit(params, reference_case["a"], reference_case["b"])
        for system in (orbit, random_admissible_system(params, 48, seed=9 * params.n_main)):
            ws = ActionWorkspace.for_system(system, m_multiple * params.grid_unit)
            cm, ct = ws.coefficients_of(system)
            z = np.concatenate([(cm * ws._main_phase) @ ws._em, (ct * ws._triple_phase) @ ws._et])
            want = np.stack([z.real, z.imag], axis=-1)
            got = ws.positions(cm, ct)
            assert got.shape == (len(ws.bodies), ws.m_domain, 2) and got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_gradient_matches_conjugating_per_call(self, reference_case):
        params = reference_case["params"]
        system = random_admissible_system(params, 48, seed=11 * params.n_main)
        ws = ActionWorkspace.for_system(system, params.default_grid())
        cm, ct = ws.coefficients_of(system)
        pos = ws.positions(cm, ct)
        forces = kernels.pair_forces(pos, ws._pairs, ws._weights)
        fz = forces[..., 0] + 1j * forces[..., 1]
        rows, md = ws._n_main_rows, ws.m_domain
        gm = ws.kinetic_weights_main * cm + (
            ((fz[:rows] @ ws._em.conj().T) * ws._main_phase.conj()).sum(axis=0) / md)
        gt = ws.kinetic_weights_triple * ct + (
            ((fz[rows:] @ ws._et.conj().T) * ws._triple_phase.conj()).sum(axis=0) / md)
        for got, want in zip(ws.gradient(cm, ct, pos), ws.project(gm, gt)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFundamentalDomain:
    """ActionWorkspace on M/r nodes against the full-grid reference in conftest."""

    @pytest.mark.parametrize("cutoff", [24, 48])
    @pytest.mark.parametrize(
        "params", DOMAIN_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}"
    )
    def test_matches_full_grid(self, params, cutoff):
        system = random_admissible_system(params, cutoff, seed=1000 * params.n_main + cutoff)
        m_samples = params.default_grid()
        ws = ActionWorkspace.for_system(system, m_samples)
        assert ws.positions(*ws.coefficients_of(system)).shape == (
            params.n_main // 2 + 3, m_samples // params.r, 2)
        cm, ct = ws.project(*ws.coefficients_of(system))
        value, gm, gt = ws.value_and_gradient(cm, ct)
        ref_value, ref_gm, ref_gt, ref_sep = full_grid_evaluation(ws, cm, ct)
        assert abs(value - ref_value) <= 1e-13 * abs(ref_value)
        assert ws.value(cm, ct) == value
        grad, ref_grad = np.concatenate([gm, gt]), np.concatenate([ref_gm, ref_gt])
        assert np.abs(grad - ref_grad).max() <= 1e-11 * max(1.0, np.abs(grad).max())
        sep = kernels.min_separation_scan(ws.positions(cm, ct))[0]
        assert abs(sep - ref_sep) <= 1e-13 * ref_sep
        table = all_pairs_winding_table(direct_trajectory(system, m_samples))
        assert ws.windings(ws.positions(cm, ct)) == table

    @pytest.mark.parametrize(
        "params", DOMAIN_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}"
    )
    def test_min_separation_names_a_representative(self, params):
        system = random_admissible_system(params, 48, seed=300 * params.n_main + params.r)
        m_samples = params.default_grid()
        ws = ActionWorkspace.for_system(system, m_samples)
        info = ws.min_separation(ws.positions(*ws.coefficients_of(system)))
        want = all_pairs_min_separation(direct_trajectory(system, m_samples))
        assert abs(info.distance - want) <= 1e-13 * want
        assert info.pair in {kind.pair for kind in pair_kinds(params)}
        assert 0 <= info.time_index < ws.m_domain

    def test_windings_differ_by_offset(self):
        # frequency -18 cancels in pair (1, 3) (offset 2) but dominates the
        # offset-1 pairs, so the expansion must place each offset's value
        system = offset_loop(-18)
        ws = ActionWorkspace.for_system(system, 1344)
        table = ws.windings(ws.positions(*ws.coefficients_of(system)))
        assert table == all_pairs_winding_table(direct_trajectory(system, 1344))
        assert {w for _, _, w in table["main"]} == {-18, 3}

    def test_domain_arc_agrees_on_undersampled_grids(self):
        # frequency -102 (offset-1 pairs) aliases below 672 nodes: both tables
        # then read the same wrong winding rather than raising
        system = offset_loop(-102)
        for m_samples in (84, 168, 252, 672):
            ws = ActionWorkspace.for_system(system, m_samples)
            cm, ct = ws.coefficients_of(system)
            table = ws.windings(ws.positions(cm, ct))
            assert table == all_pairs_winding_table(direct_trajectory(system, m_samples))
        assert {w for _, _, w in table["main"]} == {-102, 3}

    @pytest.mark.parametrize("m_samples", [30, 480])
    def test_half_turn_step_rejected(self, m_samples):
        # |c_3| = |c_-3| makes every main pair difference a segment through
        # the origin: crossing it between two nodes is a half-turn step
        system = half_turn_loop()
        ws = ActionWorkspace.for_system(system, m_samples)
        with pytest.raises(ValueError, match="undersampled"):
            all_pairs_winding_table(direct_trajectory(system, m_samples))
        with pytest.raises(ValueError, match="undersampled"):
            ws.windings(ws.positions(*ws.coefficients_of(system)))

    def test_winding_table_matches_all_pairs_oracle(self):
        # the loops above and an N=5 loop whose offsets 1 and 2 differ, sampled
        # body by body: the representatives' windings are every pair's,
        # aliased or not, and both tables refuse a half turn
        cases = [(offset_loop(-18), 1344), (offset_loop(-21, 5), 1920)]
        cases += [(offset_loop(-102), m) for m in (84, 168, 252, 672)]
        for system, m_samples in cases:
            traj = direct_trajectory(system, m_samples)
            assert winding_table(traj) == all_pairs_winding_table(traj)
        main = winding_table(direct_trajectory(offset_loop(-21, 5), 1920))["main"]
        assert [w for i, _, w in main if i == 1] == [3, -21, -21, 3]
        for m_samples in (30, 480):
            traj = direct_trajectory(half_turn_loop(), m_samples)
            for table in (winding_table, all_pairs_winding_table):
                with pytest.raises(ValueError, match="undersampled"):
                    table(traj)

    def test_near_collision_names_real_bodies(self):
        # equal radii: body 1 meets body N+1 = 5 at t = 0, a cross pair
        system = SystemLoop(
            PARAMS4,
            GeneratorSpectrum("main", (3,), np.array([0.1 + 0j])),
            GeneratorSpectrum("triple", (-4,), np.array([0.1 + 0j])),
        )
        ws = ActionWorkspace.for_system(system, 168)
        cm, ct = ws.coefficients_of(system)
        with pytest.raises(ValueError, match="near-collision sample") as err:
            ws.value(cm, ct)
        i, j = (int(b) for b in re.search(r"bodies (\d+) and (\d+)", str(err.value)).groups())
        assert 1 <= i <= 4 < j <= 7
        assert ws.min_separation(ws.positions(cm, ct)).pair == (i, j)


def _moved(body: int, n: int, c: int, e: int) -> int:
    """Body reached from ``body`` by c steps of g3 (main chain) and e of g2 (triple)."""
    if body <= n:
        return (body - 1 + c) % n + 1
    return n + (body - n - 1 + e) % 3 + 1


# Every admissible N from 4 to 20 with r = N + 3, and N = 5 with r = 2.
REPRESENTATIVE_FAMILIES = [
    SymmetryParams(n, n + 3, 3, 3, -n) for n in range(4, 21) if n % 3
] + [SymmetryParams(5, 2, 3, 3, -5)]


class TestRepresentativePairs:
    @pytest.mark.parametrize("params", DOMAIN_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}")
    def test_reduced_rows_are_their_bodies(self, params):
        system = random_admissible_system(params, 48, seed=params.n_main)
        m_samples = params.default_grid()
        ws = ActionWorkspace.for_system(system, m_samples)
        rows = ws.positions(*ws.coefficients_of(system))
        bodies = sample(system, m_samples).positions[np.array(ws.bodies) - 1, : ws.m_domain]
        assert np.abs(rows - bodies).max() <= 1e-13

    @pytest.mark.parametrize(
        "params", REPRESENTATIVE_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}"
    )
    def test_node_shifts_cover_every_pair_once(self, params):
        n = params.n_main
        kinds = pair_kinds(params)
        assert sum(kind.multiplicity for kind in kinds) == (n + 3) * (n + 2) // 2
        # two modes per chain, so no pair distance is constant in time
        system = random_admissible_system(params, n * params.r + n, seed=n, min_sep=0.0)
        m_samples = 2 * params.grid_unit
        pos = sample(system, m_samples).positions

        def distance(i, j):
            diff = pos[i - 1] - pos[j - 1]
            return np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)

        covered = []
        for kind in kinds:
            rep = distance(*kind.pair)
            orbit = set()
            for c in range(n):
                for e in range(3):
                    pair = tuple(sorted(_moved(x, n, c, e) for x in kind.pair))
                    shift = c * m_samples // n + e * m_samples // 3
                    assert np.allclose(distance(*pair), np.roll(rep, -shift), rtol=0, atol=1e-12)
                    orbit.add(pair)
            assert len(orbit) == kind.multiplicity
            covered += sorted(orbit)
        every = [(i, j) for i in range(1, n + 4) for j in range(i + 1, n + 4)]
        assert sorted(covered) == every
