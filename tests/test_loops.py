import dataclasses
import decimal
import json
import math

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
    windings_match,
)
from choreocert.solver import MinimizeOptions, minimize
from choreocert.symmetry import SymmetryParams, pair_kinds
from choreocert.testorbits import build_test_orbit

from conftest import (
    REFERENCE_CASES,
    all_pairs_min_separation,
    all_pairs_winding_table,
    assert_same_text,
    direct_trajectory,
    longdouble_generator,
    random_admissible_system,
    reference_trajectory_csv,
    roll_group_action_residual,
    tick_table_generator,
)

PARAMS4 = SymmetryParams(4, 7, 3, 3, -4)
PARAMS7 = SymmetryParams(7, 10, 3, 3, -7)
PARAMS8 = SymmetryParams(8, 11, 3, 3, -8)
# The reference families, an r = 2 family and N = 8: systems for the
# index-shift and representative-pair oracles.
SHIFT_FAMILIES = [case["params"] for case in REFERENCE_CASES] + [
    SymmetryParams(5, 2, 3, 3, -5),
    PARAMS8,
]


@pytest.fixture(scope="module")
def orbit4():
    return build_test_orbit(PARAMS4, 0.23, 0.088)


class TestCoefficientReach:
    def test_reach_is_summed_exactly(self):
        # R = sum of the coefficient moduli, refused when 8 R^3 overflows. At
        # the largest R0 with 8 R0^3 finite, two moduli of 0.3 ulp(R0) added
        # to R0 one at a time round back to R0, but their exact sum rounds up.
        r0 = (np.finfo(float).max / 8.0) ** (1.0 / 3.0)
        while math.isfinite(8.0 * r0 * r0 * r0):
            r0 = math.nextafter(r0, math.inf)
        while not math.isfinite(8.0 * r0 * r0 * r0):
            r0 = math.nextafter(r0, 0.0)
        tiny = 0.3 * math.ulp(r0)
        assert r0 + tiny + tiny == r0 and math.fsum([r0, tiny, tiny]) > r0
        main = GeneratorSpectrum("main", (3, 24), np.array([r0, tiny], dtype=complex))
        with pytest.raises(ValueError, match="pair forces cube"):
            SystemLoop(PARAMS4, main, GeneratorSpectrum("triple", (-4,), np.array([tiny + 0j])))
        SystemLoop(PARAMS4, main, GeneratorSpectrum("triple", (-4,), np.array([0j])))


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


def _stacked_evaluate(system, body, t, order):
    """evaluate's sum of one order copied out with np.stack([re, im], -1), the
    form it had before it returned a view of the complex sum."""
    spec = system.generator_for(body)
    u = np.asarray(t, dtype=float) + system.body_shift(body)
    z = np.zeros(u.shape, dtype=complex)
    for m, c in zip(spec.freqs, spec.coeffs):
        z += c * (2.0 * np.pi * 1j * m) ** order * np.exp((2.0 * np.pi * m) * 1j * u)
    return np.stack([z.real, z.imag], axis=-1)


class TestPlanarView:
    @pytest.mark.parametrize(
        "t", [0.3, np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 24).reshape(4, 6)],
        ids=["0d", "1d", "2d"],
    )
    def test_evaluate_matches_stacked_copy_bitwise(self, t):
        system = random_admissible_system(PARAMS4, 30, seed=12)
        for body in (1, 2, 5, 6):
            want = [_stacked_evaluate(system, body, t, order) for order in (0, 1, 2)]
            got = evaluate(system, body, t, derivative=(0, 1, 2))
            for values, ref in zip((*got, evaluate(system, body, t, derivative=1)),
                                   (*want, want[1])):
                assert values.shape == np.shape(t) + (2,)
                assert values.dtype == np.float64 and values.flags.c_contiguous
                assert np.array_equal(values.view(np.uint64), ref.view(np.uint64))

    def test_planar_view_shares_the_complex_array(self):
        z = np.array([[1.5 - 0.0j, -2.0 + 3.0j]])
        planar = loops._complex_to_planar(z)
        assert planar.shape == (1, 2, 2) and np.shares_memory(planar, z)
        assert np.array_equal(planar.view(np.uint64),
                              np.stack([z.real, z.imag], axis=-1).view(np.uint64))
        assert loops._complex_to_planar(np.array(1.0 - 2.0j)).tolist() == [1.0, -2.0]


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
        # Bodies 2 and N+2 are evaluate's own arrays, bit for bit. The other
        # bodies are the generators, read from the table of M-th roots of
        # unity, and their chain copies: they must agree with evaluate(body,
        # t_k) at every node to 1e-13 of the largest coordinate.
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
                    for body in (2, n + 2):
                        assert np.array_equal(got[body - 1], want[body - 1])

    @pytest.mark.parametrize("multiple", [1, 4])
    @pytest.mark.parametrize("cutoff", [24, 96])
    @pytest.mark.parametrize("params", SHIFT_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}")
    def test_chain_copies_are_shifted_tick_table_rows_bitwise(self, params, cutoff, multiple):
        # body i of a chain of L reads its generator (i-1)*M/L nodes later;
        # bodies 2 and N+2 are evaluate's own (see the test above)
        n = params.n_main
        system = random_admissible_system(params, cutoff, seed=100 * n + cutoff)
        m_samples = multiple * params.default_grid()
        traj = sample(system, m_samples)
        nodes = np.arange(m_samples)
        for first, chain, spec in ((0, n, system.main), (n, 3, system.triple)):
            rows = tick_table_generator(spec, m_samples)
            for i in (0, *range(2, chain)):
                shifted = (nodes + i * (m_samples // chain)) % m_samples
                for got, want in zip((traj.positions, traj.velocities), rows):
                    assert np.array_equal(got[first + i], want[shifted])

    def test_alternating_grids_sample_the_same_bits(self):
        system = random_admissible_system(PARAMS4, 30, seed=11)
        alone = {}
        for m_samples in (168, 1344):
            loops.roots_of_unity.cache_clear()
            alone[m_samples] = sample(system, m_samples)
        for m_samples in (168, 1344, 168, 1344, 1344):
            traj = sample(system, m_samples)
            assert np.array_equal(traj.positions, alone[m_samples].positions)
            assert np.array_equal(traj.velocities, alone[m_samples].velocities)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60,
                        reason="needs an extended-precision long double")
    def test_generators_match_tick_table_and_longdouble_reference(self):
        # Bodies 1 and N+1 equal the tick-table oracle bit for bit, and lie
        # within 2e-15 of the largest coordinate of a long double evaluation;
        # one complex exponential per frequency and node misses that by 4x.
        for params in SHIFT_FAMILIES:
            n = params.n_main
            for cutoff in (24, 96):
                system = random_admissible_system(params, cutoff, seed=100 * n + cutoff)
                m_samples = params.default_grid()
                traj = sample(system, m_samples)
                for body, spec in ((1, system.main), (n + 1, system.triple)):
                    got = (traj.positions[body - 1], traj.velocities[body - 1])
                    for values, table, exact in zip(
                        got,
                        tick_table_generator(spec, m_samples),
                        longdouble_generator(spec, m_samples),
                    ):
                        assert np.array_equal(values, table)
                        error = np.abs(values - exact).max()
                        assert error <= 2e-15 * np.abs(exact).max()

    @pytest.mark.parametrize("params", [PARAMS7, SymmetryParams(20, 23, 3, 3, -20)],
                             ids=["N7", "N20"])
    def test_sample_evaluates_second_bodies_only(self, monkeypatch, params):
        calls = []
        real = loops.evaluate

        def counting(system, body, *args, **kwargs):
            calls.append(body)
            return real(system, body, *args, **kwargs)

        monkeypatch.setattr(loops, "evaluate", counting)
        sample(build_test_orbit(params, 0.25, 0.064), params.grid_unit)
        n = params.n_main
        assert calls == [2, n + 2]

    @pytest.mark.parametrize("chain, generator", [(4, "g3"), (3, "g2")],
                             ids=["main", "triple"])
    def test_wrong_chain_shift_breaks_symmetry(self, chain, generator):
        # chain copies placed at reversed shifts must fail the group action
        # of that chain against the directly evaluated body
        system = random_admissible_system(PARAMS4, 30, seed=11)
        traj = sample(system, 168)
        assert max_symmetry_residual(traj) <= 1e-10
        first = 0 if chain == PARAMS4.n_main else PARAMS4.n_main
        rows = np.arange(first, first + chain)
        positions = traj.positions.copy()
        positions[rows] = traj.positions[rows[::-1]]
        positions[first + 1] = traj.positions[first + 1]
        permuted = dataclasses.replace(traj, positions=positions)
        assert group_action_residual(permuted, generator) > 1e-10
        for g in ("g1", "g2", "g3"):
            assert group_action_residual(permuted, g) == roll_group_action_residual(permuted, g)

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


class TestRootsOfUnity:
    def test_table_is_read_only(self):
        roots = loops.roots_of_unity(168)
        with pytest.raises(ValueError, match="read-only"):
            roots[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(roots, 1j, out=roots)

    def test_cache_holds_the_last_grid_only(self):
        first = loops.roots_of_unity(168)
        assert loops.roots_of_unity(168) is first
        loops.roots_of_unity(336)
        assert loops.roots_of_unity.cache_info().currsize == 1
        assert loops.roots_of_unity(168) is not first

    @pytest.mark.parametrize("m_samples", [168, 1344, 13440])
    def test_table_after_eviction_equals_a_fresh_exponential(self, m_samples):
        loops.roots_of_unity(m_samples)
        loops.roots_of_unity(2 * m_samples)
        fresh = np.exp((2.0 * np.pi / m_samples) * 1j * np.arange(m_samples))
        assert np.array_equal(loops.roots_of_unity(m_samples), fresh)


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

    def test_windings_match_the_class(self, orbit4):
        # the test orbit winds (3, -4): it matches k2 = -4, not k2 = 24
        table = winding_table(sample(orbit4, 1344))
        assert windings_match(SymmetryParams(4, 7, 3, 3, -4), table)
        assert not windings_match(SymmetryParams(4, 7, 3, 3, 24), table)
        assert not windings_match(SymmetryParams(4, 7, 3, 10, -4), table)

    def test_undersampled_rejected(self):
        t = np.arange(6) / 6
        z = np.exp(2j * np.pi * 3 * t)  # three turns on six samples: step exactly pi
        pts = np.stack([z.real, z.imag], axis=1)
        with pytest.raises(ValueError, match="undersampled"):
            winding_number(pts, (0.0, 0.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_products_rejected(self, scale):
        # the cross and dot products of neighbouring points overflow to
        # inf - inf; the refusal names the steps and numpy stays silent
        t = np.arange(64) / 64
        pts = scale * np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        with pytest.raises(ValueError, match="non-finite angle steps"):
            winding_number(pts, (0.0, 0.0))
        with pytest.raises(ValueError, match="non-finite angle steps"):
            winding_number(np.full((8, 2), np.nan), (0.0, 0.0))
        assert winding_number(pts / scale * 1e150, (0.0, 0.0)) == 1


def _circle_stack(turns, nodes=96):
    """(len(turns), nodes, 2) closed curves winding turns[p] times around 0."""
    t = np.arange(nodes) / nodes
    z = np.array([np.exp(2j * np.pi * k * t) + 0.3 * np.exp(-2j * np.pi * t) for k in turns])
    return np.stack([z.real, z.imag], axis=-1)


class TestWindingArguments:
    @pytest.mark.parametrize("arcs", [0, -3, True, False, 1.5, "2", None])
    def test_arcs_must_be_a_positive_int(self, arcs):
        with pytest.raises(ValueError, match="arcs must be a positive int"):
            winding_number(_circle_stack([1])[0], (0.0, 0.0), arcs=arcs)

    def test_integer_arcs_accepted(self):
        pts = _circle_stack([1])[0]
        assert winding_number(pts, (0.0, 0.0), arcs=np.int64(3)) == 3
        assert winding_number(pts, (0.0, 0.0), arcs=3) == 3

    @pytest.mark.parametrize("arc_turn", [np.nan, np.inf, -np.inf])
    def test_arc_turn_must_be_finite(self, arc_turn):
        with pytest.raises(ValueError, match="arc_turn must be finite"):
            winding_number(_circle_stack([1])[0], (0.0, 0.0), arcs=2, arc_turn=arc_turn)

    @pytest.mark.parametrize("shape", [(2,), (2, 2), (5, 3), (2, 4, 3), (1, 2, 5, 2)])
    def test_shape_must_be_planar_curves(self, shape):
        with pytest.raises(ValueError, match="need at least 3 planar points"):
            winding_number(np.ones(shape), (0.0, 0.0))


class TestStackedWinding:
    def test_equals_per_curve_calls(self):
        stack = _circle_stack([1, -2, 0, 5])
        got = winding_number(stack, (0.0, 0.0))
        assert got == [1, -2, 0, 5] == [winding_number(c, (0.0, 0.0)) for c in stack]
        assert all(type(w) is int for w in got)
        assert type(winding_number(stack[0], (0.0, 0.0))) is int
        assert winding_number(stack[:0], (0.0, 0.0)) == []

    def test_base_per_curve(self):
        stack = _circle_stack([1, -2, 3])
        bases = np.array([[0.5, -1.0], [2.0, 3.0], [-4.0, 0.25]])
        shifted = stack + bases[:, None, :]
        assert winding_number(shifted, bases) == [1, -2, 3]
        # one point for the whole stack: the far ones do not wind around it
        assert winding_number(shifted, bases[0]) == [1, 0, 0]

    @pytest.mark.parametrize("params", SHIFT_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}")
    def test_domain_arcs_equal_per_curve_calls(self, params):
        # the same-chain representatives on one g1 domain, each r rotated arcs
        system = random_admissible_system(params, 48, seed=300 * params.n_main)
        ws = ActionWorkspace.for_system(system, params.default_grid())
        pos = ws.positions(*ws.coefficients_of(system))
        same = [k for k, kind in enumerate(pair_kinds(params)) if kind.kind != "cross"]
        a, b = ws._pairs[same].T
        stack, turn = pos[a] - pos[b], 2.0 * np.pi * params.d / params.r
        got = winding_number(stack, (0.0, 0.0), arcs=params.r, arc_turn=turn)
        want = [winding_number(c, (0.0, 0.0), arcs=params.r, arc_turn=turn) for c in stack]
        assert got == want == [params.k1] * (len(same) - 1) + [params.k2]

    @pytest.mark.parametrize("params", SHIFT_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}")
    def test_all_pairs_in_one_stack_match_oracle(self, params):
        system = random_admissible_system(params, 24, seed=400 * params.n_main)
        traj = direct_trajectory(system, params.default_grid())
        table = all_pairs_winding_table(traj)
        pos = traj.positions
        for key in ("main", "triple"):
            rows = table[key]
            stack = np.stack([pos[i - 1] - pos[j - 1] for i, j, _ in rows])
            assert winding_number(stack, (0.0, 0.0)) == [w for _, _, w in rows]

    def test_failing_curve_raises_its_own_message(self):
        good = _circle_stack([2])[0]
        through_base = good.copy()
        through_base[7] = 0.0
        nan_curve = good.copy()
        nan_curve[3, 1] = np.nan
        t = np.arange(96) / 96
        # 48 turns on 96 samples: every step is a half turn
        undersampled = np.stack([np.cos(96 * np.pi * t), np.sin(96 * np.pi * t)], axis=1)
        for bad, message in ((through_base, "base point lies on the curve"),
                             (nan_curve, "non-finite angle steps"),
                             (undersampled, "undersampled")):
            with pytest.raises(ValueError, match=message):
                winding_number(bad, (0.0, 0.0))
            with pytest.raises(ValueError, match=message):
                winding_number(np.stack([good, good, bad]), (0.0, 0.0))

    def test_first_failing_curve_decides(self):
        # curve 0 is undersampled and curve 1 passes through the base point
        t = np.arange(6) / 6
        undersampled = np.stack([np.cos(6 * np.pi * t), np.sin(6 * np.pi * t)], axis=1)
        through_base = undersampled.copy()
        through_base[2] = 0.0
        with pytest.raises(ValueError, match="undersampled"):
            winding_number(np.stack([undersampled, through_base]), (0.0, 0.0))
        with pytest.raises(ValueError, match="base point"):
            winding_number(np.stack([through_base, undersampled]), (0.0, 0.0))

    def test_fractional_turns_name_the_first_curve(self):
        # a third of a circle and a whole one, each closed by a third of a
        # turn and taken as 2 arcs: 2/3 and 8/3 turns
        t = np.arange(32) / 96
        arc = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        circle = _circle_stack([1], nodes=32)[0]
        for stack, turns in (([arc, circle], r"0\.666"), ([circle, arc], r"2\.666")):
            with pytest.raises(ValueError, match=rf"accumulated angle .*{turns}.* not an integer"):
                winding_number(np.stack(stack), (0.0, 0.0), arcs=2, arc_turn=2 * np.pi / 3)


class TestMinSeparation:
    def test_reference_orbit_cross_pair(self, orbit4):
        # the closest approach is a cross pair at radial alignment: distance a - b
        traj = sample(orbit4, 10080)
        info = min_separation(traj)
        i, j = info.pair
        assert i <= 4 < j  # every same-curve pair stays strictly farther apart
        assert abs(info.distance - (0.23 - 0.088)) <= 2e-3

    @pytest.mark.parametrize("params", SHIFT_FAMILIES, ids=lambda p: f"N{p.n_main}r{p.r}")
    def test_representative_on_one_domain_matches_all_pairs(self, params):
        # sampled by index shifts or body by body, the minimum read from the
        # representatives on M/r nodes is the minimum over every pair and node
        representatives = {kind.pair for kind in pair_kinds(params)}
        for cutoff in (24, 96):
            system = random_admissible_system(params, cutoff, seed=200 * params.n_main + cutoff)
            m_samples = params.default_grid()
            for traj in (sample(system, m_samples), direct_trajectory(system, m_samples)):
                info = min_separation(traj)
                want = all_pairs_min_separation(traj)
                assert abs(info.distance - want) <= 1e-13 * want
                assert info.pair in representatives
                assert 0 <= info.time_index < m_samples // params.r


class TestOffGridTrajectory:
    @pytest.mark.parametrize("check", [min_separation, winding_table])
    def test_names_the_grid(self, orbit4, check):
        # 1000 nodes hold no whole g1 domain of lcm(3, 4, 7) = 84
        with pytest.raises(ValueError, match=r"M=1000 must be .* lcm\(3, N, r\) = 84"):
            check(direct_trajectory(orbit4, 1000))


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

    @pytest.mark.parametrize("params", [*SHIFT_FAMILIES, SymmetryParams(20, 23, 3, 3, -20)],
                             ids=["N4", "N5", "N7", "N5r2", "N8", "N20"])
    def test_matches_roll_oracle_bitwise(self, params):
        # sampled, so every residual is rounding, and perturbed, so it is not
        if params.n_main == 20:
            system = build_test_orbit(params, 0.25, 0.064)
        else:
            system = random_admissible_system(params, 40, seed=3 * params.n_main + params.r)
        traj = sample(system, 2 * params.grid_unit)
        noise = np.random.default_rng(params.r).normal(size=traj.positions.shape)
        perturbed = dataclasses.replace(traj, positions=traj.positions + 1e-3 * noise)
        for candidate in (traj, perturbed):
            for g in ("g1", "g2", "g3"):
                residual = group_action_residual(candidate, g)
                assert residual == roll_group_action_residual(candidate, g)

    @pytest.mark.parametrize("generator", ["g1", "g2", "g3"])
    @pytest.mark.parametrize("body, node, axis", [(0, 0, 0), (2, 700, 1), (6, 1343, 1)],
                             ids=["first", "middle", "last"])
    def test_nan_coordinate_gives_nan(self, orbit4, generator, body, node, axis):
        traj = sample(orbit4, 1344)
        positions = traj.positions.copy()
        positions[body, node, axis] = np.nan
        broken = dataclasses.replace(traj, positions=positions)
        assert math.isnan(group_action_residual(broken, generator))
        assert math.isnan(max_symmetry_residual(broken))

    @pytest.mark.parametrize("params, a, b, cutoff, multiple",
                             [(PARAMS7, 0.25, 0.064, 96, 4), (PARAMS8, 0.25, 0.06, 48, 2)],
                             ids=["N7K96", "N8K48"])
    def test_matches_roll_oracle_bitwise_on_descended_loops(self, params, a, b, cutoff,
                                                            multiple):
        m_samples = multiple * params.default_grid()
        result = minimize(build_test_orbit(params, a, b),
                          MinimizeOptions(cutoff=cutoff, m_samples=m_samples))
        assert result.termination == "converged"
        traj = sample(result.system, m_samples)
        residuals = [group_action_residual(traj, g) for g in ("g1", "g2", "g3")]
        assert residuals == [roll_group_action_residual(traj, g) for g in ("g1", "g2", "g3")]
        assert result.symmetry_residual == max(residuals) <= 1e-10

    def test_invalid_generator_name(self, orbit4):
        traj = sample(orbit4, 1344)
        with pytest.raises(ValueError, match="generator"):
            group_action_residual(traj, "g4")


def assert_printf_17g(values):
    """loops._format_17g gives "%.17g" % x for every x, NUL-padded to the width."""
    values = np.asarray(values, dtype=float)
    rows = loops._format_17g(values)
    assert rows.shape == (values.size, loops._G17_WIDTH)
    got = rows.view(f"S{loops._G17_WIDTH}").ravel().tolist()
    want = [("%.17g" % v).encode() for v in values.ravel().tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.ravel().tolist(), got, want) if g != w]
    assert not wrong, f"{len(wrong)} of {values.size} differ, e.g. {wrong[:3]}"


def ulp_neighbours(centers, steps):
    """Every center moved by -steps..steps units in the last place."""
    bits = np.asarray(centers, dtype=float).view(np.int64)[:, None] + np.arange(-steps, steps + 1)
    return bits.view(float).ravel()


class TestFormat17g:
    """The numpy "%.17g" of the trajectory CSV, on seeded samples of 1e5+ values."""

    SIZE = 100_000

    def test_normal_values(self):
        assert_printf_17g(np.random.default_rng(11).normal(size=self.SIZE))

    def test_log_uniform_1e_30_to_1e20(self):
        rng = np.random.default_rng(12)
        signs = rng.choice([-1.0, 1.0], size=self.SIZE)
        assert_printf_17g(signs * 10.0 ** rng.uniform(-30, 20, size=self.SIZE))

    def test_dyadic_ties_round_half_even(self):
        # i + k / 2**j with odd k has j decimals and i 18 - j digits: 18
        # significant digits ending in 5, a tie at 17 digits.
        rng = np.random.default_rng(13)
        j = rng.integers(3, 18, size=self.SIZE)
        i = rng.integers(10 ** (17 - j), 10 ** (18 - j))
        k = 2 * rng.integers(0, 2 ** (j - 1)) + 1
        ties = (i + k / 2.0 ** j) * rng.choice([-1.0, 1.0], size=self.SIZE)
        for tie in ties[:2000].tolist():
            digits = decimal.Decimal(tie).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert "%.17g" % 562949953421312.125 == "562949953421312.12"
        assert_printf_17g(np.concatenate([ties, [562949953421312.125, 562949953421312.375]]))

    def test_powers_of_ten_and_neighbours(self):
        powers = 10.0 ** np.arange(-30, 21)
        values = ulp_neighbours(powers, 1000)
        assert values.size > self.SIZE
        assert_printf_17g(np.concatenate([values, -values]))

    def test_fixed_domain_edges(self):
        values = ulp_neighbours([1e-4, 1e15], 50_000)
        assert ((values < 1e-4) | (values >= 1e15)).sum() == 100_001
        assert_printf_17g(np.concatenate([values, -values]))

    def test_zeros_infinities_nan_and_subnormals(self):
        rng = np.random.default_rng(14)
        subnormals = rng.integers(1, 2 ** 52, size=self.SIZE).view(float)
        assert (subnormals < 2.2250738585072014e-308).all()
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
                   5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                   np.finfo(float).max, 0.09999999999999999, 1e-7, 1e15, 1e-4]
        assert_printf_17g(np.concatenate([subnormals, -subnormals, special]))
        assert "-2.2250738585072014e-308" == "%.17g" % -2.2250738585072014e-308
        assert len("-2.2250738585072014e-308") == loops._G17_WIDTH

    def test_fast_path_formats_the_test_orbit(self, monkeypatch):
        # An always-fallback formatter passes every byte test: count the
        # values that reach the per-value "%.17g".
        ref = REFERENCE_CASES[2]
        traj = sample(build_test_orbit(ref["params"], ref["a"], ref["b"]),
                      2 * ref["params"].grid_unit)
        values = np.concatenate([traj.positions.ravel(), traj.velocities.ravel(), traj.times])
        fallback = loops._printf_17g
        seen = []
        monkeypatch.setattr(loops, "_printf_17g", lambda x: seen.append(x.size) or fallback(x))
        assert_printf_17g(values)
        magnitude = np.abs(values)
        assert sum(seen) == ((magnitude < 1e-4) | (magnitude >= 1e15)).sum()
        seen.clear()
        assert_same_text(trajectory_to_csv(traj), reference_trajectory_csv(traj))
        assert 0 < sum(seen) < 0.01 * values.size


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
        assert_same_text(trajectory_to_csv(traj), reference_trajectory_csv(traj))

    @staticmethod
    def _grid_past_block(params, minimum):
        """The smallest valid grid above ``minimum`` nodes, at least two blocks of
        loops._CSV_BLOCK_NODES nodes and not a whole number of them."""
        block = loops._CSV_BLOCK_NODES
        m_samples = (max(minimum, block) // params.grid_unit + 1) * params.grid_unit
        while m_samples % block == 0:
            m_samples += params.grid_unit
        assert m_samples > block and m_samples % block != 0
        return m_samples

    def test_trajectory_csv_partial_last_block(self):
        m_samples = self._grid_past_block(PARAMS8, 0)
        traj = sample(random_admissible_system(PARAMS8, 30, seed=3), m_samples)
        assert_same_text(trajectory_to_csv(traj), reference_trajectory_csv(traj))

    def test_trajectory_csv_special_values(self):
        special = np.array([-0.0, 0.0, 5e-324, 2.0e-310, 1e300, -1e300, np.inf, np.nan])
        positions = np.stack([special.reshape(4, 2), -special[::-1].reshape(4, 2)])
        traj = Trajectory(PARAMS4, 4, np.array([0.0, -0.0, 5e-324, 1e300]),
                          positions, positions[::-1] * 3.0)
        text = trajectory_to_csv(traj)
        assert_same_text(text, reference_trajectory_csv(traj))
        assert text.splitlines()[1] == "0,1,-0,0,nan,-inf"
        fields = set(text.replace("\n", ",").split(","))
        assert {"-0", "0", "4.9406564584124654e-324", "1.0000000000000001e+300", "inf"} <= fields

    @staticmethod
    def _rows_trajectory(rows):
        """Trajectory whose (node, body) row is rows[k, b] = (x, y, vx, vy)."""
        rows = np.asarray(rows, dtype=float)
        m_samples = rows.shape[0]
        planar = rows.transpose(1, 0, 2)
        return Trajectory(PARAMS4, m_samples, np.arange(m_samples) / m_samples,
                          planar[..., :2].copy(), planar[..., 2:].copy())

    @classmethod
    def _signed_zero_trajectory(cls):
        """Rows equal as values but not as bits: each must keep its own sign."""
        rows = np.tile([0.5, 0.0, -1.25, 3.0], (3, 7, 1))
        rows[:, 1::2, 1] = -0.0
        return cls._rows_trajectory(rows)

    @classmethod
    def _nan_trajectory(cls):
        """Rows of NaNs whose sign bits differ, and one row of mixed NaNs."""
        negative_nan = np.copysign(np.nan, -1.0)
        assert np.signbit(negative_nan)
        rows = np.tile([np.nan, 1.0, np.nan, -2.0], (4, 7, 1))
        rows[::2, :, 0] = negative_nan
        rows[1, 3] = [negative_nan, negative_nan, np.nan, np.nan]
        return cls._rows_trajectory(rows)

    def test_trajectory_csv_signed_zero_rows_kept_apart(self):
        traj = self._signed_zero_trajectory()
        text = trajectory_to_csv(traj)
        assert_same_text(text, reference_trajectory_csv(traj))
        lines = text.splitlines()
        assert lines[1] == "0,1,0.5,0,-1.25,3"
        assert lines[2] == "0,2,0.5,-0,-1.25,3"

    def test_trajectory_csv_repeated_nan_rows(self):
        traj = self._nan_trajectory()
        text = trajectory_to_csv(traj)
        assert_same_text(text, reference_trajectory_csv(traj))
        assert "-nan" not in text
        assert text.splitlines()[1 + 7 + 3] == "0.25,4,nan,nan,nan,nan"

    def test_trajectory_csv_all_rows_identical(self):
        traj = self._rows_trajectory(np.full((300, 7, 4), 0.1))
        text = trajectory_to_csv(traj)
        assert_same_text(text, reference_trajectory_csv(traj))
        assert {line.split(",", 2)[2] for line in text.splitlines()[1:]} == {
            ",".join(["0.10000000000000001"] * 4)
        }

    def test_trajectory_csv_no_repeated_row(self):
        rows = np.random.default_rng(5).normal(size=(300, 7, 4))
        assert len(np.unique(rows.reshape(-1, 4), axis=0)) == 300 * 7
        traj = self._rows_trajectory(rows)
        assert_same_text(trajectory_to_csv(traj), reference_trajectory_csv(traj))

    def test_trajectory_csv_repeats_across_blocks(self):
        # Body 3 at node k is the generator at node k + 2M/N: a repeat that
        # crosses from the first block of nodes into the second. For the last
        # node of the first block, k + 2M/7 < M needs M > 7/5 (block - 1).
        m_samples = self._grid_past_block(PARAMS7, 7 * loops._CSV_BLOCK_NODES // 5)
        traj = sample(random_admissible_system(PARAMS7, 30, seed=4), m_samples)
        k, shift = loops._CSV_BLOCK_NODES - 1, 2 * m_samples // 7
        assert loops._CSV_BLOCK_NODES <= k + shift < m_samples
        assert np.array_equal(traj.positions[2, k], traj.positions[0, k + shift])
        assert np.array_equal(traj.velocities[2, k], traj.velocities[0, k + shift])
        assert_same_text(trajectory_to_csv(traj), reference_trajectory_csv(traj))

    @pytest.mark.parametrize("case", ["sampled", "signed-zero", "nan"])
    def test_trajectory_csv_any_block_size(self, monkeypatch, case):
        if case == "sampled":
            traj = sample(random_admissible_system(PARAMS7, 30, seed=4), 2 * PARAMS7.grid_unit)
        else:
            traj = (self._signed_zero_trajectory if case == "signed-zero"
                    else self._nan_trajectory)()
        expected = reference_trajectory_csv(traj)
        m_samples = traj.m_samples
        wrong = []
        for block in (1, 7, m_samples - 1, m_samples, m_samples + 1):
            monkeypatch.setattr(loops, "_CSV_BLOCK_NODES", block)
            if trajectory_to_csv(traj) != expected:
                wrong.append(block)
        assert wrong == []

    @pytest.fixture(scope="class")
    def grid_traj7(self):
        return sample(random_admissible_system(PARAMS7, 30, seed=4), 2 * PARAMS7.grid_unit)

    @staticmethod
    def _candidate(traj, k, body):
        """(node, 0-based body) of the row that (k, body) copies in ``sample``."""
        n, m_samples = traj.params.n_main, traj.m_samples
        first, chain, period = (0, n, m_samples // 3) if body < n else (n, 3, m_samples // n)
        return (k + (body - first) * (m_samples // chain)) % period, first

    @staticmethod
    def _copy(traj):
        return dataclasses.replace(
            traj, positions=traj.positions.copy(), velocities=traj.velocities.copy()
        )

    def test_csv_candidates_are_the_copies_sample_makes(self, grid_traj7):
        # Every row except the directly evaluated bodies 2 and N+2 is its
        # candidate bit for bit, so a sampled loop formats few rows.
        traj = grid_traj7
        n_bodies, m_samples = traj.n_bodies, traj.m_samples
        rows = np.concatenate([traj.positions, traj.velocities], axis=2).transpose(1, 0, 2)
        bits = rows.view(np.uint64)
        # anchors: main generator rows over M/3 nodes, then triple over M/N
        anchors = np.concatenate([bits[:m_samples // 3, 0], bits[:m_samples // 7, 7]])
        candidates = loops._csv_candidates(traj, 0, m_samples)
        assert np.array_equal(loops._csv_candidates(traj, 250, 300), candidates[250:300])
        for k, body in [(0, 0), (7, 3), (200, 6), (419, 8), (300, 9)]:
            node, first = self._candidate(traj, k, body)
            assert candidates[k, body] == node + (m_samples // 3 if first else 0)
        copies = (bits == anchors[candidates]).all(axis=2)
        direct = [1, PARAMS7.n_main + 1]
        assert copies[:, np.setdiff1d(np.arange(n_bodies), direct)].all()

    def test_trajectory_csv_chain_copy_one_ulp_off(self, grid_traj7):
        traj = self._copy(grid_traj7)
        k, body = 37, 4
        node, first = self._candidate(traj, k, body)
        assert np.array_equal(traj.positions[body, k], traj.positions[first, node])
        traj.positions[body, k, 1] = np.nextafter(traj.positions[body, k, 1], np.inf)
        text = trajectory_to_csv(traj)
        assert_same_text(text, reference_trajectory_csv(traj))
        lines = text.splitlines()
        assert lines[1 + k * traj.n_bodies + body].split(",")[2:] != (
            lines[1 + node * traj.n_bodies + first].split(",")[2:]
        )

    def test_trajectory_csv_direct_row_equal_to_candidate(self, grid_traj7):
        traj = self._copy(grid_traj7)
        n_bodies = traj.n_bodies
        for k, body in [(5, 1), (300, PARAMS7.n_main + 1)]:
            node, first = self._candidate(traj, k, body)
            traj.positions[body, k] = traj.positions[first, node]
            traj.velocities[body, k] = traj.velocities[first, node]
            text = trajectory_to_csv(traj)
            assert_same_text(text, reference_trajectory_csv(traj))
            lines = text.splitlines()
            assert lines[1 + k * n_bodies + body].split(",")[2:] == (
                lines[1 + node * n_bodies + first].split(",")[2:]
            )

    def test_trajectory_csv_signed_zero_copy_on_grid(self, grid_traj7):
        traj = self._copy(grid_traj7)
        k, body = 11, 2
        node, first = self._candidate(traj, k, body)
        traj.velocities[first, node, 0] = 0.0
        traj.velocities[body, k, 0] = -0.0
        text = trajectory_to_csv(traj)
        assert_same_text(text, reference_trajectory_csv(traj))
        assert text.splitlines()[1 + k * traj.n_bodies + body].split(",")[4] == "-0"

    def test_trajectory_csv_random_rows_on_grid(self):
        m_samples = PARAMS4.grid_unit
        assert loops.valid_grid(PARAMS4, m_samples)
        rows = np.random.default_rng(6).normal(size=(m_samples, PARAMS4.n_bodies, 4))
        traj = self._rows_trajectory(rows)
        assert_same_text(trajectory_to_csv(traj), reference_trajectory_csv(traj))

    @pytest.mark.parametrize(
        "row",
        [[3, 0.2, 0.0, 99], ["x", 0.2, 0.0], [3.5, 0.2, 0.0], [float("inf"), 0.2, 0.0],
         [3, float("nan"), 0.0], [3, 0.2, float("-inf")],
         [True, 0.2, 0.0], [3, 0.2, True], ["3", 0.2, 0.0], [3, "0.2", 0.0], "300"],
        ids=["extra-field", "non-numeric", "non-integral", "infinite-frequency",
             "nan-coefficient", "infinite-coefficient", "bool-frequency", "bool-coefficient",
             "numeric-text-frequency", "numeric-text-coefficient", "numeric-text-row"],
    )
    def test_malformed_row_names_role_and_index(self, row):
        with pytest.raises(ValueError, match=r"'main' must be a list of \[m, x, y\] rows: row 1 is"):
            GeneratorSpectrum.from_pairs("main", [[6, 0.1, 0.0], row])

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
