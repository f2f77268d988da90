import re

import numpy as np
import pytest

from choreocert import kernels
from choreocert.loops import sample
from choreocert.symmetry import pair_kinds
from choreocert.testorbits import build_test_orbit
from conftest import REFERENCE_CASES, gathered_pair_forces


@pytest.fixture
def random_positions():
    rng = np.random.default_rng(42)
    pos = rng.normal(size=(7, 240, 2))
    pos[:, :, 0] += 3.0 * np.arange(7)[:, None]  # keep bodies apart
    return pos


def brute_pair_forces(pos):
    B, M, _ = pos.shape
    out = np.zeros_like(pos)
    for i in range(B):
        for j in range(B):
            if i == j:
                continue
            diff = pos[j] - pos[i]
            d = np.sqrt((diff**2).sum(axis=1))
            out[i] += diff / d[:, None] ** 3
    return out


def brute_pair_scan(pos):
    """Per-pair mean 1/distance and the first minimum (d, i, j, k), pair by pair."""
    B, M, _ = pos.shape
    means, best = [], (np.inf, 0, 1, 0)
    for i in range(B):
        for j in range(i + 1, B):
            d = np.sqrt(((pos[i] - pos[j]) ** 2).sum(axis=1))
            means.append((1.0 / d).mean())
            for k in range(M):
                if d[k] < best[0]:
                    best = (d[k], i, j, k)
    return np.array(means), best


def brute_table_forces(pos, pairs, weights):
    """Gradient of sum_p w_p/|q_i - q_j| over a pair table, pair by pair."""
    out = np.zeros_like(pos)
    for (i, j), w in zip(pairs, weights):
        diff = pos[j] - pos[i]
        d = np.sqrt((diff**2).sum(axis=1))
        out[i] += w * diff / d[:, None] ** 3
        out[j] -= w * diff / d[:, None] ** 3
    return out


def brute_table_scan(pos, pairs):
    """Per-pair mean 1/distance and the first minimum (d, i, j, k) in table order."""
    means, best = [], (np.inf, 0, 0, 0)
    for i, j in pairs:
        d = np.sqrt(((pos[i] - pos[j]) ** 2).sum(axis=1))
        means.append((1.0 / d).mean())
        for k in range(len(d)):
            if d[k] < best[0]:
                best = (d[k], i, j, k)
    return np.array(means), best


# A pair table out of lexicographic order, with a reversed pair (4, 3), rows
# shared between pairs and a row (5) in no pair.
TABLE = np.array([[2, 6], [0, 1], [4, 3], [1, 2], [0, 4]])
TABLE_WEIGHTS = np.array([3.0, 0.5, 7.0, 2.0, 21.0])


def test_pair_table_order():
    table = kernels.pair_index_table(4)
    assert table.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def test_forces_match_brute_force(random_positions):
    got = kernels.pair_forces(random_positions)
    want = brute_pair_forces(random_positions)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_pair_means_and_scan_match_brute_force(random_positions):
    want_means, (want_d, *want_ijk) = brute_pair_scan(random_positions)
    got_means = kernels.pair_mean_inverse_distance(random_positions)
    assert np.all(np.abs(got_means - want_means) <= 1e-12 * want_means)
    d, i, j, k = kernels.min_separation_scan(random_positions)
    assert [i, j, k] == want_ijk
    assert abs(d - want_d) <= 1e-14 * want_d


def test_table_kernels_match_brute_force(random_positions):
    got = kernels.pair_forces(random_positions, TABLE, TABLE_WEIGHTS)
    want = brute_table_forces(random_positions, TABLE, TABLE_WEIGHTS)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert not got[5].any()
    want_means, (want_d, *want_ijk) = brute_table_scan(random_positions, TABLE)
    got_means = kernels.pair_mean_inverse_distance(random_positions, TABLE)
    assert np.all(np.abs(got_means - want_means) <= 1e-12 * want_means)
    d, i, j, k = kernels.min_separation_scan(random_positions, TABLE)
    assert [i, j, k] == want_ijk
    assert abs(d - want_d) <= 1e-14 * want_d


def test_table_unit_weights_match_default(random_positions):
    full = kernels.pair_index_table(7)
    assert np.array_equal(
        kernels.pair_forces(random_positions, full, np.ones(len(full))),
        kernels.pair_forces(random_positions),
    )
    assert np.array_equal(
        kernels.pair_mean_inverse_distance(random_positions, full),
        kernels.pair_mean_inverse_distance(random_positions),
    )


def test_table_min_scan_tie_breaks_in_table_order():
    pos = np.zeros((3, 2, 2))
    pos[1, :, 0] = 1.0
    pos[2, :, 0] = 2.0  # pairs (1, 2) and (0, 1) both at distance 1
    assert kernels.min_separation_scan(pos, [[1, 2], [0, 1]]) == (1.0, 1, 2, 0)


def test_constant_distance_pair_mean():
    t = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    pos = np.zeros((2, 100, 2))
    pos[0, :, 0], pos[0, :, 1] = np.cos(t), np.sin(t)
    pos[1, :, 0], pos[1, :, 1] = 3 * np.cos(t), 3 * np.sin(t)  # same phase, radius 3
    means = kernels.pair_mean_inverse_distance(pos)
    assert means.shape == (1,)
    assert abs(means[0] - 1.0 / 2.0) <= 1e-14


def test_opposition_pair_distance():
    # two concentric circles, same frequency, opposite phases: constant a+b
    a, b = 0.4, 0.1
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pos = np.zeros((2, 64, 2))
    pos[0, :, 0], pos[0, :, 1] = a * np.cos(t), a * np.sin(t)
    pos[1, :, 0], pos[1, :, 1] = -b * np.cos(t), -b * np.sin(t)
    d, i, j, _ = kernels.min_separation_scan(pos)
    assert (i, j) == (0, 1)
    assert abs(d - (a + b)) <= 1e-14  # distance is constant, so the min equals a+b


def test_coincident_bodies_distance_zero():
    pos = np.zeros((2, 8, 2))
    d, *_ = kernels.min_separation_scan(pos)
    assert d == 0.0


def _collinear_tie():
    pos = np.zeros((3, 2, 2))
    pos[1, :, 0] = 1.0
    pos[2, :, 0] = 2.0  # pairs (0,1) and (1,2) both at distance 1
    return pos


def _tie_across_body_blocks():
    # Body 2 rests at the origin. Pair (0, 2) is at distance 1 only at node 3,
    # pair (1, 2) only at node 0, and pair (0, 1) never comes closer than 6.
    pos = np.zeros((3, 4, 2))
    pos[0, :, 0] = [5.0, 5.0, 5.0, 1.0]
    pos[1, :, 0] = [-1.0, -5.0, -5.0, -5.0]
    return pos


@pytest.mark.parametrize("pos, want", [
    (_collinear_tie(), (1.0, 0, 1, 0)),
    (_tie_across_body_blocks(), (1.0, 0, 2, 3)),
], ids=["same-block", "across-blocks"])
def test_min_scan_lexicographic_tie_break(pos, want):
    assert kernels.min_separation_scan(pos) == want


def test_relative_velocity_means(random_positions):
    vel = random_positions
    means = kernels.pair_mean_square_relative_velocity(vel)
    ii, jj = kernels.pair_index_table(7).T
    want = ((vel[ii] - vel[jj]) ** 2).sum(axis=2).mean(axis=1)
    assert np.abs(means - want).max() <= 1e-12 * np.abs(want).max()


def one_gather_square_distances(arr, pairs):
    """|arr[i] - arr[j]|^2 per pair of the table, from one gather of each row index."""
    d = arr[pairs[:, 0]] - arr[pairs[:, 1]]
    return d[..., 0] ** 2 + d[..., 1] ** 2


def one_gather_scan(pos, pairs):
    """Mean 1/distance per pair and the first minimum (d, i, j, k), by one gather."""
    dist = np.sqrt(one_gather_square_distances(pos, pairs))
    p, k = divmod(int(np.argmin(dist)), dist.shape[1])
    return (1.0 / dist).mean(axis=1), (float(dist[p, k]), *map(int, pairs[p]), k)


def _orbit_sample(case):
    params, a, b = case["params"], case["a"], case["b"]
    return sample(build_test_orbit(params, a, b), params.default_grid())


def assert_full_scans_match_one_gather(pos, vel):
    full = kernels.pair_index_table(len(pos))
    want_means, want_min = one_gather_scan(pos, full)
    assert np.array_equal(kernels.pair_mean_inverse_distance(pos), want_means)
    assert kernels.min_separation_scan(pos) == want_min
    want_v2 = one_gather_square_distances(vel, full).mean(axis=1)
    assert np.array_equal(kernels.pair_mean_square_relative_velocity(vel), want_v2)


def test_scan_kernels_bit_identical_to_one_gather_on_orbits(reference_case):
    traj = _orbit_sample(reference_case)
    assert_full_scans_match_one_gather(traj.positions, traj.velocities)


def test_scan_kernels_bit_identical_to_one_gather_on_random(random_positions):
    assert_full_scans_match_one_gather(random_positions, random_positions)


def test_table_scan_kernels_bit_identical_to_one_gather(random_positions):
    kinds = pair_kinds(REFERENCE_CASES[2]["params"])
    bodies = sorted({body for kind in kinds for body in kind.pair})
    reps = np.array([[bodies.index(i), bodies.index(j)] for i, j in (k.pair for k in kinds)])
    reduced = _orbit_sample(REFERENCE_CASES[2]).positions[[b - 1 for b in bodies]]
    for pos, pairs in [(random_positions, TABLE), (reduced, reps)]:
        want_means, want_min = one_gather_scan(pos, pairs)
        assert np.array_equal(kernels.pair_mean_inverse_distance(pos, pairs), want_means)
        assert kernels.min_separation_scan(pos, pairs) == want_min


def test_pair_forces_bit_identical_to_gathered_formula(random_positions):
    weights = np.linspace(0.5, 10.5, len(kernels.pair_index_table(7)))
    for pairs, w in [(None, None), (None, weights), (TABLE, None), (TABLE, TABLE_WEIGHTS)]:
        assert np.array_equal(kernels.pair_forces(random_positions, pairs, w),
                              gathered_pair_forces(random_positions, pairs, w))


def test_pair_forces_bit_identical_to_gathered_formula_on_orbits(reference_case):
    # every pair of the full grid, and the representatives weighted by their
    # multiplicities on one g1 domain, as the solver calls it
    params = reference_case["params"]
    pos = _orbit_sample(reference_case).positions
    kinds = pair_kinds(params)
    bodies = sorted({body for kind in kinds for body in kind.pair})
    reps = np.array([[bodies.index(i), bodies.index(j)] for i, j in (k.pair for k in kinds)])
    weights = np.array([kind.multiplicity for kind in kinds], dtype=float)
    reduced = np.ascontiguousarray(pos[[b - 1 for b in bodies], :pos.shape[1] // params.r])
    assert np.array_equal(kernels.pair_forces(pos), gathered_pair_forces(pos))
    for w in (None, weights):
        assert np.array_equal(kernels.pair_forces(reduced, reps, w),
                              gathered_pair_forces(reduced, reps, w))


def test_repeated_calls_bit_identical(random_positions):
    first = kernels.pair_forces(random_positions)
    second = kernels.pair_forces(random_positions)
    assert np.array_equal(first, second)
    assert kernels.min_separation_scan(random_positions) == kernels.min_separation_scan(
        random_positions
    )


def test_shape_validation():
    with pytest.raises(ValueError, match="bodies, samples, 2"):
        kernels.pair_forces(np.zeros((3, 7)))


def assert_scans_match_one_gather(pos):
    """All three full-pair scan kernels equal the one-gather formulas bit for
    bit; a NaN minimum must come back as the same (nan, i, j, k)."""
    full = kernels.pair_index_table(len(pos))
    want_means, want_min = one_gather_scan(pos, full)
    assert np.array_equal(kernels.pair_mean_inverse_distance(pos), want_means, equal_nan=True)
    assert np.array_equal(np.array(kernels.min_separation_scan(pos)), np.array(want_min),
                          equal_nan=True)
    want_v2 = one_gather_square_distances(pos, full).mean(axis=1)
    assert np.array_equal(kernels.pair_mean_square_relative_velocity(pos), want_v2,
                          equal_nan=True)


def test_min_scan_tie_across_body_groups_matches_one_gather(random_positions):
    # pairs (1, 3) at node 10 and (4, 6) at node 2, in body groups 1 and 4,
    # are both exactly 2^-10 apart; the lexicographically first pair wins
    pos = random_positions.copy()
    pos[1, 10], pos[3, 10] = (0.5, 0.25), (0.5, 0.25 + 2.0**-10)
    pos[4, 2], pos[6, 2] = (7.0, 1.0), (7.0, 1.0 + 2.0**-10)
    assert kernels.min_separation_scan(pos) == (2.0**-10, 1, 3, 10)
    assert_scans_match_one_gather(pos)


def test_min_scan_nan_in_later_body_group_matches_one_gather(random_positions):
    # bodies 5 and 6 both at x = +inf at node 7: pair (5, 6), the last body
    # group, is inf - inf = NaN there, every other pair with them is inf, and
    # pair (0, 1) in the first group is closer than any other pair
    pos = random_positions.copy()
    pos[5, 7, 0] = pos[6, 7, 0] = np.inf
    pos[1, 3] = pos[0, 3] + 1e-6
    with np.errstate(invalid="ignore"):
        d, i, j, k = kernels.min_separation_scan(pos)
        assert np.isnan(d) and (i, j, k) == (5, 6, 7)
        assert_scans_match_one_gather(pos)


def test_min_scan_first_nan_of_the_table(random_positions):
    # a NaN coordinate of body 2 makes every pair with it NaN at node 5; the
    # first of them in the table is (0, 2)
    pos = random_positions.copy()
    pos[2, 5, 1] = np.nan
    d, i, j, k = kernels.min_separation_scan(pos)
    assert np.isnan(d) and (i, j, k) == (0, 2, 5)
    assert_scans_match_one_gather(pos)


def test_any_float_layout_gives_contiguous_float64_bits(random_positions):
    pos = random_positions
    strided = np.repeat(pos, 2, axis=1)[:, ::2]
    single = pos.astype(np.float32)
    for given, same in [(np.asfortranarray(pos), pos), (strided, pos),
                        (single, single.astype(np.float64))]:
        assert not given.flags.c_contiguous or given.dtype != np.float64
        for pairs in (None, TABLE):
            assert np.array_equal(kernels.pair_mean_inverse_distance(given, pairs),
                                  kernels.pair_mean_inverse_distance(same, pairs))
            assert kernels.min_separation_scan(given, pairs) == kernels.min_separation_scan(
                same, pairs)
            assert np.array_equal(kernels.pair_forces(given, pairs),
                                  kernels.pair_forces(same, pairs))
        assert np.array_equal(kernels.pair_mean_square_relative_velocity(given),
                              kernels.pair_mean_square_relative_velocity(same))


@pytest.mark.parametrize("n_bodies", [2, 3])
def test_few_bodies_match_one_gather(random_positions, n_bodies):
    assert_scans_match_one_gather(random_positions[:n_bodies])


def test_pair_index_table_cached_read_only():
    assert kernels.pair_index_table(5) is kernels.pair_index_table(5)
    assert not kernels.pair_index_table(5).flags.writeable
    for n in (0, 1):
        assert kernels.pair_index_table(n).shape == (0, 2)


@pytest.mark.parametrize("shape", [(1, 8, 2), (0, 8, 2), (3, 0, 2)])
def test_kernels_refuse_fewer_than_two_bodies_or_no_samples(shape):
    pos = np.zeros(shape)
    kernels_and_args = [
        (kernels.pair_mean_inverse_distance, ()),
        (kernels.pair_mean_square_relative_velocity, ()),
        (kernels.min_separation_scan, ()),
        (kernels.pair_forces, ()),
        (kernels.pair_mean_inverse_distance, ([[0, 1]],)),
        (kernels.min_separation_scan, ([[0, 1]],)),
    ]
    for kernel, args in kernels_and_args:
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            kernel(pos, *args)
