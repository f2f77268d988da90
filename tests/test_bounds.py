import math
import re
import time

import numpy as np
import pytest

from choreocert import bounds
from choreocert.bounds import (
    TimeLattice,
    case_lower_bound,
    collision_closure,
    collision_threshold,
    gordon_periodic,
    gordon_segment,
    lattice_modulus,
    representative_seeds,
    verify_time_lemmas,
)
from choreocert.symmetry import SymmetryParams, pair_kinds

from conftest import (
    PI_TRUNCATION_FACTOR,
    PUBLISHED_BOUNDS,
    REFERENCE_CASES,
    bfs_closure,
    case_seed,
    oracle_case_bound,
    oracle_distinct,
    oracle_threshold,
    oracle_time_lemmas,
)

# Every admissible family (N, N+3) the bounds_family benchmark draws from.
ADMISSIBLE_FAMILIES = [SymmetryParams(n, n + 3, 3, 3, -n) for n in range(4, 39) if n % 3]
# Those families plus every N, r <= 15, with 3 | N, 3 | r and r = 1 included.
LATTICE_GRID = ADMISSIBLE_FAMILIES + [
    SymmetryParams(n, r, 3, 3, -n) for n in range(1, 16) for r in range(1, 16)
]
# A seeded sample of N = 1..60 and r = 1..40, each value of both at least
# once, and the N = 101 class the console-script check runs.
_fold_rng = np.random.default_rng(2028)
_fold_r = _fold_rng.permutation(np.r_[1:41, _fold_rng.integers(1, 41, 20)])
FOLD_GRID = [SymmetryParams(n, int(r), 3, 3, -n) for n, r in zip(range(1, 61), _fold_r)] + [
    SymmetryParams(101, 104, 3, 3, -101)
]


def kepler_circular_minimum(strength, period, n_grid=2_000_000):
    """Oracle: minimize period*(w^2 R^2 / 2 + strength/R) over R, w = 2 pi/period."""
    w = 2 * math.pi / period
    radii = np.linspace(1e-3, 10.0, n_grid) * (strength / w**2) ** (1 / 3)
    values = period * (0.5 * w**2 * radii**2 + strength / radii)
    return values.min()


# Closed forms assembled independently of the lattice engine: each colliding
# pair with an s-tick equal-spaced lattice contributes s^(2/3), a pair with
# relative period p contributes p^(-2/3), everything times
# (3/2) (4 pi^2 / (N+3))^(1/3).
def closed_form_bounds(n, r):
    c = 1.5 * (4 * math.pi**2 / (n + 3)) ** (1 / 3)
    pairs = n * (n - 1) // 2
    adjacent = c * (
        n * (3 * r) ** (2 / 3) + (pairs - n) * 3 ** (2 / 3) + 3 * n + 3 * n ** (2 / 3)
    )
    antipodal = (
        c
        * (
            (n / 2) * (6 * r) ** (2 / 3)
            + (pairs - n / 2) * 3 ** (2 / 3)
            + 3 * n
            + 3 * n ** (2 / 3)
        )
        if n % 2 == 0
        else None
    )
    cross = c * (3 * n * r ** (2 / 3) + pairs * 3 ** (2 / 3) + 3 * n ** (2 / 3))
    triple = c * (3 * (n * r) ** (2 / 3) + pairs * 3 ** (2 / 3) + 3 * n)
    return {"adjacent": adjacent, "antipodal": antipodal, "cross": cross, "triple": triple}


class TestGordon:
    def test_unit_case_against_kepler_oracle(self):
        oracle = kepler_circular_minimum(1.0, 1.0)
        assert abs(gordon_periodic(1.0, 1.0) - oracle) <= 1e-9
        assert abs(gordon_segment(1.0, 1.0) - 1.5 * (2 * math.pi) ** (2 / 3)) <= 1e-12

    def test_strength_homogeneity(self):
        assert abs(gordon_segment(8.0, 0.3) - 4.0 * gordon_segment(1.0, 0.3)) <= 1e-12

    def test_segment_sum_matches_adjacent_pair_term(self):
        # 21 equal segments of length 1/21 at strength 7
        total = 21 * gordon_segment(7.0, 1.0 / 21.0)
        closure = collision_closure(SymmetryParams(4, 7, 3, 3, -4), (1, 2))
        engine = sum(gordon_segment(7.0, d) for d in closure[(1, 2)].durations())
        assert abs(total - engine) <= 1e-12

    def test_sub_period_factor(self):
        # three periods of length 1/3 give a 3^(2/3) gain over one unit period
        a = 7.0
        assert abs(
            3 * gordon_periodic(a, 1.0 / 3.0) - 3 ** (2 / 3) * gordon_periodic(a, 1.0)
        ) <= 1e-12

    def test_monotone_in_duration(self):
        assert gordon_periodic(5.0, 0.9) < gordon_periodic(5.0, 1.0)
        assert gordon_segment(5.0, 0.1) < gordon_segment(5.0, 0.2)

    def test_rejects_nonpositive(self):
        for bad in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)):
            with pytest.raises(ValueError):
                gordon_segment(*bad)
            with pytest.raises(ValueError):
                gordon_periodic(*bad)


class TestClosure:
    def test_adjacent_main_seed(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        closure = collision_closure(params, (1, 2))
        lattice = closure[(1, 2)]
        assert lattice.modulus == 84
        assert lattice.size == 21  # 3r
        assert lattice.ticks == range(0, 84, 4)  # t = i/(3r)
        adjacent = [(1, 2), (2, 3), (3, 4), (1, 4)]
        assert sorted(closure) == sorted(adjacent)
        assert all(closure[p].size == 21 for p in adjacent)

    def test_antipodal_seed_doubles_the_lattice(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        closure = collision_closure(params, (1, 3))
        assert sorted(closure) == [(1, 3), (2, 4)]
        assert closure[(1, 3)].size == 42  # 6r
        assert closure[(1, 3)].ticks == range(0, 84, 2)

    def test_cross_seed_reaches_all_cross_pairs(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        closure = collision_closure(params, (1, 5))
        assert len(closure) == 12  # 3N cross pairs
        assert all(i <= 4 < j for i, j in closure)
        assert all(lat.size == 7 for lat in closure.values())  # r ticks each

    def test_triple_seed_with_shifted_partners(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        closure = collision_closure(params, (5, 6))
        assert sorted(closure) == [(5, 6), (5, 7), (6, 7)]
        base = closure[(5, 6)]
        assert base.size == 28  # N r
        assert base.ticks == range(0, 84, 3)
        L = 84
        shifted_23 = tuple(sorted((t + 2 * L // 3) % L for t in base.ticks))
        shifted_13 = tuple(sorted((t + L // 3) % L for t in base.ticks))
        assert tuple(closure[(6, 7)].ticks) == shifted_23
        assert tuple(closure[(5, 7)].ticks) == shifted_13

    def test_every_lattice_is_arithmetic(self):
        for case in REFERENCE_CASES:
            p = case["params"]
            for _, seed in representative_seeds(p):
                for lattice in collision_closure(p, seed).values():
                    assert lattice.is_arithmetic

    @staticmethod
    def assert_orbit_matches_bfs(params):
        # each representative seed both ways round
        for _, seed in representative_seeds(params):
            for s in (seed, seed[::-1]):
                got = collision_closure(params, s)
                want = bfs_closure(params, s)
                assert list(got.items()) == list(want.items()), (params, s)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_orbit_matches_bfs(self, n):
        # every r, with 3 | N, 3 | r and r = 1 included
        for r in range(1, 16):
            self.assert_orbit_matches_bfs(SymmetryParams(n, r, 3, 3, -n))

    @pytest.mark.parametrize("params", ADMISSIBLE_FAMILIES, ids=repr)
    def test_orbit_matches_bfs_on_admissible_families(self, params):
        self.assert_orbit_matches_bfs(params)

    @pytest.mark.parametrize("params", LATTICE_GRID, ids=repr)
    def test_lattices_are_cosets_of_the_seed_lattice(self, params):
        L = lattice_modulus(params)
        for _, seed in representative_seeds(params):
            closure = collision_closure(params, seed)
            size = closure[seed].size
            for pair, lattice in closure.items():
                assert lattice.size == size, (seed, pair)
                assert lattice.ticks == range(lattice.ticks[0], L, L // size), (seed, pair)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_no_seed_pair_repeats(self, n):
        # N = 1 and N = 2 once listed (1, 2) as two cases
        pairs = [seed for _, seed in representative_seeds(SymmetryParams(n, 7, 3, 3, -n))]
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("params", LATTICE_GRID, ids=repr)
    def test_multiplicities_are_the_closures(self, params):
        n = params.n_main
        kinds = pair_kinds(params)
        covered = []
        for kind in kinds:
            closure = collision_closure(params, kind.pair)
            assert kind.multiplicity == len(closure), kind
            covered += closure
        assert sum(kind.multiplicity for kind in kinds) == (n + 3) * (n + 2) // 2
        assert sorted(covered) == [(i, j) for i in range(1, n + 4) for j in range(i + 1, n + 4)]

    @pytest.mark.parametrize("n, r", [(4, 0), (4, -7), (-4, 7), (0, 7)])
    def test_nonpositive_n_or_r_rejected(self, n, r):
        params = SymmetryParams(n, r, 3, 3, -4)
        with pytest.raises(ValueError, match="N >= 1 and r >= 1"):
            collision_closure(params, (1, 2))
        with pytest.raises(ValueError, match="N >= 1 and r >= 1"):
            collision_threshold(params)
        with pytest.raises(ValueError, match="N >= 1 and r >= 1"):
            verify_time_lemmas(params)

    def test_invalid_seed(self):
        # Bodies are the ints 1..N+3: no float names one, even an integral
        # float, and no bool does.
        params = SymmetryParams(4, 7, 3, 3, -4)
        seeds = [
            (1, 1), (0, 3), (1, 8), (-1, 2), (1, 2.5), (1.0, 2), (2, 3.0), (True, 2),
            (2, False), (np.float64(1.0), 2), (1, 2, 3), (1,), None, "12",
        ]
        for seed in seeds:
            for refuse in (collision_closure, case_lower_bound):
                with pytest.raises(ValueError, match=re.escape(f"seed pair {seed!r} invalid")):
                    refuse(params, seed)

    def test_numpy_int_seed_names_its_bodies(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        seed = (np.int64(2), np.int32(1))
        closure = collision_closure(params, seed)
        assert closure == collision_closure(params, (1, 2))
        assert all(type(i) is int and type(j) is int for i, j in closure)
        case = case_lower_bound(params, seed, "1")
        assert case == case_lower_bound(params, (1, 2), "1")
        assert all(type(i) is int for i in case.pair)


class TestTimeLattice:
    def test_unsorted_ticks_sorted(self):
        assert TimeLattice(84, (40, 4, 83, 0)).ticks == (0, 4, 40, 83)

    def test_out_of_range_ticks_reduced(self):
        assert TimeLattice(84, (-1, 84, 170, 5)).ticks == (0, 2, 5, 83)
        assert tuple(TimeLattice(84, (-3, 5)).ticks) == (5, 81)
        assert tuple(TimeLattice(84, (90, 1)).ticks) == (1, 6)

    def test_numpy_ticks_become_python_ints(self):
        lattice = TimeLattice(84, np.array([50, -2, 7], dtype=np.int64))
        assert lattice.ticks == (7, 50, 82)
        assert all(type(t) is int for t in lattice.ticks)

    def test_empty_ticks(self):
        lattice = TimeLattice(84, ())
        assert lattice.ticks == ()
        assert lattice.size == 0

    def test_empty_lattice_has_no_gaps(self):
        # an empty tick set is no coset, and it has no intervals to list
        lattice = TimeLattice(84, ())
        assert lattice.gaps() == []
        assert lattice.durations() == []
        assert not lattice.is_arithmetic

    def test_closure_lattices_are_ranges(self):
        for params in LATTICE_GRID[:8]:
            for _, seed in representative_seeds(params):
                for lattice in collision_closure(params, seed).values():
                    assert type(lattice.ticks) is range

    @pytest.mark.parametrize(
        "ticks", [(0, 4, 8), (80, 0, 40), (-3, 5), (42,), (2, 89, 176), tuple(range(1, 84, 2))]
    )
    def test_progression_tuples_equal_their_range(self, ticks):
        lattice = TimeLattice(84, ticks)
        reduced = sorted(t % 84 for t in ticks)
        step = reduced[1] - reduced[0] if len(reduced) > 1 else 1
        built = TimeLattice(84, range(reduced[0], reduced[-1] + 1, step))
        assert type(lattice.ticks) is range
        assert lattice == built
        assert hash(lattice) == hash(built)
        assert tuple(lattice.ticks) == tuple(reduced)

    @pytest.mark.parametrize(
        "ticks",
        [
            (0, 4, 40, 83),
            (1, 2, 4),
            (5, 6, 8, 9),
            (-1, 84, 170, 5),
        ],
    )
    def test_other_tuples_stay_tuples_of_ints(self, ticks):
        stored = TimeLattice(84, ticks).ticks
        assert type(stored) is tuple
        assert all(type(t) is int for t in stored)
        assert list(stored) == sorted(t % 84 for t in ticks)

    @pytest.mark.parametrize("seed", range(6))
    def test_is_arithmetic_and_gaps_match_the_tick_list(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            m = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                step = int(rng.integers(1, m + 1))
                start = int(rng.integers(0, step))
                ticks = range(start, int(rng.integers(start, m + 1)), step)
            else:
                ticks = rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False).tolist()
            lattice = TimeLattice(m, ticks)
            ts = sorted(ticks)
            gaps = [b - a for a, b in zip(ts, ts[1:])] + ([m + ts[0] - ts[-1]] if ts else [])
            assert lattice.gaps() == gaps
            assert lattice.is_arithmetic == (len(set(gaps)) == 1)

    @pytest.mark.parametrize("ticks", [(1, 85), (3, 3), (0, -84), (5, 2, 5)])
    def test_duplicate_ticks_rejected(self, ticks):
        with pytest.raises(ValueError, match="duplicate ticks"):
            TimeLattice(84, ticks)

    @pytest.mark.parametrize(
        "ticks", [range(0, 84, 4), range(3, 84, 3), range(83, 84), range(5, 5), range(84)]
    )
    def test_ascending_range_matches_tuple(self, ticks):
        lattice = TimeLattice(84, ticks)
        assert lattice == TimeLattice(84, tuple(ticks))
        assert tuple(lattice.ticks) == tuple(ticks)

    @pytest.mark.parametrize(
        "ticks",
        [
            range(80, 0, -4),  # descending
            range(83, -1, -1),  # descending over all of [0, L)
            range(-6, 60, 12),  # negative start
            range(40, 100, 7),  # stop > L
            range(-84, 0, 5),  # wholly below 0
        ],
    )
    def test_other_ranges_match_tuple(self, ticks):
        lattice = TimeLattice(84, ticks)
        assert lattice == TimeLattice(84, tuple(ticks))

    @pytest.mark.parametrize("ticks", [range(0, 2 * 84), range(-1, 84, 1), range(0, 85, 84)])
    def test_range_duplicates_rejected_like_tuple(self, ticks):
        with pytest.raises(ValueError, match="duplicate ticks"):
            TimeLattice(84, tuple(ticks))
        with pytest.raises(ValueError, match="duplicate ticks"):
            TimeLattice(84, ticks)

    @pytest.mark.parametrize("ticks", [range(0, 84, 4), range(80, 0, -4), range(-7, 70, 12)])
    def test_range_ticks_stored_as_tuple_of_ints(self, ticks):
        stored = TimeLattice(84, ticks).ticks
        assert tuple(stored) == tuple(sorted(t % 84 for t in ticks))
        assert all(type(t) is int for t in stored)


class TestCaseBounds:
    @pytest.mark.parametrize("n", [4, 5, 7, 8, 10, 11])
    def test_engine_matches_closed_forms(self, n):
        r = n + 3
        params = SymmetryParams(n, r, 3, 3, -n)
        forms = closed_form_bounds(n, r)
        checks = [
            ((1, 2), forms["adjacent"]),
            ((1, n + 1), forms["cross"]),
            ((n + 1, n + 2), forms["triple"]),
        ]
        if n % 2 == 0:
            checks.append(((1, n // 2 + 1), forms["antipodal"]))
        if n >= 6:
            checks.append(((1, 3), forms["adjacent"]))  # non-adjacent main orbit of size N
        for seed, want in checks:
            got = case_lower_bound(params, seed).bound
            assert abs(got - want) <= 1e-9 * want, (seed, got, want)

    def test_threshold_is_exact_minimum(self):
        for case in REFERENCE_CASES:
            report = collision_threshold(case["params"])
            assert report.threshold == min(c.bound for c in report.cases)

    @pytest.mark.parametrize(
        "params", ADMISSIBLE_FAMILIES + [SymmetryParams(5, 2, 3, 3, -5)], ids=repr
    )
    def test_threshold_matches_oracle_bitwise(self, params):
        assert collision_threshold(params).to_dict() == oracle_threshold(params).to_dict()

    @pytest.mark.parametrize("params", FOLD_GRID, ids=repr)
    def test_threshold_matches_closure_oracle_bitwise(self, params):
        # The += oracle on collision_closure's lattices: the BFS closure is
        # too slow at N = 101, and test_orbit_matches_bfs ties the two.
        want = oracle_threshold(params, collision_closure)
        assert collision_threshold(params).to_dict() == want.to_dict()

    def test_accumulate_adds_left_to_right(self):
        # The premise of the bounds' bits, checked on every numpy that CI
        # installs: the case rows are folded with np.add.accumulate, which
        # must add along a row in order, as += does, where np.sum adds
        # pairwise. Each 1e-16 is lost against 1.0 one at a time, but not
        # when the small terms meet first.
        terms = [1.0] + [1e-16] * 1000
        table = np.array([terms, terms[::-1]])
        want = []
        for row in table.tolist():
            total = 0.0
            for term in row:
                total += term
            want.append(total)
        assert want[0] == 1.0 and want[1] > 1.0
        assert float(np.sum(table[0])) != want[0]
        assert np.add.accumulate(table, axis=1)[:, -1].tolist() == want

    @pytest.mark.parametrize("entries", [1, 7, 60, 1000])
    def test_table_blocks_change_no_bit(self, monkeypatch, entries):
        # Tables of at most `entries` numbers: one case per table, or a few.
        params_list = [SymmetryParams(n, n + 3, 3, 3, -n) for n in (1, 2, 4, 7, 11, 20)]
        want = [collision_threshold(params) for params in params_list]
        monkeypatch.setattr(bounds, "_TABLE_ENTRIES", entries)
        assert [collision_threshold(params) for params in params_list] == want

    @pytest.mark.parametrize("params", LATTICE_GRID, ids=repr)
    def test_case_bound_matches_walk_oracle_bitwise(self, params):
        for label, seed in representative_seeds(params):
            got = case_lower_bound(params, seed, label)
            want = oracle_case_bound(params, seed, label)
            assert got == want, (params, seed, got.bound, want.bound)

    def test_seed_sum_is_a_sequential_fold(self):
        # A compensated sum (math.fsum, or the builtin sum from Python 3.12 on)
        # rounds some seed lattices' segment sums differently from += in
        # lattice order; the bound follows the += loop on every interpreter.
        differing = 0
        for params in LATTICE_GRID[:6]:
            strength = float(params.n_main + 3)
            for label, seed in representative_seeds(params):
                durations = collision_closure(params, seed)[seed].durations()
                segments = [gordon_segment(strength, d) for d in durations]
                total = 0.0
                for segment in segments:
                    total += segment
                if total != math.fsum(segments):
                    differing += 1
                    assert case_lower_bound(params, seed, label) == oracle_case_bound(
                        params, seed, label
                    )
        assert differing > 0

    def test_threshold_case_structure(self):
        report = collision_threshold(SymmetryParams(4, 7, 3, 3, -4))
        assert [c.label for c in report.cases] == ["1", "3", "4", "5"]
        report = collision_threshold(SymmetryParams(7, 10, 3, 3, -7))
        assert [c.label for c in report.cases] == ["1", "2'(k=1)", "2'(k=2)", "4", "5"]
        assert "N odd" in report.parity

    def test_lattice_refinement_never_decreases_bound(self):
        rng = np.random.default_rng(12)
        L = 84
        for _ in range(20):
            ticks = sorted(rng.choice(L, size=6, replace=False).tolist())
            lattice = TimeLattice(L, tuple(ticks))
            extra = next(t for t in range(L) if t not in ticks)
            refined = TimeLattice(L, tuple(sorted(ticks + [extra])))
            before = sum(gordon_segment(7.0, d) for d in lattice.durations())
            after = sum(gordon_segment(7.0, d) for d in refined.durations())
            assert after >= before

    def test_json_shape(self):
        report = collision_threshold(SymmetryParams(4, 7, 3, 3, -4))
        doc = report.to_dict()
        assert set(doc) == {"cases", "threshold", "parity"}
        assert set(doc["cases"][0]) == {"label", "pair", "lattice_sizes", "bound"}


# The published 4-decimal bound tables (tests/conftest.py) were evaluated
# with pi truncated to 3.1415; exact evaluation runs about 2e-5 relative
# higher. After the truncation factor the engine must reproduce every entry
# to the table's rounding half-unit.
def test_published_tables_explained_by_pi_truncation():
    for (n, kind), published in PUBLISHED_BOUNDS.items():
        params = SymmetryParams(n, n + 3, 3, 3, -n)
        exact = case_lower_bound(params, case_seed(n, kind)).bound
        assert abs(exact * PI_TRUNCATION_FACTOR - published) <= 5e-5, (n, kind)
        # and the exact value itself sits ~2e-5 relative above the table
        assert 1e-5 <= (exact - published) / published <= 4e-5, (n, kind)


class TestTimeLemmas:
    def test_reference_sets_pass_quickly(self):
        for case in REFERENCE_CASES:
            t0 = time.perf_counter()
            report = verify_time_lemmas(case["params"])
            assert time.perf_counter() - t0 < 1.0
            assert report.passed
            names = [c.name for c in report.checks]
            expected = ["rotation-vs-thirds", "thirds-lattice-vs-main-shifts"]
            if case["params"].n_main % 2 == 0:
                # the sixths grids describe the antipodal pair, even N only
                expected += ["rotation-vs-sixths", "sixths-lattice-vs-main-shifts"]
            expected += ["rotation-main-thirds-joint"]
            assert names == expected

    def test_r_multiple_of_3_fails_with_witness(self):
        report = verify_time_lemmas(SymmetryParams(4, 9, 3, 3, -4))
        assert not report.passed
        failure = report.first_failure()
        assert failure.name == "rotation-vs-thirds"
        (i, k0), (j, k1), tick, den = failure.witness
        # the witness really is a coincidence: i/r + k0/3 = j/r + k1/3 (mod 1)
        assert (3 * i + k0 * 9) % den == (3 * j + k1 * 9) % den == tick
        assert (i, k0) != (j, k1)

    def test_extension_sets_pass(self):
        for n in (8, 10, 11):
            assert verify_time_lemmas(SymmetryParams(n, n + 3, 3, 3, -n)).passed

    @pytest.mark.parametrize(
        "params",
        ADMISSIBLE_FAMILIES
        + [
            SymmetryParams(4, 6, 3, 3, -4),  # 3 | r
            SymmetryParams(4, 9, 3, 3, -4),  # 3 | r
            SymmetryParams(6, 7, 3, 3, -6),  # 3 | N
            SymmetryParams(4, 8, 3, 3, -4),  # even r: i/8 + j/6 has 4/8 = 3/6
            SymmetryParams(1, 1, 0, 0, 0),
        ],
        ids=repr,
    )
    def test_matches_loop_oracle(self, params):
        # names, verdicts and first witnesses, down to the int type of each entry
        got, want = verify_time_lemmas(params), oracle_time_lemmas(params)
        assert got == want
        assert repr(got) == repr(want)


# A seeded draw of (N, r) plus classes whose scans fail: 3 | r fails the
# thirds scans, and even N with even r the sixths scans.
_rng = np.random.default_rng(2020)
SCAN_GRID = sorted(
    {(int(n), int(r)) for n, r in _rng.integers(1, 61, size=(40, 2))}
    | {(4, 9), (4, 6), (5, 12), (4, 8), (6, 10), (8, 4), (10, 14), (1, 1), (2, 2), (40, 43)}
)


@pytest.mark.parametrize("n, r", SCAN_GRID)
def test_scans_match_list_oracle(monkeypatch, n, r):
    params = SymmetryParams(n, r, 3, 3, -n)
    got = verify_time_lemmas(params).checks
    monkeypatch.setattr(bounds, "_distinct", oracle_distinct)
    want = verify_time_lemmas(params).checks
    # names, verdicts and witnesses, down to the int type of each entry
    assert got == want
    assert repr(got) == repr(want)


def test_scan_grid_has_failures():
    failing = {
        c.name
        for n, r in SCAN_GRID
        for c in verify_time_lemmas(SymmetryParams(n, r, 3, 3, -n)).checks
        if not c.passed
    }
    assert {"rotation-vs-thirds", "rotation-vs-sixths"} <= failing
