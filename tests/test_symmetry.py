import pytest

from choreocert.symmetry import (
    ROLE_CROSS,
    ROLE_MAIN,
    ROLE_TRIPLE,
    PairKind,
    SymmetryParams,
    allowed_frequencies,
    compatibility_check,
    pair_kinds,
)

import math

import numpy as np

from choreocert.loops import sample

from conftest import REFERENCE_CASES, brute_force_frequencies, random_admissible_system


MEANS_FREE = ("d = 0 (mod r): frequency 0 is admissible, so the chains' means are free "
              "and the zero-mean cross-pair bound does not apply")


class TestCompatibility:
    def test_reference_sets_are_ok(self):
        for case in REFERENCE_CASES:
            result = compatibility_check(case["params"])
            assert result.ok, result.violations

    def test_k1_not_multiple_of_3(self):
        result = compatibility_check(SymmetryParams(4, 7, 3, 4, -4))
        assert not result.ok
        assert "k1 not multiple of 3" in result.violations

    def test_gcd_n_3_violation(self):
        result = compatibility_check(SymmetryParams(6, 7, 3, 3, -6))
        assert not result.ok
        assert "gcd(N,3) != 1" in result.violations

    def test_gcd_r_3_violation(self):
        result = compatibility_check(SymmetryParams(4, 9, 3, 3, -4))
        assert not result.ok
        assert "gcd(r,3) != 1" in result.violations

    def test_winding_congruences(self):
        result = compatibility_check(SymmetryParams(4, 7, 3, 6, -4))
        assert "k1 != d (mod r)" in result.violations
        result = compatibility_check(SymmetryParams(4, 7, 3, 3, -8))
        assert "k2 != d (mod r)" in result.violations

    @pytest.mark.parametrize("n", [4, 5, 7, 8, 10])
    def test_refused_exactly_when_main_bodies_coincide(self, n):
        # every (r, d) with a k1 and a k2 that satisfy the other conditions:
        # the gcd rule refuses the class exactly when a seeded random loop has
        # two main bodies at distance 0 on every node (triple and cross pairs
        # never are), and the d = 0 (mod r) rule refuses every d = 0
        for r in (2, 4, 5, 7, 8, 10):
            for d in range(r):
                k2 = next((k for k in range(0, n * r, n) if (k - d) % r == 0), None)
                if k2 is None:
                    continue
                k1 = next(k for k in range(0, 3 * r, 3) if (k - d) % r == 0)
                params = SymmetryParams(n, r, d, k1, k2)
                violations = compatibility_check(params).violations
                system = random_admissible_system(params, 2 * n * r, seed=n * r + d, min_sep=0.0)
                pos = sample(system, 2 * params.grid_unit).positions
                farthest = {
                    (i, j): np.hypot(*(pos[i] - pos[j]).T).max()
                    for i in range(n + 3) for j in range(i + 1, n + 3)
                }
                forced = {pair for pair, far in farthest.items() if far <= 1e-12}
                g = math.gcd(n, r)
                assert bool(forced) == (g != 1), params
                assert all(i < j < n for i, j in forced)
                coincide = f"gcd(N,r) = {g} != 1: main bodies i and i+{n // g} coincide"
                assert violations == ((coincide,) if g != 1 else ()) + (
                    (MEANS_FREE,) if d == 0 else ())
                if g != 1:
                    assert (0, n // g) in forced

    def test_small_n_reported(self):
        result = compatibility_check(SymmetryParams(2, 7, 3, 3, -2))
        assert "N < 4" in result.violations

    def test_d_stored_modulo_r(self):
        assert SymmetryParams(4, 7, 10, 3, -4).d == 3
        assert SymmetryParams(4, 7, -4, 3, -4).d == 3

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            SymmetryParams(4.0, 7, 3, 3, -4)


class TestJsonForm:
    def test_json_form_round_trip(self):
        params = SymmetryParams(4, 7, 10, 3, -4)
        assert params.to_dict() == {"n": 4, "r": 7, "d": 3, "k1": 3, "k2": -4}
        assert SymmetryParams.from_dict(params.to_dict()) == params
        assert SymmetryParams.from_dict({"n": 4.0, "r": 7, "d": 10, "k1": 3.0, "k2": -4}) == params

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 4.7, "r": 7.9, "d": 3.5, "k1": "3", "k2": -4.2},
            {"n": 4, "r": 7, "d": 3, "k1": 3, "k2": -4.5},
            {"n": 4, "r": 7, "d": 3, "k1": 3, "k2": float("inf")},
            {"n": 4, "r": 7, "d": 3, "k1": 3, "k2": float("nan")},
            {"n": 4, "r": 7, "d": 3, "k1": 3},
            {"n": 4, "r": 7, "d": 3, "k1": 3, "k2": "x"},
            {"n": 4, "r": 7, "d": 3, "k1": 3, "k2": None},
            [4, 7, 3, 3, -4],
            # int() and float() would read both as numbers
            {"n": 4, "r": 7, "d": 3, "k1": True, "k2": -4},
            {"n": 4, "r": "7", "d": 3, "k1": 3, "k2": -4},
        ],
        ids=["fractional", "one-fractional", "infinite", "nan", "missing", "text", "null",
             "list", "bool", "numeric-text"],
    )
    def test_json_form_refuses_non_integers(self, doc):
        with pytest.raises(ValueError, match="'params' must map n, r, d, k1 and k2 to integers"):
            SymmetryParams.from_dict(doc)


def progression_frequencies(params, role, cutoff):
    """The admissible |m| <= cutoff as one arithmetic progression, or None if empty.

    The two congruences m = 0 (mod a), a = 3 (main) or N (triple), and
    m = d (mod r) meet in the residue class of their smallest nonnegative
    common solution modulo lcm(a, r), if there is one.
    """
    a = 3 if role == ROLE_MAIN else params.n_main
    r = params.r
    step = math.lcm(a, r)
    anchor = next((m for m in range(step) if m % a == 0 and (m - params.d) % r == 0), None)
    if anchor is None:
        return None
    lo = -((cutoff + anchor) // step)
    hi = (cutoff - anchor) // step
    freqs = [anchor + k * step for k in range(lo, hi + 1)]
    return [m for m in freqs if -cutoff <= m <= cutoff] or None


class TestAllowedFrequencies:
    def test_main_example(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        assert allowed_frequencies(params, "main", 24) == [-18, 3, 24]

    def test_triple_example(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        assert allowed_frequencies(params, "triple", 28) == [-4, 24]

    def test_triple_small_cutoff(self):
        params = SymmetryParams(5, 8, 3, 3, -5)
        assert allowed_frequencies(params, "triple", 5) == [-5]

    def test_generator_frequencies_present(self):
        for case in REFERENCE_CASES:
            p = case["params"]
            assert 3 in allowed_frequencies(p, "main", p.n_main)
            assert -p.n_main in allowed_frequencies(p, "triple", p.n_main)

    @pytest.mark.parametrize("role", ["main", "triple"])
    def test_matches_brute_force_scan(self, role):
        for case in REFERENCE_CASES:
            p = case["params"]
            for cutoff in (p.n_main, 50, 1000):
                assert allowed_frequencies(p, role, cutoff) == brute_force_frequencies(
                    p, role, cutoff
                )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_progression_form(self, n):
        # every r <= 15, d < r, five cutoffs and both roles: 1200 cases per N
        empty = 0
        for r in range(1, 16):
            for d in range(r):
                params = SymmetryParams(n, r, d, 0, 0)
                for cutoff in (1, 2, 5, 24, 48):
                    for role in (ROLE_MAIN, ROLE_TRIPLE):
                        want = progression_frequencies(params, role, cutoff)
                        if want is None:
                            empty += 1
                            with pytest.raises(ValueError, match="empty basis"):
                                allowed_frequencies(params, role, cutoff)
                        else:
                            assert allowed_frequencies(params, role, cutoff) == want
        assert 0 < empty < 1200

    def test_empty_basis_small_cutoff(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        with pytest.raises(ValueError, match="empty basis"):
            allowed_frequencies(params, "main", 2)

    def test_empty_basis_names_the_congruences(self):
        params = SymmetryParams(4, 8, 3, 3, -4)
        with pytest.raises(ValueError, match=r"empty basis: no frequency \|m\| <= 1000 of role "
                           r"'triple' satisfies m = 0 \(mod 4\) and m = 3 \(mod 8\)"):
            allowed_frequencies(params, "triple", 1000)

    def test_empty_basis_unsolvable_congruences(self):
        # gcd(N, r) = 4 does not divide d = 3: no triple frequency exists at all
        params = SymmetryParams(4, 8, 3, 3, -4)
        with pytest.raises(ValueError, match="empty basis"):
            allowed_frequencies(params, "triple", 1000)

    def test_zero_frequency_only_when_d_zero(self):
        assert 0 in allowed_frequencies(SymmetryParams(4, 7, 0, 0, 0), "main", 5)
        assert 0 not in allowed_frequencies(SymmetryParams(4, 7, 3, 3, -4), "main", 30)

    def test_main_set_is_single_progression(self):
        for case in REFERENCE_CASES:
            p = case["params"]
            freqs = allowed_frequencies(p, "main", 500)
            steps = {b - a for a, b in zip(freqs, freqs[1:])}
            assert steps == {3 * p.r}


class TestPairKinds:
    def test_even_n_table(self):
        assert pair_kinds(SymmetryParams(8, 11, 3, 3, -8)) == (
            PairKind(ROLE_MAIN, "1", (1, 2), 1, 8),
            PairKind(ROLE_MAIN, "2(k=1)", (1, 3), 2, 8),
            PairKind(ROLE_MAIN, "2(k=2)", (1, 4), 3, 8),
            PairKind(ROLE_MAIN, "3", (1, 5), 4, 4),
            PairKind(ROLE_CROSS, "4", (1, 9), 0, 24),
            PairKind(ROLE_TRIPLE, "5", (9, 10), 0, 3),
        )

    # N = 1 has no main pair; for N = 2 the adjacent pair is also antipodal
    @pytest.mark.parametrize("n, labels", [(1, ["4", "5"]), (2, ["1", "4", "5"])])
    def test_small_n_labels(self, n, labels):
        assert [k.label for k in pair_kinds(SymmetryParams(n, 7, 3, 3, -n))] == labels
