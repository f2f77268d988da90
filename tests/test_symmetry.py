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

from conftest import REFERENCE_CASES, brute_force_frequencies


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

    def test_small_n_reported(self):
        result = compatibility_check(SymmetryParams(2, 7, 3, 3, -2))
        assert "N < 4" in result.violations

    def test_d_stored_modulo_r(self):
        assert SymmetryParams(4, 7, 10, 3, -4).d == 3
        assert SymmetryParams(4, 7, -4, 3, -4).d == 3

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            SymmetryParams(4.0, 7, 3, 3, -4)


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

    def test_empty_basis_small_cutoff(self):
        params = SymmetryParams(4, 7, 3, 3, -4)
        with pytest.raises(ValueError, match="empty basis"):
            allowed_frequencies(params, "main", 2)

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
