import math

import pytest

from ffgeom.bounds import (
    CHAR_P,
    GENERAL,
    INFINITE,
    MAX_M,
    BoundInputs,
    bound_M,
    ceil_log,
    popa_n,
    rank_pipeline,
)
from ffgeom.errors import InvalidRank, SizeLimitExceeded


class TestInputs:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            BoundInputs(0, 1, 1)
        with pytest.raises(ValueError):
            BoundInputs(1, 1, 0)

    def test_char_p_needs_prime(self):
        with pytest.raises(ValueError):
            BoundInputs(1, 1, 1, CHAR_P)

    @pytest.mark.parametrize("p", [4, 9, 561, 3317044064679887385961981, 10 ** 36])
    def test_char_p_refuses_composite_or_past_exact_range(self, p):
        # 561 is a Carmichael number; the last two lie past the range where
        # thirteen Miller-Rabin bases decide primality exactly
        with pytest.raises(ValueError, match="needs a prime p"):
            BoundInputs(1, 1, 1, CHAR_P, p=p)

    @pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (2 ** 61 - 1, 1)])
    def test_char_p_accepts_prime(self, p, m):
        # M = ceil(log_p 3)
        assert bound_M(BoundInputs(1, 1, 1, CHAR_P, p=p)) == m

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            BoundInputs(1, 1, 1, "weird")


class TestCeilLog:
    def test_edge_cases(self):
        assert ceil_log(2, 1) == 0
        assert ceil_log(2, 2) == 1
        assert ceil_log(2, 3) == 2
        assert ceil_log(10, 1000) == 3
        assert ceil_log(10, 1001) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            ceil_log(1, 5)
        with pytest.raises(ValueError):
            ceil_log(2, 0)

    @pytest.mark.parametrize("base", range(2, 8))
    def test_against_naive_oracle(self, base):
        for x in list(range(1, 3000)) + [10 ** 6, 10 ** 6 + 1]:
            e = ceil_log(base, x)
            assert base ** e >= x
            assert e == 0 or base ** (e - 1) < x


class TestBoundM:
    def test_spot_values(self):
        assert bound_M(BoundInputs(1, 2, 5)) == 6
        assert bound_M(BoundInputs(2, 3, 1)) == 12
        assert bound_M(BoundInputs(1, 2, 5, INFINITE)) == 2
        assert bound_M(BoundInputs(1, 2, 5, CHAR_P, p=5)) == 2

    def test_infinite_ignores_everything_but_alpha(self):
        for n in range(1, 5):
            for beta in range(1, 20):
                assert bound_M(BoundInputs(n, 7, beta, INFINITE)) == 7

    def test_monotone_in_each_argument(self):
        base = bound_M(BoundInputs(2, 3, 4))
        assert bound_M(BoundInputs(3, 3, 4)) >= base
        assert bound_M(BoundInputs(2, 4, 4)) >= base
        assert bound_M(BoundInputs(2, 3, 9)) >= base

    def test_mode_ordering(self):
        # larger log base never increases the bound; dropping the log
        # altogether (infinite mode) is smallest
        for n in range(1, 4):
            for alpha in range(1, 6):
                for beta in range(1, 12):
                    inf = bound_M(BoundInputs(n, alpha, beta, INFINITE))
                    gen = bound_M(BoundInputs(n, alpha, beta))
                    chp = bound_M(BoundInputs(n, alpha, beta, CHAR_P, p=5))
                    assert inf <= chp <= gen


class TestThreshold:
    def test_spot_values(self):
        assert popa_n(1) == 1
        assert popa_n(2) == 2
        assert popa_n(3) == 3
        assert popa_n(5) == 7

    def test_minimality(self):
        for r in range(1, 60):
            n = popa_n(r)
            assert 4 * n >= r * r + 1
            assert 4 * (n - 1) < r * r + 1

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            popa_n(0)


class TestPipeline:
    def test_acceptance_instance(self):
        rep = rank_pipeline(g=2, r=2, d=1, moduli_alpha=2, moduli_beta=5)
        assert rep.h == 1 and rep.rbar == 2 and rep.dbar == 1
        assert rep.n_popa == 2 and rep.rank_f1 == 4
        assert rep.M == 6
        assert rep.R == 4 * math.factorial(6) == 2880

    def test_gcd_reduction(self):
        rep = rank_pipeline(g=3, r=4, d=6, moduli_alpha=1, moduli_beta=1)
        assert rep.h == 2 and rep.rbar == 2 and rep.dbar == 3

    def test_divisibility_structure(self):
        rep = rank_pipeline(g=2, r=3, d=2, moduli_alpha=2, moduli_beta=3)
        assert rep.R % rep.rank_f1 == 0
        assert rep.R % rep.R_lcm_variant == 0
        assert rep.R == rep.n_popa * rep.rbar * math.factorial(rep.M)

    def test_source_target_invariants(self):
        rep = rank_pipeline(g=2, r=2, d=1, moduli_alpha=2, moduli_beta=5)
        assert rep.source_rank == rep.n_popa * rep.rbar
        assert rep.source_degree == rep.n_popa * (rep.rbar * (rep.g - 1) - rep.dbar)
        assert rep.target_rank == rep.n_popa * rep.r * rep.rbar
        assert rep.target_degree == rep.target_rank * (rep.g - 1)

    def test_json_dict_big_integer_as_string(self):
        rep = rank_pipeline(g=2, r=5, d=3, moduli_alpha=6, moduli_beta=2)
        d = rep.as_json_dict()
        assert d["R"] == str(rep.R)
        assert int(d["R"]) == rep.R
        assert "e+" in d["R_scientific"]

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            rank_pipeline(g=2, r=0, d=1, moduli_alpha=1, moduli_beta=1)

    def test_mode_passthrough(self):
        inf = rank_pipeline(2, 2, 1, 2, 5, field_mode=INFINITE)
        chp = rank_pipeline(2, 2, 1, 2, 5, field_mode=CHAR_P, char=5)
        gen = rank_pipeline(2, 2, 1, 2, 5, field_mode=GENERAL)
        assert inf.M == 2 and chp.M == 2 and gen.M == 6
        assert inf.R <= chp.R <= gen.R

    def test_M_budget(self):
        # over infinite fields M = alpha
        assert rank_pipeline(2, 2, 1, MAX_M, 1, field_mode=INFINITE).M == MAX_M
        with pytest.raises(SizeLimitExceeded):
            rank_pipeline(2, 2, 1, MAX_M + 1, 1, field_mode=INFINITE)
