"""Tests for the closed-form p-adic valuations of U_n and V_n."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucas_rank.errors import Degenerate, NotCoprime, NotPrime, PrimeDividesB, ZeroArgument
from lucas_rank.lucas_core import make_params, u_exact, v_exact
from lucas_rank.rank import is_prime
from lucas_rank.valuation import Valuation, nu_int, nu_u, nu_v
from oracles import nu_slow

GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (3, -1), (4, -3)]


class TestNuInt:
    @pytest.mark.parametrize(
        "p,x,expected",
        [(2, 144, 4), (5, 75025, 2), (3, -45, 2), (7, 10, 0), (2, 1, 0)],
    )
    def test_known_values(self, p, x, expected):
        r = nu_int(p, x)
        assert r == Valuation(expected, p)

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            nu_int(3, 0)

    @pytest.mark.parametrize("p", [1, 4, 9, 15])
    def test_composite_rejected(self, p):
        with pytest.raises(NotPrime):
            nu_int(p, 10)


class TestNuU:
    @pytest.mark.parametrize(
        "a,b,p,n,expected,case",
        [
            (1, 1, 5, 25, 2, "p|delta,p|n"),
            (1, 1, 5, 7, 0, "p|delta,p!|n"),
            (1, 1, 2, 12, 4, "2!|a,3|n,2|n"),
            (1, 1, 2, 3, 1, "2!|a,3|n,2!|n"),
            (1, 1, 2, 7, 0, "2!|a,3!|n"),
            (1, 1, 7, 16, 1, "p!|delta,tau|n"),
            (1, 1, 7, 6, 0, "p!|delta,tau!|n"),
            (2, 1, 2, 12, 2, "2|a,2|n"),
            (2, 1, 2, 7, 0, "2|a,2!|n"),
            (3, -1, 2, 6, 4, "2!|a,3|n,2|n"),
            (4, -3, 2, 4, 3, "2|a,2|n"),
        ],
    )
    def test_known_values(self, a, b, p, n, expected, case):
        params = make_params(a, b)
        r = nu_u(params, p, n)
        assert (r.value, r.prime, r.case) == (expected, p, case)
        assert r.value == nu_slow(p, u_exact(params, n))

    def test_prime_dividing_b_rejected(self):
        with pytest.raises(PrimeDividesB):
            nu_u(make_params(1, 2), 2, 6)
        with pytest.raises(PrimeDividesB):
            nu_u(make_params(4, -3), 3, 6)

    def test_bad_index(self):
        with pytest.raises(ZeroArgument):
            nu_u(make_params(1, 1), 3, 0)
        with pytest.raises(ValueError):
            nu_u(make_params(1, 1), 3, -4)

    def test_composite_p(self):
        with pytest.raises(NotPrime):
            nu_u(make_params(1, 1), 6, 10)

    @pytest.mark.parametrize("a,b", GRID)
    def test_matches_direct_valuation(self, a, b):
        params = make_params(a, b)
        useq = [u_exact(params, n) for n in range(0, 81)]
        for p in (2, 3, 5, 7, 11, 13):
            if b % p == 0:
                continue
            for n in range(1, 81):
                assert nu_u(params, p, n).value == nu_slow(p, useq[n]), (a, b, p, n)

    @pytest.mark.parametrize("a,b", GRID)
    def test_case_tags_partition(self, a, b):
        params = make_params(a, b)
        odd_tags = {"p|delta,p|n", "p|delta,p!|n", "p!|delta,tau|n", "p!|delta,tau!|n"}
        two_tags = {"2|a,2|n", "2|a,2!|n", "2!|a,3|n,2|n", "2!|a,3|n,2!|n", "2!|a,3!|n"}
        for p in (2, 3, 5):
            if b % p == 0:
                continue
            for n in range(1, 30):
                tag = nu_u(params, p, n).case
                assert tag in (two_tags if p == 2 else odd_tags)


class TestNuV:
    @pytest.mark.parametrize(
        "a,b,p,n,expected,case",
        [
            (1, 1, 11, 5, 1, "tau!|n,tau|2n"),
            (1, 1, 11, 10, 0, "otherwise"),
            (1, 1, 3, 2, 1, "tau!|n,tau|2n"),
            (1, 1, 2, 3, 2, "2!|a,3|n,2!|n"),
            (1, 1, 2, 6, 1, "2!|a,3|n,2|n"),
            (1, 1, 2, 4, 0, "2!|a,3!|n"),
            (2, 1, 2, 2, 1, "2|a,2|n"),
            (2, 1, 2, 3, 1, "2|a,2!|n"),
            (1, 1, 5, 10, 0, "otherwise"),
        ],
    )
    def test_known_values(self, a, b, p, n, expected, case):
        params = make_params(a, b)
        r = nu_v(params, p, n)
        assert (r.value, r.prime, r.case) == (expected, p, case)
        assert r.value == nu_slow(p, v_exact(params, n))

    def test_prime_dividing_b_rejected(self):
        with pytest.raises(PrimeDividesB):
            nu_v(make_params(1, 2), 2, 6)

    def test_bad_index(self):
        with pytest.raises(ZeroArgument):
            nu_v(make_params(1, 1), 3, 0)

    @pytest.mark.parametrize("a,b", GRID)
    def test_matches_direct_valuation(self, a, b):
        params = make_params(a, b)
        vseq = [v_exact(params, n) for n in range(0, 81)]
        for p in (2, 3, 5, 7, 11, 13):
            if b % p == 0:
                continue
            for n in range(1, 81):
                assert nu_v(params, p, n).value == nu_slow(p, vseq[n]), (a, b, p, n)


class TestStructuralFacts:
    def _odd_pairs(self, residue):
        out = []
        for a in range(1, 16, 2):
            for b in range(-15, 16):
                if b % 4 != residue or math.gcd(a, b) != 1:
                    continue
                try:
                    out.append(make_params(a, b))
                except (NotCoprime, Degenerate):
                    continue
        return out

    def test_u6_factors_through_u3(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                try:
                    p = make_params(a, b)
                except (NotCoprime, Degenerate):
                    continue
                assert u_exact(p, 6) == a * u_exact(p, 3) * (a * a + 3 * b)

    def test_even_valuations_when_b_is_1_mod_4(self):
        pairs = self._odd_pairs(1)
        assert len(pairs) >= 20
        for p in pairs:
            u3, u6 = u_exact(p, 3), u_exact(p, 6)
            assert nu_slow(2, u3) == 1
            assert nu_slow(2, u6) == nu_slow(2, p.a * p.a + 3 * p.b) + 1

    def test_even_valuations_when_b_is_3_mod_4(self):
        pairs = self._odd_pairs(3)
        assert len(pairs) >= 20
        for p in pairs:
            u3, u6 = u_exact(p, 3), u_exact(p, 6)
            assert nu_slow(2, u3) >= 2
            assert nu_slow(2, u6) == nu_slow(2, u3) + 1


def _valid(ab):
    try:
        make_params(*ab)
    except (NotCoprime, Degenerate):
        return False
    return True


# (a, b) with |a|, |b| <= 10^6, coprime and non-degenerate; delta < 0 included
_params_st = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).filter(_valid)


@given(_params_st, st.data())
@settings(max_examples=100, deadline=None)
def test_closed_forms_match_direct_valuation_for_random_params(ab, data):
    params = make_params(*ab)
    p = data.draw(st.sampled_from([p for p in range(2, 50) if is_prime(p) and ab[1] % p]))
    n = data.draw(st.integers(1, 300))
    assert nu_u(params, p, n).value == nu_slow(p, u_exact(params, n))
    assert nu_v(params, p, n).value == nu_slow(p, v_exact(params, n))
