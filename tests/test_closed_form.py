"""Tests for the product rank-of-apparition closed forms."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lucas_rank.closed_form import (
    ClosedFormResult,
    tau_triple,
    tau_um_un,
    tau_um_vn,
    tau_vm_vn,
)
from lucas_rank.errors import BadRange, Degenerate, NotCoprime, NotEligible, NotOddPrime
from lucas_rank.lucas_core import make_params, u_exact, v_exact
from lucas_rank.rank import FACTOR_BOUND, tau_min_divisor_oracle, tau_scan

GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (3, -1), (4, -3)]


class TestUmVn:
    @pytest.mark.parametrize(
        "a,b,m,n,expected,label",
        [
            (1, 1, 4, 6, 36, "lcm*V_d"),
            (1, 1, 3, 6, 12, "2lcm"),
            (1, 1, 3, 3, 6, "2lcm"),
            (2, 1, 4, 6, 72, "lcm*V_d"),
        ],
    )
    def test_known_values(self, a, b, m, n, expected, label):
        r = tau_um_vn(make_params(a, b), m, n)
        assert (r.value, r.case_label) == (expected, label)

    def test_ingredients(self):
        r = tau_um_vn(make_params(1, 1), 4, 6)
        assert r.ingredients["d"] == 2
        assert r.ingredients["lcm"] == 12
        assert r.ingredients["V_d"] == 3
        assert (r.ingredients["nu2_m"], r.ingredients["nu2_n"]) == (2, 1)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (4, -3)])
    def test_matches_oracles(self, a, b):
        params = make_params(a, b)
        for m in range(3, 13):
            for n in range(3, 13):
                r = tau_um_vn(params, m, n)
                target = abs(u_exact(params, m) * v_exact(params, n))
                assert tau_min_divisor_oracle(params, target, r.value).value == r.value
                if r.value < 10**6:
                    assert tau_scan(params, target, cap=r.value + 1).value == r.value

    @pytest.mark.parametrize("a,b", GRID)
    def test_lower_bound_divides(self, a, b):
        params = make_params(a, b)
        for m in range(3, 16):
            for n in range(3, 16):
                assert tau_um_vn(params, m, n).value % math.lcm(m, 2 * n) == 0


class TestUmUn:
    @pytest.mark.parametrize(
        "a,b,m,n,expected",
        [
            (1, 1, 6, 9, 36),
            (1, 1, 5, 7, 35),
            (2, 1, 4, 6, 24),
            (4, -3, 6, 9, 234),
        ],
    )
    def test_known_values(self, a, b, m, n, expected):
        r = tau_um_un(make_params(a, b), m, n)
        assert r.value == expected
        assert r.case_label == "lcm*U_d"
        assert r.ingredients["U_d"] == u_exact(make_params(a, b), r.ingredients["d"])

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (4, -3)])
    def test_matches_oracles(self, a, b):
        params = make_params(a, b)
        for m in range(3, 13):
            for n in range(3, 13):
                r = tau_um_un(params, m, n)
                target = abs(u_exact(params, m) * u_exact(params, n))
                assert tau_min_divisor_oracle(params, target, r.value).value == r.value

    @pytest.mark.parametrize("a,b", GRID)
    def test_lower_bound_divides(self, a, b):
        params = make_params(a, b)
        for m in range(3, 16):
            for n in range(3, 16):
                assert tau_um_un(params, m, n).value % math.lcm(m, n) == 0


class TestVmVn:
    @pytest.mark.parametrize(
        "a,b,m,n,expected,label,condition",
        [
            (1, 1, 3, 6, 12, "lcm*gcd", "2!|b,2!|a,3|d"),
            (1, 1, 6, 6, 108, "lcm*gcd", "2!|b,2!|a,3|d"),
            (1, 1, 4, 5, 40, "2lcm*gcd", "2!|b,2!|a,3!|d"),
            (2, 1, 4, 6, 24, "lcm*gcd", "2!|b,2|a,2|d"),
            (2, 1, 3, 6, 12, "lcm*gcd", "2!|b,2|a,2!|d,nu2!="),
            (2, 1, 3, 5, 60, "2lcm*gcd", "2!|b,2|a,2!|d,nu2="),
            (1, 2, 3, 4, 24, "2lcm*gcd", "2|b"),
        ],
    )
    def test_known_values(self, a, b, m, n, expected, label, condition):
        r = tau_vm_vn(make_params(a, b), m, n)
        assert (r.value, r.case_label) == (expected, label)
        assert r.ingredients["condition"] == condition

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 2)])
    def test_matches_oracles(self, a, b):
        params = make_params(a, b)
        for m in range(3, 13):
            for n in range(3, 13):
                r = tau_vm_vn(params, m, n)
                target = abs(v_exact(params, m) * v_exact(params, n))
                assert tau_min_divisor_oracle(params, target, r.value).value == r.value

    @pytest.mark.parametrize("a,b", GRID)
    def test_lower_bound_divides(self, a, b):
        params = make_params(a, b)
        for m in range(3, 16):
            for n in range(3, 16):
                assert tau_vm_vn(params, m, n).value % (2 * math.lcm(m, n)) == 0

    def test_reduces_to_three_divides_both_at_1_1(self):
        # at (1,1) the single-lcm arm fires exactly when 3 | m and 3 | n
        params = make_params(1, 1)
        for m in range(3, 20):
            for n in range(3, 20):
                r = tau_vm_vn(params, m, n)
                expect_single = m % 3 == 0 and n % 3 == 0
                assert (r.case_label == "lcm*gcd") == expect_single, (m, n)


class TestTriple:
    @pytest.mark.parametrize(
        "a,b,n,p,expected,label",
        [
            (1, 1, 50, 5, 82500, "p|n,2|n"),
            (1, 1, 1, 3, 28, "p!|n,2!|n"),
            (1, 1, 2, 3, 40, "p!|n,2|n"),
            (1, 1, 3, 3, 72, "p|n,2!|n"),
            (1, 1, 6, 3, 576, "p|n,2|n"),
            (2, 1, 2, 3, 80, "p!|n,2|n"),
        ],
    )
    def test_known_values(self, a, b, n, p, expected, label):
        r = tau_triple(make_params(a, b), n, p)
        assert (r.value, r.case_label) == (expected, label)

    def test_benchmark_ingredients(self):
        r = tau_triple(make_params(1, 1), 50, 5)
        assert r.ingredients["product"] == 50 * 55 * 60
        assert r.ingredients["U_p"] == 5
        assert r.ingredients["V_p"] == 11
        assert r.ingredients["gcd_V_p_quot"] == 11

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (4, -3)])
    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_oracle(self, a, b, p):
        params = make_params(a, b)
        for n in range(1, 16):
            r = tau_triple(params, n, p)
            target = abs(
                u_exact(params, n) * u_exact(params, n + p) * u_exact(params, n + 2 * p)
            )
            assert tau_min_divisor_oracle(params, target, r.value).value == r.value

    def test_even_case_uses_plain_product_half_at_1_1(self):
        # a = 1 makes the a/gcd(a, n+p) correction vanish
        params = make_params(1, 1)
        for p in (3, 5, 7):
            for n in range(1, 40):
                if n % p == 0 or n % 2 != 0:
                    continue
                r = tau_triple(params, n, p)
                assert r.value == n * (n + p) * (n + 2 * p) // 2

    @pytest.mark.parametrize("a,b", GRID)
    def test_lower_bound_divides(self, a, b):
        params = make_params(a, b)
        for p in (3, 5):
            for n in range(1, 20):
                r = tau_triple(params, n, p)
                assert r.value % math.lcm(n, n + p, n + 2 * p) == 0


class TestGuards:
    def test_result_shape(self):
        r = tau_um_un(make_params(1, 1), 6, 9)
        assert isinstance(r, ClosedFormResult)
        assert r.value > 0

    @pytest.mark.parametrize("a,b", [(1, -2), (-3, -5), (-1, 1)])
    def test_ineligible_rejected(self, a, b):
        params = make_params(a, b)
        with pytest.raises(NotEligible):
            tau_um_vn(params, 4, 6)
        with pytest.raises(NotEligible):
            tau_um_un(params, 4, 6)
        with pytest.raises(NotEligible):
            tau_vm_vn(params, 4, 6)
        with pytest.raises(NotEligible):
            tau_triple(params, 4, 3)

    @pytest.mark.parametrize("m,n", [(2, 6), (6, 2), (0, 3), (3, -1)])
    def test_pair_range_rejected(self, m, n):
        params = make_params(1, 1)
        for fn in (tau_um_vn, tau_um_un, tau_vm_vn):
            with pytest.raises(BadRange):
                fn(params, m, n)

    def test_triple_range_rejected(self):
        params = make_params(1, 1)
        with pytest.raises(BadRange):
            tau_triple(params, 0, 3)
        with pytest.raises(NotOddPrime):
            tau_triple(params, 5, 2)
        with pytest.raises(NotOddPrime):
            tau_triple(params, 5, 9)
        with pytest.raises(NotOddPrime):
            tau_triple(params, 5, 15)


def _eligible(ab):
    try:
        return make_params(*ab).theorem_eligible
    except (NotCoprime, Degenerate):
        return False


# eligible (a, b) with a <= 40 and b <= 100: with the pair indices below
# every closed-form value is one the oracle's strip can factor (below FACTOR_BOUND)
_eligible_st = st.integers(1, 40).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(-(a * a // 4), 100))).filter(_eligible)
_PRODUCTS = {
    tau_um_vn: lambda params, m, n: u_exact(params, m) * v_exact(params, n),
    tau_um_un: lambda params, m, n: u_exact(params, m) * u_exact(params, n),
    tau_vm_vn: lambda params, m, n: v_exact(params, m) * v_exact(params, n),
}


@pytest.mark.parametrize("form", _PRODUCTS, ids=lambda f: f.__name__)
@given(_eligible_st, st.integers(3, 10), st.integers(3, 10))
@settings(max_examples=60, deadline=None)
def test_pair_forms_match_oracle_for_random_params(form, ab, m, n):
    params = make_params(*ab)
    value = form(params, m, n).value
    target = _PRODUCTS[form](params, m, n)
    assert tau_min_divisor_oracle(params, target, value).value == value


# every p reaches all four branches for n <= 15; a point whose closed-form
# value passes FACTOR_BOUND, the most the oracle's strip can factor, is skipped
_triple_points_st = st.tuples(st.integers(1, 15), st.sampled_from([3, 5, 7]))


@given(_eligible_st, _triple_points_st)
@settings(max_examples=60, deadline=None)
def test_triple_matches_oracle_for_random_params(ab, point):
    params = make_params(*ab)
    n, p = point
    value = tau_triple(params, n, p).value
    assume(value <= FACTOR_BOUND)
    target = u_exact(params, n) * u_exact(params, n + p) * u_exact(params, n + 2 * p)
    assert tau_min_divisor_oracle(params, target, value).value == value
