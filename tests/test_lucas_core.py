"""Tests for parameter validation and sequence evaluation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucas_rank.closed_form import tau_triple
from lucas_rank.errors import Degenerate, NotCoprime, TooLarge, ZeroModulus
from lucas_rank.gcd_identities import gcd_uu
from lucas_rank.lucas_core import (
    EXACT_INDEX_CAP,
    make_params,
    u_exact,
    v_exact,
    uv_mod,
)
from lucas_rank.rank import factorize, tau
from lucas_rank.valuation import nu_int
from lucas_rank.verifier import THEOREM_TABLE, check_delta_negative_fixtures
from oracles import strong_probable_prime

GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (3, -1), (4, -3)]
NEG_DELTA = [(-3, -5), (1, -2), (4, -5), (2, -3)]


def _valid_small_params():
    out = []
    for a in range(-8, 9):
        for b in range(-8, 9):
            try:
                out.append(make_params(a, b))
            except (NotCoprime, Degenerate):
                pass
    return out

VALID_SMALL = _valid_small_params()


def _u_list(params, count):
    # reference recurrence, kept separate from the library's ladder
    seq = [0, 1]
    while len(seq) < count:
        seq.append(params.a * seq[-1] + params.b * seq[-2])
    return seq[:count]


def _matrix_power(a, b, n, modulus):
    # right-to-left square-and-multiply, a route apart from the library's ladder
    result = [[1 % modulus, 0], [0, 1 % modulus]]
    base = [[a % modulus, b % modulus], [1 % modulus, 0]]
    while n:
        if n & 1:
            result = _matrix_product(result, base, modulus)
        base = _matrix_product(base, base, modulus)
        n >>= 1
    return result


def _matrix_product(x, y, modulus):
    (p, q), (r, s) = x
    (t, u), (v, w) = y
    return [
        [(p * t + q * v) % modulus, (p * u + q * w) % modulus],
        [(r * t + s * v) % modulus, (r * u + s * w) % modulus],
    ]


def _v_list(params, count):
    seq = [2, params.a]
    while len(seq) < count:
        seq.append(params.a * seq[-1] + params.b * seq[-2])
    return seq[:count]


class TestMakeParams:
    def test_fields(self):
        p = make_params(1, 1)
        assert (p.a, p.b, p.delta) == (1, 1, 5)
        assert p.theorem_eligible

    def test_delta(self):
        assert make_params(4, -3).delta == 4
        assert make_params(1, -2).delta == -7
        assert make_params(2, -3).delta == -8

    def test_eligibility_needs_positive_a_and_delta(self):
        assert make_params(4, -3).theorem_eligible
        assert not make_params(1, -2).theorem_eligible
        assert not make_params(-3, -1).theorem_eligible
        assert not make_params(-1, 1).theorem_eligible

    @pytest.mark.parametrize("a,b", [(2, 4), (6, 3), (0, 2), (10, -5)])
    def test_shared_factor_rejected(self, a, b):
        with pytest.raises(NotCoprime):
            make_params(a, b)

    @pytest.mark.parametrize(
        "a,b",
        [(2, -1), (-2, -1), (1, -1), (-1, -1), (0, 1), (0, -1), (1, 0), (-1, 0)],
    )
    def test_degenerate_rejected(self, a, b):
        with pytest.raises(Degenerate):
            make_params(a, b)


# one instance of each of the package's ten record types
RECORDS = {
    "LucasParams": lambda: make_params(1, 1),
    "Factorization": lambda: factorize(12),
    "TauResult": lambda: tau(make_params(1, 1), 77),
    "GcdWitness": lambda: gcd_uu(make_params(1, 1), 9, 15),
    "Valuation": lambda: nu_int(2, 12),
    "ClosedFormResult": lambda: tau_triple(make_params(1, 1), 5, 3),
    "Theorem": lambda: THEOREM_TABLE["triple"],
    "SweepCell": lambda: check_delta_negative_fixtures().cells[0],
    "SweepSummary": lambda: check_delta_negative_fixtures().summary,
    "SweepReport": check_delta_negative_fixtures,
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_read_only(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


class TestExactValues:
    @pytest.mark.parametrize(
        "a,b,row",
        [
            (1, 1, [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]),
            (2, 1, [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741, 13860]),
            (3, 1, [0, 1, 3, 10, 33, 109, 360, 1189, 3927, 12970, 42837]),
            (1, 2, [0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683, 1365]),
            (3, 2, [0, 1, 3, 11, 39, 139, 495, 1763, 6279, 22363, 79647]),
            (3, -1, [0, 1, 3, 8, 21, 55, 144, 377, 987, 2584, 6765]),
            (4, -3, [0, 1, 4, 13, 40, 121, 364, 1093, 3280, 9841, 29524]),
            (1, -2, [0, 1, 1, -1, -3, -1, 5, 7, -3, -17, -11, 23, 45]),
            (-3, -5, [0, 1, -3, 4, 3, -29, 72]),
            (2, -3, [0, 1, 2, 1, -4, -11, -10]),
        ],
    )
    def test_u_rows(self, a, b, row):
        p = make_params(a, b)
        assert [u_exact(p, n) for n in range(len(row))] == row

    @pytest.mark.parametrize(
        "a,b,row",
        [
            (1, 1, [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322]),
            (2, 1, [2, 2, 6, 14, 34, 82, 198, 478, 1154, 2786, 6726]),
            (1, 2, [2, 1, 5, 7, 17, 31, 65, 127, 257, 511, 1025]),
            (3, 2, [2, 3, 13, 45, 161, 573, 2041, 7269, 25889]),
            (3, -1, [2, 3, 7, 18, 47, 123, 322, 843, 2207, 5778, 15127]),
            (4, -3, [2, 4, 10, 28, 82, 244, 730, 2188, 6562, 19684]),
            (1, -2, [2, 1, -3, -5, 1, 11, 9, -13, -31, -5, 57, 67, -47]),
            (4, -5, [2, 4, 6, 4, -14]),
        ],
    )
    def test_v_rows(self, a, b, row):
        p = make_params(a, b)
        assert [v_exact(p, n) for n in range(len(row))] == row

    @pytest.mark.parametrize("a,b", GRID + NEG_DELTA)
    def test_initial_terms(self, a, b):
        p = make_params(a, b)
        assert u_exact(p, 0) == 0
        assert u_exact(p, 1) == 1
        assert v_exact(p, 0) == 2
        assert v_exact(p, 1) == a

    def test_negative_index_rejected(self):
        p = make_params(1, 1)
        with pytest.raises(ValueError):
            u_exact(p, -1)
        with pytest.raises(ValueError):
            v_exact(p, -3)

    def test_index_cap(self):
        p = make_params(1, 1)
        with pytest.raises(TooLarge):
            u_exact(p, EXACT_INDEX_CAP + 1)
        with pytest.raises(TooLarge):
            v_exact(p, EXACT_INDEX_CAP + 1)


class TestIdentities:
    @pytest.mark.parametrize("a,b", GRID + NEG_DELTA)
    def test_doubling(self, a, b):
        p = make_params(a, b)
        u = _u_list(p, 130)
        v = _v_list(p, 130)
        for n in range(1, 65):
            assert u[2 * n] == u[n] * v[n]
            assert v[2 * n] == v[n] * v[n] - 2 * (-b) ** n

    @pytest.mark.parametrize("a,b", GRID + NEG_DELTA)
    def test_v_from_u_pair(self, a, b):
        p = make_params(a, b)
        for n in range(0, 40):
            assert v_exact(p, n) == 2 * u_exact(p, n + 1) - a * u_exact(p, n)

    @pytest.mark.parametrize(
        "a,b",
        [(1, 1), (2, 1), (3, 2), (1, 2), (3, -1)],
    )
    def test_negating_a_flips_signs(self, a, b):
        p = make_params(a, b)
        q = make_params(-a, b)
        for n in range(0, 30):
            assert u_exact(q, n) == (-1) ** (n - 1) * u_exact(p, n)
            assert v_exact(q, n) == (-1) ** n * v_exact(p, n)

    @pytest.mark.parametrize("a,b", GRID)
    def test_growth_when_eligible(self, a, b):
        p = make_params(a, b)
        assert p.theorem_eligible
        u = _u_list(p, 66)
        v = _v_list(p, 66)
        for n in range(1, 64):
            assert abs(u[n + 1]) > abs(u[n]) or n == 1
            assert u[n] > 0
        for n in range(1, 64):
            assert v[n] > 0

    @pytest.mark.parametrize("a,b", GRID + NEG_DELTA)
    def test_terms_coprime_to_b(self, a, b):
        p = make_params(a, b)
        for n in range(1, 40):
            assert math.gcd(u_exact(p, n), b) == 1
            assert math.gcd(v_exact(p, n), b) == 1


class TestUvMod:
    @pytest.mark.parametrize("a,b", GRID + NEG_DELTA)
    @pytest.mark.parametrize("modulus", [2, 3, 10, 97, 2**31 - 1])
    def test_matches_exact(self, a, b, modulus):
        p = make_params(a, b)
        for n in range(0, 120):
            un, vn = uv_mod(p, n, modulus)
            assert un == u_exact(p, n) % modulus
            assert vn == v_exact(p, n) % modulus

    def test_modulus_one(self):
        assert uv_mod(make_params(1, 1), 12, 1) == (0, 0)

    def test_index_zero(self):
        assert uv_mod(make_params(3, 2), 0, 100) == (0, 2)

    def test_zero_modulus_rejected(self):
        with pytest.raises(ZeroModulus):
            uv_mod(make_params(1, 1), 5, 0)

    def test_negative_inputs_rejected(self):
        p = make_params(1, 1)
        with pytest.raises(ValueError):
            uv_mod(p, -1, 7)
        with pytest.raises(ValueError):
            uv_mod(p, 5, -7)

    def test_huge_index_via_period_reduction(self):
        # walk (U, V) mod 7 once to find the period, then compare
        p = make_params(1, 1)
        pairs = []
        u0, u1 = 0, 1
        while True:
            pairs.append((u0, (2 * u1 - u0) % 7))
            u0, u1 = u1, (u1 + u0) % 7
            if (u0, u1) == (0, 1):
                break
        period = len(pairs)
        n = 2**40
        assert uv_mod(p, n, 7) == pairs[n % period]

    @pytest.mark.parametrize("a,b", GRID + NEG_DELTA)
    @pytest.mark.parametrize("modulus", [1, 2, 10**9 + 7, 2**61 - 1, 2**64])
    def test_bit_length_edges_match_matrix_power(self, a, b, modulus):
        # n = 2^j - 1, 2^j, 2^j + 1: every step a set bit, every step a
        # clear bit, and clear bits ending in one set bit (n = 0 included);
        # then indices past a machine word, which the ladder takes as any other
        indices = [2**j + d for j in range(63) for d in (-1, 0, 1)]
        indices += [2**63 - 1, 2**63, 2**64 + 1, 2**100, 2**200 - 1]
        p = make_params(a, b)
        for n in indices:
            # [[a, b], [1, 0]]^n = [[U_{n+1}, b*U_n], [U_n, b*U_{n-1}]]
            (u_next, _), (u, _) = _matrix_power(a, b, n, modulus)
            assert uv_mod(p, n, modulus) == (u, (2 * u_next - a * u) % modulus), n

    @given(st.sampled_from(VALID_SMALL), st.integers(0, 400), st.integers(1, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_ladder_agrees_with_recurrence(self, p, n, modulus):
        u = _u_list(p, n + 2)
        expect = (u[n] % modulus, (2 * u[n + 1] - p.a * u[n]) % modulus)
        assert uv_mod(p, n, modulus) == expect


def test_tau_with_a_prime_factor_above_2_64_is_certified():
    # m = 3 * (2^64 + 13): the strip for the large prime p starts at p - 1, past 2^63
    m, q = 3 * (2**64 + 13), 658_812_288_346_769_701
    k = tau(make_params(1, 1), m).value
    assert k == 2_635_249_153_387_078_804 == 2**2 * q
    # the first 12 prime bases decide every n below 3.18e23 (Sorenson-Webster 2017)
    assert all(strong_probable_prime(q, base)
               for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    # [[1, 1], [1, 0]]^n has U_n below the diagonal: m | U_k, and m !| U_{k/q'}
    # for each prime q' | k, so k is the least such index
    assert _matrix_power(1, 1, k, m)[1][0] == 0
    for prime in (2, q):
        assert _matrix_power(1, 1, k // prime, m)[1][0] != 0
