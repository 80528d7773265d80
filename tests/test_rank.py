"""Tests for factoring and rank-of-apparition computation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucas_rank import rank
from lucas_rank.errors import (
    BadRange,
    LucasRankError,
    NotAMultiple,
    NotCoprimeToB,
    NotFound,
    NotPrime,
    TooLarge,
)
from lucas_rank.lucas_core import make_params, nu, u_exact, uv_mod
from lucas_rank.rank import (
    FACTOR_BOUND,
    Factorization,
    TauResult,
    _MR_PSI,
    _rho_brent,
    factorize,
    is_prime,
    nu_in_u,
    tau,
    tau_min_divisor_oracle,
    tau_prime,
    tau_prime_power,
    tau_scan,
)

GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (3, -1), (4, -3)]


def _is_prime_slow(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestIsPrime:
    def test_small(self):
        odds = [n for n in range(2, 2000) if is_prime(n)]
        assert odds == [n for n in range(2, 2000) if _is_prime_slow(n)]

    def test_carmichael_and_pseudoprimes(self):
        assert not is_prime(561)
        assert not is_prime(3215031751)

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * 3)
        assert is_prime(999983)
        assert is_prime(1000003)

    def test_agrees_with_a_sieve_below_3e5(self):
        limit = 300_000
        flags = bytearray([1]) * limit
        flags[:2] = b"\x00\x00"
        for i in range(2, math.isqrt(limit) + 1):
            if flags[i]:
                flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
        assert [n for n in range(-3, limit) if is_prime(n)] == [
            n for n in range(limit) if flags[n]
        ]

    @pytest.mark.parametrize("psi", [1_373_653, 25_326_001])
    def test_agrees_with_trial_division_around_psi(self, psi):
        window = range(psi - 2000, psi + 2001)
        assert [n for n in window if is_prime(n)] == [n for n in window if _is_prime_slow(n)]

    # (psi_k, k, a proper divisor of psi_k, how many leading prime bases it fools)
    PSI_ROWS = [
        (1_373_653, 2, 829, 2),
        (25_326_001, 3, 2251, 3),
        (3_215_031_751, 4, 151, 4),
        (2_152_302_898_747, 5, 6763, 5),
        (3_474_749_660_383, 6, 1303, 6),
        (341_550_071_728_321, 7, 10_670_053, 8),
        (3_825_123_056_546_413_051, 9, 149_491, 11),
        (318_665_857_834_031_151_167_461, 12, 399_165_290_221, 12),
        (3_317_044_064_679_887_385_961_981, 13, 1_287_836_182_261, 13),
    ]

    def test_psi_table_is_pinned(self):
        assert _MR_PSI == tuple((psi, k) for psi, k, _, _ in self.PSI_ROWS)

    @pytest.mark.parametrize("psi,k,divisor,fooled", PSI_ROWS)
    def test_psi_bound_is_a_tight_strong_pseudoprime(self, psi, k, divisor, fooled):
        assert 1 < divisor < psi and psi % divisor == 0
        bases = [p for p in range(2, 100) if _is_prime_slow(p)]
        passed = 0
        for a in bases:
            if not _strong_probable_prime(psi, a):
                break
            passed += 1
        # psi_k fools the first k bases, so "n < psi_k" cannot be relaxed to "<="
        assert k <= passed == fooled
        assert not is_prime(psi)


class TestFactorize:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (2, ((2, 1),)),
            (97, ((97, 1),)),
            (272, ((2, 4), (17, 1))),
            (82500, ((2, 2), (3, 1), (5, 4), (11, 1))),
            (907500, ((2, 2), (3, 1), (5, 4), (11, 2))),
        ],
    )
    def test_known_values(self, x, expected):
        got = factorize(x)
        assert got.value == x
        assert got.factors == expected

    def test_roundtrip_small(self):
        for x in list(range(2, 500)) + [2**20, 3**12, 510510]:
            f = factorize(x)
            assert math.prod(p**e for p, e in f.factors) == x
            assert all(_is_prime_slow(p) for p, e in f.factors)
            assert all(e >= 1 for p, e in f.factors)
            primes = [p for p, _ in f.factors]
            assert primes == sorted(primes)

    def test_semiprime_beyond_trial_division(self):
        f = factorize(999983 * 1000003)
        assert f.factors == ((999983, 1), (1000003, 1))

    def test_brent_backtrack(self):
        # with seed 0 the batched gcd of this semiprime jumps straight to n, so
        # Brent's variant backtracks one step at a time from the saved ys
        n = 10007 * 10009
        assert factorize(n, seed=0).factors == ((10007, 1), (10009, 1))
        assert _rho_brent(n, random.Random(0)) in (10007, 10009)

    def test_brent_retry(self):
        # with seed 0 the first constants collapse the cycle even when backtracking,
        # so Brent's variant draws fresh ones from the same generator
        n = 10037 * 10193
        assert factorize(n, seed=0).factors == ((10037, 1), (10193, 1))
        assert _rho_brent(n, random.Random(0)) in (10037, 10193)

    def test_deterministic_across_seeds(self):
        x = 999983 * 1000003 * 17
        assert factorize(x, seed=0) == factorize(x, seed=1234)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            factorize(1)
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(TooLarge):
            factorize(2**97)
        assert factorize(FACTOR_BOUND - 1, bound=FACTOR_BOUND).value == FACTOR_BOUND - 1


class TestTauScan:
    @pytest.mark.parametrize(
        "a,b,m,expected",
        [
            (1, 1, 1, 1),
            (1, 1, 2, 3),
            (1, 1, 10, 15),
            (1, 1, 272, 36),
            (1, 1, 54, 36),
            (1, 1, 65, 35),
            (1, 1, 39, 28),
            (1, 1, 39168, 576),
            (1, 1, 324, 108),
            (2, 1, 36, 12),
            (3, 1, 8, 6),
            (1, 2, 9, 9),
            (3, -1, 324, 54),
            (4, -3, 77, 30),
        ],
    )
    def test_known_values(self, a, b, m, expected):
        r = tau_scan(make_params(a, b), m, cap=10 * m * m + 10)
        assert r.value == expected
        assert r.method == "linear-scan"

    def test_divisibility_at_result(self):
        p = make_params(1, 1)
        for m in range(1, 60):
            k = tau_scan(p, m, cap=10 * m * m + 10).value
            assert u_exact(p, k) % m == 0
            for j in range(1, k):
                assert u_exact(p, j) % m != 0

    def test_cap_exhausted(self):
        with pytest.raises(NotFound):
            tau_scan(make_params(1, 1), 272, cap=35)

    def test_not_coprime_to_b(self):
        with pytest.raises(NotCoprimeToB):
            tau_scan(make_params(1, 2), 4, cap=100)
        with pytest.raises(NotCoprimeToB):
            tau_scan(make_params(4, -3), 9, cap=100)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            tau_scan(make_params(1, 1), 0, cap=100)


def _reference_scan(params, m, cap):
    """The definitional scan stepped one index at a time: the oracle for `tau_scan`."""
    if m < 1:
        raise BadRange(f"need m >= 1, got {m}")
    if math.gcd(m, params.b) != 1:
        raise NotCoprimeToB(f"gcd({m}, {params.b}) > 1, rank undefined")
    if cap < 1:
        raise BadRange(f"need cap >= 1, got {cap}")
    am = params.a % m
    bm = params.b % m
    u0, u1 = 0, 1 % m
    k = 0
    while k < cap:
        k += 1
        u0, u1 = u1, (am * u1 + bm * u0) % m
        if u0 == 0:
            return TauResult(k, "linear-scan")
    raise NotFound(f"no index k <= {cap} with {m} | U_k")


def _outcome(fn, params, m, cap):
    try:
        return fn(params, m, cap)
    except (BadRange, NotCoprimeToB, NotFound) as exc:
        return type(exc)


def _general_keys(points, m):
    """`rank._keys` on its general path: a non-empty cache skips the all-units attempt.

    The entry is the true idempotent for g = m (m1 = 1), so it cannot change a key.
    """
    return rank._keys(points, m, {m: 0})


class TestPlainLoop:
    """The loop that steps caps up to `_PLAIN_MAX` two indices a pass, at odd and even caps."""

    @pytest.mark.parametrize("a,b", [(1, 1), (3, -1), (2, 1), (4, -3)])
    def test_matches_reference_at_every_small_cap(self, a, b):
        params = make_params(a, b)
        parities = set()
        for m in (1, 2, 4, 5, 7, 8, 11, 13, 25, 89, 97, 128):
            answer = _reference_scan(params, m, rank._PLAIN_MAX - 1).value  # every cap plain
            parities.add(answer % 2)
            for cap in set(range(1, 65)) | {answer - 1, answer, answer + 1}:
                want = _outcome(_reference_scan, params, m, cap)
                assert _outcome(tau_scan, params, m, cap) == want, (m, cap)
        assert parities == {0, 1}


_MID_PRIMES = [p for p in range(10_001, 20_000, 2) if _is_prime_slow(p)]
_SMOOTH_PRIMES = [p for p in range(2, 1000) if _is_prime_slow(p)]
_REACH = 2000  # the reference scans at most this far per drawn input



def _valid(ab):
    try:
        make_params(*ab)
    except LucasRankError:
        return False
    return True


# (a, b) with |a|, |b| <= 10^6, coprime and non-degenerate; delta < 0 included
_params_st = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).filter(_valid)


@st.composite
def _moduli(draw, params):
    kind = draw(st.sampled_from(
        ["small", "pow2", "2^e*odd", "big-small-factor", "no-small-factor", "200-bit",
         "smooth-divisor"]))
    if kind == "small":
        return draw(st.integers(1, 5000))
    if kind == "pow2":
        return 2 ** draw(st.integers(0, 80))
    if kind == "2^e*odd":
        return 2 ** draw(st.integers(1, 40)) * (2 * draw(st.integers(0, 10**6)) + 1)
    if kind == "big-small-factor":
        return draw(st.sampled_from([2, 3, 5, 7, 8, 9, 25, 9973])) * draw(
            st.integers(2**24, 2**70))
    if kind == "no-small-factor":
        return math.prod(draw(st.lists(st.sampled_from(_MID_PRIMES), min_size=2, max_size=4)))
    if kind == "200-bit":
        return draw(st.integers(2**199, 2**200 - 1))
    # the part of U_k made of primes below 1000: its rank divides k, often past the baby steps
    k = draw(st.integers(257, _REACH))
    m = 1
    for p in _SMOOTH_PRIMES:
        r = uv_mod(params, k, p**8)[0]
        m *= p ** (8 if r == 0 else nu(p, r))
    return m


def _giant_edge_caps(t):
    """Caps G^2 whose orbit search meets the answer t as iG - j with j = 0 and with j = G - 1.

    G = ceil(sqrt(cap)) baby steps; the least G that works is taken, so the
    answer is as many giant steps out as it can be.
    """
    caps = set()
    for n in (t, t - 1):  # G | t gives j = 0, G | t - 1 gives j = G - 1
        for g in range(max(33, math.isqrt(t - 1) + 1), min(t - 1, 2**16) + 1):
            if n % g == 0:
                caps.add(g * g)
                break
    return caps


class TestBlockScan:
    """`tau_scan` against the one-index-at-a-time reference, around the orbit search's edges."""

    @given(_params_st, st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, ab, data):
        params = make_params(*ab)
        m = data.draw(_moduli(params))
        try:
            answer = _reference_scan(params, m, _REACH).value
        except (NotCoprimeToB, NotFound):
            answer = None
        # caps up to 1024 step one index at a time; above, G = ceil(sqrt(cap)) baby
        # steps, so G^2 -> G^2 + 1 adds a baby: 1024 -> 1025 (32 -> 33), 1089 -> 1090,
        # 1600 -> 1601
        caps = {1, 1023, 1024, 1025, 1088, 1089, 1090, 1599, 1600, 1601}
        caps.add(data.draw(st.integers(0, _REACH)))
        if answer is not None:
            caps |= {answer - 1, answer, answer + 1} | _giant_edge_caps(answer)
        for cap in sorted(caps):
            assert _outcome(tau_scan, params, m, cap) == _outcome(_reference_scan, params, m, cap)

    @pytest.mark.parametrize(
        "a,b,m,cap",
        [
            (1, 1, 16_776_623, 250_000),  # 24-bit prime, answer 202128, G = 500
            (3, -1, 199_999, 120_000),  # answer 99999, G = 347
            (1, 1, 2**17, 200_000),  # answer 196608, G = 448
            (1, 1, 3**11 * 17 * 19 * 53, 250_000),  # answer 236196
            (1, 1, 2**40, 100_000),  # no answer below the cap
            (1, -3, 2**10 * 10_007 * 10_009, 200_000),  # y = U_j even for every third j
        ],
    )
    def test_larger_blocks(self, a, b, m, cap):
        params = make_params(a, b)
        assert _outcome(tau_scan, params, m, cap) == _outcome(_reference_scan, params, m, cap)

    @pytest.mark.parametrize(
        "a,b,m",
        [
            (1, 1, 16_776_623),  # 202128 = 48 * 4211: j = 0 at G = 4211
            (3, -1, 199_999),  # 99999 = 271 * 369 = 3 * 49999 - 49998
            (1, 1, 2**17),  # 196608 = 384 * 512 = 422 * 467 - 466
            (1, 1, 2**10 * 3**4 * 5**2 * 7),  # 172800 = 400 * 432 = 254 * 683 - 682
        ],
    )
    def test_answer_at_giant_edges(self, a, b, m):
        params = make_params(a, b)
        answer = _reference_scan(params, m, 250_000).value
        caps = _giant_edge_caps(answer)
        assert caps
        for cap in caps | {answer - 1, answer}:
            assert _outcome(tau_scan, params, m, cap) == _outcome(_reference_scan, params, m, cap)

    def test_baby_table_bound_above_2_32(self):
        # p = 1000003 = 3 mod 5, so the rank divides p + 1, and it is p + 1; a cap
        # above 2^32 wants more than 2^16 babies, so the search takes 2^16 and 16 giants
        params = make_params(1, 1)
        p = 1_000_003
        assert tau_scan(params, p, 2**32 + 1) == _reference_scan(params, p, 2**32 + 1)
        assert tau_scan(params, p, 2**32 + 1).value == p + 1

    def test_mostly_non_unit_baby_points(self):
        # U_j shares a prime with m exactly when 3, 4 or 5 divides j (7's rank is 8), so
        # 60% of the baby points (U_{j+1} : U_j) have a y that is not a unit mod m
        params = make_params(1, 1)
        m = 2**10 * 3**4 * 5**2 * 7
        prefix = [u_exact(params, j) for j in range(1, 448)]  # G = 448 for cap 200,000
        assert sum(math.gcd(u, m) > 1 for u in prefix) > len(prefix) // 2
        for cap in (172_799, 172_800, 200_000):
            assert _outcome(tau_scan, params, m, cap) == _outcome(_reference_scan, params, m, cap)

    @pytest.mark.parametrize("m", [2**6, 5 * 7, 2 * 3**2 * 5, 2**3 * 3**2])
    def test_keys_name_the_points_of_the_projective_line(self, m):
        # every unimodular (x, y) mod m, keyed, against its class under the units of Z/m
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        vectors = [(x, y) for x in range(m) for y in range(m) if math.gcd(x, y, m) == 1]
        keys = rank._keys(vectors, m, {})
        points = [min((u * x % m, u * y % m) for u in units) for x, y in vectors]
        assert len(set(zip(keys, points))) == len(set(keys)) == len(set(points))

    @pytest.mark.parametrize("m", [10**6 + 3, 2**61 - 1, 3**5 * 7**3 * 101, 2**64])
    def test_unit_path_keys_equal_the_general_path(self, m):
        rng = random.Random(m)
        points = []
        while len(points) < 300:
            x, y = rng.randrange(m), rng.randrange(1, m)
            if math.gcd(y, m) == 1:
                points.append((x, y))
        zero = (points[0][1], 0)  # (unit : 0) is the point (1 : 0)
        for batch in (points, [zero] + points, points[:100] + [zero] + points[100:130], [zero]):
            idempotents = {}
            keys = rank._keys(batch, m, idempotents)
            assert not idempotents  # keyed by the unit path, which caches nothing
            assert keys == _general_keys(batch, m)

    @pytest.mark.parametrize("m", [2**64, 3**5 * 7**3 * 101, 2 * (10**6 + 3)])
    @pytest.mark.parametrize("at", [0, 63, 64, 200])
    def test_unit_path_gives_up_at_a_non_unit(self, m, at):
        rng = random.Random(m + at)
        points = []
        while len(points) < 260:
            y = rng.randrange(1, m)
            if math.gcd(y, m) == 1:
                points.append((rng.randrange(m), y))
        points[at] = (1, m // 2 if m % 2 == 0 else m // 7)  # one y that is not a unit
        points[at // 2 + 1] = (1, 0)
        for batch in (points, points[: at + 2]):  # a long batch, and one ending near the non-unit
            idempotents = {}
            assert rank._keys(batch, m, idempotents) == _general_keys(batch, m)
            assert idempotents  # the general path ran, so later batches skip the unit attempt

    def test_confirmation_guards_every_answer(self, monkeypatch):
        # every point gets the same key, so each giant point "matches" the last baby;
        # only the cross-product check stands between that and a wrong k.  `_keys` holds
        # both the unit path and the general path, so this forces a match through each
        monkeypatch.setattr(rank, "_keys", lambda points, m, idempotents: [0] * len(points))
        cases = [((1, 1), 16_776_623, 250_000), ((1, 1), 2**17, 200_000), ((3, -1), 199_999, 5000),
                 ((1, -3), 2**10 * 10_007 * 10_009, 200_000), ((2, 1), 10**6 + 3, 3000)]
        for ab, m, cap in cases:
            params = make_params(*ab)
            try:
                k = tau_scan(params, m, cap).value
            except NotFound:
                continue
            assert 1 <= k <= cap and uv_mod(params, k, m)[0] == 0

    @pytest.mark.parametrize("a,b", [(1, 1), (3, -1)])
    def test_no_small_factor_steps_to_the_answer(self, a, b):
        # every prime factor q of U_p (p prime, p not dividing delta) has rank p,
        # so q = +-1 mod p and U_5003 has no prime factor below 10^4
        params = make_params(a, b)
        m = abs(u_exact(params, 5003))
        assert math.gcd(m, math.prod(p for p in range(2, 10_000) if _is_prime_slow(p))) == 1
        assert tau_scan(params, m, 5003) == TauResult(5003, "linear-scan")
        with pytest.raises(NotFound):
            tau_scan(params, m, 5002)

    def test_200_bit_answer_past_the_prefix(self):
        params = make_params(1, 1)
        m = u_exact(params, 289)  # 200 bits
        assert m.bit_length() == 200
        assert tau_scan(params, m, 2000).value == 289  # G = 45: found at i = 7, j = 26
        assert tau_scan(params, m, 289).value == 289
        with pytest.raises(NotFound):
            tau_scan(params, m, 288)


def _check_tau_against_scan(seed, low, high, count):
    # tau(m) <= 4m here (the lcm of p^(e-1) (p + 1) over m's prime powers), so a cap of
    # 10m decides it; a step-by-step scan would need up to 10m steps per m
    rng = random.Random(seed)
    checked = 0
    while checked < count:
        m = rng.randrange(low, high)
        a, b = rng.randint(1, 40), rng.randint(-40, 40)
        if math.gcd(m, b) != 1:
            continue
        try:
            params = make_params(a, b)
        except LucasRankError:
            continue
        assert tau(params, m).value == tau_scan(params, m, 10 * m).value, (a, b, m)
        checked += 1


def test_tau_equals_the_definitional_scan_at_20_to_24_bits():
    _check_tau_against_scan(2024, 2**19, 2**24, 80)


@pytest.mark.slow
@pytest.mark.parametrize("bits,count", [(26, 200), (32, 24)])
def test_tau_equals_the_definitional_scan_at_26_and_32_bits(bits, count):
    # about 5 s at 26 bits and 4 s at 32 bits
    _check_tau_against_scan(bits, 2 ** (bits - 1), 2**bits, count)


class TestTauPrime:
    @pytest.mark.parametrize(
        "a,b,p,expected",
        [
            (1, 1, 2, 3),
            (1, 1, 3, 4),
            (1, 1, 5, 5),
            (1, 1, 7, 8),
            (1, 1, 11, 10),
            (1, 1, 13, 7),
            (2, 1, 2, 2),
            (2, 1, 7, 6),
            (3, 1, 7, 8),
            (3, 2, 5, 6),
            (4, -3, 2, 2),
            (4, -3, 7, 6),
            (4, -3, 11, 5),
        ],
    )
    def test_known_values(self, a, b, p, expected):
        assert tau_prime(make_params(a, b), p).value == expected

    def test_prime_dividing_delta_has_rank_p(self):
        assert tau_prime(make_params(1, 1), 5).value == 5
        assert tau_prime(make_params(3, 1), 13).value == 13
        assert tau_prime(make_params(1, 2), 3).value == 3
        assert tau_prime(make_params(3, 2), 17).value == 17

    def test_method_tags(self):
        fib = make_params(1, 1)
        assert tau_prime(fib, 5).method == "factorization-lift"
        assert tau_prime(fib, 2).method == "factorization-lift"
        r = tau_prime(fib, 13)
        assert r.method == "divisor-minimality"
        assert r.witness is not None

    @pytest.mark.parametrize("a,b", GRID)
    def test_matches_scan_for_small_primes(self, a, b):
        params = make_params(a, b)
        for p in range(2, 100):
            if not _is_prime_slow(p) or math.gcd(p, b) != 1:
                continue
            assert tau_prime(params, p).value == tau_scan(params, p, cap=2 * p + 4).value

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            tau_prime(make_params(1, 1), 6)
        with pytest.raises(NotPrime):
            tau_prime(make_params(1, 1), 1)

    def test_rejects_prime_dividing_b(self):
        with pytest.raises(NotCoprimeToB, match=r"^gcd\(2, 2\) > 1, rank undefined$"):
            tau_prime(make_params(1, 2), 2)


class TestTauPrimePower:
    @pytest.mark.parametrize(
        "a,b,p,e,expected",
        [
            (1, 1, 2, 1, 3),
            (1, 1, 2, 2, 6),
            (1, 1, 2, 3, 6),
            (1, 1, 2, 4, 12),
            (1, 1, 2, 5, 24),
            (1, 1, 3, 2, 12),
            (1, 1, 3, 3, 36),
            (1, 1, 5, 2, 25),
            (1, 1, 5, 3, 125),
            (2, 1, 2, 2, 4),
            (2, 1, 2, 3, 8),
            (1, 2, 3, 2, 9),
            (3, -1, 2, 2, 3),
            (3, -1, 3, 4, 54),
            # v_p(U_tau(p)) >= 2, so the lift is e - v_p(U_tau(p)), not e - 1
            (1, 4, 7, 1, 8),
            (1, 4, 7, 2, 8),
            (1, 4, 7, 3, 56),
            (1, 4, 7, 4, 392),
            (1, -14, 3, 1, 4),
            (1, -14, 3, 2, 4),
            (1, -14, 3, 3, 4),
            (1, -14, 3, 4, 12),
            (1, -14, 3, 5, 36),
        ],
    )
    def test_known_values(self, a, b, p, e, expected):
        assert tau_prime_power(make_params(a, b), p, e).value == expected

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 2), (3, -1), (4, -3), (1, -14)])
    def test_matches_scan(self, a, b):
        params = make_params(a, b)
        for p in (2, 3, 5):
            if math.gcd(p, b) != 1:
                continue
            for e in range(1, 5):
                got = tau_prime_power(params, p, e).value
                cap = 4 * (p + 1) * p ** (e - 1) + 8
                assert got == tau_scan(params, p**e, cap=cap).value

    @pytest.mark.parametrize("a,b,p", [(1, 1, 2), (1, 1, 5), (1, 4, 7), (3, -1, 3)])
    def test_first_power_needs_no_valuation(self, monkeypatch, a, b, p):
        # p | U_tau(p), so tau(p^1) = tau(p) whatever v_p(U_tau(p)) is
        params = make_params(a, b)
        monkeypatch.setattr(rank, "nu_in_u", None)  # a call would raise TypeError
        assert tau_prime_power(params, p, 1).value == tau_prime(params, p).value

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            tau_prime_power(make_params(1, 1), 3, 0)


class TestTau:
    @pytest.mark.parametrize(
        "a,b,m,expected",
        [
            (1, 1, 1, 1),
            (1, 1, 10, 15),
            (1, 1, 272, 36),
            (1, 1, 54, 36),
            (1, 1, 39168, 576),
            (1, 1, 840, 120),
            (1, 1, 2376, 180),
            (1, 1, 82500, 7500),
            (2, 1, 36, 12),
            (4, -3, 77, 30),
        ],
    )
    def test_known_values(self, a, b, m, expected):
        r = tau(make_params(a, b), m)
        assert r.value == expected
        assert r.method == "factorization-lift"

    @pytest.mark.parametrize("a,b", GRID)
    def test_matches_scan_over_range(self, a, b):
        params = make_params(a, b)
        for m in range(2, 140):
            if math.gcd(m, b) != 1:
                continue
            assert tau(params, m).value == tau_scan(params, m, cap=10 * m * m + 10).value

    @given(_params_st, st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_scan_for_random_params(self, ab, data):
        params = make_params(*ab)
        m = data.draw(st.integers(1, 5000).filter(lambda m: math.gcd(m, params.b) == 1))
        # tau(m) <= prod p^(e-1) * tau(p) <= m * prod (1 + 1/p) < 3m for m <= 5000
        assert tau(params, m).value == tau_scan(params, m, cap=4 * m).value

    def test_divides_iff_rank_divides_index(self):
        # the defining property: m | U_k exactly when tau(m) | k
        for a, b in [(1, 1), (1, 2), (3, -1)]:
            params = make_params(a, b)
            useq = [u_exact(params, k) for k in range(0, 61)]
            for m in range(2, 40):
                if math.gcd(m, b) != 1:
                    continue
                t = tau(params, m).value
                for k in range(1, 61):
                    assert (useq[k] % m == 0) == (k % t == 0)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            tau(make_params(1, 1), 2**100)

    def test_not_coprime_to_b(self):
        with pytest.raises(NotCoprimeToB):
            tau(make_params(1, 2), 6)


class TestMinDivisorOracle:
    def test_known_values(self):
        fib = make_params(1, 1)
        r = tau_min_divisor_oracle(fib, 54, 36)
        assert r.value == 36
        assert r.method == "divisor-minimality"
        assert r.witness is not None and r.witness[0] == 36

    def test_strips_to_proper_divisor(self):
        fib = make_params(1, 1)
        assert tau_min_divisor_oracle(fib, 2, 12).value == 3
        product = u_exact(fib, 50) * u_exact(fib, 55) * u_exact(fib, 60)
        assert tau_min_divisor_oracle(fib, product, 907500).value == 82500

    def test_rejects_non_multiple(self):
        with pytest.raises(NotAMultiple, match=r"^7 does not divide U_7$"):
            tau_min_divisor_oracle(make_params(1, 1), 7, 7)

    def test_rejects_target_not_coprime_to_b(self):
        with pytest.raises(NotCoprimeToB, match=r"^gcd\(4, 2\) > 1, rank undefined$"):
            tau_min_divisor_oracle(make_params(1, 2), 4, 6)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (3, -1)])
    def test_agrees_with_tau(self, a, b):
        params = make_params(a, b)
        for m in range(2, 80):
            if math.gcd(m, b) != 1:
                continue
            t = tau(params, m).value
            assert tau_min_divisor_oracle(params, m, 4 * t).value == t


class TestNuInU:
    @pytest.mark.parametrize("a,b", GRID)
    def test_matches_exact_valuation(self, a, b):
        params = make_params(a, b)
        for p in (2, 3, 5, 7):
            if math.gcd(p, b) != 1:
                continue
            for k in range(1, 40):
                value = u_exact(params, k)
                expect = 0
                while value % p == 0 and value != 0:
                    value //= p
                    expect += 1
                assert nu_in_u(params, p, k) == expect

    @pytest.mark.parametrize("p", [1, 0, -1, -5])
    def test_rejects_p_below_2(self, p):
        # uv_mod(.., 1) is always 0, so p = +-1 would double the precision forever
        with pytest.raises(BadRange, match=rf"^need p >= 2, got {p}$"):
            nu_in_u(make_params(1, 1), p, 5)

    @staticmethod
    def _moduli_tried(monkeypatch, params, p, k):
        value, expect = u_exact(params, k), 0
        while value % p == 0:
            value //= p
            expect += 1
        tried = []

        def recording_uv_mod(params, n, modulus):
            tried.append(modulus)
            return uv_mod(params, n, modulus)

        monkeypatch.setattr(rank, "uv_mod", recording_uv_mod)
        assert nu_in_u(params, p, k) == expect
        return expect, tried

    def test_precision_doubles_past_the_first_power(self, monkeypatch):
        # 2^10 | U_768: the moduli 2^2, 2^4 and 2^8 all read 0
        expect, tried = self._moduli_tried(monkeypatch, make_params(1, 1), 2, 768)
        assert expect == 10
        assert tried == [2**2, 2**4, 2**8, 2**16]

    def test_precision_doubles_at_an_odd_prime(self, monkeypatch):
        # U_8 = 441 = 3^2 * 7^2 at (1, 4)
        expect, tried = self._moduli_tried(monkeypatch, make_params(1, 4), 7, 8)
        assert expect == 2
        assert tried == [7**2, 7**4]
