"""Rank of apparition: tau(m) = least k >= 1 with m | U_k.

Three independent routes are provided.  `tau_scan` steps the recurrence
mod m and is the definitional oracle.  `tau` factors m and combines
prime-power ranks by lcm, using valuation-based lifting at each prime.
`tau_min_divisor_oracle` starts from any verified multiple of the rank
and strips prime factors while divisibility survives; it certifies
minimality without trusting the lifting formulas.
"""

import functools
import math
import random
from dataclasses import dataclass
from itertools import repeat

from .errors import BadRange, NotAMultiple, NotCoprimeToB, NotFound, NotPrime, TooLarge
from .lucas_core import LucasParams, nu, nu2, uv_mod

FACTOR_BOUND = 2 ** 96
_TRIAL_LIMIT = 10_000


@dataclass(frozen=True)
class Factorization:
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), sorted by prime


@dataclass(frozen=True)
class TauResult:
    value: int
    method: str  # "linear-scan" | "divisor-minimality" | "factorization-lift"
    witness: tuple[int, ...] | None = None


def _sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


_SMALL_PRIME_FLAGS = _sieve(_TRIAL_LIMIT)  # 1 at each prime below 10^4
_SMALL_PRIMES = [i for i, flag in enumerate(_SMALL_PRIME_FLAGS) if flag]
_PRIME_TEST_DIVISORS = tuple(_SMALL_PRIMES[:64])  # trial division before Miller-Rabin

# Below 10^4 the sieve answers.  Above, the first k primes as strong-probable-prime bases
# certify every n < psi_k, the least strong pseudoprime to all k (Jaeschke, Math. Comp. 1993;
# Sorenson-Webster, Math. Comp. 2017); psi_7 = psi_8 and psi_9 = psi_11.  From psi_13 all 25
# primes below 100 are used: unproven, but no practical concern for inputs capped at 2^96.
_MR_BASES = tuple(_SMALL_PRIMES[:25])
_MR_PSI = ((1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4), (2_152_302_898_747, 5),
           (3_474_749_660_383, 6), (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
           (318_665_857_834_031_151_167_461, 12), (3_317_044_064_679_887_385_961_981, 13))


def _is_sprp(n: int, bases: tuple[int, ...]) -> bool:
    """Whether odd n > every base is a strong probable prime to each base."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r * d with d odd
    d = (n - 1) >> r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    if n < _TRIAL_LIMIT:
        return n >= 0 and _SMALL_PRIME_FLAGS[n] == 1
    for p in _PRIME_TEST_DIVISORS:
        if n % p == 0:
            return False
    for psi, k in _MR_PSI:
        if n < psi:
            return _is_sprp(n, _MR_BASES[:k])
    return _is_sprp(n, _MR_BASES)


def require_prime(p: int) -> None:
    """Refuse a p that is not prime."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def require_rank_modulus(params: LucasParams, m: int) -> None:
    """Refuse an m with no rank: m < 1, or m sharing a factor with b."""
    if m < 1:
        raise BadRange(f"need m >= 1, got {m}")
    if math.gcd(m, params.b) != 1:
        raise NotCoprimeToB(f"gcd({m}, {params.b}) > 1, rank undefined")


def _rho_brent(n: int, rng: random.Random) -> int:
    """One nontrivial factor of odd composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle collapsed; retry with fresh constants


def factorize(x: int, *, bound: int = FACTOR_BOUND, seed: int = 0) -> Factorization:
    """Full factorization of x >= 2, deterministic for a fixed seed.

    Trial division by primes below 10^4, then Pollard rho on whatever
    survives, with strong-probable-prime certification of the pieces.
    Raises TooLarge for x above `bound` (default 2^96).
    """
    if x < 2:
        raise BadRange(f"need x >= 2, got {x}")
    if x > bound:
        raise TooLarge(f"{x} exceeds the factoring bound {bound}")
    n = x
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    rng = None
    stack = [n] if n > 1 else []
    while stack:
        t = stack.pop()
        if t < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(t):
            # no factor below 10^4 survives, so small cofactors are prime
            counts[t] = counts.get(t, 0) + 1
            continue
        rng = rng or random.Random(seed)
        d = _rho_brent(t, rng)
        stack += (d, t // d)
    return Factorization(x, tuple(sorted(counts.items())))


def nu_in_u(params: LucasParams, p: int, k: int) -> int:
    """v_p(U_k) for k >= 1, from U_k mod p^2, p^4, p^8, ... until one is nonzero."""
    if k < 1:
        raise BadRange("U_0 = 0 has no finite valuation")
    if p < 2:
        raise BadRange(f"need p >= 2, got {p}")
    e = 2
    while True:
        r = uv_mod(params, k, p ** e)[0]
        if r:
            return nu(p, r)
        e *= 2


_BLOCK_MIN, _BLOCK_MAX = 256, 4096
# Setting up the lanes costs about as much as 800 plain steps on sweep
# targets of 20-60 bits, so smaller caps are scanned one index at a time.
_PLAIN_MAX = 4 * _BLOCK_MIN
_FILTER_LIMIT = 2 ** 24


class _Lanes:
    """Which of the values c_j*x + c_{j-1}*z (c_{-1} = 0; all below d) are divisible by d.

    Each value y_j is below 2*d^2 < 2^w, w = 2*bits(d) + 1.  Write
    d = 2^s * d'.  Then d | y_j exactly when t_j = y_j * d'^-1 mod 2^w,
    rotated right by s bits, is at most (2^w - 1) // d (Granlund and
    Montgomery, "Division by invariant integers using multiplication",
    PLDI 1994).  The coefficients are stored already multiplied by
    d'^-1 mod 2^w, one per lane in a field of w + bits(d) + 1 bits
    rounded up to whole bytes, so c'_j*x + c'_{j-1}*z never carries
    from one lane into the next and its low w bits are t_j.  Adding the
    complement of the bound to every lane at once sets a guard bit at
    w in the lanes that fail.
    """

    def __init__(self, d: int, cs: list[int]):
        self.width = w = 2 * d.bit_length() + 1
        self.field_bytes = n = (w + d.bit_length() + 8) // 8
        self.lanes = len(cs)
        self.shift = s = nu2(d)
        top = (1 << w) - 1
        self.low = self.fill(top >> s)  # rotation: bits s..w-1 move down ..
        self.high = self.fill(top ^ (top >> s))  # .. and bits 0..s-1 up
        self.bias = self.fill(top - top // d)
        self.guards = self.fill(1 << w)
        # c * d'^-1 < 2^(bits(d) + w) fits a field, so one product scales every lane
        self.cs = self.pack(cs) * pow(d >> s, -1, 1 << w) & self.fill(top)
        self.prev = self.cs << 8 * n  # lane j holds c'_{j-1}

    def pack(self, values: list[int]) -> int:
        """One int holding values[j] in lane j; each value fits its field."""
        n = self.field_bytes
        return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(n), repeat("little"))),
                              "little")

    def fill(self, value: int) -> int:
        """`value` in every lane."""
        return int.from_bytes(value.to_bytes(self.field_bytes, "little") * self.lanes, "little")

    def hits(self, x: int, z: int) -> list[int]:
        """Lanes j, in increasing order, with d | c_j*x + c_{j-1}*z; 0 <= x, z < d."""
        return self.divisible(self.cs * x + self.prev * z)

    def divisible(self, scaled: int) -> list[int]:
        """Lanes whose low w bits hold t_j = y_j * d'^-1 mod 2^w for a y_j divisible by d."""
        s = self.shift
        if s:
            t = scaled >> s & self.low | scaled << (self.width - s) & self.high
        else:
            t = scaled & self.low
        flags = (t + self.bias) & self.guards
        if flags == self.guards:
            return []
        n = self.field_bytes
        guard_bytes = flags.to_bytes(n * self.lanes, "little")[self.width // 8 :: n]
        hits = []
        j = guard_bytes.find(0)
        while j >= 0:
            hits.append(j)
            j = guard_bytes.find(0, j + 1)
        return hits


@functools.cache
def _small_primorial() -> int:
    return math.prod(_SMALL_PRIMES)  # about 1 ms, so not paid at import


def _filter_modulus(m: int) -> int:
    """A divisor d of m below 2^24 to filter lanes with; 1 when there is none.

    m itself when small enough, else the powers of m's primes below
    10^4, smallest primes first, each as high as still fits.
    """
    if m < _FILTER_LIMIT:
        return m
    g = math.gcd(m, _small_primorial())  # the distinct primes below 10^4 dividing m
    d = 1
    for p in _SMALL_PRIMES:
        if g == 1 or d * p >= _FILTER_LIMIT:
            break
        if g % p == 0:
            g //= p
            q = p
            while d * q * p < _FILTER_LIMIT and m % (q * p) == 0:
                q *= p
            d *= q
    return d


def tau_scan(params: LucasParams, m: int, cap: int) -> TauResult:
    """Least k <= cap with m | U_k, by stepping the recurrence mod m.

    A cap up to 1024 is scanned one index at a time.  Above it, the
    first B = clamp(isqrt(cap), 256, 4096) indices are stepped one by
    one, and past them B indices at a time are checked together: from
    (x, y) = (U_{k+1}, U_k) mod m, the addition identity gives
    U_{k+i} = U_i * x + b*U_{i-1} * y, and the B values reduced mod a
    divisor d of m below 2^24 are tested at once as lanes of one int
    (see `_Lanes`).  Every lane that passes is confirmed mod m, so each
    k is still decided by m | U_k alone.  Without such a d (m >= 2^24
    with no prime factor below 10^4) the scan steps one by one to cap.

    Raises NotCoprimeToB when gcd(m, b) > 1 (no such k exists at all),
    BadRange for a cap below 1, and NotFound when the cap is exhausted.
    """
    require_rank_modulus(params, m)
    if cap < 1:
        raise BadRange(f"need cap >= 1, got {cap}")
    am = params.a % m
    bm = params.b % m
    u0, u1 = 0, 1 % m
    k = 0
    if cap > _PLAIN_MAX:
        block = min(max(math.isqrt(cap), _BLOCK_MIN), _BLOCK_MAX)
        us = [u0, u1]  # U_0 .. U_{block+1} mod m
        while k < block:
            k += 1
            u0, u1 = u1, (am * u1 + bm * u0) % m
            if u0 == 0:
                return TauResult(k, "linear-scan")
            us.append(u1)
        d = _filter_modulus(m)
        if d > 1:
            found = _scan_blocks(us, bm, m, d, cap)
            if found is None:
                raise NotFound(f"no index k <= {cap} with {m} | U_k")
            return TauResult(found, "linear-scan")
    while k < cap:
        k += 1
        u0, u1 = u1, (am * u1 + bm * u0) % m
        if u0 == 0:
            return TauResult(k, "linear-scan")
    raise NotFound(f"no index k <= {cap} with {m} | U_k")


def _scan_blocks(us: list[int], bm: int, m: int, d: int, cap: int) -> int | None:
    """Least k in (B, cap] with m | U_k, given U_0 .. U_{B+1} mod m in `us`.

    Lane j of a block from k stands for U_{k+j+1} = U_{j+1}*x + U_j*(b*y)
    with (x, y) = (U_{k+1}, U_k) mod m.
    """
    block = len(us) - 2
    lanes = _Lanes(d, us[1 : block + 1] if d == m else [u % d for u in us[1 : block + 1]])
    bd = bm % d
    step_x, step_y = bm * us[block] % m, bm * us[block - 1] % m
    k, y, x = block, us[block], us[block + 1]
    while k < cap:
        for j in lanes.hits(x % d, bd * y % d):
            if k + j + 1 > cap:
                return None
            if (us[j + 1] * x + bm * us[j] * y) % m == 0:
                return k + j + 1
        x, y = (us[block + 1] * x + step_x * y) % m, (us[block] * x + step_y * y) % m
        k += block
    return None


def _strip_to_minimum(
    params: LucasParams, target: int, multiple: int, seed: int
) -> tuple[int, tuple[int, ...]]:
    """Shrink a verified multiple of the rank to the rank itself.

    Every k with target | U_k is a multiple of tau(target), so removing
    prime factors while divisibility persists lands exactly on tau.
    """
    m = multiple
    witness = [m]
    for q, _ in factorize(multiple, seed=seed).factors:
        while m % q == 0:
            cand = m // q
            witness.append(cand)
            if uv_mod(params, cand, target)[0] == 0:
                m = cand
            else:
                break
    return m, tuple(witness)


def tau_prime(params: LucasParams, p: int, *, seed: int = 0) -> TauResult:
    """tau(p) for prime p not dividing b.

    p | delta forces tau(p) = p; tau(2) is 2 for even a (2 | delta), else 3.
    Otherwise tau(p) divides p - chi(p), where chi is the quadratic
    character of delta mod p, so stripping divisors of p - chi(p) finds
    the minimum.
    """
    require_prime(p)
    require_rank_modulus(params, p)
    if params.delta % p == 0:
        return TauResult(p, "factorization-lift")
    if p == 2:  # an even a makes 2 | delta, so a is odd here and 2 | U_3 = a^2 + b
        return TauResult(3, "factorization-lift")
    eps = 1 if pow(params.delta % p, (p - 1) // 2, p) == 1 else -1
    value, witness = _strip_to_minimum(params, p, p - eps, seed)
    return TauResult(value, "divisor-minimality", witness)


def tau_prime_power(params: LucasParams, p: int, e: int, *, seed: int = 0) -> TauResult:
    """tau(p^e) by lifting tau(p) with the valuation of U at the entry point."""
    if e < 1 and is_prime(p):  # a non-prime p is refused by tau_prime before e is
        raise BadRange(f"need e >= 1, got {e}")
    t = tau_prime(params, p, seed=seed).value
    if e == 1:  # p | U_t, so the lift e - v_p(U_t) is at most 0
        return TauResult(t, "factorization-lift")
    lift = e - nu_in_u(params, p, t)
    if p == 2 and t == 3 and lift > 0:
        # odd a: U_{3j} with j odd has the 2-adic weight of U_3, so lift from U_6
        t, lift = 6, e - nu_in_u(params, 2, 6)
    return TauResult(t * p ** max(0, lift), "factorization-lift")


def tau(params: LucasParams, m: int, *, seed: int = 0) -> TauResult:
    """tau(m) as the lcm of the prime-power ranks dividing m."""
    require_rank_modulus(params, m)
    if m == 1:
        return TauResult(1, "factorization-lift")
    value = 1
    for p, e in factorize(m, seed=seed).factors:
        value = math.lcm(value, tau_prime_power(params, p, e, seed=seed).value)
    return TauResult(value, "factorization-lift")


def tau_min_divisor_oracle(
    params: LucasParams, target: int, multiple: int, *, seed: int = 0
) -> TauResult:
    """tau(target) given any index `multiple` with target | U_multiple.

    The claimed multiple is re-verified before stripping; a bad claim
    raises NotAMultiple rather than silently passing through.
    """
    if target < 2:
        raise BadRange(f"need target >= 2, got {target}")
    if multiple < 1:
        raise BadRange(f"need multiple >= 1, got {multiple}")
    require_rank_modulus(params, target)
    if uv_mod(params, multiple, target)[0] != 0:
        raise NotAMultiple(f"{target} does not divide U_{multiple}")
    value, witness = _strip_to_minimum(params, target, multiple, seed)
    return TauResult(value, "divisor-minimality", witness)
