"""Rank of apparition: tau(m) = least k >= 1 with m | U_k.

Three independent routes are provided.  `tau_scan` steps the recurrence
mod m and is the definitional oracle.  `tau` factors m and combines
prime-power ranks by lcm, using valuation-based lifting at each prime.
`tau_min_divisor_oracle` starts from any verified multiple of the rank
and strips prime factors while divisibility survives; it certifies
minimality without trusting the lifting formulas.
"""

import math
import random
from dataclasses import dataclass

from .errors import BadRange, NotAMultiple, NotCoprimeToB, NotFound, NotPrime, TooLarge
from .lucas_core import LucasParams, nu, uv_mod

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


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = _sieve(_TRIAL_LIMIT)

# Strong-probable-prime bases: the first 13 primes certify every
# n < 3.3e24 (beyond 2^81).  Larger inputs get extra fixed bases; with
# inputs capped at 2^96 a false positive is not a practical concern.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_CERTIFIED_BELOW = 3_317_044_064_679_887_385_961_981


def _is_spsp(n: int, base: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:64]:
        if n % p == 0:
            return n == p
    bases = _MR_BASES if n < _MR_CERTIFIED_BELOW else _MR_BASES + _MR_EXTRA_BASES
    return all(_is_spsp(n, a) for a in bases)


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
    if n > 1:
        if n < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(n):
            # no factor below 10^4 survives, so small leftovers are prime
            counts[n] = counts.get(n, 0) + 1
        else:
            rng = random.Random(seed)
            stack = [n]
            while stack:
                t = stack.pop()
                if is_prime(t):
                    counts[t] = counts.get(t, 0) + 1
                    continue
                d = _rho_brent(t, rng)
                stack.append(d)
                stack.append(t // d)
    return Factorization(x, tuple(sorted(counts.items())))


def nu_in_u(params: LucasParams, p: int, k: int) -> int:
    """v_p(U_k) for k >= 1, computed from residues mod growing powers of p."""
    if k < 1:
        raise BadRange("U_0 = 0 has no finite valuation")
    e = 8
    while True:
        r = uv_mod(params, k, p ** e)[0]
        if r:
            return nu(p, r)
        e *= 2


def tau_scan(params: LucasParams, m: int, cap: int) -> TauResult:
    """Least k <= cap with m | U_k, by stepping the recurrence mod m.

    Raises NotCoprimeToB when gcd(m, b) > 1 (no such k exists at all)
    and NotFound when the cap is exhausted.
    """
    if m < 1:
        raise BadRange(f"need m >= 1, got {m}")
    if math.gcd(m, params.b) != 1:
        raise NotCoprimeToB(f"gcd({m}, {params.b}) > 1, rank undefined")
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

    p | delta forces tau(p) = p, and tau(2) is 2 or 3 by parity of a.
    Otherwise tau(p) divides p - chi(p), where chi is the quadratic
    character of delta mod p, so stripping divisors of p - chi(p) finds
    the minimum.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if params.b % p == 0:
        raise NotCoprimeToB(f"{p} divides b = {params.b}")
    if params.delta % p == 0:
        return TauResult(p, "factorization-lift")
    if p == 2:
        # 2 | U_2 = a when a is even; otherwise U_3 = a^2 + b is even
        return TauResult(2 if params.a % 2 == 0 else 3, "factorization-lift")
    eps = 1 if pow(params.delta % p, (p - 1) // 2, p) == 1 else -1
    value, witness = _strip_to_minimum(params, p, p - eps, seed)
    return TauResult(value, "divisor-minimality", witness)


def tau_prime_power(params: LucasParams, p: int, e: int, *, seed: int = 0) -> TauResult:
    """tau(p^e) by lifting tau(p) with the valuation of U at the entry point."""
    if e < 1 and is_prime(p):  # a non-prime p is refused by tau_prime before e is
        raise BadRange(f"need e >= 1, got {e}")
    t = tau_prime(params, p, seed=seed).value
    lift = e - nu_in_u(params, p, t)
    if p == 2 and t == 3 and lift > 0:
        # odd a: U_{3j} with j odd has the 2-adic weight of U_3, so lift from U_6
        t, lift = 6, e - nu_in_u(params, 2, 6)
    return TauResult(t * p ** max(0, lift), "factorization-lift")


def tau(params: LucasParams, m: int, *, bound: int = FACTOR_BOUND, seed: int = 0) -> TauResult:
    """tau(m) as the lcm of the prime-power ranks dividing m."""
    if m < 1:
        raise BadRange(f"need m >= 1, got {m}")
    if math.gcd(m, params.b) != 1:
        raise NotCoprimeToB(f"gcd({m}, {params.b}) > 1, rank undefined")
    if m == 1:
        return TauResult(1, "factorization-lift")
    value = 1
    for p, e in factorize(m, bound=bound, seed=seed).factors:
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
    if math.gcd(target, params.b) != 1:
        raise NotCoprimeToB(f"gcd(target, {params.b}) > 1, rank undefined")
    if uv_mod(params, multiple, target)[0] != 0:
        raise NotAMultiple(f"target does not divide U_{multiple}")
    value, witness = _strip_to_minimum(params, target, multiple, seed)
    return TauResult(value, "divisor-minimality", witness)
