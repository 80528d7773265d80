"""Rank of apparition: tau(m) = least k >= 1 with m | U_k.

Three independent routes are provided.  `tau_scan` is the definitional
oracle: it steps the recurrence mod m, or for a large cap searches the
orbit that the recurrence walks on P^1(Z/m), and decides each k by
m | U_k alone.  `tau` factors m and combines
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


# A cap up to this is stepped one index at a time.  Timed with no answer below the cap
# (nproc = 2, Python 3.11.7), the orbit search overtakes the plain loop near cap 200-400
# when every y is a unit mod m (primes of 20-62 bits), but near 800-1000 for smooth m,
# whose points take the general key path.  On the pair sweeps' own scans with caps in
# (256, 1024], limits of 512 to 1024 take within 6% of each other, and 256 takes 20% more.
_PLAIN_MAX = 1024
_BABY_MAX = 2 ** 16  # bounds the baby table; larger caps take more giant steps
_GIANT_BATCH = 64  # giant points keyed with one inverse


def tau_scan(params: LucasParams, m: int, cap: int) -> TauResult:
    """Least k <= cap with m | U_k, by definition: no rank theory, no factoring of m.

    A cap up to 1024 is stepped one index at a time.  Above it, the scan
    is a baby-step giant-step search for the return time of P_0 = (1 : 0)
    on the projective line over Z/m, where P_k = (U_{k+1} : U_k) and
    M = [[a, b], [1, 0]] takes P_k to P_{k+1}.  M is a bijection there
    since gcd(b, m) = 1, and m | U_k exactly when P_k = P_0, so the
    first giant point P_iG equal to a baby point P_j (0 <= j < G) gives
    the least k = iG - j (see `_orbit_search`).  Every k returned is
    first confirmed to satisfy m | U_k.

    Raises NotCoprimeToB when gcd(m, b) > 1 (no such k exists at all),
    BadRange for a cap below 1, and NotFound when the cap is exhausted.
    """
    require_rank_modulus(params, m)
    if cap < 1:
        raise BadRange(f"need cap >= 1, got {cap}")
    am = params.a % m
    bm = params.b % m
    if cap > _PLAIN_MAX:
        found = _orbit_search(am, bm, m, cap)
        if found is None:
            raise NotFound(f"no index k <= {cap} with {m} | U_k")
        return TauResult(found, "linear-scan")
    u0, u1 = 0, 1 % m
    for k in range(1, cap, 2):  # U_k is in u1, U_{k+1} goes to u0
        if not u1:
            return TauResult(k, "linear-scan")
        u0 = (am * u1 + bm * u0) % m
        if not u0:
            return TauResult(k + 1, "linear-scan")
        u1 = (am * u0 + bm * u1) % m
    if cap % 2 and not u1:  # an odd cap leaves U_cap unchecked in u1
        return TauResult(cap, "linear-scan")
    raise NotFound(f"no index k <= {cap} with {m} | U_k")


def _orbit_search(am: int, bm: int, m: int, cap: int) -> int | None:
    """Least k <= cap with m | U_k, for a cap above 1024 (Shanks's baby steps, giant steps).

    Steps U_0 .. U_{G+1} mod m one by one, with the giant stride
    G = min(ceil(sqrt(cap)), 2^16), answering at a zero in U_1 .. U_G.
    Past that tau > G, so the baby points P_0 .. P_{G-1} are distinct
    and keyed to their index.  The giant points P_G, P_2G, ... follow
    from (x, y) = (U_{n+1}, U_n) by the addition identity
    U_{n+G} = U_G x + b U_{G-1} y.  A key match P_iG = P_j is accepted
    only if the cross product U_iG U_{j+1} - U_{iG+1} U_j, which is
    (-b)^j U_{iG-j}, is 0 mod m, that is, only if m | U_{iG-j}.
    """
    stride = min(math.isqrt(cap - 1) + 1, _BABY_MAX)
    us = [0, 1 % m]  # U_0 .. U_{G+1} mod m
    for k in range(1, stride + 1):
        if us[k] == 0:
            return k
        us.append((am * us[k] + bm * us[k - 1]) % m)
    idempotents: dict[int, int] = {}
    babies = _keys(list(zip(us[1 : stride + 1], us[:stride])), m, idempotents)
    index = dict(zip(babies, range(stride)))
    s11, s12, s21, s22 = us[stride + 1], bm * us[stride] % m, us[stride], bm * us[stride - 1] % m
    x, y = s11, s21  # P_G
    giants = (cap + stride - 1) // stride  # P_iG for i past this gives k = iG - j > cap
    for first in range(1, giants + 1, _GIANT_BATCH):
        batch = []  # P_iG for i = first, first + 1, ...
        for _ in range(min(_GIANT_BATCH, giants + 1 - first)):
            batch.append((x, y))
            x, y = (s11 * x + s12 * y) % m, (s21 * x + s22 * y) % m
        keys = _keys(batch, m, idempotents)
        if index.keys().isdisjoint(keys):
            continue
        for i, (gx, gy), key in zip(range(first, giants + 1), batch, keys):
            j = index.get(key)
            if j is not None and (gy * us[j + 1] - gx * us[j]) % m == 0:
                k = i * stride - j
                return k if k <= cap else None
    return None


def _keys(points: list[tuple[int, int]], m: int, idempotents: dict[int, int]) -> list[int]:
    """One int per point (x : y) of P^1(Z/m), equal exactly when the points are.

    With g = gcd(y, m), y is a unit mod m1, the largest divisor of m
    prime to g, and x is one mod m2 = m/m1.  The unit w equal to y mod m1
    and x mod m2 (through the CRT idempotent of m1, cached per g) scales
    every representative of the point to the same (x/w, y/w); compare
    the M-symbols of Cremona, Algorithms for Modular Elliptic Curves,
    ch. 2.  That pair is 1 in y mod m1 and 1 in x mod m2, so g and
    c = (x + y - w)/w, which is x/w mod m1 and y/w mod m2, pin it down.
    All the w are inverted with one `pow` (Montgomery, Math. Comp. 48, 1987).

    Until the search meets a y that is not a unit (the cache of idempotents
    is empty), a batch is first tried as all units: if the product of its
    nonzero y is a unit, each point is keyed m + x/y mod m straight away,
    or m*m for y = 0, the same int as below.  A batch that fails leaves an
    idempotent in the cache, so later batches go straight to the general path.
    """
    if not idempotents:
        prefix, p = [], 1  # prefix[t] = the product of the nonzero y before point t
        for start in range(0, len(points), _GIANT_BATCH):  # give up at the first non-unit chunk
            for _, y in points[start : start + _GIANT_BATCH]:
                prefix.append(p)
                if y:
                    p = p * y % m
            if math.gcd(p, m) != 1:
                break
        else:
            inverse = pow(p, -1, m)
            keys = [m * m] * len(points)
            for t in range(len(points) - 1, -1, -1):
                x, y = points[t]
                if y:
                    keys[t] = m + x * inverse * prefix[t] % m
                    inverse = inverse * y % m
            return keys
    ws, gs, prefix = [], [], [1]
    for x, y in points:
        g = math.gcd(y, m)
        if g == 1:
            w = y
        else:
            e = idempotents.get(g)
            if e is None:
                m1 = m
                while (d := math.gcd(m1, g)) > 1:
                    m1 //= d
                e = idempotents[g] = m // m1 * pow(m // m1, -1, m1) % m  # 1 mod m1, 0 mod m2
            w = (x + (y - x) * e) % m
        ws.append(w)
        gs.append(g)
        prefix.append(prefix[-1] * w % m)
    inverse = pow(prefix[-1], -1, m)  # 1 / (w_0 ... w_{n-1})
    keys = [0] * len(points)
    for t in range(len(points) - 1, -1, -1):
        x, y = points[t]
        keys[t] = gs[t] * m + (x + y - ws[t]) * inverse * prefix[t] % m
        inverse = inverse * ws[t] % m
    return keys


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
