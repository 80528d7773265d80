"""Rank of apparition: tau(m) = least k >= 1 with m | U_k.

Three independent routes are provided.  `tau_scan` is the definitional
oracle: it splits m into parts, steps the recurrence mod each part or, for
a large cap, searches the orbit it walks on the part's projective line,
and decides each k by m | U_k alone, with trial division by the primes
below 10^4 as its only factoring.  `tau` factors m and combines
prime-power ranks by lcm, using valuation-based lifting at each prime.
`tau_min_divisor_oracle` verifies a claimed multiple of the rank and strips
prime factors while divisibility survives; it certifies minimality without
trusting the lifting formulas.
"""

import functools
import math
import random
from collections.abc import Generator, Iterable, Iterator
from typing import NamedTuple

from .errors import BadRange, NotAMultiple, NotCoprimeToB, NotFound, NotPrime, TooLarge
from .lucas_core import LucasParams, nu, nu2, uv_mod

FACTOR_BOUND = 2 ** 96
_TRIAL_LIMIT = 10_000


class Factorization(NamedTuple):
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), sorted by prime


class TauResult(NamedTuple):
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
# the 168 primes below 1000 (1,380 bits): `is_prime`'s screen and `_parts`'s first gcd
_LOW_PRODUCT = math.prod(_SMALL_PRIMES[:168])

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
    r = nu2(n - 1)  # n - 1 = 2^r * d with d odd
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
    if math.gcd(n, _LOW_PRODUCT) != 1:
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
        r = math.isqrt(t)
        if r * r == t:  # rho would take about sqrt(r) steps to split r * r
            stack += (r, r)
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


# A part of m whose own cap is at most this is stepped one index at a time; a larger one
# is searched.  Timed with no answer below the cap (nproc = 2, Python 3.11.7), the orbit
# search overtakes the plain loop near cap 150-250 when every y is a unit mod m (primes of
# 20-61 bits), but near 900-1250 for whole smooth m (parts of U_k of 129-163 bits), whose
# points take the general key path; `_split_scan` never searches those whole.  On the pair
# sweeps' own scans with caps in (256, 1024], limits of 640 and 1024 took within 1.1% of
# 512, while 384 took about 5% more and 256 took 24-26% more.  Only a cap above it pays the
# gcd with the primes from 1000 to 10^4 (`_parts`).
_PLAIN_MAX = 512
_BABY_MAX = 2 ** 16  # bounds the baby table; larger caps take more giant steps
_GIANT_BATCH = 64  # giant points keyed, with their mirrors, by one inverse
_MID_PRIMES = _SMALL_PRIMES[168:]  # the primes from 1000 to 10^4


def tau_scan(params: LucasParams, m: int, cap: int, *, walked: dict | None = None,
             parts: Iterable[tuple[int, int]] | None = None) -> TauResult:
    """Least k <= cap with m | U_k, by definition.

    m is split into parts (`_split_scan`), and each part is stepped one index
    at a time (`_plain_scan`) when its own cap is at most 512, else walked by
    Shanks's baby steps, giant steps (`_orbit_search`).  None of this uses rank theory or `uv_mod`, the only
    factoring is trial division by the primes below 10^4, and each part's k
    is decided by, or confirmed with, that part's own U_k.

    `walked`, a dict the caller keeps across calls with the same (a, b),
    records each part's least k as {part: k}, so that a part met again is
    not walked again (see `_split_scan`).
    `parts`, when given, must be m's split at this cap as `_parts(m, cap)`
    gives it, so that a caller who has already split m need not split it
    again; left as None, m is split here.

    Raises NotCoprimeToB when gcd(m, b) > 1 (no such k exists at all),
    BadRange for a cap below 1, and NotFound when the cap is exhausted.
    """
    require_rank_modulus(params, m)
    if cap < 1:
        raise BadRange(f"need cap >= 1, got {cap}")
    k = _split_scan(params.a, params.b, _parts(m, cap) if parts is None else parts, cap,
                    {} if walked is None else walked)
    if k is None:
        raise NotFound(f"no index k <= {cap} with {m} | U_k")
    return TauResult(k, "linear-scan")


@functools.cache
def _split_product() -> int:
    """The product of the primes from 1000 to 10^4 (12,898 bits), built on first use."""
    return math.prod(_MID_PRIMES)


def _split_scan(a: int, b: int, parts: Iterable[tuple[int, int]], cap: int,
                walked: dict) -> int | None:
    """Least k <= cap with m | U_k, or None, as the lcm of the least k of m's parts.

    `parts` is m's split at `cap`, as `_parts(m, cap)` gives it: prime
    powers q^e of m with q below 10^4 and a cofactor r.  By CRT, P^1(Z/m)
    is the product of the parts' projective lines and M acts on each
    factor, so P_k = P_0 mod m exactly when it holds mod every part (see
    `_orbit_search` for M and P_k).  M permutes each finite line, so the k
    with P_k = P_0 mod a part are the multiples of the least one, and
    m | U_k exactly when k is a multiple of every part's least k.  An orbit
    of a permutation is never longer than its set, so the least k for q^e
    is at most |P^1(Z/q^e)| = q^(e-1)(q+1), and the part is walked to the
    cap or that, whichever is smaller; so is an r known to be prime.

    `walked` holds, under each part walked for this (a, b), the least k
    found.  It answers every cap: a k past the part's cap is past the cap
    itself, since k <= |P^1| where that bound applies, and the lcm
    refuses it.  A walk that finds nothing stores nothing.
    """
    k = 1
    for part, part_cap in parts:
        t = walked.get(part)
        if t is None:
            walk = _orbit_search if part_cap > _PLAIN_MAX else _plain_scan
            t = walk(a % part, b % part, part, part_cap)
            if t is None:
                return None
            walked[part] = t
        if (k := math.lcm(k, t)) > cap:
            return None
    return k


def _parts(m: int, cap: int) -> Iterator[tuple[int, int]]:
    """The parts of m in order, each with the cap it is walked to.

    An m below 10^6 is trial-divided by the primes while q^2 <= m, so what
    is left is 1 or a prime r, walked to min(cap, r + 1) = min(cap,
    |P^1(F_r)|).  A larger m gives the powers of its primes below 1000
    from g = gcd(m, their product).  Its cofactor r has none of them, so
    below 10^6 it too is 1 or a prime.  An r of 10^6 or more is split the
    same way at the primes from 1000 to 10^4, but only for a cap above
    `_PLAIN_MAX`, which pays for that gcd; what is left goes last.
    """
    if m < 10**6:
        for q in _SMALL_PRIMES:
            if q * q > m:
                break
            if m % q == 0:
                part = q
                m //= q
                while m % q == 0:
                    m //= q
                    part *= q
                yield part, min(cap, part // q * (q + 1))
    else:
        m = yield from _prime_powers(m, math.gcd(m, _LOW_PRODUCT), cap, _SMALL_PRIMES)
        if m >= 10**6 and cap > _PLAIN_MAX:
            m = yield from _prime_powers(m, math.gcd(m, _split_product()), cap, _MID_PRIMES)
    if m > 1:
        yield m, min(cap, m + 1) if m < 10**6 else cap


def _prime_powers(m: int, g: int, cap: int,
                  primes: list[int]) -> Generator[tuple[int, int], None, int]:
    """(q^e, min(cap, q^(e-1)(q+1))) for each prime q of g, q^e || m; returns m without them.

    g is a squarefree divisor of m whose primes are all in `primes`, an
    ascending list of primes below 10^4.  It is divided by them in order
    only while q^2 <= g: past that, g is 1 or one prime.
    """
    for q in primes:
        if q * q > g:
            if g == 1:
                break
            q = g
        elif g % q:
            continue
        g //= q
        part = q
        m //= q
        while m % q == 0:
            m //= q
            part *= q
        yield part, min(cap, part // q * (q + 1))
    return m


def _plain_scan(am: int, bm: int, m: int, cap: int) -> int | None:
    """Least k <= cap with m | U_k, or None, stepping the recurrence one index a pass."""
    u0, u1 = 0, 1 % m
    for k in range(1, cap + 1):  # U_k is in u1
        if not u1:
            return k
        u0, u1 = u1, (am * u1 + bm * u0) % m
    return None


def _orbit_search(am: int, bm: int, m: int, cap: int) -> int | None:
    """Least k <= cap with m | U_k, or None (Shanks's baby steps, giant steps).

    M = [[a, b], [1, 0]] takes P_k = (U_{k+1} : U_k) to P_{k+1} on the
    projective line over Z/m, bijectively since gcd(b, m) = 1, and m | U_k
    exactly when P_k = P_0 = (1 : 0).  Steps U_0 .. U_{G+1} mod m one by one,
    with G = min(ceil(sqrt(cap)), 2^16) baby points, answering at a zero in
    U_1 .. U_G.  Past that tau > G, so the baby points P_0 .. P_{G-1} are
    distinct and keyed to their index.  The giant points P_S, P_2S, ... with
    stride S = 2G - 1 follow from (x, y) = (U_{n+1}, U_n) by the addition
    identity U_{n+S} = U_S x + b U_{S-1} y, with U_S and U_{S+1} from
    U_{G-1} .. U_{G+1} by the same identity and b U_{S-1} = U_{S+1} - a U_S.
    Run backwards, the recurrence gives each P_n = (x : y) a mirror
    (a y - x : y) = P_{-n}.  A match of P_iS with baby P_j means m | U_{iS-j},
    and a match of its mirror means m | U_{iS+j}, so giant i covers the window
    iS - G + 1 .. iS + G - 1.  The windows tile every k >= G, each side of one
    holds at most one multiple of tau, and the first window holding a multiple
    holds tau itself, the smaller of its two candidates.

    A match is accepted only if m | U_k by a cross product: for the point,
    U_iS U_{j+1} - U_{iS+1} U_j = (-b)^j U_{iS-j}; for the mirror,
    y U_{j+1} - (a y - x) U_j = U_iS U_{j+1} + b U_{iS-1} U_j = U_{iS+j}.
    """
    babies = min(math.isqrt(cap - 1) + 1, _BABY_MAX)  # G
    us = [0, 1 % m]  # U_0 .. U_{G+1} mod m
    for k in range(1, babies + 1):
        if us[k] == 0:
            return k
        us.append((am * us[k] + bm * us[k - 1]) % m)
    cofactors: dict[int, int] = {}
    index = dict(zip(_keys(us[1 : babies + 1], us[:babies], m, cofactors), range(babies)))
    stride = 2 * babies - 1  # S
    # U_S and U_{S+1}, then b U_{S-1} and b U_S, from U_{G-1} .. U_{G+1}
    u0, u1, u2 = us[babies - 1 : babies + 2]
    s1, s2 = (u1 * u1 + bm * u0 * u0) % m, u1 * (u2 + bm * u0) % m
    bs0, bs1 = (s2 - am * s1) % m, bm * s1 % m
    x, y = s2, s1  # P_S
    giants = (cap - babies + stride) // stride  # windows starting at or below the cap
    for first in range(1, giants + 1, _GIANT_BATCH):
        xs, ys = [], []  # P_iS for i = first, first + 1, ...
        for _ in range(min(_GIANT_BATCH, giants + 1 - first)):
            xs.append(x)
            ys.append(y)
            x, y = (s2 * x + bs1 * y) % m, (s1 * x + bs0 * y) % m
        keys = _keys(xs, ys, m, cofactors, am)
        if index.keys().isdisjoint(keys):
            continue
        n = len(xs)
        for t in range(n):
            gx, gy = xs[t], ys[t]
            j = index.get(keys[t])
            if j is not None and (gy * us[j + 1] - gx * us[j]) % m == 0:
                k = (first + t) * stride - j
            else:
                j = index.get(keys[n + t])
                if j is None or (gy * us[j + 1] - (am * gy - gx) * us[j]) % m:
                    continue
                k = (first + t) * stride + j
            return k if k <= cap else None
    return None


def _keys(xs: list[int], ys: list[int], m: int, cofactors: dict[int, int],
          a: int | None = None) -> list[int]:
    """One int per point (x : y) of P^1(Z/m), equal exactly when the points are.

    The points come as parallel lists of coordinates.  With `a`, the n keys
    of the points are followed by those of their mirrors (see `_orbit_search`).

    With g = gcd(y, m) and m1 the largest divisor of m prime to g (cached
    per g), w = y + m1*x is a unit mod m: it is y mod m1, where y is a unit,
    and m1*x mod each prime of g, which divides y but not x.  Scaling the
    point by a unit scales w by the same unit, so every representative
    becomes (c : 1 - m1*c) with c = x/w, and g*m + c names the point.
    All the w are inverted with one `pow` (Montgomery, Math. Comp. 48, 1987).

    Until the search meets a y that is not a unit (the cache of cofactors
    is empty), a batch is first tried as all units: if the product of its
    nonzero y is a unit, each point is keyed m + r with r = x/y mod m, and
    its mirror m + (a - r) mod m, or m*m + 1 for y = 0 (g = m, m1 = 1,
    w = x), the same int as below; (1 : 0) is its own mirror.  A batch that
    fails leaves a cofactor in the cache, so later batches go straight to
    the general path, where the mirrors join the batch.
    """
    n = len(xs)
    if not cofactors:
        prefix, p = [], 1  # prefix[t] = the product of the nonzero y before point t
        for y in ys:
            prefix.append(p)
            if y:
                p = p * y % m
        if math.gcd(p, m) == 1:
            inverse = pow(p, -1, m)
            keys = [m * m + 1] * (n if a is None else 2 * n)
            for t in range(n - 1, -1, -1):
                y = ys[t]
                if y:
                    r = xs[t] * inverse * prefix[t] % m
                    keys[t] = m + r
                    if a is not None:
                        keys[n + t] = m + (a - r) % m
                    inverse = inverse * y % m
            return keys
    if a is not None:
        xs = xs + [(a * y - x) % m for x, y in zip(xs, ys)]
        ys = ys + ys
    ws, gs, prefix = [], [], [1]
    for x, y in zip(xs, ys):
        g = math.gcd(y, m)
        m1 = cofactors.get(g)
        if m1 is None:
            m1 = m
            while (d := math.gcd(m1, g)) > 1:
                m1 //= d
            cofactors[g] = m1
        w = (y + m1 * x) % m
        ws.append(w)
        gs.append(g)
        prefix.append(prefix[-1] * w % m)
    inverse = pow(prefix[-1], -1, m)  # 1 / (w_0 ... w_{n-1})
    keys = [0] * len(xs)
    for t in range(len(xs) - 1, -1, -1):
        keys[t] = gs[t] * m + xs[t] * inverse * prefix[t] % m
        inverse = inverse * ws[t] % m
    return keys


def _strip_to_minimum(params: LucasParams, target: int, multiple: int, seed: int) -> TauResult:
    """Shrink a verified multiple of the rank to the rank itself.

    Every k with target | U_k is a multiple of tau(target), so removing
    prime factors while divisibility persists lands exactly on tau.  The
    witness lists the multiple and every candidate tried, in order.
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
    return TauResult(m, "divisor-minimality", tuple(witness))


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
    return _strip_to_minimum(params, p, p - eps, seed)


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

    The claimed multiple is verified before it is factored and stripped; a
    bad claim raises NotAMultiple rather than silently passing through.
    """
    if target < 2:
        raise BadRange(f"need target >= 2, got {target}")
    if multiple < 1:
        raise BadRange(f"need multiple >= 1, got {multiple}")
    require_rank_modulus(params, target)
    if uv_mod(params, multiple, target)[0]:
        raise NotAMultiple(f"{target} does not divide U_{multiple}")
    return _strip_to_minimum(params, target, multiple, seed)
