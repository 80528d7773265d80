"""Number theory the benchmark uses to make inputs and to check answers.

The checks do not trust the code they check: nothing here calls
lucas_rank, except that factoring falls back on lucas_rank's own
`factorize` when sympy is not importable.
"""

import math

SMALL_PRIME_LIMIT = 10_000  # the trial-division bound lucas_rank also uses
_PRIME_POWER_LIMIT = 2 ** 31


def primes_below(limit: int) -> list:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


SMALL_PRIMES = primes_below(SMALL_PRIME_LIMIT)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def lucas_uv_mod(a: int, b: int, n: int, m: int) -> tuple:
    """(U_n mod m, V_n mod m) from the power [[a, b], [1, 0]]^n = [[U_{n+1}, bU_n], [U_n, bU_{n-1}]]."""
    r00, r01, r10, r11 = 1 % m, 0, 0, 1 % m
    x00, x01, x10, x11 = a % m, b % m, 1 % m, 0
    while n:
        if n & 1:
            r00, r01, r10, r11 = (
                (r00 * x00 + r01 * x10) % m, (r00 * x01 + r01 * x11) % m,
                (r10 * x00 + r11 * x10) % m, (r10 * x01 + r11 * x11) % m,
            )
        x00, x01, x10, x11 = (
            (x00 * x00 + x01 * x10) % m, (x00 * x01 + x01 * x11) % m,
            (x10 * x00 + x11 * x10) % m, (x10 * x01 + x11 * x11) % m,
        )
        n >>= 1
    u_next, u = r00, r10
    return u, (2 * u_next - a * u) % m


def valuation(p: int, x: int) -> int:
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def factor(x: int) -> dict:
    """{prime: exponent} for x >= 1."""
    if x == 1:
        return {}
    try:
        from sympy import factorint
    except ImportError:
        from lucas_rank.rank import factorize

        return dict(factorize(x, bound=x).factors)
    return factorint(x)


def is_rank(a: int, b: int, m: int, k: int) -> bool:
    """Certificate that k is the rank of apparition of m: m | U_k and m !| U_{k/q} for primes q | k.

    Valid for m coprime to b, where m | U_j exactly when rank | j.
    """
    if k < 1 or lucas_uv_mod(a, b, k, m)[0] != 0:
        return False
    return all(lucas_uv_mod(a, b, k // q, m)[0] != 0 for q in factor(k))


def has_small_prime_power(m: int) -> bool:
    """Whether m has a prime-power factor p^v_p(m) < 2^31 with p < 10^4."""
    for p in SMALL_PRIMES:
        if m % p == 0 and p ** valuation(p, m) < _PRIME_POWER_LIMIT:
            return True
    return False
