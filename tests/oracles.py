"""Slow, obviously correct oracles shared by the test modules."""


def nu_slow(p, x):
    """The exponent of p in the nonzero integer x, by repeated division."""
    x = abs(x)
    e = 0
    while x and x % p == 0:
        x //= p
        e += 1
    return e


def strong_probable_prime(n, base):
    """Whether odd n > base is a strong probable prime to base (Miller-Rabin's test)."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False
