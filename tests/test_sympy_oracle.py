"""sympy as a third, independent oracle for primality, factoring and U/V at (1, 1)."""

import math
import random

import pytest

from lucas_rank.lucas_core import make_params, u_exact, v_exact
from lucas_rank.rank import _MR_PSI, factorize, is_prime

sympy = pytest.importorskip("sympy")

# Strong pseudoprimes: 3825123056546413051 passes Miller-Rabin to the
# first nine prime bases; psi_13 passes the first thirteen and is caught
# only by the extra bases.
SPSP_9 = 3825123056546413051
PSI_13 = 3317044064679887385961981
# Above psi_13: 997 * 3327025140100187949847, refused by the gcd with the primes below 1000,
# and the least prime past psi_13.
PAST_PSI_13_997 = 3317044064679887385997459
PAST_PSI_13_PRIME = 3317044064679887385962123


def _seeded_numbers() -> list[int]:
    rng = random.Random(20251018)
    numbers = []
    for _ in range(100):
        numbers.append(rng.getrandbits(rng.randint(2, 96)))
        numbers.append(int(sympy.nextprime(rng.getrandbits(rng.randint(2, 95)))))
        p = int(sympy.nextprime(rng.getrandbits(rng.randint(2, 47))))
        q = int(sympy.nextprime(rng.getrandbits(rng.randint(2, 47))))
        numbers.append(p * q)
    return numbers


@pytest.mark.parametrize("n", [SPSP_9, PSI_13, PAST_PSI_13_997, PAST_PSI_13_PRIME,
                               561, 41041, 2 ** 61 - 1, 2 ** 89 - 1])
def test_is_prime_on_pseudoprimes_and_known_values(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_on_seeded_numbers():
    numbers = _seeded_numbers()
    assert all(n < 2 ** 96 for n in numbers)
    mismatched = [n for n in numbers if is_prime(n) != sympy.isprime(n)]
    assert mismatched == []


def _tier_numbers(lo: int, hi: int, rng: random.Random) -> list[int]:
    """20 seeded primes, 20 odd numbers and 20 semiprimes with no factor trial division finds."""
    numbers = []
    while len(numbers) < 20:
        p = int(sympy.nextprime(rng.randrange(lo, hi)))
        if p < hi:
            numbers.append(p)
    numbers += [rng.randrange(lo, hi - 1) | 1 for _ in range(20)]
    # below 10^4 the sieve answers, so take any odd factors; above, take factors past 997,
    # the largest of the 168 primes that `is_prime` screens with one gcd before Miller-Rabin
    smallest = 3 if hi <= 10 ** 4 else 1000
    while len(numbers) < 60:
        p = int(sympy.nextprime(rng.randrange(smallest, math.isqrt(hi))))
        q = int(sympy.nextprime(rng.randrange(max(p, lo // p), hi // p)))
        if lo <= p * q < hi:
            numbers.append(p * q)
    return numbers


# below the sieve limit, then one tier per Miller-Rabin base set
_TIERS = [2, 10 ** 4] + [psi for psi, _ in _MR_PSI] + [2 ** 96]


@pytest.mark.parametrize("lo,hi", list(zip(_TIERS, _TIERS[1:])))
def test_is_prime_in_each_tier(lo, hi):
    numbers = _tier_numbers(lo, hi, random.Random(lo))
    assert sum(map(sympy.isprime, numbers)) >= 20
    assert [n for n in numbers if is_prime(n) != sympy.isprime(n)] == []


def test_factorize_strong_pseudoprime():
    assert dict(factorize(SPSP_9).factors) == sympy.factorint(SPSP_9)


def test_factorize_psi_13():
    # two primes of 41 and 42 bits, so the split is left to rho
    assert dict(factorize(PSI_13).factors) == sympy.factorint(PSI_13)


def test_u_v_at_1_1_are_fibonacci_and_lucas():
    fib = make_params(1, 1)
    for n in range(501):
        assert u_exact(fib, n) == sympy.fibonacci(n)
        assert v_exact(fib, n) == sympy.lucas(n)
