"""Coefficient validation and evaluation of generalized Lucas sequences.

Both sequences obey x_{n+2} = a*x_{n+1} + b*x_n.  The first kind starts
U_0 = 0, U_1 = 1; the second kind starts V_0 = 2, V_1 = a.  Exact values
are produced by plain iteration; residues come from an index-doubling
ladder, so the two paths can be checked against each other.
"""

import math
from dataclasses import dataclass

from .errors import BadRange, Degenerate, NotCoprime, NotEligible, TooLarge, ZeroModulus

EXACT_INDEX_CAP = 10 ** 6
MOD_INDEX_CAP = 2 ** 63 - 1

# Pairs whose root ratio is a root of unity.  Together with b = 0 these
# are exactly the cases where U_n vanishes infinitely often.
_DEGENERATE_PAIRS = frozenset(
    [(2, -1), (-2, -1), (1, -1), (-1, -1), (0, 1), (0, -1), (1, 0), (-1, 0)]
)


@dataclass(frozen=True)
class LucasParams:
    """Validated coefficient pair plus derived facts used everywhere else."""

    a: int
    b: int
    delta: int
    theorem_eligible: bool


# U_n and V_n are plain arbitrary-precision integers.
SequenceValue = int


def make_params(a: int, b: int) -> LucasParams:
    """Validate (a, b) and compute delta = a^2 + 4b and eligibility.

    Raises NotCoprime when a and b share a factor and Degenerate for
    b = 0 or the eight root-of-unity pairs.
    """
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) = {math.gcd(a, b)}, need coprime coefficients")
    if b == 0 or (a, b) in _DEGENERATE_PAIRS:
        raise Degenerate(f"({a}, {b}) defines a degenerate sequence")
    delta = a * a + 4 * b
    return LucasParams(a=a, b=b, delta=delta, theorem_eligible=(a > 0 and delta > 0))


def require_eligible(params: LucasParams) -> None:
    """Refuse params outside the closed forms' hypotheses (a > 0, delta > 0)."""
    if not params.theorem_eligible:
        raise NotEligible(
            f"(a, b) = ({params.a}, {params.b}) needs a > 0 and delta > 0, "
            f"got delta = {params.delta}"
        )


def nu(p: int, x: int) -> int:
    """Exponent of the prime p in the nonzero integer x."""
    e = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        e += 1
    return e


def nu2(x: int) -> int:
    """Exponent of 2 in the nonzero integer x, from its lowest set bit."""
    return (x & -x).bit_length() - 1


def _iterate(params: LucasParams, n: int, x0: int, x1: int) -> int:
    if n < 0:
        raise BadRange(f"index must be nonnegative, got {n}")
    if n > EXACT_INDEX_CAP:
        raise TooLarge(f"exact evaluation is capped at index {EXACT_INDEX_CAP}, got {n}")
    a, b = params.a, params.b
    for _ in range(n):
        x0, x1 = x1, a * x1 + b * x0
    return x0


def u_exact(params: LucasParams, n: int) -> SequenceValue:
    """U_n as an exact integer, by iteration."""
    return _iterate(params, n, 0, 1)


def v_exact(params: LucasParams, n: int) -> SequenceValue:
    """V_n as an exact integer, by iteration."""
    return _iterate(params, n, 2, params.a)


def uv_mod(params: LucasParams, n: int, modulus: int) -> tuple[int, int]:
    """(U_n mod modulus, V_n mod modulus) in O(log n) steps.

    Walks the bits of n keeping the pair (U_k, U_{k+1}) and the two
    division-free doubling identities

        U_{2k}   = U_k * (2*U_{k+1} - a*U_k)
        U_{2k+1} = U_{k+1}^2 + b*U_k^2

    then recovers V_n = 2*U_{n+1} - a*U_n at the end.  Residues are
    normalized to [0, modulus).
    """
    if modulus == 0:
        raise ZeroModulus("modulus must be positive")
    if modulus < 0:
        raise BadRange(f"modulus must be positive, got {modulus}")
    if n < 0:
        raise BadRange(f"index must be nonnegative, got {n}")
    if n > MOD_INDEX_CAP:
        raise TooLarge(f"modular evaluation is capped at index {MOD_INDEX_CAP}, got {n}")
    a = params.a % modulus
    b = params.b % modulus
    u, w = 0, 1 % modulus  # (U_k, U_{k+1}) for k = 0
    for i in range(n.bit_length() - 1, -1, -1):
        t = (2 * w - a * u) % modulus
        u, w = (u * t) % modulus, (w * w + b * u * u) % modulus
        if (n >> i) & 1:
            u, w = w, (a * w + b * u) % modulus
    v = (2 * w - a * u) % modulus
    return u, v
