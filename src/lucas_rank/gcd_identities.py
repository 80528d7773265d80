"""Closed forms for gcds of sequence values and index-based divisibility.

Valid for eligible coefficients (a > 0, delta > 0) and indices m, n >= 3.
The gcd results carry the branch that fired and d = gcd(m, n); the
ambiguous "1 or 2" branches are resolved by the parity rules

    2 | gcd(U_m, V_n)  iff  (2 | a and 2 | m) or (2 !| a, 2 !| b, 3 | d)
    2 | gcd(V_m, V_n)  iff  (2 | a) or (2 !| a, 2 !| b, 3 | d)
"""

import math
from typing import NamedTuple

from .errors import BadRange
from .lucas_core import LucasParams, nu2, require_eligible, u_exact, v_exact


class GcdWitness(NamedTuple):
    value: int
    branch: str  # "U_d" | "V_d" | "1" | "2"
    d: int


def check_pair(params: LucasParams, m: int, n: int) -> int:
    """Refuse ineligible params, then index pairs below 3; return d = gcd(m, n)."""
    require_eligible(params)
    if m < 3 or n < 3:
        raise BadRange(f"indices must be >= 3, got ({m}, {n})")
    return math.gcd(m, n)


def gcd_uu(params: LucasParams, m: int, n: int) -> GcdWitness:
    """gcd(U_m, U_n) = U_{gcd(m, n)}."""
    d = check_pair(params, m, n)
    return GcdWitness(abs(u_exact(params, d)), "U_d", d)


def gcd_vv(params: LucasParams, m: int, n: int) -> GcdWitness:
    """gcd(V_m, V_n): V_d when the indices carry the same power of 2, else 1 or 2."""
    d = check_pair(params, m, n)
    if nu2(m) == nu2(n):
        return GcdWitness(abs(v_exact(params, d)), "V_d", d)
    if params.a % 2 == 0 or (params.b % 2 != 0 and d % 3 == 0):
        return GcdWitness(2, "2", d)
    return GcdWitness(1, "1", d)


def gcd_uv(params: LucasParams, m: int, n: int) -> GcdWitness:
    """gcd(U_m, V_n): V_d when m carries strictly more 2s than n, else 1 or 2."""
    d = check_pair(params, m, n)
    if nu2(m) > nu2(n):
        return GcdWitness(abs(v_exact(params, d)), "V_d", d)
    if (params.a % 2 == 0 and m % 2 == 0) or (
        params.a % 2 != 0 and params.b % 2 != 0 and d % 3 == 0
    ):
        return GcdWitness(2, "2", d)
    return GcdWitness(1, "1", d)


def divides_uu(params: LucasParams, n: int, m: int) -> bool:
    """Whether U_n | U_m, which for eligible params is exactly n | m."""
    check_pair(params, n, m)
    return m % n == 0


def divides_vu(params: LucasParams, n: int, m: int) -> bool:
    """Whether V_n | U_m: n | m with an even quotient."""
    check_pair(params, n, m)
    return m % n == 0 and (m // n) % 2 == 0
