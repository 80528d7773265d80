"""Closed forms for p-adic valuations of U_n and V_n.

Each function returns the exponent together with a case tag naming the
branch that fired, so grid tests can assert both the value and the
dispatch.  Primes dividing b are refused outright: no finite closed
form covers them.
"""

from typing import NamedTuple

from . import rank
from .errors import BadRange, PrimeDividesB, ZeroArgument
from .lucas_core import LucasParams, nu, u_exact


class Valuation(NamedTuple):
    value: int
    prime: int
    case: str | None = None


def nu_int(p: int, x: int) -> Valuation:
    """v_p(x) for a nonzero integer x."""
    rank.require_prime(p)
    if x == 0:
        raise ZeroArgument("0 has no finite valuation")
    return Valuation(nu(p, x), p)


def _check_args(params: LucasParams, p: int, n: int) -> None:
    rank.require_prime(p)
    if params.b % p == 0:
        raise PrimeDividesB(f"{p} divides b = {params.b}, no closed form applies")
    if n == 0:
        raise ZeroArgument("index 0 is outside the formulas")
    if n < 0:
        raise BadRange(f"index must be positive, got {n}")


def nu_u(params: LucasParams, p: int, n: int) -> Valuation:
    """v_p(U_n) for n >= 1 and prime p not dividing b."""
    _check_args(params, p, n)
    a = params.a
    if p == 2:
        if a % 2 == 0:
            if n % 2 == 0:
                return Valuation(nu(2, n) + nu(2, a) - 1, 2, "2|a,2|n")
            return Valuation(0, 2, "2|a,2!|n")
        if n % 3 != 0:
            return Valuation(0, 2, "2!|a,3!|n")
        if n % 2 == 0:
            return Valuation(nu(2, n) + nu(2, u_exact(params, 6)) - 1, 2, "2!|a,3|n,2|n")
        return Valuation(nu(2, u_exact(params, 3)), 2, "2!|a,3|n,2!|n")
    if params.delta % p == 0:
        if n % p == 0:
            return Valuation(nu(p, n) + rank.nu_in_u(params, p, p) - 1, p, "p|delta,p|n")
        return Valuation(0, p, "p|delta,p!|n")
    t = rank.tau_prime(params, p).value
    if n % t == 0:
        return Valuation(nu(p, n) + rank.nu_in_u(params, p, t), p, "p!|delta,tau|n")
    return Valuation(0, p, "p!|delta,tau!|n")


def nu_v(params: LucasParams, p: int, n: int) -> Valuation:
    """v_p(V_n) for n >= 1 and prime p not dividing b."""
    _check_args(params, p, n)
    a, b = params.a, params.b
    if p == 2:
        if a % 2 == 0:
            if n % 2 == 0:
                return Valuation(1, 2, "2|a,2|n")
            return Valuation(nu(2, a), 2, "2|a,2!|n")
        if n % 3 != 0:
            return Valuation(0, 2, "2!|a,3!|n")
        if n % 2 == 0:
            return Valuation(1, 2, "2!|a,3|n,2|n")
        return Valuation(nu(2, a * a + 3 * b), 2, "2!|a,3|n,2!|n")
    if params.delta % p != 0:
        t = rank.tau_prime(params, p).value
        if n % t != 0 and (2 * n) % t == 0:
            return Valuation(nu(p, n) + rank.nu_in_u(params, p, t), p, "tau!|n,tau|2n")
    return Valuation(0, p, "otherwise")
