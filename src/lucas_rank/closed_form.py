"""Closed forms for the rank of apparition of products of sequence values.

Each function evaluates tau of a product (U_m*V_n, U_m*U_n, V_m*V_n, or
U_n*U_{n+p}*U_{n+2p}) from the indices alone, without computing the
product.  Branch conditions are decided on raw integers (parities,
2-adic weights of indices, small gcds) before any sequence value is
taken, and the result records the branch and the ingredients that went
into it.  Requires eligible coefficients: a > 0 and delta > 0.
"""

import math
from typing import NamedTuple

from . import rank
from .errors import BadRange, NotOddPrime
from .gcd_identities import check_pair, gcd_vv
from .lucas_core import LucasParams, nu2, require_eligible, u_exact, v_exact


class ClosedFormResult(NamedTuple):
    value: int
    case_label: str
    ingredients: dict


def tau_um_vn(params: LucasParams, m: int, n: int) -> ClosedFormResult:
    """tau(U_m * V_n) for m, n >= 3."""
    d = check_pair(params, m, n)
    lcm = math.lcm(m, n)
    w_m, w_n = nu2(m), nu2(n)
    ing = {"d": d, "lcm": lcm, "nu2_m": w_m, "nu2_n": w_n}
    if w_m <= w_n:
        return ClosedFormResult(2 * lcm, "2lcm", ing)
    vd = v_exact(params, d)
    ing["V_d"] = vd
    return ClosedFormResult(lcm * vd, "lcm*V_d", ing)


def tau_um_un(params: LucasParams, m: int, n: int) -> ClosedFormResult:
    """tau(U_m * U_n) for m, n >= 3."""
    d = check_pair(params, m, n)
    lcm = math.lcm(m, n)
    ud = u_exact(params, d)
    return ClosedFormResult(lcm * ud, "lcm*U_d", {"d": d, "lcm": lcm, "U_d": ud})


def tau_vm_vn(params: LucasParams, m: int, n: int) -> ClosedFormResult:
    """tau(V_m * V_n) for m, n >= 3."""
    g = gcd_vv(params, m, n)  # runs check_pair first
    d, lcm = g.d, math.lcm(m, n)
    a, b = params.a, params.b
    if b % 2 == 0:
        single, cond = False, "2|b"
    elif a % 2 != 0:
        if d % 3 == 0:
            single, cond = True, "2!|b,2!|a,3|d"
        else:
            single, cond = False, "2!|b,2!|a,3!|d"
    elif d % 2 == 0:
        single, cond = True, "2!|b,2|a,2|d"
    elif nu2(m) != nu2(n):
        single, cond = True, "2!|b,2|a,2!|d,nu2!="
    else:
        single, cond = False, "2!|b,2|a,2!|d,nu2="
    ing = {
        "d": d,
        "lcm": lcm,
        "gcd_vv": g.value,
        "gcd_branch": g.branch,
        "condition": cond,
    }
    if single:
        return ClosedFormResult(lcm * g.value, "lcm*gcd", ing)
    return ClosedFormResult(2 * lcm * g.value, "2lcm*gcd", ing)


def tau_triple(params: LucasParams, n: int, p: int) -> ClosedFormResult:
    """tau(U_n * U_{n+p} * U_{n+2p}) for n >= 1 and odd prime p."""
    require_eligible(params)
    if p < 3 or not rank.is_prime(p):
        raise NotOddPrime(f"need an odd prime, got {p}")
    if n < 1:
        raise BadRange(f"need n >= 1, got {n}")
    product = n * (n + p) * (n + 2 * p)
    ing = {"product": product}
    if n % p != 0:
        if n % 2 != 0:
            return ClosedFormResult(product, "p!|n,2!|n", ing)
        r = math.gcd(params.a, n + p)
        ing["gcd_a_n_plus_p"] = r
        return ClosedFormResult(product // 2 * (params.a // r), "p!|n,2|n", ing)
    up = u_exact(params, p)
    ing["U_p"] = up
    if n % 2 != 0:
        return ClosedFormResult(product // (p * p) * up * up, "p|n,2!|n", ing)
    vp = v_exact(params, p)
    r = math.gcd(vp, (n + p) // p)
    ing["V_p"] = vp
    ing["gcd_V_p_quot"] = r
    return ClosedFormResult(product // (2 * p * p) * up * up * (vp // r), "p|n,2|n", ing)
