"""Every bad argument to a public function raises a LucasRankError."""

import pytest

from lucas_rank import (
    divides_vu,
    factorize,
    gcd_uu,
    make_params,
    nu_int,
    nu_u,
    nu_v,
    sweep,
    tau,
    tau_min_divisor_oracle,
    tau_prime,
    tau_prime_power,
    tau_scan,
    tau_triple,
    tau_um_vn,
    u_exact,
    uv_mod,
    v_exact,
)
from lucas_rank.errors import BadRange, LucasRankError
from lucas_rank.rank import nu_in_u

FIB = make_params(1, 1)

BAD_CALLS = {
    "make_params": (make_params, (2, 4)),
    "u_exact": (u_exact, (FIB, -1)),
    "v_exact": (v_exact, (FIB, -1)),
    "uv_mod-modulus": (uv_mod, (FIB, 3, -5)),
    "uv_mod-index": (uv_mod, (FIB, -1, 5)),
    "factorize": (factorize, (1,)),
    "nu_in_u": (nu_in_u, (FIB, 3, 0)),
    "nu_in_u-p-1": (nu_in_u, (FIB, 1, 5)),
    "nu_in_u-p-minus-1": (nu_in_u, (FIB, -1, 5)),
    "tau": (tau, (FIB, 0)),
    "tau_scan": (tau_scan, (FIB, 0, 10)),
    "tau_scan-cap-0": (tau_scan, (FIB, 5, 0)),
    "tau_scan-cap-minus-1": (tau_scan, (FIB, 5, -1)),
    "tau_prime": (tau_prime, (FIB, 4)),
    "tau_prime_power": (tau_prime_power, (FIB, 3, 0)),
    "tau_min_divisor_oracle-target": (tau_min_divisor_oracle, (FIB, 1, 5)),
    "tau_min_divisor_oracle-multiple": (tau_min_divisor_oracle, (FIB, 5, 0)),
    "nu_int": (nu_int, (3, 0)),
    "nu_u": (nu_u, (FIB, 3, -1)),
    "nu_v": (nu_v, (FIB, 3, -1)),
    "gcd_uu": (gcd_uu, (FIB, 2, 5)),
    "divides_vu": (divides_vu, (make_params(1, -2), 3, 6)),
    "tau_um_vn": (tau_um_vn, (FIB, 2, 5)),
    "tau_triple": (tau_triple, (FIB, 0, 3)),
    "sweep-theorem": (sweep, (FIB, "nope")),
    "sweep-inverted-range": (lambda: sweep(FIB, "um-vn", {"m": (10, 3)}), ()),
    "sweep-no-primes": (lambda: sweep(FIB, "triple", {"p": ()}), ()),
    "sweep-repeated-prime": (lambda: sweep(FIB, "triple", {"p": (3, 3)}), ()),
    "sweep-one-bound": (lambda: sweep(FIB, "um-un", {"m": (5,)}), ()),
    "sweep-bare-bound": (lambda: sweep(FIB, "um-un", {"m": 5}), ()),
    "sweep-bare-prime": (lambda: sweep(FIB, "triple", {"p": 3}), ()),
    "sweep-non-int-bound": (lambda: sweep(FIB, "um-un", {"n": ("a", 3)}), ()),
    "sweep-three-bounds": (lambda: sweep(FIB, "um-un", {"m": (3, 4, 9), "n": (3, 3)}), ()),
    "sweep-ranges-list": (lambda: sweep(FIB, "um-un", [("m", (3, 4))]), ()),
    "sweep-ranges-0": (lambda: sweep(FIB, "um-un", 0), ()),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_bad_argument_raises_lucas_rank_error(name):
    fn, args = BAD_CALLS[name]
    with pytest.raises(LucasRankError):
        fn(*args)


@pytest.mark.parametrize(
    "name, message",
    [
        ("tau_scan-cap-0", "need cap >= 1, got 0"),
        ("tau_scan-cap-minus-1", "need cap >= 1, got -1"),
        ("sweep-ranges-list", r"malformed ranges: \[\('m', \(3, 4\)\)\]"),
        ("sweep-ranges-0", "malformed ranges: 0"),
    ],
)
def test_refused_as_bad_range(name, message):
    fn, args = BAD_CALLS[name]
    with pytest.raises(BadRange, match=f"^{message}$"):
        fn(*args)


def test_bad_range_is_still_a_value_error():
    assert issubclass(BadRange, ValueError)
