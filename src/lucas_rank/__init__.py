"""Rank of apparition toolkit for generalized Lucas sequences.

Sequences U and V satisfy x_{n+2} = a*x_{n+1} + b*x_n with starts
(0, 1) and (2, a).  The rank of apparition tau(m) is the least k >= 1
with m | U_k.  The package evaluates sequences exactly and modularly,
computes tau three independent ways, provides closed forms for tau of
products of sequence values, and sweeps those closed forms against
brute-force oracles over parameter grids.
"""

from . import errors
from .closed_form import (
    ClosedFormResult,
    tau_triple,
    tau_um_un,
    tau_um_vn,
    tau_vm_vn,
)
from .gcd_identities import (
    GcdWitness,
    divides_uu,
    divides_vu,
    gcd_uu,
    gcd_uv,
    gcd_vv,
)
from .lucas_core import (
    LucasParams,
    make_params,
    u_exact,
    uv_mod,
    v_exact,
)
from .rank import (
    Factorization,
    TauResult,
    factorize,
    tau,
    tau_min_divisor_oracle,
    tau_prime,
    tau_prime_power,
    tau_scan,
)
from .valuation import Valuation, nu_int, nu_u, nu_v
from .verifier import (
    SweepCell,
    SweepReport,
    SweepSummary,
    check_delta_negative_fixtures,
    report_from_dict,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_text,
    reproduce_remark,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "LucasParams",
    "make_params",
    "u_exact",
    "v_exact",
    "uv_mod",
    "Valuation",
    "nu_int",
    "nu_u",
    "nu_v",
    "GcdWitness",
    "gcd_uu",
    "gcd_vv",
    "gcd_uv",
    "divides_uu",
    "divides_vu",
    "Factorization",
    "TauResult",
    "factorize",
    "tau",
    "tau_scan",
    "tau_prime",
    "tau_prime_power",
    "tau_min_divisor_oracle",
    "ClosedFormResult",
    "tau_um_vn",
    "tau_um_un",
    "tau_vm_vn",
    "tau_triple",
    "SweepCell",
    "SweepSummary",
    "SweepReport",
    "sweep",
    "reproduce_remark",
    "check_delta_negative_fixtures",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "report_to_csv",
    "report_to_text",
    "__version__",
]
