"""Rank of apparition toolkit for generalized Lucas sequences.

Sequences U and V satisfy x_{n+2} = a*x_{n+1} + b*x_n with starts
(0, 1) and (2, a).  The rank of apparition tau(m) is the least k >= 1
with m | U_k.  The package evaluates sequences exactly and modularly,
computes tau three independent ways, provides closed forms for tau of
products of sequence values, and sweeps those closed forms against
brute-force oracles over parameter grids.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

# module -> the public names it defines; each module loads on first use
_EXPORTS = {
    "lucas_core": ("LucasParams", "make_params", "u_exact", "v_exact", "uv_mod"),
    "valuation": ("Valuation", "nu_int", "nu_u", "nu_v"),
    "gcd_identities": ("GcdWitness", "gcd_uu", "gcd_vv", "gcd_uv", "divides_uu", "divides_vu"),
    "rank": ("Factorization", "TauResult", "factorize", "tau", "tau_scan", "tau_prime",
             "tau_prime_power", "tau_min_divisor_oracle"),
    "closed_form": ("ClosedFormResult", "tau_um_vn", "tau_um_un", "tau_vm_vn", "tau_triple"),
    "verifier": ("SweepCell", "SweepSummary", "SweepReport", "sweep", "reproduce_remark",
                 "check_delta_negative_fixtures", "report_to_dict", "report_to_json",
                 "report_to_csv", "report_to_text"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_HOME, "__version__"]


def __getattr__(name):
    """Import a public name's module, or a submodule, the first time it is asked for."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS or name == "cli":
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
