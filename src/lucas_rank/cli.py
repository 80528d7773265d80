"""Command line front end.

Exit codes: 0 success, 1 domain error, 2 a verification run recorded a
disagreement, 64 usage error.  All values are read and printed as
arbitrary-size decimal integers.  Output for a fixed argv and --seed is
byte-identical between runs; pass --timings to include per-cell wall
times in verification reports at the cost of that stability.
"""

import argparse
import json
import os
import sys

from . import rank
from .errors import LucasRankError
from .gcd_identities import divides_uu, divides_vu, gcd_uu, gcd_uv, gcd_vv
from .lucas_core import make_params, u_exact, uv_mod, v_exact
from .valuation import nu_int, nu_u, nu_v


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"error: {message}\n")


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _prime_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}") from exc


def _csv_path(text: str) -> str:
    """Refuse a --csv path that cannot be written before any sweep work starts."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    folder = os.path.dirname(text) or "."
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if os.path.exists(text) and not os.access(text, os.W_OK):
        raise argparse.ArgumentTypeError(f"{text!r} is not writable")
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise argparse.ArgumentTypeError(f"no writable directory {folder!r} for {text!r}")
    return text


def _params(ns):
    return make_params(ns.a, ns.b)


# ---------------------------------------------------------------- handlers


def _handler(compute):
    """Print what compute(ns) returns: a result record or a (text, JSON payload) pair.

    A record prints its value as text and its fields in order as JSON.
    """

    def handler(ns) -> int:
        r = compute(ns)
        text, payload = (str(r.value), r._asdict()) if hasattr(r, "_asdict") else r
        print(json.dumps(payload) if ns.format == "json" else text)
        return 0

    return handler


def _report_handler(compute):
    """Print the SweepReport compute(ns) returns, write --csv; exit 2 on a disagreement."""

    def handler(ns) -> int:
        from . import verifier

        report = compute(ns)
        if ns.format == "json":
            print(verifier.report_to_json(report, include_timings=ns.timings))
        else:
            print(verifier.report_to_text(report))
        if ns.csv:
            with open(ns.csv, "w", newline="") as fh:
                fh.write(verifier.report_to_csv(report, include_timings=ns.timings))
        return 2 if report.summary.disagreed else 0

    return handler


def _seq(ns):
    value = (u_exact if ns.which == "u" else v_exact)(_params(ns), ns.n)
    return str(value), {"kind": ns.which.upper(), "index": ns.n, "value": value}


def _seq_mod(ns):
    u, v = uv_mod(_params(ns), ns.n, ns.modulus)
    return f"{u} {v}", {"index": ns.n, "modulus": ns.modulus, "u": u, "v": v}


def _divides(ns):
    flag = (divides_uu if ns.which == "uu" else divides_vu)(_params(ns), ns.n, ns.m)
    return ("true" if flag else "false"), {"divides": flag}


# `verify sweep` flags that only some theorems take, and the grid key each sets
_SWEEP_FLAGS = {"m_min": "m", "m_max": "m", "primes": "p"}


def _cmd_verify_sweep(ns):
    from . import verifier

    keys = verifier.THEOREM_TABLE[ns.theorem].keys
    for flag, key in _SWEEP_FLAGS.items():
        if getattr(ns, flag) is not None and key not in keys:
            ns.usage_error(f"argument --{flag.replace('_', '-')}: "
                           f"not allowed with --theorem {ns.theorem}")
    given = {"m": (ns.m_min, ns.m_max), "n": (ns.n_min, ns.n_max), "p": ns.primes}
    return verifier.sweep(_params(ns), ns.theorem, {key: given[key] for key in keys},
                          seed=ns.seed)


# ------------------------------------------------------------------ parser


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The parser; given `commands`, the other top-level subcommands are left bare.

    A bare subcommand has no options, but still shows in the top-level help and choices.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=int, default=1, help="coefficient a (default 1)")
    common.add_argument("--b", type=int, default=1, help="coefficient b (default 1)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized factoring routine")

    parser = _Parser(prog="lucas-rank", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    top = parser.add_subparsers(dest="command", required=True)

    def built(name, text):
        """Whether `name` gets its options; if not, it is added bare."""
        if commands is None or name in commands:
            return True
        top.add_parser(name, help=text)
        return False

    def group(name, text):
        """A subcommand that only holds subcommands, chosen as ns.which; None if left bare."""
        if built(name, text):
            return top.add_parser(name, help=text).add_subparsers(dest="which", required=True)
        return None

    def command(parent, name, compute, flags, **kwargs):
        """A subcommand printed by _handler(compute); flags maps each to (type, help)."""
        p = parent.add_parser(name, parents=[common], **kwargs)
        for flag, (kind, text) in flags.items():
            p.add_argument(flag, type=kind, required=True, help=text)
        p.set_defaults(func=_handler(compute), usage_error=p.error)
        return p

    if seq := group("seq", "evaluate U_n or V_n"):
        for name in ("u", "v"):
            command(seq, name, _seq, {"--n": (_nonneg, None)})
        command(seq, "mod", _seq_mod, {"--n": (_nonneg, None), "--modulus": (_positive, None)})

    if val := group("val", "p-adic valuations"):
        for name, arg, kind, compute in (
            ("u", "--n", _positive, lambda ns: nu_u(_params(ns), ns.p, ns.n)),
            ("v", "--n", _positive, lambda ns: nu_v(_params(ns), ns.p, ns.n)),
            ("int", "--x", int, lambda ns: nu_int(ns.p, ns.x)),
        ):
            command(val, name, compute, {"--p": (_positive, None), arg: (kind, None)})

    if gcd := group("gcd", "gcd closed forms"):
        for name, fn in (("uu", gcd_uu), ("vv", gcd_vv), ("uv", gcd_uv)):
            command(gcd, name, lambda ns, fn=fn: fn(_params(ns), ns.m, ns.n),
                    {"--m": (_positive, None), "--n": (_positive, None)})

    if div := group("divides", "index-based divisibility"):
        for name in ("uu", "vu"):
            command(div, name, _divides, {"--n": (_positive, "divisor index"),
                                          "--m": (_positive, "dividend index")})

    if built("tau", text := "rank of apparition, fast path"):
        command(top, "tau", lambda ns: rank.tau(_params(ns), ns.m, seed=ns.seed),
                {"--m": (_positive, None)}, help=text)
    if built("tau-scan", text := "rank of apparition by definitional scan"):
        p = command(top, "tau-scan", lambda ns: rank.tau_scan(_params(ns), ns.m, ns.cap),
                    {"--m": (_positive, None)}, help=text)
        p.add_argument("--cap", type=_positive, default=2 ** 32,
                       help="scan limit (default 2^32: at most 2^16 giant steps over "
                            "the 2^16-entry baby table)")

    if formula := group("formula", "closed forms for tau of products"):
        from . import verifier  # with closed_form; no other command loads them

        for name, theorem in verifier.THEOREM_TABLE.items():
            command(formula, name, lambda ns, theorem=theorem: theorem.evaluate(
                _params(ns), *(getattr(ns, k) for k in theorem.keys)),
                {f"--{key}": (_positive, None) for key in theorem.keys})

    if verify := group("verify", "grid verification reports"):
        from . import verifier

        report_common = argparse.ArgumentParser(add_help=False)
        report_common.add_argument("--csv", type=_csv_path, default=None, metavar="PATH",
                                   help="also write the cells to a CSV file")
        report_common.add_argument("--timings", action="store_true",
                                   help="include per-cell wall times in the output")
        p = verify.add_parser("sweep", parents=[common, report_common])
        p.add_argument("--theorem", choices=verifier.THEOREMS, required=True)
        p.add_argument("--m-min", type=_positive, default=None)
        p.add_argument("--m-max", type=_positive, default=None)
        p.add_argument("--n-min", type=_positive, default=None)
        p.add_argument("--n-max", type=_positive, default=None)
        p.add_argument("--primes", type=_prime_list, default=None,
                       help="comma-separated odd primes for the triple form")
        p.set_defaults(func=_report_handler(_cmd_verify_sweep), usage_error=p.error)
        p = verify.add_parser("remark", parents=[common, report_common])
        p.set_defaults(func=_report_handler(lambda ns: verifier.reproduce_remark(seed=ns.seed)),
                       usage_error=p.error)
        p = verify.add_parser("fixtures", parents=[common, report_common])
        p.set_defaults(func=_report_handler(lambda ns: verifier.check_delta_negative_fixtures()),
                       usage_error=p.error)

    return parser


def run(argv=None) -> int:
    # print U_n and V_n of any length; the limit is process-wide, so put it back
    if not hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        return _dispatch(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _dispatch(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _dispatch(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first word, since the top level takes no option with a value
    command = [arg for arg in argv if not arg.startswith("-")][:1]
    try:
        ns, unknown = build_parser(command).parse_known_args(argv)
        if unknown:  # refused by the subcommand's parser, which shows its own usage
            ns.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
        return ns.func(ns)
    except SystemExit as exc:  # --help, or a usage error from parsing or ns.usage_error
        return 0 if not exc.code else int(exc.code)
    except LucasRankError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
