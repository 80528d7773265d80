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

from . import rank, verifier
from .errors import LucasRankError
from .gcd_identities import divides_uu, divides_vu, gcd_uu, gcd_uv, gcd_vv
from .lucas_core import make_params, u_exact, uv_mod, v_exact
from .valuation import nu_int, nu_u, nu_v


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


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


def _emit(ns, text: str, payload: dict) -> None:
    if ns.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def _params(ns):
    return make_params(ns.a, ns.b)


# ---------------------------------------------------------------- handlers


def _cmd_seq(ns) -> int:
    value = (u_exact if ns.which == "u" else v_exact)(_params(ns), ns.n)
    _emit(ns, str(value), {"kind": ns.which.upper(), "index": ns.n, "value": value})
    return 0


def _cmd_seq_mod(ns) -> int:
    u, v = uv_mod(_params(ns), ns.n, ns.modulus)
    _emit(ns, f"{u} {v}", {"index": ns.n, "modulus": ns.modulus, "u": u, "v": v})
    return 0


def _cmd_val(ns) -> int:
    if ns.which == "int":
        r = nu_int(ns.p, ns.x)
    else:
        r = (nu_u if ns.which == "u" else nu_v)(_params(ns), ns.p, ns.n)
    _emit(ns, str(r.value), {"value": r.value, "prime": r.prime, "case": r.case})
    return 0


def _gcd_handler(fn):
    def handler(ns) -> int:
        w = fn(_params(ns), ns.m, ns.n)
        _emit(ns, str(w.value), {"value": w.value, "branch": w.branch, "d": w.d})
        return 0

    return handler


def _divides_handler(fn):
    def handler(ns) -> int:
        flag = fn(_params(ns), ns.n, ns.m)
        _emit(ns, "true" if flag else "false", {"divides": flag})
        return 0

    return handler


def _tau_payload(r) -> dict:
    return {
        "value": r.value,
        "method": r.method,
        "witness": list(r.witness) if r.witness is not None else None,
    }


def _cmd_tau(ns) -> int:
    r = rank.tau(_params(ns), ns.m, seed=ns.seed)
    _emit(ns, str(r.value), _tau_payload(r))
    return 0


def _cmd_tau_scan(ns) -> int:
    cap = ns.cap if ns.cap is not None else 10 * ns.m * ns.m + 10
    r = rank.tau_scan(_params(ns), ns.m, cap)
    _emit(ns, str(r.value), _tau_payload(r))
    return 0


def _cmd_formula(ns) -> int:
    r = verifier.THEOREM_TABLE[ns.which].evaluate(_params(ns), vars(ns))
    _emit(
        ns,
        str(r.value),
        {"value": r.value, "case_label": r.case_label, "ingredients": r.ingredients},
    )
    return 0


def _resolve_jobs(ns) -> int:
    if ns.jobs is not None:
        return ns.jobs
    raw = os.environ.get("LUCAS_RANK_JOBS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            print(f"warning: ignoring LUCAS_RANK_JOBS={raw!r}", file=sys.stderr)
    return 1


def _report_text(report) -> str:
    s = report.summary
    lines = [
        f"theorem={report.theorem} a={report.params.a} b={report.params.b} "
        f"cells={s.total} agreed={s.agreed} disagreed={s.disagreed}"
    ]
    if s.branch_coverage:
        coverage = " ".join(f"{k}={v}" for k, v in s.branch_coverage.items())
        lines.append(f"coverage: {coverage}")
    if report.theorem == "remark":
        c = report.cells[0]
        lines.append(
            f"closed_form={c.closed_form_value} oracle={c.oracle_value} "
            f"alternative={c.inputs['alternative_value']} ratio={c.inputs['ratio']}"
        )
    for c in report.cells:
        if not c.agree:
            lines.append(
                f"DISAGREE inputs={json.dumps(c.inputs, sort_keys=True)} "
                f"closed={c.closed_form_value} oracle={c.oracle_value}"
            )
    return "\n".join(lines)


def _finish_report(ns, report) -> int:
    if ns.format == "json":
        print(verifier.report_to_json(report, include_timings=ns.timings))
    else:
        print(_report_text(report))
    if ns.csv:
        with open(ns.csv, "w", newline="") as fh:
            fh.write(verifier.report_to_csv(report, include_timings=ns.timings))
    return 2 if report.summary.disagreed else 0


def _cmd_verify_sweep(ns) -> int:
    ranges = verifier.default_ranges(ns.theorem)
    for key, default in ranges.items():
        if key == "p":  # the triple's primes are listed, not bounded
            if ns.primes is not None:
                ranges[key] = ns.primes
            continue
        lo, hi = getattr(ns, f"{key}_min"), getattr(ns, f"{key}_max")
        ranges[key] = (default[0] if lo is None else lo, default[1] if hi is None else hi)
    report = verifier.sweep(
        _params(ns),
        ns.theorem,
        ranges,
        oracle=ns.oracle,
        jobs=_resolve_jobs(ns),
        scan_below=ns.scan_below,
        seed=ns.seed,
    )
    return _finish_report(ns, report)


def _cmd_verify_remark(ns) -> int:
    return _finish_report(ns, verifier.reproduce_remark(seed=ns.seed))


def _cmd_verify_fixtures(ns) -> int:
    return _finish_report(ns, verifier.check_delta_negative_fixtures())


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=int, default=1, help="coefficient a (default 1)")
    common.add_argument("--b", type=int, default=1, help="coefficient b (default 1)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized factoring routine")

    parser = _Parser(prog="lucas-rank", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    top = parser.add_subparsers(dest="command", required=True)

    seq = top.add_parser("seq", help="evaluate U_n or V_n").add_subparsers(
        dest="which", required=True)
    for name in ("u", "v"):
        p = seq.add_parser(name, parents=[common])
        p.add_argument("--n", type=_nonneg, required=True)
        p.set_defaults(func=_cmd_seq)
    p = seq.add_parser("mod", parents=[common])
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--modulus", type=_positive, required=True)
    p.set_defaults(func=_cmd_seq_mod)

    val = top.add_parser("val", help="p-adic valuations").add_subparsers(
        dest="which", required=True)
    for name, arg, kind in (("u", "--n", _positive), ("v", "--n", _positive), ("int", "--x", int)):
        p = val.add_parser(name, parents=[common])
        p.add_argument("--p", type=_positive, required=True)
        p.add_argument(arg, type=kind, required=True)
        p.set_defaults(func=_cmd_val)

    gcd = top.add_parser("gcd", help="gcd closed forms").add_subparsers(
        dest="which", required=True)
    for name, fn in (("uu", gcd_uu), ("vv", gcd_vv), ("uv", gcd_uv)):
        p = gcd.add_parser(name, parents=[common])
        p.add_argument("--m", type=_positive, required=True)
        p.add_argument("--n", type=_positive, required=True)
        p.set_defaults(func=_gcd_handler(fn))

    div = top.add_parser("divides", help="index-based divisibility").add_subparsers(
        dest="which", required=True)
    for name, fn in (("uu", divides_uu), ("vu", divides_vu)):
        p = div.add_parser(name, parents=[common])
        p.add_argument("--n", type=_positive, required=True, help="divisor index")
        p.add_argument("--m", type=_positive, required=True, help="dividend index")
        p.set_defaults(func=_divides_handler(fn))

    p = top.add_parser("tau", parents=[common], help="rank of apparition, fast path")
    p.add_argument("--m", type=_positive, required=True)
    p.set_defaults(func=_cmd_tau)

    p = top.add_parser("tau-scan", parents=[common],
                       help="rank of apparition by definitional scan")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--cap", type=_positive, default=None,
                   help="scan limit (default 10*m^2 + 10)")
    p.set_defaults(func=_cmd_tau_scan)

    formula = top.add_parser("formula", help="closed forms for tau of products") \
        .add_subparsers(dest="which", required=True)
    for name, theorem in verifier.THEOREM_TABLE.items():
        p = formula.add_parser(name, parents=[common])
        for key in theorem.keys:
            p.add_argument(f"--{key}", type=_positive, required=True)
        p.set_defaults(func=_cmd_formula)

    verify = top.add_parser("verify", help="grid verification reports").add_subparsers(
        dest="which", required=True)
    report_common = argparse.ArgumentParser(add_help=False)
    report_common.add_argument("--csv", default=None, metavar="PATH",
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
    p.add_argument("--oracle", choices=verifier.ORACLES, default="divisor-minimality")
    p.add_argument("--scan-below", type=_nonneg, default=verifier.DEFAULT_SCAN_BELOW,
                   help="extra definitional scan for values below this bound")
    p.add_argument("--jobs", type=_positive, default=None,
                   help="worker processes (default 1, or LUCAS_RANK_JOBS)")
    p.set_defaults(func=_cmd_verify_sweep)
    p = verify.add_parser("remark", parents=[common, report_common])
    p.set_defaults(func=_cmd_verify_remark)
    p = verify.add_parser("fixtures", parents=[common, report_common])
    p.set_defaults(func=_cmd_verify_fixtures)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # --help
        return 0 if not exc.code else int(exc.code)
    try:
        return ns.func(ns)
    except LucasRankError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
