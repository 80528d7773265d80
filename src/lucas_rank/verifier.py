"""Grid verification of the closed forms against independent oracles.

A sweep evaluates one closed form over a grid of indices, computes the
actual product, and asks an oracle for the true rank of apparition.
Disagreements are recorded verbatim, never suppressed.  The default
oracle strips a verified multiple down to the minimum; cells whose
closed-form value is small enough additionally get a full linear scan,
so the two routes stay independent.
"""

import csv
import io
import json
import os
import time
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import closed_form, rank
from .errors import BadRange, NotAMultiple, NotEligible, NotFound
from .gcd_identities import divides_uu, divides_vu
from .lucas_core import LucasParams, make_params, u_exact, v_exact


def _pair_grid(ranges: dict) -> list[dict]:
    (m_lo, m_hi), (n_lo, n_hi) = ranges["m"], ranges["n"]
    return [
        {"m": m, "n": n}
        for m in range(m_lo, m_hi + 1)
        for n in range(n_lo, n_hi + 1)
    ]


def _triple_grid(ranges: dict) -> list[dict]:
    n_lo, n_hi = ranges["n"]
    return [{"n": n, "p": p} for p in ranges["p"] for n in range(n_lo, n_hi + 1)]


@dataclass(frozen=True)
class Theorem:
    """One product closed form: how to evaluate it, recompute it and sweep it."""

    closed_form: str  # function name in `closed_form`, looked up on each call
    keys: tuple[str, ...]  # point keys in argument order; also the CLI flags
    terms: tuple  # factors of the product: ("U" | "V", index as a function of the keys)
    grid: Callable[[dict], list[dict]]
    defaults: dict
    labels: frozenset

    def evaluate(self, params: LucasParams, point: dict):
        """The ClosedFormResult at one point; extra keys in `point` are ignored."""
        # looked up on the module at call time so one formula can be swapped out
        fn = getattr(closed_form, self.closed_form)
        return fn(params, *map(point.__getitem__, self.keys))

    def product(self, params: LucasParams, point: dict) -> int:
        """The product of the terms at a point holding exactly `keys`, computed exactly."""
        value = 1
        for kind, index in self.terms:
            value *= (u_exact if kind == "U" else v_exact)(params, index(**point))
        return value


_PAIR_DEFAULTS = {"m": (3, 20), "n": (3, 20)}

THEOREM_TABLE = {
    "um-vn": Theorem(
        "tau_um_vn", ("m", "n"),
        (("U", lambda m, n: m), ("V", lambda m, n: n)),
        _pair_grid, _PAIR_DEFAULTS, frozenset({"2lcm", "lcm*V_d"}),
    ),
    "um-un": Theorem(
        "tau_um_un", ("m", "n"),
        (("U", lambda m, n: m), ("U", lambda m, n: n)),
        _pair_grid, _PAIR_DEFAULTS, frozenset({"lcm*U_d"}),
    ),
    "vm-vn": Theorem(
        "tau_vm_vn", ("m", "n"),
        (("V", lambda m, n: m), ("V", lambda m, n: n)),
        _pair_grid, _PAIR_DEFAULTS, frozenset({"lcm*gcd", "2lcm*gcd"}),
    ),
    "triple": Theorem(
        "tau_triple", ("n", "p"),
        (("U", lambda n, p: n), ("U", lambda n, p: n + p), ("U", lambda n, p: n + 2 * p)),
        _triple_grid, {"n": (1, 60), "p": (3, 5, 7)},
        frozenset({"p!|n,2!|n", "p!|n,2|n", "p|n,2!|n", "p|n,2|n"}),
    ),
}
THEOREMS = tuple(THEOREM_TABLE)
PAIR_THEOREMS = tuple(t for t, th in THEOREM_TABLE.items() if th.grid is _pair_grid)
ORACLES = ("divisor-minimality", "scan")

# Closed-form values below this get the extra definitional scan.
DEFAULT_SCAN_BELOW = 10 ** 7
_SCAN_HARD_CAP = 10 ** 8


@dataclass
class SweepCell:
    inputs: dict
    closed_form_value: int
    oracle_value: int | None
    case_label: str
    agree: bool
    elapsed_ms: float = 0.0


@dataclass
class SweepSummary:
    total: int
    agreed: int
    disagreed: int
    branch_coverage: dict


@dataclass
class SweepReport:
    params: LucasParams
    theorem: str
    cells: list
    summary: SweepSummary


def default_ranges(theorem: str) -> dict:
    if theorem not in THEOREM_TABLE:
        raise BadRange(f"unknown theorem tag: {theorem}")
    return dict(THEOREM_TABLE[theorem].defaults)


def _scan(params: LucasParams, target: int, cap: int) -> int | None:
    try:
        return rank.tau_scan(params, target, cap).value
    except NotFound:
        return None


def _evaluate_cell(args) -> SweepCell:
    params, theorem, point, oracle, scan_below, seed = args
    start = time.perf_counter()
    inputs = dict(point)
    th = THEOREM_TABLE[theorem]
    result = th.evaluate(params, point)
    claimed = result.value
    target = th.product(params, point)
    if oracle == "divisor-minimality":
        try:
            got = rank.tau_min_divisor_oracle(params, target, claimed, seed=seed).value
        except NotAMultiple:
            inputs["oracle_note"] = "claimed value is not a multiple of the rank"
            got = _scan(params, target, min(4 * claimed + 16, _SCAN_HARD_CAP))
        else:
            if got == claimed and claimed < scan_below:
                inputs["scan_checked"] = True
                got = _scan(params, target, claimed)
    elif claimed > _SCAN_HARD_CAP:  # the "scan" oracle
        inputs["oracle_cap_hit"] = True
        got = None
    else:
        got = _scan(params, target, claimed)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return SweepCell(
        inputs=inputs,
        closed_form_value=claimed,
        oracle_value=got,
        case_label=result.case_label,
        agree=(got == claimed),
        elapsed_ms=elapsed_ms,
    )


def _summarize(cells: list[SweepCell]) -> SweepSummary:
    agreed = sum(1 for c in cells if c.agree)
    coverage = Counter(c.case_label for c in cells)
    return SweepSummary(
        total=len(cells),
        agreed=agreed,
        disagreed=len(cells) - agreed,
        branch_coverage=dict(sorted(coverage.items())),
    )


def _worker_count(jobs: int, cells: int) -> int:
    """Worker processes for a sweep: never more than the CPUs or the cells."""
    return min(jobs, os.cpu_count() or 1, cells)


def sweep(
    params: LucasParams,
    theorem: str,
    ranges: dict | None = None,
    *,
    oracle: str = "divisor-minimality",
    jobs: int = 1,
    scan_below: int = DEFAULT_SCAN_BELOW,
    seed: int = 0,
) -> SweepReport:
    """Check one closed form over a grid; see module docstring.

    `ranges` overrides the theorem's default ranges key by key
    ({"m": (3, 20), "n": (3, 20)} for the pair forms, {"n": (1, 60),
    "p": (3, 5, 7)} for the triple).  Cells are independent, so jobs > 1
    evaluates them in worker processes, at most one per CPU and per
    cell; the report keeps deterministic input order either way.
    """
    grid = default_ranges(theorem)
    if oracle not in ORACLES:
        raise BadRange(f"unknown oracle: {oracle}")
    grid.update(ranges or {})
    work = [
        (params, theorem, point, oracle, scan_below, seed)
        for point in THEOREM_TABLE[theorem].grid(grid)
    ]
    workers = _worker_count(jobs, len(work))
    if workers > 1:
        chunk = max(1, len(work) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_evaluate_cell, work, chunksize=chunk))
    else:
        cells = [_evaluate_cell(w) for w in work]
    return SweepReport(params, theorem, cells, _summarize(cells))


def reproduce_remark(*, seed: int = 0) -> SweepReport:
    """Work the benchmark instance (a, b) = (1, 1), n = 50, p = 5.

    The closed form gives 82500 = 25 * 55 * 60.  A coarser published
    expression, n(n+p)(n+2p)/(2p^2) * U_p * U_{2p}, gives 907500; the
    report records that value, the factor between them, and what the
    divisor-minimality oracle reduces each one to.
    """
    params = make_params(1, 1)
    start = time.perf_counter()
    n, p = 50, 5
    triple = THEOREM_TABLE["triple"]
    result = triple.evaluate(params, {"n": n, "p": p})
    target = triple.product(params, {"n": n, "p": p})
    got = rank.tau_min_divisor_oracle(params, target, result.value, seed=seed).value
    alternative = (
        n * (n + p) * (n + 2 * p) // (2 * p * p)
        * u_exact(params, p)
        * u_exact(params, 2 * p)
    )
    alt_strips_to = rank.tau_min_divisor_oracle(params, target, alternative, seed=seed).value
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    cell = SweepCell(
        inputs={
            "n": n,
            "p": p,
            "alternative_value": alternative,
            "alternative_strips_to": alt_strips_to,
            "ratio": alternative // result.value,
            "oracle_method": "divisor-minimality",
        },
        closed_form_value=result.value,
        oracle_value=got,
        case_label=result.case_label,
        agree=(got == result.value and alt_strips_to == result.value),
        elapsed_ms=elapsed_ms,
    )
    return SweepReport(params, "remark", [cell], _summarize([cell]))


# Negative-discriminant pairs where value divisibility holds but the
# index rule fails, so the index-based shortcuts must refuse them.
_FIXTURES = (
    {"a": -3, "b": -5, "kind": "U", "n": 4, "divisor": 3, "m": 6, "dividend": 72},
    {"a": 1, "b": -2, "kind": "U", "n": 8, "divisor": -3, "m": 12, "dividend": 45},
    {"a": 4, "b": -5, "kind": "V", "n": 3, "divisor": 4, "m": 4, "dividend": 24},
    {"a": 2, "b": -3, "kind": "V", "n": 5, "divisor": 2, "m": 6, "dividend": -10},
)


def check_delta_negative_fixtures() -> SweepReport:
    """Recompute the counterexample fixtures and confirm the refusals."""
    cells = []
    for fx in _FIXTURES:
        start = time.perf_counter()
        params = make_params(fx["a"], fx["b"])
        n, m = fx["n"], fx["m"]
        small = (u_exact if fx["kind"] == "U" else v_exact)(params, n)
        big = u_exact(params, m)
        value_divides = big % small == 0
        if fx["kind"] == "U":
            index_rule = m % n == 0
        else:
            index_rule = m % n == 0 and (m // n) % 2 == 0
        try:
            if fx["kind"] == "U":
                divides_uu(params, n, m)
            else:
                divides_vu(params, n, m)
            rejected = False
        except NotEligible:
            rejected = True
        inputs = dict(fx)
        inputs.update(
            {
                "divisor_value": small,
                "dividend_value": big,
                "value_divides": value_divides,
                "index_rule_holds": index_rule,
                "rejected_not_eligible": rejected,
            }
        )
        agree = (
            small == fx["divisor"]
            and big == fx["dividend"]
            and value_divides
            and not index_rule
            and rejected
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        cells.append(
            SweepCell(
                inputs=inputs,
                closed_form_value=fx["dividend"],
                oracle_value=big,
                case_label=f"{fx['kind']}|U",
                agree=agree,
                elapsed_ms=elapsed_ms,
            )
        )
    params = make_params(1, 1)  # report header needs some params; fixtures carry their own
    return SweepReport(params, "fixtures", cells, _summarize(cells))


def report_to_dict(report: SweepReport, *, include_timings: bool = False) -> dict:
    cells = []
    for c in report.cells:
        d = {
            "inputs": c.inputs,
            "closed_form_value": c.closed_form_value,
            "oracle_value": c.oracle_value,
            "case_label": c.case_label,
            "agree": c.agree,
        }
        if include_timings:
            d["elapsed_ms"] = c.elapsed_ms
        cells.append(d)
    return {
        "params": {
            "a": report.params.a,
            "b": report.params.b,
            "delta": report.params.delta,
            "theorem_eligible": report.params.theorem_eligible,
        },
        "theorem": report.theorem,
        "cells": cells,
        "summary": {
            "total": report.summary.total,
            "agreed": report.summary.agreed,
            "disagreed": report.summary.disagreed,
            "branch_coverage": report.summary.branch_coverage,
        },
    }


def report_from_dict(data: dict) -> SweepReport:
    params = make_params(data["params"]["a"], data["params"]["b"])
    cells = [
        SweepCell(
            inputs=c["inputs"],
            closed_form_value=c["closed_form_value"],
            oracle_value=c["oracle_value"],
            case_label=c["case_label"],
            agree=c["agree"],
            elapsed_ms=c.get("elapsed_ms", 0.0),
        )
        for c in data["cells"]
    ]
    summary = SweepSummary(
        total=data["summary"]["total"],
        agreed=data["summary"]["agreed"],
        disagreed=data["summary"]["disagreed"],
        branch_coverage=data["summary"]["branch_coverage"],
    )
    return SweepReport(params, data["theorem"], cells, summary)


def report_to_json(report: SweepReport, *, include_timings: bool = False) -> str:
    """Stable JSON: timings are opt-in so equal runs give equal bytes."""
    return json.dumps(report_to_dict(report, include_timings=include_timings), indent=2)


def report_to_csv(report: SweepReport, *, include_timings: bool = False) -> str:
    """One row per cell; inputs are packed as a JSON column."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = [
        "theorem", "a", "b", "inputs",
        "closed_form_value", "oracle_value", "case_label", "agree",
    ]
    if include_timings:
        header.append("elapsed_ms")
    writer.writerow(header)
    for c in report.cells:
        row = [
            report.theorem,
            report.params.a,
            report.params.b,
            json.dumps(c.inputs, sort_keys=True),
            c.closed_form_value,
            c.oracle_value,
            c.case_label,
            int(c.agree),
        ]
        if include_timings:
            row.append(f"{c.elapsed_ms:.3f}")
        writer.writerow(row)
    return buf.getvalue()
