"""Grid verification of the closed forms against independent oracles.

A sweep evaluates one closed form over a grid of indices, computes the
actual product, and asks an oracle for the true rank of apparition.
Disagreements are recorded verbatim, never suppressed.  Every cell has
one route: the oracle strips a verified multiple down to the minimum;
cells claimed below `DEFAULT_SCAN_BELOW` additionally get the
definitional scan, so the two routes stay independent; and a cell whose
claimed value is not a multiple of the stripped rank is scanned up to
`_SCAN_HARD_CAP` instead.  One `_Sweep` holds a sweep's inputs, its
exact terms and its part caches, and its `cell` method evaluates one
point, given as the values of the theorem's keys in key order.  A sweep
runs its cells in one process and does each piece of work once, in the
cell that first needs it: it evaluates each exact term U_i or V_i, walks
each part the scan splits a target into (see `rank._split_scan`), and
strips each such part (see `_Sweep.strip`).  A sweep has one (a, b), so
the least k a walk finds is kept under its part in one dict, and a
strip's rank under its part in another, so the scan never reads a
strip's answer.  A cell splits its target once, and hands the strip's
parts to a scan at the same cap.
"""

import itertools
import json
import math
import time
from collections import Counter
from collections.abc import Callable
from typing import NamedTuple

from . import closed_form, rank
from .errors import BadRange, NotAMultiple, NotEligible, NotFound
from .gcd_identities import divides_uu, divides_vu
from .lucas_core import LucasParams, make_params, u_exact, v_exact


class Theorem(NamedTuple):
    """One product closed form: how to evaluate it, recompute it and sweep it."""

    closed_form: str  # function name in `closed_form`, looked up on each call
    keys: tuple[str, ...]  # point keys in argument order; also the CLI flags
    exact_product: Callable[..., int]  # (sweep, *keys) -> the product; sweep.u(i) is U_i
    defaults: dict  # (low, high) per key, p's primes listed; in loop order, outermost first
    labels: frozenset

    def evaluate(self, params: LucasParams, *values: int):
        """The ClosedFormResult at one point, given as its values in key order."""
        # looked up on the module at call time so one formula can be swapped out
        return getattr(closed_form, self.closed_form)(params, *values)


_PAIR_DEFAULTS = {"m": (3, 20), "n": (3, 20)}

THEOREM_TABLE = {
    "um-vn": Theorem(
        "tau_um_vn", ("m", "n"), lambda s, m, n: s.u(m) * s.v(n),
        _PAIR_DEFAULTS, frozenset({"2lcm", "lcm*V_d"}),
    ),
    "um-un": Theorem(
        "tau_um_un", ("m", "n"), lambda s, m, n: s.u(m) * s.u(n),
        _PAIR_DEFAULTS, frozenset({"lcm*U_d"}),
    ),
    "vm-vn": Theorem(
        "tau_vm_vn", ("m", "n"), lambda s, m, n: s.v(m) * s.v(n),
        _PAIR_DEFAULTS, frozenset({"lcm*gcd", "2lcm*gcd"}),
    ),
    "triple": Theorem(
        "tau_triple", ("n", "p"),
        lambda s, n, p: s.u(n) * s.u(n + p) * s.u(n + 2 * p),
        {"p": (3, 5, 7), "n": (1, 60)},
        frozenset({"p!|n,2!|n", "p!|n,2|n", "p|n,2!|n", "p|n,2|n"}),
    ),
}
THEOREMS = tuple(THEOREM_TABLE)
PAIR_THEOREMS = tuple(t for t, th in THEOREM_TABLE.items() if th.keys == ("m", "n"))

# Closed-form values below this get the extra definitional scan.
DEFAULT_SCAN_BELOW = 10 ** 7
_SCAN_HARD_CAP = 10 ** 8  # the cap of the scan when the strip raises NotAMultiple


class SweepCell(NamedTuple):
    inputs: dict
    closed_form_value: int
    oracle_value: int | None
    case_label: str
    agree: bool
    elapsed_ms: float = 0.0


class SweepSummary(NamedTuple):
    total: int
    agreed: int
    disagreed: int
    branch_coverage: dict


class SweepReport(NamedTuple):
    params: LucasParams
    theorem: str
    cells: list
    summary: SweepSummary


class _Sweep:
    """One sweep's inputs, its exact terms by index and its parts' walks and strips."""

    def __init__(self, params: LucasParams, theorem: str, *,
                 scan_below: int = DEFAULT_SCAN_BELOW, seed: int = 0):
        self.params, self.theorem = params, THEOREM_TABLE[theorem]
        self.scan_below, self.seed = scan_below, seed
        self.us, self.vs, self.walked, self.stripped = {}, {}, {}, {}

    def u(self, i: int) -> int:
        """U_i, evaluated exactly in the cell that first needs it."""
        return self.us[i] if i in self.us else self.us.setdefault(i, u_exact(self.params, i))

    def v(self, i: int) -> int:
        """V_i, evaluated exactly in the cell that first needs it."""
        return self.vs[i] if i in self.vs else self.vs.setdefault(i, v_exact(self.params, i))

    def scan(self, target: int, cap: int, parts: tuple | None = None) -> int | None:
        try:
            return rank.tau_scan(self.params, target, cap, walked=self.walked, parts=parts).value
        except NotFound:
            return None

    def strip(self, target: int, parts: tuple | None, claimed: int) -> int:
        """tau(target) by the divisor-minimality strip, run once per part of target per sweep.

        `parts` is `tuple(rank._parts(target, claimed))`, the split that the
        cell also hands the scan at cap `claimed`, or None past
        `rank.FACTOR_BOUND`.  The parts are pairwise coprime, so tau(target) is
        the lcm of their ranks, and a part divides U_claimed exactly when its
        rank divides `claimed` (Lucas, Amer. J. Math. 1, 1878).  So each part
        is stripped once, from `claimed`, and its rank is kept in `stripped`
        under the part, since a sweep has one (a, b); a later cell raises
        NotAMultiple when `claimed` is not a multiple of a kept rank.  A
        claimed value above `rank.FACTOR_BOUND` goes to the oracle whole,
        whatever `parts` holds, and the oracle refuses it with TooLarge when
        `target` divides U_claimed.
        """
        if claimed > rank.FACTOR_BOUND:
            return rank.tau_min_divisor_oracle(self.params, target, claimed, seed=self.seed).value
        k = 1
        for part, _ in parts:
            t = self.stripped.get(part)
            if t is None:
                t = self.stripped[part] = rank.tau_min_divisor_oracle(
                    self.params, part, claimed, seed=self.seed).value
            elif claimed % t:
                raise NotAMultiple(f"{part} does not divide U_{claimed}")
            k = math.lcm(k, t)
        return k

    def cell(self, values: tuple) -> SweepCell:
        """The cell at one point, given as the values of the theorem's keys in key order."""
        start = time.perf_counter()
        params, th = self.params, self.theorem
        inputs = dict(zip(th.keys, values))
        result = th.evaluate(params, *values)
        claimed = result.value
        target = th.exact_product(self, *values)
        # split once, for the strip and for a scan at the same cap
        parts = tuple(rank._parts(target, claimed)) if claimed <= rank.FACTOR_BOUND else None
        try:
            got = self.strip(target, parts, claimed)
        except NotAMultiple:
            inputs["oracle_note"] = "claimed value is not a multiple of the rank"
            got = self.scan(target, _SCAN_HARD_CAP)
        else:
            if got == claimed and claimed < self.scan_below:
                inputs["scan_checked"] = True
                got = self.scan(target, claimed, parts)
        return SweepCell(inputs=inputs, closed_form_value=claimed, oracle_value=got,
                         case_label=result.case_label, agree=got == claimed,
                         elapsed_ms=(time.perf_counter() - start) * 1000.0)


def _summarize(cells: list[SweepCell]) -> SweepSummary:
    agreed = sum(1 for c in cells if c.agree)
    coverage = Counter(c.case_label for c in cells)
    return SweepSummary(
        total=len(cells),
        agreed=agreed,
        disagreed=len(cells) - agreed,
        branch_coverage=dict(sorted(coverage.items())),
    )


def sweep(
    params: LucasParams,
    theorem: str,
    ranges: dict | None = None,
    *,
    seed: int = 0,
) -> SweepReport:
    """Check one closed form over a grid; see module docstring.

    `ranges`, a dict or None, overrides the theorem's defaults key by key
    with (low, high) int pairs ({"m": (3, 20), "n": (3, 20)}; the triple's
    {"n": (1, 60)}) and a tuple of primes ({"p": (3, 5, 7)}); a key or a
    bound given as None keeps its default, and any other shape or key is
    refused.  The loops nest in the order of the theorem's defaults,
    outermost first; listed primes keep their given order.  The report
    lists the cells in the loops' order.
    """
    if theorem not in THEOREM_TABLE:
        raise BadRange(f"unknown theorem tag: {theorem}")
    th = THEOREM_TABLE[theorem]
    if ranges is None:
        ranges = {}
    elif not isinstance(ranges, dict):
        raise BadRange(f"malformed ranges: {ranges!r}")
    grid = dict(th.defaults)
    for key, given in ranges.items():
        if key not in grid:
            raise BadRange(f"theorem {theorem} takes no range for {key}")
        given = grid[key] if given is None else given  # None keeps the default
        listed = key == "p"  # the triple's primes are listed, not bounded
        if not (isinstance(given, (tuple, list)) and (listed or len(given) == 2)
                and all(isinstance(g, int) or g is None and not listed for g in given)):
            raise BadRange(f"malformed range for {key}: {given!r}")
        grid[key] = given if listed else tuple(
            d if g is None else g for g, d in zip(given, grid[key]))
    for key in th.keys:  # checked in argument order; each key becomes its values in place
        given = grid[key]
        grid[key] = given if key == "p" else range(given[0], given[1] + 1)
        if not grid[key]:
            raise BadRange(f"empty range for {key}: {given}")
        if key == "p" and len(set(given)) < len(given):
            raise BadRange(f"repeated prime in p: {given}")
    # loops nest in the defaults' order; each point lists its values in argument order
    at = [list(grid).index(key) for key in th.keys]
    # the closed form's own refusals, asked at the grid's low corners before any cell
    for corner in itertools.product(*(v if k == "p" else v[:1] for k, v in grid.items())):
        th.evaluate(params, *(corner[i] for i in at))
    points = [tuple(values[i] for i in at) for values in itertools.product(*grid.values())]
    cells = list(map(_Sweep(params, theorem, seed=seed).cell, points))
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
    # scan_below=0: the remark's cell carries no scan_checked marker
    run = _Sweep(params, "triple", scan_below=0, seed=seed)
    cell = run.cell((n, p))
    target = run.theorem.exact_product(run, n, p)
    alternative = n * (n + p) * (n + 2 * p) // (2 * p * p) * run.u(p) * run.u(2 * p)
    alt_strips_to = rank.tau_min_divisor_oracle(params, target, alternative, seed=seed).value
    cell.inputs.update(
        alternative_value=alternative,
        alternative_strips_to=alt_strips_to,
        ratio=alternative // cell.closed_form_value,
        oracle_method="divisor-minimality",
    )
    cell = cell._replace(
        agree=cell.agree and alt_strips_to == cell.closed_form_value,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
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
        is_u = fx["kind"] == "U"
        small = (u_exact if is_u else v_exact)(params, n)
        big = u_exact(params, m)
        value_divides = big % small == 0
        index_rule = m % n == 0 and (is_u or (m // n) % 2 == 0)
        try:
            (divides_uu if is_u else divides_vu)(params, n, m)
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


def _plain(value):
    """Records as dicts of their fields in order, recursively; dicts and lists are copied."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def report_to_dict(report: SweepReport, *, include_timings: bool = False) -> dict:
    """The report's fields in declaration order, as fresh dicts and lists."""
    d = _plain(report)
    if not include_timings:
        for cell in d["cells"]:
            del cell["elapsed_ms"]
    return d


def report_to_json(report: SweepReport, *, include_timings: bool = False) -> str:
    """Stable JSON: timings are opt-in so equal runs give equal bytes."""
    return json.dumps(report_to_dict(report, include_timings=include_timings), indent=2)


def report_to_text(report: SweepReport) -> str:
    """A summary line, branch coverage, the remark's values and one line per disagreement."""
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


def report_to_csv(report: SweepReport, *, include_timings: bool = False) -> str:
    """One row per cell, columns as SweepCell's fields; inputs are packed as a JSON column."""
    import csv  # imported here: only CSV output needs it
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    columns = [f for f in SweepCell._fields if include_timings or f != "elapsed_ms"]
    writer.writerow(["theorem", "a", "b", *columns])
    for d in report_to_dict(report, include_timings=include_timings)["cells"]:
        d["inputs"] = json.dumps(d["inputs"], sort_keys=True)
        d["agree"] = int(d["agree"])
        if include_timings:
            d["elapsed_ms"] = f"{d['elapsed_ms']:.3f}"
        writer.writerow([report.theorem, report.params.a, report.params.b, *d.values()])
    return buf.getvalue()
